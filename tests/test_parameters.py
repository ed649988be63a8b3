"""Each parameter rule is applied alike by every entry point that takes the parameter.

For epsilon, the boundary radius, mu and the IoU threshold, every edge value
goes to each library object or call, sweep grid and CLI flag that takes it.
Either all of them accept the value or all reject it: the library raises
ValueError, and the CLI exits 1 before any file is read, each with a message
that names the parameter. The CLI runs on a missing input, so a value it
accepts exits 2 when the file is not found.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cloiseg import (
    BoundaryParams,
    InstanceLabeling,
    SegmentationParams,
    SingleObjectResult,
    SweepSpec,
    facility_bias_report,
    match_instances,
    rec_ins,
    score,
    segment_single_object,
    sweep_epsilon,
    sweep_mu,
    sweep_radius_per_object,
)
from cloiseg.cli import main
from conftest import grid_blob, make_cloud

MISSING = "missing.pts"
EDGES = (1e-13, 0.0, -1.0, math.inf, math.nan)

# two one-class cubes of 27 points, 1 cm apart inside and 1 m apart
_POINTS = np.vstack([grid_blob((0, 0, 0), 27), grid_blob((1, 0, 0), 27)])
CLOUD = make_cloud(_POINTS, classes=3, gt=np.repeat([0, 1], 27))
GT = InstanceLabeling.from_assignment(CLOUD.gt_instance, CLOUD.class_labels)

#: per parameter: the name its messages use, the values every entry point
#: accepts, the values to try, the library calls and the CLI argument lists
RULES = {
    "epsilon": ("epsilon", {1e-13}, EDGES, {
        "SegmentationParams": lambda v: SegmentationParams(epsilon=v),
        "segment_single_object": lambda v: segment_single_object(_POINTS, v),
        "SweepSpec": lambda v: SweepSpec(epsilons=(v,)),
        "sweep_mu": lambda v: sweep_mu(CLOUD, v, mus=(1,)),
        "sweep_epsilon": lambda v: sweep_epsilon(CLOUD, (v,)),
        "sweep_radius_per_object": lambda v: sweep_radius_per_object(CLOUD, (v,)),
    }, (
        ["segment", "--epsilon", "{}", MISSING, "out.pts"],
        ["sweep", "--mode", "mu", "--epsilon", "{}", MISSING],
        ["sweep", "--mode", "epsilon", "--epsilons", "{}", MISSING],
        ["sweep", "--mode", "radius", "--epsilons", "{}", MISSING],
    )),
    "boundary_radius": ("boundary radius", {1e-13}, EDGES, {
        "SegmentationParams": lambda v: SegmentationParams(boundary_radius=v),
        "BoundaryParams": lambda v: BoundaryParams(v),
        "sweep_mu": lambda v: sweep_mu(CLOUD, 0.04, mus=(1,), boundary_radius=v),
        "sweep_epsilon": lambda v: sweep_epsilon(CLOUD, (0.04,), boundary_radius=v),
    }, (
        ["segment", "--boundary-radius", "{}", MISSING, "out.pts"],
        ["boundary", "--boundary-radius", "{}", MISSING, "out.pts"],
        ["sweep", "--mode", "mu", "--boundary-radius", "{}", MISSING],
        ["sweep", "--mode", "epsilon", "--boundary-radius", "{}", MISSING],
    )),
    "mu": ("mu", {1}, (1, *EDGES, 2.5), {
        "SegmentationParams": lambda v: SegmentationParams(mu=v),
        "SweepSpec": lambda v: SweepSpec(mus=(v,)),
        "sweep_mu": lambda v: sweep_mu(CLOUD, 0.04, mus=(v,)),
        "sweep_epsilon": lambda v: sweep_epsilon(CLOUD, (0.04,), mu=v),
    }, (
        ["segment", "--mu", "{}", MISSING, "out.pts"],
        ["sweep", "--mode", "epsilon", "--mu", "{}", MISSING],
        ["sweep", "--mode", "mu", "--mus", "{}", MISSING],
    )),
    "threshold": ("threshold", {1e-13, 1.0}, (*EDGES, 1.0, 1.5), {
        "match_instances": lambda v: match_instances(GT, GT, v),
        "score": lambda v: score(GT, GT, thresholds=(v,)),
        "rec_ins": lambda v: rec_ins([SingleObjectResult(1, 1.0)], v),
        "SweepSpec": lambda v: SweepSpec(thresholds=(v,)),
        "sweep_mu": lambda v: sweep_mu(CLOUD, 0.04, mus=(1,), threshold=v),
        "sweep_epsilon": lambda v: sweep_epsilon(CLOUD, (0.04,), thresholds=(v,)),
        "sweep_radius_per_object": lambda v: sweep_radius_per_object(CLOUD, (0.04,), (v,)),
        "facility_bias_report":
            lambda v: facility_bias_report([("a", CLOUD), ("b", CLOUD)], threshold=v),
    }, (
        ["sweep", "--mode", "mu", "--threshold", "{}", MISSING],
        ["sweep", "--mode", "bias", "--threshold", "{}", MISSING, MISSING],
        ["sweep", "--mode", "epsilon", "--thresholds", "{}", MISSING],
        ["sweep", "--mode", "radius", "--thresholds", "{}", MISSING],
        ["eval", "--thresholds", "{}", MISSING, MISSING],
    )),
}

CASES = [(parameter, value) for parameter, (_, _, values, _, _) in RULES.items()
         for value in values]


def _library_verdict(call, value) -> str | None:
    """None if ``call(value)`` runs, else its ValueError message."""
    try:
        call(value)
    except ValueError as exc:
        return str(exc)
    return None


def _cli_verdict(argv, capsys) -> str | None:
    """None if the CLI accepts the value (and then exits 2 on the missing file),
    else its stderr after exit 1."""
    try:
        code = main([*argv, "--quiet"])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2), (argv, code, err)
    return err if code == 1 else None


@pytest.mark.parametrize("parameter, value", CASES, ids=[f"{p}={v:g}" for p, v in CASES])
def test_every_entry_point_applies_the_one_rule(parameter, value, capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    name, accepted, _, library, cli = RULES[parameter]
    verdicts = {entry: _library_verdict(call, value) for entry, call in library.items()}
    verdicts.update({" ".join(argv[:4]): _cli_verdict([a.format(f"{value:g}") for a in argv],
                                                      capsys) for argv in cli})
    want = value in accepted
    assert {entry for entry, message in verdicts.items() if (message is None) != want} == set()
    for entry, message in verdicts.items():
        assert message is None or name in message, (entry, message)
    assert not (tmp_path / "out.pts").exists()
