"""Golden output digests: the sha256 of every CLI output on the five synth profiles.

Each profile's first scene (seed 101) is generated, then segmented, flagged
three ways, scored and swept in every mode, all through ``cli.main`` in this
process. The 1.1M-point criterion-10 scene is pinned by the digest of its
positions, classes and ground truth, and by the digest of its CLOI-PTS text
as ``save_pts`` writes it. The digests of the scenes and of the outputs are compared with the
committed table ``golden_digests.json``: a moved scene digest means the
input changed (``synth`` draws through ``np.sin`` and ``np.cos``, whose last
bit may differ between platforms), a moved output digest alone means the
pipeline's output changed.

On a mismatch the test prints the replacement table. To regenerate it::

    PYTHONPATH=src python tests/test_golden.py

A change that moves an output on purpose says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from cloiseg.cli import main
from cloiseg.model import save_pts
from cloiseg.synth import PROFILE_NAMES, generate_scene
from test_acceptance import _million_point_scene

TABLE = Path(__file__).resolve().with_name("golden_digests.json")
SEED = 101


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> bytes:
    """stdout of one in-process CLI call, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--quiet"])
    assert code == 0, argv
    return out.getvalue().encode()


def digests() -> dict[str, str]:
    """Digest of each scene and of each CLI output, keyed ``profile/output``.

    Files are written to the working directory under relative names, which
    the bias sweep prints as its facility names.
    """
    table = {}
    scenes = []
    for profile in PROFILE_NAMES:
        path = lambda name: f"{profile}-{name}"
        scene = path("scene.pts")
        _run(["synth", "--profile", profile, "--seed", str(SEED), "--out", scene])
        scenes.append(scene)
        files = {
            "segment": ["segment", scene, path("segment.pts")],
            "boundary": ["boundary", scene, path("boundary.pts")],
            "boundary-gt": ["boundary", "--gt", scene, path("boundary-gt.pts")],
            "boundary-gt-r0.03": ["boundary", "--gt", "--boundary-radius", "0.03", scene,
                                  path("boundary-gt-r0.03.pts")],
            "sweep-mu": ["sweep", "--mode", "mu", scene, "--out", path("sweep-mu.csv")],
            "sweep-epsilon": ["sweep", "--mode", "epsilon", scene,
                              "--out", path("sweep-epsilon.csv")],
            "sweep-radius": ["sweep", "--mode", "radius", scene,
                             "--out", path("sweep-radius.csv")],
            "sweep-radius-0.045": ["sweep", "--mode", "radius", scene, "--epsilons", "0.045",
                                   "--out", path("sweep-radius-0.045.csv")],
            "sweep-radius-0.02,0.02,0.05": ["sweep", "--mode", "radius", scene,
                                            "--epsilons", "0.02,0.02,0.05",
                                            "--out", path("sweep-radius-0.02,0.02,0.05.csv")],
        }
        table[f"{profile}/scene"] = _sha256(Path(scene).read_bytes())
        for name, argv in files.items():
            _run(argv)
            table[f"{profile}/{name}"] = _sha256(Path(argv[-1]).read_bytes())
        table[f"{profile}/eval"] = _sha256(_run(["eval", path("segment.pts"), scene]))
    bias = "sweep-bias.csv"
    _run(["sweep", "--mode", "bias", *scenes, "--out", bias])
    table["all/sweep-bias"] = _sha256(Path(bias).read_bytes())
    scan = generate_scene(_million_point_scene())
    table["criterion-10/scene"] = _sha256(
        scan.positions.tobytes() + scan.class_labels.tobytes() + scan.gt_instance.tobytes())
    save_pts(scan, "criterion-10-scene.pts")
    table["criterion-10/scene-pts"] = _sha256(Path("criterion-10-scene.pts").read_bytes())
    return table


def _text(table: dict[str, str]) -> str:
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def test_cli_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = digests()
    want = json.loads(TABLE.read_text())
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    scenes = [k for k in moved if k.endswith("/scene")]
    assert not moved, (
        f"{len(moved)} digests moved ({', '.join(moved)}); "
        + (f"the input scenes moved too ({', '.join(scenes)}). " if scenes
           else "every input scene is unchanged, so the output moved. ")
        + f"Replacement {TABLE.name}:\n{_text(got)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        TABLE.write_text(_text(digests()))
    sys.stdout.write(f"wrote {TABLE}\n")
