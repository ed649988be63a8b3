"""Independent brute-force reference implementations used as test oracles.

Everything here is written against the documented contracts with plain
O(N^2) numpy and Python loops, deliberately sharing no code with the
package internals.
"""

from __future__ import annotations

import numpy as np

NOISE = -1


def distance_matrix_sq(positions: np.ndarray) -> np.ndarray:
    """Squared distances summed as dx*dx + dy*dy + dz*dz, the order of every oracle here."""
    dx, dy, dz = (positions[:, None, :] - positions[None, :, :]).transpose(2, 0, 1)
    return dx * dx + dy * dy + dz * dz


def brute_cell_neighbours(positions: np.ndarray, side: float) -> np.ndarray:
    """Per pair of points: do their cubic cells of ``side``, counted from the
    cloud's minimum on each axis, lie at most one cell apart on every axis?"""
    cells = np.floor((positions - positions.min(axis=0)) / side)
    return (np.abs(cells[:, None, :] - cells[None, :, :]) <= 1).all(axis=2)


def brute_radius_neighbors(positions: np.ndarray, i: int, r: float) -> np.ndarray:
    d2 = np.sum((positions - positions[i]) ** 2, axis=1)
    hits = np.nonzero(d2 <= r * r)[0]
    return hits[hits != i]


def brute_nearest_within(positions: np.ndarray, queries: np.ndarray, cap: float) -> list:
    """(query row, point) for every point at a query's minimal distance, if <= cap."""
    out = []
    for row, q in enumerate(queries):
        if positions.shape[0] == 0:
            continue
        d2 = np.sum((positions - q) ** 2, axis=1)
        best = d2.min()
        if best <= cap * cap:
            out.extend((row, int(j)) for j in np.nonzero(d2 == best)[0])
    return out


def brute_class_boundaries(positions: np.ndarray, labels: np.ndarray, r: float) -> np.ndarray:
    n = positions.shape[0]
    flags = np.zeros(n, dtype=bool)
    for i in range(n):
        nbrs = brute_radius_neighbors(positions, i, r)
        flags[i] = bool(np.any(labels[nbrs] != labels[i]))
    return flags


def brute_components(n: int, edges) -> list[set]:
    """Connected components from an undirected edge list, BFS."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = {start}
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def canonicalize(assignment: np.ndarray) -> np.ndarray:
    """Renumber instances by ascending smallest member index; NOISE preserved."""
    out = np.full(assignment.shape, NOISE, dtype=np.int64)
    seen: dict[int, int] = {}
    for i, a in enumerate(assignment):
        if a < 0:
            continue
        if a not in seen:
            seen[a] = len(seen)
        out[i] = seen[a]
    return out


def brute_segment(
    positions: np.ndarray,
    classes: np.ndarray,
    epsilon: float,
    mu: int,
    boundary_radius: float | None = None,
    cap_factor: float = 3.0,
) -> np.ndarray:
    """Reference pipeline: flags, interior components, reattach, size filter."""
    n = positions.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    r_b = epsilon if boundary_radius is None else boundary_radius
    d2 = distance_matrix_sq(positions)

    near = d2 <= r_b * r_b
    np.fill_diagonal(near, False)
    flags = (near & (classes[None, :] != classes[:, None])).any(axis=1)
    interior = ~flags

    linkable = (
        (d2 <= epsilon * epsilon)
        & (classes[None, :] == classes[:, None])
        & interior[None, :]
        & interior[:, None]
    )
    iu, ju = np.nonzero(np.triu(linkable, k=1))
    edges = list(zip(iu.tolist(), ju.tolist()))
    assignment = np.full(n, NOISE, dtype=np.int64)
    comp_id = 0
    for comp in brute_components(n, edges):
        members = sorted(v for v in comp if interior[v])
        if not members:
            continue
        for v in members:
            assignment[v] = comp_id
        comp_id += 1
    assignment = canonicalize(assignment)

    cap = cap_factor * epsilon
    joined = {}
    for b in np.nonzero(flags)[0]:
        members = np.nonzero(interior & (classes == classes[b]))[0]
        if members.size == 0:
            continue
        dd = np.sum((positions[members] - positions[b]) ** 2, axis=1)
        best = dd.min()
        if best > cap * cap:
            continue
        candidates = assignment[members[dd == best]]
        joined[b] = int(candidates.min())
    for b, inst in joined.items():
        assignment[b] = inst

    sizes = np.bincount(assignment[assignment >= 0], minlength=max(assignment.max() + 1, 1)) \
        if (assignment >= 0).any() else np.zeros(1, dtype=int)
    for i in range(n):
        if assignment[i] >= 0 and sizes[assignment[i]] < mu:
            assignment[i] = NOISE
    return canonicalize(assignment)


def brute_iou(a, b) -> float:
    a, b = set(map(int, a)), set(map(int, b))
    return len(a & b) / len(a | b)


def instances_from_assignment(assignment: np.ndarray) -> dict[int, set]:
    out: dict[int, set] = {}
    for i, a in enumerate(assignment):
        if a >= 0:
            out.setdefault(int(a), set()).add(i)
    return out


def brute_greedy_match(
    pred_assignment: np.ndarray,
    gt_assignment: np.ndarray,
    classes: np.ndarray,
    threshold: float,
):
    """Greedy one-to-one matching per the documented convention."""
    preds = instances_from_assignment(pred_assignment)
    gts = instances_from_assignment(gt_assignment)
    candidates = []
    for p, pset in preds.items():
        p_cls = {int(classes[i]) for i in pset}
        for g, gset in gts.items():
            g_cls = {int(classes[i]) for i in gset}
            if p_cls != g_cls:
                continue
            v = brute_iou(pset, gset)
            if v >= threshold:
                candidates.append((p, g, v))
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    taken_p, taken_g, pairs = set(), set(), []
    for p, g, v in candidates:
        if p in taken_p or g in taken_g:
            continue
        taken_p.add(p)
        taken_g.add(g)
        pairs.append((p, g, v))
    return pairs


def pts_text(cloud, extra_column=None) -> bytes:
    """The CLOI-PTS text of a cloud, the definition of what ``save_pts`` writes.

    A header ``cloi-pts v1 n=<N>``, then one line per point: ``repr`` of each
    coordinate, then ``str`` of the class code, the ground-truth instance id,
    the predicted instance id when the cloud has predictions, and the extra
    column when one is given, separated by single spaces.
    """
    ints = [cloud.class_labels, cloud.gt_instance]
    if cloud.pred_instance is not None:
        ints.append(cloud.pred_instance)
    if extra_column is not None:
        ints.append(np.asarray(extra_column, dtype=np.int64))
    columns = ([map(repr, c.tolist()) for c in cloud.positions.T]
               + [map(str, c.tolist()) for c in ints])
    rows = "".join(" ".join(row) + "\n" for row in zip(*columns))
    return f"cloi-pts v1 n={len(cloud)}\n{rows}".encode()
