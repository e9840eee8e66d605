"""Expected answers computed from the event list alone.

Nothing here reads the engine's store or calls ``repro``: the graph is
rebuilt from the events (an add makes a pair present with its weight, a
delete removes it) and the answers come from ``scipy.sparse.csgraph``
plus a short max-min Dijkstra.  The engine's value conventions are
mirrored, not imported: a BFS level or SSSP cost counts the source as 1,
0 means "never touched", anything at or above :data:`BIG` means
unreached (distances) or the source's own unbounded capacity (widest).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from inputs import DELETE, Stream

BIG = 1 << 60


def final_edges(stream: Stream, stop: int) -> dict[tuple[int, int], int]:
    """The undirected edge set after events ``0:stop``."""
    if not (stream.kind[:stop] == DELETE).any():
        # Add-only: every distinct pair, with its (pair-determined) weight.
        lo = np.minimum(stream.src[:stop], stream.dst[:stop]).astype(np.int64)
        hi = np.maximum(stream.src[:stop], stream.dst[:stop]).astype(np.int64)
        _, first = np.unique(lo << 32 | hi, return_index=True)  # sorted by (lo, hi)
        pairs = zip(lo[first].tolist(), hi[first].tolist())
        return dict(zip(pairs, stream.weight[:stop][first].tolist()))
    edges: dict[tuple[int, int], int] = {}
    for k, s, d, w in zip(
        stream.kind[:stop].tolist(), stream.src[:stop].tolist(),
        stream.dst[:stop].tolist(), stream.weight[:stop].tolist(),
    ):
        pair = (s, d) if s < d else (d, s)
        if k == DELETE:
            edges.pop(pair, None)
        else:
            edges[pair] = w
    return edges


@dataclass
class Expected:
    """Every program's expected answer on one prefix."""

    level: dict[int, int]  # BFS: vertex -> level (source = 1), reached only
    cost: dict[int, int]  # SSSP: vertex -> 1 + distance, reached only
    comp: dict[int, int]  # CC: vertex -> component id, vertices with edges
    mask: dict[int, int]  # S-T: vertex -> source bitmap, nonzero only
    cap: dict[int, int]  # widest: vertex -> capacity, source -> BIG


def expected(stream: Stream, stop: int, roles=("bfs", "sssp", "cc", "st", "widest")) -> Expected:
    """The answers of the programs in ``roles`` after events ``0:stop``
    (the others are left empty)."""
    edges = final_edges(stream, stop)
    sources = (stream.source, *stream.st_sources)
    verts = sorted({v for pair in edges for v in pair} | set(sources))
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    if edges:
        pairs = np.array(list(edges), dtype=np.int64)
        a = np.array([index[v] for v in pairs[:, 0].tolist()], dtype=np.int64)
        b = np.array([index[v] for v in pairs[:, 1].tolist()], dtype=np.int64)
        w = np.array(list(edges.values()), dtype=np.float64)
    else:
        a = b = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)
    rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
    weighted = csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))
    unit = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))

    def reached(dist_row: np.ndarray) -> dict[int, int]:
        ok = np.isfinite(dist_row)
        return {verts[i]: int(round(dist_row[i])) + 1 for i in np.nonzero(ok)[0]}

    s = index[stream.source]
    exp = Expected({}, {}, {}, {}, {})
    if "bfs" in roles:
        exp.level = reached(dijkstra(unit, indices=s))
    if "sssp" in roles:
        exp.cost = reached(dijkstra(weighted, indices=s))
    if "cc" in roles:
        _, labels = connected_components(unit, directed=False)
        touched = set(a.tolist()) | set(b.tolist())
        exp.comp = {verts[i]: int(labels[i]) for i in touched}
    if "st" in roles:
        for bit, src in enumerate(stream.st_sources):
            row = dijkstra(unit, indices=index[src], limit=n + 1)
            for i in np.nonzero(np.isfinite(row))[0]:
                exp.mask[verts[i]] = exp.mask.get(verts[i], 0) | (1 << bit)
    if "widest" in roles:
        exp.cap = _widest(weighted, s, verts)
    return exp


def _widest(graph: csr_matrix, s: int, verts: list[int]) -> dict[int, int]:
    """Max-min Dijkstra: the best bottleneck weight from ``s``."""
    indptr, heads, weights = graph.indptr, graph.indices, graph.data
    best = {s: BIG}
    heap = [(-BIG, s)]
    while heap:
        neg, v = heapq.heappop(heap)
        c = -neg
        if c < best.get(v, 0):
            continue
        for k in range(indptr[v], indptr[v + 1]):
            t = int(heads[k])
            nc = min(c, int(weights[k]))
            if nc > best.get(t, 0):
                best[t] = nc
                heapq.heappush(heap, (-nc, t))
    return {verts[i]: c for i, c in best.items()}


# ----------------------------------------------------------------------
# comparisons; each returns a list of mismatch descriptions
# ----------------------------------------------------------------------
def unreached(value: int) -> bool:
    return value == 0 or value >= BIG


def distance_answer(value: int) -> int | None:
    return None if unreached(value) else value


def capacity_answer(value: int) -> int | None:
    if value == 0:
        return None
    return BIG if value >= BIG else value


def check_distances(
    name: str, got: dict[int, int], want: dict[int, int]
) -> list[str]:
    bad = []
    for v in set(got) | set(want):
        g = distance_answer(got.get(v, 0))
        if g != want.get(v):
            bad.append(f"{name} vertex {v}: got {g} want {want.get(v)}")
    return bad


def check_capacity(name: str, got: dict[int, int], want: dict[int, int]) -> list[str]:
    bad = []
    for v in set(got) | set(want):
        g = capacity_answer(got.get(v, 0))
        if g != want.get(v):
            bad.append(f"{name} vertex {v}: got {g} want {want.get(v)}")
    return bad


def check_masks(name: str, got: dict[int, int], want: dict[int, int]) -> list[str]:
    bad = []
    for v in set(got) | set(want):
        if got.get(v, 0) != want.get(v, 0):
            bad.append(f"{name} vertex {v}: got {got.get(v, 0):b} want {want.get(v, 0):b}")
    return bad


def check_partition(name: str, got: dict[int, int], want: dict[int, int]) -> list[str]:
    """Labels must split the vertices that have edges exactly as the
    components do: one nonzero label per component, none shared."""
    bad = []
    label_of_comp: dict[int, int] = {}
    comp_of_label: dict[int, int] = {}
    for v, c in want.items():
        label = got.get(v, 0)
        if label == 0:
            bad.append(f"{name} vertex {v}: unlabeled")
            continue
        if label_of_comp.setdefault(c, label) != label:
            bad.append(f"{name} vertex {v}: component {c} carries two labels")
        if comp_of_label.setdefault(label, c) != c:
            bad.append(f"{name} vertex {v}: label shared by two components")
    return bad


# Direction in which each role's value may move on an add-only stream
# (the REMO property): distances shrink, labels / capacities grow,
# masks gain bits.  0 ("never touched") may become anything.
def monotone_ok(role: str, old: int, new: int) -> bool:
    if old == 0 or old == new:
        return True
    if role in ("bfs", "sssp"):
        return new < old
    if role == "st":
        return new & old == old
    return new > old  # cc, widest
