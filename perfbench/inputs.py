"""Seeded input streams for the benchmark workloads.

The generators live here, not in ``repro.generators``, so a change to
the program cannot change what the benchmark feeds it.  Only numpy is
used.  An input is a :class:`Stream`: parallel int64 columns
``kind / src / dst / weight`` (kind 0 = add, 1 = delete) plus the
vertices the programs are started from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADD = 0
DELETE = 1
WEIGHT_HIGH = 16  # weights are in [1, WEIGHT_HIGH)


@dataclass(frozen=True)
class Stream:
    kind: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    source: int  # BFS / SSSP / widest source
    st_sources: tuple[int, ...]  # multi S-T sources, in bit order

    def __len__(self) -> int:
        return len(self.src)

    @property
    def add_only(self) -> bool:
        return not bool((self.kind == DELETE).any())

    def events(self, start: int, stop: int) -> list[tuple[int, int, int, int]]:
        """Events ``start:stop`` as plain ``(kind, src, dst, weight)`` tuples."""
        return list(
            zip(
                self.kind[start:stop].tolist(),
                self.src[start:stop].tolist(),
                self.dst[start:stop].tolist(),
                self.weight[start:stop].tolist(),
            )
        )


def pair_weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A weight per edge that depends only on the unordered pair, so a
    re-added edge always carries the weight it had before."""
    lo = np.minimum(src, dst).astype(np.uint64)
    hi = np.maximum(src, dst).astype(np.uint64)
    mix = lo * np.uint64(0x9E3779B97F4A7C15) + hi * np.uint64(0xC2B2AE3D27D4EB4F)
    mix ^= mix >> np.uint64(31)
    return (np.uint64(1) + mix % np.uint64(WEIGHT_HIGH - 1)).astype(np.int64)


def pair_bucket(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Deal events to ``n`` streams by unordered pair, so every event on
    one edge lands in one stream, in input order."""
    lo = np.minimum(src, dst).astype(np.uint64)
    hi = np.maximum(src, dst).astype(np.uint64)
    mix = (lo * np.uint64(0xD6E8FEB86659FD93)) ^ hi
    mix ^= mix >> np.uint64(32)
    return (mix % np.uint64(n)).astype(np.int64)


def rmat_stream(scale: int, n_events: int, seed: int, n_st_sources: int = 4) -> Stream:
    """Add-only RMAT stream (Graph500 quadrant probabilities 0.57/0.19/
    0.19/0.05) over ``2**scale`` scrambled ids, self-loops removed.

    RMAT's skew gives hub vertices; the BFS/SSSP/widest source and the
    S-T sources are the highest-degree vertices of the first quarter of
    the stream, so every program has work from the start.
    """
    rng = np.random.default_rng(seed)
    a, b, c = 0.57, 0.19, 0.19
    # Over-draw so that dropping self-loops still leaves n_events.
    m = int(n_events * 1.1) + 64
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        u = rng.random(m)
        bit = np.int64(1 << (scale - 1 - level))
        src += bit * (u >= a + b)
        dst += bit * (((u >= a) & (u < a + b)) | (u >= a + b + c))
    perm = rng.permutation(1 << scale).astype(np.int64)
    src, dst = perm[src], perm[dst]
    keep = src != dst
    src, dst = src[keep][:n_events], dst[keep][:n_events]
    if len(src) < n_events:
        raise ValueError("RMAT draw too small; raise the over-draw factor")
    quarter = max(1, n_events // 4)
    deg = np.bincount(
        np.concatenate([src[:quarter], dst[:quarter]]), minlength=1 << scale
    )
    hubs = np.argsort(-deg, kind="stable")[: 1 + n_st_sources]
    return Stream(
        np.zeros(n_events, dtype=np.int64), src, dst, pair_weights(src, dst),
        int(hubs[0]), tuple(int(h) for h in hubs[1:]),
    )


def churn_stream(
    n_vertices: int, n_events: int, delete_share: float, seed: int,
    n_st_sources: int = 2,
) -> Stream:
    """Erdős–Rényi add/delete stream.

    Each event is a delete with probability ``delete_share`` (when an
    edge is present), else an add of a uniformly drawn absent pair.  A
    delete names a present edge and an add names an absent one, so the
    graph after any prefix is the set of pairs whose last event was an
    add, whatever order the engine applies same-pair events in.
    """
    rng = np.random.default_rng(seed)
    present: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []  # present pairs, for O(1) sampling
    kind = np.empty(n_events, dtype=np.int64)
    src = np.empty(n_events, dtype=np.int64)
    dst = np.empty(n_events, dtype=np.int64)
    coins = rng.random(n_events)
    for i in range(n_events):
        if order and coins[i] < delete_share:
            j = int(rng.integers(len(order)))
            pair = order[j]
            last = order.pop()
            if j < len(order):
                order[j] = last
                present[last] = j
            del present[pair]
            kind[i] = DELETE
        else:
            while True:
                u, v = (int(x) for x in rng.integers(n_vertices, size=2))
                pair = (min(u, v), max(u, v))
                if u != v and pair not in present:
                    break
            present[pair] = len(order)
            order.append(pair)
            kind[i] = ADD
        # Orientation is random, as a client would send it.
        if rng.random() < 0.5:
            src[i], dst[i] = pair
        else:
            dst[i], src[i] = pair
    ids = rng.permutation(n_vertices)[: 1 + n_st_sources]
    return Stream(
        kind, src, dst, pair_weights(src, dst),
        int(ids[0]), tuple(int(v) for v in ids[1:]),
    )
