"""The three workloads: definitions and engine wiring.

A round runs ``parts`` independent engine instances.  Each builds a
fresh engine, ingests its stream's prefix at saturation (every rank
pulls as fast as it can; run to quiescence), then trickles the rest of
the stream one event at a time, each run to quiescence, with a batch of
point queries through a ``ServingLayer`` after every ``query_every``
events.  Every client step is a closed loop: the next event or query is
offered only after the previous one returned.  A round of
``rmat-vector`` ends with the process-parallel operation.

This module holds the workload definitions and the engine wiring; it
imports neither scipy nor the oracle, so the set-up probe can use it
without paying for them.  The round itself is in :mod:`rounds`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from inputs import Stream, churn_stream, pair_bucket, rmat_stream

#: Input for the process-parallel operation.  It does not depend on the
#: seed: the operation fails on it every time (see README), so the share
#: of failed operations is the same in every run.
MP_SCALE, MP_EVENTS, MP_INPUT_SEED = 15, 262_000, 2
MP_RANKS = 2
#: A working run on this input (shm rings of 32 MiB, so that no slab is
#: refused) takes 3.1-3.5 s, process start included, on the reference
#: host; the timeout leaves a margin of about 3.5x.
MP_TIMEOUT_S = 12.0
WIRE_PROBE_EVENTS = 16_384

#: The read mix of the repository's own serving benchmark
#: (``benchmarks/bench_serving_latency.py``, EXPERIMENTS.md "On-line
#: serving"): point reads skewed as rank ** -1.4 over a seeded
#: permutation of the vertices, at 0.5 queries per ingested event, the
#: highest of its measured query:update ratios.
ZIPF_ALPHA = 1.4
QUERY_RATIO = 0.5
#: Point queries per batch.  The first read after a trickled event pays
#: for that event (on ``rmat-vector`` its median is about 9x a later
#: read's, on ``rmat-online`` about 3x).  At 4 reads a batch a quarter
#: of all reads are such first reads, so the gated p90 falls inside
#: their mode; at 8, an eighth were, and p90 sat on the edge between
#: the two modes, where it jumped between runs.
QUERY_BATCH = 4


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "incremental", "generational" or "kernel"
    graph: int  # RMAT scale, or vertex count of the churn stream
    n_ranks: int
    prefix: int  # events ingested at saturation
    trickle: int  # events offered one at a time afterwards
    # One point query per role in each batch; successive batches take
    # the tuples in turn.
    query_batches: tuple[tuple[str, ...], ...]
    checks_per_part: int  # query batches whose answers are checked
    parts: int = 1  # independent engine instances per round

    def make_stream(self, seed: int) -> Stream:
        n = self.prefix + self.trickle
        if self.family == "generational":
            return churn_stream(self.graph, n, 0.25, seed)
        return rmat_stream(self.graph, n, seed)

    @property
    def roles(self) -> tuple[str, ...]:
        return ROLES[self.family]

    @property
    def bulk(self) -> bool:
        """DES engines built with ``bulk_ingest=True``."""
        return self.family == "kernel"

    @property
    def mp(self) -> bool:
        """Rounds end with the process-parallel operation."""
        return self.family == "kernel"

    def batch_roles(self, b: int) -> tuple[str, ...]:
        """The query roles of batch ``b`` of a part."""
        return self.query_batches[b % len(self.query_batches)]

    @property
    def query_every(self) -> int:
        """Trickled events between two query batches."""
        return round(QUERY_BATCH / QUERY_RATIO)


#: Every program is read; two CC reads a batch, so each CC answer is
#: checked against another (see ``rounds._check_queries``).
ONLINE_QUERIES = (("bfs", "cc", "sssp", "cc"), ("st", "cc", "widest", "cc"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rmat-online", "incremental", graph=11, n_ranks=4, prefix=6000, trickle=2000,
            query_batches=ONLINE_QUERIES,
            checks_per_part=8,
        ),
        Workload(
            "churn-online", "generational", graph=128, n_ranks=4, prefix=192, trickle=48,
            query_batches=ONLINE_QUERIES,
            checks_per_part=6, parts=4,
        ),
        Workload(
            "rmat-vector", "kernel", graph=15, n_ranks=1, prefix=260_000, trickle=48,
            query_batches=(("bfs", "sssp", "cc", "cc"),),
            checks_per_part=1, parts=8,
        ),
    )
}


def part_seed(seed: int, round_index: int, k: int) -> int:
    """Input seed of part ``k`` of round ``round_index`` of a run."""
    return int(np.random.SeedSequence([seed, round_index, k]).generate_state(1)[0])


_FIVE = ("bfs", "sssp", "cc", "st", "widest")
ROLES = {"incremental": _FIVE, "generational": _FIVE, "kernel": _FIVE[:3]}


# ----------------------------------------------------------------------
# engine wiring (everything below imports repro)
# ----------------------------------------------------------------------
def program_classes(family: str) -> list[type]:
    import repro

    if family == "incremental":
        return [repro.IncrementalBFS, repro.IncrementalSSSP, repro.IncrementalCC,
                repro.MultiSTConnectivity, repro.WidestPath]
    if family == "generational":
        return [repro.GenerationalBFS, repro.GenerationalSSSP, repro.GenerationalCC,
                repro.GenerationalST, repro.GenerationalWidest]
    return [repro.IncrementalBFS, repro.IncrementalSSSP, repro.IncrementalCC]


def programs_for(w: Workload, stream: Stream):
    """``(programs, init triples, {role: program name})``."""
    progs = [cls() for cls in program_classes(w.family)]
    names = dict(zip(w.roles, (p.name for p in progs)))
    init = [(names["bfs"], stream.source, None), (names["sssp"], stream.source, None)]
    if "st" in names:
        st = progs[w.roles.index("st")]
        init += [(names["st"], s, st.register_source(s)) for s in stream.st_sources]
        init.append((names["widest"], stream.source, None))
    return progs, init, names


def projector(family: str):
    """Stored value -> plain value (generational values are tuples)."""
    if family == "generational":
        return lambda v: 0 if v == 0 else v[1]
    return lambda v: v


def prefix_streams(w: Workload, stream: Stream):
    from repro import ArrayEventStream

    n, p = w.n_ranks, w.prefix
    if stream.add_only:
        # Round-robin deal; kinds omitted marks the streams add-only.
        return [
            ArrayEventStream(stream.src[r:p:n], stream.dst[r:p:n], stream.weight[r:p:n])
            for r in range(n)
        ]
    bucket = pair_bucket(stream.src[:p], stream.dst[:p], n)
    return [
        ArrayEventStream(
            stream.src[:p][bucket == r], stream.dst[:p][bucket == r],
            stream.weight[:p][bucket == r], stream.kind[:p][bucket == r],
        )
        for r in range(n)
    ]


def build_engine(w: Workload, stream: Stream):
    """Engine and programs constructed, streams attached: the state at
    which the first event can be offered (what ``setup_s`` times)."""
    from repro import DynamicEngine, EngineConfig

    progs, init, names = programs_for(w, stream)
    engine = DynamicEngine(
        progs, EngineConfig(n_ranks=w.n_ranks, undirected=True, bulk_ingest=w.bulk)
    )
    for prog, vertex, payload in init:
        engine.init_program(prog, vertex, payload)
    engine.attach_streams(prefix_streams(w, stream))
    return engine, names


def state_bytes(engine) -> int:
    """Deep size of every rank's store and value dicts, walked from
    outside: containers, numpy buffers and ``repro`` objects are
    followed, anything else counts at its own ``sys.getsizeof``."""
    import sys

    seen: set[int] = set()
    total = 0
    todo: list = [engine.stores, engine.values]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, np.ndarray):
            if o.base is not None:
                todo.append(o.base)
        elif isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo.extend(o)
        elif type(o).__module__.startswith("repro"):
            if hasattr(o, "__dict__"):
                todo.append(vars(o))
            for cls in type(o).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(o, slot):
                        todo.append(getattr(o, slot))
    return total


