"""One measured round of a workload, and the process-parallel operation.

Correctness is checked outside the timed regions against
:mod:`oracle`, which never reads the engine's store.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from engines import (
    MP_EVENTS, MP_INPUT_SEED, MP_RANKS, MP_SCALE, MP_TIMEOUT_S, QUERY_BATCH, ROLES,
    WIRE_PROBE_EVENTS, WORKLOADS, ZIPF_ALPHA, Workload, build_engine, part_seed,
    programs_for, projector, state_bytes,
)
from inputs import DELETE, Stream, rmat_stream


def engine_values(engine, names: dict[str, str], family: str) -> dict[str, dict[int, int]]:
    proj = projector(family)
    return {
        role: {v: proj(x) for v, x in engine.state(name).items()}
        for role, name in names.items()
    }


def check_roles(values, exp: oracle.Expected, roles) -> list[str]:
    checks = {
        "bfs": lambda: oracle.check_distances("bfs", values["bfs"], exp.level),
        "sssp": lambda: oracle.check_distances("sssp", values["sssp"], exp.cost),
        "cc": lambda: oracle.check_partition("cc", values["cc"], exp.comp),
        "st": lambda: oracle.check_masks("st", values["st"], exp.mask),
        "widest": lambda: oracle.check_capacity("widest", values["widest"], exp.cap),
    }
    return [m for role in roles for m in checks[role]()]


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class Part:
    """One engine instance of a round: its stream, the query targets of
    every query batch and the vertices watched for the REMO property,
    with the oracle's answers precomputed."""

    stream: Stream
    targets: np.ndarray  # (trickle // query_every, QUERY_BATCH) vertex ids
    watched: list[int]
    check_steps: frozenset[int]  # trickle steps followed by a checked batch
    prefix_expected: oracle.Expected
    step_expected: dict[int, oracle.Expected]


def make_plan(w: Workload, seed: int, round_index: int) -> list[Part]:
    """The parts of one round.  Every round runs the same operations on
    inputs of the same size; each round draws fresh inputs, derived
    from ``seed`` and the round's index, so a run covers more of the
    input distribution than one draw."""
    return [make_part(w, part_seed(seed, round_index, k)) for k in range(w.parts)]


def make_part(w: Workload, seed: int) -> Part:
    stream = w.make_stream(seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    pool = np.unique(np.concatenate([stream.src[: w.prefix], stream.dst[: w.prefix]]))
    pool = rng.permutation(pool)
    # Skewed reads: the i-th vertex of the permuted pool is asked for
    # with weight (i + 1) ** -ZIPF_ALPHA.
    p = np.arange(1, len(pool) + 1, dtype=np.float64) ** -ZIPF_ALPHA
    batches = w.trickle // w.query_every
    targets = rng.choice(pool, size=(batches, QUERY_BATCH), p=p / p.sum())
    watched = [int(v) for v in rng.choice(pool, size=min(16, len(pool)), replace=False)]
    # Checked batches: evenly spread, the last one included.
    checked = batches - 1 - np.arange(w.checks_per_part) * batches // w.checks_per_part
    steps = frozenset((int(b) + 1) * w.query_every - 1 for b in checked)
    return Part(
        stream, targets, watched, steps,
        oracle.expected(stream, w.prefix, w.roles),
        {i: oracle.expected(stream, w.prefix + i + 1, w.roles) for i in steps},
    )


@dataclass
class RoundResult:
    ingest_s: float = 0.0  # saturation wall time, summed over parts
    ingest_eps: list[float] = field(default_factory=list)  # per part
    update_ns: list[int] = field(default_factory=list)
    delete_ns: list[int] = field(default_factory=list)
    query_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    state_bytes: list[int] = field(default_factory=list)  # first part only
    source_events: int = 0
    engines: list = field(default_factory=list)
    servings: list = field(default_factory=list)
    # perf_counter_ns windows: each saturation phase and each delete event
    saturation_windows: list[tuple[int, int]] = field(default_factory=list)
    delete_windows: list[tuple[int, int]] = field(default_factory=list)
    wall_s: float = 0.0  # the whole round, checks included

    def fail(self, kind: str, n: int = 1) -> None:
        self.failed += n
        self.failures[kind] = self.failures.get(kind, 0) + n

    @property
    def work_s(self) -> float:
        """Wall time of the timed client steps."""
        return self.ingest_s + (sum(self.update_ns) + sum(self.query_ns)) / 1e9


def _answer(role: str, value: int):
    if role in ("bfs", "sssp"):
        return oracle.distance_answer(value)
    if role == "widest":
        return oracle.capacity_answer(value)
    return value


def _check_queries(answers, exp: oracle.Expected) -> int:
    """Number of query answers (stale ones skipped) that disagree with
    the oracle.  A CC label is checked against every other CC answer of
    the batch: query targets all appear in the prefix, so each holds a
    nonzero label (its own, once isolated by deletes), and two vertices
    share a label exactly when they share a component."""
    want = {"bfs": exp.level, "sssp": exp.cost, "st": exp.mask, "widest": exp.cap}
    bad = 0
    cc: list[tuple[int, int]] = []
    for role, v, value, stale in answers:
        if stale:
            continue
        if role == "cc":
            cc.append((v, value))
            continue
        default = 0 if role == "st" else None
        if _answer(role, value) != want[role].get(v, default):
            bad += 1

    def same(u: int, v: int) -> bool:
        return u == v or (u in exp.comp and v in exp.comp and exp.comp[u] == exp.comp[v])

    for i, (u, lu) in enumerate(cc):
        if lu == 0 or any((lu == lv) != same(u, v) for v, lv in cc[:i] + cc[i + 1:]):
            bad += 1
    return bad


def run_round(w: Workload, plan: list[Part]) -> RoundResult:
    """Every part of the plan in turn, then the mp operation (if any)."""
    t0 = time.perf_counter()
    res = RoundResult()
    for part in plan:
        run_part(w, part, res)
    if w.mp:
        res.attempted += 1
        kind, problems = mp_operation()
        if kind is not None:
            res.fail(kind)
        res.problems += problems
    res.wall_s = time.perf_counter() - t0
    return res


def run_part(w: Workload, part: Part, res: RoundResult) -> None:
    from repro import ListEventStream, ServingLayer

    stream = part.stream
    clock = time.perf_counter_ns
    engine, names = build_engine(w, stream)
    proj = projector(w.family)

    t0 = clock()
    engine.run()
    t1 = clock()
    res.ingest_s += (t1 - t0) / 1e9
    res.ingest_eps.append(w.prefix / ((t1 - t0) / 1e9))
    res.saturation_windows.append((t0, t1))
    res.attempted += 1
    bad = check_roles(engine_values(engine, names, w.family), part.prefix_expected, w.roles)
    if bad:
        res.fail("saturation-mismatch")
        res.problems += bad[:5]

    serving = ServingLayer(engine)
    res.engines.append(engine)
    res.servings.append(serving)
    watched = [(role, names[role], v) for role in w.roles for v in part.watched]
    last = {(role, v): proj(engine.value_of(name, v)) for role, name, v in watched}
    events = stream.events(w.prefix, w.prefix + w.trickle)
    every = w.query_every
    for i, ev in enumerate(events):
        s = ListEventStream([ev])
        t0 = clock()
        engine.attach_stream(i % w.n_ranks, s)
        engine.run()
        t1 = clock()
        res.update_ns.append(t1 - t0)
        if ev[0] == DELETE:
            res.delete_ns.append(t1 - t0)
            res.delete_windows.append((t0, t1))
        res.attempted += 1
        if (i + 1) % every == 0:
            answers = []
            roles = w.batch_roles(i // every)
            prog_of = [names[r] for r in roles]
            row = part.targets[i // every].tolist()
            for prog, v in zip(prog_of, row):
                t0 = clock()
                q = serving.point(prog, v)
                res.query_ns.append(clock() - t0)
                answers.append((q.value, q.stale))
            res.attempted += len(row)
            # A fresh answer is the live value: the serving layer's
            # contract, checked at every batch; the live values
            # themselves are checked against the oracle below.
            for prog, v, (value, stale) in zip(prog_of, row, answers):
                if not stale and value != engine.value_of(prog, v):
                    res.fail("serving-incoherent")
                    res.problems.append(f"step {i}: {prog} vertex {v} served {value}")
        if stream.add_only:
            # REMO: on an add-only stream no value moves against its order.
            for role, name, v in watched:
                new = proj(engine.value_of(name, v))
                if not oracle.monotone_ok(role, last[(role, v)], new):
                    res.fail("remo-violation")
                    res.problems.append(f"{role} vertex {v}: {last[(role, v)]} -> {new}")
                last[(role, v)] = new
        if i in part.check_steps:
            exp = part.step_expected[i]
            checked = [(r, v, proj(val), st) for r, v, (val, st) in zip(roles, row, answers)]
            n_bad = _check_queries(checked, exp)
            if n_bad:
                res.fail("query-mismatch", n_bad)
                res.problems.append(f"step {i}: {n_bad} query answers disagree")
            bad = check_roles(engine_values(engine, names, w.family), exp, w.roles)
            if bad:
                res.fail("trickle-mismatch")
                res.problems += bad[:5]
    res.source_events += sum(c.source_events for c in engine.counters)
    if not res.state_bytes:  # the walk is slow on large stores: one part a round
        res.state_bytes.append(state_bytes(engine))


# ----------------------------------------------------------------------
# the process-parallel operation
# ----------------------------------------------------------------------
@functools.cache
def mp_input() -> Stream:
    """The fixed mp input.  Its source is the vertex that appears last
    in the stream: it joins the graph with the final events, so BFS and
    SSSP flood the whole component in one vectorised relax."""
    stream = rmat_stream(MP_SCALE, MP_EVENTS, MP_INPUT_SEED)
    ends = np.stack([stream.src, stream.dst], axis=1).ravel()
    verts, first = np.unique(ends, return_index=True)
    return dataclasses.replace(stream, source=int(verts[np.argmax(first)]))


@dataclass
class MpRun:
    result: object  # ParallelResult, or None when the run raised
    exc: BaseException | None
    rings: list[str]  # names of the shm rings the run created
    stuck_pushes: int  # slabs refused by an empty ring (fault F2's mark)


def _run_mp(stream: Stream, timeout: float, obs=None) -> MpRun:
    """``run_parallel`` on the kernel programs, forked, with the ring
    constructor and ``ShmRing.try_push`` wrapped from outside: the first
    records every ring's name, the second counts, in memory the forked
    ranks share with this process, the pushes that an empty ring refuses.
    Such a slab can never land (pad + slab exceed the capacity at this
    tail, and only its producer moves the tail): that is fault F2."""
    import mmap

    from repro import ArrayEventStream, EngineConfig
    from repro.parallel import WireConfig, run_parallel
    from repro.parallel import runner
    from repro.parallel.shm import ShmRing

    w = WORKLOADS["rmat-vector"]
    progs, init, _ = programs_for(w, stream)
    n = MP_RANKS
    streams = [
        ArrayEventStream(stream.src[r::n], stream.dst[r::n], stream.weight[r::n])
        for r in range(n)
    ]
    created: list[str] = []
    original = runner.create_ring

    def recording_create_ring(capacity):
        ring = original(capacity)
        created.append(ring.name)
        return ring

    shared = mmap.mmap(-1, 8)  # MAP_SHARED | MAP_ANONYMOUS: survives fork
    stuck = np.frombuffer(shared, dtype=np.int64)
    original_push = ShmRing.try_push

    def watching_try_push(self, kind, n_records, payload, sender):
        ok = original_push(self, kind, n_records, payload, sender)
        if not ok and self.tail == self.head:
            stuck[0] += 1
        return ok

    runner.create_ring = recording_create_ring
    ShmRing.try_push = watching_try_push
    try:
        result = run_parallel(
            progs, streams, config=EngineConfig(n_ranks=n),
            wire=WireConfig(kind="shm", start_method="fork"),
            init=init, collect_edges=True, timeout=timeout, obs=obs,
        )
        exc = None
    except Exception as e:  # every failure is counted and classified
        result, exc = None, e
    finally:
        runner.create_ring = original
        ShmRing.try_push = original_push
        # Ranks that run_parallel did not reap are stopped here, so none
        # outlives its operation.
        for proc in multiprocessing.active_children():
            proc.kill()
            proc.join()
    return MpRun(result, exc, created, int(stuck[0]))


def leaked_segments(names: list[str]) -> list[str]:
    """Rings that still exist after the run (and removes them)."""
    from multiprocessing import shared_memory

    leaked = []
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        leaked.append(name)
        seg.close()
        seg.unlink()
    return leaked


#: The mp faults known to fail the operation (see README): counted as
#: failed operations, while the run's answers can still be correct.
KNOWN_FAULTS = frozenset({"F1-slab-over-capacity", "F2-hang"})


def classify(run: MpRun) -> str:
    if "exceeds ring capacity" in str(run.exc):
        return "F1-slab-over-capacity"
    if isinstance(run.exc, TimeoutError) and run.stuck_pushes:
        return "F2-hang"  # a slab that can never land: the run stalls
    return "mp-error"  # any other failure, a timeout without F2's mark too


def mp_operation() -> tuple[str | None, list[str]]:
    """Run the mp operation once; returns ``(failure kind or None,
    problems)``.  A known fault (F1/F2) is a failed operation, not a
    problem; anything else, a wrong answer or a leaked segment is."""
    stream = mp_input()
    run = _run_mp(stream, MP_TIMEOUT_S)
    problems = [f"leaked shm segment {name}" for name in leaked_segments(run.rings)]
    if run.exc is not None:
        kind = classify(run)
        if kind == "mp-error":
            problems.append(
                f"mp operation failed ({run.stuck_pushes} stuck pushes): "
                f"{type(run.exc).__name__}: {str(run.exc).splitlines()[-1][:200]}"
            )
        return kind, problems
    exp = oracle.expected(stream, len(stream), ROLES["kernel"])
    names = dict(zip(ROLES["kernel"], run.result.prog_names))
    values = {role: run.result.state(name) for role, name in names.items()}
    bad = check_roles(values, exp, ROLES["kernel"])
    if bad:
        return "mp-mismatch", problems + bad[:5]
    return None, problems


def wire_probe():
    """A small mp run that completes, with the per-rank capture on: the
    source of the ``parallel.*`` layer figures.  Returns the result or
    the exception."""
    from repro.obs.distributed import ObsConfig

    stream = rmat_stream(MP_SCALE, WIRE_PROBE_EVENTS, MP_INPUT_SEED)
    run = _run_mp(stream, 20.0, ObsConfig(trace=True, metrics=True))
    leaked_segments(run.rings)
    return run.result if run.exc is None else run.exc
