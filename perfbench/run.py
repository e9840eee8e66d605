"""Benchmark entry point.

    python3 perfbench/run.py --workload rmat-online --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload (see :mod:`engines`) for about
``--seconds`` seconds, checks every round against the oracle, prints a
few human-readable lines and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end figures, measured untraced; with
``--trace 1`` they are the per-layer figures of a traced run (one
untraced round first, for the tracing overhead).

Run from the repository root; the program is imported from ``src/``.
Exits with code 2, printing no result, when that source is missing or
the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import engines
import layers
import rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
PROGRAMS = ("bfs", "sssp", "cc", "st", "widest",
            "gen-bfs", "gen-sssp", "gen-cc", "gen-st", "gen-widest")


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def median(values) -> float:
    return percentile(values, 50)


# ----------------------------------------------------------------------
# set-up time: fresh interpreter -> first event can be offered
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> float:
    """Start the set-up probe in a fresh interpreter; returns the set-up
    time it reports."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=60,
    )
    if out.returncode != 0 or not out.stdout.startswith("ready"):
        raise RuntimeError("set-up probe failed")
    return float(out.stdout.split()[1])


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def run_rounds(w, seed: int, seconds: float, keep: bool = False, probes: int = 0):
    """Whole rounds for about ``seconds`` (at least one): a run stops
    when one more round, at the mean round time so far, would end
    further from ``seconds`` than it is now.  A round's time includes
    making its plan (inputs and the oracle's answers).  ``probes`` set-up
    probes are spread over the run in proportion to the round time
    spent, so that they see the same drift of the host's speed as the
    rounds do.  Returns ``(round results, set-up samples)``.  The engines
    are dropped after each round unless ``keep``: only the traced
    figures read them back."""
    results, setup = [], []
    spent = 0.0
    while not results or spent + spent / len(results) / 2 < seconds:
        while probes and len(setup) < min(probes, int(probes * spent / seconds) + 1):
            setup.append(setup_probe(w.name, seed))
        t0 = time.perf_counter()
        plan = rounds.make_plan(w, seed, len(results))
        res = rounds.run_round(w, plan)
        spent += time.perf_counter() - t0
        if not keep:
            res.engines.clear()
            res.servings.clear()
        results.append(res)
    while len(setup) < probes:
        setup.append(setup_probe(w.name, seed))
    return results, setup


def end_to_end(w, results, setup) -> dict[str, tuple[float, str]]:
    saturated = sum(w.prefix * len(r.ingest_eps) for r in results)
    updates = [ns for r in results for ns in r.update_ns]
    queries = [ns for r in results for ns in r.query_ns]
    return {
        "setup_s": (median(setup), "s"),
        "ingest_eps": (saturated / sum(r.ingest_s for r in results), "ev/s"),
        "update_p90_us": (percentile(updates, 90) / 1e3, "us"),
        "query_p90_us": (percentile(queries, 90) / 1e3, "us"),
        "state_mb": (median([b for r in results for b in r.state_bytes]) / 1e6, "MB"),
    }


# ----------------------------------------------------------------------
# traced run: per-layer figures
# ----------------------------------------------------------------------
def traced(w, seed: int, seconds: float):
    """Round 0 untraced, then traced rounds (round 0 again first, so the
    tracing overhead compares equal inputs) for the rest of the time."""
    base = run_rounds(w, seed, 0)[0][0]
    tracer = layers.Tracer()
    layers.install(tracer, engines.program_classes(w.family))
    try:
        results, _ = run_rounds(w, seed, seconds - base.wall_s, keep=True)
    finally:
        tracer.restore()
    probe = rounds.wire_probe() if w.mp else None
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{w.name}.npz")
    return base, results, layer_metrics(w, base, results, tracer, probe)


def layer_metrics(w, base, results, tracer, probe) -> dict[str, tuple[float, str]]:
    spans = tracer.summary()
    n = len(results)
    events = sum(r.source_events for r in results)
    trickled = n * w.trickle * w.parts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_ns(name):
        return spans.get(name, {}).get("self_ns", 0.0)

    def per_call(name):
        c = calls(name)
        return self_ns(name) / c if c else 0.0

    def prefixed(prefix, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix))

    engines = [e for r in results for e in r.engines]
    counters = [c for e in engines for c in e.counters]
    squashed = sum(c.updates_squashed for c in counters)
    delivered = calls("engine.on_message")
    stats = [s.stats() for r in results for s in r.servings]
    hits, misses = sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)

    # Callback spans that began inside given perf_counter windows.
    nid, start, _end, _par = tracer.arrays()
    algo_ids = [i for i, nm in enumerate(tracer.names) if nm.startswith("algorithms.")]
    algo_starts = np.sort(start[np.isin(nid, algo_ids)])

    def callbacks_in(windows):
        total = 0
        for t0, t1 in windows:
            total += int(np.searchsorted(algo_starts, t1) - np.searchsorted(algo_starts, t0))
        return total

    deletes = [win for r in results for win in r.delete_windows]
    m = {
        "storage.insert_ns": (per_call("storage.insert_edge"), "ns"),
        "storage.delete_ns": (per_call("storage.delete_edge"), "ns"),
        "storage.bytes": (
            float(sum(s.approx_bytes() for e in results[-1].engines for s in e.stores)), "B"
        ),
        "des.self_s": (
            sum(self_ns(f"des.{a}") for a in ("run", "send", "send_many")) / n / 1e9, "s"
        ),
        "des.messages_per_event": (delivered / events if events else 0.0, "count"),
        "des.squash_ratio": (
            squashed / (squashed + delivered) if squashed + delivered else 0.0, "ratio"
        ),
        "engine.dispatch_ns": (per_call("engine.on_message"), "ns"),
        "engine.pull_ns": (per_call("engine.pull_source"), "ns"),
        "algorithms.callback_ns": (
            prefixed("algorithms.", "self_ns") / max(1, prefixed("algorithms.", "calls")),
            "ns",
        ),
    }
    for prog in PROGRAMS:
        visits = prefixed(f"algorithms.{prog}.", "calls")
        m[f"algorithms.{prog}.visits_per_event"] = (visits / events if events else 0.0, "count")
    m["algorithms.visits_per_delete"] = (
        callbacks_in(deletes) / len(deletes) if deletes else 0.0, "count"
    )
    m["generations.delete_p50_us"] = (percentile(base.delete_ns, 50) / 1e3, "us")
    m["serving.query_ns"] = (
        spans.get("serving.point", {}).get("total_ns", 0.0) / max(1, calls("serving.point")),
        "ns",
    )
    m["serving.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["serving.invalidations_per_event"] = (
        sum(s["invalidations"] for s in stats) / trickled, "count"
    )
    m["bulk.chunk_self_s"] = (self_ns("bulk.process_chunk") / n / 1e9, "s")
    m["bulk.fallback_flushes"] = (sum(c.fallback_flushes for c in counters) / n, "count")
    m["bulk.per_event_visits"] = (
        callbacks_in([win for r in results for win in r.saturation_windows]) / n
        if w.bulk else 0.0, "count"
    )
    m["kernels.fixpoint_self_s"] = (self_ns("kernels.relax_to_fixpoint") / n / 1e9, "s")
    m["kernels.rounds"] = (tracer.extra["kernels.rounds"] / n, "count")
    m.update(parallel_metrics(probe))
    m["trace.overhead_share"] = (results[0].work_s / base.work_s - 1.0, "ratio")
    return m


def parallel_metrics(probe) -> dict[str, tuple[float, str]]:
    """``parallel.*`` from the wire probe's result (zeros when the
    workload runs no mp operation or the probe failed)."""
    names = {
        "parallel.codec_ns_per_record": "ns", "parallel.ring_stalls": "count",
        "parallel.overflow_pushes": "count", "parallel.overflow_hwm_records": "count",
        "parallel.pad_bytes": "B", "parallel.kernel_records": "count",
        "parallel.token_rounds": "count", "parallel.wait_share": "ratio",
    }
    if probe is None or isinstance(probe, BaseException):
        if probe is not None:
            print(f"wire probe failed: {str(probe).splitlines()[-1][:160]}")
        return {k: (0.0, u) for k, u in names.items()}
    wire = probe.wire
    by_name = probe.obs.tracer.span_time_by_name()
    rank_wall = sum(r["wall_seconds"] for r in probe.obs.summary()["per_rank"])
    values = {
        "parallel.codec_ns_per_record": by_name.get("emit", (0, 0.0))[1] * 1e9
        / max(1, wire["wire_sent"]),
        "parallel.ring_stalls": wire.get("ring_stalls", 0),
        "parallel.overflow_pushes": wire.get("overflow_pushes", 0),
        "parallel.overflow_hwm_records": wire.get("overflow_hwm_records", 0),
        "parallel.pad_bytes": wire.get("ring_pad_bytes", 0),
        "parallel.kernel_records": wire.get("kernel_records", 0),
        "parallel.token_rounds": probe.token_rounds,
        "parallel.wait_share": by_name.get("wait", (0, 0.0))[1] / rank_wall if rank_wall else 0.0,
    }
    return {k: (float(values[k]), u) for k, u in names.items()}


# ----------------------------------------------------------------------
def stop_processes() -> None:
    """Stop every process this run started and wait for each: rank
    processes that ``run_parallel`` left behind, then the resource
    tracker that ``multiprocessing.shared_memory`` starts on the first
    ring.  The tracker ignores SIGINT and SIGTERM and would outlive the
    run by itself; closing its pipe ends it, once no rank holds a copy
    of that pipe.  (Set-up probes are waited for where they start.)"""
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    # A SIGTERM ends the run through the ``finally`` below, so its
    # processes are stopped on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(argv)
    finally:
        stop_processes()


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        die(f"no program source at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported repro from {repro.__file__}, not from {SRC}")
    w = engines.WORKLOADS.get(args.workload)
    if w is None:
        die(f"unknown workload {args.workload!r}; one of {sorted(engines.WORKLOADS)}")

    setup: list[float] = []
    if args.trace:
        base, results, metrics = traced(w, args.seed, args.seconds)
        results = [base] + results
    else:
        results, setup = run_rounds(w, args.seed, args.seconds, probes=SETUP_REPEATS)
        metrics = end_to_end(w, results, setup)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    kinds: dict[str, int] = {}
    for r in results:
        for k, c in r.failures.items():
            kinds[k] = kinds.get(k, 0) + c
    problems = [p for r in results for p in r.problems]
    correct = not problems and set(kinds) <= rounds.KNOWN_FAULTS

    untraced = [base] if args.trace else results
    updates = [ns for r in untraced for ns in r.update_ns]
    deletes = [ns for r in untraced for ns in r.delete_ns]
    queries = [ns for r in untraced for ns in r.query_ns]
    print(f"workload {w.name} seed {args.seed}: {len(results)} rounds, "
          f"{attempted} operations attempted, {failed} failed {kinds or ''}")
    # Figures that are not gated (see README): printed for the reader.
    print(f"  {len(updates)} updates: p50 {percentile(updates, 50) / 1e3:.1f} us, "
          f"p99 {percentile(updates, 99) / 1e3:.1f} us; {len(deletes)} deletes: "
          f"p50 {percentile(deletes, 50) / 1e3:.1f} us; {len(queries)} queries: "
          f"p50 {percentile(queries, 50) / 1e3:.2f} us, p99 {percentile(queries, 99) / 1e3:.2f} us")
    if setup:
        print("  setup samples s: " + " ".join(f"{s:.3f}" for s in setup))
    for p in problems[:10]:
        print(f"  problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
