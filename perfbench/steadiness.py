"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--runs 5] [--workloads rmat-online,...]

Runs ``run.py`` ``--runs`` times per set and workload for two sets
(set A on seeds 1.., set B on seeds 101..; the runs of the two sets
alternate), each for the ``run_seconds`` in ``BENCHMARK.json``.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) of each set, and
whether the sets agree: set B's median is no worse than set A's by
more than the metric's bound, and each set's spread is within the
bound.  The ``A+B`` row
pools both sets: the spread over all ``2 * --runs`` seeds.  It also checks
that the share of failed operations is the same in both sets.  Exits 1
when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with its wall time (set-up probes and
    whole rounds included) added as ``wall_s``."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.perf_counter() - t0
    return doc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 101)):
                doc = one_run(workload, base + i, spec["run_seconds"])
                sets[name].append(doc)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items())
                print(f"# {workload} set {name} seed {base + i}: correct={doc['correct']} "
                      f"attempted={doc['attempted']} failed={doc['failed']} "
                      f"wall={doc['wall_s']:.0f}s {values}", flush=True)
        print(f"\n{workload}: {args.runs} runs per set")
        print(f"{'metric':16s} {'set':3s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = {}
            for s in ("A", "B"):
                vals = [d["metrics"][name]["value"] for d in sets[s]]
                q1, med, q3 = quartiles(vals)
                stats[s] = (q1, med, q3, (q3 - q1) / med)
            worse = (stats["B"][1] - stats["A"][1]) / stats["A"][1]
            if not lower:
                worse = -worse
            spread_ok = max(stats[s][3] for s in "AB") <= bound
            verdict = "agree" if worse <= bound and spread_ok else "DISAGREE"
            ok &= verdict == "agree"
            both = [d["metrics"][name]["value"] for s in "AB" for d in sets[s]]
            q1, med, q3 = quartiles(both)
            stats["A+B"] = (q1, med, q3, (q3 - q1) / med)
            for s in ("A", "B", "A+B"):
                q1, med, q3, spread = stats[s]
                tail = f"  {verdict} (B worse by {worse:+.1%})" if s == "B" else ""
                print(f"{name:16s} {s:3s} {q1:12.4f} {med:12.4f} {q3:12.4f} "
                      f"{spread:7.1%} {bound:6.0%}{tail}")
        shares = {s: {d["failed"] / d["attempted"] for d in sets[s]} for s in "AB"}
        same = len(shares["A"] | shares["B"]) == 1
        ok &= same and all(d["correct"] for s in "AB" for d in sets[s])
        print(f"failed share per run: A {sorted(shares['A'])} B {sorted(shares['B'])} "
              f"-> {'same' if same else 'DIFFERENT'}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
