"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/sweep.py --seeds 0-9 [--out perfbench/baseline.json]

For every workload it runs ``run.py`` once per seed with ``--trace 0``, then
twice with ``--trace 1`` on the default seed (the counters must agree), and
prints per end-to-end metric the median, the quartiles and the spread
(distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound.  ``--out`` appends the sweep, with the run environment, to the file's
list of sweeps; from the second sweep on it also records, per workload and
metric, the change of the median from the first sweep to each later one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads


def one_run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def median_changes(sweeps):
    """Per workload and metric: (later median - first median) / first median."""
    first = sweeps[0]["workloads"]
    return [{w: {m: entry["end_to_end"][m]["median"] / first[w]["end_to_end"][m]["median"] - 1
                 for m in entry["end_to_end"]}
             for w, entry in later["workloads"].items()}
            for later in sweeps[1:]]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    record = {"commit": run.commit_id(), "python": sys.version.split()[0],
              "nproc": os.cpu_count(), "seconds": seconds, "seeds": seeds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for workload in workloads.WORKLOADS:
        results = [one_run(workload, s, seconds, 0) for s in seeds]
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results), "end_to_end": {}}
        print(f"{workload}: attempted {entry['attempted']} failed {sum(entry['failed'])}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values}
            print(f"  {m['name']:12} median {q2:10.5g} {m['unit']:3} "
                  f"spread {spread:6.3f} (bound {m['bound']}, a third {m['bound'] / 3:.3f})")
        traced = [one_run(workload, workloads.DEFAULT_SEED, seconds, 1) for _ in range(2)]
        counts = [run.work_counters({k: v["value"] for k, v in t["metrics"].items()}, spec)
                  for t in traced]
        entry["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        entry["traced_counters_repeat"] = counts[0] == counts[1]
        entry["trace_overhead_ratio"] = traced[0]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  traced counters repeat: {counts[0] == counts[1]}, overhead ratio "
              f"{entry['trace_overhead_ratio']:.3f}")
        record["workloads"][workload] = entry
    if args.out:
        out = Path(args.out)
        sweeps = json.loads(out.read_text("utf-8"))["sweeps"] if out.exists() else []
        sweeps.append(record)
        changes = median_changes(sweeps)
        for later, change in enumerate(changes, 2):
            print(f"median change, sweep 1 -> sweep {later}:")
            for workload, metrics in change.items():
                print(f"  {workload:13} " + "  ".join(f"{m} {v:+.3f}" for m, v in metrics.items()))
        out.write_text(json.dumps({"sweeps": sweeps, "median_change_from_first": changes},
                                  indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
