"""Capture the golden outputs the benchmark checks against.

    python3 perfbench/capture_goldens.py

Run it on the commit whose behaviour is the reference; it rewrites
``goldens/cli.json`` (exit code and stdout of ``verify --all`` and of every
command ``case-queries`` can issue) and ``goldens/toric_points.json`` (the
rendered Futaki vector or ``region`` for the first ``TORIC_PASSES`` passes of
the default and the held-out seed).  Every toric golden is also compared with
the independent reference in ``reference.py``.
"""

from __future__ import annotations

import json
import sys

import run
import reference
import workloads

TORIC_PASSES = 16


def cli_commands():
    yield workloads.VERIFY_ALL_ARGS
    yield workloads.VALIDATE_ARGS
    for case_id in workloads.QUERY_IDS:
        yield ("verify", case_id)
        yield ("report", case_id, "--format", "json-lines")


def main():
    commit = run.commit_id()
    commands = {}
    for args in cli_commands():
        code, out, _ = run.cli_op(args, traced=False)
        commands[" ".join(args)] = {"code": code, "stdout": out}
    (run.GOLDENS / "cli.json").write_text(
        json.dumps({"commit": commit, "commands": commands}, indent=1) + "\n", "utf-8")

    seeds = {}
    disagreements = 0
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        code, out, err = run.spawn([sys.executable, str(run.BENCH / "child.py"), "toric",
                                    "--seed", str(seed), "--passes", str(TORIC_PASSES)])
        if code != 0:
            raise SystemExit(err)
        outcomes = [ln.split(" ", 2)[2] for ln in out.splitlines() if ln.startswith("o ")]
        stream = (p for batch in workloads.passes("toric-points", seed) for p in batch)
        table = {}
        for outcome, (family, params) in zip(outcomes, stream):
            table[workloads.point_key(family, params)] = outcome
            disagreements += outcome != reference.expected_outcome(family, params)
        seeds[str(seed)] = table
    (run.GOLDENS / "toric_points.json").write_text(
        json.dumps({"commit": commit, "passes": TORIC_PASSES, "seeds": seeds}, indent=0)
        + "\n", "utf-8")
    print(f"{len(commands)} commands, {sum(map(len, seeds.values()))} toric points, "
          f"{disagreements} disagreements with the reference")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
