"""futakizero benchmark: one workload, one run, every output checked.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Workloads (see NOTES.md): ``verify-all`` runs ``futakizero verify --all`` in
a fresh interpreter per operation, ``case-queries`` runs seeded single-record
commands in a fresh interpreter each, ``toric-points`` runs a seeded stream of
``class_to_polytope`` + ``futaki_vector`` calls in one process.  The load is
one closed-loop client.  Every time is normalised to a reference machine
speed (see ``timing.py``, and ``setup_seconds`` for ``setup_s``); raw
medians are printed beside them.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` runs a fixed seeded prefix (``TRACE_PASSES``) once untraced and
once with the layer tracer, and reports the per-layer metrics, so its counters
repeat exactly.  The last stdout line is the JSON result; the lines above it
give sample counts, the failure ratio and the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import timing  # noqa: E402
import tracer as layer_tracer  # noqa: E402
import workloads  # noqa: E402
from child import TRACE_MARK  # noqa: E402

GOLDENS = BENCH / "goldens"
TRACE_PASSES = {"verify-all": 1, "case-queries": 1, "toric-points": 16}
SETUP_SAMPLES = 9
REFERENCE_START_S = 0.05   # bare interpreter start at the reference speed
CLI_TIMEOUT = 150


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("FUTAKIZERO_CATALOG", None)
    return env


def spawn(argv, timeout=CLI_TIMEOUT, probe=None):
    """Run a child to completion: (exit code or None on timeout, stdout, stderr).
    While it runs, ``probe`` samples the machine speed (see ``timing.py``)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env(), encoding="utf-8")
    deadline = time.monotonic() + timeout
    while True:
        try:
            out, err = proc.communicate(timeout=0.05)
            return proc.returncode, out, err
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                proc.kill()
                out, err = proc.communicate()
                return None, out, err
            if probe is not None:
                probe.sample_if_due()


def cli_op(args, traced, probe=None):
    """One CLI command in a fresh interpreter: (code, stdout, trace summary)."""
    if traced:
        code, out, err = spawn([sys.executable, str(BENCH / "child.py"), "cli", *args],
                               probe=probe)
        lines = [ln for ln in err.splitlines() if ln.startswith(TRACE_MARK)]
        summary = json.loads(lines[-1][len(TRACE_MARK):]) if lines else None
        return code, out, summary
    code, out, _ = spawn([sys.executable, "-m", "futakizero", *args], probe=probe)
    return code, out, None


def setup_seconds():
    """Interpreter start plus ``import futakizero.cli``, each start timed next
    to a bare ``python -I -c pass`` start: the median over ``SETUP_SAMPLES``
    pairs of ``REFERENCE_START_S`` * (import start / bare start), after one
    pair that fills the bytecode cache, and the raw median import start.  A
    bare start tracks the machine's speed for this kind of work better than
    the kernel of ``timing.py`` does."""
    def start(argv):
        begin = time.perf_counter()
        code, _, err = spawn(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv[1:])} failed: {err.strip()}")
        return time.perf_counter() - begin
    with_import = [sys.executable, "-c", "import futakizero.cli"]
    bare = [sys.executable, "-I", "-c", "pass"]
    start(with_import), start(bare)
    pairs = [(start(with_import), start(bare)) for _ in range(SETUP_SAMPLES)]
    return (statistics.median(REFERENCE_START_S * c / b for c, b in pairs),
            statistics.median(c for c, _ in pairs))


def load_goldens():
    cli = json.loads((GOLDENS / "cli.json").read_text("utf-8"))["commands"]
    points = {}
    for table in json.loads((GOLDENS / "toric_points.json").read_text("utf-8"))["seeds"].values():
        points.update(table)
    return cli, points


# ---------------------------------------------------------------------------
# one pass of work, checked
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    norm_s: list        # normalised latency of each operation
    raw_s: list         # its raw wall time
    pass_s: list        # normalised time of each complete pass
    failed: int
    summaries: list     # trace summaries, when traced
    peak_rss_mb: float  # largest peak resident set of a process that ran the program


def run_cli_workload(workload, seed, seconds, passes, traced, goldens):
    ops, pass_s = timing.closed_loop(
        workloads.passes(workload, seed),
        lambda args, probe: (args, *cli_op(args, traced, probe)), seconds, passes)
    failed = 0
    for _, _, (args, code, out, _) in ops:
        golden = goldens[0].get(" ".join(args))
        if golden is None or code != golden["code"] or out != golden["stdout"]:
            failed += 1
    summaries = [summary for _, _, (_, _, _, summary) in ops]
    if traced and None in summaries:
        raise SystemExit("a traced command wrote no trace summary")
    # The import starts of ``setup_seconds`` are children too, but smaller.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return Outcome([o[0] for o in ops], [o[1] for o in ops], pass_s, failed, summaries, peak)


def run_toric_workload(seed, seconds, passes, traced, goldens):
    argv = [sys.executable, str(BENCH / "child.py"), "toric", "--seed", str(seed)]
    argv += ["--passes", str(passes)] if passes else ["--seconds", str(seconds)]
    if traced:
        argv.append("--trace")
    code, out, err = spawn(argv, timeout=(seconds or 0) + CLI_TIMEOUT)
    if code != 0:
        raise SystemExit(f"toric child failed ({code}): {err.strip()}")
    result = Outcome([], [], [], 0, [], 0.0)
    outcomes = []
    for line in out.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "o":
            norm, raw, outcome = rest.split(" ", 2)
            result.norm_s.append(float(norm))
            result.raw_s.append(float(raw))
            outcomes.append(outcome)
        elif tag == "p":
            result.pass_s.append(float(rest))
        elif tag == "r":
            result.peak_rss_mb = int(rest) / 1024
        elif tag == "t":
            result.summaries.append(json.loads(rest))
    stream = (point for batch in workloads.passes("toric-points", seed) for point in batch)
    for outcome, (family, params) in zip(outcomes, stream):
        key = workloads.point_key(family, params)
        expected = goldens[1].get(key) or reference.expected_outcome(family, params)
        result.failed += outcome != expected
    return result


def run_workload(workload, seed, seconds, passes, traced, goldens):
    if workload == "toric-points":
        return run_toric_workload(seed, seconds, passes, traced, goldens)
    return run_cli_workload(workload, seed, seconds, passes, traced, goldens)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def work_counters(values, spec):
    """The per-layer metrics that count work; they repeat exactly."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: v for k, v in values.items() if units[k] not in ("s", "ratio")}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def commit_id():
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(workload, seed, seconds, goldens, notes):
    setup, setup_raw = setup_seconds()
    run = run_workload(workload, seed, seconds, None, False, goldens)
    lat_ms = [s * 1e3 for s in run.norm_s]
    n = len(lat_ms)
    notes += [
        f"wall_s: median of {len(run.pass_s)} passes of "
        f"{workloads.PASS_SIZE[workload]} operations",
        f"op_p50_ms, op_p90_ms: {n} operations (p90 by nearest rank); raw p50 "
        f"{statistics.median(run.raw_s) * 1e3:.6g} ms",
        f"setup_s: median of {SETUP_SAMPLES} import starts, each against a bare start; "
        f"raw {setup_raw:.6g} s",
        f"fail_ratio: {run.failed}/{n} = {run.failed / n:.6g}",
    ]
    values = {
        "wall_s": statistics.median(run.pass_s),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": nearest_rank(lat_ms, 90),
        "setup_s": setup,
        "peak_rss_mb": run.peak_rss_mb,
    }
    return values, n, run.failed


def per_layer(workload, seed, goldens, notes):
    setup_seconds()  # fills the bytecode cache, as in the untraced runs
    passes = TRACE_PASSES[workload]
    plain = run_workload(workload, seed, None, passes, False, goldens)
    traced = run_workload(workload, seed, None, passes, True, goldens)
    values = layer_tracer.layer_metrics(layer_tracer.merge(traced.summaries))
    untraced_s, traced_s = sum(plain.pass_s), sum(traced.pass_s)
    values.update({"trace.untraced_wall_s": untraced_s, "trace.wall_s": traced_s,
                   "trace.overhead_ratio": traced_s / untraced_s})
    notes += [f"traced prefix: {passes} passes, {len(traced.norm_s)} operations, "
              f"run once untraced and once traced",
              "toric.cramer_solves is computed: sum of C(facets, dim) over "
              "from_halfspaces calls"]
    return values, len(plain.norm_s) + len(traced.norm_s), plain.failed + traced.failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "futakizero" / "__init__.py").is_file():
        sys.exit(f"no futakizero sources under {SRC}: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    goldens = load_goldens()
    # One CPU for this process and every child, so that the speed kernel and
    # the work it brackets run on the same (possibly contended) core.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    notes = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} commit={commit_id()} "
             f"python={sys.version.split()[0]} nproc={os.cpu_count()} pinned_cpu={cpu}"]
    if args.trace:
        values, attempted, failed = per_layer(args.workload, args.seed, goldens, notes)
        declared = spec["per_layer"]
    else:
        values, attempted, failed = end_to_end(args.workload, args.seed, args.seconds,
                                               goldens, notes)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
