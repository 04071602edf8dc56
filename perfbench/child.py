"""Child-process entry points of the benchmark.

``child.py cli ARGS...`` runs ``futakizero ARGS...`` with the layer tracer
installed and prints the trace summary to stderr as its last line, after
``TRACE_MARK``.

``child.py toric --seed N (--seconds S | --passes K) [--trace]`` runs the
toric-points stream in this one process through the public library API: one
line ``o <normalised s> <raw s> <outcome>`` per point in stream order, then
``p <normalised s>`` per complete pass, ``r <peak resident set in KiB>`` of
this process and, when traced, ``t <json>`` with the trace summary.  Times are normalised as described in ``timing.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import timing
import tracer as layer_tracer
import workloads

TRACE_MARK = "PERFBENCH-TRACE "
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import futakizero
    if Path(futakizero.__file__).resolve().parent != SRC / "futakizero":
        raise SystemExit(f"imported futakizero from {futakizero.__file__}, not {SRC}")


def run_cli(argv):
    _import_package()
    tracer = layer_tracer.Tracer()
    layer_tracer.install(tracer)
    from futakizero import cli
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    return code


def run_toric(argv):
    parser = argparse.ArgumentParser(prog="child.py toric")
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--passes", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    _import_package()
    tracer = None
    if args.trace:
        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer)
    from futakizero import toric

    def run_point(point, probe):
        family, params = point
        try:
            return toric.futaki_vector(toric.class_to_polytope(family, **params)).render()
        except toric.KahlerRegionError:
            return "region"
        except Exception as exc:  # reported as a failed operation
            return f"error:{type(exc).__name__}"

    ops, pass_s = timing.closed_loop(workloads.passes("toric-points", args.seed),
                                     run_point, args.seconds, args.passes, per_op=False)
    write = sys.stdout.write
    for norm, raw, outcome in ops:
        write(f"o {norm!r} {raw!r} {outcome}\n")
    for s in pass_s:
        write(f"p {s!r}\n")
    write(f"r {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\n")
    if tracer is not None:
        write("t " + json.dumps(tracer.summary()) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli"]:
        sys.exit(run_cli(sys.argv[2:]))
    if sys.argv[1:2] == ["toric"]:
        sys.exit(run_toric(sys.argv[2:]))
    sys.exit("usage: child.py cli ARGS... | child.py toric ...")
