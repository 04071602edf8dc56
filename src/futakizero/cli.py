"""Command-line driver: parse the arguments, run the library and format its
results.

Commands: ``verify [ID | --all]``, ``toric futaki --family F --params k=v``,
``toric scan --family F --step q``, ``catalog validate``,
``report [--format text|json-lines]``.  Exit status: 0 success, 1 verdict
mismatch, 2 catalog or usage errors, 3 toric errors (out-of-region
parameters, bad ``--params``, a bad grid step or locus equation, a scan
with no grid point in the Kähler region, a grid of more than
``cells.MAX_SCAN_POINTS`` points), 4 internal errors, 141 (128 + SIGPIPE) a
closed stdout.  ``main`` alone turns a CatalogError, a load error or a
validation finding of a selected record, into exit 2, a reader that closed
stdout into exit 141 with nothing on stderr, and any other exception into
one ``internal error:`` line on stderr and exit 4, so that exit 1 always
means a verdict mismatch.  A command naming one case loads the catalog with
that case and so builds and validates only the records it selects; ``verify
--all``, ``report`` without a case and ``catalog validate`` build every
record, and ``toric scan`` builds none: it reads its loci with
``cells.toric_loci``.  Records are evaluated by
``character.evaluate_record``, one after another in catalog order; this
module holds no evaluation policy.

Importing this module loads ``catalog`` and ``character`` only; every other
module loads on first use, so a command compiles only what its records need
(see the README's layout table), and ``json`` loads for ``--format json-lines``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

# The engines load in the functions that use them (see above).  Loaded
# mid-run, ``toric`` and ``cells`` leave the peak of `verify --all` within
# noise: 19.37 MB, against 19.34 MB with both imported here and the classes
# built by ``dataclasses`` (perfbench ``peak_rss_mb``, medians of 10 runs on
# one CPU without a bytecode cache).
from .catalog import CatalogError, load_catalog, parse_assignments, validate_case
from .catalog import family_number, validate_catalog
from .character import DEFAULT_SCAN_STEP, evaluate_record, verdict_json_fields, verdict_line

ENV_CATALOG = "FUTAKIZERO_CATALOG"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CATALOG = 2
EXIT_REGION = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _evaluated(args):
    """(CaseResult per selected record, number of mismatches); a CatalogError
    with one line per finding unless every selected record validates."""
    records = load_catalog(args.catalog, case=args.case).records
    if not records:
        raise CatalogError(f"unknown family or case id {args.case!r}")
    findings = [f"{r.id}: {f}" for r in records for f in validate_case(r)]
    if findings:
        raise CatalogError("\n".join(findings))
    results = [evaluate_record(r) for r in records]
    return results, sum(not res.consistent for res in results)


def _verdict_text(tag, dim=None):
    """``subcone(d)``, or the bare tag of any other verdict."""
    return f"subcone({dim})" if tag == "subcone" else tag


def cmd_verify(args, out):
    results, mismatches = _evaluated(args)
    if args.format == "json-lines":
        import json
    for res in results:
        audit = res.audit or None
        expected = _verdict_text(*res.record.expected)
        if args.format == "json-lines":
            fields = verdict_json_fields(res.record.id, res.verdict, audit)
            fields.append(("expected", expected))
            fields.append(("consistent", res.consistent))
            fields.append(("detail", res.detail or None))
            print(json.dumps(dict(fields)), file=out)
            continue
        print(verdict_line(res.record.id, res.verdict, audit), file=out)
        if not res.consistent:
            computed = _verdict_text(res.verdict.tag, res.verdict.fixed_dim)
            membership = res.verdict.anticanonical_in_fixed
            if res.verdict.tag == "subcone" and membership is not True:
                computed += f" anticanonical_in_fixed={str(membership).lower()}"
            print(f"MISMATCH case={res.record.id} expected={expected} computed={computed}"
                  + (f" {res.detail}" if res.detail else ""), file=out)
    if args.format == "text":
        print(f"verified {len(results)} case records, {mismatches} mismatches",
              file=out)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def cmd_report(args, out):
    results, mismatches = _evaluated(args)
    exceptional = []
    audits = []
    rows = []
    for res in results:
        if res.record.kind == "toric-crosscheck":
            audits.append((res.record.id, res.audit))
        elif not res.verdict.is_full_cone():
            exceptional.append(res.record.family)
        rows.append((res.record.id, res.record.aut,
                     _verdict_text(res.verdict.tag, res.verdict.fixed_dim),
                     _verdict_text(*res.record.expected),
                     "ok" if res.consistent else "MISMATCH"))
    if args.format == "json-lines":
        import json
        for row in rows:
            print(json.dumps({"case": row[0], "aut": row[1], "computed": row[2],
                              "expected": row[3], "match": row[4]}), file=out)
        footer = {"exception_families": sorted(set(exceptional), key=_family_key),
                  "audits": [{"case": c, "audit": a} for c, a in audits]}
        print(json.dumps(footer), file=out)
    else:
        widths = [max(len(str(row[i])) for row in rows + [_HEADER]) for i in range(5)]
        print("  ".join(h.ljust(w) for h, w in zip(_HEADER, widths)), file=out)
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)), file=out)
        exceptions = " ".join(sorted(set(exceptional), key=_family_key))
        print(f"theorem-1 exception list (computed): {exceptions}", file=out)
        for case_id, audit in audits:
            print(f"audit row {case_id}: {audit}", file=out)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


_HEADER = ("case", "aut", "computed", "expected", "match")


def _family_key(fam):
    """Numeric ``N.M`` families first, in numeric order, then any other by
    its text."""
    number = family_number(fam)
    return (0, *number) if number else (1, fam)


def cmd_catalog_validate(args, out):
    catalog = load_catalog(args.catalog)
    findings = validate_catalog(catalog)
    if findings:
        for f in findings:
            print(f"finding: {f}", file=out)
        print(f"catalog INVALID: {len(catalog.records)} records, "
              f"{len(findings)} findings", file=out)
        return EXIT_CATALOG
    print(f"catalog OK: {len(catalog.records)} records, 0 findings", file=out)
    return EXIT_OK


def cmd_toric_futaki(args, out):
    from . import toric
    try:
        polytope = toric.class_to_polytope(args.family, **parse_assignments(args.params))
    except toric.KahlerRegionError as exc:
        print(f"out of the Kähler region: {exc}", file=sys.stderr)
        return EXIT_REGION
    except (toric.ToricError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGION
    print(toric.futaki_vector(polytope).render(), file=out)
    return EXIT_OK


def cmd_toric_scan(args, out):
    from . import toric
    loci = args.loci
    if loci is None:
        from .cells import toric_loci
        loci = toric_loci(args.family, args.catalog)
    try:
        report = toric.zero_locus_scan(args.family, args.step, loci=loci)
    except toric.ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGION
    for pt in report.points:
        coords = " ".join(str(v) for _, v in pt.values)
        print(f"{coords} -> {'zero' if pt.zero else 'nonzero'}", file=out)
    print(f"locus: scanned {len(report.points)} points at step "
          f"{report.step}, skipped {report.skipped} out-of-region",
          file=out)
    for fit in report.loci:
        status = ("untested" if fit.points_on_locus == 0
                  else "confirmed" if fit.on_locus_all_zero else "FALSIFIED")
        print(f"locus: {fit.equation} :: {status} "
              f"({fit.points_on_locus} grid points)", file=out)
    if report.loci:
        coverage = "exact" if report.covered else "zeros exist off the candidates"
        print(f"locus: coverage :: {coverage}", file=out)
    else:
        print("locus: none declared", file=out)
    print(f"locus: classification :: {report.classify()}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}") from None


class _FamilyNames:
    """The ``--family`` choices: the toric family names, read from the toric
    engine when argparse first checks or lists them, so that the commands
    without that option do not load the engine."""

    def __contains__(self, name):
        from .toric import FAMILIES
        return name in FAMILIES

    def __iter__(self):
        from .toric import FAMILIES
        return iter(sorted(FAMILIES))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="futakizero",
        description="Exact verification of Futaki-character vanishing for the "
                    "catalogued Fano threefolds.")
    parser.add_argument("--catalog", default=os.environ.get(ENV_CATALOG),
                        help="catalog path (default: shipped catalog, or "
                             f"${ENV_CATALOG})")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify one case or the whole catalog")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("case", nargs="?", default=None,
                       help="family or case id, e.g. 2.24 or 3.10-a")
    group.add_argument("--all", action="store_true", help="verify every record")
    verify.add_argument("--format", choices=("text", "json-lines"), default="text")
    verify.set_defaults(func=cmd_verify)

    toric_parser = sub.add_parser("toric", help="toric Futaki computations")
    toric_sub = toric_parser.add_subparsers(dest="toric_command", required=True)
    futaki = toric_sub.add_parser("futaki", help="Futaki vector of one polytope")
    # set after add_argument, which formats the choices to check the metavar and
    # so would load the toric engine for every command
    futaki.add_argument("--family", required=True).choices = _FamilyNames()
    futaki.add_argument("--params", required=True,
                        help="comma-separated k=v rational assignments")
    futaki.set_defaults(func=cmd_toric_futaki)
    scan = toric_sub.add_parser("scan", help="grid scan of the zero locus")
    scan.add_argument("--family", required=True).choices = _FamilyNames()
    scan.add_argument("--step", type=_rational, default=DEFAULT_SCAN_STEP,
                      help="rational grid step")
    scan.add_argument("--loci", nargs="*", default=None,
                      help="override candidate locus equations")
    scan.set_defaults(func=cmd_toric_scan)

    catalog_parser = sub.add_parser("catalog", help="catalog maintenance")
    catalog_sub = catalog_parser.add_subparsers(dest="catalog_command", required=True)
    validate = catalog_sub.add_parser("validate", help="run all consistency checks")
    validate.set_defaults(func=cmd_catalog_validate)

    report = sub.add_parser("report", help="summary table mirroring the verdicts")
    report.add_argument("case", nargs="?", default=None)
    report.add_argument("--format", choices=("text", "json-lines"), default="text")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "all", False):
        args.case = None
    try:
        status = args.func(args, out)
        out.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit writes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except CatalogError as exc:
        for message in str(exc).split("\n"):
            print(f"catalog error: {message}", file=sys.stderr)
        return EXIT_CATALOG
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
