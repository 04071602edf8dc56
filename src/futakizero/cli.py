"""Command-line driver: verify cases, run toric computations and scans, and
emit the summary report.

Commands: ``verify [ID | --all]``, ``toric futaki --family F --params k=v``,
``toric scan --family F --step q``, ``catalog validate``,
``report [--format text|json-lines]``.  Exit status: 0 success, 1 verdict
mismatch, 2 catalog or usage errors, 3 toric errors (out-of-region
parameters, a bad grid step or locus equation).  Records are evaluated one
after another in catalog order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# ``toric`` and ``cells`` load in the functions that use them, so most
# single-record commands never compile them.  Loaded mid-run, they leave the
# peak of `verify --all` within noise: 19.37 MB, against 19.34 MB with both
# imported here and the classes built by ``dataclasses`` (perfbench
# ``peak_rss_mb``, medians of 10 runs on one CPU without a bytecode cache).
from . import character
from .catalog import CatalogError, load_catalog, validate_catalog
from .catalog import validate_case as catalog_validate_case
from .character import full_cone
from .symmetry import AdjointUnsolvable

ENV_CATALOG = "FUTAKIZERO_CATALOG"
DEFAULT_SCAN_STEP = Fraction(1, 4)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CATALOG = 2
EXIT_REGION = 3


class CaseResult:
    __slots__ = ("record", "verdict", "consistent", "audit", "detail")

    def __init__(self, record, verdict, consistent, audit="", detail=""):
        self.record = record
        self.verdict = verdict
        self.consistent = consistent
        self.audit = audit
        self.detail = detail


def evaluate_record(record):
    """Full evaluation of one record, including toric cross-checks."""
    if record.kind == "semisimple_full":
        verdict = full_cone(("semisimple",))
        return CaseResult(record, verdict, record.expected == ("full_cone",))
    if record.kind == "abstract":
        verdict = character.abstract_verdict(
            record.torus_rank, record.adjoints, record.fixed_dim,
            len(record.h11_labels) if record.h11_labels else record.fixed_dim + 1,
            record.anticanonical_in_fixed)
        return CaseResult(record, verdict, _plain_consistent(record, verdict))
    if record.kind == "product":
        return _evaluate_product(record)
    if record.kind == "toric-crosscheck":
        return _evaluate_crosscheck(record)
    analysis = character.analyze_polynomial_case(record)
    return CaseResult(record, analysis.verdict,
                      _plain_consistent(record, analysis.verdict))


def _plain_consistent(record, verdict):
    if record.expected == ("full_cone",):
        return verdict.tag == "full_cone"
    if record.expected[0] == "subcone":
        return (verdict.tag == "subcone"
                and verdict.fixed_dim == record.expected[1]
                and verdict.anticanonical_in_fixed is True)
    return False


def _anticanonical_zero(record):
    if not record.toric_family or not record.anticanonical_params:
        return True, ""
    from . import toric
    polytope = toric.class_to_polytope(record.toric_family,
                                       **record.anticanonical_params)
    vec = toric.futaki_vector(polytope)
    if vec.is_zero():
        return True, ""
    return False, f"anticanonical Futaki vector is {vec.render()}"


def _evaluate_product(record):
    verdict = character.product_verdict(record.product_factors)
    consistent = _plain_consistent(record, verdict)
    details = []
    for f in record.product_factors:
        if not f.toric_family:
            continue
        from . import toric
        report = toric.zero_locus_scan(f.toric_family, DEFAULT_SCAN_STEP,
                                       loci=record.loci)
        outcome = classify_scan(report)
        if outcome not in ("on_locus", "locus_and_more", "identically_zero"):
            consistent = False
        details.append(f"{f.toric_family} scan: {outcome}")
    anti_ok, anti_detail = _anticanonical_zero(record)
    if not anti_ok:
        consistent = False
        details.append(anti_detail)
    return CaseResult(record, verdict, consistent, detail="; ".join(details))


def classify_scan(report):
    if report.zero_everywhere:
        return "identically_zero"
    if report.loci and all(f.on_locus_all_zero for f in report.loci):
        return "on_locus" if report.covered else "locus_and_more"
    return "off_locus"


def _evaluate_crosscheck(record):
    analysis = character.analyze_polynomial_case(record)
    unsolved = [a.name for a in analysis.symmetries
                if isinstance(a.adjoint, AdjointUnsolvable)]
    adjoint_outcome = "unsolvable" if len(unsolved) == len(analysis.symmetries) \
        else ("partial" if unsolved else "solvable")
    from . import toric
    report = toric.zero_locus_scan(record.toric_family, DEFAULT_SCAN_STEP,
                                   loci=record.loci)
    toric_outcome = classify_scan(report)
    anti_ok, anti_detail = _anticanonical_zero(record)
    theorem1 = "agrees" if toric_outcome == "identically_zero" else "disagrees"
    audit = f"adjoint={adjoint_outcome};toric={toric_outcome};theorem1={theorem1}"
    consistent = (adjoint_outcome == record.expected_adjoint
                  and toric_outcome == record.expected_toric
                  and anti_ok)
    return CaseResult(record, analysis.verdict, consistent, audit=audit,
                      detail=anti_detail)


def _select_records(catalog, selector):
    if selector is None:
        return list(catalog.records)
    hits = [r for r in catalog.records if r.id == selector or r.family == selector]
    if not hits:
        raise CatalogError(f"unknown family or case id {selector!r}")
    return hits


def _checked_records(args):
    """The selected records once the catalog loads and they validate, else
    None with the errors printed."""
    try:
        catalog = load_catalog(args.catalog)
        records = _select_records(catalog, args.case)
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return None
    findings = [f"{r.id}: {f}" for r in records for f in catalog_validate_case(r)]
    for f in findings:
        print(f"catalog error: {f}", file=sys.stderr)
    return None if findings else records


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args, out):
    records = _checked_records(args)
    if records is None:
        return EXIT_CATALOG
    results = [evaluate_record(r) for r in records]
    mismatches = 0
    for res in results:
        audit = res.audit or None
        if args.format == "json-lines":
            fields = character.verdict_json_fields(res.record.id, res.verdict, audit)
            fields.append(("expected", _expected_text(res.record)))
            fields.append(("consistent", res.consistent))
            print(json.dumps(dict(fields)), file=out)
        else:
            print(character.verdict_line(res.record.id, res.verdict, audit), file=out)
        if not res.consistent:
            mismatches += 1
            expected = _expected_text(res.record)
            print(f"MISMATCH case={res.record.id} expected={expected} "
                  f"computed={res.verdict.tag}({res.verdict.fixed_dim}) {res.detail}",
                  file=out)
    if args.format == "text":
        print(f"verified {len(results)} case records, {mismatches} mismatches",
              file=out)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _expected_text(record):
    if record.expected[0] == "subcone":
        return f"subcone({record.expected[1]})"
    return record.expected[0]


def cmd_report(args, out):
    records = _checked_records(args)
    if records is None:
        return EXIT_CATALOG
    results = [evaluate_record(r) for r in records]
    mismatches = 0
    exceptional = []
    audits = []
    rows = []
    for res in results:
        computed = res.verdict.tag
        if res.verdict.tag == "subcone":
            computed = f"subcone({res.verdict.fixed_dim})"
        match = "ok" if res.consistent else "MISMATCH"
        if not res.consistent:
            mismatches += 1
        if res.record.kind == "toric-crosscheck":
            audits.append((res.record.id, res.audit))
        elif not res.verdict.is_full_cone():
            exceptional.append(res.record.family)
        rows.append((res.record.id, res.record.aut, computed,
                     _expected_text(res.record), match))
    if args.format == "json-lines":
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
    major, _, minor = fam.partition(".")
    return (int(major), int(minor))


def cmd_catalog_validate(args, out):
    try:
        catalog = load_catalog(args.catalog)
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_CATALOG
    findings = validate_catalog(catalog)
    if findings:
        for f in findings:
            print(f"finding: {f}", file=out)
        print(f"catalog INVALID: {len(catalog.records)} records, "
              f"{len(findings)} findings", file=out)
        return EXIT_CATALOG
    print(f"catalog OK: {len(catalog.records)} records, 0 findings", file=out)
    return EXIT_OK


def _parse_param_args(text):
    values = {}
    if not text:
        return values
    for chunk in text.split(","):
        key, _, v = chunk.partition("=")
        if not v:
            raise ValueError(f"bad parameter assignment {chunk!r}")
        key = key.strip()
        if key in values:
            raise ValueError(f"repeated parameter {key!r}")
        try:
            values[key] = Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad parameter value {v.strip()!r}") from None
    return values


def cmd_toric_futaki(args, out):
    from . import toric
    try:
        params = _parse_param_args(args.params)
        polytope = toric.class_to_polytope(args.family, **params)
    except toric.KahlerRegionError as exc:
        print(f"out of the Kähler region: {exc}", file=sys.stderr)
        return EXIT_REGION
    except (toric.ToricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGION
    print(toric.futaki_vector(polytope).render(), file=out)
    return EXIT_OK


def cmd_toric_scan(args, out):
    from . import toric
    loci = args.loci
    if loci is None:
        try:
            catalog = load_catalog(args.catalog)
        except CatalogError as exc:
            print(f"catalog error: {exc}", file=sys.stderr)
            return EXIT_CATALOG
        loci = _catalog_loci(catalog, args.family)
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
        status = "confirmed" if fit.on_locus_all_zero else "FALSIFIED"
        print(f"locus: {fit.equation} :: {status} "
              f"({fit.points_on_locus} grid points)", file=out)
    if report.loci:
        coverage = "exact" if report.covered else "zeros exist off the candidates"
        print(f"locus: coverage :: {coverage}", file=out)
    else:
        print("locus: none declared", file=out)
    print(f"locus: classification :: {classify_scan(report)}", file=out)
    return EXIT_OK


def _catalog_loci(catalog, family):
    for record in catalog.records:
        if record.toric_family == family and record.loci:
            return record.loci
        for f in record.product_factors:
            if f.toric_family == family and record.loci:
                return record.loci
    return ()


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
    scan.add_argument("--step", type=_rational, default="1/4", help="rational grid step")
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
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())
