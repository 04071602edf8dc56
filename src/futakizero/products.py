"""Product and toric-crosscheck records: factor specs, scan loci and the
evaluation of both kinds, loaded only for a record of either kind or a scan.
"""

from __future__ import annotations

from .catalog import CatalogError, _convert, _structure
from .character import (CaseResult, CharacterError, DEFAULT_SCAN_STEP, FixedFamily,
                        Verdict, _plain_consistent, analyze_polynomial_case, full_cone)


class ProductFactorSpec:
    __slots__ = ("name", "verdict_tag", "rank", "family_dims", "toric_family",
                 "anticanonical_in_families")

    def __init__(self, name, verdict_tag, rank, family_dims=(), toric_family="",
                 anticanonical_in_families=True):
        self.name = name
        self.verdict_tag = verdict_tag      # full_cone | families
        self.rank = rank
        self.family_dims = family_dims
        self.toric_family = toric_family
        self.anticanonical_in_families = anticanonical_in_families


def _positive(text, what):
    """``int(text)``, which must be at least 1: a dimension or a rank."""
    n = _convert(text, int, what)
    if n < 1:
        raise CatalogError(f"{what} {n} is below 1")
    return n


def _parse_bool(value):
    if value == "yes":
        return True
    if value == "no":
        return False
    raise CatalogError(f"expected yes/no, got {value!r}")


def _parse_factor(value):
    parts = [p.strip() for p in value.split(" : ")]
    if len(parts) < 3:
        raise CatalogError("factor needs name : verdict : rank")
    name = parts[0]
    rank = None
    toric = ""
    dims = ()
    anticanonical_in_families = True
    tag = None
    for part in parts[1:]:
        if part == "full_cone":
            tag = "full_cone"
        elif part.startswith("families "):
            tag = "families"
            dims = tuple(_convert(x.strip(), int, "families entry")
                         for x in part[len("families "):].split(","))
        elif part.startswith("rank "):
            rank = _positive(part[len("rank "):], "factor rank")
        elif part.startswith("toric "):
            toric = part[len("toric "):]
        elif part.startswith("anticanonical_in_families "):
            anticanonical_in_families = _parse_bool(part[len("anticanonical_in_families "):])
        else:
            raise CatalogError(f"bad factor clause {part!r}")
    if tag is None or rank is None:
        raise CatalogError("factor needs a verdict and a rank")
    for dim in dims:
        if not 0 < dim < rank:
            raise CatalogError(f"families entry {dim} outside 1..{rank - 1}")
    return ProductFactorSpec(name, tag, rank, dims, toric, anticanonical_in_families)


def toric_loci(toric_family, path=None):
    """The candidate zero-locus equations of the first record that scans
    this toric family, itself or as a product factor; () if none.

    Read after the structure pass, which still checks every line, from the
    ``locus``, ``toric_family`` and ``factor`` values alone: no record is
    built, so a record broken elsewhere does not stop a scan.  A malformed
    ``factor`` value of a record with loci does, as in ``load_catalog``."""
    for case_id, _, entries in _structure(path, None)[0]:
        loci = tuple(v for k, v, _ in entries if k == "locus")
        if not loci:
            continue
        scanned = {v for k, v, _ in entries if k == "toric_family"}
        for key, value, line in entries:
            if key == "factor":
                try:
                    scanned.add(_parse_factor(value).toric_family)
                except CatalogError as exc:
                    raise CatalogError(f"record {case_id}: {exc}", line) from exc
        if toric_family in scanned:
            return loci
    return ()


def _validate_product(record):
    findings = []
    if not record.product_factors:
        findings.append("product record without factors")
    for f in record.product_factors:
        if f.verdict_tag == "families" and not f.family_dims:
            findings.append(f"factor {f.name}: families verdict without dimensions")
    return findings


def product_verdict(factors):
    """Vanishing locus of a product = product of the factor loci inside the
    direct-sum class space; FullCone iff every factor is FullCone.  The
    factors are the catalog's ``ProductFactorSpec`` entries of a product
    record."""
    if not factors:
        raise CharacterError("empty product")
    if all(f.verdict_tag == "full_cone" for f in factors):
        return full_cone(tuple(f.name for f in factors))
    option_dims = []
    for f in factors:
        if f.verdict_tag == "full_cone":
            option_dims.append((("all", f.rank),))
        else:
            option_dims.append(tuple((f"family{i}", d) for i, d in enumerate(f.family_dims)))
    combos = [()]
    for options in option_dims:
        combos = [c + (o,) for c in combos for o in options]
    families = []
    for combo in combos:
        dim = sum(d for _, d in combo)
        description = " x ".join(
            f"{f.name}:{tag}({d})" for f, (tag, d) in zip(factors, combo))
        families.append(FixedFamily(dim=dim, basis=(), subset=(), description=description))
    best = max(f.dim for f in families)
    maximal = tuple(f for f in families if f.dim == best)
    contained = all(f.anticanonical_in_families for f in factors)
    return Verdict("subcone", fixed_dim=best, families=maximal,
                   certificate=("product",), anticanonical_in_fixed=contained)


def _anticanonical_zero(record):
    if not record.toric_family:
        return True, ""
    from . import toric
    family = toric.FAMILIES[record.toric_family]
    vec = toric.futaki_vector(family.build(**family.anticanonical()))
    if vec.is_zero():
        return True, ""
    return False, f"anticanonical Futaki vector is {vec.render()}"


def _evaluate_product(record):
    verdict = product_verdict(record.product_factors)
    consistent = _plain_consistent(record, verdict)
    details = []
    for f in record.product_factors:
        if not f.toric_family:
            continue
        from . import toric
        outcome = toric.zero_locus_scan(f.toric_family, DEFAULT_SCAN_STEP,
                                        loci=record.loci).classify()
        if outcome not in ("on_locus", "locus_and_more", "identically_zero"):
            consistent = False
        details.append(f"{f.toric_family} scan: {outcome}")
    anti_ok, anti_detail = _anticanonical_zero(record)
    if not anti_ok:
        consistent = False
        details.append(anti_detail)
    return CaseResult(record, verdict, consistent, detail="; ".join(details))


def _evaluate_crosscheck(record):
    from .symmetry import AdjointUnsolvable
    analysis = analyze_polynomial_case(record)
    unsolved = sum(isinstance(a, AdjointUnsolvable) for a in analysis.adjoints)
    adjoint_outcome = "unsolvable" if unsolved == len(analysis.adjoints) \
        else ("partial" if unsolved else "solvable")
    from . import toric
    toric_outcome = toric.zero_locus_scan(record.toric_family, DEFAULT_SCAN_STEP,
                                          loci=record.loci).classify()
    anti_ok, anti_detail = _anticanonical_zero(record)
    theorem1 = "agrees" if toric_outcome == "identically_zero" else "disagrees"
    audit = f"adjoint={adjoint_outcome};toric={toric_outcome};theorem1={theorem1}"
    consistent = (adjoint_outcome == record.expected_adjoint
                  and toric_outcome == record.expected_toric
                  and anti_ok)
    return CaseResult(record, analysis.verdict, consistent, audit=audit,
                      detail=anti_detail)
