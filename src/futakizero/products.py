"""Product and toric-crosscheck records: the validation and verdict of a
product and the evaluation of both kinds, loaded only for a record of either
kind.  A product factor is a ``toric.FAMILIES`` name and a tag, ``full_cone``
or ``families``; its rank, its families and -K's membership are read off its
fan and the record's loci (see ``_families``).
"""

from __future__ import annotations

from itertools import product

from .catalog import family_number
from .character import (CaseResult, CharacterError, DEFAULT_SCAN_STEP, FixedFamily,
                        Verdict, _plain_consistent, analyze_polynomial_case, full_cone)


def _validate_product(record):
    """Unknown factor names, factor ranks that do not sum to the Picard rank
    of an ``N.M`` id, and a ``families`` factor outside ``_families``'s rule."""
    from .toric import FAMILIES
    factors = record.product_factors
    if not factors:
        return ["product record without factors"]
    findings = [f"unknown toric family {name!r}" for name, _ in factors if name not in FAMILIES]
    if findings:
        return findings
    number = family_number(record.family)
    ranks = sum(_rank(FAMILIES[name]) for name, _ in factors)
    if number is not None and ranks != number[0]:
        findings.append(f"factor ranks sum to {ranks}, not the Picard rank {number[0]}")
    scanned = [FAMILIES[name] for name, tag in factors if tag == "families"]
    if len(scanned) > 1:
        return findings + [f"{len(scanned)} families factors, not one"]
    for family in scanned:
        from .polyring import PolyError, parse_equations
        name, p = family.name, len(family.param_names)
        if _rank(family) != p + 1:
            findings.append(f"factor {name}: rank {_rank(family)} is not one more than "
                            f"its {p} parameters")
        if not record.loci:
            findings.append(f"factor {name}: families verdict without a locus")
        for eq in record.loci:
            try:
                differences = parse_equations(eq, family.param_names)
            except PolyError as exc:
                findings.append(f"bad locus equation {eq!r} on {name}: {exc}")
                continue
            if any(sum(e) > 1 for d in differences for e in d.num):
                findings.append(f"locus {eq!r} is not affine in the parameters of {name}")
    return findings


def _rank(family):
    return len(family.rows) - family.dim


def _families(family, loci):
    """(the dimension of the family of classes each locus cuts out, whether
    the anticanonical point lies on every locus) of a ``families`` factor.
    Each locus is affine in the p parameters, which with the scaling that the
    constant offsets pin span the class space, of rank p + 1; with k the rank
    of its linear parts, a locus leaves p + 1 - k, 1 + their nullity."""
    from .polyring import parse_equations
    from .ratlinalg import kernel_basis
    names = family.param_names
    units = [tuple(int(i == j) for j in range(len(names))) for i in range(len(names))]
    point = family.anticanonical()
    dims, contained = [], True
    for eq in loci:
        differences = parse_equations(eq, names)
        dims.append(1 + len(kernel_basis([[d.num.get(u, 0) for u in units]
                                          for d in differences])))
        contained = contained and all(d.evaluate(point) == 0 for d in differences)
    return dims, contained


def product_verdict(factors, loci=()):
    """Vanishing locus of a product = product of the factor loci inside the
    direct-sum class space; FullCone iff every factor is FullCone.  The
    factors are the (name, tag) pairs of a validated product record, and
    ``loci`` its locus equations (see ``_families``)."""
    if not factors:
        raise CharacterError("empty product")
    if all(tag == "full_cone" for _, tag in factors):
        return full_cone(tuple(name for name, _ in factors))
    from .toric import FAMILIES
    option_dims = []
    contained = True
    for name, tag in factors:
        if tag == "full_cone":
            option_dims.append((("all", _rank(FAMILIES[name])),))
        else:
            dims, on_loci = _families(FAMILIES[name], loci)
            option_dims.append(tuple((f"family{i}", d) for i, d in enumerate(dims)))
            contained = contained and on_loci
    families = [FixedFamily(dim=sum(d for _, d in combo), basis=(), subset=(),
                            description=" x ".join(f"{name}:{tag}({d})" for (name, _), (tag, d)
                                                   in zip(factors, combo)))
                for combo in product(*option_dims)]
    best = max(f.dim for f in families)
    maximal = tuple(f for f in families if f.dim == best)
    return Verdict("subcone", fixed_dim=best, families=maximal,
                   certificate=("product",), anticanonical_in_fixed=contained)


def _toric_evidence(record, scanned):
    """(the outcome of the scan of family ``scanned`` on the record's loci,
    None for no family; "" when the Futaki vector of the record's toric
    family is zero at its anticanonical point, else the vector)."""
    from . import toric
    outcome = None
    if scanned:
        outcome = toric.zero_locus_scan(scanned, DEFAULT_SCAN_STEP,
                                        loci=record.loci).classify()
    if not record.toric_family:
        return outcome, ""
    family = toric.FAMILIES[record.toric_family]
    vec = toric.futaki_vector(family.build(**family.anticanonical()))
    return outcome, "" if vec.is_zero() else f"anticanonical Futaki vector is {vec.render()}"


def _evaluate_product(record):
    verdict = product_verdict(record.product_factors, record.loci)
    scanned = next((name for name, tag in record.product_factors if tag == "families"), "")
    outcome, anti_detail = _toric_evidence(record, scanned)
    consistent = (_plain_consistent(record, verdict) and not anti_detail
                  and outcome in (None, "on_locus", "locus_and_more", "identically_zero"))
    scan = f"{scanned} scan: {outcome}" if scanned else ""
    return CaseResult(record, verdict, consistent,
                      detail="; ".join(filter(None, (scan, anti_detail))))


def _evaluate_crosscheck(record):
    from .symmetry import AdjointUnsolvable
    analysis = analyze_polynomial_case(record)
    unsolved = sum(isinstance(a, AdjointUnsolvable) for a in analysis.adjoints)
    adjoint_outcome = "unsolvable" if unsolved == len(analysis.adjoints) \
        else ("partial" if unsolved else "solvable")
    toric_outcome, anti_detail = _toric_evidence(record, record.toric_family)
    theorem1 = "agrees" if toric_outcome == "identically_zero" else "disagrees"
    audit = f"adjoint={adjoint_outcome};toric={toric_outcome};theorem1={theorem1}"
    consistent = (adjoint_outcome == record.expected_adjoint
                  and toric_outcome == record.expected_toric
                  and not anti_detail)
    return CaseResult(record, analysis.verdict, consistent, audit=audit,
                      detail=anti_detail)
