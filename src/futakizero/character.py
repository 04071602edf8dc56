"""Futaki-character constraint systems and vanishing verdicts.

Per case: the H^{1,1} action of each finite symmetry (hyperplane labels
permuted by the factor bijection, exceptional labels by the center
permutation), the adjoint matrices on the torus generators, and the verdict
logic: for a subset S of symmetries fixing a class subspace Fix(S), the
character restricted to the torus lies in K_S = intersection of
ker(A_tau^T - I); K_S = 0 forces vanishing on Fix(S) inside the Kähler cone.
Semisimple summands contribute no unknowns (a character kills the derived
ideal).

``evaluate_record`` gives a catalog record its verdict by kind (symmetry
analysis, recorded adjoint and class actions, a semisimple algebra, a product
of factors with toric scans, or symmetry analysis audited by a toric scan) and
checks it against the record's expected verdict.  Both the symmetry analysis
and an abstract record's recorded actions reach ``vanishing_verdict``, which
computes the fixed-class dimension and the anticanonical membership.  A record
with a toric family also needs a zero Futaki vector at the family's
anticanonical parameters, which ``ToricFamily.anticanonical`` derives from the
fan.

``symmetry`` and ``ratlinalg`` load in the functions that use them, and
``products`` in ``evaluate_record`` for a product or cross-check record, so a
semisimple record compiles none of them and an abstract one ``ratlinalg``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class CharacterError(ValueError):
    pass


class SymmetryConstraint:
    __slots__ = ("name", "adjoint", "h11_matrix")

    def __init__(self, name, adjoint, h11_matrix):
        self.name = name
        self.adjoint = adjoint          # rows, AdjointUnsolvable, or None (rank 0)
        self.h11_matrix = h11_matrix    # permutation rows

    def usable(self):
        """Whether the adjoint was solved: rows (a tuple) or rank 0 (None),
        not an AdjointUnsolvable."""
        return self.adjoint is None or isinstance(self.adjoint, tuple)


class ConstraintSystem:
    __slots__ = ("torus_rank", "picard_rank", "constraints")

    def __init__(self, torus_rank, picard_rank, constraints):
        for c in constraints:
            if c.adjoint is not None and c.usable() and (len(c.adjoint) != torus_rank or any(
                    len(row) != torus_rank for row in c.adjoint)):
                raise CharacterError(f"adjoint matrix of {c.name} has the wrong size")
            if not _is_permutation(c.h11_matrix):
                raise CharacterError(f"H11 action of {c.name} is not a permutation matrix")
        self.torus_rank = torus_rank
        self.picard_rank = picard_rank  # one hyperplane class per factor, one per center
        self.constraints = constraints  # SymmetryConstraint per finite symmetry


def _is_permutation(rows):
    unit = [0] * (len(rows) - 1) + [1]
    return all(sorted(line) == unit for line in (*rows, *zip(*rows)))


def _permutation_matrix(images):
    """Rows of the matrix sending basis vector g to basis vector images[g]."""
    return tuple(tuple(int(image == r) for image in images) for r in range(len(images)))


def h11_action(tau, centers, stages=None):
    """Permutation matrix (rows) of tau^* on the H11 basis; raises
    CenterMatchError if the centers are not permuted."""
    from .symmetry import match_centers
    rho = match_centers([c for c in centers], tau, stages)
    nf = tau.ambient.nfactors
    images = list(tau.factor_map) + [None] * len(centers)   # tau^* h_g = h_{delta(g)}
    for i, j in enumerate(rho):
        images[nf + j] = nf + i                              # tau^* E_{rho(i)} = E_i
    return _permutation_matrix(images)


class FixedFamily:
    """A class subspace on which the character provably vanishes."""

    __slots__ = ("dim", "basis", "subset", "description")

    def __init__(self, dim, basis, subset, description=""):
        self.dim = dim
        self.basis = basis      # vectors in the H11 basis; () for product records
        self.subset = subset    # symmetry names used
        self.description = description


class Verdict:
    __slots__ = ("tag", "fixed_dim", "families", "certificate", "diagnostics",
                 "anticanonical_in_fixed")

    def __init__(self, tag, fixed_dim=None, families=(), certificate=None, diagnostics=(),
                 anticanonical_in_fixed=None):
        self.tag = tag          # full_cone | subcone | inconclusive
        self.fixed_dim = fixed_dim
        self.families = families
        self.certificate = certificate
        self.diagnostics = diagnostics
        self.anticanonical_in_fixed = anticanonical_in_fixed

    def is_full_cone(self):
        return self.tag == "full_cone"


def full_cone(certificate):
    return Verdict("full_cone", fixed_dim=None, families=(),
                   certificate=tuple(certificate), anticanonical_in_fixed=True)


def vanishing_verdict(system, anticanonical=None):
    """Verdict over all subsets of the case's finite symmetries.

    FullCone when some subset fixes all of H^{1,1} with trivial character
    kernel; otherwise the maximal vanishing subspaces; otherwise inconclusive
    with diagnostics.
    """
    from .ratlinalg import in_column_span
    diagnostics = [c.name + ": " + c.adjoint.describe()
                   for c in system.constraints if not c.usable()]
    usable = [c for c in system.constraints if c.usable()]
    rank = system.torus_rank
    picard = system.picard_rank
    vanishing = []
    names = [c.name for c in usable]
    for size in range(len(usable) + 1):
        for subset in combinations(range(len(usable)), size):
            chosen = [usable[i] for i in subset]
            if not _kernel_trivial(chosen, rank):
                continue
            fix_basis = _fixed_classes(chosen, picard)
            vanishing.append(FixedFamily(
                dim=len(fix_basis),
                basis=tuple(tuple(v) for v in fix_basis),
                subset=tuple(names[i] for i in subset)))
    if not vanishing:
        diagnostics.append("no symmetry subset kills the torus characters")
        return Verdict("inconclusive", diagnostics=tuple(diagnostics))
    best = max(f.dim for f in vanishing)
    maximal = _dedupe_families([f for f in vanishing if f.dim == best])
    if best == picard:
        certificate = min((f.subset for f in maximal), key=lambda s: (len(s), s))
        return Verdict("full_cone", fixed_dim=picard, families=tuple(maximal),
                       certificate=certificate, diagnostics=tuple(diagnostics),
                       anticanonical_in_fixed=True)
    contained = None
    if anticanonical is not None:
        contained = all(
            in_column_span([list(b) for b in f.basis], list(anticanonical)) is not None
            for f in maximal)
    certificate = min((f.subset for f in maximal), key=lambda s: (len(s), s))
    return Verdict("subcone", fixed_dim=best, families=tuple(maximal),
                   certificate=certificate, diagnostics=tuple(diagnostics),
                   anticanonical_in_fixed=contained)


def _kernel_trivial(chosen, rank):
    from .ratlinalg import kernel_basis, minus_identity
    if rank == 0:
        return True
    if not chosen:
        return False
    return not kernel_basis([row for c in chosen for row in minus_identity(zip(*c.adjoint))])


def _fixed_classes(chosen, picard):
    from .ratlinalg import kernel_basis, minus_identity
    rows = [row for c in chosen for row in minus_identity(c.h11_matrix)]
    return kernel_basis(rows or [(0,) * picard])


def _dedupe_families(families):
    seen = []
    out = []
    for f in sorted(families, key=lambda f: (len(f.subset), f.subset)):
        key = frozenset(f.basis)
        if key in seen:
            continue
        seen.append(key)
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# per-case analysis driver
# ---------------------------------------------------------------------------

class CaseAnalysis:
    __slots__ = ("system", "verdict", "adjoints")

    def __init__(self, system, verdict, adjoints):
        self.system = system
        self.verdict = verdict
        self.adjoints = adjoints    # per finite symmetry, constrained or not


def analyze_polynomial_case(record):
    """Run the invariance machinery and the verdict for a polynomial-style
    record (also used by the toric-crosscheck kind).  A symmetry whose
    variety check or center matching fails gives a diagnostic in place of a
    constraint."""
    from .symmetry import CenterMatchError, adjoint_matrix
    diagnostics = []
    adjoints = []
    constraints = []
    stages = [c.stage for c in record.centers]
    presentations = [c.presentation for c in record.centers]
    for (name, order, tau), inv in zip(record.finite, record.invariances()):
        notes = []
        if inv is not None and not inv.invariant:
            notes.append(f"variety check inconclusive: {inv.describe()}")
        try:
            h11_matrix = h11_action(tau, presentations, stages)
        except CenterMatchError as exc:
            notes.append(f"center matching failed at index {exc.index}")
        adjoint = adjoint_matrix(tau, list(record.torus)) if record.torus else None
        adjoints.append(adjoint)
        if notes:
            diagnostics.extend(f"{name}: {n}" for n in notes)
            continue
        constraints.append(SymmetryConstraint(name, adjoint, h11_matrix))
    system = ConstraintSystem(torus_rank=len(record.torus),
                              picard_rank=len(record.h11_labels),
                              constraints=tuple(constraints))
    verdict = vanishing_verdict(system, anticanonical=record.anticanonical)
    verdict.diagnostics = tuple(diagnostics) + verdict.diagnostics
    return CaseAnalysis(system, verdict, tuple(adjoints))


# ---------------------------------------------------------------------------
# record evaluation by kind
# ---------------------------------------------------------------------------

DEFAULT_SCAN_STEP = Fraction(1, 4)


class CaseResult:
    __slots__ = ("record", "verdict", "consistent", "audit", "detail")

    def __init__(self, record, verdict, consistent, audit="", detail=""):
        self.record = record
        self.verdict = verdict
        self.consistent = consistent
        self.audit = audit
        self.detail = detail


def evaluate_record(record):
    """Full evaluation of one catalog record, including toric cross-checks."""
    if record.kind == "product":
        from .products import _evaluate_product
        return _evaluate_product(record)
    if record.kind == "toric-crosscheck":
        from .products import _evaluate_crosscheck
        return _evaluate_crosscheck(record)
    if record.kind == "polynomial":
        verdict = analyze_polynomial_case(record).verdict
    elif record.kind == "abstract":
        system = ConstraintSystem(
            torus_rank=len(record.adjoints[0][1]), picard_rank=len(record.h11_labels),
            constraints=tuple(SymmetryConstraint(name, rows, _permutation_matrix(classes))
                              for name, rows, classes in record.adjoints))
        verdict = vanishing_verdict(system, anticanonical=record.anticanonical)
    else:   # the kind left: a semisimple symmetry algebra, which every character kills
        verdict = full_cone(("semisimple",))
    return CaseResult(record, verdict, _plain_consistent(record, verdict))


def _plain_consistent(record, verdict):
    if record.expected == ("full_cone",):
        return verdict.tag == "full_cone"
    if record.expected[0] == "subcone":
        return (verdict.tag == "subcone"
                and verdict.fixed_dim == record.expected[1]
                and verdict.anticanonical_in_fixed is True)
    return False


# ---------------------------------------------------------------------------
# verdict serialization (line records and JSON-lines)
# ---------------------------------------------------------------------------

def verdict_line(case_id, verdict, audit=None):
    dim = "-" if verdict.fixed_dim is None else str(verdict.fixed_dim)
    cert = "+".join(verdict.certificate) if verdict.certificate else "-"
    line = f"case={case_id} verdict={verdict.tag} fixed_dim={dim} certificate={cert}"
    if audit:
        line += f" audit={audit}"
    return line


def verdict_json_fields(case_id, verdict, audit=None):
    """Stable key order for the JSON-lines stream."""
    return [
        ("case", case_id),
        ("verdict", verdict.tag),
        ("fixed_dim", verdict.fixed_dim),
        ("certificate", list(verdict.certificate) if verdict.certificate else None),
        ("families", [{"dim": f.dim, "subset": list(f.subset),
                       "description": f.description} for f in verdict.families]),
        ("anticanonical_in_fixed", verdict.anticanonical_in_fixed),
        ("diagnostics", list(verdict.diagnostics)),
        ("audit", audit),
    ]
