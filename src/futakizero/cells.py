"""Futaki numerators of a toric family on one combinatorial cell, over Q[params].

A cell is the set of parameter values at which the vertices of the family's
polytope lie on the same facets.  On a cell each vertex is the solution of a
fixed set of facet equations whose offsets are affine in the parameters, so
the vertices are affine and every integral of ``toric`` is a polynomial.  The
integral routes of ``toric`` run unchanged on these polynomial coordinates;
the only decisions they take, absolute values, read the sign at the cell's
sample point.

``toric.zero_locus_scan`` imports this module on its first cell, so that
``import futakizero.toric`` alone loads no symbolic engine; the CLI imports
it up front with the other engines.
"""

from __future__ import annotations

from . import toric
from .parampoly import PPoly


class _SymbolicFacet:
    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        self.normal = normal
        self.offset = offset        # PPoly


class _CellPolytope(toric.Polytope):
    """The polytopes of one cell, with PPoly vertex coordinates and offsets,
    labelled and ordered as at the sample point; every sign is read there."""

    __slots__ = ("sample",)

    def __init__(self, dim, facets, vertices, facet_cycles, sample):
        super().__init__(dim, facets, vertices, facet_cycles)
        self.sample = sample

    def magnitude(self, x):
        return -x if x.evaluate(self.sample) < 0 else x


def numerators(fam, polytope, tight, params, scan_names):
    """N_i = sigma-moment_i * volume - moment_i * sigma-mass over Q[scan_names]
    on the cell of ``polytope``, the cell's sample, built at ``params`` with
    ``tight`` the facets tight at each of its vertices.

    Each vertex is solved, with the integer adjugate of a nonsingular subset
    of its tight facets, against the affine offsets; pinned parameters enter
    as constants.  Both route pairs must agree as polynomials, and the
    numerators must agree with the numeric Futaki vector at the sample.

    None when a vertex's other tight facets are not tight identically in the
    parameters: the cell is then a slice of parameter space (such as c = 4
    for a box cut by x + y + z <= c through its edge), where no polynomial
    identity holds, and each of its points is tested numerically."""
    names = tuple(scan_names)
    zero = PPoly.zero(names)
    symbols = {n: PPoly.var(names, n) if n in names else params[n] for n in fam.param_names}
    offsets = fam.offsets(symbols)
    normals = tuple(h.normal for h in polytope.halfspaces)
    solves = toric._subset_solves(polytope.dim, normals)
    vertices = []
    for on in tight:
        combo, det, adj = next(s for s in solves if s[1] and on.issuperset(s[0]))
        rhs = [offsets[f] for f in combo]
        vertex = tuple(sum((a * b for a, b in zip(row, rhs)), zero) / det for row in adj)
        for f in on.difference(combo):
            if not (sum((n * x for n, x in zip(normals[f], vertex)), zero) - offsets[f]).is_zero():
                return None
        vertices.append(vertex)
    sample = {n: params[n] for n in names}
    cell = _CellPolytope(polytope.dim, [_SymbolicFacet(n, c) for n, c in zip(normals, offsets)],
                         vertices, polytope.facet_cycles, sample)
    vol, mom, mass, smoment = toric._integral_data(cell)
    result = tuple(s * vol - m * mass for s, m in zip(smoment, mom))
    numeric = toric.futaki_vector(polytope).components
    num_vol, _, num_mass, _ = toric._integral_data(polytope)
    if any(n.evaluate(sample) != c * num_vol * num_mass for n, c in zip(result, numeric)):
        raise toric.ToricError(f"cell numerators of {fam.name} disagree with the numeric "
                               f"Futaki vector at {sample}")
    return result
