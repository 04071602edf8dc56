"""Curve centres: maps P^1 -> ambient, the reparametrization that matches
one with its image under a symmetry, and the torus eigencheck of a curve.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import AmbientSpace, MultiPoly, parse_poly
from .ratlinalg import solve_generic
from .symmetry import SymmetryError

CURVE_AMBIENT = AmbientSpace.product(("r", "s"))


class ParamCurve:
    """Map P^1 -> ambient given per coordinate by a homogeneous polynomial in
    (r, s); coordinates within a factor share their (r, s)-degree."""

    __slots__ = ("ambient", "params", "coords")

    def __init__(self, ambient, params, coords):
        if len(coords) != len(ambient.coords):
            raise SymmetryError("curve needs one component per ambient coordinate")
        for f in range(ambient.nfactors):
            degrees = {coords[i].multidegree()[0]
                       for i in ambient.block(f) if not coords[i].is_zero()}
            if not degrees:
                raise SymmetryError(f"curve is identically zero on factor {f}")
            if len(degrees) != 1:
                raise SymmetryError(f"mixed (r,s)-degrees on factor {f}")
        self.ambient = ambient
        self.params = params
        self.coords = coords  # MultiPoly over CURVE_AMBIENT

    @classmethod
    def from_texts(cls, texts, ambient, params):
        coords = tuple(parse_poly(t, CURVE_AMBIENT, params) for t in texts)
        return cls(ambient, params, coords)

    def substituted(self, p):
        """Value of the ambient polynomial p along the curve."""
        return p.substitute(list(self.coords))

    def reparametrized(self, rep):
        r = MultiPoly.coordinate(CURVE_AMBIENT, self.params, "r")
        s = MultiPoly.coordinate(CURVE_AMBIENT, self.params, "s")
        gamma = Fraction(rep.gamma)
        if rep.swap:
            images = [s, r.scale(gamma)]
        else:
            images = [r, s.scale(gamma)]
        return ParamCurve(self.ambient, self.params,
                          tuple(c.substitute(images) for c in self.coords))

    def transformed(self, tau):
        """tau o phi as a ParamCurve."""
        return ParamCurve(self.ambient, self.params,
                          tuple(self.coords[tau.perm[i]].scale(tau.scalars[i])
                                for i in range(len(self.coords))))


class Reparam:
    """[r:s] -> [r : gamma s], composed with the swap when flagged."""

    __slots__ = ("swap", "gamma")

    def __init__(self, swap, gamma):
        self.swap = swap
        self.gamma = gamma

    def __eq__(self, other):
        if not isinstance(other, Reparam):
            return NotImplemented
        return self.swap == other.swap and self.gamma == other.gamma


class Equivariance:
    __slots__ = ("reparam", "factor_scalars")

    def __init__(self, reparam, factor_scalars):
        self.reparam = reparam
        self.factor_scalars = factor_scalars  # Q(params) scalar per ambient factor


def check_curve_match(source, target, tau):
    """Find psi with tau o source = target o psi projectively, or None.

    The search family is {identity, swap} composed with one diagonal scaling
    [r:s] -> [r:gamma s]; gamma is solved for exactly.
    """
    moved = source.transformed(tau)
    for swap in (False, True):
        found = _match_with_form(moved, target, swap)
        if found is not None:
            return found
    return None


def _match_with_form(moved, target, swap):
    ambient = target.ambient
    params = target.params
    constraints = []  # (gamma exponent, Q(params) ratio)
    for f in range(ambient.nfactors):
        block = list(ambient.block(f))
        base = None
        for i in block:
            lhs = moved.coords[i]
            rhs = target.coords[i]
            lhs_support = set(lhs.terms)
            rhs_support = {_form_image(e, swap) for e in rhs.terms}
            if lhs_support != rhs_support:
                return None
            for e_rhs, c_rhs in rhs.terms.items():
                e_lhs = _form_image(e_rhs, swap)
                # both reparametrization forms feed gamma to the curve's s-slot
                expo = e_rhs[1]
                ratio = lhs.terms[e_lhs] / c_rhs
                if base is None:
                    base = (expo, ratio)
                else:
                    constraints.append((expo - base[0], ratio / base[1]))
        if base is None:
            return None
    candidates = _gamma_candidates(constraints)
    for gamma in candidates:
        rep = Reparam(swap, gamma)
        scalars = _verify_proportional(moved, target, rep)
        if scalars is not None:
            return Equivariance(rep, tuple(scalars))
    return None


def _form_image(e, swap):
    a, b = e
    return (b, a) if swap else (a, b)


def _gamma_candidates(constraints):
    fixed = []
    for d, ratio in constraints:
        if d == 0:
            if ratio != 1:
                return []
        else:
            if not isinstance(ratio, Fraction):
                return []
            fixed.append((d, ratio))
    if not fixed:
        return [Fraction(1)]
    d, q = fixed[0]
    roots = _rational_power_roots(q, d)
    return [g for g in roots
            if all(g ** dd == qq for dd, qq in fixed)]


def _rational_power_roots(q, d):
    """All rational gamma with gamma^d = q."""
    if d < 0:
        if q == 0:
            return []
        q, d = 1 / q, -d
    if q == 0:
        return []
    sign = 1 if q > 0 else -1
    num = _perfect_root(abs(q.numerator), d)
    den = _perfect_root(abs(q.denominator), d)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if sign > 0:
        return [root, -root] if d % 2 == 0 else [root]
    return [] if d % 2 == 0 else [-root]


def _perfect_root(n, d):
    if n == 0:
        return 0
    lo, hi = 0, 1
    while hi ** d < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** d < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** d == n else None


def _verify_proportional(moved, target, rep):
    """Exact per-factor proportionality of moved vs target o rep, by cross
    multiplication; returns the factor scalars or None."""
    composed = target.reparametrized(rep)
    scalars = []
    for f in range(target.ambient.nfactors):
        block = list(target.ambient.block(f))
        scalar = None
        for i in block:
            lhs = moved.coords[i]
            rhs = composed.coords[i]
            if lhs.is_zero() != rhs.is_zero():
                return None
            if lhs.is_zero():
                continue
            if scalar is None:
                e = next(iter(rhs.terms))
                if e not in lhs.terms:
                    return None
                scalar = lhs.terms[e] / rhs.terms[e]
        if scalar is None:
            return None
        for i in block:
            lhs = moved.coords[i]
            if not (lhs - composed.coords[i].scale(scalar)).is_zero():
                return None
        scalars.append(scalar)
    return scalars


def _curve_eigencheck(curve, v):
    ambient = curve.ambient
    nf = ambient.nfactors
    rows = []
    rhs = []
    for f in range(nf):
        for i in ambient.block(f):
            c = curve.coords[i]
            if c.is_zero():
                continue
            for (er, es) in c.terms:
                row = [Fraction(er), Fraction(es)] + [Fraction(int(g == f)) for g in range(nf)]
                rows.append(row)
                rhs.append(Fraction(v.weights[i]))
    if solve_generic(rows, [rhs])[0] is None:
        return "weights are not affine in the (r,s)-bidegree"
    return None
