"""Projective symmetries, torus actions and their interaction.

A MonomialAutomorphism is a generalized permutation map tau(x)_i =
c_i * x_{sigma(i)} together with the factor bijection it induces; a
TorusGenerator is an integer weight vector modulo one constant per factor.
The checks here mechanize the invariance hypotheses (variety, blow-up
centers, curve parametrizations) and the adjoint action on torus generators;
``curves`` holds the curve parametrizations, loaded for a curve center only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .polyring import MultiPoly, in_span, parse_poly
from .ratlinalg import kernel_basis, solve_generic


class SymmetryError(ValueError):
    pass


class CenterMatchError(SymmetryError):
    """A symmetry fails to permute the blow-up centers."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class TorusGenerator:
    """Integer weight per homogeneous coordinate, canonicalized so the first
    coordinate of each factor has weight zero."""

    __slots__ = ("ambient", "weights")

    def __init__(self, ambient, weights):
        if len(weights) != len(ambient.coords):
            raise SymmetryError("one weight per homogeneous coordinate required")
        self.ambient = ambient
        self.weights = tuple(int(w) for w in weights)

    def canonical(self):
        out = list(self.weights)
        for f in range(self.ambient.nfactors):
            block = list(self.ambient.block(f))
            base = out[block[0]]
            for i in block:
                out[i] -= base
        return tuple(out)

    def permuted(self, automorphism):
        """Weight vector of Ad_tau(v): coordinate i takes weight w[sigma(i)]."""
        return tuple(self.weights[automorphism.perm[i]]
                     for i in range(len(self.weights)))

    def monomial_weight(self, expo):
        return sum(w * k for w, k in zip(self.weights, expo))


class MonomialAutomorphism:
    """tau(x)_i = scalars[i] * x_{perm[i]}; factor_map[f] is the source factor
    feeding image factor f."""

    __slots__ = ("ambient", "perm", "scalars", "params")

    def __init__(self, ambient, perm, scalars, params):
        n = len(ambient.coords)
        if sorted(perm) != list(range(n)):
            raise SymmetryError("coordinate map is not a bijection")
        if len(scalars) != n:
            raise SymmetryError("one scalar per coordinate required")
        if any(c == 0 for c in scalars):
            raise SymmetryError("zero scalar in monomial automorphism")
        for f in range(ambient.nfactors):
            sources = {ambient.factor_of(perm[i]) for i in ambient.block(f)}
            if len(sources) != 1:
                raise SymmetryError(f"image factor {f} mixes source factors")
            src = sources.pop()
            if ambient.factors[f][0] != ambient.factors[src][0]:
                raise SymmetryError("factor bijection must preserve dimensions")
        self.ambient = ambient
        self.perm = perm
        self.scalars = scalars
        self.params = params

    @classmethod
    def from_images(cls, images, ambient, params):
        """Build from the image expression of each coordinate in ambient
        order; every image must be scalar * single coordinate."""
        if len(images) != len(ambient.coords):
            raise SymmetryError("one image per coordinate required")
        perm = []
        scalars = []
        for text in images:
            p = text if isinstance(text, MultiPoly) else parse_poly(text, ambient, params)
            if len(p.terms) != 1:
                raise SymmetryError(f"image {text!r} is not a monomial")
            expo, coeff = next(iter(p.terms.items()))
            if sum(expo) != 1:
                raise SymmetryError(f"image {text!r} is not a single coordinate")
            perm.append(expo.index(1))
            scalars.append(coeff)
        return cls(ambient, tuple(perm), tuple(scalars), params)

    @property
    def factor_map(self):
        return tuple(self.ambient.factor_of(self.perm[next(iter(self.ambient.block(f)))])
                     for f in range(self.ambient.nfactors))

    def pullback(self, p):
        """p o tau in canonical form (ring homomorphism substitution)."""
        if p.ambient != self.ambient:
            raise SymmetryError("ambient mismatch in pullback")
        terms = {}
        for e, c in p.terms.items():
            new_e = [0] * len(e)
            coeff = c
            for j, k in enumerate(e):
                if k == 0:
                    continue
                new_e[self.perm[j]] += k
                for _ in range(k):
                    coeff = coeff * self.scalars[j]
            key = tuple(new_e)
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly(p.ambient, p.params, terms)

    def compose(self, other):
        """Map x -> self(other(x))."""
        if self.ambient != other.ambient:
            raise SymmetryError("ambient mismatch in composition")
        perm = tuple(other.perm[self.perm[i]] for i in range(len(self.perm)))
        scalars = tuple(self.scalars[i] * other.scalars[self.perm[i]]
                        for i in range(len(self.perm)))
        return MonomialAutomorphism(self.ambient, perm, scalars, self.params)

    def is_projective_identity(self):
        """Identity as a projective map: per-factor scalar, no permutation.

        Tested by cross multiplication, never by normalizing a coordinate.
        """
        if any(self.perm[i] != i for i in range(len(self.perm))):
            return False
        for f in range(self.ambient.nfactors):
            block = list(self.ambient.block(f))
            c0 = self.scalars[block[0]]
            for i in block[1:]:
                # c_i * x_i * (c_0 x_0) == c_0 * x_0 * (c_i x_i) reduces to c_i == c_0
                if self.scalars[i] != c0:
                    return False
        return True

    def order_divides(self, n):
        """Whether tau^n is the projective identity, n >= 1: tau^m is diagonal
        for m the order of the permutation, and squares to the identity if it
        has finite order, as +-1 are the only roots of unity in Q(params).  So
        tau^n is the identity exactly when tau^gcd(n, 2m) is."""
        m, perm = 1, self.perm
        while perm != tuple(range(len(perm))):
            m, perm = m + 1, tuple(self.perm[j] for j in perm)
        power = self
        for _ in range(gcd(n, 2 * m) - 1):
            power = power.compose(self)
        return power.is_projective_identity()


# ---------------------------------------------------------------------------
# subvariety presentations
# ---------------------------------------------------------------------------

class SubvarietyPresentation:
    """Blow-up center: ideal generators, a P^1 parametrization, or both.

    When both are present, invariance checks use the curve side (the listed
    ideal generators may cut extra components, so their span need not be
    stable even when the center is); the ideal is used for cross-validation.
    """

    __slots__ = ("ideal", "curve")

    def __init__(self, ideal=(), curve=None):
        if not ideal and curve is None:
            raise SymmetryError("empty presentation")
        self.ideal = ideal
        self.curve = curve

    def kind(self):
        if self.curve is not None and self.ideal:
            return "both"
        return "curve" if self.curve is not None else "ideal"


class InvarianceResult:
    __slots__ = ("invariant", "matrix", "denominators", "failing_index")

    def __init__(self, invariant, matrix, denominators, failing_index=None):
        self.invariant = invariant
        self.matrix = matrix      # rows: in_span coefficient vectors over Q(params)
        # the non-constant denominators of the matrix entries, each once: the
        # invariance holds wherever none of them vanishes
        self.denominators = denominators
        self.failing_index = failing_index

    def describe(self):
        if self.invariant:
            return "invariant"
        return f"inconclusive (generator {self.failing_index} left the span)"


def check_variety_invariant(gens, tau):
    """Invariant iff each pullback stays in the Q(params)-span of gens.

    A failed span check is inconclusive, never a proof of non-invariance.
    """
    solutions = in_span([tau.pullback(g) for g in gens], gens)
    if None in solutions:
        return InvarianceResult(False, (), (), failing_index=solutions.index(None))
    denominators = dict.fromkeys(d for sol in solutions for d in sol.denominators)
    return InvarianceResult(True, tuple(sol.coefficients for sol in solutions),
                            tuple(denominators))


def match_centers(centers, tau, stages=None):
    """Permutation rho with pullback of center rho(i) matching center i.

    Matching never crosses blow-up stages.  An unmatched center raises
    CenterMatchError carrying the offending index.
    """
    n = len(centers)
    if stages is None:
        stages = [1] * n
    rho = [None] * n
    used = set()
    for i, center in enumerate(centers):
        hit = None
        for j in range(n):
            if j in used or stages[i] != stages[j]:
                continue
            if _presentations_match(center, centers[j], tau):
                hit = j
                break
        if hit is None:
            raise CenterMatchError(i, f"center {i} is not matched by the symmetry")
        rho[i] = hit
        used.add(hit)
    return tuple(rho)


def _presentations_match(target_i, source_j, tau):
    """True iff tau maps center i onto center j (pullback of j matches i)."""
    if target_i.kind() in ("curve", "both") and source_j.kind() in ("curve", "both"):
        from .curves import check_curve_match
        return check_curve_match(target_i.curve, source_j.curve, tau) is not None
    if target_i.kind() == "ideal" and source_j.kind() == "ideal":
        pulled = [tau.pullback(g) for g in source_j.ideal]
        return (None not in in_span(pulled, target_i.ideal)
                and None not in in_span(target_i.ideal, pulled))
    return False


def torus_eigencheck(target, v):
    """Why the torus generator v does not act diagonally on ``target``, or
    None when it does: ideal generators must be weight eigenvectors; curve
    coordinate weights must be an affine function of the (r, s)-bidegree."""
    if not isinstance(target, (list, tuple)):       # a curves.ParamCurve
        from .curves import _curve_eigencheck
        return _curve_eigencheck(target, v)
    for idx, g in enumerate(target):
        weights = {v.monomial_weight(e) for e in g.terms}
        if len(weights) > 1:
            pair = sorted(g.terms)[:2]
            return (f"generator {idx} mixes weights {sorted(weights)} "
                    f"(monomials {pair[0]} vs {pair[-1]})")
    return None


class AdjointUnsolvable:
    """tau does not normalize the chosen torus complement; carries the first
    generator whose permuted weights leave the span."""

    __slots__ = ("generator_index", "permuted_weights")

    def __init__(self, generator_index, permuted_weights):
        self.generator_index = generator_index
        self.permuted_weights = permuted_weights

    def describe(self):
        return (f"adjoint solve failed: permuted weights {self.permuted_weights} of "
                f"generator {self.generator_index} are not in the torus span modulo "
                f"per-factor constants")


def adjoint_matrix(tau, torus):
    """Rows of A with Ad_tau(v_j) = sum_i A[i][j] v_i, solved over Q modulo
    one constant per factor; the scalars of tau provably play no role.

    One elimination checks that the canonical generators are independent,
    and one solves for all of their permuted images."""
    if not torus:
        return ()
    basis = [[Fraction(w) for w in weights] for weights in zip(*(v.canonical() for v in torus))]
    if kernel_basis(basis):
        raise SymmetryError("torus generators dependent modulo per-factor constants")
    permuted = [TorusGenerator(v.ambient, v.permuted(tau)).canonical() for v in torus]
    columns = solve_generic(basis, [[Fraction(w) for w in p] for p in permuted])
    for j, column in enumerate(columns):
        if column is None:
            return AdjointUnsolvable(j, permuted[j])
    return tuple(zip(*columns))
