import random
from fractions import Fraction

import pytest

from futakizero.catalog import load_catalog
from futakizero.polyring import AmbientSpace, MultiPoly, ParamField
from futakizero.symmetry import MonomialAutomorphism


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def random_fraction(rng, span=6, allow_zero=True):
    num = rng.randint(-span, span)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_ambient(rng):
    nfactors = rng.randint(1, 3)
    factors = []
    used = 0
    for f in range(nfactors):
        dim = rng.randint(1, 2)
        names = tuple(f"c{used + i}" for i in range(dim + 1))
        used += dim + 1
        factors.append(names)
    return AmbientSpace.product(*factors)


def random_multidegree(rng, ambient):
    return tuple(rng.randint(0, 2) for _ in range(ambient.nfactors))


def random_poly(rng, ambient, params=None, degree=None, max_terms=4):
    """Random multihomogeneous polynomial of the given (or random) degree."""
    params = params or ParamField()
    degree = degree if degree is not None else random_multidegree(rng, ambient)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = []
        for f in range(ambient.nfactors):
            block = list(ambient.block(f))
            part = [0] * len(block)
            for _ in range(degree[f]):
                part[rng.randrange(len(block))] += 1
            expo.extend(part)
        coeff = random_fraction(rng, allow_zero=False)
        key = tuple(expo)
        terms[key] = coeff
    return MultiPoly(ambient, params, terms)


def random_automorphism(rng, ambient, params=None):
    """Random monomial automorphism: factor bijection among equal-dimension
    factors, per-factor coordinate bijections, random nonzero scalars."""
    params = params or ParamField()
    dims = [d for d, _ in ambient.factors]
    by_dim = {}
    for f, d in enumerate(dims):
        by_dim.setdefault(d, []).append(f)
    source_of = [None] * len(dims)
    for group in by_dim.values():
        shuffled = group[:]
        rng.shuffle(shuffled)
        for img, src in zip(group, shuffled):
            source_of[img] = src
    perm = [None] * len(ambient.coords)
    for f in range(len(dims)):
        image_block = list(ambient.block(f))
        source_block = list(ambient.block(source_of[f]))
        rng.shuffle(source_block)
        for i, j in zip(image_block, source_block):
            perm[i] = j
    scalars = tuple(random_fraction(rng, allow_zero=False)
                    for _ in perm)
    return MonomialAutomorphism(ambient, tuple(perm), scalars, params)


def inverse_automorphism(tau):
    """The monomial automorphism undoing tau: x_perm[i] -> x_i / scalar_i."""
    inv = [0] * len(tau.perm)
    for i, j in enumerate(tau.perm):
        inv[j] = i
    scalars = tuple(1 / tau.scalars[inv[k]] for k in range(len(inv)))
    return MonomialAutomorphism(tau.ambient, tuple(inv), scalars, tau.params)


def matmul(a, b):
    """Product of two matrices given by their rows, as row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# polytope transforms, for the invariance checks of the toric engine
# ---------------------------------------------------------------------------

def halfspace_value(h, point):
    """<normal, point> of a Halfspace; ints times Fractions are exact."""
    return sum(n * x for n, x in zip(h.normal, point))


def translated(p, t):
    """The polytope p + t."""
    from futakizero.toric import Halfspace, Polytope
    t = [Fraction(x) for x in t]
    return Polytope.from_halfspaces(
        p.dim, [Halfspace(h.normal, h.offset + halfspace_value(h, t)) for h in p.halfspaces])


def scaled(p, k):
    """The polytope k p for a rational k > 0."""
    from futakizero.toric import Halfspace, Polytope
    k = Fraction(k)
    assert k > 0
    return Polytope.from_halfspaces(p.dim, [Halfspace(h.normal, h.offset * k)
                                            for h in p.halfspaces])


def inverse_transpose_int(u):
    """(U^-1)^T of an integer matrix U with |det U| = 1."""
    from futakizero.toric import _adjugate, _det
    det = _det(u)
    assert abs(det) == 1, "matrix is not unimodular"
    adj = _adjugate(u)
    # U^-1 = adj / det = det * adj, as det = +-1
    return [[det * row[i] for row in adj] for i in range(len(u))]


def unimodular_image(p, umatrix, t=None):
    """Image of p under x -> U x + t for an integer U with |det U| = 1."""
    from futakizero.toric import Halfspace, Polytope
    d = p.dim
    t = [Fraction(0)] * d if t is None else [Fraction(x) for x in t]
    u_inv_t = inverse_transpose_int(umatrix)
    hs = []
    for h in p.halfspaces:
        normal = tuple(sum(u_inv_t[i][j] * h.normal[j] for j in range(d)) for i in range(d))
        hs.append(Halfspace(normal, h.offset + sum(n * x for n, x in zip(normal, t))))
    return Polytope.from_halfspaces(d, hs)


def product_polytope(p, q):
    """P x Q, each factor's normals padded with zeros for the other's coordinates."""
    from futakizero.toric import Halfspace, Polytope, _product_rows
    rows = _product_rows([(h.normal, h.offset) for h in p.halfspaces],
                         [(h.normal, h.offset) for h in q.halfspaces])
    return Polytope.from_halfspaces(p.dim + q.dim, [Halfspace(n, c) for n, c in rows])
