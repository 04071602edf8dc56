"""Exact toric Futaki computation on moment polytopes.

Halfspace representations with primitive integer outer normals, exact
vertex/volume/moment computation, the lattice-normalized boundary measure
(dmu = dsigma ^ d<u,.>, computed with lattice determinants only, no
radicals), the Donaldson-type functional L(f), Futaki vectors, the toric
catalog families declared as affine halfspace rows, and zero-locus scans.

Every integral is evaluated along two independent routes and the public
operations insist the routes agree exactly: the solid integrals by base-vertex
triangulation vs divergence theorem over the boundary data, in every
dimension; the boundary measures by facet fans from a vertex vs from the
centroid in dimension 3 only, as a facet point or edge has one measure.  The
routes are written once, over Fractions or over polynomials in the family
parameters.

Scans group grid points by combinatorial cell.  On a cell the vertices are
affine in the parameters, so the Futaki numerators are polynomials, derived
once per cell (both routes must agree symbolically, and numerically with the
Fraction routes at the cell's sample point) and evaluated at every point.
The Kähler region is cut out by affine circuit forms, and a point inside a
known cell's chamber, cut out by affine slack inequalities, is decided
without building its polytope (module ``cells``).

Construction runs on integers: each vertex is solved, tested, keyed and
sorted as an integer point over one common denominator, the affine rank is
one fraction-free (Bareiss) elimination, 3-D facet polygons are walked by
vertex-facet incidence, and determinants are closed forms on cross products;
Fractions are built once per distinct vertex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul


class ToricError(ValueError):
    pass


class UnboundedError(ToricError):
    pass


class DegenerateError(ToricError):
    pass


class KahlerRegionError(ToricError):
    """Class parameters outside the Kähler region: a facet degenerates."""


class Halfspace:
    """<normal, x> <= offset with a primitive integer normal."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        normal = tuple(n if type(n) is int else _integer_entry(n) for n in normal)
        g = gcd(*normal)
        if g == 0:
            raise ToricError("zero normal")
        if g != 1:
            raise ToricError(f"normal {normal} is not primitive")
        self.normal = normal
        self.offset = Fraction(offset)

    @classmethod
    def _checked(cls, normal, offset):
        """The halfspace of a normal that a Halfspace already checked (a
        family row's) and a Fraction offset, without checking them again."""
        h = object.__new__(cls)
        h.normal = normal
        h.offset = offset
        return h

    def __eq__(self, other):
        if not isinstance(other, Halfspace):
            return NotImplemented
        return self.normal == other.normal and self.offset == other.offset

    def value(self, point):
        # normals are ints and points Fractions; int*Fraction is exact
        return sum(n * x for n, x in zip(self.normal, point))

    def render(self):
        nums = " ".join(str(n) for n in self.normal)
        return f"{nums} <= {self.offset}"


def _integer_entry(n):
    try:
        q = Fraction(n)
        if q.denominator == 1:
            return q.numerator
    except (TypeError, ValueError, OverflowError):
        pass
    raise ToricError(f"normal entry {n} is not an integer")


class Polytope:
    """Bounded full-dimensional polytope in dimension 1, 2 or 3."""

    __slots__ = ("dim", "halfspaces", "vertices", "facet_cycles", "_cache")

    def __init__(self, dim, halfspaces, vertices, facet_cycles):
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self.vertices = tuple(vertices)
        self.facet_cycles = tuple(facet_cycles)
        self._cache = {}

    @classmethod
    def from_halfspaces(cls, dim, halfspaces):
        if dim not in (1, 2, 3):
            raise ToricError("only dimensions 1..3 are supported")
        halfspaces = [h if isinstance(h, Halfspace) else Halfspace(*h) for h in halfspaces]
        normals = tuple(h.normal for h in halfspaces)
        if any(len(n) != dim for n in normals):
            raise ToricError("dimension mismatch")
        if len(set(normals)) != len(halfspaces):
            raise ToricError("repeated facet normal")
        reason = _unbounded_reason(dim, normals)
        if reason:
            raise UnboundedError(reason)
        vertices, points, tight = _enumerate_vertices(dim, halfspaces)
        if not vertices:
            raise DegenerateError("no vertices: empty or degenerate halfspace system")
        if _affine_rank(points) != dim:
            raise DegenerateError("lower-dimensional input")
        cycles = _facet_cycles(dim, halfspaces, points, tight)
        return cls(dim, halfspaces, vertices, cycles)

    # the integral routes take absolute values through this; a symbolic cell
    # reads the sign at its sample point instead
    magnitude = staticmethod(abs)

    def facet_vertices(self, f):
        return [self.vertices[i] for i in self.facet_cycles[f]]

    def translated(self, t):
        t = [Fraction(x) for x in t]
        hs = [Halfspace(h.normal, h.offset + sum(Fraction(n) * x for n, x in zip(h.normal, t)))
              for h in self.halfspaces]
        return Polytope.from_halfspaces(self.dim, hs)

    def unimodular_image(self, umatrix, t=None):
        """Image under x -> U x + t for an integer U with |det U| = 1."""
        d = self.dim
        if t is None:
            t = [Fraction(0)] * d
        u_inv_t = _inverse_transpose_int(umatrix)
        hs = []
        for h in self.halfspaces:
            normal = tuple(sum(u_inv_t[i][j] * h.normal[j] for j in range(d)) for i in range(d))
            shift = sum(Fraction(n) * Fraction(x) for n, x in zip(normal, t))
            hs.append(Halfspace(normal, h.offset + shift))
        return Polytope.from_halfspaces(d, hs)

    def scaled(self, k):
        k = Fraction(k)
        if k <= 0:
            raise ToricError("scale factor must be positive")
        return Polytope.from_halfspaces(
            self.dim, [Halfspace(h.normal, h.offset * k) for h in self.halfspaces])

    def render(self):
        return "\n".join(h.render() for h in self.halfspaces) + "\n"


def parse_polytope_text(text, dim=None):
    """One halfspace per line: ``n1 n2 [n3] <= c``; ``#`` comments allowed."""
    halfspaces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" not in line:
            raise ToricError(f"line {lineno}: missing '<='")
        lhs, _, rhs = line.partition("<=")
        try:
            normal = tuple(int(tok) for tok in lhs.split())
            offset = Fraction(rhs.strip())
        except (ValueError, ZeroDivisionError):
            raise ToricError(f"line {lineno}: expected integers '<=' a rational number, "
                             f"got {line!r}") from None
        try:
            halfspaces.append(Halfspace(normal, offset))
        except ToricError as exc:
            raise ToricError(f"line {lineno}: {exc}") from None
    if not halfspaces:
        raise ToricError("no halfspaces")
    dims = {len(h.normal) for h in halfspaces}
    if len(dims) != 1:
        raise ToricError("inconsistent dimensions")
    d = dims.pop()
    if dim is not None and dim != d:
        raise ToricError("dimension mismatch")
    return Polytope.from_halfspaces(d, halfspaces)


# ---------------------------------------------------------------------------
# construction internals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _unbounded_reason(dim, normals):
    """Why the normals admit a recession direction, or None if they do not.

    Depends on the normals only, so it is memoised on them."""
    candidates = []
    if dim == 1:
        candidates = [(1,), (-1,)]
    elif not any(det for _, det, _ in _subset_solves(dim, normals)):
        return "normals do not span the space"
    elif dim == 2:
        for n in normals:
            candidates.append((-n[1], n[0]))
            candidates.append((n[1], -n[0]))
    else:
        for a, b in combinations(normals, 2):
            c = _cross(a, b)
            if any(c):
                candidates.append(tuple(c))
                candidates.append(tuple(-x for x in c))
    for ray in candidates:
        if all(sum(n * r for n, r in zip(normal, ray)) <= 0 for normal in normals):
            return f"recession direction {ray}"
    return None


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


@lru_cache(maxsize=64)
def _subset_solves(dim, normals):
    """(subset, det, adjugate) for every dim-subset of the integer normals,
    the sign folded so that det >= 0; singular subsets have det 0."""
    out = []
    for combo in combinations(range(len(normals)), dim):
        rows = [normals[i] for i in combo]
        det = _det(rows)
        sign = -1 if det < 0 else 1
        out.append((combo, sign * det,
                    tuple(tuple(sign * x for x in row) for row in _adjugate(rows))))
    return tuple(out)


@lru_cache(maxsize=64)
def _vertex_solves(dim, normals):
    """(L, ((subset, A), ...)) over the nonsingular dim-subsets of the integer
    normals: L is the lcm of their determinants and A = (L / det) adj, so the
    subset's vertex against integer offsets b is A b / L."""
    solves = [s for s in _subset_solves(dim, normals) if s[1]]
    common = lcm(*(det for _, det, _ in solves))
    return common, tuple((combo, tuple(tuple(common // det * x for x in row) for row in adj))
                         for combo, det, adj in solves)


def _enumerate_vertices(dim, halfspaces):
    """(sorted vertices, the same as integer points over one denominator, the
    facets tight at each).  With offsets scaled to integers b by the lcm s of
    their denominators, a subset's vertex is k = A b (``_vertex_solves``) over
    L s, and facet (n, b_f) holds at it exactly when b_f L - <n, k> >= 0."""
    scale = 1
    for h in halfspaces:
        scale = lcm(scale, h.offset.denominator)
    normals = tuple(h.normal for h in halfspaces)
    offsets = [h.offset.numerator * (scale // h.offset.denominator) for h in halfspaces]
    common, solves = _vertex_solves(dim, normals)
    bounds = [(normal, offset * common) for normal, offset in zip(normals, offsets)]
    seen = {}   # integer point -> tight facets, or None when infeasible
    for combo, adj in solves:
        rhs = [offsets[i] for i in combo]
        point = tuple(sum(map(mul, row, rhs)) for row in adj)
        if point in seen:
            continue
        tight = []
        for f, (normal, bound) in enumerate(bounds):
            slack = bound - sum(map(mul, normal, point))
            if slack < 0:
                tight = None
                break
            if slack == 0:
                tight.append(f)
        seen[point] = tight
    points = sorted(p for p, tight in seen.items() if tight is not None)
    denom = common * scale
    vertices = [tuple(Fraction(x, denom) for x in p) for p in points]
    return vertices, points, [seen[p] for p in points]


def _affine_rank(points):
    """Affine rank of integer points: fraction-free (Bareiss) elimination of
    their differences from the first, each division exact."""
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    rank, previous = 0, 1
    for c in range(len(base)):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            for j in range(c + 1, len(base)):
                r[j] = (pivot[c] * r[j] - r[c] * pivot[j]) // previous
        previous = pivot[c]
        rank += 1
    return rank


def _facet_cycles(dim, halfspaces, points, tight):
    """Vertex indices of each facet; in dimension 3 in cyclic order,
    counterclockwise seen from outside and starting at the lowest index.

    ``points`` are the vertices as integer points over one denominator,
    ``tight`` the facets tight at each.  No three vertices of P are
    collinear, so a facet supports a (dim-1)-face exactly when it holds dim
    vertices or more, and in dimension 3 its vertices are a convex polygon's.
    Two of them are neighbours exactly when another facet is tight at both:
    the two facets (distinct primitive normals, so distinct planes) meet in
    the edge between them, and every edge lies on two facets.  That holds at
    non-simple vertices too, so the polygon is walked along it and one
    orientation test picks the direction."""
    incidence = [[] for _ in halfspaces]
    for i, facets in enumerate(tight):
        for f in facets:
            incidence[f].append(i)
    cycles = []
    for f, incident in enumerate(incidence):
        if len(incident) < dim:
            face = ("a point", "an edge", "a 2-face")[dim - 1]
            raise DegenerateError(f"facet {f} does not support {face}")
        if dim < 3:
            cycles.append(tuple(incident))
            continue
        neighbours = {v: {w for g in tight[v] if g != f for w in incidence[g]
                          if w != v and f in tight[w]} for v in incident}
        start = incident[0]
        a, b = neighbours[start]
        base = points[start]
        turn = _cross([x - y for x, y in zip(points[a], base)],
                      [x - y for x, y in zip(points[b], base)])
        cycle = [start, a if sum(map(mul, halfspaces[f].normal, turn)) > 0 else b]
        for _ in range(len(incident) - 2):
            x, y = neighbours[cycle[-1]]
            cycle.append(y if x == cycle[-2] else x)
        cycles.append(tuple(cycle))
    return cycles


def _inverse_transpose_int(u):
    det = _det(u)
    if abs(det) != 1:
        raise ToricError("matrix is not unimodular")
    adj = _adjugate(u)
    # U^-1 = adj / det = det * adj, as det = +-1
    return [[det * row[i] for row in adj] for i in range(len(u))]


def _det(u):
    """Determinant of a 1x1, 2x2 or 3x3 matrix in closed form; entries are
    ints, Fractions or PPoly."""
    if len(u) == 1:
        return u[0][0]
    if len(u) == 2:
        return u[0][0] * u[1][1] - u[0][1] * u[1][0]
    c = _cross(u[1], u[2])
    return u[0][0] * c[0] + u[0][1] * c[1] + u[0][2] * c[2]


def _adjugate(u):
    """adj u, with u adj u = det(u) I, for a 1x1, 2x2 or 3x3 matrix: in
    dimension 3 its columns are the cross products of pairs of rows."""
    if len(u) == 1:
        return [[1]]
    if len(u) == 2:
        return [[u[1][1], -u[0][1]], [-u[1][0], u[0][0]]]
    return [list(row) for row in zip(_cross(u[1], u[2]), _cross(u[2], u[0]),
                                     _cross(u[0], u[1]))]


# ---------------------------------------------------------------------------
# exact integrals
# ---------------------------------------------------------------------------
#
# The routes are written once over a field: vertex coordinates and offsets are
# Fractions on a Polytope, or PPoly on a cell of the ``cells`` module.  Each
# absolute value goes through ``p.magnitude``, which reads the sign at the
# cell's sample point; for Fractions that point is the value itself.

def _edge_sigma(p, normal, v, w):
    """Lattice length of an edge on the facet with this normal: the factor L
    with w - v = L * t, t = (-n1, n0) the primitive perpendicular of the
    primitive normal."""
    t = (-normal[1], normal[0])
    j = 0 if t[0] else 1
    return p.magnitude((w[j] - v[j]) / t[j])


def _triangle_sigma(p, normal, a, b, c):
    """Lattice area of a facet triangle: |k|/2 with (b-a)x(c-a) = k * normal."""
    cr = _cross([x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)])
    j = next(i for i, n in enumerate(normal) if n)
    return p.magnitude(cr[j] / normal[j]) / 2


def _facet_measures_fan(p, f, origin_mode):
    """(sigma mass, sigma moment) of facet f; origin_mode picks the fan apex
    ('vertex' route vs 'centroid' route) of a 3-D facet polygon, and a point
    or an edge has one measure for both."""
    d = p.dim
    key = ("facet", f, origin_mode if d == 3 else None)
    cached = p._cache.get(key)
    if cached is not None:
        return cached
    verts = p.facet_vertices(f)
    normal = p.halfspaces[f].normal
    if d == 1:
        result = (Fraction(1), list(verts[0]))
    elif d == 2:
        v, w = verts
        sigma = _edge_sigma(p, normal, v, w)
        result = (sigma, [sigma * (a + b) / 2 for a, b in zip(v, w)])
    else:
        k = len(verts)
        if origin_mode == "vertex":
            apex = verts[0]
            fan = [(verts[i], verts[i + 1]) for i in range(1, k - 1)]
        else:
            apex = tuple(sum(v[i] for v in verts) / k for i in range(3))
            fan = [(verts[i], verts[(i + 1) % k]) for i in range(k)]
        mass = Fraction(0)
        moment = [Fraction(0)] * 3
        for b, c in fan:
            area = _triangle_sigma(p, normal, apex, b, c)
            mass += area
            for i in range(3):
                moment[i] += area * (apex[i] + b[i] + c[i]) / 3
        result = (mass, moment)
    p._cache[key] = result
    return result


def _boundary_route(p, origin_mode):
    mass = Fraction(0)
    moment = [Fraction(0)] * p.dim
    for f in range(len(p.halfspaces)):
        m, mom = _facet_measures_fan(p, f, origin_mode)
        mass += m
        for i in range(p.dim):
            moment[i] += mom[i]
    return mass, tuple(moment)


def _solid_route_triangulation(p):
    d = p.dim
    base = p.vertices[0]
    vol = Fraction(0)
    moment = [Fraction(0)] * d
    if d == 1:
        a, b = p.vertices[0][0], p.vertices[-1][0]
        vol = p.magnitude(b - a)
        return vol, (vol * (a + b) / 2,)
    for f, cycle in enumerate(p.facet_cycles):
        if 0 in cycle:      # the facet contains the base vertex
            continue
        verts = p.facet_vertices(f)
        if d == 2:
            simplices = [(verts[0], verts[1])]
        else:
            simplices = [(verts[0], verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
        for simplex in simplices:
            det = _det([[x - bx for x, bx in zip(s, base)] for s in simplex])
            v = p.magnitude(det) / factorial(d)
            vol += v
            for i in range(d):
                moment[i] += v * (base[i] + sum(s[i] for s in simplex)) / (d + 1)
    return vol, tuple(moment)


def _solid_route_divergence(p):
    d = p.dim
    vol = Fraction(0)
    moment = [Fraction(0)] * d
    for f, h in enumerate(p.halfspaces):
        m, mom = _facet_measures_fan(p, f, "centroid" if d == 3 else "vertex")
        vol += h.offset * m
        for i in range(d):
            moment[i] += h.offset * mom[i]
    return vol / d, tuple(x / (d + 1) for x in moment)


def _integral_data(p):
    """All exact integrals, each evaluated along both routes; cached."""
    data = p._cache.get("integrals")
    if data is None:
        tri = _solid_route_triangulation(p)
        div = _solid_route_divergence(p)
        if tri != div:
            raise ToricError(f"solid integral routes disagree: {tri} vs {div}")
        bv = _boundary_route(p, "vertex")
        if p.dim == 3:
            bc = _boundary_route(p, "centroid")
            if bv != bc:
                raise ToricError(f"boundary routes disagree: {bv} vs {bc}")
        data = (tri[0], tri[1], bv[0], bv[1])
        p._cache["integrals"] = data
    return data


def volume(p):
    """Exact Lebesgue volume; triangulation and divergence routes must agree."""
    return _integral_data(p)[0]


def moment(p):
    """Exact first moment vector (integral of x over P)."""
    return _integral_data(p)[1]


def boundary_integral(p):
    """(sigma mass of the boundary, sigma moment vector), lattice measure."""
    data = _integral_data(p)
    return data[2], data[3]


def donaldson_L(p, affine):
    """L(f) = int_dP f dsigma - (sigma mass / volume) int_P f dmu for the
    affine function f(x) = affine[0] + sum affine[1:][i] x_i.  L(1) = 0 by
    construction."""
    const = Fraction(affine[0])
    grad = [Fraction(a) for a in affine[1:]]
    if len(grad) != p.dim:
        raise ToricError("affine function has the wrong dimension")
    vol, mom, mass, smoment = _integral_data(p)
    boundary_part = const * mass + sum(g * m for g, m in zip(grad, smoment))
    solid_part = const * vol + sum(g * m for g, m in zip(grad, mom))
    return boundary_part - (mass / vol) * solid_part


class FutakiVector:
    """Sigma barycenter of the boundary minus mu barycenter of the solid;
    zero exactly when the toric Futaki character vanishes."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = components

    def is_zero(self):
        return all(c == 0 for c in self.components)

    def render(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def futaki_vector(p):
    vol, mom, mass, smoment = _integral_data(p)
    return FutakiVector(tuple(sm / mass - m / vol for sm, m in zip(smoment, mom)))


def product_polytope(p, q):
    rows = _product_rows([(h.normal, h.offset) for h in p.halfspaces],
                         [(h.normal, h.offset) for h in q.halfspaces])
    return Polytope.from_halfspaces(p.dim + q.dim, [Halfspace(n, c) for n, c in rows])


def _product_rows(first, second):
    """Facet rows (normal, offset) of a product: each factor's normals padded
    with zeros for the other factor's coordinates."""
    pad_first, pad_second = (0,) * len(second[0][0]), (0,) * len(first[0][0])
    return (tuple((n + pad_first, c) for n, c in first)
            + tuple((pad_second + n, c) for n, c in second))


# ---------------------------------------------------------------------------
# catalog polytope families
# ---------------------------------------------------------------------------

def _aff(const=0, **coefficients):
    """An offset affine in the parameters: (constant, ((name, coefficient), ...))."""
    return Fraction(const), tuple(coefficients.items())


class ToricFamily:
    """Moment polytopes declared as data: one row (primitive integer outer
    normal, offset affine in the parameters) per facet.  The normals are
    checked here, once, so that ``build`` does not check them again."""

    __slots__ = ("name", "param_names", "rows", "anticanonical", "scan_upper",
                 "fixed_for_scan")

    def __init__(self, name, param_names, rows, anticanonical, scan_upper, fixed_for_scan):
        self.name = name
        self.param_names = param_names
        checked = []
        for normal, (const, terms) in rows:
            h = Halfspace(normal, const)
            checked.append((h.normal, (h.offset, terms)))
        self.rows = tuple(checked)
        self.anticanonical = anticanonical
        self.scan_upper = scan_upper  # exclusive upper grid bound per scanned parameter
        self.fixed_for_scan = fixed_for_scan  # parameters pinned during scans

    @property
    def dim(self):
        return len(self.rows[0][0])

    def offsets(self, values):
        """Facet offsets at ``values``: name -> Fraction, or PPoly."""
        return [sum((c * values[n] for n, c in terms), const) for _, (const, terms) in self.rows]

    def build(self, **params):
        missing = [n for n in self.param_names if n not in params]
        if missing:
            raise ToricError(f"missing parameters {missing} for family {self.name}")
        extra = [n for n in params if n not in self.param_names]
        if extra:
            raise ToricError(f"unknown parameters {extra} for family {self.name}")
        values = {n: Fraction(params[n]) for n in self.param_names}
        try:
            return Polytope.from_halfspaces(
                self.dim, [Halfspace._checked(normal, offset) for (normal, _), offset
                           in zip(self.rows, self.offsets(values))])
        except (DegenerateError, UnboundedError) as exc:
            raise KahlerRegionError(f"{self.name}: {exc}") from exc


def _interval(name):
    """[0, name] on the line."""
    return (((-1,), _aff()), ((1,), _aff(**{name: 1})))


_P2 = (((-1, 0), _aff()), ((0, -1), _aff()), ((1, 1), _aff(h=1)))
_P1XP1 = _product_rows(_interval("a"), _interval("b"))
# the corner-cut hexagon {x, y >= 0, x + y <= 3, x + y >= a, x <= 3 - b, y <= 3 - c}
_S6 = (((-1, 0), _aff()), ((0, -1), _aff()), ((1, 1), _aff(3)),
       ((-1, -1), _aff(a=-1)), ((1, 0), _aff(3, b=-1)), ((0, 1), _aff(3, c=-1)))
# the size-h simplex truncated along two opposite edges with depths a and b
_BL2LINES = (((-1, 0, 0), _aff()), ((0, -1, 0), _aff()), ((0, 0, -1), _aff()),
             ((1, 1, 1), _aff(h=1)), ((0, 1, 1), _aff(h=1, a=-1)), ((0, -1, -1), _aff(b=-1)))


def _family(name, param_names, rows, anticanonical, scan_upper, fixed_for_scan=None):
    def fractions(values):
        return {n: Fraction(v) for n, v in values.items()}
    return ToricFamily(name, param_names, rows,
                       fractions(anticanonical), fractions(scan_upper),
                       fractions(fixed_for_scan or {}))


FAMILIES = {f.name: f for f in (
    _family("p1", ("a",), _interval("a"), {"a": 2}, {"a": 3}),
    _family("p2", ("h",), _P2, {"h": 3}, {"h": 3}),
    _family("p1xp1", ("a", "b"), _P1XP1, {"a": 2, "b": 2}, {"a": 3, "b": 3}),
    _family("p1xp2", ("a", "h"), _product_rows(_interval("a"), _P2), {"a": 2, "h": 3},
            {"a": 3, "h": 3}),
    _family("p1cubed", ("a", "b", "c"), _product_rows(_P1XP1, _interval("c")),
            {"a": 2, "b": 2, "c": 2}, {"a": 3, "b": 3, "c": 3}),
    _family("s6", ("a", "b", "c"), _S6, {"a": 1, "b": 1, "c": 1}, {"a": 3, "b": 3, "c": 3}),
    _family("p1xs6", ("t", "a", "b", "c"), _product_rows(_interval("t"), _S6),
            {"t": 2, "a": 1, "b": 1, "c": 1}, {"a": 3, "b": 3, "c": 3}, {"t": 2}),
    _family("bl2lines-p3", ("h", "a", "b"), _BL2LINES, {"h": 4, "a": 1, "b": 1},
            {"a": 4, "b": 4}, {"h": 4}),
)}


def class_to_polytope(family, **params):
    if family not in FAMILIES:
        raise ToricError(f"unknown toric family {family!r}")
    return FAMILIES[family].build(**params)


def anticanonical_parameters(family):
    if family not in FAMILIES:
        raise ToricError(f"unknown toric family {family!r}")
    return dict(FAMILIES[family].anticanonical)


# ---------------------------------------------------------------------------
# zero-locus scans
# ---------------------------------------------------------------------------

class ScanPoint:
    __slots__ = ("values", "zero")

    def __init__(self, values, zero):
        self.values = values    # (name, Fraction) pairs in scan order
        self.zero = zero

    def __eq__(self, other):
        if not isinstance(other, ScanPoint):
            return NotImplemented
        return self.values == other.values and self.zero == other.zero


class LocusFit:
    __slots__ = ("equation", "on_locus_all_zero", "points_on_locus")

    def __init__(self, equation, on_locus_all_zero, points_on_locus):
        self.equation = equation
        self.on_locus_all_zero = on_locus_all_zero    # False with no point on the locus
        self.points_on_locus = points_on_locus

    def __eq__(self, other):
        if not isinstance(other, LocusFit):
            return NotImplemented
        return ((self.equation, self.on_locus_all_zero, self.points_on_locus)
                == (other.equation, other.on_locus_all_zero, other.points_on_locus))


class ScanReport:
    __slots__ = ("family", "step", "points", "skipped", "loci", "covered",
                 "zero_everywhere")

    def __init__(self, family, step, points, skipped, loci, covered, zero_everywhere):
        self.family = family
        self.step = step
        self.points = points
        self.skipped = skipped
        self.loci = loci            # LocusFit per candidate equation
        self.covered = covered      # every zero point lies on some candidate locus
        self.zero_everywhere = zero_everywhere

    def __eq__(self, other):
        if not isinstance(other, ScanReport):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in ScanReport.__slots__)

    def classify(self):
        """identically_zero, on_locus (the candidate loci hold exactly the
        zeros), locus_and_more (zeros off the loci too) or off_locus."""
        if self.zero_everywhere:
            return "identically_zero"
        if self.loci and all(f.on_locus_all_zero for f in self.loci):
            return "on_locus" if self.covered else "locus_and_more"
        return "off_locus"


def zero_locus_scan(family, step, loci=(), fixed=None):
    """Exact zero test of the Futaki vector over a rational grid.

    Out-of-region grid points are skipped and counted.  In-region points are
    grouped by combinatorial cell (the tight-facet sets of the vertices).  On
    a cell the vertices are affine in the scanned parameters, so the Futaki
    numerators are polynomials: they are derived once, at the cell's first
    point, and a point is zero exactly when they all vanish there.

    The region is decided on integers without a build: a point is outside
    exactly where one of the family's region forms is at most 0.  Each is a
    combination of the facet rows along a circuit of their normals with at
    most one negative weight, and proves by Motzkin's theorem that the
    polytope is empty or flat or that some facet supports no (dim-1)-face
    (``cells.region_forms`` gives the proof).  An in-region point is built
    only when no known cell's chamber (its affine slack inequalities,
    checked on integers) contains it.  Candidate locus equations (catalog
    data) are fitted against the computed zero set.  A grid with no point in
    the region is a ToricError: it would confirm nothing.
    """
    fam = FAMILIES.get(family)
    if fam is None:
        raise ToricError(f"unknown toric family {family!r}")
    step = Fraction(step)
    if step <= 0:
        raise ToricError("grid step must be positive")
    equations = _locus_equations(loci, fam.param_names)
    pinned = dict(fam.fixed_for_scan)
    if fixed:
        pinned.update({k: Fraction(v) for k, v in fixed.items()})
    scan_names = [n for n in fam.param_names if n not in pinned]
    grids = []
    for n in scan_names:
        upper = fam.scan_upper[n]
        k = 1
        values = []
        while k * step < upper:
            values.append(k * step)
            k += 1
        grids.append(values)
    from . import cells     # the symbolic engine, loaded on first use
    points, skipped = cells.scan_grid(fam, scan_names, pinned, grids, step.denominator)
    if not points:
        raise ToricError(f"no grid point of {family} at step {step} lies in the Kähler region")
    fits = []
    on_some_locus = [False] * len(points)
    for eq, differences in zip(loci, equations):
        on = cells.on_locus(differences, pinned, step.denominator, points)
        on_count = sum(on)
        all_zero = all(pt.zero for pt, hit in zip(points, on) if hit)
        on_some_locus = [a or b for a, b in zip(on_some_locus, on)]
        fits.append(LocusFit(eq, all_zero and on_count > 0, on_count))
    covered = (all(on_some_locus[i] for i, pt in enumerate(points) if pt.zero)
               if loci else True)
    zero_everywhere = all(pt.zero for pt in points)
    return ScanReport(family, step, tuple(points), skipped, tuple(fits), covered,
                      zero_everywhere)


def _locus_equations(loci, names):
    """Each locus equation as the differences of its sides over Q[names]."""
    from .polyring import PolyError, parse_equations     # loaded on first use
    equations = []
    for eq in loci:
        try:
            equations.append(parse_equations(eq, names))
        except PolyError as exc:
            raise ToricError(f"bad locus equation {eq!r}: {exc}") from exc
    return equations
