"""Exact toric Futaki computation on moment polytopes.

Halfspace representations with primitive integer outer normals, exact
vertex/volume/moment computation, the lattice-normalized boundary measure
(dmu = dsigma ^ d<u,.>, computed with lattice determinants only, no
radicals), the Donaldson-type functional L(f), Futaki vectors, and the toric
catalog families declared as affine halfspace rows, each deriving its
anticanonical parameters from its fan (Cox-Little-Schenck 4.3, 8.2.3).

Every integral is evaluated along two independent routes and the public
operations insist the routes agree exactly: the solid integrals by base-vertex
triangulation vs divergence theorem over the boundary data, in every
dimension; the boundary measures by facet fans from a vertex vs signed fans
from a point of the facet's plane, read from its row, in dimension 3 only, as
a facet point or edge has one measure.  The routes are written once, over
Fractions or over polynomials in the family parameters.  Each sums
lattice-normalised terms (d! vol, d! (d+1) moment, (d-1)! sigma-mass,
d! sigma-moment) and divides none of them; the sums are compared as they
are, and ``_integral_data`` divides each total once.  The
lattice coefficient of a facet simplex is read as one minor of its edges per
(c, j) pair of an integer u with <u, normal> = +-1: a 2x2 minor on the two
axes other than j in dimension 3, a coordinate difference in dimension 2, so
one minor for a normal with a unit entry.  The triangulation route keeps
full determinants, so that it shares no coefficient with the other routes.

Zero-locus scans (``zero_locus_scan``) run in module ``cells``, which loads
on the first scan: grid points are grouped by combinatorial cell, whose
Futaki numerators are polynomials derived once by these same routes, and a
point inside a known cell's chamber is decided without building its polytope.

Construction runs on integers: each vertex is solved from one table of the
normals' subsets, then tested, keyed and sorted as an integer point over one
common denominator; the input is flat exactly when some facet is tight at
every vertex, the polytope keeps that incidence and walks 3-D facet polygons
by it, and determinants are closed forms on cross products.  A vertex
coordinate is an int where the common denominator divides it and a Fraction
in lowest terms otherwise, so the routes multiply and add ints wherever the
geometry is integral (every vertex of a smooth family's -K polytope is a
lattice point).  A family build sums each facet offset on integers, over the
lcm of its parameters' denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
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
        self.offset = Fraction(*_parameter(normal, offset, kind="offset of normal"))

    @classmethod
    def _checked(cls, normal, offset):
        """The halfspace of a normal that a Halfspace already checked (a
        family row's) and an offset, without checking them again: a Fraction,
        or a PPoly on a scan cell."""
        h = object.__new__(cls)
        h.normal = normal
        h.offset = offset
        return h

    def __eq__(self, other):
        if not isinstance(other, Halfspace):
            return NotImplemented
        return self.normal == other.normal and self.offset == other.offset


def _integer_entry(n):
    try:
        q = Fraction(n)
        if q.denominator == 1:
            return q.numerator
    except (TypeError, ValueError, OverflowError):
        pass
    raise ToricError(f"normal entry {n} is not an integer")


class Polytope:
    """Bounded full-dimensional polytope in dimension 1, 2 or 3; ``tight``
    holds the frozenset of the facets tight at each vertex.

    Each vertex coordinate is an int or a Fraction that is not an integer.
    So no ``/`` may take a value derived from vertices before
    ``_integral_data``, which divides each total by a Fraction: an int / int
    is a float."""

    __slots__ = ("dim", "halfspaces", "vertices", "facet_cycles", "tight")

    def __init__(self, dim, halfspaces, vertices, facet_cycles, tight):
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self.vertices = tuple(vertices)
        self.facet_cycles = tuple(facet_cycles)
        self.tight = tuple(tight)

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
        if tight[0].intersection(*tight[1:]):       # an implicit equality
            raise DegenerateError("lower-dimensional input")
        cycles = _facet_cycles(dim, halfspaces, points, tight)
        return cls(dim, halfspaces, vertices, cycles, tight)

    # the integral routes take absolute values through this; a symbolic cell
    # reads the sign at its sample point instead
    magnitude = staticmethod(abs)

    def facet_vertices(self, f):
        return [self.vertices[i] for i in self.facet_cycles[f]]


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
    elif not _vertex_solves(dim, normals)[1]:
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
def _vertex_solves(dim, normals):
    """(L, ((subset, A), ...)) over the nonsingular dim-subsets of the integer
    normals, in lexicographic order: L is the lcm of their determinants and
    A = (L / det) adj, so the subset's vertex against offsets b is A b / L.
    Empty exactly when the normals do not span."""
    solves = []
    for combo in combinations(range(len(normals)), dim):
        rows = [normals[i] for i in combo]
        det = _det(rows)
        if det:
            solves.append((combo, det, _adjugate(rows)))
    common = lcm(*(det for _, det, _ in solves))
    return common, tuple((combo, tuple(tuple(common // det * x for x in row) for row in adj))
                         for combo, det, adj in solves)


def _enumerate_vertices(dim, halfspaces):
    """(sorted vertices, the same as integer points over one denominator, the
    frozenset of facets tight at each); a vertex coordinate is an int when that
    denominator divides it.  With offsets scaled to integers b by the lcm s of
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
    vertices = [tuple(x // denom if x % denom == 0 else Fraction(x, denom) for x in p)
                for p in points]
    return vertices, points, [frozenset(seen[p]) for p in points]


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
# The routes are written once over a field: on a Polytope vertex coordinates
# are ints or Fractions and offsets Fractions, on a cell of the ``cells`` module
# both are PPoly.  Each
# absolute value goes through ``p.magnitude``, which reads the sign at the
# cell's sample point; for Fractions that point is the value itself.
#
# Each route sums lattice-normalised terms and divides none: a d-simplex has
# volume |det| / d! and barycentre its vertex sum / (d + 1), a facet simplex
# sigma-volume |k| / (d-1)! and barycentre its vertex sum / d, k its lattice
# coefficient (``_minor_terms``).  So the solid routes sum V = d! vol and
# M = d! (d+1) moment, the boundary routes S = (d-1)! sigma-mass and
# T = d! sigma-moment; they are compared on these sums, and
# ``_integral_data`` divides them once.  The plane route signs whole facets.

def _unit_functional(normal):
    """Integer u with <u, normal> = +-1 for a primitive integer normal, as
    (coefficient, index) pairs; a unit entry j gives the one pair (1, j)."""
    for j, x in enumerate(normal):
        if x in (1, -1):
            return ((1, j),)
    g, coeffs = 0, []
    for x in normal:        # extended Euclid: sum of coeffs * entries = g
        r0, r1, s0, s1, t0, t1 = g, x, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
        g, coeffs = r0, [s0 * c for c in coeffs] + [t0]
    return tuple((c, j) for j, c in enumerate(coeffs) if c)


@lru_cache(maxsize=256)
def _minor_terms(normal):
    """How a facet's edges give +-k = <u, vector> for a vector k * normal,
    u = _unit_functional(normal): the vector is the quarter turn
    (x, y) -> (y, -x) of an edge in 2-D and the cross product of two edges
    in 3-D.  Its component j is a minor of the edges on the axes other than
    j: the coordinate 1 - j in 2-D, negated for j = 1, and the 2x2 minor on
    the axes j + 1, j + 2 (mod 3) in 3-D.  So each pair (c, j) of u gives
    one term (c, axes) of a sum of c * minor; a normal with a unit entry
    (every family normal) gives one."""
    if len(normal) == 2:
        return tuple((c if j == 0 else -c, (1 - j,)) for c, j in _unit_functional(normal))
    return tuple((c, ((j + 1) % 3, (j + 2) % 3)) for c, j in _unit_functional(normal))


def _edge_sigma(p, normal, v, w):
    """Lattice length |k| of the edge from v to w on the facet with this
    normal: one coordinate difference per term of ``_minor_terms``."""
    k = None
    for c, (a,) in _minor_terms(normal):
        term = w[a] - v[a] if c == 1 else c * (w[a] - v[a])
        k = term if k is None else k + term
    return p.magnitude(k)


def _fan_coefficients(normal, apex, rim):
    """+-k, one sign per normal, for (b - apex) x (c - apex) = k * normal
    and b, c consecutive in ``rim``: the apex-relative coordinates are taken
    only on the axes the minors of ``_minor_terms`` read, one column each."""
    terms = _minor_terms(normal)
    columns = {a: [b[a] - apex[a] for b in rim] for _, axes in terms for a in axes}
    ks = None
    for c, (s, t) in terms:
        x, y = columns[s], columns[t]
        minors = [x0 * y1 - x1 * y0 for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])]
        if c != 1:
            minors = [c * m for m in minors]
        ks = minors if ks is None else [k + m for k, m in zip(ks, minors)]
    return ks


def _fan_sums(ks, apex, rim):
    """(sum k, sum k (apex + b + c)) over the triangles (apex, b, c) of a
    facet polygon, b and c consecutive in ``rim``, k the triangle's weight."""
    mass = sum(ks)
    return mass, [apex[i] * mass + sum(k * (b[i] + c[i]) for k, b, c in zip(ks, rim, rim[1:]))
                  for i in range(3)]


def _facet_sums(p, f):
    """(S_f, T_f) of facet f, a 3-D polygon fanned from its first vertex.  A
    point has S_f = 1 and an edge its lattice length."""
    verts = p.facet_vertices(f)
    normal = p.halfspaces[f].normal
    if p.dim == 1:
        return 1, list(verts[0])
    if p.dim == 2:
        v, w = verts
        sigma = _edge_sigma(p, normal, v, w)
        return sigma, [sigma * (a + b) for a, b in zip(v, w)]
    ks = _fan_coefficients(normal, verts[0], verts[1:])
    return _fan_sums([p.magnitude(k) for k in ks], verts[0], verts[1:])


def _boundary_route_vertex(p, facets):
    """(S, T) of the boundary from the facet sums, |k| per 3-D triangle: a
    signed fan would match the plane route even on a misordered cycle."""
    return _boundary_totals(p, facets)


def _boundary_route_plane(p):
    """(S, T) of a 3-D boundary, each facet fanned from the point
    P = <u, n> b u of its plane (<n, P> = b), u = _unit_functional(n), read
    from its row alone.  The coefficients k stay signed: over the closed
    cycle their sums do not depend on P, and each facet's sign is fixed once."""
    sums = []
    for f, h in enumerate(p.halfspaces):
        unit = _unit_functional(h.normal)
        scale = sum(c * h.normal[j] for c, j in unit) * h.offset      # +-b
        apex = [0, 0, 0]
        for c, j in unit:
            apex[j] = scale if c == 1 else c * scale
        rim = p.facet_vertices(f)
        rim.append(rim[0])
        mass, moment = _fan_sums(_fan_coefficients(h.normal, apex, rim), apex, rim)
        sums.append((mass, moment) if p.magnitude(mass) == mass else (-mass, [-x for x in moment]))
    return _boundary_totals(p, sums)


def _boundary_totals(p, sums):
    return sum(s for s, _ in sums), tuple(sum(t[i] for _, t in sums) for i in range(p.dim))


def _solid_route_triangulation(p):
    """(V, M) from the simplices joining the first vertex to the facets (fanned
    from their first vertex) that miss it."""
    d = p.dim
    base = p.vertices[0]
    rel = [[x - y for x, y in zip(v, base)] for v in p.vertices]
    dets, moment = [], [[] for _ in range(d)]
    for cycle in p.facet_cycles:
        if 0 in cycle:      # the facet contains the base vertex
            continue
        for simplex in [cycle] if d < 3 else zip(repeat(cycle[0]), cycle[1:], cycle[2:]):
            det = p.magnitude(_det([rel[i] for i in simplex]))
            dets.append(det)
            for x in range(d):
                moment[x].append(det * sum(p.vertices[i][x] for i in simplex))
    vol = sum(dets)
    return vol, tuple(base[x] * vol + sum(terms) for x, terms in enumerate(moment))


def _solid_route_divergence(p, facets):
    """(V, M) = sum over facets of offset * (S_f, T_f), by the divergence
    theorem for x -> x and x -> x_i x."""
    vol, moment = [], [[] for _ in range(p.dim)]
    for h, (s, t) in zip(p.halfspaces, facets):
        vol.append(h.offset * s)
        for i in range(p.dim):
            moment[i].append(h.offset * t[i])
    return sum(vol), tuple(map(sum, moment))


def _integral_data(p):
    """(volume, moment, sigma mass, sigma moment), each summed along two
    routes that must agree.  The only division of the route sums is here,
    by Fractions, so that a sum of ints still gives Fractions."""
    facets = [_facet_sums(p, f) for f in range(len(p.halfspaces))]   # read by two routes
    tri = _solid_route_triangulation(p)
    div = _solid_route_divergence(p, facets)
    if tri != div:
        raise ToricError(f"solid integral routes disagree: {tri} vs {div}")
    bv = _boundary_route_vertex(p, facets)
    if p.dim == 3:
        bp = _boundary_route_plane(p)
        if bv != bp:
            raise ToricError(f"boundary routes disagree: {bv} vs {bp}")
    (vol, mom), (mass, smoment) = tri, bv
    simplex = Fraction(factorial(p.dim))
    return (vol / simplex, tuple(x / (simplex * (p.dim + 1)) for x in mom),
            mass / Fraction(factorial(p.dim - 1)), tuple(x / simplex for x in smoment))


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
    """An offset affine in the parameters, with integer constant and
    coefficients: (constant, ((name, coefficient), ...))."""
    return const, tuple(coefficients.items())


def _parameter(name, value, kind="parameter"):
    """(numerator, denominator) of a rational input, a parameter by default."""
    try:
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ToricError(f"{kind} {name} = {value!r} is not a rational number") from None
    return q.numerator, q.denominator


class ToricFamily:
    """Moment polytopes declared as data: one row (primitive integer outer
    normal, offset affine in the parameters) per facet.  The normals are
    checked here, once, so that ``build`` does not check them again, and so
    is the scan data: ``fixed_for_scan`` pins parameters, ``scan_upper``
    bounds each other one above 0, and a family with parameters scans one.

    ``build`` sums each offset on integers: with D the lcm of the parameter
    denominators, D * offset is an integer, made a Fraction once per facet."""

    __slots__ = ("name", "param_names", "rows", "scan_upper", "fixed_for_scan")

    def __init__(self, name, param_names, rows, scan_upper, fixed_for_scan):
        self.name = name
        self.param_names = param_names
        checked = []
        for normal, (const, terms) in rows:
            checked.append((Halfspace(normal, const).normal, (const, terms)))
        self.rows = tuple(checked)
        unknown = sorted(set(fixed_for_scan) - set(param_names))
        if unknown:
            raise ToricError(f"{name}: pinned {unknown} are not parameters")
        scanned = [n for n in param_names if n not in fixed_for_scan]
        if (param_names and not scanned) or set(scan_upper) != set(scanned) \
                or any(u <= 0 for u in scan_upper.values()):
            raise ToricError(f"{name}: scan bounds for {sorted(scan_upper)}, not positive "
                             f"ones for each unpinned parameter of {scanned}")
        self.scan_upper = scan_upper  # exclusive upper grid bound per scanned parameter
        self.fixed_for_scan = fixed_for_scan  # parameters pinned during scans

    @property
    def dim(self):
        return len(self.rows[0][0])

    def offsets(self, values, scale=1):
        """Facet offsets times ``scale`` at ``values``, name -> ``scale``
        times the value: a Fraction or PPoly with the default scale, or the
        integer D * value with ``scale`` = D."""
        return [sum((c * values[n] for n, c in terms), const * scale)
                for _, (const, terms) in self.rows]

    def build(self, **params):
        missing = [n for n in self.param_names if n not in params]
        if missing:
            raise ToricError(f"missing parameters {missing} for family {self.name}")
        extra = [n for n in params if n not in self.param_names]
        if extra:
            raise ToricError(f"unknown parameters {extra} for family {self.name}")
        values = {n: _parameter(n, params[n]) for n in self.param_names}
        scale = lcm(*(den for _, den in values.values()))
        scaled = {n: num * (scale // den) for n, (num, den) in values.items()}
        try:
            return Polytope.from_halfspaces(
                self.dim, [Halfspace._checked(normal, Fraction(offset, scale))
                           for (normal, _), offset in zip(self.rows, self.offsets(scaled, scale))])
        except (DegenerateError, UnboundedError) as exc:
            raise KahlerRegionError(f"{self.name}: {exc}") from exc

    def anticanonical(self):
        """The parameters of -K, name -> Fraction: -K is {x : <n_f, x> <= 1}
        up to a translation t, so the one solution of offset_f = 1 + <n_f, t>."""
        from .ratlinalg import rref
        unknowns = len(self.param_names) + self.dim
        rows, pivots = rref([[Fraction(dict(terms).get(n, 0)) for n in self.param_names]
                             + [Fraction(-x) for x in normal] + [Fraction(1 - c)]
                             for normal, (c, terms) in self.rows], unknowns)
        if any(row[-1] for row in rows[len(pivots):]):
            raise ToricError(f"{self.name}: no parameters give the anticanonical polytope")
        if len(pivots) < unknowns:
            raise ToricError(f"{self.name}: the anticanonical parameters are not unique")
        return {n: row[-1] for n, row in zip(self.param_names, rows)}


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


def _family(name, param_names, rows, scan_upper, fixed_for_scan=None):
    def fractions(values):
        return {n: Fraction(v) for n, v in values.items()}
    return ToricFamily(name, param_names, rows, fractions(scan_upper),
                       fractions(fixed_for_scan or {}))


FAMILIES = {f.name: f for f in (
    _family("p1", ("a",), _interval("a"), {"a": 3}),
    _family("p2", ("h",), _P2, {"h": 3}),
    _family("p1xp1", ("a", "b"), _P1XP1, {"a": 3, "b": 3}),
    _family("p1xp2", ("a", "h"), _product_rows(_interval("a"), _P2), {"a": 3, "h": 3}),
    _family("p1cubed", ("a", "b", "c"), _product_rows(_P1XP1, _interval("c")),
            {"a": 3, "b": 3, "c": 3}),
    _family("s6", ("a", "b", "c"), _S6, {"a": 3, "b": 3, "c": 3}),
    _family("p1xs6", ("t", "a", "b", "c"), _product_rows(_interval("t"), _S6),
            {"a": 3, "b": 3, "c": 3}, {"t": 2}),
    _family("bl2lines-p3", ("h", "a", "b"), _BL2LINES, {"a": 4, "b": 4}, {"h": 4}),
)}


def class_to_polytope(family, **params):
    if family not in FAMILIES:
        raise ToricError(f"unknown toric family {family!r}")
    return FAMILIES[family].build(**params)


# ---------------------------------------------------------------------------
# zero-locus scans
# ---------------------------------------------------------------------------

def zero_locus_scan(family, step, loci=()):
    """Exact zero test of the Futaki vector over a rational grid of the
    family's parameters not in ``fixed_for_scan``: the ``ScanReport`` of
    ``cells.zero_locus_scan``, whose module loads on the first scan."""
    from . import cells
    return cells.zero_locus_scan(family, step, loci)
