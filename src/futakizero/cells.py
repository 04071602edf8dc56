"""Zero-locus scans of the toric families, on their combinatorial cells over Q[params].

A cell is the set of parameter values at which the vertices of the family's
polytope lie on the same facets.  On a cell each vertex is the solution of a
fixed set of facet equations whose offsets are affine in the parameters, so
the vertices are affine and every integral of ``toric`` is a polynomial.  The
integral routes of ``toric`` run unchanged on these polynomial coordinates;
the only decisions they take, absolute values, read the sign at the cell's
sample point.

A cell whose vertices are all simple (each on exactly ``dim`` facets) also has
a chamber: the parameter values at which every slack ``offset_f - n_f . v`` of
a facet f not tight at a vertex v is positive.  The Kähler region is cut out by
integer region forms read off the circuits of the facet normals.  Both are
affine in the parameters, and ``scan_grid`` decides the region, and inside it
membership in a known chamber, on integers without building a polytope.

``toric.zero_locus_scan`` imports this module on its first scan, so that
``import futakizero.toric`` alone compiles no scan code and loads no symbolic
engine, and a command that runs no scan never loads it.  ``toric scan``
reads its candidate loci from the catalog here too (``toric_loci``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import mul

from . import toric
from .parampoly import PPoly


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


def toric_loci(family, path=None):
    """The candidate zero-locus equations of the first record that scans
    this toric family, as its ``toric_family`` or a ``families`` factor; ()
    if none.  Read after the catalog's structure pass, which checks every
    line, from the ``locus``, ``toric_family`` and ``factor`` values alone:
    no record is built, so a record broken elsewhere does not stop a scan.
    A malformed ``factor`` value of a record with loci does, as in
    ``catalog.load_catalog``."""
    from .catalog import CatalogError, _parse_factor, _structure
    for case_id, _, entries in _structure(path, None)[0]:
        loci = tuple(v for k, v, _ in entries if k == "locus")
        if not loci:
            continue
        scanned = {v for k, v, _ in entries if k == "toric_family"}
        for key, value, line in entries:
            if key == "factor":
                try:
                    name, tag = _parse_factor(value)
                except CatalogError as exc:
                    raise CatalogError(f"record {case_id}: {exc}", line) from exc
                if tag == "families":
                    scanned.add(name)
        if family in scanned:
            return loci
    return ()


MAX_SCAN_POINTS = 10 ** 6    # the grid points a scan may take; s6 at step 1/4 has 1,331


def zero_locus_scan(family, step, loci=()):
    """Exact zero test of the Futaki vector over a rational grid of the
    family's scanned parameters, those not pinned by ``fixed_for_scan``.

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
    (``region_forms`` gives the proof).  An in-region point is built
    only when no known cell's chamber (its affine slack inequalities,
    checked on integers) contains it.  Candidate locus equations (catalog
    data) become integer forms once, and the same sweep tests each in-region
    point on them; each locus is then fitted against the computed zero set.
    A family without parameters, or a grid with no point in the region, is a
    ToricError: it would confirm nothing.  So is a grid of more than
    ``MAX_SCAN_POINTS`` points, before any grid list is built.
    """
    fam = toric.FAMILIES.get(family)
    if fam is None:
        raise toric.ToricError(f"unknown toric family {family!r}")
    step = Fraction(*toric._parameter("step", step, kind="grid"))
    if step <= 0:
        raise toric.ToricError("grid step must be positive")
    pinned = fam.fixed_for_scan
    names = tuple(n for n in fam.param_names if n not in pinned)
    if not names:
        raise toric.ToricError(f"{family}: no parameters to scan")
    zero = PPoly.zero(names)
    # each parameter over Q[names], and the facet offsets at them, all PPoly
    symbols = {n: pinned[n] if n in pinned else PPoly.var(names, n) for n in fam.param_names}
    offsets = [zero + c for c in fam.offsets(symbols)]
    forms = _locus_forms(loci, symbols, zero, step.denominator)
    # the multiples k * step below each upper bound: k = 1 .. ceil(upper / step) - 1
    counts = [-(-fam.scan_upper[n] // step) - 1 for n in names]
    if prod(counts) > MAX_SCAN_POINTS:
        raise toric.ToricError(f"a grid of {prod(counts)} points at step {step} exceeds "
                               f"the bound {MAX_SCAN_POINTS}")
    grids = [[k * step for k in range(1, count + 1)] for count in counts]
    points, skipped, hits = scan_grid(fam, offsets, grids, step.denominator, forms)
    if not points:
        raise toric.ToricError(
            f"no grid point of {family} at step {step} lies in the Kähler region")
    fits = tuple(LocusFit(eq, any(on) and all(pt.zero for pt, hit in zip(points, on) if hit),
                          sum(on))
                 for eq, on in zip(loci, zip(*hits)))
    covered = not loci or all(any(hit) for pt, hit in zip(points, hits) if pt.zero)
    zero_everywhere = all(pt.zero for pt in points)
    return ScanReport(family, step, tuple(points), skipped, fits, covered, zero_everywhere)


def _locus_forms(loci, symbols, zero, denominator):
    """Per locus equation, the differences of its sides as integer forms
    (``_integer_form``) in the scanned parameters, ``symbols`` (parameter
    name -> its PPoly or pinned value) substituted; ``zero`` is the zero
    PPoly.  A difference d is a PPoly in the family's parameters; its form is
    taken of d.den times d, which has the same zeros."""
    from .polyring import PolyError, parse_equations     # loaded on first use
    values = list(symbols.values())
    forms = []
    for eq in loci:
        try:
            differences = parse_equations(eq, tuple(symbols))
        except PolyError as exc:
            raise toric.ToricError(f"bad locus equation {eq!r}: {exc}") from exc
        forms.append([_integer_form(sum((c * prod(map(pow, values, e))
                                         for e, c in d.num.items()), zero),
                                    denominator) for d in differences])
    return forms


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

class _CellPolytope(toric.Polytope):
    """The polytopes of one cell, with PPoly vertex coordinates and offsets,
    labelled and ordered as at the sample point; every sign is read there."""

    __slots__ = ("sample",)

    def __init__(self, polytope, facets, vertices, sample):
        super().__init__(polytope.dim, facets, vertices, polytope.facet_cycles, polytope.tight)
        self.sample = sample

    def magnitude(self, x):
        return -x if x.evaluate(self.sample) < 0 else x


def numerators(fam, polytope, vertices, offsets, sample):
    """N_i = sigma-moment_i * volume - moment_i * sigma-mass over Q[scan
    names] on the cell of ``polytope``, the cell's point ``sample`` (scan
    name -> value), from its ``vertices`` (see ``cell_vertices``) and facet
    ``offsets`` over Q[scan names].

    Both route pairs must agree as polynomials, and the numerators must agree
    at the sample with those of the numeric integrals."""
    cell = _CellPolytope(polytope, [toric.Halfspace._checked(h.normal, c) for h, c
                                    in zip(polytope.halfspaces, offsets)], vertices, sample)
    vol, mom, mass, smoment = toric._integral_data(cell)
    result = tuple(s * vol - m * mass for s, m in zip(smoment, mom))
    vol, mom, mass, smoment = toric._integral_data(polytope)
    if any(n.evaluate(sample) != s * vol - m * mass for n, s, m in zip(result, smoment, mom)):
        raise toric.ToricError(f"cell numerators of {fam.name} disagree with the numeric "
                               f"Futaki vector at {sample}")
    return result


def slack_forms(polytope, vertices, offsets):
    """The chamber of the cell of ``polytope``, with ``vertices`` and
    ``offsets`` as for ``numerators``: ``offset_f - n_f . v`` for each vertex
    v and each facet f not in its ``polytope.tight``.  None when some vertex
    lies on more than ``dim`` facets.

    Where every form is positive, each vertex of the cell is a feasible simple
    vertex and every edge from it ends at another vertex of the cell, so by
    Balinski's theorem (the graph of a polytope is connected) these are all
    the vertices, with the same tight facets: the polytope builds and lies in
    this cell."""
    if any(len(on) != polytope.dim for on in polytope.tight):
        return None
    normals = [h.normal for h in polytope.halfspaces]
    return [offsets[f] - sum(map(mul, normals[f], v)) for on, v in zip(polytope.tight, vertices)
            for f in range(len(normals)) if f not in on]


def cell_vertices(polytope, offsets):
    """The vertices over Q[scanned names] of the cell of ``polytope``, with
    ``offsets`` the family's facet offsets as PPoly in the scanned names (see
    ``zero_locus_scan``).  Each vertex is A b / L, with (L, A) the solve of
    the first nonsingular subset of its ``polytope.tight`` facets in
    ``toric._vertex_solves`` and b the affine offsets.

    None when a vertex's other tight facets are not tight identically in the
    parameters: the cell is then a slice of parameter space (such as c = 4
    for a box cut by x + y + z <= c through its edge), where no polynomial
    identity holds, and each of its points is tested numerically."""
    normals = tuple(h.normal for h in polytope.halfspaces)
    common, solves = toric._vertex_solves(polytope.dim, normals)
    vertices = []
    for on in polytope.tight:
        combo, adj = next(s for s in solves if on.issuperset(s[0]))
        rhs = [offsets[f] for f in combo]
        vertex = tuple(sum(a * b for a, b in zip(row, rhs)) / common for row in adj)
        for f in on.difference(combo):
            if not (sum(n * x for n, x in zip(normals[f], vertex)) - offsets[f]).is_zero():
                return None
        vertices.append(vertex)
    return vertices


def scan_grid(fam, offsets, grids, denominator, loci):
    """(ScanPoint per in-region grid point in lexicographic order, count of
    grid points outside the Kähler region, per in-region point whether it
    lies on each locus) for ``zero_locus_scan``; ``offsets`` are the facet
    offsets over Q[scanned names] (see ``cell_vertices``), and ``loci``
    holds the integer forms of each locus (see ``_locus_forms``).

    ``grids`` holds the values of each scanned parameter, all multiples of
    1/``denominator``; a point is handled as the integer numerators of its
    values over that denominator.  The grid is swept one line at a time: a
    line fixes every scanned coordinate but the last, x.  On a line each
    affine form is positive on one interval of x, so the region forms (see
    ``region_forms``) give the line's in-region points at once, and the
    others are counted as skipped without a test or a build; each known
    chamber (see ``slack_forms``) is an interval too.  A point in a chamber
    is decided by the cell's numerators, each one integer polynomial in x
    on the line, evaluated by Horner's rule.  Any other in-region point is
    built: it opens a new cell or joins a cell without a chamber (a slice,
    or one with a non-simple vertex).  On a line with in-region points the
    locus forms become polynomials in x too, and every point is tested on
    them the same way."""
    names = offsets[0].names        # the scanned parameters
    region = region_forms(fam, offsets, denominator)
    *head_grids, last_grid = grids
    *head_integers, last = [[v.numerator * (denominator // v.denominator) for v in grid]
                            for grid in grids]
    bounds = (last[0], last[-1]) if last else (1, 0)
    cells = {}          # cell key -> integer numerator forms, None on a slice
    chambers = []       # (integer slack forms, cell key) per chamber
    points, hits = [], []
    skipped = 0
    for head, h in zip(product(*head_grids), product(*head_integers)):
        lo, hi = _line_interval(region, h, bounds)
        first, stop = bisect_left(last, lo), bisect_right(last, hi)
        skipped += len(last) - max(stop - first, 0)
        if first >= stop:
            continue
        on_line = [[_on_line(form, h) for form in forms] for forms in loci]
        intervals = [(_line_interval(slacks, h, bounds), key) for slacks, key in chambers]
        polys = {}      # cell key -> its numerators on this line
        for value, x in zip(last_grid[first:stop], last[first:stop]):
            values = (*head, value)
            key = next((key for (c_lo, c_hi), key in intervals if c_lo <= x <= c_hi), None)
            if key is None:
                sample = dict(zip(names, values))
                polytope = fam.build(**fam.fixed_for_scan, **sample)
                key = frozenset(polytope.tight)
                if key not in cells:
                    cells[key] = None
                    vertices = cell_vertices(polytope, offsets)
                    if vertices is not None:
                        nums = numerators(fam, polytope, vertices, offsets, sample)
                        cells[key] = [_integer_form(n, denominator) for n in nums]
                        slacks = slack_forms(polytope, vertices, offsets)
                        if slacks is not None:
                            chambers.append((_affine_forms(slacks, denominator), key))
                            intervals.append((_line_interval(chambers[-1][0], h, bounds), key))
            if cells[key] is None:
                zero = toric.futaki_vector(polytope).is_zero()
            else:
                if key not in polys:
                    polys[key] = [_on_line(form, h) for form in cells[key]]
                zero = not any(_horner(p, x) for p in polys[key])
            points.append(ScanPoint(tuple(zip(names, values)), zero))
            hits.append(tuple(not any(_horner(p, x) for p in locus) for locus in on_line))
    return points, skipped, hits


def region_forms(fam, offsets, denominator):
    """Integer affine forms (as for ``_affine_forms``) in the scanned
    parameters such that ``fam.build`` rejects the family's polytope
    {x : n_f . x <= offset_f} exactly where one of them is at most 0;
    ``offsets`` are as for ``cell_vertices``.

    The build succeeds exactly when every facet f supports a (dim-1)-face of
    a full-dimensional polytope, that is when for every f some x has
    n_f . x = offset_f and n_g . x < offset_g for every g != f.  By Motzkin's
    transposition theorem that system has no solution exactly when some
    lambda, not 0, with lambda_g >= 0 for g != f, lambda_f of either sign and
    sum lambda_g * n_g = 0 has sum lambda_g * offset_g <= 0; and lambda is
    then a positive sum of extreme rays of that pointed cone (Carathéodory),
    the circuits (minimal dependent sets of normals, so on at most dim + 1
    facets) with no negative weight off f, one of which is at most 0 too.
    So the forms are sum lambda_g * offset_g over the circuits lambda with at
    most one negative weight.

    A circuit is read from the scaled adjugate A = (L / det) adj of a
    nonsingular dim-subset S (``toric._vertex_solves``) and one more facet g:
    n_g = sum over f in S of mu_f * n_f with mu = n_g A / L, so L / |det| > 0
    times lambda is L at g and -mu_f * L on S.  The normals of a bounded
    family span, so every circuit appears this way, each positive facet as g."""
    normals = tuple(normal for normal, _ in fam.rows)
    circuits = set()
    common, solves = toric._vertex_solves(fam.dim, normals)
    for combo, adj in solves:
        for g in range(len(normals)):
            lam = [-sum(n * row[k] for n, row in zip(normals[g], adj)) for k in range(fam.dim)]
            if g not in combo and sum(x < 0 for x in lam) <= 1:
                lam.append(common)
                k = gcd(*lam)
                circuits.add(tuple((f, c // k) for f, c in zip((*combo, g), lam) if c))
    return _affine_forms([sum(c * offsets[f] for f, c in lam) for lam in sorted(circuits)],
                         denominator)


def _integer_form(poly, denominator):
    """(coefficient, exponents) pairs of the integer polynomial
    Z(m) = poly.den * D^deg * poly(m / D), D the grid denominator: Z has the
    sign of poly at m / D."""
    degree = max((sum(e) for e in poly.num), default=0)
    return [(c * denominator ** (degree - sum(e)), e) for e, c in poly.num.items()]


def _affine_forms(slacks, denominator):
    """The distinct slack forms as integer pairs (constant, coefficients) with
    constant + coefficients . m of the sign of the slack at m / D, each
    divided by the gcd of its integers."""
    forms = {}
    for slack in slacks:
        const, coeffs = 0, [0] * len(slack.names)
        for c, e in _integer_form(slack, denominator):
            if any(e):
                coeffs[e.index(1)] = c
            else:
                const = c
        g = gcd(const, *coeffs) or 1       # a zero form stays zero
        forms.setdefault((const // g, tuple(c // g for c in coeffs)), None)
    return list(forms)


def _line_interval(forms, head, bounds):
    """The interval (lo, hi) of the last coordinate x, within ``bounds``, on
    which every affine form of ``forms`` is positive on the line whose other
    coordinates are ``head``; lo > hi when it is empty.  On the line a form
    is c + k*x, positive for x >= -((c - 1) // k) when k > 0 and for
    x <= (c - 1) // -k when k < 0."""
    lo, hi = bounds
    for const, coeffs in forms:
        c = const + sum(map(mul, coeffs, head))
        k = coeffs[-1]
        if k > 0:
            lo = max(lo, -((c - 1) // k))
        elif k < 0:
            hi = min(hi, (c - 1) // -k)
        elif c <= 0:
            return bounds[1], bounds[0] - 1
    return lo, hi


def _on_line(form, head):
    """The coefficients, highest power first, of the integer polynomial
    ``form`` in the last coordinate on the line whose other coordinates are
    ``head``."""
    coeffs = {}
    for c, e in form:
        d = e[-1]
        coeffs[d] = coeffs.get(d, 0) + c * prod(map(pow, head, e))
    return [coeffs.get(d, 0) for d in range(max(coeffs, default=0), -1, -1)]


def _horner(coeffs, x):
    """The polynomial of ``coeffs`` (highest power first) at x, by Horner's
    rule (Knuth, The Art of Computer Programming, vol. 2, section 4.6.4)."""
    total = 0
    for c in coeffs:
        total = total * x + c
    return total
