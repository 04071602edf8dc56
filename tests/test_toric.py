import operator
import random
from fractions import Fraction

import pytest

from conftest import (halfspace_value, product_polytope, scaled, translated,
                      unimodular_image)
from futakizero.toric import (DegenerateError, FAMILIES, Halfspace,
                              KahlerRegionError, Polytope, ToricError,
                              UnboundedError, _integral_data, class_to_polytope,
                              donaldson_L, futaki_vector, zero_locus_scan)


def corpus():
    return [
        class_to_polytope("p1", a=2),
        class_to_polytope("p2", h=3),
        class_to_polytope("p1xp1", a=1, b=1),
        class_to_polytope("p1xp1", a=2, b=5),
        class_to_polytope("s6", a=1, b=1, c=1),
        class_to_polytope("s6", a=1, b=1, c=Fraction(1, 2)),
        class_to_polytope("s6", a=Fraction(1, 2), b=1, c=Fraction(3, 2)),
        class_to_polytope("p1xp2", a=2, h=3),
        class_to_polytope("p1cubed", a=2, b=2, c=2),
        class_to_polytope("p1cubed", a=1, b=2, c=3),
        class_to_polytope("p1xs6", t=2, a=1, b=1, c=1),
        class_to_polytope("bl2lines-p3", h=4, a=1, b=1),
        class_to_polytope("bl2lines-p3", h=4, a=1, b=2),
    ]


class TestVertices:
    def test_simplex(self):
        p = Polytope.from_halfspaces(2, [Halfspace((-1, 0), 0),
                                         Halfspace((0, -1), 0),
                                         Halfspace((1, 1), 3)])
        assert p.vertices == ((Fraction(0), Fraction(0)),
                              (Fraction(0), Fraction(3)),
                              (Fraction(3), Fraction(0)))

    def test_hexagon_vertices(self):
        p = class_to_polytope("s6", a=1, b=1, c=1)
        assert set(p.vertices) == {(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)}

    def test_inconsistent_halfspaces(self):
        with pytest.raises((DegenerateError, UnboundedError)):
            Polytope.from_halfspaces(1, [Halfspace((1,), 0), Halfspace((-1,), -1)])

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedError):
            Polytope.from_halfspaces(2, [Halfspace((-1, 0), 0),
                                         Halfspace((0, -1), 0),
                                         Halfspace((-1, -1), -1)])

    def test_normal_of_wrong_dimension_rejected(self):
        for dim, normals in ((2, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]),
                             (3, [(1, 0), (0, 1), (-1, -1)])):
            with pytest.raises(ToricError, match="dimension mismatch"):
                Polytope.from_halfspaces(dim, [Halfspace(n, 1) for n in normals])

    def test_nonprimitive_normal_rejected(self):
        with pytest.raises(ToricError):
            Halfspace((2, 4), 1)


class TestIntegrals:
    def test_unit_square(self):
        vol, mom, mass, smoment = _integral_data(class_to_polytope("p1xp1", a=1, b=1))
        assert vol == 1
        assert mom == (Fraction(1, 2), Fraction(1, 2))
        assert mass == 4
        assert [x / mass for x in smoment] == [Fraction(1, 2), Fraction(1, 2)]

    def test_triple_simplex(self):
        vol, mom, mass, smoment = _integral_data(class_to_polytope("p2", h=3))
        assert vol == Fraction(9, 2)
        assert [m / vol for m in mom] == [1, 1]
        assert mass == 9                 # each edge has lattice length 3
        assert [x / mass for x in smoment] == [1, 1]

    def test_rational_offsets(self):
        p = Polytope.from_halfspaces(1, [((-1,), 0), ((1,), Fraction(7, 2))])
        assert _integral_data(p)[0] == Fraction(7, 2)

    def test_hexagon_volume_by_corner_subtraction(self):
        p = class_to_polytope("s6", a=1, b=1, c=1)
        assert _integral_data(p)[0] == Fraction(9, 2) - 3 * Fraction(1, 2)

    def test_edge_lattice_length_gcd_rule(self):
        p = Polytope.from_halfspaces(2, [Halfspace((-1, 0), 0),
                                         Halfspace((2, -1), 0),
                                         Halfspace((0, 1), 4)])
        # the edge from (0,0) to (2,4) has lattice length gcd(2,4) = 2
        mass = _integral_data(p)[2]
        edge = next(h for h in p.halfspaces if h.normal == (2, -1))
        idx = p.halfspaces.index(edge)
        verts = p.facet_vertices(idx)
        assert sorted(verts) == [(0, 0), (2, 4)]
        from futakizero.toric import _edge_sigma
        assert _edge_sigma(p, edge.normal, *verts) == 2

    @pytest.mark.parametrize("family,params", [
        ("p2", {"h": 3}), ("s6", {"a": 1, "b": 1, "c": Fraction(1, 2)}),
        ("p1xp1", {"a": 1, "b": 2})])
    def test_each_edge_measured_once(self, monkeypatch, family, params):
        # an edge has one boundary measure: both boundary routes and the
        # divergence route read it
        from futakizero import toric
        calls = []
        real = toric._edge_sigma

        def counted(p, normal, v, w):
            calls.append(normal)
            return real(p, normal, v, w)

        monkeypatch.setattr(toric, "_edge_sigma", counted)
        p = class_to_polytope(family, **params)
        futaki_vector(p)
        assert sorted(calls) == sorted(h.normal for h in p.halfspaces)


class TestRouteSums:
    """Each route's lattice-normalised sums: V = d! vol, M = d! (d+1) moment,
    S = (d-1)! sigma-mass and T = d! sigma-moment."""

    FACTORIAL = (1, 1, 2, 6)

    @staticmethod
    def cube(d):
        rows = []
        for i in range(d):
            e = tuple(int(j == i) for j in range(d))
            rows += [Halfspace(tuple(-x for x in e), 0), Halfspace(e, 1)]
        return Polytope.from_halfspaces(d, rows)

    @staticmethod
    def simplex(d):
        rows = [Halfspace(tuple(-int(j == i) for j in range(d)), 0) for i in range(d)]
        return Polytope.from_halfspaces(d, rows + [Halfspace((1,) * d, 1)])

    @staticmethod
    def route_sums(p):
        from futakizero.toric import (_boundary_route_plane, _boundary_route_vertex,
                                      _solid_route_divergence, _solid_route_triangulation)
        # a point or an edge has one measure, so the plane route is 3-D only
        vertex = _boundary_route_vertex(p)
        return (_solid_route_triangulation(p), _solid_route_divergence(p),
                vertex, _boundary_route_plane(p) if p.dim == 3 else vertex)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_cube(self, d):
        # vol 1, moment 1/2 each, 2d unit facets of sigma-moment d per coordinate
        f = self.FACTORIAL[d]
        solid = (f, (f * (d + 1) // 2,) * d)
        boundary = (2 * f, (f * d,) * d)
        assert self.route_sums(self.cube(d)) == (solid, solid, boundary, boundary)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_standard_simplex(self, d):
        # vol 1/d!, moment 1/(d+1)! each; d + 1 unimodular facets, sigma-moment d/d!
        solid = (1, (1,) * d)
        boundary = (d + 1, (d,) * d)
        assert self.route_sums(self.simplex(d)) == (solid, solid, boundary, boundary)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_integral_data_divides_once(self, d):
        p = self.simplex(d)
        f = self.FACTORIAL
        vol, mom, mass, smoment = _integral_data(p)
        assert vol == Fraction(1, f[d])
        assert mom == (Fraction(1, f[d] * (d + 1)),) * d
        assert (mass, smoment) == (Fraction(d + 1, f[d - 1]), (Fraction(d, f[d]),) * d)
        assert all(type(x) is Fraction for x in (vol, mass))

    @pytest.mark.parametrize("route,message", [
        ("_solid_route_triangulation", "solid integral routes disagree"),
        ("_solid_route_divergence", "solid integral routes disagree"),
        ("_boundary_route_plane", "boundary routes disagree"),
        ("_boundary_route_vertex", "boundary routes disagree")])
    def test_corrupted_sum_raises(self, monkeypatch, route, message):
        from futakizero import toric
        real = getattr(toric, route)

        def corrupted(p):
            total, sums = real(p)
            return total + 1, sums

        monkeypatch.setattr(toric, route, corrupted)
        with pytest.raises(ToricError, match=message):
            futaki_vector(self.cube(3))

    @staticmethod
    def recycled(p, cycle):
        """p with its first facet walked as ``cycle``."""
        return Polytope(p.dim, p.halfspaces, p.vertices, (cycle,) + p.facet_cycles[1:])

    def test_misordered_cycle_raises(self):
        # a bowtie on x = 0, which holds vertex 0 and has offset 0, so the solid
        # routes skip it: the signed plane fan cancels, the vertex fan keeps |k|
        p = self.cube(3)
        a, b, c, *rest = p.facet_cycles[0]
        with pytest.raises(ToricError, match="boundary routes disagree"):
            futaki_vector(self.recycled(p, (a, c, b, *rest)))

    def test_reversed_cycle_agrees(self):
        p = self.cube(3)
        assert futaki_vector(self.recycled(p, p.facet_cycles[0][::-1])).is_zero()

    def test_centroid_fan_oracle(self):
        from futakizero.toric import _boundary_route_plane, _boundary_route_vertex
        polytopes = corpus() + [non_unit_polytope(rows) for rows in NON_UNIT_POLYTOPES]
        checked = 0
        for p in polytopes:
            if p.dim == 3:
                expected = _oracle_centroid_fans(p.halfspaces)
                assert _boundary_route_vertex(p) == expected
                assert _boundary_route_plane(p) == expected
                checked += 1
        assert checked == 7


def golden_points():
    """(family, params) of every point of the benchmark's toric goldens, each
    once, in the order of their text keys."""
    import json
    from pathlib import Path
    goldens = Path(__file__).resolve().parent.parent / "perfbench" / "goldens"
    seeds = json.loads((goldens / "toric_points.json").read_text("utf-8"))["seeds"]
    points = []
    for point in sorted({point for points in seeds.values() for point in points}):
        family, _, text = point.partition(" ")
        points.append((family, {k: Fraction(v) for k, _, v in
                                (item.partition("=") for item in text.split(","))}))
    return points


def _along(normal, vector):
    """+-k for a vector k * normal: <u, vector>, u = _unit_functional(normal)."""
    from futakizero.toric import _unit_functional
    (c, j), *rest = _unit_functional(normal)
    k = vector[j] if c == 1 else c * vector[j]
    for c, j in rest:
        k += c * vector[j]
    return k


# every normal of these has no entry +-1, so each coefficient is a sum of minors
NON_UNIT_POLYTOPES = (
    [((2, 3), 5), ((3, -2), 4), ((-2, -3), 0), ((-3, 2), 1), ((5, 2), 6)],
    [((2, 3, 0), 7), ((-2, -3, 0), 0), ((0, 2, 3), 5), ((0, -2, -3), 0), ((3, 0, 2), 4),
     ((-3, 0, -2), Fraction(1, 2)), ((2, 2, 3), 5)],
)


def non_unit_polytope(rows):
    """The polytope of (normal, offset) rows of NON_UNIT_POLYTOPES."""
    return Polytope.from_halfspaces(len(rows[0][0]), rows)


class TestMinorOracle:
    """Each lattice coefficient read as minors (``_minor_terms``) against the
    full cross product (the quarter turn in 2-D), <u, vector> with
    u = _unit_functional(normal), on every facet the routes measure."""

    @pytest.fixture
    def seen(self, monkeypatch):
        from futakizero import toric
        real_fan, real_edge = toric._fan_coefficients, toric._edge_sigma
        seen = {"fan": 0, "edge": 0, "terms": set(), "kinds": set()}

        def fan(normal, apex, rim):
            ks = real_fan(normal, apex, rim)
            e = [[x - a for x, a in zip(b, apex)] for b in rim]
            crosses = [_oracle_cross(x, y) for x, y in zip(e, e[1:])]
            assert ks == [_along(normal, c) for c in crosses]
            unit = sum(c * normal[j] for c, j in toric._unit_functional(normal))
            assert unit in (1, -1)
            assert crosses == [[unit * k * n for n in normal] for k in ks]
            seen["fan"] += len(ks)
            seen["terms"].add(len(toric._minor_terms(normal)))
            seen["kinds"].add(type(apex[0]).__name__)
            return ks

        def edge(p, normal, v, w):
            sigma = real_edge(p, normal, v, w)
            assert sigma == p.magnitude(_along(normal, (w[1] - v[1], v[0] - w[0])))
            seen["edge"] += 1
            seen["terms"].add(len(toric._minor_terms(normal)))
            return sigma

        monkeypatch.setattr(toric, "_fan_coefficients", fan)
        monkeypatch.setattr(toric, "_edge_sigma", edge)
        return seen

    def test_anticanonical_polytopes(self, seen):
        for family in FAMILIES:
            futaki_vector(class_to_polytope(family, **FAMILIES[family].anticanonical()))
        assert seen["fan"] > 0 and seen["edge"] > 0 and seen["terms"] == {1}

    def test_golden_points(self, seen):
        points = golden_points()
        built = 0
        for family, params in points:
            try:
                futaki_vector(class_to_polytope(family, **params))
                built += 1
            except KahlerRegionError:
                pass
        assert len(points) > 1000 and built > 900 and seen["fan"] > 10000

    def test_scan_cells(self, seen):
        for family in FAMILIES:
            zero_locus_scan(family, Fraction(1, 2))
        assert "PPoly" in seen["kinds"] and "Fraction" in seen["kinds"]

    def test_normals_without_unit_entries(self, seen):
        for rows in NON_UNIT_POLYTOPES:
            p = non_unit_polytope(rows)
            assert all(1 not in map(abs, h.normal) for h in p.halfspaces)
            futaki_vector(p)
        assert seen["fan"] > 0 and seen["edge"] > 0 and seen["terms"] == {2}

    @pytest.mark.parametrize("d", [2, 3])
    def test_wrong_minor_axis_raises(self, monkeypatch, d):
        # the next axis round: a facet x_j = const reads a minor on axis j,
        # where its edges have no extent, so only the triangulation sees the volume
        from futakizero import toric
        real = toric._minor_terms
        monkeypatch.setattr(toric, "_minor_terms", lambda normal: tuple(
            (c, tuple((a + 1) % d for a in axes)) for c, axes in real(normal)))
        with pytest.raises(ToricError, match="solid integral routes disagree"):
            toric._integral_data(TestRouteSums.cube(d))


class TestDonaldsonFunctional:
    def test_constant_is_annihilated(self):
        for p in corpus():
            assert donaldson_L(p, (1,) + (0,) * p.dim) == 0

    def test_triple_simplex_coordinate(self):
        assert donaldson_L(class_to_polytope("p2", h=3), (0, 1, 0)) == 0

    def test_asymmetric_hexagon_is_nonzero(self):
        p = class_to_polytope("s6", a=1, b=1, c=Fraction(1, 2))
        assert donaldson_L(p, (0, 1, 0)) != 0


class TestFutakiVector:
    def test_cube_is_zero(self):
        assert futaki_vector(class_to_polytope("p1cubed", a=2, b=2, c=2)).is_zero()

    def test_anticanonical_degree_family_is_zero(self):
        vec = futaki_vector(class_to_polytope("s6", a=Fraction(1, 2), b=1,
                                              c=Fraction(3, 2)))
        assert vec.is_zero()

    def test_off_family_hexagon_is_nonzero(self):
        vec = futaki_vector(class_to_polytope("s6", a=1, b=1, c=Fraction(1, 2)))
        assert not vec.is_zero()

    def test_anticanonical_zeros_for_all_builder_families(self):
        for family in FAMILIES:
            params = FAMILIES[family].anticanonical()
            vec = futaki_vector(class_to_polytope(family, **params))
            assert vec.is_zero(), family


class TestBuilders:
    def test_hexagon_hrep(self):
        p = class_to_polytope("s6", a=1, b=1, c=1)
        normals = {h.normal: h.offset for h in p.halfspaces}
        assert normals == {(-1, 0): 0, (0, -1): 0, (1, 1): 3,
                           (-1, -1): -1, (1, 0): 2, (0, 1): 2}

    def test_triple_simplex_builder(self):
        p = class_to_polytope("p2", h=3)
        assert _integral_data(p)[0] == Fraction(9, 2)

    def test_two_line_blowup_builder(self):
        p = class_to_polytope("bl2lines-p3", h=4, a=1, b=1)
        assert len(p.halfspaces) == 6
        # slab integral: vol = int_1^3 s*(4-s) ds with s = x2+x3
        assert _integral_data(p)[0] == Fraction(22, 3)

    def test_out_of_region_is_typed(self):
        with pytest.raises(KahlerRegionError):
            class_to_polytope("s6", a=2, b=2, c=2)
        with pytest.raises(KahlerRegionError):
            class_to_polytope("bl2lines-p3", h=4, a=3, b=2)

    def test_product_rows_match_product_polytope(self):
        cases = [("p1xp2", ("p1", {"a": 2}), ("p2", {"h": Fraction(5, 2)}),
                  {"a": 2, "h": Fraction(5, 2)}),
                 ("p1cubed", ("p1xp1", {"a": 1, "b": 3}), ("p1", {"a": Fraction(1, 2)}),
                  {"a": 1, "b": 3, "c": Fraction(1, 2)}),
                 ("p1xs6", ("p1", {"a": 2}), ("s6", {"a": 1, "b": 1, "c": Fraction(1, 2)}),
                  {"t": 2, "a": 1, "b": 1, "c": Fraction(1, 2)})]
        for family, (f1, p1), (f2, p2), params in cases:
            expected = product_polytope(class_to_polytope(f1, **p1),
                                        class_to_polytope(f2, **p2))
            built = class_to_polytope(family, **params)
            assert built.halfspaces == expected.halfspaces
            assert built.vertices == expected.vertices
            assert built.facet_cycles == expected.facet_cycles

    @pytest.mark.parametrize("value", ["x", None, float("nan"), "1/0"])
    def test_bad_parameter_value_names_the_parameter(self, value):
        with pytest.raises(ToricError, match=f"^parameter a = {value!r} is not a rational"):
            class_to_polytope("s6", b=1, c=1, a=value)

    def test_parameter_values_of_every_rational_kind(self):
        # the build sums offsets on integers over the lcm of the denominators
        expected = class_to_polytope("s6", a=Fraction(1, 2), b=1, c=Fraction(3, 4))
        for a, c in [(0.5, "3/4"), ("1/2", 0.75), (Fraction(2, 4), Fraction(6, 8))]:
            p = class_to_polytope("s6", a=a, b=True, c=c)
            assert p.halfspaces == expected.halfspaces
            assert all(type(h.offset) is Fraction for h in p.halfspaces)
        assert {h.offset for h in expected.halfspaces} == {0, 3, Fraction(-1, 2), 2,
                                                           Fraction(9, 4)}

    def test_bad_parameters_rejected(self):
        with pytest.raises(ToricError):
            class_to_polytope("s6", a=1, b=1)
        with pytest.raises(ToricError):
            class_to_polytope("s6", a=1, b=1, c=1, d=1)


class TestAnticanonical:
    """Each family's -K point solves offset_f = 1 + <n_f, t> over its rows."""

    POINTS = {"p1": {"a": 2}, "p2": {"h": 3}, "p1xp1": {"a": 2, "b": 2},
              "p1xp2": {"a": 2, "h": 3}, "p1cubed": {"a": 2, "b": 2, "c": 2},
              "s6": {"a": 1, "b": 1, "c": 1}, "p1xs6": {"t": 2, "a": 1, "b": 1, "c": 1},
              "bl2lines-p3": {"h": 4, "a": 1, "b": 1}}
    # d! vol of -K: the anticanonical degree (-K)^d
    DEGREES = {"p1": 2, "p2": 9, "p1xp1": 8, "p1xp2": 54, "p1cubed": 48, "s6": 6,
               "p1xs6": 36, "bl2lines-p3": 44}

    def test_points(self):
        assert {name: fam.anticanonical() for name, fam in FAMILIES.items()} == self.POINTS

    def test_each_system_has_full_column_rank(self, monkeypatch):
        from futakizero import ratlinalg
        real = ratlinalg.solve_generic
        systems = []

        def recorded(rows, targets):
            systems.append(rows)
            return real(rows, targets)

        monkeypatch.setattr(ratlinalg, "solve_generic", recorded)
        for fam in FAMILIES.values():
            fam.anticanonical()
            rows = systems[-1]
            assert len(rows[0]) == len(fam.param_names) + fam.dim
            assert len(ratlinalg.rref(rows)[1]) == len(rows[0]), fam.name
        assert len(systems) == len(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_reflexive_smooth_and_balanced(self, family):
        from math import factorial
        from futakizero.toric import _det
        p = FAMILIES[family].build(**FAMILIES[family].anticanonical())
        assert _integral_data(p)[0] * factorial(p.dim) == self.DEGREES[family]
        for v in p.vertices:
            normals = [h.normal for h in p.halfspaces
                       if sum(map(operator.mul, h.normal, v)) == h.offset]
            assert len(normals) == p.dim and abs(_det(normals)) == 1, v
            # a unimodular vertex cone of integer offsets: a lattice point,
            # so its coordinates are ints and the routes run on them
            assert all(type(x) is int for x in v), v
        assert futaki_vector(p).is_zero()

    # fractions _add/_sub/_mul/_div calls of the eight -K Futaki vectors: a
    # work counter of the integral routes that, unlike a time, repeats exactly
    FRACTION_OPERATIONS = 547

    def test_fraction_arithmetic_count(self):
        import fractions
        import sys
        polytopes = [fam.build(**fam.anticanonical()) for fam in FAMILIES.values()]
        operators = {"_add", "_sub", "_mul", "_div"}
        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_name in operators
                    and code.co_filename == fractions.__file__):
                calls.append(code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for p in polytopes:
                futaki_vector(p)
        finally:
            sys.setprofile(previous)
        assert len(calls) == self.FRACTION_OPERATIONS

    def test_no_anticanonical_point_raises(self):
        # [0, 1] with no parameters: the rows need t = 1 and t = 0
        from futakizero.toric import ToricFamily, _aff
        interval = ToricFamily("unit", (), (((-1,), _aff()), ((1,), _aff(1))), {}, {})
        with pytest.raises(ToricError, match="^unit: no parameters give the anticanonical "
                                             "polytope$"):
            interval.anticanonical()


class TestEquivariance:
    def test_translation_scaling_unimodular(self):
        rng = random.Random(41)
        polytopes = corpus()
        checked = 0
        while checked < 50:
            p = polytopes[checked % len(polytopes)]
            fv = futaki_vector(p).components
            t = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                 for _ in range(p.dim)]
            assert futaki_vector(translated(p, t)).components == fv
            k = Fraction(rng.randint(1, 5), rng.choice([1, 2]))
            assert futaki_vector(scaled(p, k)).components == tuple(k * c for c in fv)
            u = _random_unimodular(rng, p.dim)
            image = unimodular_image(p, u, t)
            expected = tuple(sum(Fraction(u[i][j]) * fv[j] for j in range(p.dim))
                             for i in range(p.dim))
            assert futaki_vector(image).components == expected
            checked += 1

    def test_mirror_symmetry_fixes_vector(self):
        # reflection (x, y) -> (y, x) maps the symmetric hexagon to itself
        p = class_to_polytope("s6", a=1, b=1, c=1)
        u = [[0, 1], [1, 0]]
        assert futaki_vector(unimodular_image(p, u)).components \
            == futaki_vector(p).components

    def test_dual_evaluation_paths_agree_on_corpus(self):
        from futakizero.toric import (_boundary_route_plane, _boundary_route_vertex,
                                      _solid_route_divergence, _solid_route_triangulation)
        for p in corpus():
            assert _solid_route_triangulation(p) == _solid_route_divergence(p)
            if p.dim == 3:
                assert _boundary_route_vertex(p) == _boundary_route_plane(p)

    def test_product_identity(self):
        rng = random.Random(43)
        two_d = [class_to_polytope("s6", a=1, b=1, c=Fraction(1, 2)),
                 class_to_polytope("p2", h=2),
                 class_to_polytope("p1xp1", a=1, b=3)]
        for trial in range(20):
            p = two_d[trial % len(two_d)]
            q = class_to_polytope("p1", a=Fraction(rng.randint(1, 6),
                                                   rng.choice([1, 2])))
            f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            lhs = donaldson_L(product_polytope(p, q), f + (0,))
            assert lhs == _integral_data(q)[0] * donaldson_L(p, f)
            rhs_zero = donaldson_L(product_polytope(q, p), (f[0], 0) + f[1:])
            assert rhs_zero == _integral_data(q)[0] * donaldson_L(p, f)


def _random_unimodular(rng, d):
    if d == 1:
        return [[rng.choice([1, -1])]]
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(4):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


class TestScan:
    def test_hexagon_zero_locus(self):
        report = zero_locus_scan("s6", Fraction(1, 4),
                                 loci=("c = 3 - a - b", "a = b = c"))
        assert report.covered
        assert all(f.on_locus_all_zero for f in report.loci)
        for pt in report.points:
            v = dict(pt.values)
            expected = (v["c"] == 3 - v["a"] - v["b"]) or (v["a"] == v["b"] == v["c"])
            assert pt.zero == expected

    def test_rectangles_zero_everywhere(self):
        report = zero_locus_scan("p1xp1", Fraction(1, 2))
        assert report.zero_everywhere

    def test_two_line_blowup_scan(self):
        report = zero_locus_scan("bl2lines-p3", Fraction(1, 4), loci=("a = b",))
        assert not report.zero_everywhere
        assert all(f.on_locus_all_zero for f in report.loci)
        # the zero set is strictly larger than the equal-depth locus on this grid
        assert not report.covered
        off = [dict(p.values) for p in report.points
               if p.zero and dict(p.values)["a"] != dict(p.values)["b"]]
        assert {tuple(sorted(d.items())) for d in off} == {
            (("a", Fraction(1, 4)), ("b", Fraction(9, 4))),
            (("a", Fraction(9, 4)), ("b", Fraction(1, 4)))}

    def test_grid_bound(self, monkeypatch):
        from futakizero import cells
        with pytest.raises(ToricError, match="a grid of 26999973000008999999 points"):
            zero_locus_scan("s6", Fraction(1, 1000000))
        # s6 at step 1/4 has 11^3 points: within a bound of 1331, over 1330
        monkeypatch.setattr(cells, "MAX_SCAN_POINTS", 1331)
        assert len(zero_locus_scan("s6", Fraction(1, 4)).points) == 290
        monkeypatch.setattr(cells, "MAX_SCAN_POINTS", 1330)
        with pytest.raises(ToricError, match="a grid of 1331 points at step 1/4 exceeds"):
            zero_locus_scan("s6", Fraction(1, 4))

    @pytest.mark.parametrize("step", ["x", None, "1/0"])
    def test_bad_step_is_named(self, step):
        # these used to end in a ValueError, TypeError and ZeroDivisionError
        with pytest.raises(ToricError, match=f"^grid step = {step!r} is not a rational"):
            zero_locus_scan("s6", step)

    def test_out_of_region_points_are_counted(self):
        report = zero_locus_scan("s6", Fraction(1, 2))
        assert report.skipped > 0

    def test_family_without_parameters_is_named(self, monkeypatch):
        # [-1, 1] has no parameter to scan: the sweep used to end in
        # ValueError: not enough values to unpack
        from futakizero import cells
        from futakizero.toric import FAMILIES, ToricFamily, _aff
        interval = ToricFamily("unit", (), (((-1,), _aff(1)), ((1,), _aff(1))), {}, {})
        monkeypatch.setitem(FAMILIES, "unit", interval)
        monkeypatch.setattr(cells, "scan_grid", None)     # never reached
        with pytest.raises(ToricError, match="^unit: no parameters to scan$"):
            zero_locus_scan("unit", Fraction(1, 4))

    @pytest.mark.parametrize("family,fixed", [
        ("p1xp1", {"a": 1}),
        ("bl2lines-p3", {"a": 1}),
        ("p1cubed", {"a": 1, "b": 2}),
        ("s6", {"b": Fraction(1, 2), "c": 1}),
        ("p1xs6", {"a": 1})])
    def test_pinned_scan_agrees_with_builds(self, monkeypatch, family, fixed):
        # a family pinning more of its parameters than it ships with
        fam = install_pinned(monkeypatch, family, fixed)
        report = zero_locus_scan(family, Fraction(1, 4))
        assert report.points
        assert all(set(dict(pt.values)) == set(fam.scan_upper) for pt in report.points)
        for pt in report.points:
            params = {**fam.fixed_for_scan, **dict(pt.values)}
            assert pt.zero == futaki_vector(fam.build(**params)).is_zero(), params

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_scan_data(self, family):
        # a scan sweeps at least one parameter and has an upper bound for
        # each parameter it sweeps and for no other
        fam = FAMILIES[family]
        assert set(fam.fixed_for_scan) <= set(fam.param_names)
        scanned = set(fam.param_names) - set(fam.fixed_for_scan)
        assert scanned and set(fam.scan_upper) == scanned

    @pytest.mark.parametrize("upper, fixed, message", [
        ({}, {"a": Fraction(1)}, r"scan bounds for \[\], not positive ones for each "
                                 r"unpinned parameter of \[\]"),
        ({}, {}, r"scan bounds for \[\], not positive ones for each unpinned "
                 r"parameter of \['a'\]"),
        ({"a": Fraction(0)}, {}, "not positive ones"),
        ({"a": Fraction(3), "b": Fraction(3)}, {}, r"scan bounds for \['a', 'b'\]"),
        ({"a": Fraction(3)}, {"b": Fraction(1)}, r"^p1: pinned \['b'\] are not parameters$"),
    ], ids=["all-pinned", "unbounded", "zero-bound", "extra-bound", "unknown-pin"])
    def test_bad_scan_data_is_rejected_at_construction(self, upper, fixed, message):
        # the first two once built and then failed inside zero_locus_scan,
        # with a ValueError and a KeyError
        from futakizero.toric import ToricFamily
        fam = FAMILIES["p1"]
        with pytest.raises(ToricError, match=message):
            ToricFamily("p1", fam.param_names, fam.rows, upper, fixed)


def install_pinned(monkeypatch, family, fixed):
    """Install, under its own name, a copy of ``family`` whose scans also
    pin ``fixed``; returns the copy."""
    from futakizero.toric import ToricFamily
    fam = FAMILIES[family]
    pins = {**fam.fixed_for_scan, **{n: Fraction(v) for n, v in fixed.items()}}
    upper = {n: u for n, u in fam.scan_upper.items() if n not in pins}
    copy = ToricFamily(family, fam.param_names, fam.rows, upper, pins)
    monkeypatch.setitem(FAMILIES, family, copy)
    return copy


def scan_offsets(fam):
    """The facet offsets of ``fam`` as PPoly in its scanned parameters, the
    pinned ones substituted, as ``zero_locus_scan`` builds them."""
    from futakizero.parampoly import PPoly
    pinned = fam.fixed_for_scan
    names = tuple(n for n in fam.param_names if n not in pinned)
    symbols = {n: pinned[n] if n in pinned else PPoly.var(names, n) for n in fam.param_names}
    return [PPoly.zero(names) + c for c in fam.offsets(symbols)]


class TestPackageImport:
    def test_toric_engine_loads_alone(self):
        import os
        import subprocess
        import sys
        code = ("import sys, futakizero.toric; "
                "print(sorted(m for m in sys.modules if m.startswith('futakizero')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                             check=True).stdout
        assert out.strip() == "['futakizero', 'futakizero.toric']"

    def test_every_public_name_resolves(self):
        import futakizero
        for name in futakizero.__all__:
            assert getattr(futakizero, name) is not None
        assert futakizero.Polytope is Polytope


class TestHalfspace:
    @pytest.mark.parametrize("normal", [(Fraction(3, 2), 1), (Fraction(1, 2), 0), (1.5, 1),
                                        ("x", 1), (float("inf"), 1)])
    def test_non_integer_normal_rejected(self, normal):
        with pytest.raises(ToricError, match="is not an integer"):
            Halfspace(normal, 3)

    @pytest.mark.parametrize("normal,message", [((0, 0), "zero normal"),
                                                ((2, 4), r"normal \(2, 4\) is not primitive")],
                             ids=["zero", "not-primitive"])
    def test_bad_normal_rejected(self, normal, message):
        with pytest.raises(ToricError, match=f"^{message}$"):
            Halfspace(normal, 1)

    @pytest.mark.parametrize("offset", ["x", float("nan"), None, "1/0"],
                             ids=["text", "nan", "none", "zero-division"])
    def test_bad_offset_rejected(self, offset):
        # each used to end in a ValueError, TypeError or ZeroDivisionError
        with pytest.raises(ToricError, match=r"^offset of normal \(1, 0\) = .* is not a "
                                             r"rational number$"):
            Halfspace((1, 0), offset)

    def test_integral_entries_accepted(self):
        assert Halfspace((Fraction(2), 1.0, True), 1).normal == (2, 1, 1)
        assert all(type(n) is int for n in Halfspace((Fraction(-1), 0), 1).normal)

    def test_family_normals_checked_once_at_declaration(self, monkeypatch):
        from futakizero.toric import _aff, _family
        with pytest.raises(ToricError, match=r"normal \(2,\) is not primitive"):
            _family("bad", ("a",), (((-1,), _aff()), ((2,), _aff(a=2))), {"a": 2})
        checks = []
        real = Halfspace.__init__

        def counted(self, *args):
            checks.append(args)
            real(self, *args)

        monkeypatch.setattr(Halfspace, "__init__", counted)
        p = class_to_polytope("bl2lines-p3", h=4, a=1, b=Fraction(3, 2))
        assert checks == [] and len(p.halfspaces) == 6


# ---------------------------------------------------------------------------
# oracle: vertex enumeration by Fraction Cramer solves on every facet subset
# ---------------------------------------------------------------------------

def _oracle_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _oracle_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _oracle_cramer(rows, rhs):
    det = _oracle_det(rows)
    if det == 0:
        return None
    d = len(rows)
    return tuple(_oracle_det([[rhs[i] if k == j else Fraction(rows[i][k]) for k in range(d)]
                              for i in range(d)]) / det
                 for j in range(d))


def _oracle_rank(rows):
    from futakizero.ratlinalg import rref
    return len(rref([[Fraction(x) for x in r] for r in rows])[1]) if rows else 0


def _oracle_affine_rank(points):
    return _oracle_rank([[x - b for x, b in zip(p, points[0])] for p in points[1:]])


def _oracle_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _oracle_order_polygon(normal, labelled):
    from functools import cmp_to_key
    k = len(labelled)
    centroid = [sum(p[i] for _, p in labelled) / k for i in range(3)]
    b1 = [labelled[0][1][i] - centroid[i] for i in range(3)]
    b2 = _oracle_cross([Fraction(n) for n in normal], b1)

    def plane(p):
        d = [p[i] - centroid[i] for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det != 0:
                return ((d[i] * b2[j] - d[j] * b2[i]) / det,
                        (b1[i] * d[j] - b1[j] * d[i]) / det)
        raise DegenerateError("degenerate plane basis")

    def half(q):
        return 0 if (q[1] > 0 or (q[1] == 0 and q[0] > 0)) else 1

    def compare(a, b):
        qa, qb = a[1], b[1]
        if half(qa) != half(qb):
            return -1 if half(qa) < half(qb) else 1
        cross = qa[0] * qb[1] - qa[1] * qb[0]
        if cross == 0:
            raise DegenerateError("repeated direction on facet polygon")
        return -1 if cross > 0 else 1

    planar = sorted(((idx, plane(p)) for idx, p in labelled), key=cmp_to_key(compare))
    return tuple(idx for idx, _ in planar)


def _oracle_centroid_fans(halfspaces):
    """(S, T) of a 3-D boundary from ``oracle_polytope``: each facet fanned
    from its centroid g, |k| = |<(b - g) x (c - g), n>| / <n, n> per triangle."""
    vertices, cycles = oracle_polytope(3, halfspaces)
    mass, moment = 0, [0, 0, 0]
    for h, cycle in zip(halfspaces, cycles):
        n = h.normal
        polygon = [vertices[i] for i in cycle]
        g = [sum(v[i] for v in polygon) / len(polygon) for i in range(3)]
        for b, c in zip(polygon, polygon[1:] + polygon[:1]):
            cross = _oracle_cross([x - y for x, y in zip(b, g)], [x - y for x, y in zip(c, g)])
            k = abs(Fraction(sum(x * y for x, y in zip(cross, n)), sum(x * x for x in n)))
            mass += k
            moment = [m + k * (g[i] + b[i] + c[i]) for i, m in enumerate(moment)]
    return mass, tuple(moment)


def oracle_polytope(dim, halfspaces):
    """(vertices, facet_cycles) of Polytope.from_halfspaces, on Fractions."""
    from itertools import combinations
    if dim not in (1, 2, 3):
        raise ToricError("only dimensions 1..3 are supported")
    halfspaces = [h if isinstance(h, Halfspace) else Halfspace(*h) for h in halfspaces]
    normals = [h.normal for h in halfspaces]
    if len(set(normals)) != len(halfspaces):
        raise ToricError("repeated facet normal")
    if dim > 1 and _oracle_rank(normals) < dim:
        raise UnboundedError("normals do not span the space")
    if dim == 1:
        rays = [(1,), (-1,)]
    elif dim == 2:
        rays = [r for n in normals for r in ((-n[1], n[0]), (n[1], -n[0]))]
    else:
        rays = [r for a, b in combinations(normals, 2) if any(_oracle_cross(a, b))
                for r in (tuple(_oracle_cross(a, b)), tuple(-x for x in _oracle_cross(a, b)))]
    for ray in rays:
        if all(sum(n * r for n, r in zip(normal, ray)) <= 0 for normal in normals):
            raise UnboundedError(f"recession direction {ray}")
    seen = {}
    for combo in combinations(halfspaces, dim):
        point = _oracle_cramer([h.normal for h in combo], [h.offset for h in combo])
        if point is not None and all(halfspace_value(h, point) <= h.offset for h in halfspaces):
            seen[point] = None
    vertices = sorted(seen)
    if not vertices:
        raise DegenerateError("no vertices: empty or degenerate halfspace system")
    if _oracle_affine_rank(vertices) != dim:
        raise DegenerateError("lower-dimensional input")
    cycles = []
    for f, h in enumerate(halfspaces):
        incident = [i for i, v in enumerate(vertices) if halfspace_value(h, v) == h.offset]
        if dim == 1 and len(incident) != 1:
            raise DegenerateError(f"facet {f} does not support a point")
        if dim == 2 and len(incident) != 2:
            raise DegenerateError(f"facet {f} does not support an edge")
        if dim < 3:
            cycles.append(tuple(incident))
            continue
        if len(incident) < 3 or _oracle_affine_rank([vertices[i] for i in incident]) != 2:
            raise DegenerateError(f"facet {f} does not support a 2-face")
        cycles.append(_oracle_order_polygon(h.normal, [(i, vertices[i]) for i in incident]))
    return tuple(vertices), tuple(cycles)


def _outcome(build, *args):
    try:
        result = build(*args)
    except ToricError as exc:
        return type(exc), str(exc)
    if isinstance(result, Polytope):
        return result.vertices, result.facet_cycles
    return result


def _random_system(rng):
    """A box with random cuts, or (one time in four) arbitrary halfspaces;
    offsets have denominators up to 12."""
    from math import gcd
    dim = rng.randint(1, 3)

    def offset(lo, hi):
        q = rng.randint(1, 12)
        return Fraction(rng.randint(lo * q, hi * q), q)

    def normal():
        while True:
            n = [rng.randint(-3, 3) for _ in range(dim)]
            g = gcd(*n)
            if g:
                return tuple(x // g for x in n)

    if rng.random() < 0.25:
        return dim, [Halfspace(normal(), offset(-3, 6)) for _ in range(rng.randint(1, 6))]
    system = {}
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        system[e] = offset(1, 4)
        system[tuple(-x for x in e)] = offset(-1, 1)
    for _ in range(rng.randint(0, 4)):
        system.setdefault(normal(), offset(-2, 6))
    items = list(system.items())
    rng.shuffle(items)
    return dim, [Halfspace(n, c) for n, c in items]


class TestIntegerKernelOracle:
    def test_random_systems(self):
        from itertools import combinations

        from futakizero.toric import _det
        rng = random.Random(20231)
        kinds = set()
        negative = 0
        for _ in range(400):
            dim, hs = _random_system(rng)
            expected = _outcome(oracle_polytope, dim, hs)
            assert _outcome(Polytope.from_halfspaces, dim, hs) == expected, hs
            kinds.add(expected[0] if isinstance(expected[0], type) else (dim, "ok"))
            negative += any(_det([h.normal for h in combo]) < 0
                            for combo in combinations(hs, dim))
        assert {(1, "ok"), (2, "ok"), (3, "ok"), DegenerateError, UnboundedError,
                ToricError} <= kinds
        assert negative > 0

    def test_non_simple_vertices_and_empty_systems(self):
        octahedron = [Halfspace((x, y, z), 1) for x in (1, -1) for y in (1, -1)
                      for z in (1, -1)]
        pyramid = [Halfspace((0, 0, -1), 0), Halfspace((1, 0, 1), 1),
                   Halfspace((-1, 0, 1), 1), Halfspace((0, 1, 1), 1),
                   Halfspace((0, -1, 1), 1)]
        # a cut through a vertex of a triangle supports no edge
        triangle_cut = [Halfspace((-1, 0), 0), Halfspace((0, -1), 0),
                        Halfspace((1, 1), 3), Halfspace((1, 0), 3)]
        cases = [(3, octahedron), (3, pyramid), (2, triangle_cut)]
        for dim, hs in cases + [(dim, []) for dim in (1, 2, 3)]:
            expected = _outcome(oracle_polytope, dim, hs)
            assert _outcome(Polytope.from_halfspaces, dim, hs) == expected
        assert len(oracle_polytope(3, octahedron)[0]) == 6
        assert len(oracle_polytope(3, pyramid)[1][0]) == 4

    def test_pentagon_facet(self):
        # the cut x + y + z <= 5 leaves pentagons on the three facets x, y, z = 2
        cube = [Halfspace(tuple(s * int(j == i) for j in range(3)), 2 if s > 0 else 0)
                for i in range(3) for s in (1, -1)]
        hs = cube + [Halfspace((1, 1, 1), 5)]
        vertices, cycles = _outcome(Polytope.from_halfspaces, 3, hs)
        assert (vertices, cycles) == _outcome(oracle_polytope, 3, hs)
        assert sorted(len(c) for c in cycles) == [3, 4, 4, 4, 5, 5, 5]

    @pytest.mark.parametrize("first", [False, True])
    def test_redundant_halfspace_along_an_edge(self, first):
        # x + y <= 2 touches the unit cube only along its edge x = y = 1; last,
        # it doubles the shared facet of that edge in the walks of x = 1, y = 1
        cube = [Halfspace(tuple(s * int(j == i) for j in range(3)), 1 if s > 0 else 0)
                for i in range(3) for s in (1, -1)]
        edge = Halfspace((1, 1, 0), 2)
        hs = [edge] + cube if first else cube + [edge]
        expected = (DegenerateError, f"facet {0 if first else 6} does not support a 2-face")
        assert _outcome(oracle_polytope, 3, hs) == expected
        assert _outcome(Polytope.from_halfspaces, 3, hs) == expected

    def test_closed_form_determinants(self):
        from futakizero.toric import _adjugate, _det
        rng = random.Random(20232)

        def oracle_adjugate(rows):
            d = len(rows)
            if d == 1:
                return [[1]]
            return [[(-1) ** (i + j) * _oracle_det([r[:i] + r[i + 1:]
                                                    for k, r in enumerate(rows) if k != j])
                     for j in range(d)] for i in range(d)]

        for _ in range(300):
            d = rng.randint(1, 3)
            if rng.random() < 0.5:
                rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            else:
                rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d)]
                        for _ in range(d)]
            if rng.random() < 0.2:      # a singular matrix
                rows[-1] = [2 * x for x in rows[0]]
            det = _det(rows)
            assert det == _oracle_det(rows)
            adj = _adjugate(rows)
            assert adj == oracle_adjugate(rows)
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)]
                    for row in rows] == [[det * (i == j) for j in range(d)] for i in range(d)]

    def test_flat_systems(self):
        # opposite halfspaces with equal offsets pin a coordinate or a
        # direction, so the system cuts out a point, segment or polygon; the
        # oracle finds it flat by elimination, the build by a facet tight at
        # every vertex, before any facet walk
        def box(dim, upper):
            return [Halfspace(tuple(s * int(j == i) for j in range(dim)), upper if s > 0 else 0)
                    for i in range(dim) for s in (1, -1)]

        def pinned(normal, c):
            return [Halfspace(normal, c), Halfspace(tuple(-n for n in normal), -c)]

        half = Fraction(3, 2)
        cases = [
            (1, pinned((1,), half)),                                            # point
            (1, pinned((1,), -2)),                                              # point
            (2, pinned((1, 0), half) + box(2, 2)[2:]),                          # segment
            (2, box(2, 2)[:2] + pinned((1, 1), 1)),                             # segment
            (3, box(3, 2)[:4] + pinned((0, 0, 1), 1)),                          # square
            (3, box(3, 2) + pinned((1, 1, 1), 3)),                              # hexagon
            (3, box(3, 2)[:2] + pinned((0, 1, 0), half) + pinned((0, 0, 1), 1)),  # segment
            (3, pinned((1, 0, 0), 1) + pinned((0, 1, 0), 0) + pinned((0, 0, 1), half)),  # point
        ]
        expected = (DegenerateError, "lower-dimensional input")
        for dim, hs in cases:
            assert _outcome(oracle_polytope, dim, hs) == expected, hs
            assert _outcome(Polytope.from_halfspaces, dim, hs) == expected, hs

    @pytest.mark.parametrize("family,points", [("s6", 1331), ("bl2lines-p3", 225)])
    def test_scan_grids(self, family, points):
        # the halfspace system of every grid point of the scan, built directly:
        # the scan itself builds only points outside its known chambers
        fam = FAMILIES[family]
        names = [n for n in fam.param_names if n not in fam.fixed_for_scan]
        step = Fraction(1, 4)
        combos = [()]
        for n in names:
            combos = [c + (k * step,) for c in combos
                      for k in range(1, int(fam.scan_upper[n] / step) + 1)
                      if k * step < fam.scan_upper[n]]
        systems = []
        for combo in combos:
            values = dict(fam.fixed_for_scan, **dict(zip(names, combo)))
            systems.append((fam.dim, [Halfspace(normal, offset) for (normal, _), offset
                                      in zip(fam.rows, fam.offsets(values))]))
        report = zero_locus_scan(family, step)
        assert len(report.points) + report.skipped == len(systems) == points
        for dim, hs in systems:
            assert (_outcome(Polytope.from_halfspaces, dim, hs)
                    == _outcome(oracle_polytope, dim, hs))


class TestIntegralCoordinates:
    """Integral vertex coordinates are ints, so the routes add and multiply
    ints there; the totals are those of the same polytope with every
    coordinate a Fraction."""

    @staticmethod
    def check(p):
        """(int coordinates, Fraction coordinates) of p, after checking its
        coordinate types and its totals against all-Fraction coordinates."""
        coordinates = [x for v in p.vertices for x in v]
        ints = sum(type(x) is int for x in coordinates)
        fractions = sum(type(x) is Fraction and x.denominator > 1 for x in coordinates)
        assert ints + fractions == len(coordinates), p.vertices
        totals = _integral_data(p)
        vol, mom, mass, smoment = totals
        assert all(type(x) is Fraction for x in (vol, *mom, mass, *smoment)), totals
        as_fractions = Polytope(p.dim, p.halfspaces,
                                [tuple(map(Fraction, v)) for v in p.vertices], p.facet_cycles)
        assert totals == _integral_data(as_fractions), p.vertices
        return ints, fractions

    def test_golden_points(self):
        built = ints = fractions = 0
        for family, params in golden_points():
            try:
                p = class_to_polytope(family, **params)
            except KahlerRegionError:
                continue
            built += 1
            i, f = self.check(p)
            ints += i
            fractions += f
        assert built > 900 and ints > 10000 and fractions > 5000

    def test_random_systems(self):
        rng = random.Random(20233)
        built = ints = fractions = 0
        for _ in range(400):
            try:
                p = Polytope.from_halfspaces(*_random_system(rng))
            except ToricError:
                continue
            built += 1
            i, f = self.check(p)
            ints += i
            fractions += f
        assert built > 150 and ints > 200 and fractions > 500


# ---------------------------------------------------------------------------
# oracle: the per-point scan, a numeric Futaki vector at every in-region point
# ---------------------------------------------------------------------------

def oracle_scan(family, step, loci=()):
    """ScanReport of zero_locus_scan computed point by point."""
    from futakizero.cells import LocusFit, ScanPoint, ScanReport
    fam = FAMILIES[family]
    pinned = fam.fixed_for_scan
    names = [n for n in fam.param_names if n not in pinned]
    grids = [[k * step for k in range(1, int(fam.scan_upper[n] / step) + 2)
              if k * step < fam.scan_upper[n]] for n in names]
    combos = [()]
    for grid in grids:
        combos = [c + (v,) for c in combos for v in grid]
    points, skipped = [], 0
    for combo in combos:
        params = dict(pinned, **dict(zip(names, combo)))
        try:
            polytope = fam.build(**params)
        except KahlerRegionError:
            skipped += 1
            continue
        points.append(ScanPoint(tuple(zip(names, combo)), futaki_vector(polytope).is_zero()))
    fits, on_some = [], set()
    for eq in loci:
        on = [i for i, pt in enumerate(points) if _locus_holds(eq, dict(pt.values, **pinned))]
        on_some.update(on)
        # a locus with no grid point on it is untested, not confirmed
        fits.append(LocusFit(eq, bool(on) and all(points[i].zero for i in on), len(on)))
    covered = all(i in on_some for i, pt in enumerate(points) if pt.zero) if loci else True
    return ScanReport(family, step, tuple(points), skipped, tuple(fits), covered,
                      bool(points) and all(pt.zero for pt in points))


def _locus_holds(equation, values):
    """Every side of a linear locus equation evaluates to the same Fraction
    at ``values``: a hand-written evaluator, independent of the polynomial
    parser that the scan uses."""
    sides = equation.split("=")
    if len(sides) < 2:
        raise ToricError(f"bad locus equation {equation!r}")
    evaluated = [_eval_linear(side, values) for side in sides]
    return all(v == evaluated[0] for v in evaluated[1:])


def _eval_linear(text, values):
    tokens = _linear_tokens(text)
    pos = [0]

    def expr():
        value = term()
        while pos[0] < len(tokens) and tokens[pos[0]] in "+-":
            op = tokens[pos[0]]
            pos[0] += 1
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = atom()
        while pos[0] < len(tokens) and tokens[pos[0]] in "*/":
            op = tokens[pos[0]]
            pos[0] += 1
            rhs = atom()
            value = value * rhs if op == "*" else value / rhs
        return value

    def atom():
        tok = tokens[pos[0]]
        if tok == "-":
            pos[0] += 1
            return -atom()
        if tok == "(":
            pos[0] += 1
            value = expr()
            if tokens[pos[0]] != ")":
                raise ToricError(f"unbalanced parenthesis in {text!r}")
            pos[0] += 1
            return value
        pos[0] += 1
        if tok.replace("/", "").isdigit():
            return Fraction(tok)
        if tok in values:
            return Fraction(values[tok])
        raise ToricError(f"unknown symbol {tok!r} in locus equation")

    value = expr()
    if pos[0] != len(tokens):
        raise ToricError(f"trailing input in locus equation {text!r}")
    return value


def _linear_tokens(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ToricError(f"bad character {ch!r} in locus equation")
    return tokens


HEXAGON_LOCI = ("c = 3 - a - b", "a = b = c")
SCAN_LOCI = {"s6": HEXAGON_LOCI, "p1xs6": HEXAGON_LOCI, "bl2lines-p3": ("a = b",),
             "p1xp1": ("a = b",)}


def _cut_cube():
    """[0,2]^3 cut by b <= x + y + z <= c: several combinatorial cells on one
    grid, the slices b = 2 and c = 4 with non-simple vertices, and zeros on
    the centrally symmetric members b + c = 6 and on c = b + 2."""
    from futakizero.toric import ToricFamily, _aff
    rows = (((-1, 0, 0), _aff()), ((0, -1, 0), _aff()), ((0, 0, -1), _aff()),
            ((1, 0, 0), _aff(2)), ((0, 1, 0), _aff(2)), ((0, 0, 1), _aff(2)),
            ((-1, -1, -1), _aff(b=-1)), ((1, 1, 1), _aff(c=1)))
    return ToricFamily("cut-cube", ("b", "c"), rows, {"b": Fraction(3), "c": Fraction(6)}, {})


class TestCellScanOracle:
    @pytest.mark.parametrize("family,step", [(f, Fraction(1, 4)) for f in FAMILIES]
                             + [("s6", Fraction(1, 3)), ("bl2lines-p3", Fraction(1, 3))])
    def test_catalog_families(self, family, step):
        loci = SCAN_LOCI.get(family, ())
        assert zero_locus_scan(family, step, loci=loci) == oracle_scan(family, step, loci)

    @pytest.mark.parametrize("family,step,fixed", [
        # a step whose numerator is not 1: grid numerators 3, 6, 9, ...
        ("s6", Fraction(3, 8), None),
        ("bl2lines-p3", Fraction(3, 8), None),
        # one grid value per coordinate: a grid of one point
        ("p1xp1", Fraction(3, 2), None),
        ("p1xp2", Fraction(3, 2), None),
        # one scanned coordinate: the grid is one line
        ("p1", Fraction(1, 8), None),
        ("p2", Fraction(1, 8), None),
        # (None: the family as shipped; else pins added to its fixed_for_scan)
        ("p1xs6", Fraction(1, 8), {"a": 1, "b": 1})])
    def test_line_sweep_edges(self, monkeypatch, family, step, fixed):
        if fixed:
            install_pinned(monkeypatch, family, fixed)
        loci = SCAN_LOCI.get(family, ())
        report = zero_locus_scan(family, step, loci=loci)
        assert report == oracle_scan(family, step, loci)
        if family in ("p1xp1", "p1xp2"):
            assert len(report.points) == 1

    def test_lines_cross_several_chambers_and_a_slice(self, monkeypatch):
        from futakizero.cells import _tight_sets
        monkeypatch.setitem(FAMILIES, "cut-cube", _cut_cube())
        step, loci = Fraction(1, 3), ("b + c = 6", "c = b + 2")
        report = zero_locus_scan("cut-cube", step, loci=loci)
        assert report == oracle_scan("cut-cube", step, loci)
        # the line b = 1 meets at least two chambers and the slice c = 4
        line = [dict(pt.values) for pt in report.points if pt.values[0] == ("b", 1)]
        cells = {frozenset(_tight_sets(FAMILIES["cut-cube"].build(**v))) for v in line}
        slices = [cell for cell in cells if any(len(t) > 3 for t in cell)]
        assert slices and len(cells) - len(slices) >= 2
        assert {"b": 1, "c": 4} in line

    @staticmethod
    def record_cells(monkeypatch):
        # each cell opened: its tight sets, and its vertices (None on a slice)
        from futakizero import cells as cell_engine
        real = cell_engine.cell_vertices
        cells = []

        def recording(polytope, tight, offsets):
            solved = real(polytope, tight, offsets)
            cells.append((tight, solved))
            return solved

        monkeypatch.setattr(cell_engine, "cell_vertices", recording)
        return cells

    def test_several_cells_on_one_grid(self, monkeypatch):
        monkeypatch.setitem(FAMILIES, "cut-cube", _cut_cube())
        cells = self.record_cells(monkeypatch)
        step, loci = Fraction(1, 2), ("b + c = 6", "c = b + 2")
        report = zero_locus_scan("cut-cube", step, loci=loci)
        assert report == oracle_scan("cut-cube", step, loci)
        assert len(cells) == len({frozenset(tight) for tight, _ in cells}) >= 5
        # vertices on four facets at b = 2 or c = 4 only: slices, tested point by point
        slices = [tight for tight, solved in cells if solved is None]
        assert slices and all(any(len(t) > 3 for t in tight) for tight in slices)
        assert sum(solved is not None for _, solved in cells) >= 3
        assert report.covered and all(f.on_locus_all_zero for f in report.loci)
        assert not report.zero_everywhere

    def test_non_simple_vertex_of_every_member(self, monkeypatch):
        from futakizero.toric import ToricFamily, _aff
        # a square pyramid: four facets meet at the apex for every a
        rows = (((0, 0, -1), _aff()),) + tuple(
            (normal, _aff(a=1)) for normal in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)))
        monkeypatch.setitem(FAMILIES, "pyramid", ToricFamily(
            "pyramid", ("a",), rows, {"a": Fraction(3)}, {}))
        cells = self.record_cells(monkeypatch)
        report = zero_locus_scan("pyramid", Fraction(1, 4))
        assert report == oracle_scan("pyramid", Fraction(1, 4))
        [(tight, solved)] = cells
        assert solved is not None and max(len(t) for t in tight) == 4

    def test_sample_disagreement_raises(self, monkeypatch):
        # the integrals of each built polytope shifted, the cells' left as they are
        from futakizero import toric
        real = toric._integral_data

        def shifted(p):
            vol, mom, mass, smoment = real(p)
            if type(p) is toric.Polytope:
                smoment = tuple(x + 1 for x in smoment)
            return vol, mom, mass, smoment

        monkeypatch.setattr(toric, "_integral_data", shifted)
        with pytest.raises(ToricError, match="disagree with the numeric Futaki vector"):
            zero_locus_scan("s6", Fraction(1, 2))

    def test_symbolic_route_disagreement_raises(self, monkeypatch):
        from futakizero import toric
        real = toric._solid_route_divergence

        def shifted(p):
            vol, mom = real(p)
            return vol, (mom[0] + 1,) + mom[1:]

        monkeypatch.setattr(toric, "_solid_route_divergence", shifted)
        with pytest.raises(ToricError, match="solid integral routes disagree"):
            zero_locus_scan("bl2lines-p3", Fraction(1, 2))


class TestCellNumerators:
    """The catalog loci divide every Futaki numerator of the scanned cell."""

    @staticmethod
    def numerators(family, **params):
        from futakizero.cells import _tight_sets, cell_vertices, numerators
        fam = FAMILIES[family]
        params = {n: Fraction(v) for n, v in params.items()}
        polytope = fam.build(**params)
        names = [n for n in fam.param_names if n not in fam.fixed_for_scan]
        solved = cell_vertices(polytope, _tight_sets(polytope), scan_offsets(fam))
        return numerators(fam, polytope, solved, {n: params[n] for n in names})

    def test_hexagon_numerators_vanish_on_anticanonical_degree(self):
        from futakizero.parampoly import PPoly, exact_div
        numerators = self.numerators("s6", a=1, b=1, c=Fraction(1, 2))
        a, b, c = (PPoly.var(("a", "b", "c"), n) for n in "abc")
        for n in numerators:
            assert not n.is_zero()
            exact_div(n, a + b + c - 3)

    def test_two_line_blowup_numerators_vanish_on_diagonal_and_parabola(self):
        from futakizero.parampoly import ParamPolyError, PPoly, exact_div
        numerators = self.numerators("bl2lines-p3", h=4, a=1, b=2)
        a, b = (PPoly.var(("a", "b"), n) for n in "ab")
        parabola = (a - b) * (a - b) - 8 * (a + b) + 16
        for n in numerators:
            assert not n.is_zero()
            exact_div(exact_div(n, a - b), parabola)
            with pytest.raises(ParamPolyError):
                exact_div(n, a + b - 3)


class TestChambers:
    """The chamber of each family's anticanonical cell decides the cell as
    ``fam.build`` does."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_chamber_against_build(self, family):
        from futakizero.cells import _tight_sets, cell_vertices, slack_forms
        fam = FAMILIES[family]
        pinned = dict(fam.fixed_for_scan)
        names = [n for n in fam.param_names if n not in pinned]
        sample = dict(fam.anticanonical(), **pinned)
        polytope = fam.build(**sample)
        tight = _tight_sets(polytope)
        key = frozenset(tight)
        slacks = slack_forms(polytope, tight, cell_vertices(polytope, tight, scan_offsets(fam)))
        rng = random.Random(f"chamber-{family}")

        def random_value(n):
            den = rng.randint(1, 12)
            return Fraction(rng.randint(0, int(fam.scan_upper[n] * den)), den)

        points = [{n: random_value(n) for n in names} for _ in range(160)]
        walls = 0
        while walls < 40:
            # a point where one slack vanishes: solve it for one of its parameters
            slack = rng.choice(slacks)
            values = {n: random_value(n) for n in names}
            units = {n: tuple(int(m == n) for m in names) for n in names}
            movable = [n for n in names if slack.terms.get(units[n])]
            if not movable:
                continue
            n = rng.choice(movable)
            values[n] = 0
            values[n] = -slack.evaluate(values) / slack.terms[units[n]]
            assert slack.evaluate(values) == 0
            points.append(values)
            walls += 1
        seen = set()
        for values in points:
            inside = all(s.evaluate(values) > 0 for s in slacks)
            try:
                built = frozenset(_tight_sets(fam.build(**values, **pinned)))
            except KahlerRegionError:
                built = None
            if inside:
                assert built == key, values
            seen.add((inside, built is not None))
        assert (True, True) in seen and (False, False) in seen

    @pytest.mark.parametrize("family,step,builds,skipped", [
        ("s6", Fraction(1, 4), 1, 1041), ("s6", Fraction(1, 8), 1, 9318),
        ("bl2lines-p3", Fraction(1, 4), 1, 120), ("bl2lines-p3", Fraction(1, 8), 1, 496)])
    def test_scan_builds_only_outside_known_chambers(self, monkeypatch, family, step,
                                                     builds, skipped):
        from futakizero.toric import ToricFamily
        real = ToricFamily.build
        calls = []

        def counting(self, **params):
            calls.append(params)
            return real(self, **params)

        monkeypatch.setattr(ToricFamily, "build", counting)
        report = zero_locus_scan(family, step)
        assert (len(calls), report.skipped) == (builds, skipped)


class TestEmptinessCertificates:
    """A grid point has a region form at most 0 exactly when ``fam.build``
    rejects it, for any reason: the polytope is empty or lower-dimensional,
    or some facet supports no (dim-1)-face."""

    SAMPLED = 400       # points of the 1/6 grids of more than 2,000 points

    @pytest.mark.parametrize("step", [Fraction(1, 4), Fraction(1, 6)], ids=["step4", "step6"])
    @pytest.mark.parametrize("family", sorted(FAMILIES) + ["cut-cube"])
    def test_forms_against_build(self, monkeypatch, family, step):
        from futakizero.cells import region_forms
        monkeypatch.setitem(FAMILIES, "cut-cube", _cut_cube())
        fam = FAMILIES[family]
        pinned = dict(fam.fixed_for_scan)
        names = [n for n in fam.param_names if n not in pinned]
        forms = region_forms(fam, scan_offsets(fam), step.denominator)
        combos = [()]
        for n in names:
            combos = [c + (k * step,) for c in combos
                      for k in range(1, int(fam.scan_upper[n] / step) + 1)
                      if k * step < fam.scan_upper[n]]
        if step == Fraction(1, 6) and len(combos) > 2000:
            combos = random.Random(f"empty-{family}").sample(combos, self.SAMPLED)
        tally = {}
        for combo in combos:
            m = [v.numerator * (step.denominator // v.denominator) for v in combo]
            # a form is (constant, coefficients) of an integer affine function of m
            certified = not all(c + sum(map(operator.mul, k, m)) > 0 for c, k in forms)
            try:
                fam.build(**pinned, **dict(zip(names, combo)))
                rejected = False
            except KahlerRegionError:
                rejected = True
            assert certified == rejected, combo
            tally[certified] = tally.get(certified, 0) + 1
        if step == Fraction(1, 4) and family in ("s6", "bl2lines-p3"):
            # the scans of verify --all: every rejection is certified
            assert tally[True] == {"s6": 1041, "bl2lines-p3": 120}[family]
        if family in ("s6", "p1xs6", "bl2lines-p3", "cut-cube"):
            assert tally.get(True)
