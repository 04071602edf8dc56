import random
from fractions import Fraction

import pytest

from futakizero.polyring import (AmbientSpace, InhomogeneousError, MultiPoly,
                                 ParamField, ParseError, PolyError, in_span,
                                 parse_equations, parse_poly)

from futakizero.parampoly import PPoly

from conftest import (inverse_automorphism, random_ambient, random_automorphism,
                      random_fraction, random_poly)

P4 = AmbientSpace.product(("x", "y", "z", "t", "w"))
P2xP2 = AmbientSpace.product(("x", "y", "z"), ("u", "v", "w"))
TRIPLE = AmbientSpace.product(("x0", "x1", "x2"), ("y0", "y1", "y2"),
                              ("z0", "z1", "z2"))
P1CUBED = AmbientSpace.product(("x0", "x1"), ("y0", "y1"), ("z0", "z1"))


def reconstruct(gens, solution):
    """Sum coeff_i * gens_i for an in_span solution."""
    total = None
    for g, c in zip(gens, solution.coefficients):
        part = g.scale(c)
        total = part if total is None else total + part
    return total


class TestParse:
    def test_parameter_quadric(self):
        pf = ParamField(("a",), {"a": (-1, 1)})
        p = parse_poly("w^2 + x*y + z*t + a*(x*t + y*z)", P4, pf)
        assert len(p.terms) == 5
        assert p.multidegree() == (2,)

    def test_single_coordinate(self):
        p = parse_poly("x0", AmbientSpace.product(("x0", "x1", "x2", "x3")))
        assert len(p.terms) == 1
        assert p.multidegree() == (1,)

    def test_mixed_degrees_rejected(self):
        amb = AmbientSpace.product(("x0", "x1", "x2", "x3"))
        with pytest.raises(InhomogeneousError):
            parse_poly("x0 + x0^2", amb)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_poly("x*q", P4)

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_poly("x*(y", P4)

    def test_rational_literals_and_scalar_division(self):
        pf = ParamField(("s",), {"s": (-1, 0, 1)})
        p = parse_poly("1/2*x + y/(1 - s)", P4, pf)
        assert len(p.terms) == 2

    def test_exponent_bound_is_inclusive(self):
        assert parse_poly("x^64", P4) == parse_poly("x^32*x^032", P4)

    def test_nesting_bound_is_inclusive(self):
        # each open parenthesis and each prefix sign is one level
        assert parse_poly("(" * 16 + "-" * 16 + "x" + ")" * 16, P4) == parse_poly("x", P4)
        for deeper in ("(" * 33 + "x" + ")" * 33, "-" * 33 + "x", "(-" * 17 + "x" + ")" * 17):
            with pytest.raises(ParseError, match="nesting deeper than 32"):
                parse_poly(deeper, P4)

    def test_division_by_coordinate_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x/y", P4)

    def test_ambient_validation(self):
        with pytest.raises(PolyError):
            AmbientSpace.product(("x", "y"), ("x", "z"))


class TestMultidegree:
    def test_bidegree_one_two(self):
        p = parse_poly("x*u^2 + y*v^2 + z*w^2", P2xP2)
        assert p.multidegree() == (1, 2)

    def test_constant_is_all_zero(self):
        p = parse_poly("1", P2xP2)
        assert p.multidegree() == (0, 0)

    def test_partial_degrees_on_triple_product(self):
        p = parse_poly("x0*y1 - x1*y0", P1CUBED)
        assert p.multidegree() == (1, 1, 0)


class TestPullback:
    def test_invariant_divisor(self):
        from futakizero.symmetry import MonomialAutomorphism
        pf = ParamField()
        f = parse_poly("x*u^2 + y*v^2 + z*w^2", P2xP2, pf)
        sigma = MonomialAutomorphism.from_images(
            ["z", "y", "x", "w", "v", "u"], P2xP2, pf)
        assert sigma.pullback(f) == f

    def test_identity_pullback(self):
        from futakizero.symmetry import MonomialAutomorphism
        pf = ParamField()
        rng = random.Random(2)
        for _ in range(10):
            amb = random_ambient(rng)
            p = random_poly(rng, amb)
            ident = MonomialAutomorphism.from_images(list(amb.coords), amb, pf)
            assert ident.pullback(p) == p

    def test_factor_swap_matches_second_equation(self):
        from futakizero.symmetry import MonomialAutomorphism
        pf = ParamField(("s",), {"s": (-1, 0, 1)})
        eq1 = parse_poly("x0*y0 + x1*y1 + x2*y2", TRIPLE, pf)
        eq2 = parse_poly("y0*z0 + y1*z1 + y2*z2", TRIPLE, pf)
        tau = MonomialAutomorphism.from_images(
            ["z1", "z0", "z2", "y1", "y0", "y2", "x1", "x0", "x2"], TRIPLE, pf)
        assert tau.pullback(eq1) == eq2
        assert tau.pullback(eq1).multidegree() == (0, 1, 1)


class TestInSpan:
    def test_permuted_generator(self):
        pf = ParamField(("s",), {"s": (-1, 0, 1)})
        eq1 = parse_poly("x0*y0 + x1*y1 + x2*y2", TRIPLE, pf)
        eq2 = parse_poly("y0*z0 + y1*z1 + y2*z2", TRIPLE, pf)
        eq3 = parse_poly("(1 + s)*x0*z1 + (1 - s)*x1*z0 - 2*x2*z2", TRIPLE, pf)
        from futakizero.symmetry import MonomialAutomorphism
        tau = MonomialAutomorphism.from_images(
            ["z1", "z0", "z2", "y1", "y0", "y2", "x1", "x0", "x2"], TRIPLE, pf)
        sol = in_span([tau.pullback(eq1)], [eq1, eq2, eq3])[0]
        assert sol.coefficients == (0, 1, 0)
        assert all(type(c) is Fraction for c in sol.coefficients)

    def test_nonconstant_pivot_records_denominator_root(self):
        # the elimination pivots on the non-constant entry a - 2
        amb = AmbientSpace.product(("x0", "x1"))
        pf = ParamField(("a",))
        sol = in_span([parse_poly("x0", amb, pf)], [parse_poly("(a - 2)*x0", amb, pf)])[0]
        assert [c.render() for c in sol.coefficients] == ["1/(-2 + a)"]
        assert [d.render() for d in sol.denominators] == ["-2 + a"]
        assert pf.uncovered(sol.denominators[0]).render() == "-2 + a"
        assert ParamField(("a",), {"a": (2,)}).uncovered(sol.denominators[0]).is_constant()

    @pytest.mark.parametrize("params,gens,denominator", [
        (("a",), ["x0 + a*x1", "a*x0 + 2*x1"], "-2 + a^2"),
        (("a", "b"), ["x0 + a*x1", "b*x0 + x1"], "-1 + a*b")],
        ids=["irrational", "two-parameter"])
    def test_denominator_without_listed_roots(self, params, gens, denominator):
        # a^2 - 2 has no rational root, and a*b - 1 vanishes along a curve:
        # excluding the values 1, 2 and -1 of each parameter leaves both whole
        amb = AmbientSpace.product(("x0", "x1"))
        pf = ParamField(params, {n: (1, 2, -1) for n in params})
        sol = in_span([parse_poly("x0", amb, pf)], [parse_poly(g, amb, pf) for g in gens])[0]
        assert [d.render() for d in sol.denominators] == [denominator]
        assert pf.uncovered(sol.denominators[0]).render() == denominator

    def test_not_in_span(self):
        amb = AmbientSpace.product(("x0", "x1", "x2", "x3"))
        assert in_span([parse_poly("x0", amb)], [parse_poly("x1", amb)]) == [None]

    def test_invariant_parameter_quadric(self):
        pf = ParamField(("a",), {"a": (-1, 0, 1)})
        qa = parse_poly("w^2 + x*y + z*t + a*(x*t + y*z)", P4, pf)
        from futakizero.symmetry import MonomialAutomorphism
        varsigma = MonomialAutomorphism.from_images(["y", "x", "t", "z", "w"], P4, pf)
        sol = in_span([varsigma.pullback(qa)], [qa])[0]
        assert sol.coefficients == (1,) and type(sol.coefficients[0]) is Fraction
        assert sol.denominators == ()

    def test_reconstruction_identity(self):
        rng = random.Random(17)
        for _ in range(25):
            amb = random_ambient(rng)
            deg = tuple(rng.randint(0, 2) for _ in range(amb.nfactors))
            gens = [random_poly(rng, amb, degree=deg) for _ in range(rng.randint(1, 3))]
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in gens]
            target = None
            for c, g in zip(coeffs, gens):
                part = g * c
                target = part if target is None else target + part
            if target is None or target.is_zero():
                continue
            sol = in_span([target], gens)[0]
            assert sol is not None
            rebuilt = reconstruct(gens, sol)
            assert (rebuilt - target).is_zero()


    def test_batched_targets_match_single_targets(self):
        # targets in the span, outside it and zero, with monomials of their own
        rng = random.Random(29)
        for _ in range(25):
            amb = random_ambient(rng)
            deg = tuple(rng.randint(0, 2) for _ in range(amb.nfactors))
            gens = [random_poly(rng, amb, degree=deg) for _ in range(rng.randint(1, 3))]
            targets = [MultiPoly.zero(amb, ParamField())]
            for _ in range(rng.randint(0, 4)):
                target = random_poly(rng, amb, degree=deg)
                if rng.random() < 0.5:
                    target = gens[0] * Fraction(rng.randint(1, 3)) - gens[-1]
                targets.append(target)
            batched = in_span(targets, gens)
            assert len(batched) == len(targets)
            for target, got in zip(targets, batched):
                [single] = in_span([target], gens)
                assert (got is None) == (single is None)
                if got is not None:
                    assert got.coefficients == single.coefficients
                    assert (reconstruct(gens, got) - target).is_zero()
        assert in_span([], gens) == []


class TestUncovered:
    def test_leftover_constant_exactly_without_an_extra_factor(self):
        # products of excluded factors name - value, times at most one factor
        # whose zeros leave the excluded values: an irreducible quadric, a
        # hyperplane or curve in both names, or a value that is not excluded
        rng = random.Random(41)
        names = ("a", "b")
        pf = ParamField(names, {"a": (-1, 0, 1), "b": (Fraction(1, 2), 3)})
        a, b = (PPoly.var(names, n) for n in names)
        extras = [a * a - 2, a - b, a * b - 1, a - 2, b - Fraction(1, 3)]
        for _ in range(200):
            den = PPoly.const(names, random_fraction(rng, allow_zero=False))
            for _ in range(rng.randint(0, 4)):
                name = rng.choice(names)
                den = den * (PPoly.var(names, name) - rng.choice(pf.excluded[name]))
            extra = rng.random() < 0.5
            if extra:
                den = den * rng.choice(extras)
            assert pf.uncovered(den).is_constant() != extra, den


class TestEquations:
    def test_differences_of_the_sides(self):
        names = ("a", "b", "c")
        diffs = parse_equations("a = b = (3 - c)/2", names)
        assert [d.render() for d in diffs] == ["-a + b", "3/2 - a - 1/2*c"]
        assert [d.evaluate({"a": 1, "b": 1, "c": 1}) for d in diffs] == [0, 0]

    def test_quotient_that_reduces_to_a_polynomial(self):
        # a side dividing by a non-constant is accepted once the quotient is a polynomial
        names = ("a", "b")
        assert ([d.render() for d in parse_equations("(a^2 - b^2)/(a - b) = 1 = 2*a/2", names)]
                == ["1 - a - b", "-b"])

    @pytest.mark.parametrize("text,message", [
        ("a", "not an equation"), ("a = ", "unexpected token"),
        ("a = 1/0", "division by zero"), ("a/b = 1", "not a polynomial"),
        ("x = 1", "unknown symbol 'x'"), ("a = b^65", "exponent 65 exceeds the bound 64"),
        ("a = b^100000000", "exponent 100000000 exceeds the bound 64"),
        ("a = \u00b2", "unexpected character"), ("a = " + "1" * 5000, "5000 digits is too long")])
    def test_rejects_all_but_polynomials_in_the_names(self, text, message):
        with pytest.raises(PolyError, match=message):
            parse_equations(text, ("a", "b"))


class TestRingHomomorphism:
    def test_pullback_respects_products_and_sums(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            amb = random_ambient(rng)
            deg = tuple(rng.randint(0, 2) for _ in range(amb.nfactors))
            p = random_poly(rng, amb, degree=deg)
            q = random_poly(rng, amb, degree=deg)
            tau = random_automorphism(rng, amb)
            assert tau.pullback(p * q) == tau.pullback(p) * tau.pullback(q)
            assert tau.pullback(p + q) == tau.pullback(p) + tau.pullback(q)
            checked += 1

    def test_pullback_inverse_roundtrip(self):
        rng = random.Random(29)
        for _ in range(60):
            amb = random_ambient(rng)
            p = random_poly(rng, amb)
            tau = random_automorphism(rng, amb)
            assert inverse_automorphism(tau).pullback(tau.pullback(p)) == p


class TestCanonicalForm:
    def test_parse_print_fixpoint_random(self):
        rng = random.Random(31)
        for _ in range(60):
            amb = random_ambient(rng)
            p = random_poly(rng, amb)
            assert parse_poly(p.render(), amb, p.params) == p

    def test_parse_print_fixpoint_with_parameters(self):
        pf = ParamField(("s",), {"s": (-1, 0, 1)})
        texts = [
            "(1 + s)*x0*z1 + (1 - s)*x1*z0 - 2*x2*z2",
            "x0*y0 + x1*y1 + x2*y2",
        ]
        for t in texts:
            p = parse_poly(t, TRIPLE, pf)
            assert parse_poly(p.render(), TRIPLE, pf) == p

    @pytest.mark.parametrize("text,rendered", [
        ("x - y", "x - y"),
        ("-x + w", "-x + w"),
        ("x^2 - y*z + 3/2*z*t - 3/2*w^2", "x^2 - y*z + 3/2*z*t - 3/2*w^2"),
        ("7", "7"),
        ("-3/2", "-3/2"),
        ("0", "0"),
        ("a", "a"),
        ("-2*a", "-2*a"),
        ("a*x - 2*a*y", "a*x - 2*a*y"),
        ("-1 - a", "(-1 - a)"),
        ("1/(a - 2)", "(1/(-2 + a))"),
        ("(1 + a)*x - y/(a - 2)", "(1 + a)*x + (-1/(-2 + a))*y"),
    ])
    def test_exact_text(self, text, rendered):
        assert parse_poly(text, P4, ParamField(("a",), {"a": (2,)})).render() == rendered

    def test_catalog_polynomials_roundtrip(self, catalog):
        for record in catalog.records:
            for g in record.variety:
                assert parse_poly(g.render(), record.ambient, record.params) == g
