import random
from fractions import Fraction

import pytest

from futakizero.curves import ParamCurve, Reparam, check_curve_match
from futakizero.polyring import AmbientSpace, ParamField, parse_poly
from futakizero.symmetry import (AdjointUnsolvable, CenterMatchError,
                                 MonomialAutomorphism, SubvarietyPresentation,
                                 TorusGenerator, adjoint_matrix,
                                 check_variety_invariant, match_centers,
                                 torus_eigencheck)

from conftest import identity, matmul, random_fraction

PF = ParamField()

P4 = AmbientSpace.product(("z0", "z1", "z2", "z3", "z4"))
P3 = AmbientSpace.product(("x0", "x1", "x2", "x3"))
P2xP2 = AmbientSpace.product(("x", "y", "z"), ("u", "v", "w"))
P6 = AmbientSpace.product(tuple(f"x{i}" for i in range(7)))

V5_QUADRICS = [
    "x4*x5 - x0*x2 + x1^2",
    "x4*x6 - x1*x3 + x2^2",
    "x4^2 - x0*x3 + x1*x2",
    "x1*x4 - x0*x6 - x2*x5",
    "x2*x4 - x3*x5 - x1*x6",
]


def check_curve_equivariance(curve, tau):
    """Find psi with tau o phi = phi o psi projectively, or None."""
    return check_curve_match(curve, curve, tau)


def with_scalars(tau, scalars):
    """tau with its permutation and new per-coordinate scalars."""
    return MonomialAutomorphism(tau.ambient, tau.perm, tuple(scalars), tau.params)


class TestVarietyInvariance:
    def test_parametrized_quadric_under_reversal(self):
        pf = ParamField(("t",), {"t": (-1, 0, 1)})
        q = parse_poly("z1*z3 - t^2*z0*z4 + (t^2 - 1)*z2^2", P4, pf)
        tau = MonomialAutomorphism.from_images(
            ["z4", "z3", "z2", "z1", "z0"], P4, pf)
        res = check_variety_invariant([q], tau)
        assert res.invariant
        assert res.matrix[0] == (1,) and type(res.matrix[0][0]) is Fraction

    def test_span_failure_is_inconclusive(self):
        gens = [parse_poly("x0", P3)]
        swap = MonomialAutomorphism.from_images(["x1", "x0", "x2", "x3"], P3, PF)
        res = check_variety_invariant(gens, swap)
        assert not res.invariant
        assert res.failing_index == 0
        assert "inconclusive" in res.describe()

    def test_failing_index_is_the_first_generator_outside_the_span(self):
        # all pullbacks are solved in one elimination; generators 1 and 2 leave the span
        gens = [parse_poly(t, P3) for t in ("x2", "x0", "x1 + x3")]
        swap = MonomialAutomorphism.from_images(["x1", "x0", "x2", "x3"], P3, PF)
        res = check_variety_invariant(gens, swap)
        assert not res.invariant and res.failing_index == 1

    def test_five_quadrics_under_involution(self):
        gens = [parse_poly(t, P6) for t in V5_QUADRICS]
        tau = MonomialAutomorphism.from_images(
            ["x3", "x2", "x1", "x0", "x4", "x6", "x5"], P6, PF)
        res = check_variety_invariant(gens, tau)
        assert res.invariant


class TestCurveEquivariance:
    def test_degree_four_curve_under_reversal(self):
        amb = AmbientSpace.product(("z0", "z1", "z2", "z3"))
        curve = ParamCurve.from_texts(["r*s^3", "r^4", "s^4", "s*r^3"], amb, PF)
        tau = MonomialAutomorphism.from_images(["z3", "z2", "z1", "z0"], amb, PF)
        eq = check_curve_equivariance(curve, tau)
        assert eq is not None
        assert eq.reparam == Reparam(swap=True, gamma=Fraction(1))

    def test_identity_automorphism(self):
        amb = AmbientSpace.product(("z0", "z1", "z2", "z3"))
        curve = ParamCurve.from_texts(["r^3", "r^2*s", "r*s^2", "s^3"], amb, PF)
        ident = MonomialAutomorphism.from_images(list(amb.coords), amb, PF)
        eq = check_curve_equivariance(curve, ident)
        assert eq.reparam == Reparam(swap=False, gamma=Fraction(1))

    def test_quartic_normal_curve_under_reversal(self):
        curve = ParamCurve.from_texts(
            ["r^4", "r^3*s", "r^2*s^2", "r*s^3", "s^4"], P4, PF)
        tau = MonomialAutomorphism.from_images(
            ["z4", "z3", "z2", "z1", "z0"], P4, PF)
        eq = check_curve_equivariance(curve, tau)
        assert eq.reparam == Reparam(swap=True, gamma=Fraction(1))

    def test_returned_reparam_satisfies_exact_identity(self):
        curve = ParamCurve.from_texts(
            ["r*s", "r^2", "-s^2", "0", "0"],
            AmbientSpace.product(("x0", "x1", "x2", "x3", "x4")), PF)
        tau = MonomialAutomorphism.from_images(
            ["x0", "x2", "x1", "x4", "x3"],
            AmbientSpace.product(("x0", "x1", "x2", "x3", "x4")), PF)
        eq = check_curve_equivariance(curve, tau)
        assert eq is not None
        moved = curve.transformed(tau)
        composed = curve.reparametrized(eq.reparam)
        for f in range(curve.ambient.nfactors):
            for i in curve.ambient.block(f):
                lhs = moved.coords[i]
                rhs = composed.coords[i].scale(eq.factor_scalars[f])
                assert (lhs - rhs).is_zero()

    def test_absence_reported_as_none(self):
        amb = AmbientSpace.product(("z0", "z1", "z2", "z3"))
        curve = ParamCurve.from_texts(["r^3", "r^2*s", "r*s^2", "s^3"], amb, PF)
        shear = MonomialAutomorphism.from_images(
            ["z0", "2*z1", "z2", "z3"], amb, PF)
        assert check_curve_equivariance(curve, shear) is None


class TestMatchCenters:
    def test_factor_swap_swaps_fibers(self):
        swap = MonomialAutomorphism.from_images(
            ["u", "v", "w", "x", "y", "z"], P2xP2, PF)
        c1 = SubvarietyPresentation(ideal=(parse_poly("x", P2xP2),
                                           parse_poly("y", P2xP2)))
        c2 = SubvarietyPresentation(ideal=(parse_poly("u", P2xP2),
                                           parse_poly("v", P2xP2)))
        assert match_centers([c1, c2], swap) == (1, 0)

    def test_conic_pair_fixed_pointwise(self):
        amb = AmbientSpace.product(("x", "y", "z", "t", "w"))
        sigma = MonomialAutomorphism.from_images(["y", "x", "z", "t", "w"], amb, PF)
        c1 = SubvarietyPresentation(ideal=tuple(
            parse_poly(t, amb) for t in ("w^2 + z*t", "x", "y")))
        c2 = SubvarietyPresentation(ideal=tuple(
            parse_poly(t, amb) for t in ("w^2 + x*y", "z", "t")))
        assert match_centers([c1, c2], sigma) == (0, 1)

    def test_unmatched_center_raises_with_index(self):
        center = SubvarietyPresentation(ideal=(parse_poly("x0", P3),))
        swap = MonomialAutomorphism.from_images(["x1", "x0", "x2", "x3"], P3, PF)
        with pytest.raises(CenterMatchError) as err:
            match_centers([center], swap)
        assert err.value.index == 0

    def test_stage_boundaries_respected(self):
        ident = MonomialAutomorphism.from_images(list(P3.coords), P3, PF)
        a = SubvarietyPresentation(ideal=(parse_poly("x0", P3),))
        b = SubvarietyPresentation(ideal=(parse_poly("x0", P3),))
        # identical presentations in different stages must not cross-match
        assert match_centers([a, b], ident, stages=[1, 2]) == (0, 1)


class TestTorusEigencheck:
    def test_quintic_threefold_weights(self):
        gens = [parse_poly(t, P6) for t in V5_QUADRICS]
        v = TorusGenerator(P6, (3, 5, 7, 9, 6, 4, 8))
        assert torus_eigencheck(gens, v) is None

    def test_wrong_torus_fails_with_detail(self):
        pf = ParamField(("a",), {"a": (-1, 0, 1)})
        amb = AmbientSpace.product(("x", "y", "z", "t", "w"))
        qa = parse_poly("w^2 + x*y + z*t + a*(x*t + y*z)", amb, pf)
        bad = TorusGenerator(amb, (1, -1, 0, 0, 0))
        assert "weights" in torus_eigencheck([qa], bad)

    def test_single_monomial_always_passes(self):
        v = TorusGenerator(P3, (7, -2, 5, 0))
        assert torus_eigencheck([parse_poly("x3", P3)], v) is None

    def test_curve_weights_affine_in_bidegree(self):
        amb = AmbientSpace.product(("z0", "z1", "z2", "z3"))
        curve = ParamCurve.from_texts(["r*s^3", "r^4", "s^4", "s*r^3"], amb, PF)
        v = TorusGenerator(amb, (1, 4, 0, 3))
        assert torus_eigencheck(curve, v) is None
        assert torus_eigencheck(curve, TorusGenerator(amb, (1, 4, 0, 0))) == \
            "weights are not affine in the (r,s)-bidegree"


class TestAdjointMatrix:
    def test_rank_two_reflection_action(self):
        v1 = TorusGenerator(P2xP2, (2, 0, 0, -1, 0, 0))
        v2 = TorusGenerator(P2xP2, (0, 2, 0, 0, -1, 0))
        sigma = MonomialAutomorphism.from_images(
            ["z", "y", "x", "w", "v", "u"], P2xP2, PF)
        a = adjoint_matrix(sigma, [v1, v2])
        assert a == ((-1, 0), (-1, 1))

    def test_identity_map(self):
        v1 = TorusGenerator(P2xP2, (2, 0, 0, -1, 0, 0))
        v2 = TorusGenerator(P2xP2, (0, 2, 0, 0, -1, 0))
        ident = MonomialAutomorphism.from_images(list(P2xP2.coords), P2xP2, PF)
        assert adjoint_matrix(ident, [v1, v2]) == identity(2)

    def test_rank_one_inversion(self):
        amb = AmbientSpace.product(("x0", "x1", "x2", "x3", "x4"))
        tau = MonomialAutomorphism.from_images(
            ["x0", "x2", "x1", "x4", "x3"], amb, PF)
        v = TorusGenerator(amb, (0, 0, 0, 1, -1))
        assert adjoint_matrix(tau, [v]) == ((-1,),)

    def test_unsolvable_diagnostic(self):
        tau = MonomialAutomorphism.from_images(["x1", "x0", "x2", "x3"], P3, PF)
        v1 = TorusGenerator(P3, (1, 0, 0, 0))
        v2 = TorusGenerator(P3, (0, 0, 1, 0))
        res = adjoint_matrix(tau, [v1, v2])
        assert isinstance(res, AdjointUnsolvable)
        assert res.generator_index == 0
        assert res.permuted_weights == (0, 1, 0, 0)

    def test_scalars_do_not_affect_adjoint(self):
        rng = random.Random(13)
        v1 = TorusGenerator(P2xP2, (2, 0, 0, -1, 0, 0))
        v2 = TorusGenerator(P2xP2, (0, 2, 0, 0, -1, 0))
        sigma = MonomialAutomorphism.from_images(
            ["z", "y", "x", "w", "v", "u"], P2xP2, PF)
        base = adjoint_matrix(sigma, [v1, v2])
        for _ in range(10):
            scalars = tuple(random_fraction(rng, allow_zero=False)
                            for _ in range(6))
            assert adjoint_matrix(with_scalars(sigma, scalars), [v1, v2]) == base


class TestCatalogWideProperties:
    def test_every_declared_symmetry_has_its_order(self, catalog):
        for record in catalog.records:
            for name, order, tau in record.finite:
                assert tau.order_divides(order), (record.id, name)

    def test_involution_adjoints_square_to_identity(self, catalog):
        for record in catalog.records:
            for name, order, tau in record.finite:
                if not record.torus:
                    continue
                a = adjoint_matrix(tau, list(record.torus))
                if isinstance(a, AdjointUnsolvable):
                    assert record.id == "3.25"
                    continue
                assert matmul(a, a) == identity(len(a)), (record.id, name)

    def test_adjoints_satisfy_their_defining_equation(self, catalog):
        # canonical(permuted(v_j)) == sum_i A[i][j] canonical(v_i), checked by
        # multiplication alone: column j of C A, C holding the canonical v_i
        # as columns, is the canonical image of v_j
        checked = 0
        for record in catalog.records:
            if not record.torus:
                continue
            columns = tuple(zip(*(v.canonical() for v in record.torus)))
            for name, _, tau in record.finite:
                a = adjoint_matrix(tau, list(record.torus))
                if isinstance(a, AdjointUnsolvable):
                    continue
                images = [TorusGenerator(v.ambient, v.permuted(tau)).canonical()
                          for v in record.torus]
                assert matmul(columns, a) == tuple(zip(*images)), (record.id, name)
                checked += 1
        assert checked > 0

    def test_adjoint_composition_on_catalog_pairs(self, catalog):
        for record in catalog.records:
            if not record.torus or len(record.finite) < 2:
                continue
            for name1, _, t1 in record.finite:
                for name2, _, t2 in record.finite:
                    a1 = adjoint_matrix(t1, list(record.torus))
                    a2 = adjoint_matrix(t2, list(record.torus))
                    if isinstance(a1, AdjointUnsolvable) or \
                            isinstance(a2, AdjointUnsolvable):
                        continue
                    composed = adjoint_matrix(t1.compose(t2), list(record.torus))
                    assert composed == matmul(a1, a2), (record.id, name1, name2)

    def test_torus_eigencheck_passes_on_all_catalog_pairs(self, catalog):
        for record in catalog.records:
            for v in record.torus:
                for g in record.variety:
                    assert torus_eigencheck([g], v) is None, record.id
                for center in record.centers:
                    if center.presentation.ideal:
                        assert torus_eigencheck(
                            list(center.presentation.ideal), v) is None, record.id
                    if center.presentation.curve is not None:
                        assert torus_eigencheck(
                            center.presentation.curve, v) is None, record.id
