from fractions import Fraction
from itertools import combinations

import pytest

from futakizero.catalog import load_catalog
from futakizero.character import (CharacterError, ConstraintSystem,
                                  SymmetryConstraint, _fixed_classes,
                                  analyze_polynomial_case, evaluate_record, h11_action,
                                  vanishing_verdict, verdict_line)
from futakizero.polyring import AmbientSpace, ParamField, parse_poly
from futakizero.products import ProductFactorSpec, product_verdict
from futakizero.ratlinalg import in_column_span, kernel_basis, minus_identity
from futakizero import symmetry
from futakizero.symmetry import (AdjointUnsolvable, MonomialAutomorphism,
                                 SubvarietyPresentation, TorusGenerator, adjoint_matrix,
                                 match_centers)

from conftest import identity

PF = ParamField()


def subsets_monotone(system):
    """Check Fix and K monotonicity over nested subsets."""
    usable = [c for c in system.constraints if c.usable()]
    rank = system.torus_rank
    picard = system.picard_rank
    results = {}
    for size in range(len(usable) + 1):
        for subset in combinations(range(len(usable)), size):
            chosen = [usable[i] for i in subset]
            fix = _fixed_classes(chosen, picard)
            if rank == 0:
                kdim = 0
            elif not chosen:
                kdim = rank
            else:
                kdim = len(kernel_basis(
                    [row for c in chosen for row in minus_identity(zip(*c.adjoint))]))
            results[subset] = (len(fix), kdim)
    ok = True
    for small in results:
        for big in results:
            if set(small) <= set(big):
                fs, ks = results[small]
                fb, kb = results[big]
                ok = ok and fb <= fs and kb <= ks
    return ok


def replay_certificate(record, certificate):
    """Re-run the cited checks and kernel computations from scratch; returns
    the reproduced verdict tag (FullCone certificates must replay)."""
    stages = [c.stage for c in record.centers]
    presentations = [c.presentation for c in record.centers]
    constraints = []
    for name, order, tau in record.finite:
        if name not in certificate:
            continue
        if record.variety and not symmetry.check_variety_invariant(record.variety,
                                                                   tau).invariant:
            return "inconclusive"
        h11_matrix = h11_action(tau, presentations, stages)
        adjoint = adjoint_matrix(tau, list(record.torus)) if record.torus else None
        if isinstance(adjoint, AdjointUnsolvable):
            return "inconclusive"
        constraints.append(SymmetryConstraint(name, adjoint, h11_matrix))
    system = ConstraintSystem(torus_rank=len(record.torus),
                              picard_rank=len(record.h11_labels),
                              constraints=tuple(constraints))
    return vanishing_verdict(system, anticanonical=record.anticanonical).tag


P2xP2 = AmbientSpace.product(("x", "y", "z"), ("u", "v", "w"))


def system_2_24():
    a_sigma = ((-1, 0), (-1, 1))
    a_tau = ((1, -1), (0, -1))
    ident = identity(2)
    return ConstraintSystem(
        torus_rank=2, picard_rank=2,
        constraints=(SymmetryConstraint("sigma", a_sigma, ident),
                     SymmetryConstraint("tau", a_tau, ident)))


class TestH11Action:
    def test_factor_swap_swaps_classes(self):
        swap = MonomialAutomorphism.from_images(
            ["u", "v", "w", "x", "y", "z"], P2xP2, PF)
        c1 = SubvarietyPresentation(ideal=(parse_poly("x", P2xP2),
                                           parse_poly("y", P2xP2)))
        c2 = SubvarietyPresentation(ideal=(parse_poly("u", P2xP2),
                                           parse_poly("v", P2xP2)))
        matrix = h11_action(swap, [c1, c2])
        assert match_centers([c1, c2], swap) == (1, 0)
        # h1 <-> h2 and E1 <-> E2: fixed subspace has dimension 2
        assert len(kernel_basis(minus_identity(matrix))) == 2

    def test_identity_symmetry(self):
        ident = MonomialAutomorphism.from_images(list(P2xP2.coords), P2xP2, PF)
        matrix = h11_action(ident, [])
        assert matrix == identity(2)
        assert match_centers([], ident) == ()

    def test_point_swap_fixes_hyperplane(self):
        amb = AmbientSpace.product(("x0", "x1", "x2", "x3", "x4"))
        tau = MonomialAutomorphism.from_images(
            ["x0", "x2", "x1", "x4", "x3"], amb, PF)
        p1 = SubvarietyPresentation(ideal=tuple(
            parse_poly(t, amb) for t in ("x0", "x1", "x2", "x4")))
        p2 = SubvarietyPresentation(ideal=tuple(
            parse_poly(t, amb) for t in ("x0", "x1", "x2", "x3")))
        matrix = h11_action(tau, [p1, p2])
        assert match_centers([p1, p2], tau) == (1, 0)
        basis = kernel_basis(minus_identity(matrix))
        assert len(basis) == 2
        assert (1, 0, 0) in basis            # the hyperplane class is fixed


class TestVanishingVerdict:
    def test_rank_two_killed_jointly(self):
        verdict = vanishing_verdict(system_2_24())
        assert verdict.tag == "full_cone"
        assert verdict.certificate == ("sigma", "tau")

    def test_point_blowup_gives_dim_two_subcone(self):
        a_tau = ((-1,),)
        perm = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        system = ConstraintSystem(
            torus_rank=1, picard_rank=3,
            constraints=(SymmetryConstraint("tau", a_tau, perm),))
        verdict = vanishing_verdict(system, anticanonical=(3, -2, -2))
        assert verdict.tag == "subcone"
        assert verdict.fixed_dim == 2
        assert verdict.anticanonical_in_fixed is True
        basis = verdict.families[0].basis
        assert (Fraction(1), Fraction(0), Fraction(0)) in basis
        assert (Fraction(0), Fraction(1), Fraction(1)) in basis

    def test_no_symmetries_is_inconclusive(self):
        system = ConstraintSystem(torus_rank=1, picard_rank=2, constraints=())
        verdict = vanishing_verdict(system)
        assert verdict.tag == "inconclusive"
        assert verdict.diagnostics

    def test_semisimple_short_circuit(self):
        record = load_catalog(text='version = 1\n[case "9.1"]\nkind = semisimple_full\n'
                                    'theorem = 1\nexpected = full_cone\n').records[0]
        verdict = evaluate_record(record).verdict
        assert verdict.tag == "full_cone"
        assert verdict.certificate == ("semisimple",)

    def test_permutation_invariant_enforced(self):
        bad = ((1, 1), (0, 1))
        with pytest.raises(CharacterError):
            ConstraintSystem(torus_rank=1, picard_rank=2,
                             constraints=(SymmetryConstraint(
                                 "tau", ((-1,),), bad),))


def abstract_record(adjoint="matrix(-1) : classes (1 3 2)", anticanonical="1, 0, 0"):
    return load_catalog(text=(
        'version = 1\n[case "3.9"]\nkind = abstract\ntheorem = 2\nexpected = subcone(2)\n'
        f"h11 = c1, S, S'\nanticanonical = {anticanonical}\nadjoint = tau : {adjoint}\n"
        "provenance = class action\n")).records[0]


class TestAbstractVerdict:
    def test_kernel_step_with_computed_dimension(self):
        verdict = evaluate_record(abstract_record()).verdict
        assert verdict.tag == "subcone"
        assert verdict.fixed_dim == 2
        assert verdict.anticanonical_in_fixed is True
        assert verdict.families[0].basis == ((1, 0, 0), (0, 1, 1))

    def test_trivial_adjoint_is_inconclusive(self):
        verdict = evaluate_record(abstract_record("matrix(1) : classes (1 3 2)")).verdict
        assert verdict.tag == "inconclusive"


class TestProductVerdict:
    def test_all_full_cone(self):
        verdict = product_verdict([ProductFactorSpec("p1", "full_cone", 1),
                                   ProductFactorSpec("p2", "full_cone", 1)])
        assert verdict.tag == "full_cone"

    def test_locus_factor_composes_dimensions(self):
        verdict = product_verdict([
            ProductFactorSpec("p1", "full_cone", 1),
            ProductFactorSpec("s6", "families", 4, (3, 2))])
        assert verdict.tag == "subcone"
        assert verdict.fixed_dim == 4
        assert verdict.anticanonical_in_fixed is True

    def test_single_factor_unchanged(self):
        full = product_verdict([ProductFactorSpec("p2", "full_cone", 1)])
        assert full.tag == "full_cone"
        partial = product_verdict([ProductFactorSpec("s6", "families", 4, (3, 2))])
        assert partial.tag == "subcone"
        assert partial.fixed_dim == 3


class TestCatalogVerdicts:
    def test_monotonicity_on_all_catalog_cases(self, catalog):
        for record in catalog.records:
            if record.kind not in ("polynomial", "toric-crosscheck"):
                continue
            analysis = analyze_polynomial_case(record)
            assert subsets_monotone(analysis.system), record.id

    def test_full_cone_certificates_replay(self, catalog):
        for record in catalog.records:
            if record.kind != "polynomial":
                continue
            analysis = analyze_polynomial_case(record)
            if analysis.verdict.tag != "full_cone":
                continue
            assert replay_certificate(record, analysis.verdict.certificate) \
                == "full_cone", record.id

    def test_each_invariance_solved_once_and_replay_solves_its_own(self, monkeypatch):
        import io

        from futakizero import catalog
        from futakizero.cli import main
        calls = []
        real = symmetry.check_variety_invariant

        def counted(gens, tau):
            calls.append((gens, tau))
            return real(gens, tau)

        # catalog imports it from symmetry at each call
        monkeypatch.setattr(symmetry, "check_variety_invariant", counted)
        assert main(["verify", "--all"], out=io.StringIO()) == 0
        # validation and analysis share one solve per record and symmetry
        assert len({(id(g), id(t)) for g, t in calls}) == len(calls) == 17
        records = catalog.load_catalog().records
        assert sum(len(r.finite) for r in records if r.variety) == 17
        record = next(r for r in records if r.variety and len(r.finite) > 1)
        calls.clear()
        analysis = analyze_polynomial_case(record)
        assert len(calls) == len(record.finite)
        assert catalog.validate_case(record) == [] and len(calls) == len(record.finite)
        certificate = analysis.verdict.certificate
        assert replay_certificate(record, certificate) == "full_cone"
        assert len(calls) == len(record.finite) + len(certificate)

    def test_two_distinct_families_for_triple_intersection(self, catalog):
        (record,) = [r for r in catalog.records if r.id == "3.13"]
        analysis = analyze_polynomial_case(record)
        verdict = analysis.verdict
        assert verdict.tag == "subcone"
        assert verdict.fixed_dim == 2
        assert len(verdict.families) == 2
        spans = {f.basis for f in verdict.families}
        assert len(spans) == 2
        for family in verdict.families:
            assert in_column_span([list(b) for b in family.basis],
                                  [1, 1, 1]) is not None

    def test_exception_families_contain_anticanonical(self, catalog):
        for record in catalog.records:
            if record.kind != "polynomial" or record.expected[0] != "subcone":
                continue
            verdict = analyze_polynomial_case(record).verdict
            assert verdict.tag == "subcone", record.id
            assert verdict.fixed_dim == record.expected[1], record.id
            assert verdict.anticanonical_in_fixed is True, record.id


class TestSerialization:
    def test_line_field_order(self):
        verdict = vanishing_verdict(system_2_24())
        line = verdict_line("2.24", verdict)
        assert line == "case=2.24 verdict=full_cone fixed_dim=2 certificate=sigma+tau"
