"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is exact (rational equality); the runtime bounds come from
the contract and are generous for this machine.
"""

import io
import random
import time
from fractions import Fraction

import pytest

from conftest import product_polytope, scaled, translated, unimodular_image
from futakizero.catalog import EXCEPTION_FAMILIES, load_catalog, validate_catalog
from futakizero.character import analyze_polynomial_case, evaluate_record
from futakizero.cli import main
from futakizero.ratlinalg import in_column_span
from futakizero.symmetry import AdjointUnsolvable, adjoint_matrix
from futakizero.toric import (FAMILIES, _integral_data, class_to_polytope,
                              donaldson_L, futaki_vector, zero_locus_scan)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_criterion_1_theorem_one_reproduction(catalog):
    start = time.monotonic()
    code, out = run_cli(["verify", "--all"])
    elapsed = time.monotonic() - start
    assert code == 0, out
    lines = {l.split()[0].split("=")[1]: l for l in out.splitlines()
             if l.startswith("case=")}
    for record in catalog.records:
        if record.family in EXCEPTION_FAMILIES:
            continue
        if record.id == "3.25":
            assert "audit=adjoint=unsolvable" in lines["3.25"]
            continue
        assert "verdict=full_cone" in lines[record.id], record.id
    assert elapsed < 30, f"verify --all took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: full cone outside the exception list, "
          f"{elapsed:.1f}s < 30s")


def test_criterion_2_theorem_two_reproduction(catalog):
    for record in catalog.records:
        if record.family not in EXCEPTION_FAMILIES:
            continue
        if record.kind in ("polynomial", "abstract"):
            # the abstract records' class actions reach the same verdict code
            verdict = evaluate_record(record).verdict
            assert verdict.tag == "subcone", record.id
            assert verdict.fixed_dim >= 2, record.id
            assert verdict.anticanonical_in_fixed is True, record.id
            for family in verdict.families:
                assert in_column_span(
                    [list(b) for b in family.basis],
                    list(record.anticanonical)) is not None, record.id
            if record.id == "3.13":
                assert len(verdict.families) == 2
                assert {f.dim for f in verdict.families} == {2}
                assert len({f.basis for f in verdict.families}) == 2
            if record.id in ("4.2", "4.4"):
                assert verdict.fixed_dim >= 3
        elif record.kind == "product":
            code, out = run_cli(["verify", record.id])
            assert code == 0, out
            assert "verdict=subcone" in out
    print("ACCEPTANCE 2 PASS: every exception family has a >= 2-dim vanishing "
          "family containing the anticanonical class (4.2, 4.4 >= 3; "
          "3.13 two distinct families)")


def test_criterion_3_hexagon_zero_locus():
    start = time.monotonic()
    report = zero_locus_scan("s6", Fraction(1, 4),
                             loci=("c = 3 - a - b", "a = b = c"))
    elapsed = time.monotonic() - start
    assert report.points, "empty scan"
    for pt in report.points:
        v = dict(pt.values)
        on_families = (v["c"] == 3 - v["a"] - v["b"]) or (v["a"] == v["b"] == v["c"])
        assert pt.zero == on_families, dict(pt.values)
    assert report.covered and all(f.on_locus_all_zero for f in report.loci)
    assert elapsed < 10, f"scan took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 PASS: {len(report.points)} grid points, zeros exactly "
          f"on the two declared families, {elapsed:.1f}s < 10s")


def test_criterion_4_adjoint_spot_checks(catalog):
    records = {r.id: r for r in catalog.records}
    rec = records["2.24"]
    finite = {name: tau for name, _, tau in rec.finite}
    a_sigma = adjoint_matrix(finite["sigma"], list(rec.torus))
    assert a_sigma == ((-1, 0), (-1, 1))
    a_tau = adjoint_matrix(finite["tau"], list(rec.torus))
    assert a_tau == ((1, -1), (0, -1))
    minus_one = ((-1,),)
    for case_id in ("2.20", "2.29", "3.12", "3.15", "3.20", "4.3", "4.13"):
        record = records[case_id]
        name, _, tau = record.finite[0]
        assert adjoint_matrix(tau, list(record.torus)) == minus_one, case_id
    print("ACCEPTANCE 4 PASS: adjoint matrices match the recorded actions "
          "exactly (2.24 rank-2 matrix; seven rank-1 inversions)")


def test_criterion_5_anticanonical_zeros(catalog):
    # the surface factor of 5.3, then each record's family, 3.25's included
    checked = ["s6"] + [r.toric_family for r in catalog.records if r.toric_family]
    assert checked == ["s6", "p1xp2", "bl2lines-p3", "p1cubed", "p1xs6"]
    for family in checked:
        params = FAMILIES[family].anticanonical()
        assert futaki_vector(class_to_polytope(family, **params)).is_zero(), family
    print(f"ACCEPTANCE 5 PASS: Futaki vector exactly zero at the anticanonical "
          f"parameters of {', '.join(checked)}")


def test_criterion_6_family_3_25_audit(catalog):
    (record,) = [r for r in catalog.records if r.id == "3.25"]
    analysis = analyze_polynomial_case(record)
    unsolved = [a for a in analysis.adjoints if isinstance(a, AdjointUnsolvable)]
    assert len(unsolved) == len(analysis.adjoints) == 2
    assert unsolved[0].permuted_weights == (0, 1, 0, 0)
    report = zero_locus_scan(record.toric_family, Fraction(1, 4), loci=record.loci)
    assert not report.zero_everywhere
    assert all(f.on_locus_all_zero for f in report.loci)
    code, out = run_cli(["report", "3.25"])
    assert code == 0, out
    assert "audit row 3.25: adjoint=unsolvable;toric=locus_and_more;" \
           "theorem1=disagrees" in out
    code, _ = run_cli(["verify", "--all"])
    assert code == 0
    print("ACCEPTANCE 6 PASS: 3.25 report carries the adjoint diagnostic and "
          "the toric scan outcome (zero on a=b, not identically) without "
          "failing the run")


def test_criterion_7_property_suites(catalog):
    from conftest import identity, matmul, random_ambient, random_automorphism, random_poly

    rng = random.Random(123)
    pairs = 0
    while pairs < 200:
        amb = random_ambient(rng)
        deg = tuple(rng.randint(0, 2) for _ in range(amb.nfactors))
        p = random_poly(rng, amb, degree=deg)
        q = random_poly(rng, amb, degree=deg)
        tau = random_automorphism(rng, amb)
        assert tau.pullback(p * q) == tau.pullback(p) * tau.pullback(q)
        assert tau.pullback(p + q) == tau.pullback(p) + tau.pullback(q)
        pairs += 1

    involutions = 0
    for record in catalog.records:
        for name, order, tau in record.finite:
            assert order == 2 and tau.order_divides(2), (record.id, name)
            if not record.torus:
                continue
            a = adjoint_matrix(tau, list(record.torus))
            if isinstance(a, AdjointUnsolvable):
                continue
            assert matmul(a, a) == identity(len(a)), (record.id, name)
            involutions += 1

    corpus = [
        class_to_polytope("p2", h=3),
        class_to_polytope("s6", a=1, b=1, c=Fraction(1, 2)),
        class_to_polytope("s6", a=Fraction(1, 2), b=1, c=Fraction(3, 2)),
        class_to_polytope("p1xp1", a=2, b=5),
        class_to_polytope("p1cubed", a=1, b=2, c=3),
        class_to_polytope("p1xs6", t=2, a=1, b=1, c=1),
        class_to_polytope("bl2lines-p3", h=4, a=1, b=2),
    ]
    transforms = 0
    while transforms < 50:
        p = corpus[transforms % len(corpus)]
        fv = futaki_vector(p).components
        t = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(p.dim)]
        assert futaki_vector(translated(p, t)).components == fv
        k = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
        assert futaki_vector(scaled(p, k)).components == tuple(k * c for c in fv)
        u = _random_unimodular(rng, p.dim)
        expected = tuple(sum(Fraction(u[i][j]) * fv[j] for j in range(p.dim))
                         for i in range(p.dim))
        assert futaki_vector(unimodular_image(p, u, t)).components == expected
        transforms += 1

    from futakizero.toric import (_boundary_route_plane, _boundary_route_vertex,
                                  _solid_route_divergence, _solid_route_triangulation)
    for p in corpus:
        assert _solid_route_triangulation(p) == _solid_route_divergence(p)
        if p.dim == 3:
            assert _boundary_route_vertex(p) == _boundary_route_plane(p)

    products = 0
    two_d = [c for c in corpus if c.dim == 2]
    while products < 20:
        p = two_d[products % len(two_d)]
        q = class_to_polytope("p1", a=Fraction(rng.randint(1, 5), rng.choice([1, 2])))
        f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert donaldson_L(product_polytope(p, q), f + (0,)) \
            == _integral_data(q)[0] * donaldson_L(p, f)
        products += 1

    print(f"ACCEPTANCE 7 PASS: {pairs} pullback pairs, {involutions} involution "
          f"adjoints squared, {transforms} polytope transforms, dual-route "
          f"agreement on {len(corpus)} polytopes, {products} product identities")


def _random_unimodular(rng, d):
    if d == 1:
        return [[rng.choice([1, -1])]]
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(4):
        i, j = rng.sample(range(d), 2)
        c = rng.randint(-2, 2)
        for k in range(d):
            m[i][k] += c * m[j][k]
    return m


def test_criterion_8_catalog_health(catalog):
    code, out = run_cli(["catalog", "validate"])
    assert code == 0
    assert out.strip() == "catalog OK: 34 records, 0 findings"
    assert validate_catalog(catalog) == []
    from futakizero.catalog import default_catalog_text
    assert catalog.render() == default_catalog_text()
    print("ACCEPTANCE 8 PASS: zero findings and a byte-exact catalog round trip")
