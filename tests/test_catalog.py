import random
from fractions import Fraction

import pytest

from futakizero.catalog import (EXCEPTION_FAMILIES, FAMILY_LIST, CatalogError,
                                default_catalog_text, load_catalog,
                                validate_case, validate_catalog)


class TestLoad:
    def test_record_inventory(self, catalog):
        assert len(catalog.records) == 34
        assert set(catalog.families()) == set(FAMILY_LIST)
        ids = [r.id for r in catalog.records]
        assert "3.10-a0" in ids and "3.10-a" in ids

    def test_empty_file_rejected(self):
        with pytest.raises(CatalogError):
            load_catalog(text="")

    def test_duplicate_id_rejected(self):
        text = ('version = 1\n[case "9.1"]\nkind = semisimple_full\n'
                'theorem = 1\nexpected = full_cone\n[case "9.1"]\n'
                'kind = semisimple_full\ntheorem = 1\nexpected = full_cone\n')
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(text=text)

    def test_wrong_weight_length_rejected(self):
        text = ('version = 1\n[case "x.1"]\nkind = polynomial\ntheorem = 1\n'
                'expected = full_cone\nambient = x0 x1 x2\n'
                'torus = weights(1, 2)\nh11 = h\n')
        with pytest.raises(CatalogError, match="weight length"):
            load_catalog(text=text)

    def test_undeclared_symbol_rejected(self):
        text = ('version = 1\n[case "x.1"]\nkind = polynomial\ntheorem = 1\n'
                'expected = full_cone\nambient = x0 x1 x2\n'
                'variety = x0*q\nh11 = h\n')
        with pytest.raises(CatalogError, match="unknown symbol"):
            load_catalog(text=text)

    def test_errors_carry_line_numbers(self):
        text = 'version = 1\n[case "x.1"]\nkind = polynomial\nbogus line\n'
        with pytest.raises(CatalogError, match="line 4"):
            load_catalog(text=text)

    def test_factors_clause_cross_checked(self):
        text = ('version = 1\n[case "x.1"]\nkind = polynomial\ntheorem = 1\n'
                'expected = full_cone\nambient = x0 x1 | y0 y1\n'
                'finite = tau : order 2 : factors = (1 2) : map(y0, y1, x0, x1)\n'
                'h11 = h1, h2\n')
        with pytest.raises(CatalogError, match="factors"):
            load_catalog(text=text)


class TestRoundTrip:
    def test_shipped_catalog_is_byte_exact(self, catalog):
        assert catalog.render() == default_catalog_text()

    def test_reload_of_render_is_stable(self, catalog):
        again = load_catalog(text=catalog.render())
        assert again.render() == catalog.render()


class TestValidate:
    def test_shipped_catalog_has_zero_findings(self, catalog):
        assert validate_catalog(catalog) == []

    def test_both_presentation_cross_checks(self, catalog):
        (record,) = [r for r in catalog.records if r.id == "3.5"]
        assert validate_case(record) == []
        center = record.centers[0].presentation
        assert center.kind() == "both"
        for g in center.ideal:
            assert center.curve.substituted(g).is_zero()

    def test_wrong_torus_yields_finding(self, catalog):
        (base,) = [r for r in catalog.records if r.id == "3.10-a"]
        text = default_catalog_text().replace(
            "weights(1, -1, 1, -1, 0)", "weights(1, -1, 0, 0, 0)")
        (broken,) = load_catalog(text=text, case="3.10-a").records
        findings = validate_case(broken)
        assert any("torus" in f for f in findings)
        assert validate_case(base) == []

    def test_wrong_order_yields_finding(self, catalog):
        # an involution composed three times is itself, never the identity
        text = default_catalog_text().replace(
            "varsigma : order 2", "varsigma : order 3", 1)
        (broken,) = load_catalog(text=text, case="3.10-a").records
        findings = validate_case(broken)
        assert any("order" in f for f in findings)

    @pytest.mark.parametrize("old,new,findings", [
        ("h11 = c1, S, S'\n", "",
         ["abstract record needs h11, anticanonical and an adjoint",
          "anticanonical vector length mismatch"]),
        ("matrix(-1) : classes (1 3 2)", "matrix(-1 0) : classes (1 3 2)",
         ["adjoint tau is not 1x1"]),
        ("classes (1 3 2)\n", "classes (1 3 2)\nadjoint = sigma : matrix(1 0; 0 1) : "
         "classes (1 2 3)\n", ["adjoint sigma is not 1x1"]),
        ("anticanonical = 1, 0, 0", "anticanonical = 1, 0",
         ["anticanonical vector length mismatch"])],
        ids=["no-h11", "not-square", "two-sizes", "anticanonical-length"])
    def test_abstract_record_findings(self, old, new, findings):
        text = default_catalog_text()
        assert text.count(old) == 1
        (broken,) = load_catalog(text=text.replace(old, new), case="3.9").records
        assert validate_case(broken) == findings

    def test_loci_checked_on_every_scanned_family(self):
        text = default_catalog_text()
        bad_locus = text.replace("locus = a = b = c\n", "locus = a = b = t\n", 1)
        assert bad_locus != text
        # t is a parameter of p1xs6 but not of the scanned s6 factor
        (record,) = load_catalog(text=bad_locus, case="5.3").records
        assert validate_case(record) == [
            "bad locus equation 'a = b = t' on s6: unknown symbol 't'"]
        unknown = text.replace("toric_family = bl2lines-p3\n", "toric_family = nope\n", 1)
        (record,) = load_catalog(text=unknown, case="3.25").records
        assert validate_case(record) == [
            "unknown toric family 'nope'"]

    def test_theorem_partition_matches_expected_verdicts(self, catalog):
        for record in catalog.records:
            if record.family in EXCEPTION_FAMILIES:
                assert record.theorem == 2, record.id
                assert record.expected[0] != "full_cone", record.id
            else:
                assert record.theorem == 1, record.id
                assert record.expected[0] in ("full_cone", "see_toric"), record.id

    def test_exclusions_cover_span_denominators(self, catalog):
        from futakizero.symmetry import check_variety_invariant
        for record in catalog.records:
            if not record.variety:
                continue
            for name, _, tau in record.finite:
                res = check_variety_invariant(record.variety, tau)
                assert res.invariant, (record.id, name)
                for d in res.denominators:
                    assert record.params.uncovered(d).is_constant(), (record.id, name)

    @pytest.mark.parametrize("param,findings", [
        ("a", ["symmetry tau: span-solve denominator -2 + a vanishes off the excluded "
               "values: -2 + a = 0"]),
        ("a excludes 2", [])])
    def test_span_denominators_checked_against_exclusions(self, param, findings):
        # tau pulls x1^2 back to x0^2 = 1/(a - 2) * (a - 2)*x0^2
        assert validate_case(_swap_case(param, "(a - 2)*x0^2")) == findings

    def test_exclusion_of_another_parameter_covers_no_denominator(self):
        # b excludes 2, but the denominator a - 2 vanishes at a = 2
        assert validate_case(_swap_case("a\nparam = b excludes 2", "(a - 2)*x0^2")) == [
            "symmetry tau: span-solve denominator -2 + a vanishes off the excluded "
            "values: -2 + a = 0"]

    def test_product_of_excluded_factors_is_covered(self):
        # the denominator (a - 2)*(b - 3) vanishes only where a = 2 or b = 3
        assert validate_case(_swap_case("a excludes 2\nparam = b excludes 3",
                                        "(a - 2)*(b - 3)*x0^2")) == []

    def test_sampled_parameter_crosscheck(self, catalog):
        # deterministic sample values: first admissible of (1/2, 2, 3, 1/3, 5...)
        from futakizero.symmetry import check_variety_invariant
        for record in catalog.records:
            if not record.variety or not record.params.names:
                continue
            point = _sample_point(record.params)
            specialized = [_evaluate_params(g, point) for g in record.variety]
            for name, _, tau in record.finite:
                generic = check_variety_invariant(record.variety, tau)
                sampled_tau = _specialize_automorphism(tau, point)
                sampled = check_variety_invariant(specialized, sampled_tau)
                assert sampled.invariant, (record.id, name)
                for grow, srow in zip(generic.matrix, sampled.matrix):
                    for g, s in zip(grow, srow):
                        assert type(s) is Fraction and _value_at(g, point) == s

    def test_scan_outcomes_are_the_classify_values(self):
        # expected_toric is checked against this list at load time
        from futakizero.catalog import SCAN_OUTCOMES
        from futakizero.cells import LocusFit, ScanReport
        outcomes = {ScanReport("s6", 1, (), 0, loci, covered, zero).classify()
                    for loci in ((), (LocusFit("a = b", False, 0),),
                                 (LocusFit("a = b", True, 1),))
                    for covered in (False, True) for zero in (False, True)}
        assert outcomes == set(SCAN_OUTCOMES)

    def test_sample_sequence_skips_excluded(self):
        from futakizero.polyring import ParamField
        pf = ParamField(("t",), {"t": (Fraction(1, 2), 2, 3)})
        assert _sample(pf, "t") == Fraction(1, 3)


# the fixed cross-check sequence of parameter samples
_SAMPLE_SEQUENCE = (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(1, 3),
                    Fraction(5), Fraction(1, 5), Fraction(7), Fraction(1, 7),
                    Fraction(11), Fraction(13))


def _swap_case(param, variety):
    """A one-record catalog's record: the given parameter lines, the variety
    and x1^2, and the symmetry tau swapping x0 and x1."""
    text = ('version = 1\n[case "x.1"]\nkind = polynomial\ntheorem = 1\n'
            f'expected = full_cone\nparam = {param}\nambient = x0 x1\n'
            f'variety = {variety}\nvariety = x1^2\n'
            'finite = tau : order 2 : factors = (1) : map(x1, x0)\nh11 = h\n')
    (record,) = load_catalog(text=text, case="x.1").records
    return record


def _sample(params, name):
    """First admissible member of the fixed cross-check sequence."""
    return next(v for v in _SAMPLE_SEQUENCE if v not in params.excluded.get(name, ()))


def _sample_point(params):
    return {n: _sample(params, n) for n in params.names}


def _value_at(c, point):
    """A Q(params) element (Fraction or RatFunc) at a parameter point."""
    return c if isinstance(c, Fraction) else c.evaluate(point)


def _evaluate_params(poly, point):
    """Specialize the parameters of a MultiPoly, returning a MultiPoly over Q."""
    from futakizero.polyring import MultiPoly, ParamField
    terms = {e: _value_at(c, point) for e, c in poly.terms.items()}
    return MultiPoly(poly.ambient, ParamField(), terms, check=False)


def _specialize_automorphism(tau, point):
    from futakizero.polyring import ParamField
    from futakizero.symmetry import MonomialAutomorphism
    scalars = tuple(_value_at(c, point) for c in tau.scalars)
    return MonomialAutomorphism(tau.ambient, tau.perm, scalars, ParamField())


def _header_and_records(text):
    """The lines before the first record, and each record's text."""
    first = text.index('\n[case "') + 1
    return text[:first], ['[case "' + r for r in text[first:].split('[case "')[1:]]


_FUZZ_ALPHABET = "0123456789abcdehilmnorstxz()=:,;|+-*/^ _\n"


def _single_edit_mutants(seed, count):
    """Seeded single-character edits (replace, delete or insert) of one
    shipped record at a time, each with the catalog header only."""
    header, records = _header_and_records(default_catalog_text())
    rng = random.Random(seed)
    for _ in range(count):
        record = rng.choice(records)
        i = rng.randrange(len(record))
        op = rng.choice("rdi")
        ch = rng.choice(_FUZZ_ALPHABET)
        if op == "r":
            yield header + record[:i] + ch + record[i + 1:]
        elif op == "d":
            yield header + record[:i] + record[i + 1:]
        else:
            yield header + record[:i] + ch + record[i:]


def _record_with(case_id, old, new):
    header, records = _header_and_records(default_catalog_text())
    record = next(r for r in records if r.startswith(f'[case "{case_id}"]'))
    assert old in record
    return header + record.replace(old, new, 1)


def _escapes(texts):
    """(exception, text) for each text that ends load and validation in
    anything but a CatalogError."""
    escapes = []
    for text in texts:
        try:
            validate_catalog(load_catalog(text=text))
        except CatalogError:
            pass
        except Exception as exc:   # any other exception is an escape
            escapes.append((repr(exc), text))
    return escapes


class TestFuzz:
    def test_single_character_edits_raise_only_catalog_errors(self):
        assert _escapes(_single_edit_mutants(2023, 1000)) == []

    def test_single_character_edits_name_their_line(self):
        # the record's wrapper adds the line to every error of a value parser
        unplaced = []
        for text in _single_edit_mutants(2023, 1000):
            try:
                load_catalog(text=text)
            except CatalogError as exc:
                if exc.line is None:
                    unplaced.append((str(exc), text))
        assert unplaced == []

    @pytest.mark.parametrize("case_id,old,new,message", [
        # the newline before ambient deleted: the line joins the aut value
        ("2.22", "\nambient", "ambient", "center without an ambient"),
        ("3.9", "matrix(-1)", "matrix(-1;)", "ragged rows"),
        ("2.27", "kind = semisimple_full", "kind = polynomial", "missing key 'ambient'")])
    def test_found_escapes_are_catalog_errors(self, case_id, old, new, message):
        with pytest.raises(CatalogError, match=message):
            validate_catalog(load_catalog(text=_record_with(case_id, old, new)))
