import math
import operator
import random
from fractions import Fraction

import pytest

from futakizero import parampoly
from futakizero.catalog import load_catalog, validate_catalog
from futakizero.parampoly import (ParamPolyError, PPoly, RatFunc, _int_content_and_primitive,
                                  _leading, _pseudo_rem, _strip, _uni_degree, exact_div,
                                  poly_gcd)


def upoly(*coeffs):
    """Univariate polynomial in s from ascending coefficients."""
    names = ("s",)
    return PPoly(names, {(k,): Fraction(c) for k, c in enumerate(coeffs) if c})


class TestPolyGcd:
    def test_univariate(self):
        p = upoly(-1, 0, 1)          # s^2 - 1
        q = upoly(1, 2, 1)           # (s+1)^2
        assert poly_gcd(p, q) == upoly(1, 1)

    def test_coprime(self):
        assert poly_gcd(upoly(1, 1), upoly(-1, 1)) == upoly(1)

    def test_two_variables(self):
        names = ("a", "b")
        a = PPoly.var(names, "a")
        b = PPoly.var(names, "b")
        common = a + b
        f = common * (a - b)
        g = common * common
        assert poly_gcd(f, g) == common

    def test_exact_division_raises_when_inexact(self):
        with pytest.raises(ParamPolyError):
            exact_div(upoly(1, 1), upoly(0, 1))

    def test_random_products_reduce(self):
        rng = random.Random(21)
        for _ in range(40):
            f = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            g = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            h = upoly(*[rng.randint(-2, 2) for _ in range(rng.randint(2, 3))])
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            gcd = poly_gcd(f * h, g * h)
            exact_div(gcd, poly_gcd(f, g) * h)  # h * gcd(f, g) divides it


class TestRatFunc:
    def test_reduction(self):
        num = upoly(-1, 0, 1) * upoly(1, 1)
        den = upoly(1, 1) * upoly(-3, 1)
        r = RatFunc(num, den)
        assert r.num == upoly(-1, 0, 1)
        assert r.den == upoly(-3, 1)

    def test_field_identities(self):
        rng = random.Random(9)
        for _ in range(30):
            num = upoly(*[rng.randint(-4, 4) for _ in range(3)])
            den = upoly(*[rng.randint(-4, 4) for _ in range(3)])
            if num.is_zero() or den.is_zero():
                continue
            r = RatFunc(num, den)
            assert r * (1 / r) == 1
            assert r + (-r) == 0
            assert (r + 1) - 1 == r

    def test_denominator_sign_normalized(self):
        r = RatFunc(upoly(1), upoly(0, -2))
        assert r.den == upoly(0, 2) or r.den == upoly(0, 1)
        assert not r.render().startswith("(-")

    @pytest.mark.parametrize("value", [1, Fraction(-3, 4)])
    def test_constant_hashes_as_its_value(self, value):
        # a constant element is the Fraction itself, never a RatFunc
        a = PPoly.var(("a",), "a")
        for const in (RatFunc(PPoly.const(("a",), value)),
                      RatFunc(PPoly.const(("a",), 2 * value), PPoly.const(("a",), 2)),
                      RatFunc(a.scaled(value), a), RatFunc.var(("a",), "a") * 0 + value):
            assert type(const) is Fraction
            assert const == value and hash(const) == hash(value)
            assert len({const, value}) == 1 and value in {const} and const in {value}
        s = RatFunc(upoly(0, 1))
        assert len({s, RatFunc(upoly(0, 2), upoly(2))}) == 1

    def test_evaluate(self):
        r = RatFunc(upoly(1, 1), upoly(-1, 1))     # (1+s)/(s-1)
        assert r.evaluate({"s": Fraction(3)}) == Fraction(2)
        with pytest.raises(ZeroDivisionError):
            r.evaluate({"s": Fraction(1)})


def always_gcd_reduce(num, den):
    """Oracle: the canonical form through poly_gcd and exact_div on every pair,
    constant sides included."""
    if num.is_zero():
        return num, PPoly.const(num.names, 1)
    g = poly_gcd(num, den)
    num = exact_div(num, g)
    den = exact_div(den, g)
    cn, num = _int_content_and_primitive(num)
    cd, den = _int_content_and_primitive(den)
    scale = cn / cd
    _, lead = _leading(den)
    if lead < 0:
        den = -den
        scale = -scale
    return num.scaled(scale.numerator), den.scaled(scale.denominator)


def random_coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))


def random_ppoly(rng, names, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in names)
        terms[expo] = random_coeff(rng)
    return PPoly(names, terms)


def reduce_corpus(seed, names, count):
    """Seeded (num, den) pairs: zero, constants, constant/poly in both orders
    and poly/poly with and without a common factor."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        const = PPoly.const(names, random_coeff(rng))
        other = PPoly.const(names, random_coeff(rng))
        pairs.append((PPoly.zero(names), other))
        pairs.append((const, other))
        if not names:
            continue
        poly = random_ppoly(rng, names)
        pairs.append((const, poly))
        pairs.append((poly, const))
        f, g, h = (random_ppoly(rng, names) for _ in range(3))
        pairs.append((f, g))
        pairs.append((f * h, g * h.scaled(random_coeff(rng))))
        pairs.append((h.scaled(random_coeff(rng)), h))
    return [(n, d) for n, d in pairs if not d.is_zero()]


CONSTANTS = (0, 1, -1, 7, Fraction(-3, 4), Fraction(5, 2))

# each operator with its general formula on (num, den) pairs, whatever the
# operands: (a/b) op (c/d) before reduction
OPERATOR_ORACLES = (
    (operator.add, lambda a, b, c, d: (a * d + c * b, b * d)),
    (operator.sub, lambda a, b, c, d: (a * d - c * b, b * d)),
    (operator.mul, lambda a, b, c, d: (a * c, b * d)),
    (operator.truediv, lambda a, b, c, d: (a * d, b * c)),
)


def pair_of(x, names):
    """(num, den) PPoly pair of a Q(params) element: a RatFunc's fields, or
    a rational number's numerator and denominator."""
    if isinstance(x, RatFunc):
        return x.num, x.den
    x = Fraction(x)
    return PPoly.const(names, x.numerator), PPoly.const(names, x.denominator)


def assert_canonical(got, num, den):
    """``got`` is the canonical form of num/den by ``always_gcd_reduce``: the
    reduced Fraction when that leaves a constant pair, else a RatFunc with
    exactly that pair, which is then non-constant and equals no Fraction."""
    want_num, want_den = always_gcd_reduce(num, den)
    if want_num.is_constant() and want_den.is_constant():
        value = want_num.constant_value() / want_den.constant_value()
        assert type(got) is Fraction and got == value, (got, value)
        assert hash(got) == hash(value)
        return
    assert type(got) is RatFunc, (got, want_num, want_den)
    assert (got.num.names, got.num.terms) == (want_num.names, want_num.terms), got
    assert got.den.terms == want_den.terms, got
    assert not (got.num.is_constant() and got.den.is_constant())
    assert got != 0 and got != 1 and 0 != got
    assert got == RatFunc(num, den) and hash(got) == hash(RatFunc(num, den))


class TestCanonicalFormOracle:
    @pytest.mark.parametrize("names,count", [((), 200), (("a",), 120), (("a", "b"), 60)])
    def test_matches_always_gcd_reduction(self, names, count):
        pairs = reduce_corpus(len(names), names, count)
        kinds = {(n.is_zero(), n.is_constant(), d.is_constant()) for n, d in pairs}
        expected_kinds = {(True, True, True), (False, True, True)}
        if names:
            expected_kinds |= {(False, True, False), (False, False, True),
                               (False, False, False)}
        assert kinds == expected_kinds
        for num, den in pairs:
            r = RatFunc(num, den)
            assert_canonical(r, num, den)
            if isinstance(r, RatFunc):
                assert (r.num.names, r.den.names) == (names, names)

    @pytest.mark.parametrize("names,count", [((), 12), (("a",), 3), (("a", "b"), 2)])
    def test_operators_match_reduce_oracle(self, names, count):
        constants = [Fraction(v) for v in CONSTANTS]
        elements = constants + [RatFunc(n, d) for n, d in reduce_corpus(7, names, count)]
        assert any(isinstance(x, RatFunc) for x in elements) == bool(names)
        for x in elements:
            a, b = pair_of(x, names)
            assert_canonical(-x, -a, b)
            for y in elements:
                c, d = pair_of(y, names)
                for op, oracle in OPERATOR_ORACLES:
                    if op is operator.truediv and y == 0:
                        with pytest.raises(ZeroDivisionError):
                            op(x, y)
                        continue
                    assert_canonical(op(x, y), *oracle(a, b, c, d))
            # int and Fraction operands on either side
            for k in CONSTANTS:
                c, d = pair_of(k, names)
                for op, oracle in OPERATOR_ORACLES:
                    if not (op is operator.truediv and x == 0):
                        assert_canonical(op(k, x), *oracle(c, d, a, b))
                    if not (op is operator.truediv and k == 0):
                        assert_canonical(op(x, k), *oracle(a, b, c, d))
        for k in CONSTANTS:
            assert_canonical(RatFunc(PPoly.const(names, k)), *pair_of(k, names))

    def test_shipped_catalog_runs_gcd_only_on_nonconstant_pairs(self, monkeypatch):
        calls = []
        real_gcd = parampoly.poly_gcd

        def guarded(p, q):
            assert not p.is_constant() and not q.is_constant(), (p, q)
            calls.append(p.names)
            return real_gcd(p, q)

        monkeypatch.setattr(parampoly, "poly_gcd", guarded)
        catalog = load_catalog()
        assert calls == []
        # the span solves of validation do reduce poly/poly ratios
        assert validate_catalog(catalog) == []
        assert calls


class TestConstantWork:
    def test_verify_all_reduces_few_pairs(self, monkeypatch):
        # 17 of the 20 symbolic records declare no parameter: their field
        # arithmetic is on constants and never reaches _reduce (8,279 calls
        # if every result went through it)
        import io

        from futakizero.cli import main
        calls = []
        real_reduce = parampoly._reduce

        def counted(num, den):
            calls.append(num.names)
            return real_reduce(num, den)

        monkeypatch.setattr(parampoly, "_reduce", counted)
        assert main(["verify", "--all"], out=io.StringIO()) == 0
        assert 0 < len(calls) <= 400

    def test_verify_all_builds_ratfuncs_only_for_parametrised_records(self, monkeypatch):
        # a record that declares no parameter computes on Fractions alone, and
        # every RatFunc built is non-constant; the locus lines of 3.25 and 5.3
        # are read over Q(a, b, c) and counted apart
        import io

        from futakizero import catalog, cli, polyring
        current = [None]
        built = {}
        real_new = RatFunc.__new__

        def counted_new(cls, num, den=None):
            r = real_new(cls, num, den)
            if isinstance(r, RatFunc):
                assert not (r.num.is_constant() and r.den.is_constant()), r
                built[current[0]] = built.get(current[0], 0) + 1
            return r

        def attributed(fn, record_id):
            def run(*args):
                previous, current[0] = current[0], record_id(*args)
                try:
                    return fn(*args)
                finally:
                    current[0] = previous
            return run

        monkeypatch.setattr(RatFunc, "__new__", counted_new)
        monkeypatch.setattr(catalog, "_build_record",
                            attributed(catalog._build_record, lambda case_id, *_: case_id))
        monkeypatch.setattr(cli, "validate_case",
                            attributed(cli.validate_case, lambda record: record.id))
        monkeypatch.setattr(cli, "evaluate_record",
                            attributed(cli.evaluate_record, lambda record: record.id))
        # catalog and toric import it from polyring at each call; parsed
        # once per line and names, so parsed anew only with an empty memo
        polyring._equations.cache_clear()
        monkeypatch.setattr(polyring, "parse_equations",
                            attributed(polyring.parse_equations, lambda *_: ("locus", current[0])))
        assert cli.main(["verify", "--all"], out=io.StringIO()) == 0
        assert {k for k in built if isinstance(k, str)} == {"2.21", "3.10-a", "3.13"}, built
        assert {k[1] for k in built if isinstance(k, tuple)} == {"3.25", "5.3"}, built


def _oracle_evaluate(p, values):
    """PPoly.evaluate term by term in Fractions."""
    total = Fraction(0)
    for expo, c in p.terms.items():
        v = c
        for name, e in zip(p.names, expo):
            v *= Fraction(values[name]) ** e
        total += v
    return total


class TestEvaluateOracle:
    def test_matches_fraction_evaluation(self):
        rng = random.Random(977)
        for names in ((), ("a",), ("a", "b"), ("a", "b", "c")):
            for _ in range(150):
                terms = {tuple(rng.randint(0, 4) for _ in names):
                         Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                         for _ in range(rng.randint(0, 8))}
                p = PPoly(names, terms)
                values = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for n in names}
                assert p.evaluate(values) == _oracle_evaluate(p, values)
        assert PPoly.zero(("a",)).evaluate({"a": 3}) == 0

    def test_scalar_arithmetic(self):
        a = PPoly.var(("a",), "a")
        assert 1 + a == a + 1 == PPoly(("a",), {(0,): Fraction(1), (1,): Fraction(1)})
        assert 1 - a == -(a - 1)
        assert (a + 3) / 6 == (a + 3) * Fraction(1, 6)
        assert sum([a, a], Fraction(0)) == 2 * a


class FractionPPoly:
    """Oracle: PPoly as an exponent -> Fraction dict, the form it had before
    integer coefficients over one denominator (render is shared: it reads
    only ``terms``)."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms):
        self.names = tuple(names)
        self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}

    @classmethod
    def const(cls, names, value):
        return cls(names, {(0,) * len(names): value})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self):
        assert self.is_constant()
        return next(iter(self.terms.values()), Fraction(0))

    def degree_in(self, i):
        return max((expo[i] for expo in self.terms), default=0)

    def __eq__(self, other):
        return self.names == other.names and self.terms == other.terms

    def _binop(self, other, sign):
        if not isinstance(other, FractionPPoly):
            other = FractionPPoly.const(self.names, other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + sign * c
        return FractionPPoly(self.names, terms)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return FractionPPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FractionPPoly):
            other = FractionPPoly.const(self.names, other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return FractionPPoly(self.names, terms)

    def __truediv__(self, other):
        return self.scaled(1 / Fraction(other))

    def __pow__(self, k):
        result = FractionPPoly.const(self.names, 1)
        for _ in range(k):
            result = result * self
        return result

    def scaled(self, factor):
        return FractionPPoly(self.names, {e: c * Fraction(factor) for e, c in self.terms.items()})

    evaluate = _oracle_evaluate
    sorted_terms = PPoly.sorted_terms
    render = PPoly.render


def oracle_content_and_primitive(p):
    if p.is_zero():
        return Fraction(1), p
    num_gcd, den_lcm = 0, 1
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = math.lcm(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    return content, p.scaled(1 / content)


def oracle_exact_div(p, q):
    quotient = FractionPPoly(p.names, {})
    rest = p
    qe = max(q.terms)
    while not rest.is_zero():
        re = max(rest.terms)
        if not all(a <= b for a, b in zip(qe, re)):
            raise ParamPolyError("inexact polynomial division")
        mono = FractionPPoly(p.names, {tuple(a - b for a, b in zip(re, qe)):
                                       rest.terms[re] / q.terms[qe]})
        quotient = quotient + mono
        rest = rest - mono * q
    return quotient


def oracle_positive_primitive(p):
    if p.is_zero():
        return p
    _, p = oracle_content_and_primitive(p)
    return -p if p.terms[max(p.terms)] < 0 else p


def oracle_gcd(p, q):
    """poly_gcd as it ran on Fraction dicts: recursive primitive pseudo-remainder
    sequences in the first name over the others."""
    if p.is_zero() or q.is_zero():
        return oracle_positive_primitive(q if p.is_zero() else p)
    if not p.names:
        return FractionPPoly.const(p.names, 1)
    return oracle_positive_primitive(oracle_gcd_rec(oracle_content_and_primitive(p)[1],
                                                    oracle_content_and_primitive(q)[1]))


def oracle_gcd_rec(p, q):
    if p.is_zero() or q.is_zero():
        return q if p.is_zero() else p
    names = p.names
    if not names:
        a, b = p.constant_value(), q.constant_value()
        return FractionPPoly.const(names, abs(Fraction(
            math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
            a.denominator * b.denominator)))
    if p.degree_in(0) == 0 and q.degree_in(0) == 0:
        sub = oracle_gcd_rec(*(FractionPPoly(names[1:], {e[1:]: c for e, c in x.terms.items()})
                               for x in (p, q)))
        return FractionPPoly(names, {(0,) + e: c for e, c in sub.terms.items()})

    def split(x):
        by_deg = {}
        for expo, c in x.terms.items():
            by_deg.setdefault(expo[0], {})[expo[1:]] = c
        return [FractionPPoly(names[1:], by_deg.get(i, {}))
                for i in range(max(by_deg, default=0) + 1)]

    def content(coeffs):
        g = FractionPPoly(names[1:], {})
        for c in coeffs:
            g = oracle_gcd_rec(g, c)
            if g.is_constant() and not g.is_zero():
                break
        return FractionPPoly.const(names[1:], 1) if g.is_zero() else g

    f, g = split(p), split(q)
    if _uni_degree(f) < _uni_degree(g):
        f, g = g, f
    cont_f, cont_g = content(f), content(g)
    f = [oracle_exact_div(c, cont_f) for c in f]
    g = [oracle_exact_div(c, cont_g) for c in g]
    while True:
        r = _pseudo_rem(f, g)
        if _uni_degree(r) < 0:
            break
        cont_r = content(r)
        r = [oracle_exact_div(c, cont_r) for c in r]
        f, g = g, r
    cont = oracle_gcd_rec(cont_f, cont_g)
    terms = {(i,) + e: v for i, c in enumerate(_strip(g)) for e, v in (c * cont).terms.items()}
    return oracle_content_and_primitive(FractionPPoly(names, terms))[1]


def oracle_corpus(seed, names, count):
    """Seeded (PPoly, FractionPPoly) pairs of equal terms: zero, constants
    and fractional coefficients."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        if k % 5 == 0:
            terms = {}
        elif k % 5 == 1 or not names:
            terms = {(0,) * len(names): random_coeff(rng)}
        else:
            terms = {tuple(rng.randint(0, 2) for _ in names):
                     random_coeff(rng) if rng.random() < 0.5 else rng.randint(-6, 6)
                     for _ in range(rng.randint(1, 4))}
        pairs.append((PPoly(names, terms), FractionPPoly(names, terms)))
    return pairs


def same(got, want):
    return got.names == want.names and got.terms == want.terms


NAME_TUPLES = ((), ("a",), ("a", "b"), ("a", "b", "c"))


class TestIntegerFormOracle:
    @pytest.mark.parametrize("names", NAME_TUPLES)
    def test_arithmetic_matches_fraction_dicts(self, names):
        corpus = oracle_corpus(len(names), names, 30)
        rng = random.Random(5)
        for p, fp in corpus:
            assert p.den > 0 and math.gcd(p.den, *p.num.values()) == 1
            assert all(p.num.values()) and (p.num or p.den == 1)
            assert same(-p, -fp)
            assert same(p ** 2, fp ** 2) and same(p ** 0, fp ** 0)
            assert p.render() == fp.render()
            k = random_coeff(rng)
            assert same(p.scaled(k), fp.scaled(k)) and same(p / k, fp / k)
            assert same(p * 0, fp * 0) and same(p.scaled(0), fp.scaled(0))
            values = {n: random_coeff(rng) for n in names}
            assert p.evaluate(values) == fp.evaluate(values)
            for q, fq in corpus:
                for op in (operator.add, operator.sub, operator.mul):
                    assert same(op(p, q), op(fp, fq)), (p, q, op)
                assert (p == q) == (fp == fq)
                if p == q:
                    assert hash(p) == hash(q)
            for k in CONSTANTS:
                assert same(p + k, fp + k) and same(k + p, fp + k)
                assert same(p - k, fp - k) and same(k - p, -fp + k)
                assert same(p * k, fp * k) and same(k * p, fp * k)

    @pytest.mark.parametrize("names", NAME_TUPLES)
    def test_canonical_form(self, names):
        for p, fp in oracle_corpus(len(names) + 10, names, 40):
            for k in (3, Fraction(-2, 7)):
                r = (p * k) / k
                assert r == p and hash(r) == hash(p) and (r.num, r.den) == (p.num, p.den)
                assert r == p + p - p and hash(p + p - p) == hash(p)

    @pytest.mark.parametrize("names", NAME_TUPLES[1:])
    def test_exact_div_and_gcd_match_fraction_dicts(self, names):
        corpus = [pair for pair in oracle_corpus(len(names) + 20, names, 25)
                  if not pair[0].is_zero()]
        for (f, ff), (g, fg), (h, fh) in zip(corpus, corpus[1:], corpus[2:]):
            assert same(exact_div(f * h, h), oracle_exact_div(ff * fh, fh))
            assert same(poly_gcd(f * h, g * h), oracle_gcd(ff * fh, fg * fh))
            assert same(poly_gcd(f, g), oracle_gcd(ff, fg))
            # exact or not: both raise, or both give the same quotient
            other = f * h + PPoly.var(names, names[-1])
            try:
                want = oracle_exact_div(FractionPPoly(names, other.terms), fh)
            except ParamPolyError:
                with pytest.raises(ParamPolyError):
                    exact_div(other, h)
            else:
                assert same(exact_div(other, h), want)

