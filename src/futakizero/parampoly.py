"""Exact arithmetic in the fraction field Q(params).

Coefficients of multihomogeneous polynomials, scalars of monomial maps and
span-solve results all live in Q(a, s, t, ...).  A constant element is a
reduced Fraction and any other a reduced ratio of integer-coefficient
polynomials (``RatFunc``), so that printed forms are canonical and golden
tests stay byte-stable.  A polynomial of Q[params] is itself kept
as integer coefficients over one denominator, so that its arithmetic runs on
Python ints (Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
ch. 2).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod


class ParamPolyError(ValueError):
    pass


class PPoly:
    """Polynomial over Q in a fixed ordered tuple of names, stored as integer
    coefficients over one denominator: ``num`` maps exponent tuples to
    nonzero ints, ``den`` is a positive int, and gcd(den, *num) = 1, zero
    being {} over 1.  The form is canonical, so == and hash read the fields.

    ``PPoly(names, terms)`` takes exponent -> int or Fraction; ``terms`` is
    the read-only Fraction view of the coefficients."""

    __slots__ = ("names", "num", "den")

    def __init__(self, names, terms):
        # the lcm of the reduced denominators is already in lowest terms
        terms = {e: Fraction(c) for e, c in terms.items() if c}
        den = lcm(1, *(c.denominator for c in terms.values()))
        self.names = tuple(names)
        self.num = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        self.den = den

    @classmethod
    def zero(cls, names):
        return _raw(tuple(names), {}, 1)

    @classmethod
    def const(cls, names, value):
        value = Fraction(value)
        if value == 0:
            return cls.zero(names)
        return _raw(tuple(names), {(0,) * len(names): value.numerator}, value.denominator)

    @classmethod
    def var(cls, names, name):
        i = tuple(names).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(names)))
        return _raw(tuple(names), {expo: 1}, 1)

    @property
    def terms(self):
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return not any(map(any, self.num))

    def constant_value(self):
        if not self.is_constant():
            raise ParamPolyError("not a constant polynomial")
        return Fraction(sum(self.num.values()), self.den)

    def degree_in(self, i):
        return max((expo[i] for expo in self.num), default=0)

    def __eq__(self, other):
        return (isinstance(other, PPoly) and self.names == other.names
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.names, self.den, frozenset(self.num.items())))

    def _binop(self, other, sign):
        if not isinstance(other, PPoly):
            other = PPoly.const(self.names, other)
        den = lcm(self.den, other.den)
        m = den // self.den
        num = {e: c * m for e, c in self.num.items()} if m != 1 else dict(self.num)
        m = sign * (den // other.den)
        for expo, c in other.num.items():
            c = num.get(expo, 0) + m * c
            if c:
                num[expo] = c
            else:
                del num[expo]
        return _reduced(self.names, num, den)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self)._binop(other, 1)

    def __neg__(self):
        return _raw(self.names, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, PPoly):
            return self.scaled(other)
        num = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(map(operator.add, e1, e2))
                num[e] = num.get(e, 0) + c1 * c2
        return _reduced(self.names, {e: c for e, c in num.items() if c},
                        self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar."""
        return self.scaled(1 / Fraction(other))

    def __pow__(self, k):
        result = PPoly.const(self.names, 1)
        for _ in range(k):
            result = result * self
        return result

    def scaled(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return PPoly.zero(self.names)
        k = factor.numerator
        return _reduced(self.names, {e: c * k for e, c in self.num.items()},
                        self.den * factor.denominator)

    def evaluate(self, values):
        """Evaluate at a dict name -> Fraction: one integer sum over the common
        denominator of the point, divided once."""
        point = [Fraction(values[n]) for n in self.names]
        tops = [max(column) for column in zip(*self.num)]
        # powers[i][e] = p_i^e * q_i^(top_i - e) for the value p_i/q_i of name i
        powers = [[x.numerator ** e * x.denominator ** (top - e) for e in range(top + 1)]
                  for x, top in zip(point, tops)]
        total = 0
        for expo, c in self.num.items():
            for row, e in zip(powers, expo):
                c *= row[e]
            total += c
        return Fraction(total, self.den * prod(x.denominator ** top
                                               for x, top in zip(point, tops)))

    def sorted_terms(self):
        # display order: grade first, then earlier names first
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), tuple(-k for k in item[0])))

    def render(self):
        """Canonical text form, ascending lex exponent order."""
        return render_terms(self.sorted_terms(), self.names)

    def __repr__(self):
        return f"PPoly({self.render()!r})"


def render_terms(terms, names):
    """The text of a sum of (exponent, coefficient) terms in ``names``, in the
    order given: a rational coefficient prints as itself, a unit one before a
    monomial as its sign only, and a ``RatFunc`` as its ``render``, in
    parentheses unless it is one term over a constant.  PPoly and
    ``polyring.MultiPoly`` both print through it."""
    text = ""
    for expo, c in terms:
        term = c.render() if isinstance(c, RatFunc) else str(c)
        if isinstance(c, RatFunc) and (len(c.num.num) > 1 or not c.den.is_constant()):
            term = f"({term})"
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e > 0)
        if mono:
            term = {"1": "", "-1": "-"}.get(term, term + "*") + mono
        if not text:
            text = term
        else:
            text += f" - {term[1:]}" if term[0] == "-" else f" + {term}"
    return text or "0"


def _raw(names, num, den):
    """The PPoly of fields already in lowest terms."""
    p = object.__new__(PPoly)
    p.names = names
    p.num = num
    p.den = den
    return p


def _reduced(names, num, den):
    """The PPoly of nonzero ints ``num`` over ``den`` > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _raw(names, num, den)


def _int_content_and_primitive(p):
    """Largest Fraction c with p = c * (primitive integer-coefficient poly)."""
    if p.is_zero():
        return Fraction(1), p
    g = gcd(*p.num.values())
    return Fraction(g, p.den), _raw(p.names, {e: c // g for e, c in p.num.items()}, 1)


def _leading(p):
    """(exponent, numerator) of the lex-leading term; the numerator has the
    coefficient's sign."""
    expo = max(p.num)
    return expo, p.num[expo]


def _monomial_divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def exact_div(p, q):
    """Exact polynomial division p / q; raises ParamPolyError if not exact.

    With q = c * Q for Q primitive, a quotient of p's integer numerator by Q
    in Q[params] has integer coefficients (Gauss's lemma), so the long
    division runs on ints and stops at the first step that is not exact."""
    if q.is_zero():
        raise ParamPolyError("division by zero polynomial")
    content, q = _int_content_and_primitive(q)
    qe, qc = _leading(q)
    rest = dict(p.num)
    quotient = {}
    while rest:
        re = max(rest)
        m, r = divmod(rest[re], qc)
        if r or not _monomial_divides(qe, re):
            raise ParamPolyError("inexact polynomial division")
        me = tuple(map(operator.sub, re, qe))
        quotient[me] = m
        for expo, c in q.num.items():
            expo = tuple(map(operator.add, expo, me))
            c = rest.get(expo, 0) - m * c
            if c:
                rest[expo] = c
            else:
                del rest[expo]
    return _reduced(p.names, {e: c * content.denominator for e, c in quotient.items()},
                    p.den * content.numerator)


def _coeffs_in_main_var(p):
    """Split p in Q[x0,...,x_{k-1}] as a list of coefficients of x0^i, each a
    PPoly in the remaining names."""
    rest = p.names[1:]
    by_deg = {}
    for expo, c in p.num.items():
        by_deg.setdefault(expo[0], {})[expo[1:]] = c
    top = max(by_deg, default=0)
    return [_reduced(rest, by_deg.get(i, {}), p.den) for i in range(top + 1)]


def _from_coeffs(coeffs, names):
    den = lcm(1, *(c.den for c in coeffs))
    num = {}
    for i, c in enumerate(coeffs):
        m = den // c.den
        for expo, v in c.num.items():
            num[(i,) + expo] = v * m
    return _reduced(names, num, den)


def _uni_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if not coeffs[i].is_zero():
            return i
    return -1


def _pseudo_rem(f, g):
    """Pseudo-remainder of f by g, both coefficient lists over PPoly."""
    dg = _uni_degree(g)
    lc_g = g[dg]
    r = list(f)
    while _uni_degree(r) >= dg:
        dr = _uni_degree(r)
        lc_r = r[dr]
        r = [c * lc_g for c in r]
        shift = dr - dg
        for i in range(dg + 1):
            r[i + shift] = r[i + shift] - lc_r * g[i]
        while r and r[-1].is_zero():
            r.pop()
        if not r:
            break
    return r


def poly_gcd(p, q):
    """Gcd of two PPoly, primitive with positive leading coefficient."""
    if p.names != q.names:
        raise ParamPolyError("gcd across different parameter tuples")
    if p.is_zero():
        return _positive_primitive(q)
    if q.is_zero():
        return _positive_primitive(p)
    if not p.names:
        return PPoly.const(p.names, 1)
    _, p = _int_content_and_primitive(p)
    _, q = _int_content_and_primitive(q)
    return _positive_primitive(_gcd_rec(p, q))


def _content_poly(coeffs):
    names = coeffs[0].names if coeffs else ()
    g = PPoly.zero(names)
    for c in coeffs:
        g = _gcd_rec(g, c)
        if g.is_constant() and not g.is_zero():
            break
    if g.is_zero():
        return PPoly.const(names, 1)
    return g


def _gcd_rec(p, q):
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    names = p.names
    if not names:
        a = p.constant_value()
        b = q.constant_value()
        g = Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                     a.denominator * b.denominator)
        return PPoly.const(names, abs(g))
    if p.degree_in(0) == 0 and q.degree_in(0) == 0:
        sub = _gcd_rec(_drop_main(p), _drop_main(q))
        return _lift_main(sub, names)
    f = _coeffs_in_main_var(p)
    g = _coeffs_in_main_var(q)
    if _uni_degree(f) < _uni_degree(g):
        f, g = g, f
    cont_f = _content_poly(f)
    cont_g = _content_poly(g)
    f = [exact_div(c, cont_f) for c in f]
    g = [exact_div(c, cont_g) for c in g]
    while True:
        r = _pseudo_rem(f, g)
        if _uni_degree(r) < 0:
            break
        cont_r = _content_poly(r)
        r = [exact_div(c, cont_r) for c in r]
        f, g = g, r
    cont = _gcd_rec(cont_f, cont_g)
    result = _from_coeffs([c * cont for c in _strip(g)], names)
    # remove stray rational content picked up by pseudo-division
    _, result = _int_content_and_primitive(result)
    return result


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _drop_main(p):
    return _raw(p.names[1:], {expo[1:]: c for expo, c in p.num.items()}, p.den)


def _lift_main(p, names):
    return _raw(names, {(0,) + expo: c for expo, c in p.num.items()}, p.den)


def _positive_primitive(p):
    if p.is_zero():
        return p
    _, p = _int_content_and_primitive(p)
    _, lead = _leading(p)
    if lead < 0:
        p = -p
    return p


class RatFunc:
    """A non-constant element of Q(params): the reduced ratio num/den of two
    integer-coefficient PPoly, with gcd(num, den) = 1, joint integer content
    1 and a positive lex-leading coefficient of den.

    A constant element of Q(params) is a plain reduced Fraction, never a
    RatFunc: ``RatFunc(num, den)``, and so every operator, returns the
    Fraction when the reduced ratio is constant.  A field with no parameters
    therefore computes on Fractions alone, a RatFunc is never 0, and it never
    equals a Fraction."""

    __slots__ = ("num", "den")

    def __new__(cls, num, den=None):
        if den is None:
            den = PPoly.const(num.names, 1)
        if den.is_zero():
            raise ParamPolyError("zero denominator")
        if num.names != den.names:
            raise ParamPolyError("mismatched parameter tuples")
        num, den = _reduce(num, den)
        if num.is_constant() and den.is_constant():
            return num.constant_value() / den.constant_value()
        r = object.__new__(cls)
        r.num, r.den = num, den
        return r

    @classmethod
    def var(cls, names, name):
        return cls(PPoly.var(names, name))

    @property
    def names(self):
        return self.num.names

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _apply(self, other, formula):
        """``RatFunc(*formula(a, b, c, d))`` for self = a/b and a RatFunc or
        rational number other = c/d."""
        if isinstance(other, RatFunc):
            c, d = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            other = Fraction(other)
            c = PPoly.const(self.names, other.numerator)
            d = PPoly.const(self.names, other.denominator)
        else:
            return NotImplemented
        return RatFunc(*formula(self.num, self.den, c, d))

    def __add__(self, other):
        return self._apply(other, lambda a, b, c, d: (a * d + c * b, b * d))

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, lambda a, b, c, d: (a * d - c * b, b * d))

    def __rsub__(self, other):
        return self._apply(other, lambda a, b, c, d: (c * b - a * d, b * d))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        return self._apply(other, lambda a, b, c, d: (a * c, b * d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other == 0:
            raise ZeroDivisionError("division by zero rational function")
        return self._apply(other, lambda a, b, c, d: (a * d, b * c))

    def __rtruediv__(self, other):
        return self._apply(other, lambda a, b, c, d: (c * b, d * a))

    def evaluate(self, values):
        den = self.den.evaluate(values)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(values) / den

    def render(self):
        if self.den == PPoly.const(self.names, 1):
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num.num) > 1:
            num = f"({num})"
        if len(self.den.num) > 1 or not self.den.is_constant():
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def _reduce(num, den):
    # gcd(num, den) is 1 when either side is constant, so only a
    # non-constant pair pays for poly_gcd and the two exact divisions.
    if num.is_zero():
        return num, PPoly.const(num.names, 1)
    if not (num.is_constant() or den.is_constant()):
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
