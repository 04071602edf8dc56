"""Multihomogeneous polynomials on products of projective spaces.

Coefficients live in the fraction field Q(params); the surface syntax allows
`+ - * / ^`, parentheses, integer and rational literals, and declared
coordinate/parameter names.  Division is restricted to coordinate-free
divisors (enough for rational literals and parameter scalars such as
``y0/(1-s)``).  Canonical form: terms sorted by descending lex exponent
vector, reduced nonzero coefficients, one multidegree for the whole
polynomial.  Locus equations over the parameters alone go through the same
parser (``parse_equations``), once per line and parameter names.

``parampoly`` loads where a non-constant element of Q(params) is built or a
polynomial is printed (``render_terms``), so a polynomial without parameters
compiles it only when it is printed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ratlinalg import solve_generic


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    pass


class InhomogeneousError(PolyError):
    pass


class AmbientSpace:
    """Product of projective spaces; one (dimension, coordinate names) pair
    per factor, names globally unique.  Lookup tables are built once."""

    __slots__ = ("factors", "coords", "nfactors", "_index", "_blocks")

    def __init__(self, factors):
        if not factors:
            raise PolyError("ambient needs at least one factor")
        index = {}
        blocks = []
        for dim, names in factors:
            if dim < 1:
                raise PolyError("factor dimension must be >= 1")
            if len(names) != dim + 1:
                raise PolyError(f"factor of dimension {dim} needs {dim + 1} coordinates")
            blocks.append(range(len(index), len(index) + dim + 1))
            for n in names:
                if n in index:
                    raise PolyError(f"duplicate coordinate name {n!r}")
                index[n] = len(index)
        self.factors = factors  # tuple of (dim, tuple-of-names)
        self.coords = tuple(index)
        self.nfactors = len(factors)
        self._index = index
        self._blocks = tuple(blocks)

    # polynomials compare and hash their ambient, nearly always the same object
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AmbientSpace):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    @classmethod
    def product(cls, *factor_names):
        return cls(tuple((len(names) - 1, tuple(names)) for names in factor_names))

    def factor_of(self, index):
        for f, block in enumerate(self._blocks):
            if index in block:
                return f
        raise PolyError("coordinate index out of range")

    def block(self, f):
        """Global coordinate index range of factor f."""
        return self._blocks[f]

    def coord_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise PolyError(f"unknown coordinate {name!r}") from None


class ParamField:
    """Declared parameters with excluded rational values (catalog smoothness
    constraints such as a not in {-1, 1}).  A constant of the field is a
    plain Fraction, a non-constant element a ``RatFunc`` (see ``var``)."""

    __slots__ = ("names", "excluded")

    def __init__(self, names=(), excluded=()):
        self.names = tuple(names)
        self.excluded = {n: tuple(Fraction(v) for v in vs)     # name -> tuple of Fractions
                         for n, vs in dict(excluded).items()}
        for n in self.excluded:
            if n not in self.names:
                raise PolyError(f"exclusions for undeclared parameter {n!r}")

    def var(self, name):
        if name not in self.names:
            raise PolyError(f"unknown parameter {name!r}")
        from .parampoly import RatFunc
        return RatFunc.var(self.names, name)

    def uncovered(self, den):
        """What is left of the polynomial ``den`` after dividing out each
        excluded factor ``name - value`` as often as it divides.  The factors
        are irreducible, so the leftover is constant exactly when every zero
        of ``den`` lies where some parameter takes an excluded value."""
        from .parampoly import ParamPolyError, PPoly, exact_div
        for name, values in self.excluded.items():
            for value in values:
                factor = PPoly.var(self.names, name) - value
                try:
                    while True:
                        den = exact_div(den, factor)
                except ParamPolyError:
                    pass
        return den


_ZERO = Fraction(0)
_ONE = Fraction(1)


class MultiPoly:
    """Multihomogeneous polynomial: dict of exponent vector -> nonzero
    Q(params) coefficient (Fraction or RatFunc), all terms of one
    multidegree."""

    __slots__ = ("ambient", "params", "terms")

    def __init__(self, ambient, params, terms, check=True):
        self.ambient = ambient
        self.params = params
        self.terms = {e: c for e, c in terms.items() if c != 0}
        if check:
            self._check_homogeneous()

    def _check_homogeneous(self):
        degrees = {self._term_degree(e) for e in self.terms}
        if len(degrees) > 1:
            raise InhomogeneousError(
                f"terms of differing multidegree: {sorted(degrees)}")

    def _term_degree(self, expo):
        return tuple(sum(expo[i] for i in self.ambient.block(f))
                     for f in range(self.ambient.nfactors))

    @classmethod
    def zero(cls, ambient, params):
        return cls(ambient, params, {})

    @classmethod
    def constant(cls, ambient, params, value):
        return cls(ambient, params, {(0,) * len(ambient.coords): Fraction(value)}, False)

    @classmethod
    def coordinate(cls, ambient, params, name):
        i = ambient.coord_index(name)
        expo = tuple(int(j == i) for j in range(len(ambient.coords)))
        return cls(ambient, params, {expo: _ONE}, False)     # one term: homogeneous

    def is_zero(self):
        return not self.terms

    def multidegree(self):
        """Per-factor degree vector; the zero/constant polynomial has all
        zeros."""
        if not self.terms:
            return (0,) * self.ambient.nfactors
        return self._term_degree(next(iter(self.terms)))

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def _same_ring(self, other):
        if self.ambient != other.ambient or self.params.names != other.params.names:
            raise PolyError("ambient/parameter mismatch")

    def __add__(self, other):
        self._same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return MultiPoly(self.ambient, self.params, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.ambient, self.params,
                         {e: -c for e, c in self.terms.items()}, check=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ambient, self.params, other)
        elif not isinstance(other, MultiPoly):     # a non-constant Q(params) scalar
            return self.scale(other)
        self._same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, _ZERO) + c1 * c2
        return MultiPoly(self.ambient, self.params, terms, check=False)

    __rmul__ = __mul__

    def scale(self, coeff):
        return MultiPoly(self.ambient, self.params,
                         {e: c * coeff for e, c in self.terms.items()}, check=False)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.ambient == other.ambient
                and self.params.names == other.params.names and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.terms))))

    def substitute(self, images):
        """Ring substitution coord_i -> images[i]; images are MultiPoly on any
        shared ambient (used by pullbacks and curve plug-ins)."""
        if len(images) != len(self.ambient.coords):
            raise PolyError("substitution needs one image per coordinate")
        result = None
        for e, c in self.terms.items():
            term = None
            for img, k in zip(images, e):
                if k == 0:
                    continue
                p = img
                for _ in range(k - 1):
                    p = p * img
                term = p if term is None else term * p
            if term is None:
                term = MultiPoly.constant(images[0].ambient, images[0].params, 1)
            term = term.scale(c)
            result = term if result is None else result + term
        if result is None:
            return MultiPoly.zero(images[0].ambient, images[0].params)
        return result

    def render(self):
        from .parampoly import render_terms
        return render_terms(self.sorted_terms(), self.ambient.coords)

    def __repr__(self):
        return f"MultiPoly({self.render()!r})"


# ---------------------------------------------------------------------------
# surface-syntax parser
# ---------------------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")
_DIGITS = set("0123456789")     # str.isdigit also accepts digits int() refuses, such as "²"
MAX_EXPONENT = 64       # the largest exponent of ``^``; the shipped catalog's is 5
MAX_NESTING = 32        # the deepest ``(`` and prefix signs; the shipped catalog's is 1


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", len(text)))
    return tokens


def _integer(digits):
    try:
        return int(digits)
    except ValueError:      # longer than int()'s limit on decimal digits
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from None


class _Parser:
    """Recursive descent over +- / */ / unary / ^ / atoms."""

    def __init__(self, text, ambient, params):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ambient = ambient
        self.params = params
        self.depth = 0      # open ``(`` and prefix signs: each one recurses

    def nest(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} at position "
                             f"{self.tokens[self.pos - 1][2]}")

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = self._add(value, rhs) if op == "+" else self._add(value, -rhs)
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                value = self._divide(value, rhs)
        return value

    def unary(self):
        if self.peek()[0] in "+-":
            op = self.take()[0]
            self.nest()
            value = self.unary()
            self.depth -= 1
            return value if op == "+" else -value
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            negative = False
            if self.peek()[0] == "-":
                self.take()
                negative = True
            expo = _integer(self.take("int")[1])
            if negative:
                raise ParseError("negative exponents are not in the grammar")
            if expo > MAX_EXPONENT:     # the power below costs one product per unit
                raise ParseError(f"exponent {expo} exceeds the bound {MAX_EXPONENT}")
            result = MultiPoly.constant(self.ambient, self.params, 1)
            for _ in range(expo):
                result = result * base
            return result
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            self.nest()
            value = self.expr()
            self.take(")")
            self.depth -= 1
            return value
        if tok[0] == "int":
            self.take()
            return MultiPoly.constant(self.ambient, self.params, _integer(tok[1]))
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if name in self.ambient.coords:
                return MultiPoly.coordinate(self.ambient, self.params, name)
            if name in self.params.names:
                expo = (0,) * len(self.ambient.coords)
                return MultiPoly(self.ambient, self.params,
                                 {expo: self.params.var(name)}, check=False)
            raise ParseError(f"unknown symbol {name!r}")
        raise ParseError(f"unexpected token {tok[1]!r} at position {tok[2]}")

    # internal sums may be inhomogeneous; homogeneity is enforced at the top
    def _add(self, a, b):
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, _ZERO) + c
        return MultiPoly(self.ambient, self.params, terms, check=False)

    def _divide(self, a, b):
        const = _as_scalar(b)
        if const is None:
            raise ParseError("division is only allowed by coordinate-free factors")
        if const == 0:
            raise ParseError("division by zero")
        return a.scale(1 / const)


def _as_scalar(p):
    """Q(params) value of a coordinate-free polynomial, else None."""
    if not p.terms:
        return _ZERO
    if len(p.terms) != 1:     # a coordinate-free polynomial has one term at most
        return None
    e, c = next(iter(p.terms.items()))
    if any(k > 0 for k in e):
        return None
    return c


def parse_poly(text, ambient, params=None):
    """Parse the catalog surface syntax into canonical MultiPoly.

    Raises ParseError for bad syntax or unknown symbols and
    InhomogeneousError when terms have differing multidegrees.
    """
    if params is None:
        params = ParamField()
    raw = _Parser(text, ambient, params).parse()
    return MultiPoly(ambient, params, raw.terms)


_NO_COORDINATES = AmbientSpace(((1, ("", " ")),))   # no token can name these


def parse_equations(text, names):
    """The differences side_k - side_0 of ``lhs = rhs [= ...]``, as a tuple
    of PPoly in ``names``.  Raises PolyError unless every side is a
    polynomial in them.  Memoised: the catalog check and the scan of a run
    read the same locus lines over the same names."""
    return _equations(text, tuple(names))


@lru_cache(maxsize=256)
def _equations(text, names):
    parts = text.split("=")
    if len(parts) < 2:
        raise ParseError(f"{text!r} is not an equation")
    from .parampoly import PPoly
    params = ParamField(names)
    sides = []
    for part in parts:
        value = _as_scalar(_Parser(part, _NO_COORDINATES, params).parse())
        if isinstance(value, Fraction):
            sides.append(PPoly.const(names, value))
            continue
        if not value.den.is_constant():
            raise ParseError(f"{part.strip()!r} is not a polynomial in {', '.join(names)}")
        sides.append(value.num / value.den.constant_value())
    return tuple(side - sides[0] for side in sides[1:])


# ---------------------------------------------------------------------------
# span membership over Q(params)
# ---------------------------------------------------------------------------

class SpanSolution:
    """p = sum coeff_i * gens_i with exact Q(params) coefficients, valid
    wherever none of ``denominators`` vanishes: the non-constant coefficient
    denominators, each once, in coefficient order."""

    __slots__ = ("coefficients", "denominators")

    def __init__(self, coefficients, denominators):
        self.coefficients = coefficients
        self.denominators = denominators


def in_span(targets, gens):
    """Express each of ``targets`` as a Q(params)-linear combination of gens:
    a SpanSolution per target, None for one outside the span.

    One exact elimination over the fraction field serves every target
    (``solve_generic``); each solution records its non-constant coefficient
    denominators, which ``ParamField.uncovered`` checks against the
    excluded values.
    """
    if any(g.ambient != p.ambient for g in gens for p in targets):
        raise PolyError("ambient mismatch in span check")
    monomials = sorted({e for q in (*gens, *targets) for e in q.terms}, reverse=True)
    rows = [[g.terms.get(m, _ZERO) for g in gens] for m in monomials]
    columns = [[p.terms.get(m, _ZERO) for m in monomials] for p in targets]
    return [None if s is None else _span_solution(s) for s in solve_generic(rows, columns)]


def _span_solution(solution):
    denominators = dict.fromkeys(c.den for c in solution
                                 if not (isinstance(c, Fraction) or c.den.is_constant()))
    return SpanSolution(tuple(solution), tuple(denominators))
