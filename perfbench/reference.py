"""Independent exact reference for the toric-points check.

Computes the Futaki vector (boundary sigma barycenter minus solid
barycenter) of a family's moment polytope without the program's code: each
facet is found by eliminating one coordinate of unit normal weight and
recursing one dimension down to intervals, and the solid integrals follow
from the facets by the divergence theorem.  No vertex enumeration, no
Cramer solves.  A point is out of the Kähler region exactly when the
polytope is not full-dimensional or some facet has zero measure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

REGION = "region"


def family_factors(family, p):
    """Halfspace rows (normal..., offset) of ``normal . x <= offset`` for each
    factor of the family's moment polytope, as described in the README."""
    def interval(t):
        return [(-1, 0), (1, t)]

    def triangle(h):
        return [(-1, 0, 0), (0, -1, 0), (1, 1, h)]

    def square(a, b):
        return [(-1, 0, 0), (1, 0, a), (0, -1, 0), (0, 1, b)]

    def hexagon(a, b, c):
        return [(-1, 0, 0), (0, -1, 0), (1, 1, 3), (-1, -1, -a), (1, 0, 3 - b),
                (0, 1, 3 - c)]

    if family == "p1":
        return [interval(p["a"])]
    if family == "p2":
        return [triangle(p["h"])]
    if family == "p1xp1":
        return [square(p["a"], p["b"])]
    if family == "p1xp2":
        return [interval(p["a"]), triangle(p["h"])]
    if family == "p1cubed":
        return [square(p["a"], p["b"]), interval(p["c"])]
    if family == "s6":
        return [hexagon(p["a"], p["b"], p["c"])]
    if family == "p1xs6":
        return [interval(p["t"]), hexagon(p["a"], p["b"], p["c"])]
    if family == "bl2lines-p3":
        h, a, b = p["h"], p["a"], p["b"]
        return [[(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (1, 1, 1, h),
                 (0, 1, 1, h - a), (0, -1, -1, -b)]]
    raise ValueError(f"unknown family {family!r}")


def _interval(rows):
    lo = max(Fraction(r[1]) / r[0] for r in rows if r[0] < 0)
    hi = min(Fraction(r[1]) / r[0] for r in rows if r[0] > 0)
    return lo, hi


def _facets(rows, d):
    """(sigma mass, sigma moment, primitive offset) of each row's facet."""
    out = []
    for i, row in enumerate(rows):
        normal, offset = row[:-1], Fraction(row[-1])
        g = 0
        for n in normal:
            g = gcd(g, abs(n))
        normal = tuple(n // g for n in normal)
        offset /= g
        k = next(j for j, n in enumerate(normal) if abs(n) == 1)
        others = [j for j in range(d) if j != k]
        if d == 1:
            x = offset / normal[0]
            inside = all(r[0] * x <= r[1] for r in rows)
            out.append((Fraction(int(inside)), (x if inside else Fraction(0),), offset))
            continue
        # x_k = (offset - sum_j normal_j x_j) / normal_k on the facet
        sub = []
        empty = False
        for j, r in enumerate(rows):
            if j == i:
                continue
            m = [r[o] - r[k] * normal[o] * normal[k] for o in others]
            e = Fraction(r[-1]) - r[k] * offset * normal[k]
            if any(m):
                sub.append(tuple(m) + (e,))
            elif e < 0:
                empty = True
        mass, moment = (Fraction(0), (Fraction(0),) * (d - 1)) if empty \
            else _solid(sub, d - 1)
        lifted = dict(zip(others, moment))
        lifted[k] = (offset * mass - sum(normal[o] * lifted[o] for o in others)) * normal[k]
        out.append((mass, tuple(lifted[j] for j in range(d)), offset))
    return out


def _solid(rows, d):
    """(volume, first moment) of the polytope; zero volume when empty."""
    if d == 1:
        lo, hi = _interval(rows)
        if hi <= lo:
            return Fraction(0), (Fraction(0),)
        return hi - lo, ((hi * hi - lo * lo) / 2,)
    vol = Fraction(0)
    moment = [Fraction(0)] * d
    for mass, fmoment, offset in _facets(rows, d):
        vol += offset * mass
        for j in range(d):
            moment[j] += offset * fmoment[j]
    if vol <= 0:
        return Fraction(0), (Fraction(0),) * d
    return vol / d, tuple(m / (d + 1) for m in moment)


def _integrals(rows):
    """(volume, moment, sigma mass, sigma moment) of one polytope, or None
    when it is lower-dimensional or a facet has zero measure."""
    d = len(rows[0]) - 1
    facets = _facets(rows, d)
    if any(mass == 0 for mass, _, _ in facets):
        return None
    if d == 1:
        vol, moment = _solid(rows, 1)
    else:
        vol = sum(offset * mass for mass, _, offset in facets) / d
        moment = tuple(sum(offset * fm[j] for _, fm, offset in facets) / (d + 1)
                       for j in range(d))
    if vol <= 0:
        return None
    mass = sum(m for m, _, _ in facets)
    bmoment = tuple(sum(fm[j] for _, fm, _ in facets) for j in range(d))
    return vol, moment, mass, bmoment


def _product(p, q):
    """Integrals of P x Q: the boundary is dP x Q together with P x dQ."""
    pv, pm, ps, psm = p
    qv, qm, qs, qsm = q
    moment = tuple(x * qv for x in pm) + tuple(pv * x for x in qm)
    bmoment = (tuple(x * qv + m * qs for x, m in zip(psm, pm))
               + tuple(ps * m + pv * x for m, x in zip(qm, qsm)))
    return pv * qv, moment, ps * qv + pv * qs, bmoment


def _frac_text(v):
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def expected_outcome(family, params):
    """Rendered Futaki vector ``(x, y, ...)`` or ``REGION``."""
    values = {n: Fraction(v) for n, v in params.items()}
    data = None
    for rows in family_factors(family, values):
        factor = _integrals(rows)
        if factor is None:
            return REGION
        data = factor if data is None else _product(data, factor)
    vol, moment, mass, bmoment = data
    vector = [bm / mass - m / vol for bm, m in zip(bmoment, moment)]
    return "(" + ", ".join(_frac_text(c) for c in vector) + ")"
