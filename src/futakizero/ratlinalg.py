"""Exact dense linear algebra over Q and Q(params), on plain rows.

A matrix is a sequence of rows; there is no matrix class and no floating
point.  One elimination, ``rref``, serves both fields: it needs only the
field operators and tests entries with ``== 0``.  An entry of Q(params) is a
`Fraction` when constant and a non-constant `RatFunc` otherwise, so a row
over Q(params) mixes the two, and a constant pivot divides on Fractions
alone.  Every solve and kernel goes through it; a fixed subspace is the
``kernel_basis`` of stacked ``minus_identity`` rows.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows, ncols=None):
    """Reduced row echelon form (in place on a copied list of lists).

    Pivot = first nonzero entry of the first unreduced row in each column
    (exact arithmetic needs no pivot heuristics).  Only the first ``ncols``
    columns (default: all) take pivots; later ones, right-hand sides b of
    A x = b, follow the row operations.  A row below the rank is then y
    (A | b) with y A = 0, so a nonzero b entry there proves A x = b
    unsolvable, and with none the pivot rows give x.  Returns (rows, pivot_cols).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    if ncols is None:
        ncols = len(rows[0])
    pivots = []
    target = 0
    for col in range(ncols):
        hit = None
        for r in range(target, len(rows)):
            if rows[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[target], rows[hit] = rows[hit], rows[target]
        inv = rows[target][col]
        rows[target] = [v / inv for v in rows[target]]
        for r in range(len(rows)):
            if r != target and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[target])]
        pivots.append(col)
        target += 1
        if target == len(rows):
            break
    return rows, pivots


def solve_generic(rows, targets):
    """One exact solution of A x = b for each right-hand column b in
    ``targets``, None for each b outside the column span of A.

    `rows` is a list of rows of A.  One elimination serves every target: the
    targets ride along as columns after A, pivots are taken in A only, and a
    target is inconsistent when it has a nonzero entry below the rank (see
    ``rref``).  Free variables are set to zero.
    """
    if not rows:
        return [[] for _ in targets]
    ncols = len(rows[0])
    if ncols == 0:
        return [[] if all(b == 0 for b in rhs) else None for rhs in targets]
    augmented = [list(r) + [rhs[i] for rhs in targets] for i, r in enumerate(rows)]
    reduced, pivots = rref(augmented, ncols)
    zero = rows[0][0] - rows[0][0]
    solutions = []
    for col in range(ncols, len(augmented[0])):
        values = dict(zip(pivots, (r[col] for r in reduced)))
        consistent = all(r[col] == 0 for r in reduced[len(pivots):])
        solutions.append([values.get(c, zero) for c in range(ncols)] if consistent else None)
    return solutions


def kernel_basis(rows):
    """Exact basis of {v : rows v = 0}, computed on `Fraction`s so that int
    rows never reach ``/``; no rows means no columns.  Vectors come back in
    ascending order of their free column, each with first nonzero entry 1."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f]
        lead = next(v for v in vec if v != 0)
        basis.append(tuple(x / lead for x in vec))
    return basis


def minus_identity(rows):
    """Rows of M - I for the square matrix M given by its rows."""
    return [tuple(x - 1 if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(rows)]


def in_column_span(vectors, target):
    """Coefficients expressing `target` in the span of `vectors`, or None."""
    if not vectors:
        return None if any(Fraction(t) != 0 for t in target) else []
    rows = [[Fraction(v[i]) for v in vectors] for i in range(len(target))]
    return solve_generic(rows, [[Fraction(t) for t in target]])[0]
