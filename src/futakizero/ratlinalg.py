"""Exact dense linear algebra over Q and Q(params).

Everything is arbitrary-precision `fractions.Fraction`; no floating point is
used anywhere.  One elimination serves both fields: it needs only the field
operators and tests entries with ``== 0``, which a `Fraction` and a Q(params)
`RatFunc` both answer exactly, so the polynomial span solves reuse it.
"""

from __future__ import annotations

from fractions import Fraction


class LinAlgError(ValueError):
    pass


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


class QMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise LinAlgError(f"entry count {len(entries)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise LinAlgError("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def transpose(self):
        return QMatrix(self.cols, self.rows,
                       [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        self._check_shape(other)
        return QMatrix(self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_shape(other)
        return QMatrix(self.rows, self.cols,
                       [a - b for a, b in zip(self.entries, other.entries)])

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in product")
        entries = []
        for i in range(self.rows):
            for j in range(other.cols):
                entries.append(sum((self.entry(i, k) * other.entry(k, j)
                                    for k in range(self.cols)), Fraction(0)))
        return QMatrix(self.rows, other.cols, entries)

    def apply(self, vector):
        if len(vector) != self.cols:
            raise LinAlgError("vector length mismatch")
        return [sum((self.entry(i, k) * Fraction(vector[k]) for k in range(self.cols)),
                    Fraction(0)) for i in range(self.rows)]

    def stack(self, other):
        if self.cols != other.cols:
            raise LinAlgError("column mismatch in stack")
        return QMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rank(self):
        _, pivots = rref(self.row_list())
        return len(pivots)

    def __repr__(self):
        return f"QMatrix({self.row_list()!r})"


def kernel_basis(m):
    """Exact basis of {v : m v = 0}; empty matrix means the full space.

    Vectors come back in ascending order of their free column; the first
    nonzero entry of each is 1.
    """
    reduced, pivots = rref(m.row_list())
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f]
        lead = next(v for v in vec if v != 0)
        basis.append(tuple(x / lead for x in vec))
    return basis


def fixed_subspace(m):
    """Basis of ker(m - I), the +1 eigenspace of a square matrix."""
    if m.rows != m.cols:
        raise LinAlgError("fixed_subspace needs a square matrix")
    return kernel_basis(m - QMatrix.identity(m.rows))


def solve(m, rhs):
    """One solution of m x = rhs over Q, or None."""
    return solve_generic(m.row_list(), [[Fraction(b) for b in rhs]])[0]


def intersect_kernels(matrices):
    """Kernel basis of the stacked system, i.e. the intersection of kernels."""
    if not matrices:
        raise LinAlgError("no matrices to intersect")
    stacked = matrices[0]
    for m in matrices[1:]:
        stacked = stacked.stack(m)
    return kernel_basis(stacked)


def in_column_span(vectors, target):
    """Coefficients expressing `target` in the span of `vectors`, or None."""
    if not vectors:
        return None if any(Fraction(t) != 0 for t in target) else []
    rows = [[Fraction(v[i]) for v in vectors] for i in range(len(target))]
    return solve_generic(rows, [[Fraction(t) for t in target]])[0]
