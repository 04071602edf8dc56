import random
from fractions import Fraction
from itertools import permutations

from futakizero.ratlinalg import in_column_span, kernel_basis, minus_identity, solve_generic

from conftest import identity, matmul


def permutation_matrix(perm):
    n = len(perm)
    return tuple(tuple(Fraction(int(perm[j] == i)) for j in range(n)) for i in range(n))


class TestKernelBasis:
    def test_stacked_constraints_have_trivial_kernel(self):
        # rows encode F1 = -F1-F2 and F2 = -F1-F2 for a rank-2 character
        a_sigma_t = ((-1, -1), (0, 1))
        a_tau_t = ((1, 0), (-1, -1))
        stacked = minus_identity(a_sigma_t) + minus_identity(a_tau_t)
        assert kernel_basis(stacked) == []

    def test_zero_matrix_full_kernel(self):
        assert kernel_basis(((0, 0), (0, 0))) == [(1, 0), (0, 1)]

    def test_single_relation(self):
        assert kernel_basis(((1, 1),)) == [(1, -1)]

    def test_int_rows_give_fractions(self):
        basis = kernel_basis([[2, 1]])
        assert basis == [(1, -2)]
        assert all(type(x) is Fraction for v in basis for x in v)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            entries = [Fraction(rng.randint(-3, 3)) for _ in range(rows * cols)]
            m = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
            for v in kernel_basis(m):
                assert all(x == 0 for (x,) in matmul(m, [[x] for x in v]))

    def test_rank_nullity_against_bareiss(self):
        rng = random.Random(5)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            entries = [Fraction(rng.randint(-4, 4)) for _ in range(rows * cols)]
            m = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
            assert len(kernel_basis(m)) + _bareiss_rank(m) == cols


def _bareiss_rank(rows):
    """Fraction-free elimination, an independent rank oracle."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            rows[i] = [(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j]) / prev
                       for j in range(ncols)]
        prev = rows[r][c]
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


class TestFixedSubspace:
    def test_swap_has_symmetric_vector(self):
        m = permutation_matrix((1, 0))
        assert kernel_basis(minus_identity(m)) == [(1, 1)]

    def test_identity_is_all_fixed(self):
        assert len(kernel_basis(minus_identity(identity(3)))) == 3

    def test_slot_one_three_swap(self):
        # the action on the three pullback classes of the triple-product case
        m = permutation_matrix((2, 1, 0))
        assert kernel_basis(minus_identity(m)) == [(0, 1, 0), (1, 0, 1)]

    def test_dimension_counts_cycles_exhaustively(self):
        for n in range(1, 6):
            for perm in permutations(range(n)):
                m = permutation_matrix(perm)
                assert len(kernel_basis(minus_identity(m))) == _cycle_count(perm)


def _cycle_count(perm):
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        cycles += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return cycles


class TestExactArithmetic:
    def test_inverse_product_with_wide_integers(self):
        rng = random.Random(3)
        for _ in range(50):
            a = rng.getrandbits(80) + 1
            b = rng.getrandbits(80) + 1
            q = Fraction(a, b)
            assert q * (1 / q) == 1

    def test_solve_and_span(self):
        m = ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1)))
        assert solve_generic(m, [[Fraction(4), Fraction(3)]])[0] == [Fraction(2), Fraction(1)]
        assert in_column_span([(1, 0), (1, 1)], (3, 2)) == [Fraction(1), Fraction(2)]
        assert in_column_span([(1, 0)], (0, 1)) is None


def _one_column_solve(rows, rhs):
    """The single right-hand-side solve, kept as the oracle: A | b reduced
    with pivots in every column, b inconsistent iff its column takes one."""
    if not rows:
        return []
    ncols = len(rows[0])
    if ncols == 0:
        return [] if all(b == 0 for b in rhs) else None
    reduced = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols + 1):
        hit = next((r for r in range(len(pivots), len(reduced)) if reduced[r][col] != 0), None)
        if hit is None:
            continue
        top = len(pivots)
        reduced[top], reduced[hit] = reduced[hit], reduced[top]
        reduced[top] = [v / reduced[top][col] for v in reduced[top]]
        for r in range(len(reduced)):
            if r != top and reduced[r][col] != 0:
                reduced[r] = [a - reduced[r][col] * b for a, b in zip(reduced[r], reduced[top])]
        pivots.append(col)
        if len(pivots) == len(reduced):
            break
    if ncols in pivots:
        return None
    solution = [rows[0][0] - rows[0][0]] * ncols
    for r, pc in enumerate(pivots):
        solution[pc] = reduced[r][ncols]
    return solution


def _random_system(rng, entry, size):
    """(rows, targets): rank-deficient rows and zero columns now and then;
    targets in the column span, outside it, zero, or none at all."""
    nrows, ncols, rank = rng.randint(1, size), rng.randint(0, size), rng.randint(0, size)
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((c * b[j] for c, b in zip(mix, basis)), entry() * 0) for j in range(ncols)]
            for mix in ([entry() for _ in basis] for _ in range(nrows))]
    for j in range(ncols):
        if rng.random() < 0.2:
            for r in rows:
                r[j] = r[j] * 0
    targets = []
    for _ in range(rng.choice((0, 1, 1, 2, 3, 5))):
        kind = rng.random()
        if kind < 0.5:
            x = [entry() for _ in range(ncols)]
            targets.append([sum((a * b for a, b in zip(r, x)), entry() * 0) for r in rows])
        elif kind < 0.6:
            targets.append([entry() * 0 for _ in rows])
        else:
            targets.append([entry() for _ in rows])
    return rows, targets


class TestBatchedSolveOracle:
    """One elimination for k right-hand sides equals k one-column solves."""

    @staticmethod
    def check(rng, entry, count, size):
        consistent = inconsistent = 0
        for _ in range(count):
            rows, targets = _random_system(rng, entry, size)
            solutions = solve_generic(rows, targets)
            assert len(solutions) == len(targets)
            for rhs, got in zip(targets, solutions):
                assert got == _one_column_solve(rows, rhs), (rows, rhs)
                consistent += got is not None
                inconsistent += got is None
        assert consistent > count // 4 and inconsistent > count // 8

    def test_rationals(self):
        rng = random.Random(41)
        self.check(rng, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 400, 5)

    def test_parameter_field(self):
        from futakizero.parampoly import RatFunc
        rng = random.Random(43)
        names = ("a", "b")
        pool = [Fraction(c) for c in (0, 1, -2, Fraction(1, 3))]
        pool += [RatFunc.var(names, n) for n in names]
        pool += [pool[4] - 2, pool[4] + pool[5]]
        self.check(rng, lambda: rng.choice(pool), 120, 3)

    def test_no_targets_and_empty_shapes(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert solve_generic(rows, []) == []
        assert solve_generic([], [[], []]) == [[], []]
        assert solve_generic([[], []], [[0, 0], [0, 1]]) == [[], None]
        assert solve_generic(rows, [[1, 2], [1, 3]]) == [[Fraction(1), Fraction(0)], None]
