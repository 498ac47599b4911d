import itertools
import random
from fractions import Fraction

import pytest

from hyclif import linalg
from hyclif.hyperspace import Subspace, orientation_from_dual_pair, span
from hyclif.multivector import AlgebraContext
from hyclif.scalar import ONE, ZERO, Scalar


def m(rows):
    return [[Scalar(Fraction(x)) if not isinstance(x, Scalar) else x for x in row] for row in rows]


# -- naive dense Gauss-Jordan: the reference for linalg's sparse elimination ------


def dense_row_echelon(m):
    """RREF with zero rows last and the pivot columns, by dense Gauss-Jordan."""
    a = [list(row) for row in m]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = next((i for i in range(pr, rows) if a[i][pc]), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = a[pr][pc].inverse()
        a[pr] = [x * inv for x in a[pr]]
        for i in range(rows):
            if i != pr and a[i][pc]:
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return a, pivots


def dense_rank(m):
    return len(dense_row_echelon(m)[1])


def dense_kernel_basis(m):
    cols = len(m[0])
    ech, pivots = dense_row_echelon(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(v)
    return basis


def dense_solve(m, b):
    cols = len(m[0])
    ech, pivots = dense_row_echelon([list(row) + [bv] for row, bv in zip(m, b)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][cols]
    return x


def leibniz_det(a):
    """Determinant as the signed sum over permutations (sign by inversion count)."""
    n = len(a)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * a[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def random_q2(rng):
    """A random element of Q(sqrt 2), zero half the time."""
    if rng.random() < 0.5:
        return ZERO
    return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def random_q2_matrix(rng, rows, cols, rank=None, zero_rows=0):
    """rows x cols, the product of rows x rank and rank x cols factors when rank
    is given, with zero_rows zero rows mixed in."""
    if rank is None:
        a = [[random_q2(rng) for _ in range(cols)] for _ in range(rows)]
    else:
        a = linalg.mat_mul(random_q2_matrix(rng, rows, rank), random_q2_matrix(rng, rank, cols))
    for _ in range(zero_rows):
        a.insert(rng.randrange(len(a) + 1), [ZERO] * cols)
    return a


SHAPES = {  # rows, cols, rank cap, zero rows
    "square": (5, 5, None, 0),
    "wide": (3, 7, None, 0),
    "tall": (7, 3, None, 0),
    "rank_deficient": (6, 6, 2, 0),
    "zero_rows": (4, 5, None, 3),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_elimination_matches_dense_oracle(shape):
    rng = random.Random(f"linalg/{shape}")
    rows, cols, cap, zero_rows = SHAPES[shape]
    ctx = AlgebraContext(cols)
    for _ in range(20):
        a = random_q2_matrix(rng, rows, cols, cap, zero_rows)
        assert linalg.row_echelon(a) == dense_row_echelon(a)
        assert linalg.rank(a) == dense_rank(a)
        assert linalg.kernel_basis(a) == dense_kernel_basis(a)
        # a consistent right-hand side a x, and one drawn at random
        for b in (linalg.mat_vec(a, [random_q2(rng) for _ in range(cols)]), [random_q2(rng) for _ in a]):
            assert linalg.solve(a, b) == dense_solve(a, b)
        # the span of the rows: contains a combination of them, and a vector
        # drawn at random exactly when the dense rank does not grow
        s = span(ctx, "V", a)
        assert s.basis == tuple(tuple(r) for r in dense_row_echelon(a)[0][: dense_rank(a)])
        for v in (linalg.mat_vec(linalg.transpose(a), [random_q2(rng) for _ in a]), [random_q2(rng) for _ in range(cols)]):
            assert s.contains(v) == (dense_rank(a + [v]) == dense_rank(a))
        # the independent rows of a, kept as given, are another basis of the span;
        # a random mix of the rows, or another draw, spans it exactly when the
        # dense ranks agree
        independent = []
        for r in a:
            if dense_rank(independent + [r]) > len(independent):
                independent.append(r)
        t = Subspace(ctx, "V", independent)
        assert t.basis == tuple(tuple(r) for r in independent)
        assert t.same_span(s) and s.same_span(t)
        for b in (linalg.mat_mul(random_q2_matrix(rng, len(a), len(a)), a), random_q2_matrix(rng, rows, cols, cap)):
            assert span(ctx, "V", b).same_span(s) == (dense_rank(b) == dense_rank(a) == dense_rank(a + b))
        if len(a) == cols:
            eye = linalg.identity(cols)
            ech, pivots = dense_row_echelon([list(r) + eye[i] for i, r in enumerate(a)])
            if pivots == list(range(cols)):
                assert linalg.inverse(a) == [r[cols:] for r in ech]
            else:
                with pytest.raises(ZeroDivisionError):
                    linalg.inverse(a)


def test_rank_and_echelon():
    a = m([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(a) == 2
    ech, pivots = linalg.row_echelon(a)
    assert pivots == [0, 1]
    assert linalg.rank(linalg.identity(4)) == 4


def test_kernel():
    a = m([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    for v in linalg.kernel_basis(a):
        assert all(not x for x in linalg.mat_vec(a, v))
    assert len(linalg.kernel_basis(a)) == 1


def test_solve():
    a = m([[1, 1], [1, -1]])
    x = linalg.solve(a, [Scalar(3), Scalar(1)])
    assert x == [Scalar(2), Scalar(1)]
    inconsistent = linalg.solve(m([[1, 1], [2, 2]]), [Scalar(1), Scalar(3)])
    assert inconsistent is None


@pytest.mark.parametrize("b", [[1], [1, 2, 3], []])
def test_solve_rejects_a_right_hand_side_of_the_wrong_length(b):
    # solve(identity(2), [1]) was [1, 0] and solve(identity(2), [1, 2, 3]) was [1, 2]
    with pytest.raises(ValueError, match="right-hand side"):
        linalg.solve(linalg.identity(2), [Scalar(x) for x in b])
    with pytest.raises(ValueError, match="right-hand side"):
        linalg.solve([], [Scalar(x) for x in b or [0]])


@pytest.mark.parametrize("rows", [
    [[0, 0], [0, 1, 1]],  # row_echelon was [[0, 1], [0, 0]], dropping an entry
    [[1, 0], [0, 1, 1]],  # kernel_basis was []
    [[1, 0, 0], [0, 1]],
])
def test_elimination_rejects_ragged_rows(rows):
    for f in (linalg.row_echelon, linalg.kernel_basis, linalg.rank):
        with pytest.raises(ValueError, match="rectangular"):
            f(m(rows))


def test_mat_mul_rejects_mismatched_shapes():
    # a 2x2 times a 3x3 used to return 2x3 and drop the third row of b
    b = m([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert linalg.mat_mul(linalg.identity(3), b) == b
    with pytest.raises(ValueError):
        linalg.mat_mul(linalg.identity(2), b)
    with pytest.raises(ValueError):
        linalg.mat_mul(b, linalg.identity(2))


def test_inverse_and_det():
    a = m([[2, 1], [1, 1]])
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    assert linalg.determinant(a) == ONE
    assert linalg.determinant(m([[1, 2], [2, 4]])) == ZERO
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(m([[1, 2], [2, 4]]))


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0]],  # inverse was [[0, 1], [0, 0]] and determinant 1
    [[1, 2], [3]],  # determinant was -6
    [[1], [0]],
])
def test_inverse_and_det_reject_non_square_matrices(rows):
    with pytest.raises(ValueError, match="square"):
        linalg.inverse(m(rows))
    with pytest.raises(ValueError, match="square"):
        linalg.determinant(m(rows))


def test_orientation_rejects_a_row_of_the_wrong_length():
    ctx = AlgebraContext(2)
    for rows in ([[1, 0], [0, 1, 0]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="square"):
            orientation_from_dual_pair(ctx, m(rows))


def test_det_with_sqrt2_entries():
    s = Scalar(0, 1)
    a = [[s, ONE], [ONE, s]]
    assert linalg.determinant(a) == Scalar(1)  # 2 - 1


@pytest.mark.parametrize("size", range(6))
def test_determinant_matches_leibniz_oracle(size):
    rng = random.Random(f"det/{size}")
    for _ in range(10):
        a = random_q2_matrix(rng, size, size)  # half the entries are zero
        shuffled = a[:]
        rng.shuffle(shuffled)
        for b in (a, shuffled, a[::-1]):
            assert linalg.determinant(b) == leibniz_det(b)
        if size:  # singular: a rank-deficient product (a zero row at size 1)
            singular = random_q2_matrix(rng, size, size, size - 1) if size > 1 else [[ZERO]]
            assert linalg.determinant(singular) == leibniz_det(singular) == ZERO
    # row orders that need a swap at every pivot: permutation matrices
    eye = linalg.identity(size)
    for perm in itertools.permutations(range(size)):
        p = [eye[i] for i in perm]
        assert linalg.determinant(p) == leibniz_det(p) != ZERO


def test_subspace_predicates():
    ctx = AlgebraContext(3)
    a = Subspace(ctx, "V", m([[1, 0, 1], [0, 1, 0]]))
    b = Subspace(ctx, "V", m([[1, 1, 1], [1, -1, 1]]))
    assert a.same_span(b) and b.same_span(a)
    assert b.basis == tuple(tuple(r) for r in m([[1, 1, 1], [1, -1, 1]]))  # kept as given
    assert span(ctx, "V", b.basis + a.basis).basis == a.basis  # the RREF rows
    assert a.contains([Scalar(2), Scalar(3), Scalar(2)])
    assert not a.contains([Scalar(1), Scalar(0), Scalar(0)])
    assert not a.same_span(Subspace(ctx, "V_dual", a.basis))
    assert not a.same_span(Subspace(ctx, "V", a.basis[:1]))
    assert not a.same_span(Subspace(ctx, "V", m([[1, 0, 0], [0, 1, 0]])))  # same dim
    empty = Subspace(ctx, "V", ())
    assert empty.contains([ZERO] * 3) and not empty.contains([ZERO, ONE, ZERO])
    assert empty.same_span(span(ctx, "V", [[ZERO] * 3])) and span(ctx, "V", []).dim == 0
    assert not empty.same_span(a) and not a.same_span(empty)
    with pytest.raises(ValueError):
        Subspace(ctx, "V", m([[1, 0, 1], [2, 0, 2]]))
