"""
Exact matrices over Q(sqrt(D)): products against numpy on random integer
matrices, the rational/irrational Kronecker split, and fraction-free rank
against numpy's numerical rank on full-precision-safe inputs.  The
int64/Python-int storage split is checked against a reference of nested
lists of QuadExt scalars (Fraction parts of Python ints) on entries at and
around 2^31, 2^62, 2^63 and 2^70: every operation agrees entrywise, every
result is stored by the rule (int64 iff all |entries| < 2^62), and no numpy
integer reaches an entry.  Entry signs are checked against QuadExt.sign.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt
import operator

import numpy as np
import pytest

from rank3etf.matrices import ExactMatrix, mat_mul, mat_rank
from rank3etf.qext import QuadExt


def _rand_int_matrix(rng, r, c, lo=-9, hi=9):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
    )


def _as_numpy(m):
    assert m.D == 0
    return np.array(
        [[float(m[i, j].as_fraction()) for j in range(m.cols)] for i in range(m.rows)]
    )


def test_constructors_and_indexing():
    m = ExactMatrix.from_rows([[1, 2], [3, Fraction(1, 2)]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 1] == QuadExt(Fraction(1, 2))
    assert m.row(0) == (QuadExt(1), QuadExt(2))
    assert ExactMatrix.identity(3)[2, 2] == QuadExt(1)
    assert ExactMatrix.zero(2, 3)[1, 2] == QuadExt(0)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[QuadExt(0, 1, 2), QuadExt(0, 1, 3)]])  # mixed radicals


def test_immutability_and_equality():
    m = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m == ExactMatrix.from_rows([[1, 0], [0, 1]])
    assert m != ExactMatrix.zero(2, 2)
    assert m != ExactMatrix.identity(3)


def test_transpose_add_scale():
    rng = random.Random(11)
    a = _rand_int_matrix(rng, 3, 4)
    assert a.transpose().transpose() == a
    assert a + a == a.scale(2)
    assert a - a == ExactMatrix.zero(3, 4)
    assert a.scale(Fraction(1, 3)).scale(3) == a
    half = a * Fraction(1, 2)  # scalar through __mul__
    assert half.scale(2) == a


def test_mat_mul_matches_numpy():
    rng = random.Random(22)
    for _ in range(25):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _rand_int_matrix(rng, m, k), _rand_int_matrix(rng, k, n)
        got = mat_mul(a, b)
        want = _as_numpy(a) @ _as_numpy(b)
        assert np.array_equal(_as_numpy(got), want)
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(3))


def _naive_product(a, b):
    return [
        [sum((a[i, t] * b[t, j] for t in range(a.cols)), QuadExt(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def test_mat_mul_bigint_path():
    # entries large enough that k * max|A| * max|B| overflows the int64 guard
    big = 2 ** 40
    a = ExactMatrix.from_rows([[big, 1], [0, big]])
    p = mat_mul(a, a)
    assert p[0, 0] == QuadExt(big * big)
    assert p[0, 1] == QuadExt(2 * big)
    # border of the guard: k * max|A| * max|B| = 2 t^2 with k = 2, just below
    # 2^62 for t = below (int64 product) and just above it for t = below + 1
    # (object-dtype product); both must match scalar arithmetic entrywise
    below = isqrt(2**61 - 1)
    assert 2 * below * below < 2**62 <= 2 * (below + 1) ** 2
    for t in (below, below + 1):
        for D in (0, 13):
            q = lambda a, b: QuadExt(a, b if D else 0, D)
            x = ExactMatrix.from_rows([[q(t, 1), q(-1, -t)], [q(3, 0), q(-t, 2)]])
            y = ExactMatrix.from_rows([[-t, 5], [t - 1, t]])
            for left, right in ((x, y), (y, x), (y, y)):
                got = mat_mul(left, right)
                want = _naive_product(left, right)
                assert all(got[i, j] == want[i][j] for i in range(2) for j in range(2))


def test_mat_mul_irrational_split():
    # (aI + bS)(cI + dS) expands over the four integer products
    rng = random.Random(33)
    D = 5
    for _ in range(10):
        mk = lambda: ExactMatrix.from_rows(
            [
                [QuadExt(rng.randint(-4, 4), rng.randint(-4, 4), D) for _ in range(3)]
                for _ in range(3)
            ]
        )
        a, b = mk(), mk()
        got = mat_mul(a, b)
        want = _naive_product(a, b)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == want[i][j]
    with pytest.raises(ValueError):
        mat_mul(
            ExactMatrix.from_rows([[QuadExt(0, 1, 2)]]),
            ExactMatrix.from_rows([[QuadExt(0, 1, 3)]]),
        )


def test_mat_rank_matches_numpy():
    rng = random.Random(44)
    for _ in range(30):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = _rand_int_matrix(rng, r, c, -5, 5)
        assert mat_rank(m) == np.linalg.matrix_rank(_as_numpy(m))


def test_mat_rank_rational_and_structured():
    n = 6
    ones = ExactMatrix.from_rows([[1] * n for _ in range(n)])
    assert mat_rank(ones) == 1
    assert mat_rank(ExactMatrix.identity(n)) == n
    assert mat_rank(ExactMatrix.zero(4, 5)) == 0
    # idempotent-like scaling keeps rank
    assert mat_rank(ones.scale(Fraction(1, 7))) == 1


def test_mat_rank_quadratic_field():
    s5 = QuadExt(0, 1, 5)
    # rows 2 and 3 are (1 + sqrt 5) times row 1: rank 1 over Q(sqrt 5)
    r1 = [QuadExt(1), QuadExt(2, 1, 5)]
    r2 = [x * (QuadExt(1) + s5) for x in r1]
    m = ExactMatrix.from_rows([r1, r2, [x * 2 for x in r2]])
    assert mat_rank(m) == 1
    m2 = ExactMatrix.from_rows([[QuadExt(1), s5], [s5, QuadExt(5)]])
    assert mat_rank(m2) == 1  # determinant 5 - 5 = 0
    m3 = ExactMatrix.from_rows([[QuadExt(1), s5], [s5, QuadExt(4)]])
    assert mat_rank(m3) == 2
    # U V has rank exactly r: U = [I_r; X] and V = [I_r, Y] over Q(sqrt D)
    rng = random.Random(55)
    for D in (2, 13):
        rand = lambda: QuadExt(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-6, 6), D
        )
        for r in (1, 2, 3):
            u = ExactMatrix.from_rows(
                [[QuadExt(int(i == t)) for t in range(r)] for i in range(r)]
                + [[rand() for _ in range(r)] for _ in range(5 - r)]
            )
            v = ExactMatrix.from_rows(
                [[QuadExt(int(i == t)) for t in range(r)] + [rand() for _ in range(6 - r)]
                 for i in range(r)]
            )
            uv = mat_mul(u, v)
            assert uv.D == D and (uv.rows, uv.cols) == (5, 6)
            assert mat_rank(uv) == r
            assert mat_rank(uv.transpose()) == r


# -- the int64 / Python-int storage split ---------------------------------------

EDGE = [0, 1, 2**31, 2**62 - 1, 2**62, 2**63, 2**70]  # and their negatives
HUGE_DEN = 2**64 + 3


def _edge_ref(rng, r, c, den, D, pool):
    "nested lists of QuadExt with numerators drawn from +-pool"
    pick = lambda: rng.choice(pool) * rng.choice((1, -1))
    return [
        [QuadExt(Fraction(pick(), den), Fraction(pick(), den) if D else 0, D)
         for _ in range(c)]
        for _ in range(r)
    ]


def _entries_of(ref):
    return tuple(x for row in ref for x in row)


def _check_stored(m):
    "the storage rule, and Python ints in every scalar handed out"
    for X in (m.A, m.B):
        biggest = max((abs(int(v)) for v in X.ravel().tolist()), default=0)
        assert (X.dtype == np.int64) == (biggest < 2**62), (X.dtype, biggest)
        assert X.dtype in (np.int64, object)
        if X.dtype == object:
            assert all(type(v) is int for v in X.ravel().tolist())
    scalars = m.entries + (m.row(0) if m.rows else ()) + ((m[0, 0],) if m.rows and m.cols else ())
    for q in scalars:
        for part in (q.a, q.b):
            assert type(part) is Fraction
            assert type(part.numerator) is int and type(part.denominator) is int
    assert type(m.den) is int


def _ref_rank(ref):
    "Gaussian elimination over Q(sqrt D) on QuadExt scalars"
    rows = [list(r) for r in ref]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _ref_matmul(x, y):
    return [
        [sum((x[i][t] * y[t][j] for t in range(len(y))), QuadExt(0)) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


@pytest.mark.parametrize("pool", [EDGE + [3, 5], EDGE[:4] + [3, 5]], ids=["all", "int64"])
@pytest.mark.parametrize("D", [0, 5])
@pytest.mark.parametrize("den", [1, 7, HUGE_DEN])
def test_storage_split_matches_reference(D, den, pool):
    # the "int64" pool keeps every input below 2^62, so with den 1 or 7 the
    # inputs are int64 and the results must leave int64 exactly when they grow
    rng = random.Random(1000 * D + den % 1000 + len(pool))
    for _ in range(6):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        rx, ry, rz = (_edge_ref(rng, r, k, den, D, pool), _edge_ref(rng, r, k, den, D, pool),
                      _edge_ref(rng, k, c, den, D, pool))
        x, y, z = (ExactMatrix.from_rows(t) for t in (rx, ry, rz))
        for m, ref in ((x, rx), (y, ry), (z, rz)):
            _check_stored(m)
            assert m.entries == _entries_of(ref)
        elementwise = {
            "+": (x + y, operator.add),
            "-": (x - y, operator.sub),
        }
        for name, (got, op) in elementwise.items():
            _check_stored(got)
            assert got.entries == tuple(map(op, _entries_of(rx), _entries_of(ry))), name
        for c_ in (0, -1, 2**70, Fraction(3, 2**65), QuadExt(Fraction(1, 3), 2**63 if D else 0, D)):
            got = x.scale(c_)
            _check_stored(got)
            assert got.entries == tuple(q * c_ for q in _entries_of(rx))
        got = mat_mul(x, z)
        _check_stored(got)
        assert got.entries == _entries_of(_ref_matmul(rx, rz))
        t = x.transpose()
        _check_stored(t)
        assert t.entries == _entries_of([list(col) for col in zip(*rx)])
        assert mat_rank(x) == _ref_rank(rx)
        # rank-deficient: a third row 2^70 * row 0 - row 1
        if r >= 2:
            dep = rx[:2] + [[a * 2**70 - b for a, b in zip(rx[0], rx[1])]]
            assert mat_rank(ExactMatrix.from_rows(dep)) == _ref_rank(dep)
        # equality and hashing across construction routes and dtypes
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)
        assert back.A.dtype == x.A.dtype and back.B.dtype == x.B.dtype


def test_object_results_that_fit_come_back_int64():
    big = ExactMatrix.from_rows([[2**70, -(2**70) + 3], [2**63, 5]])
    near = ExactMatrix.from_rows([[2**70 - 1, -(2**70)], [2**63 - 4, 5]])
    assert big.A.dtype == object and near.A.dtype == object
    diff = big - near
    direct = ExactMatrix.from_rows([[1, 3], [4, 0]])
    assert diff.A.dtype == np.int64 and diff.B.dtype == np.int64
    assert diff == direct and hash(diff) == hash(direct)
    # a matrix product on the object path whose result fits
    left = ExactMatrix.from_rows([[2**62, 1], [2**62, 1]])
    right = ExactMatrix.from_rows([[1], [-(2**62)]])
    prod = mat_mul(left, right)
    assert prod.A.dtype == np.int64 and prod == ExactMatrix.zero(2, 1)
    assert hash(prod) == hash(ExactMatrix.zero(2, 1))
    # each term fits int64 but the inner sum of four does not
    t = 2**31 - 1
    row, col = ExactMatrix.from_rows([[t] * 4]), ExactMatrix.from_rows([[t]] * 4)
    assert row.A.dtype == np.int64 and mat_mul(row, col)[0, 0] == QuadExt(4 * t * t)
    # dividing out a huge common factor brings object numerators back to int64
    num = np.array([[2**70, -(2**71)]], dtype=object)
    reduced = ExactMatrix(num, np.zeros((1, 2), dtype=object), 3 * 2**70, 0)
    assert reduced.A.dtype == np.int64 and reduced.B.dtype == np.int64 and reduced.den == 3
    direct = ExactMatrix.from_rows([[Fraction(1, 3), Fraction(-2, 3)]])
    assert reduced == direct and hash(reduced) == hash(direct)


def test_rank_block_of_int64_matrix_beyond_int64():
    # row 1 = (3 - sqrt 13) row 0; every numerator fits int64, but 13 B
    # leaves it at (0, 0) and (1, 1), so a wrapped int64 block would have rank 4
    r0 = [QuadExt(-2761613851485418634, -881625892367700647, 13),
          QuadExt(-1613374271719756060, -110862571870261614, 13)]
    rows = [r0, [x * QuadExt(3, -1, 13) for x in r0]]
    m = ExactMatrix.from_rows(rows)
    assert m.A.dtype == m.B.dtype == np.int64
    assert 13 * max(abs(v) for v in m.B.ravel().tolist()) >= 2**63
    assert mat_rank(m) == _ref_rank(rows) == 1


def test_huge_coefficients_on_int64_matrices():
    zero = ExactMatrix.zero(2, 3)
    for c in (2**70, -(2**70), Fraction(1, 2**70), QuadExt(2**70, 2**70, 5)):
        got = zero.scale(c)
        assert got == zero and got.A.dtype == np.int64 and got.den == 1
    one = ExactMatrix.identity(2)
    got = one.scale(2**70)
    assert got.A.dtype == object and got[1, 1] == QuadExt(2**70) and got[0, 1] == 0
    assert got.scale(Fraction(1, 2**70)) == one
    irr = ExactMatrix.from_rows([[QuadExt(1, 1, 5), 0]])
    got = irr.scale(QuadExt(2**63, -(2**63), 5))
    assert got[0, 0] == QuadExt(1, 1, 5) * QuadExt(2**63, -(2**63), 5)
    _check_stored(got)


def test_signs_match_quadext_sign():
    rng = random.Random(77)
    for D, scale, den in itertools.product((0, 2, 5, 13), (1, 2**31, 2**62, 2**70),
                                           (1, 3, HUGE_DEN)):
        vals = []
        for _ in range(40):
            b = rng.randint(-scale, scale) if D else 0
            if D and rng.random() < 0.6:
                # |a| within a few units of |b| sqrt(D): decided only exactly
                a = (isqrt(D * b * b) + rng.randint(-2, 2)) * rng.choice((1, -1))
            else:
                a = rng.randint(-scale, scale)
            vals.append(QuadExt(Fraction(a, den), Fraction(b, den), D))
        vals += [QuadExt(0), QuadExt(0, 1, D) if D else QuadExt(-1)]
        m = ExactMatrix.from_rows([vals[i:i + 6] for i in range(0, 36, 6)])
        got = m.signs()
        assert got.dtype == np.int8
        assert got.ravel().tolist() == [q.sign() for q in m.entries]
