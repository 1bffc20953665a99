"""
Exact matrices over Q(sqrt(D)): products against numpy on random integer
matrices, the rational/irrational Kronecker split, and fraction-free rank
against numpy's numerical rank on full-precision-safe inputs.
"""

import random
from fractions import Fraction
from math import isqrt

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
