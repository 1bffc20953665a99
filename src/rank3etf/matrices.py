"""
Dense exact matrices over Q(sqrt(D)).

A matrix is stored once, as (A + B*sqrt(D)) / den: A and B are numpy arrays
of Python ints (dtype=object), den > 0 with gcd(den, A, B) = 1, and D = 0
exactly when B is zero.  Equal matrices are therefore
stored identically and equality is array equality.  Entries are handed out
as QuadExt scalars.

A product costs one integer product A*A' (four when sqrt(D) is present).
Each runs in numpy int64 whenever the a-priori bound
inner_dim * max|X| * max|Y| < 2^62 proves it exact, and otherwise in
numpy's object-dtype matmul on Python ints.

Rank is computed by fraction-free (Bareiss) elimination over Z; the
intermediate entries are minors of the integer matrix, so every division is
exact.  Over Q(sqrt(D)) the matrix A + B*sqrt(D) acts on Q(sqrt(D))^n =
Q^(2n) as the rational block matrix [[A, D*B], [B, A]], whose rank is twice
the rank over Q(sqrt(D)).  Pivoting is deterministic: first nonzero entry,
lowest row index.
"""

from fractions import Fraction
from math import gcd, lcm
import operator

import numpy as np

from .qext import QuadExt

_NP_BOUND = 2**62


def _join(d1, d2):
    "common radical of two operands, or raise"
    if d1 and d2 and d1 != d2:
        raise ValueError("incompatible radicals sqrt(%d) vs sqrt(%d)" % (d1, d2))
    return d1 or d2


def _same_shape(x, y):
    if x.A.shape != y.A.shape:
        raise ValueError("shape mismatch %dx%d vs %dx%d" % (x.rows, x.cols, y.rows, y.cols))


class ExactMatrix:
    "immutable dense matrix (A + B*sqrt(D)) / den over Q(sqrt(D))"

    __slots__ = ("A", "B", "den", "D")

    def __init__(self, A, B, den, D):
        "A, B: 2-d integer object arrays of one shape; den > 0; put in lowest terms"
        if A.ndim != 2 or A.shape != B.shape or den <= 0:
            raise ValueError("need two equal-shape 2-d arrays and den > 0")
        if not B.any():
            D = 0
        g = gcd(den, *A.flat, *B.flat)
        if g > 1:
            A, B, den = A // g, B // g, den // g
        A.flags.writeable = B.flags.writeable = False
        for name, val in (("A", A), ("B", B), ("den", den), ("D", D)):
            object.__setattr__(self, name, val)

    def __setattr__(self, *_):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def rows(self):
        return self.A.shape[0]

    @property
    def cols(self):
        return self.A.shape[1]

    @staticmethod
    def from_codes(codes, values):
        "the matrix with entry (i, j) = values[codes[i, j]]; codes is an int array"
        values = [QuadExt.coerce(v) for v in values]
        D = 0
        for v in values:
            D = _join(D, v.D)
        den = lcm(*(x.denominator for v in values for x in (v.a, v.b)))
        a = np.array([int(v.a * den) for v in values], dtype=object)
        b = np.array([int(v.b * den) for v in values], dtype=object)
        return ExactMatrix(a[codes], b[codes], den, D)

    @staticmethod
    def from_rows(rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("rows of unequal length")
        index = {}
        codes = [index.setdefault(QuadExt.coerce(x), len(index)) for row in rows for x in row]
        return ExactMatrix.from_codes(np.array(codes, dtype=np.intp).reshape(r, c), list(index))

    @staticmethod
    def identity(n):
        return ExactMatrix.from_codes(np.eye(n, dtype=np.intp), (0, 1))

    @staticmethod
    def zero(r, c):
        return ExactMatrix.from_codes(np.zeros((r, c), dtype=np.intp), (0,))

    def _scalars(self, As, Bs):
        "entries for parallel numerator sequences; each distinct one is built once"
        made = {}
        out = []
        for key in zip(As, Bs):
            q = made.get(key)
            if q is None:
                a, b = key
                q = made[key] = QuadExt(Fraction(a, self.den), Fraction(b, self.den), self.D)
            out.append(q)
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%r, %r) outside %dx%d" % (i, j, self.rows, self.cols))
        return self._scalars((self.A[i, j],), (self.B[i, j],))[0]

    def row(self, i):
        return self._scalars(self.A[i], self.B[i])

    @property
    def entries(self):
        "all entries in row-major order"
        return self._scalars(self.A.flat, self.B.flat)

    def support(self):
        "(i, j) of the nonzero entries, in row-major order"
        for i, j in np.argwhere((self.A != 0) | (self.B != 0)):
            yield int(i), int(j)

    def transpose(self):
        return ExactMatrix(self.A.T, self.B.T, self.den, self.D)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            (self.den, self.D) == (other.den, other.D)
            and self.A.shape == other.A.shape
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.B, other.B)
        )

    def __hash__(self):
        return hash((self.den, self.D, self.A.shape, tuple(self.A.flat), tuple(self.B.flat)))

    def _add(self, other, sign):
        _same_shape(self, other)
        D = _join(self.D, other.D)
        den = lcm(self.den, other.den)
        x, y = den // self.den, sign * (den // other.den)
        return ExactMatrix(self.A * x + other.A * y, self.B * x + other.B * y, den, D)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def scale(self, c):
        c = QuadExt.coerce(c)
        D = _join(self.D, c.D)
        cd = lcm(c.a.denominator, c.b.denominator)
        ca, cb = int(c.a * cd), int(c.b * cd)
        return ExactMatrix(
            self.A * ca + self.B * (cb * D), self.A * cb + self.B * ca, self.den * cd, D
        )

    def hadamard(self, other):
        "entrywise product"
        _same_shape(self, other)
        return _product(self, other, operator.mul)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return mat_mul(self, other)
        return self.scale(other)

    def __repr__(self):
        return "ExactMatrix(%dx%d, D=%d)" % (self.rows, self.cols, self.D)


def _imatmul(X, Y):
    "exact product of integer object arrays, in int64 when the bound allows"
    xmax = np.abs(X).max(initial=0)
    ymax = np.abs(Y).max(initial=0)
    if X.shape[1] * xmax * ymax < _NP_BOUND:
        return (X.astype(np.int64) @ Y.astype(np.int64)).astype(object)
    return X @ Y


def _product(x, y, mul):
    "(XA + XB r)(YA + YB r) with r = sqrt(D), each part multiplied by mul"
    D = _join(x.D, y.D)
    A = mul(x.A, y.A)
    if not D:
        return ExactMatrix(A, np.zeros_like(A), x.den * y.den, 0)
    A = A + D * mul(x.B, y.B)
    B = mul(x.A, y.B) + mul(x.B, y.A)
    return ExactMatrix(A, B, x.den * y.den, D)


def mat_mul(x, y):
    "exact matrix product"
    if x.cols != y.rows:
        raise ValueError("dimension mismatch %dx%d * %dx%d" % (
            x.rows, x.cols, y.rows, y.cols))
    return _product(x, y, _imatmul)


def _int_rank(rows, ncols):
    "Bareiss elimination over Z; rows is a list of mutable int lists (consumed)"
    m = len(rows)
    rank, prev, col = 0, 1, 0
    while rank < m and col < ncols:
        piv = None
        for i in range(rank, m):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(rank + 1, m):
            ri = rows[i]
            ric = ri[col]
            if ric:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j] - ric * prow[j]) // prev
                ri[col] = 0
            elif prev != p:
                for j in range(col + 1, ncols):
                    ri[j] = (p * ri[j]) // prev
        prev = p
        rank += 1
        col += 1
    return rank


def mat_rank(m):
    "rank over Q(sqrt(D)), by fraction-free elimination; exact"
    if not m.D:
        return _int_rank(m.A.tolist(), m.cols)  # den does not affect rank
    block = np.block([[m.A, m.D * m.B], [m.B, m.A]])
    return _int_rank(block.tolist(), 2 * m.cols) // 2
