"""
Dense exact matrices over Q(sqrt(D)).

A matrix is stored once, as (A + B*sqrt(D)) / den with integer arrays A
and B, den > 0 with gcd(den, A, B) = 1, and D = 0 exactly when B is zero.
Entries are handed out as QuadExt scalars, which store the same form
(na + nb*sqrt(D)) / den in Python ints.

Storage rule: A (and likewise B) is an np.int64 array exactly when every
|entry| < 2^62, and otherwise an object array of Python ints.  The rule
depends on the values alone, so equal matrices are stored identically,
dtype included, and equality and hashing are array equality.

Every operation computes in int64 when an a-priori bound, evaluated in
Python ints before numpy runs, proves that no intermediate value reaches
2^62, and on Python ints otherwise; the result is then stored by the rule
above.  The bounds, with max|X| the largest |entry| of X:
  - a linear combination sum c*X (sums, differences, scaling, and the
    sqrt(D) parts of a product): sum |c| * max|X|, and every |c| and
    max|X| itself, since numpy cannot hold a coefficient >= 2^63 even when
    it multiplies zeros;
  - a matrix product X @ Y: inner_dim * max|X| * max|Y|.
A product costs one integer product A*A' (four when sqrt(D) is present).

Rank is computed by fraction-free (Bareiss) elimination over Z; the
intermediate entries are minors of the integer matrix, so every division is
exact.  Over Q(sqrt(D)) the matrix A + B*sqrt(D) acts on Q(sqrt(D))^n =
Q^(2n) as the rational block matrix [[A, D*B], [B, A]], whose rank is twice
the rank over Q(sqrt(D)).  Pivoting is deterministic: first nonzero entry,
lowest row index.
"""

from math import gcd, lcm
import operator

import numpy as np

from .qext import QuadExt, _join, _make

_NP_BOUND = 2**62


def _same_shape(x, y):
    if x.A.shape != y.A.shape:
        raise ValueError("shape mismatch %dx%d vs %dx%d" % (x.rows, x.cols, y.rows, y.cols))


def _maxabs(X):
    "largest |entry| of an integer array, as a Python int; 0 when empty"
    return max(int(X.max(initial=0)), -int(X.min(initial=0)))


def _fits(*bounds):
    return all(b < _NP_BOUND for b in bounds)


def _stored(X):
    "X under the storage rule: int64 iff every |entry| < 2^62, else Python ints"
    return X.astype(np.int64 if _maxabs(X) < _NP_BOUND else object, copy=False)


def _lincomb(*terms):
    "exact sum of c * X over (Python int c, integer array X) terms"
    coeffs = [abs(c) for c, _ in terms]
    maxes = [_maxabs(X) for _, X in terms]
    if _fits(sum(map(operator.mul, coeffs, maxes)), *coeffs, *maxes):
        return sum(c * X.astype(np.int64, copy=False) for c, X in terms)
    return sum(c * X.astype(object) for c, X in terms)


def _iproduct(X, Y):
    "exact matrix product X @ Y of integer arrays"
    xmax, ymax = _maxabs(X), _maxabs(Y)
    if _fits(X.shape[1] * xmax * ymax, xmax, ymax):
        return X.astype(np.int64, copy=False) @ Y.astype(np.int64, copy=False)
    return X.astype(object) @ Y.astype(object)


def _sign(X):
    return (X > 0).astype(np.int8) - (X < 0)


class ExactMatrix:
    "immutable dense matrix (A + B*sqrt(D)) / den over Q(sqrt(D))"

    __slots__ = ("A", "B", "den", "D")

    def __init__(self, A, B, den, D):
        "A, B: 2-d integer arrays of one shape; den > 0; put in lowest terms"
        if A.ndim != 2 or A.shape != B.shape or den <= 0:
            raise ValueError("need two equal-shape 2-d arrays and den > 0")
        A, B = _stored(A), _stored(B)
        if not B.any():
            D = 0
        g = gcd(int(np.gcd.reduce(A, axis=None, initial=0)),
                int(np.gcd.reduce(B, axis=None, initial=0)))
        if not g:
            den = 1  # the zero matrix
        g = gcd(g, den)
        if g > 1:  # g <= |x| for x != 0, so it fits the dtype of a nonzero A or B
            A, B = (_stored(X // g) if X.any() else X for X in (A, B))
            den //= g
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
        den = lcm(*(v.den for v in values))
        a = _stored(np.array([v.na * (den // v.den) for v in values], dtype=object))
        b = _stored(np.array([v.nb * (den // v.den) for v in values], dtype=object))
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
        "entries for parallel Python int numerator sequences; each distinct one is built once"
        made = {}
        out = []
        for key in zip(As, Bs):
            q = made.get(key)
            if q is None:
                q = made[key] = _make(*key, self.den, self.D)
            out.append(q)
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%r, %r) outside %dx%d" % (i, j, self.rows, self.cols))
        return self._scalars((int(self.A[i, j]),), (int(self.B[i, j]),))[0]

    def row(self, i):
        return self._scalars(self.A[i].tolist(), self.B[i].tolist())

    @property
    def entries(self):
        "all entries in row-major order"
        return self._scalars(self.A.ravel().tolist(), self.B.ravel().tolist())

    def signs(self):
        "int8 array of the entry signs -1, 0, +1 as real numbers; exact"
        sa, sb = _sign(self.A), _sign(self.B)  # den > 0 does not change a sign
        out = np.where(sa == sb, sa, 0).astype(np.int8)
        # otherwise the larger of |a| and |b| sqrt(D) decides: t = a^2 - D b^2,
        # which is not 0 as D is square-free
        mixed = sa != sb
        a, b, D = self.A[mixed], self.B[mixed], self.D
        amax, bmax = _maxabs(a), _maxabs(b)
        if not _fits(amax * amax + D * bmax * bmax, amax, bmax, D):
            a, b = a.astype(object), b.astype(object)
        t = a * a - D * (b * b)
        out[mixed] = np.where(t > 0, sa[mixed], sb[mixed])
        return out

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
        return hash((self.den, self.D, self.A.shape,
                     tuple(self.A.ravel().tolist()), tuple(self.B.ravel().tolist())))

    def _add(self, other, sign):
        _same_shape(self, other)
        D = _join(self.D, other.D)
        den = lcm(self.den, other.den)
        x, y = den // self.den, sign * (den // other.den)
        return ExactMatrix(
            _lincomb((x, self.A), (y, other.A)), _lincomb((x, self.B), (y, other.B)), den, D
        )

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def scale(self, c):
        c = QuadExt.coerce(c)
        D = _join(self.D, c.D)
        return ExactMatrix(
            _lincomb((c.na, self.A), (c.nb * D, self.B)),
            _lincomb((c.nb, self.A), (c.na, self.B)),
            self.den * c.den,
            D,
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return mat_mul(self, other)
        return self.scale(other)

    def __repr__(self):
        return "ExactMatrix(%dx%d, D=%d)" % (self.rows, self.cols, self.D)


def mat_mul(x, y):
    "exact matrix product (XA + XB r)(YA + YB r) with r = sqrt(D)"
    if x.cols != y.rows:
        raise ValueError("dimension mismatch %dx%d * %dx%d" % (
            x.rows, x.cols, y.rows, y.cols))
    D = _join(x.D, y.D)
    A = _iproduct(x.A, y.A)
    if not D:
        return ExactMatrix(A, np.zeros(A.shape, np.int64), x.den * y.den, 0)
    A = _lincomb((1, A), (D, _iproduct(x.B, y.B)))
    B = _lincomb((1, _iproduct(x.A, y.B)), (1, _iproduct(x.B, y.A)))
    return ExactMatrix(A, B, x.den * y.den, D)


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
    a, b = m.A.tolist(), m.B.tolist()  # Python ints: D*B may not fit int64
    block = [ra + [m.D * x for x in rb] for ra, rb in zip(a, b)]
    block += [rb + ra for ra, rb in zip(a, b)]
    return _int_rank(block, 2 * m.cols) // 2
