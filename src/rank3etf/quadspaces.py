"""
Quadratic forms on GF(q)^d for even q, packed form tables and hyperplane
masks.

A form is a sparse upper-triangular coefficient dict {(i, j): c}, i <= j,
with q(x) = sum c_ij x_i x_j and polar form B(x, y) = q(x+y) - q(x) - q(y).
Standard forms: "plus" is a sum of hyperbolic pairs x_0 x_1 + x_2 x_3 + ...,
"minus" replaces the last pair by an anisotropic binary form
x^2 + xy + delta y^2, "parabolic" (odd dimension) appends a square term.
Each standard space self-checks at construction: its count of nonzero
singular vectors must equal the classical one, so a wrong layout cannot
survive.

Only characteristic 2 is supported, which is all the graph builders use;
an odd q raises ValueError.  The whole space packs into integers (e bits
per coordinate, coordinate 0 lowest): vector addition is XOR, and
B(x, y) = qt[x^y] ^ qt[x] ^ qt[y] with a precomputed table qt of form
values, which polar_values evaluates on whole arrays of packed vectors.
q_table builds qt for all q^dim vectors at once from the field's
multiplication table (Field.mul_table): the coordinates are read as arrays
and the terms c x_i x_j are looked up in the table and XORed together.

hyperplane_singular_masks gives one row of words (graphs.pack_words) per
hyperplane functional: bit i is set iff the i-th singular vector
(packed-index order, zero first) lies in the kernel.  The kernels come from
bit-planes of the singular vectors, packed by pack_words and XORed for all
functionals at once, so the singular count of a hyperplane is a popcount of
its row, and that of two meeting ones an entry of graphs.and_counts.
"""

import numpy as np

from .fields import Field, field
from .graphs import pack_words

AMBIENT_BOUND = 2**24

_KINDS = ("plus", "minus", "parabolic")


def _anisotropic_delta(fld):
    "first delta in index order with x^2 + xy + delta y^2 anisotropic"
    # y = 0 leaves x^2 != 0, and y != 0 scales to y = 1: delta != t^2 + t for
    # every t, addition being XOR in characteristic 2; t = 0 rules out delta = 0
    t = np.arange(fld.q)
    return int(np.flatnonzero(~np.isin(t, fld.mul_table()[t, t] ^ t))[0])


def _check_type(dim, kind):
    "a known kind; odd dim >= 1 for a parabolic form, even dim >= 2 otherwise"
    if kind not in _KINDS:
        raise ValueError("kind must be one of %s, not %r" % (", ".join(_KINDS), kind))
    if not (dim >= 1 and dim % 2 == 1 if kind == "parabolic" else dim >= 2 and dim % 2 == 0):
        raise ValueError("no nondegenerate %s form in dimension %r" % (kind, dim))


def polar_values(qt, xs, ys):
    "the array B(x, y) = qt[x^y] ^ qt[x] ^ qt[y], x in xs (rows), y in ys; qt a numpy table"
    return qt[xs[:, None] ^ ys] ^ qt[xs][:, None] ^ qt[ys]


def standard_singular_count(q, dim, kind):
    "nonzero singular vectors of the nondegenerate form of this type"
    _check_type(dim, kind)
    if kind == "parabolic":
        return q ** (dim - 1) - 1
    m = dim // 2
    if kind == "plus":
        return (q**m - 1) * (q ** (m - 1) + 1)
    return (q**m + 1) * (q ** (m - 1) - 1)


class QuadraticSpace:
    "a quadratic form of declared type on GF(q)^dim, q even, self-checked by counting"

    def __init__(self, fld, dim, kind, coeffs):
        if not isinstance(fld, Field):
            raise ValueError("need a Field, not %r" % (fld,))
        if fld.p != 2:
            raise ValueError("quadratic spaces need characteristic 2, got %r" % (fld,))
        _check_type(dim, kind)
        self.field = fld
        self.dim = dim
        self.kind = kind
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}
        for (i, j), c in self.coeffs.items():
            if not (0 <= i <= j < dim and 0 < c < fld.q):
                raise ValueError(
                    "coefficient %r at %r outside GF(%d)^%d" % (c, (i, j), fld.q, dim)
                )
        self._qt = None
        got = self.count_singular()
        want = standard_singular_count(fld.q, dim, kind)
        if got != want:
            raise ValueError(
                "form is not of type %s: %d singular, expected %d" % (kind, got, want)
            )

    def q_table(self):
        "q values indexed by packed vector, as a cached read-only numpy uint8 array"
        if self._qt is None:
            f, e, dim = self.field, self.field.e, self.dim
            n = f.q**dim
            if n > AMBIENT_BOUND:
                raise ValueError("%d vectors exceeds the ambient bound %d" % (n, AMBIENT_BOUND))
            mul = f.mul_table()
            idx = np.arange(n)
            x = [((idx >> (e * j)) & (f.q - 1)).astype(np.uint8) for j in range(dim)]
            qt = np.zeros(n, dtype=np.uint8)
            for (i, j), c in self.coeffs.items():
                qt ^= mul[c, mul[x[i], x[j]]]
            qt.flags.writeable = False
            self._qt = qt
        return self._qt

    def count_singular(self):
        qt = self.q_table()
        return int(np.count_nonzero(qt == 0)) - 1

    def hyperplane_singular_masks(self):
        """
        One row of words (graphs.pack_words) per functional a, taken in
        packed-index order of a with first nonzero coordinate 1: bit i is
        set iff the i-th singular vector x in packed-index order (the zero
        vector first) has sum a_j x_j = 0.
        """
        f, e, dim = self.field, self.field.e, self.dim
        singular = np.flatnonzero(self.q_table() == 0)
        # planes[j*e + t]: the singular vectors whose coordinate j has bit t
        # set, as words (bit i for the i-th vector)
        planes = pack_words((singular >> np.arange(dim * e)[:, None]) & 1)
        # the functionals in packed order, kept when the first nonzero coordinate is 1
        a = np.arange(1, f.q**dim)
        coords = (a[:, None] >> (e * np.arange(dim))) & (f.q - 1)
        coords = coords[coords[np.arange(len(a)), np.argmax(coords != 0, axis=1)] == 1]
        # multiplication by a_j is GF(2)-linear on the bits of x_j, so bit b
        # of sum a_j x_j is the XOR of the planes of those bits t with bit b
        # set in a_j * 2^t, read at column j*e + t of scaled
        scaled = f.mul_table()[coords[:, :, None], 1 << np.arange(e)].reshape(len(coords), -1)
        value_bits = np.zeros((len(coords), planes.shape[1]), dtype=planes.dtype)
        for b in range(e):
            plane = np.zeros_like(value_bits)
            for k in range(dim * e):
                plane ^= planes[k] * ((scaled[:, k, None] >> b) & 1)
            value_bits |= plane
        # value_bits lies inside the bits of the singular vectors: XOR complements it
        return value_bits ^ pack_words(np.ones((1, len(singular)), dtype=np.uint8))

    def __repr__(self):
        return "QuadraticSpace(%r, dim=%d, %s)" % (self.field, self.dim, self.kind)


def standard_space(fld, dim, kind):
    "the standard nondegenerate form of the given type"
    if isinstance(fld, int):
        fld = field(fld)
    _check_type(dim, kind)
    coeffs = {}
    pairs = dim // 2
    if kind == "minus":
        pairs -= 1
    for i in range(pairs):
        coeffs[(2 * i, 2 * i + 1)] = 1
    if kind == "minus":
        delta = _anisotropic_delta(fld)
        coeffs[(dim - 2, dim - 2)] = 1
        coeffs[(dim - 2, dim - 1)] = 1
        coeffs[(dim - 1, dim - 1)] = delta
    if kind == "parabolic":
        coeffs[(dim - 1, dim - 1)] = 1
    return QuadraticSpace(fld, dim, kind, coeffs)
