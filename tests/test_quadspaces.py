"""
Quadratic spaces over small fields of characteristic 2: singular-vector
counts against the classical formulas, the packed polar form and its
whole-array evaluation, packed tables, and hyperplane singular masks
(indexed by the singular vectors) checked by direct field computation.
The references are scalar_reference's polynomial field and its form
evaluated one vector at a time, which share no code with the package.  The
whole-array form table equals that q_of on every vector of each standard
space up to 4096 vectors; it is read-only, and a space beyond the ambient
bound raises before numpy is touched.  The bit-plane masks, rows of 64-bit
words read back as integers, equal the scalar dot-product rule, and two
mask lists are frozen by digest.
"""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from rank3etf import quadspaces
from rank3etf.fields import field
from rank3etf.quadspaces import (
    AMBIENT_BOUND,
    QuadraticSpace,
    polar_values,
    standard_singular_count,
    standard_space,
)
from scalar_reference import PolyField, pack, q_of, unpack


def _ref(sp):
    "the polynomial reference field of sp, and q_of on packed vectors by it"
    f = PolyField(2, sp.field.e)
    return f, lambda x: q_of(f, sp.coeffs, unpack(x, f.e, sp.dim))


def test_standard_counts_by_enumeration():
    for q in (2, 4, 8):
        for dim in (2, 4):
            for kind in ("plus", "minus"):
                sp = standard_space(q, dim, kind)
                assert sp.count_singular() == standard_singular_count(q, dim, kind)
        for dim in (1, 3):
            sp = standard_space(q, dim, "parabolic")
            assert sp.count_singular() == q ** (dim - 1) - 1
    # construction itself asserts the count; a wrong layout cannot pass
    sp6 = standard_space(2, 6, "plus")
    assert sp6.count_singular() == (2**3 - 1) * (2**2 + 1)


def test_wrong_kind_rejected():
    f = field(2)
    with pytest.raises(ValueError, match="not of type minus"):
        QuadraticSpace(f, 2, "minus", {(0, 1): 1})  # hyperbolic plane is not elliptic
    with pytest.raises(ValueError, match="dimension 3"):
        standard_space(2, 3, "plus")  # plus type needs even dimension
    with pytest.raises(ValueError, match="kind"):
        standard_space(2, 2, "hyperbolic")
    with pytest.raises(ValueError, match="outside GF"):
        QuadraticSpace(f, 2, "plus", {(0, 2): 1})
    with pytest.raises(ValueError, match="dimension 0"):
        standard_singular_count(2, 0, "plus")


def test_polar_is_bilinear_and_symmetric():
    # packed polar form B(x, y) = qt[x^y] ^ qt[x] ^ qt[y]
    rng = random.Random(77)
    for q, dim, kind in ((2, 4, "minus"), (4, 3, "parabolic"), (4, 2, "plus")):
        sp = standard_space(q, dim, kind)
        (f, _), qt = _ref(sp), sp.q_table()

        def polar(x, y):
            return qt[x ^ y] ^ qt[x] ^ qt[y]

        for _ in range(40):
            x, y, z = (rng.randrange(len(qt)) for _ in range(3))
            assert polar(x, y) == polar(y, x)
            assert polar(x ^ z, y) == f.add(polar(x, y), polar(z, y))
            c = rng.randrange(q)
            cx = pack([f.mul(c, a) for a in unpack(x, f.e, dim)], f.e)
            assert polar(cx, y) == f.mul(c, polar(x, y))


def test_polar_values_match_the_packed_polar_form():
    for q, dim, kind in ((2, 4, "minus"), (4, 3, "parabolic"), (2, 6, "plus")):
        sp = standard_space(q, dim, kind)
        qt = sp.q_table()
        xs, ys = np.arange(len(qt)), np.arange(len(qt))[::-3]
        got = polar_values(qt, xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert got.tolist() == [[qt[x ^ y] ^ qt[x] ^ qt[y] for y in ys] for x in xs]


def test_pack_unpack_and_q_table():
    sp = standard_space(4, 3, "parabolic")
    qt, (f, _) = sp.q_table(), _ref(sp)
    for idx in range(4**3):
        v = unpack(idx, 2, 3)
        assert pack(v, 2) == idx
        assert qt[idx] == q_of(f, sp.coeffs, v)


def test_q_table_needs_char_2():
    with pytest.raises(ValueError):
        standard_space(3, 3, "parabolic")


def _scalar_masks(sp):
    "the masks by the scalar dot-product rule, over the singular vectors that q_of finds"
    (f, qx), n = _ref(sp), sp.field.q**sp.dim
    functionals = [a for a in range(1, n) if next(c for c in unpack(a, f.e, sp.dim) if c) == 1]
    # bit i stands for the i-th singular vector in packed order, zero first
    singular = [unpack(x, f.e, sp.dim) for x in range(n) if qx(x) == 0]
    masks = []
    for a in functionals:
        coords = unpack(a, f.e, sp.dim)
        want = 0
        for i, x in enumerate(singular):
            dot = 0
            for c, xj in zip(coords, x):
                dot = f.add(dot, f.mul(c, xj))
            if dot == 0:
                want |= 1 << i
        masks.append(want)
    return masks


def _mask_ints(words):
    "each row of uint64 words as one integer, word w at bits 64w .. 64w + 63"
    return [sum(int(x) << 64 * w for w, x in enumerate(row)) for row in words]


def test_hyperplane_singular_masks_gf4():
    # hyperplanes of the 3-dim parabolic space over GF(4): 10 hyperbolic
    # (6 nonzero singular vectors), 6 elliptic (none) and 5 through the
    # nucleus (q^(2n-1) - 1 = 3); counts below include the zero vector
    sp = standard_space(4, 3, "parabolic")
    masks = _mask_ints(sp.hyperplane_singular_masks())
    assert Counter(m.bit_count() for m in masks) == {7: 10, 1: 6, 4: 5}
    functionals = [
        a for a in range(1, 4**3) if next(c for c in unpack(a, 2, 3) if c) == 1
    ]
    assert len(functionals) == len(masks) == 21
    qx = _ref(sp)[1]
    singular = [x for x in range(4**3) if qx(x) == 0]
    assert len(singular) == 16 and singular[0] == 0
    assert masks == _scalar_masks(sp)


def test_masks_match_the_scalar_rule():
    cases = ((4, 5, "parabolic"), (8, 3, "parabolic"), (2, 6, "plus"), (2, 8, "minus"))
    for q, dim, kind in cases:
        sp = standard_space(q, dim, kind)
        words = sp.hyperplane_singular_masks()
        nsingular = sp.count_singular() + 1
        assert words.dtype == np.uint64 and words.shape[1] == (nsingular + 63) // 64
        assert _mask_ints(words) == _scalar_masks(sp), (q, dim, kind)


def test_masks_frozen_digests():
    # frozen SHA-256 of repr(masks); the (4, 7) list is the input of the
    # opt-in NOplusOdd_4 3 build, which takes seconds
    for dim, count, digest in (
        (5, 341, "676cd17bfc48c6505d1b955b16f169ee9c28e7343e59149c9aee8b054eadbe7f"),
        (7, 5461, "18b9a36974c6556b5ff734b1a5ed53f7e4be32d5cd3bb2e02b9c207412397e3b"),
    ):
        masks = _mask_ints(standard_space(4, dim, "parabolic").hyperplane_singular_masks())
        assert len(masks) == count
        assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_q_table_matches_q_of():
    seen = 0
    for q in (2, 4, 8):
        for dim in range(1, 13):
            for kind in ("plus", "minus", "parabolic"):
                if q**dim > 4096 or (kind == "parabolic") != (dim % 2 == 1):
                    continue
                sp = standard_space(q, dim, kind)
                qt = sp.q_table()
                assert qt.dtype == np.uint8 and qt.shape == (q**dim,)
                qx = _ref(sp)[1]
                assert qt.tolist() == [qx(x) for x in range(q**dim)]
                seen += 1
    assert seen == 33


def test_q_table_is_read_only_and_cached():
    sp = standard_space(4, 3, "parabolic")
    qt = sp.q_table()
    before = qt.copy()
    with pytest.raises(ValueError):
        qt[1] ^= 1
    assert sp.q_table() is qt and np.array_equal(qt, before)


class _NoNumpy:
    "stands in for numpy and fails on any use"

    def __getattr__(self, name):
        raise AssertionError("numpy.%s used before the ambient bound was checked" % name)


def test_q_table_bound_checked_before_allocation(monkeypatch):
    assert 2**26 > AMBIENT_BOUND
    monkeypatch.setattr(quadspaces, "np", _NoNumpy())
    with pytest.raises(ValueError, match="ambient bound"):
        standard_space(2, 26, "plus")


def test_minus_type_anisotropic_plane():
    # the minus form in dimension 2 has no nonzero singular vectors at all
    for q in (2, 4, 8):
        sp = standard_space(q, 2, "minus")
        assert sp.count_singular() == 0
        qx = _ref(sp)[1]
        assert all(qx(x) for x in range(1, q**2))
