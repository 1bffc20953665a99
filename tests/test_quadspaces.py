"""
Quadratic spaces over small fields of characteristic 2: singular-vector
counts against the classical formulas, the packed polar form and its
whole-array evaluation, packed tables, and hyperplane singular masks
(indexed by the singular vectors) checked by direct field computation.
"""

import random
from collections import Counter

import numpy as np
import pytest

from rank3etf.fields import field
from rank3etf.quadspaces import (
    QuadraticSpace,
    polar_values,
    standard_singular_count,
    standard_space,
)


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
        f, qt = sp.field, sp.q_table()

        def polar(x, y):
            return qt[x ^ y] ^ qt[x] ^ qt[y]

        for _ in range(40):
            x, y, z = (rng.randrange(len(qt)) for _ in range(3))
            assert polar(x, y) == polar(y, x)
            assert polar(x ^ z, y) == f.add(polar(x, y), polar(z, y))
            c = rng.randrange(q)
            cx = sp.pack([f.mul(c, a) for a in sp.unpack(x)])
            assert polar(cx, y) == f.mul(c, polar(x, y))


def test_polar_values_match_the_packed_polar_form():
    for q, dim, kind in ((2, 4, "minus"), (4, 3, "parabolic"), (2, 6, "plus")):
        sp = standard_space(q, dim, kind)
        qt = sp.q_table()
        xs, ys = np.arange(len(qt)), np.arange(len(qt))[::-3]
        got = polar_values(np.array(qt, dtype=np.uint8), xs, ys)
        assert got.shape == (len(xs), len(ys))
        assert got.tolist() == [[qt[x ^ y] ^ qt[x] ^ qt[y] for y in ys] for x in xs]


def test_pack_unpack_and_q_table():
    sp = standard_space(4, 3, "parabolic")
    qt = sp.q_table()
    for idx in range(4**3):
        v = sp.unpack(idx)
        assert sp.pack(v) == idx
        assert qt[idx] == sp.q_of(v)


def test_q_table_needs_char_2():
    with pytest.raises(ValueError):
        standard_space(3, 3, "parabolic")


def test_hyperplane_singular_masks_gf4():
    # hyperplanes of the 3-dim parabolic space over GF(4): 10 hyperbolic
    # (6 nonzero singular vectors), 6 elliptic (none) and 5 through the
    # nucleus (q^(2n-1) - 1 = 3); counts below include the zero vector
    sp = standard_space(4, 3, "parabolic")
    f = sp.field
    masks = sp.hyperplane_singular_masks()
    assert Counter(m.bit_count() for m in masks) == {7: 10, 1: 6, 4: 5}
    functionals = [
        a for a in range(1, 4**3) if next(c for c in sp.unpack(a) if c) == 1
    ]
    assert len(functionals) == len(masks) == 21
    # bit i stands for the i-th singular vector in packed order, zero first
    singular = [x for x in range(4**3) if sp.q_of(sp.unpack(x)) == 0]
    assert len(singular) == 16 and singular[0] == 0
    for a, mask in zip(functionals, masks):
        coords = sp.unpack(a)
        want = 0
        for i, x in enumerate(singular):
            dot = 0
            for c, xj in zip(coords, sp.unpack(x)):
                dot = f.add(dot, f.mul(c, xj))
            if dot == 0:
                want |= 1 << i
        assert mask == want


def test_minus_type_anisotropic_plane():
    # the minus form in dimension 2 has no nonzero singular vectors at all
    for q in (2, 4, 8):
        sp = standard_space(q, 2, "minus")
        assert sp.count_singular() == 0
        assert all(sp.q_of(sp.unpack(x)) for x in range(1, q**2))
