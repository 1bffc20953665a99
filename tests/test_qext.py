"""
Field arithmetic in Q(sqrt(D)): ring axioms on random elements, exact sign
against floating point, serialization round trips, and the integer-sqrt and
squarefree helpers that anchor the representation.  Bad input raises
ValueError, and the inverse of zero ZeroDivisionError.
"""

import math
import random
from fractions import Fraction

import pytest

from rank3etf.qext import QuadExt, sqrt_int, squarefree_part


def _rand_elt(rng, D):
    num = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return QuadExt(num(), num(), D)


def test_construction_and_equality():
    assert QuadExt(3) == QuadExt(3, 0, 5)  # b = 0 forces D = 0
    assert QuadExt(Fraction(1, 2), 0, 7) == QuadExt(Fraction(1, 2))
    assert QuadExt(2, 3, 1) == QuadExt(5)  # sqrt(1) folds into the rational part
    assert QuadExt(1, 1, 2) != QuadExt(1, 1, 3)
    with pytest.raises(ValueError, match="square-free"):
        QuadExt(0, 1, 4)  # D must be square-free
    with pytest.raises(ValueError, match="square-free"):
        QuadExt(0, 1, -2)


def test_ring_axioms_random():
    rng = random.Random(101)
    for D in (2, 3, 5, 13):
        for _ in range(40):
            x, y, z = (_rand_elt(rng, D) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x - x == QuadExt(0)
            if x:
                assert x * x.inverse() == QuadExt(1)
                assert (x / x) == QuadExt(1)


def test_norm_form_inverse():
    x = QuadExt(3, 2, 5)  # 3 + 2 sqrt 5, norm 9 - 20 = -11
    inv = x.inverse()
    assert inv == QuadExt(Fraction(-3, 11), Fraction(2, 11), 5)
    assert x * inv == QuadExt(1)
    with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
        QuadExt(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1, 5) / QuadExt(0)


def test_sign_matches_float():
    rng = random.Random(202)
    for D in (2, 5, 7, 21):
        for _ in range(60):
            x = _rand_elt(rng, D)
            approx = float(x.a) + float(x.b) * math.sqrt(D)
            if abs(approx) > 1e-9:
                assert x.sign() == (1 if approx > 0 else -1)
            assert (x < QuadExt(0)) == (x.sign() < 0)
    # a case where both terms nearly cancel: 985/696 vs sqrt(2)
    close = QuadExt(Fraction(985, 696), -1, 2)
    assert close.sign() == 1  # 985/696 > sqrt(2) by about 1e-6


def test_sq_and_abs():
    x = QuadExt(1, -1, 3)
    assert x.sq() == x * x
    assert abs(x) == QuadExt(-1, 1, 3)  # 1 - sqrt 3 < 0
    assert abs(QuadExt(2, 1, 3)) == QuadExt(2, 1, 3)


def test_rational_detection():
    assert QuadExt(Fraction(3, 4)).is_rational()
    assert QuadExt(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert not QuadExt(0, 1, 5).is_rational()
    with pytest.raises(ValueError, match="irrational"):
        QuadExt(0, 1, 5).as_fraction()


def test_serialize_round_trip():
    rng = random.Random(303)
    for D in (0, 2, 5, 6, 33):
        for _ in range(25):
            x = _rand_elt(rng, D) if D else QuadExt(Fraction(rng.randint(-9, 9), 4))
            assert QuadExt.parse(x.serialize()) == x
    assert QuadExt.parse("1/1") == QuadExt(1)
    assert QuadExt.parse("-1/4+1/4*sqrt(5)") == QuadExt(Fraction(-1, 4), Fraction(1, 4), 5)


def test_mixed_radicals_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # rational values combine with anything
    assert QuadExt(2) + QuadExt(0, 1, 3) == QuadExt(2, 1, 3)


def test_sqrt_int():
    for n in (1, 4, 9, 144, 15 * 15, 341 ** 2):
        assert sqrt_int(n) == QuadExt(int(math.isqrt(n)))
    assert sqrt_int(6) == QuadExt(0, 1, 6)
    assert sqrt_int(12) == QuadExt(0, 2, 3)
    assert sqrt_int(45) == QuadExt(0, 3, 5)


def test_squarefree_part():
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(49) == (1, 7)
    assert squarefree_part(360) == (10, 6)
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(1, 10 ** 6)
        d, m = squarefree_part(n)
        assert m * m * d == n
        for p in (2, 3, 5, 7, 11, 13):
            assert d % (p * p) != 0
    for n in (0, -4):
        with pytest.raises(ValueError, match="positive"):
            squarefree_part(n)
