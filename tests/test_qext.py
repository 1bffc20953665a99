"""
Field arithmetic in Q(sqrt(D)): ring axioms on random elements, exact sign
against floating point, serialization round trips, and the integer-sqrt and
squarefree helpers that anchor the representation.  Bad input raises
ValueError, and the inverse of zero ZeroDivisionError.  The integer storage
(na + nb sqrt(D)) / den is checked against a Fraction-based reference of the
arithmetic it replaced.  Values copy and pickle through their stored form.
"""

import copy
import dataclasses
import math
import os
from pathlib import Path
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import rank3etf
from rank3etf.graphs import SrgParams, spectrum
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


def test_copy_and_pickle_round_trips():
    third, sixth = Fraction(2, 3), Fraction(-5, 6)
    for x in (QuadExt(1, 2, 5), QuadExt(Fraction(-3, 4)), QuadExt(third, sixth, 5)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and (y.na, y.nb, y.den, y.D) == (x.na, x.nb, x.den, x.D)
            with pytest.raises(AttributeError, match="immutable"):
                y.na = 0
    sp = spectrum(SrgParams(13, 6, 2, 3))  # conference: r and s in Q(sqrt(13))
    assert copy.deepcopy(sp) == sp
    assert dataclasses.asdict(sp) == {"k": 6, "r": sp.r, "s": sp.s, "f": 6, "g": 6}


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


def test_bad_denominators_raise_value_error():
    for text in ("1/0", "1/1+1/0*sqrt(5)", "0/00", "-3/0+1/2*sqrt(2)"):
        with pytest.raises(ValueError, match="bad scalar string"):
            QuadExt.parse(text)


def test_equal_values_hash_equal():
    for q in (3, -7, 0, Fraction(5, 4), Fraction(-1, 3)):
        x = QuadExt(q)
        assert x == q and hash(x) == hash(q) == hash(Fraction(q))
        assert {x: "hit"}.get(q) == "hit" and {q: "hit"}.get(x) == "hit"
    # equal irrationals reached by different routes
    x = QuadExt(Fraction(1, 2), Fraction(3, 4), 5)
    y = QuadExt(2, 3, 5) + QuadExt(-4, -6, 5) * Fraction(3, 8)
    assert x == y and hash(x) == hash(y)
    one = QuadExt(1, 1, 5) - QuadExt(0, 1, 5)
    assert one == 1 and hash(one) == hash(1)


# -- the integer storage against the Fraction arithmetic it replaced -------------


def _ref(a, b=0, D=0):
    "reference value (a, b, D) with Fractions, canonical as before: b = 0 forces D = 0"
    a, b = Fraction(a), Fraction(b)
    return (a, b, D if b else 0)


def _ref_join(x, y):
    if x[2] and y[2] and x[2] != y[2]:
        raise ValueError("incompatible radicals")
    return x[2] or y[2]


def _ref_add(x, y):
    return _ref(x[0] + y[0], x[1] + y[1], _ref_join(x, y))


def _ref_neg(x):
    return _ref(-x[0], -x[1], x[2])


def _ref_mul(x, y):
    D = _ref_join(x, y)
    return _ref(x[0] * y[0] + x[1] * y[1] * D, x[0] * y[1] + x[1] * y[0], D)


def _ref_inverse(x):
    a, b, D = x
    nrm = a * a - b * b * D
    if nrm == 0:
        raise ZeroDivisionError("zero has no inverse")
    return _ref(a / nrm, -b / nrm, D)


def _ref_sign(x):
    "sign of a + b sqrt(D) from rational bounds on sqrt(D), independent of QuadExt.sign"
    a, b, D = x
    if b == 0:
        return (a > 0) - (a < 0)
    S = 10**40
    r = math.isqrt(D * S * S)  # r / S <= sqrt(D) < (r + 1) / S
    lo, hi = sorted((Fraction(b * r, S), Fraction(b * (r + 1), S)))
    if a + lo > 0:
        return 1
    if a + hi < 0:
        return -1
    raise AssertionError("bounds on sqrt(%d) too loose for %r" % (D, x))


def _ref_serialize(x):
    a, b, D = x
    s = "%d/%d" % (a.numerator, a.denominator)
    if b:
        s += "+%d/%d*sqrt(%d)" % (b.numerator, b.denominator, D)
    return s


def _as_ref(q):
    "the reference triple of a QuadExt, after checking the stored form is canonical"
    assert q.den > 0 and math.gcd(q.na, q.nb, q.den) == 1
    assert (q.D == 0) == (q.nb == 0)
    assert all(type(v) is int for v in (q.na, q.nb, q.den, q.D))
    assert (q.a, q.b) == (Fraction(q.na, q.den), Fraction(q.nb, q.den))
    return (q.a, q.b, q.D)


def _operand(rng, D):
    "a QuadExt with its reference, or an int or Fraction operand with its own"
    kind = rng.random()
    if kind < 0.15:
        n = rng.randint(-9, 9)
        return n, _ref(n)
    if kind < 0.3:
        f = Fraction(rng.randint(-20, 20), rng.randint(1, 15))
        return f, _ref(f)
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 30)) if D and kind < 0.9 else 0
    return QuadExt(a, b, D), _ref(a, b, D)


def test_integer_storage_matches_fraction_reference():
    rng = random.Random(2020)
    for D in (0, 2, 5, 13, 89):
        for _ in range(300):
            (x, rx), (y, ry) = _operand(rng, D), _operand(rng, D)
            if not isinstance(x, QuadExt):
                x = QuadExt(x)  # at least one QuadExt operand
            ops = [
                (lambda: x + y, lambda: _ref_add(rx, ry)),
                (lambda: y + x, lambda: _ref_add(ry, rx)),
                (lambda: x - y, lambda: _ref_add(rx, _ref_neg(ry))),
                (lambda: y - x, lambda: _ref_add(ry, _ref_neg(rx))),
                (lambda: x * y, lambda: _ref_mul(rx, ry)),
                (lambda: y * x, lambda: _ref_mul(ry, rx)),
                (lambda: -x, lambda: _ref_neg(rx)),
                (lambda: x.sq(), lambda: _ref_mul(rx, rx)),
                (lambda: x.inverse(), lambda: _ref_inverse(rx)),
                (lambda: x / y, lambda: _ref_mul(rx, _ref_inverse(ry))),
                (lambda: y / x, lambda: _ref_mul(ry, _ref_inverse(rx))),
                (lambda: abs(x), lambda: _ref_neg(rx) if _ref_sign(rx) < 0 else rx),
            ]
            for got, want in ops:
                try:
                    expected = want()
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        got()
                    continue
                q = got()
                assert _as_ref(q) == expected
                assert q.serialize() == _ref_serialize(expected)
                assert QuadExt.parse(q.serialize()) == q
                assert q.sign() == _ref_sign(expected)
            diff = _ref_sign(_ref_add(rx, _ref_neg(ry)))
            assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
            assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
            assert (y == x) == (rx == ry)
            assert QuadExt(*rx) == x and hash(QuadExt(*rx)) == hash(x)


def test_integer_storage_rejects_what_the_reference_rejects():
    rng = random.Random(2021)
    for D, E in ((2, 3), (5, 13), (13, 89)):
        for _ in range(20):
            x = QuadExt(Fraction(rng.randint(-9, 9), 7), rng.randint(1, 9), D)
            y = QuadExt(Fraction(rng.randint(-9, 9), 5), rng.randint(-9, -1), E)
            for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
                       lambda: x < y, lambda: y.inverse() * x):
                with pytest.raises(ValueError, match="incompatible radicals"):
                    op()
    zero = QuadExt(0, 0, 5)
    assert (zero.na, zero.nb, zero.den, zero.D) == (0, 0, 1, 0)
    for z in (zero, QuadExt(1, 1, 5) - QuadExt(1, 1, 5), QuadExt(Fraction(3, 4)) * 0):
        with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            QuadExt(2, 1, 5) / z
    for bad in ((0, 1, 4), (0, 1, 0), (1, Fraction(1, 2), 8), (0, 1, -5)):
        with pytest.raises(ValueError):
            QuadExt(*bad)


def test_scalar_checks_survive_optimize():
    # python -O strips asserts: the radical, inverse and parse checks must raise
    script = """
from rank3etf.qext import QuadExt
print(__debug__)
for bad in (
    lambda: QuadExt(0, 1, 2) + QuadExt(0, 1, 3),
    lambda: QuadExt(0, 1, 2) * QuadExt(1, 1, 3),
    lambda: QuadExt(0, 1, 12),
    lambda: QuadExt.parse("1/0"),
    lambda: QuadExt.parse("1/1+1/0*sqrt(5)"),
    lambda: QuadExt(1, 1, 5) - QuadExt(1, 1, 5),
):
    try:
        print(bad().inverse())
    except (ValueError, ZeroDivisionError) as err:
        print(type(err).__name__)
print(hash(QuadExt(3)) == hash(3), QuadExt(1, 1, 5) * QuadExt(-1, 1, 5))
"""
    paths = (str(Path(rank3etf.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == (
        ["False"] + ["ValueError"] * 5 + ["ZeroDivisionError", "True 4/1"])
