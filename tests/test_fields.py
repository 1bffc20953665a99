"""
Finite fields GF(p^e) on integer-indexed elements: field axioms on random
triples, Frobenius additivity, inverse and discrete-log tables, square
counts, the canonical-modulus factory, and explicit raises on bad
arguments.  The array-backed Field is checked against a polynomial
reference (products reduced modulo the modulus one at a time, powers by
repeated multiplication), and an AST scan keeps its element encoding
inside the fields module.
"""

import ast
from pathlib import Path
import random

import numpy as np
import pytest

import rank3etf
from rank3etf.fields import (
    Field, _digits, _is_irreducible, _poly_divmod, field, is_prime, prime_power,
)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert is_prime(23) and not is_prime(25)


def test_factory_prime_and_prime_power():
    assert field(23).q == 23 and field(23).e == 1
    assert field(9).p == 3 and field(9).e == 2
    assert field(64).p == 2 and field(64).e == 6
    assert field(4) is field(4)  # cached
    with pytest.raises(ValueError):
        field(12)
    with pytest.raises(ValueError):
        field(100)  # 2^2 * 5^2 is not a prime power
    for q in (0, 1):
        with pytest.raises(ValueError):
            field(q)


def test_canonical_moduli():
    # first irreducible monic in index order; frozen small cases
    assert field(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field(9).modulus == (1, 0, 1)  # x^2 + 1
    assert field(25).modulus == (2, 0, 1)  # x^2 + 2
    assert field(49).modulus == (1, 0, 1)


def test_field_axioms_random():
    rng = random.Random(55)
    for q in (4, 8, 9, 25, 27, 49):
        f = field(q)
        for _ in range(60):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
            assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
            assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
            assert f.add(x, f.neg(x)) == 0
            assert f.sub(x, y) == f.add(x, f.neg(y))
            if x:
                assert f.mul(x, f.inv(x)) == 1


def test_frobenius_is_additive():
    rng = random.Random(66)
    for q in (4, 8, 9, 27):
        f = field(q)
        for _ in range(40):
            x, y = rng.randrange(q), rng.randrange(q)
            assert f.power(f.add(x, y), f.p) == f.add(f.power(x, f.p), f.power(y, f.p))


def test_primitive_element_and_logs():
    for q in (4, 5, 9, 13, 25, 49):
        f = field(q)
        assert f.order(f.g) == q - 1
        for x in range(1, q):
            assert f.power(f.g, f.log(x)) == x


def test_squares():
    for q in (5, 9, 13, 25, 49):
        f = field(q)
        sq = f.squares()
        assert len(sq) == (q - 1) // 2  # odd characteristic
        assert f.neg(1) in sq or q % 4 == 3
    for q in (4, 8):
        assert len(field(q).squares()) == q - 1  # squaring permutes GF(2^e)*


def test_vec_round_trip():
    f = field(27)
    for x in range(27):
        assert f.from_vec(f.to_vec(x)) == x
    assert f.to_vec(5) == (2, 1, 0)  # constant digit first


def test_explicit_gf4_tables():
    f = field(4)  # elements 0, 1, w = 2, w + 1 = 3 with w^2 = w + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        Field(4)  # p must be prime
    with pytest.raises(ValueError):
        Field(3, 8)  # past the largest extension degree


def test_zero_has_no_negative_power():
    f = field(5)
    for n in (-1, -3):
        with pytest.raises(ZeroDivisionError):
            f.power(0, n)
    assert f.power(0, 0) == 1 and f.power(0, 1) == f.power(0, 4) == 0


def test_bad_arguments_raise():
    # explicit raises, so python -O keeps them
    f = field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        f.order(0)
    with pytest.raises(KeyError):
        f.log(0)
    with pytest.raises(ValueError):
        _poly_divmod((1, 1), (0, 0), 3)  # the zero polynomial
    for poly in ((1,), (1, 2), ()):  # constant, non-monic, empty
        with pytest.raises(ValueError):
            _is_irreducible(poly, 3)

    class NotPrimitive(Field):
        def _find_primitive(self):
            return 1

    with pytest.raises(ValueError, match="not a permutation"):
        NotPrimitive(5)  # the powers of 1 are not a permutation of GF(5)*

    class Zero(Field):
        def _find_primitive(self):
            return 0

    with pytest.raises(ValueError, match="not a permutation"):
        Zero(3)  # 1, 0 has q - 1 distinct terms, but 0 is no power


def _poly_mulmod(a, b, mod, p):
    "reference: a*b mod (mod) over GF(p); coefficient tuples, little-endian"
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    return tuple(_poly_divmod(tuple(res), mod, p)[1])


class _PolyField:
    "reference: GF(p^e) by polynomial products behind a cache, powers by repeated mul"

    def __init__(self, p, e):
        self.p, self.e, self.q = p, e, p**e
        if e == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = next(
                m for m in (_digits(i, p, e) + (1,) for i in range(self.q))
                if _is_irreducible(m, p)
            )
        self._mul_cache = {}
        self.g = next(
            x for x in range(2 if self.q > 2 else 1, self.q) if self.order(x) == self.q - 1
        )
        self._pow = [1]
        for _ in range(self.q - 2):
            self._pow.append(self.mul(self._pow[-1], self.g))
        self._log = {x: j for j, x in enumerate(self._pow)}

    def from_vec(self, cs):
        idx = 0
        for c in reversed(cs):
            idx = idx * self.p + c % self.p
        return idx

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        if self.e == 1:
            return (x + y) % self.p
        a, b = _digits(x, self.p, self.e), _digits(y, self.p, self.e)
        return self.from_vec([s + t for s, t in zip(a, b)])

    def neg(self, x):
        if self.p == 2:
            return x
        if self.e == 1:
            return (-x) % self.p
        return self.from_vec([-c for c in _digits(x, self.p, self.e)])

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        if self.e == 1:
            return (x * y) % self.p
        key = (x, y) if x <= y else (y, x)
        if key not in self._mul_cache:
            prod = _poly_mulmod(_digits(x, self.p, self.e), _digits(y, self.p, self.e),
                                self.modulus, self.p)
            self._mul_cache[key] = self.from_vec(prod)
        return self._mul_cache[key]

    def inv(self, x):
        return self._pow[-self._log[x] % (self.q - 1)]

    def order(self, x):
        r, n = x, 1
        while r != 1:
            r = self.mul(r, x)
            n += 1
        return n

    def squares(self):
        return {self.mul(x, x) for x in range(1, self.q)}


def test_arrays_match_polynomial_reference():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125):
        f, ref = field(q), _PolyField(*prime_power(q))
        assert (f.modulus, f.g) == (ref.modulus, ref.g), q
        els, nz = range(q), range(1, q)
        for op in ("add", "mul"):
            got = [[getattr(f, op)(x, y) for y in els] for x in els]
            assert got == [[getattr(ref, op)(x, y) for y in els] for x in els], (q, op)
        assert [f.neg(x) for x in els] == [ref.neg(x) for x in els], q
        for op in ("inv", "order", "log"):
            assert [getattr(f, op)(x) for x in nz] == [
                ref.inv(x) if op == "inv" else ref.order(x) if op == "order" else ref._log[x]
                for x in nz
            ], (q, op)
        for x in els:
            want = [1]  # x^n by repeated multiplication, past n = q - 1 to wrap round
            for _ in range(q + 1):
                want.append(ref.mul(want[-1], x))
            assert [f.power(x, n) for n in range(q + 2)] == want, (q, x)
        assert f.squares() == ref.squares(), q
        assert f.powers().tolist() == ref._pow, q
    rng = random.Random(2500)
    for q in (169, 243, 343, 529, 729, 961, 2209):
        f, ref = field(q), _PolyField(*prime_power(q))
        assert (f.modulus, f.g) == (ref.modulus, ref.g), q
        assert [f.log(x) for x in range(1, q)] == [ref._log[x] for x in range(1, q)], q
        assert f.squares() == ref.squares(), q
        for _ in range(2000):
            x, y = rng.randrange(q), rng.randrange(q)
            assert (f.add(x, y), f.mul(x, y), f.neg(x)) == (
                ref.add(x, y), ref.mul(x, y), ref.neg(x)
            ), (q, x, y)


def test_whole_tables_match_scalar_methods():
    for q in (2, 4, 9, 25, 27, 32):
        f = field(q)
        assert f.mul_table().tolist() == [[f.mul(x, y) for y in range(q)] for x in range(q)]
        assert f.sub_table().tolist() == [[f.sub(x, y) for y in range(q)] for x in range(q)]
        assert f.mul_table().dtype == np.uint8
    with pytest.raises(ValueError):
        field(9).powers()[0] = 2  # read-only


def test_field_encoding_is_read_only_in_fields():
    # only fields knows the digit encoding: no other module names to_vec,
    # from_vec or one of the arrays a Field keeps
    arrays = {k for k, v in vars(field(9)).items() if isinstance(v, np.ndarray)}
    banned = {"to_vec", "from_vec"} | arrays
    pkg = Path(rank3etf.__file__).resolve().parent
    found = [
        (path.name, node.lineno)
        for path in sorted(pkg.glob("*.py"))
        if path.name != "fields.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in banned
        or isinstance(node, ast.Attribute) and node.attr in banned
        or isinstance(node, ast.alias) and node.name in banned
    ]
    assert found == []
