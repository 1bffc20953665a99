"""
Finite fields GF(p^e) on integer-indexed elements: field axioms on random
triples, Frobenius additivity, inverse and discrete-log tables, square
counts, the canonical-modulus factory, and explicit raises on bad
arguments.
"""

import random

import pytest

from rank3etf.fields import Field, _is_irreducible, _poly_divmod, field, is_prime


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


def test_bad_arguments_raise():
    # explicit raises, so python -O keeps them
    f = field(9)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        f.order(0)
    with pytest.raises(ValueError):
        _poly_divmod((1, 1), (0, 0), 3)  # the zero polynomial
    for poly in ((1,), (1, 2), ()):  # constant, non-monic, empty
        with pytest.raises(ValueError):
            _is_irreducible(poly, 3)

    class NotPrimitive(Field):
        def _find_primitive(self):
            return 1

    with pytest.raises(ValueError):
        NotPrimitive(5)  # the powers of 1 are not a permutation of GF(5)*
