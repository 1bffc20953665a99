"""
Finite fields GF(p^e) on integer-indexed elements: field axioms on random
triples of the multiplication and difference tables, Frobenius additivity,
the power table, square counts, the canonical-modulus factory, and explicit
raises on bad arguments.  The tables and powers of each Field are checked
against the polynomial reference of scalar_reference (products reduced
modulo the modulus one at a time, powers by repeated multiplication), which
shares no code with the fields module, and an AST scan keeps the element
encoding inside the fields module.
"""

import ast
from pathlib import Path
import random

import numpy as np
import pytest

import rank3etf
from rank3etf.fields import Field, _is_irreducible, _poly_divmod, field, is_prime, prime_power
from scalar_reference import PolyField, digits, from_digits


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


def _add_table(f):
    "x + y as x - (0 - y), read off the difference table"
    sub = f.sub_table()
    return sub[:, sub[0]]


def test_field_axioms_random():
    rng = random.Random(55)
    for q in (4, 8, 9, 25, 27, 49):
        f = field(q)
        add, mul, sub = _add_table(f), f.mul_table(), f.sub_table()
        for _ in range(60):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert add[x, y] == add[y, x]
            assert mul[x, y] == mul[y, x]
            assert add[add[x, y], z] == add[x, add[y, z]]
            assert mul[mul[x, y], z] == mul[x, mul[y, z]]
            assert mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]
            assert add[x, sub[0, x]] == 0 and sub[x, x] == 0
            assert add[sub[x, y], y] == x
            if x:
                assert 1 in mul[x]  # x has an inverse


def test_frobenius_is_additive():
    for q in (4, 8, 9, 27):
        f = field(q)
        add, mul, els = _add_table(f), f.mul_table(), np.arange(q)
        frob = els
        for _ in range(f.p - 1):
            frob = mul[frob, els]  # x^p by repeated multiplication
        assert np.array_equal(frob[add], add[frob[:, None], frob])


def test_primitive_element_and_logs():
    for q in (4, 5, 9, 13, 25, 49):
        f = field(q)
        pw = f.powers().tolist()
        assert sorted(pw) == list(range(1, q))  # g has order q - 1
        assert pw[0] == 1 and pw[1] == f.g
        assert f.mul_table()[pw[:-1], f.g].tolist() == pw[1:]  # g^(j+1) = g^j g


def test_squares():
    for q in (5, 9, 13, 25, 49):
        f = field(q)
        sq = set(f.mul_table().diagonal()[1:].tolist())
        assert sq == set(f.powers()[::2].tolist())  # the even powers of g
        assert len(sq) == (q - 1) // 2  # odd characteristic
        assert (f.sub_table()[0, 1] in sq) == (q % 4 == 1)  # -1 = 0 - 1
    for q in (4, 8):  # squaring permutes GF(2^e)*
        assert sorted(field(q).mul_table().diagonal()[1:].tolist()) == list(range(1, q))


def test_vec_round_trip():
    # an element is the index of its digits, the constant digit first
    for x in range(27):
        assert from_digits(digits(x, 3, 3), 3) == x
    assert digits(5, 3, 3) == (2, 1, 0)
    sub = field(27).sub_table()
    assert sub[5, 2] == 3 and sub[5, 3] == 2  # 5 = 2 + X, and X has index 3


def test_explicit_gf4_tables():
    f = field(4)  # elements 0, 1, w = 2, w + 1 = 3 with w^2 = w + 1
    mul = f.mul_table()
    assert mul[2, 2] == 3
    assert mul[2, 3] == 1  # so 3 is the inverse of 2
    assert f.sub_table()[2, 3] == 1  # addition is subtraction in characteristic 2


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        Field(4)  # p must be prime
    with pytest.raises(ValueError):
        Field(3, 8)  # past the largest extension degree


def test_zero_has_no_negative_power():
    # zero is no power of g, so it has no log and no inverse, and 0 x = 0
    for q in (2, 5, 9, 16):
        f = field(q)
        assert 0 not in f.powers()
        assert not f.mul_table()[0].any() and not f.mul_table()[:, 0].any()


def test_bad_arguments_raise():
    # explicit raises, so python -O keeps them
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


def test_arrays_match_polynomial_reference():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125):
        f, ref = field(q), PolyField(*prime_power(q))
        assert (f.modulus, f.g) == (ref.modulus, ref.g), q
        assert f.powers().tolist() == ref.pow, q
        els = range(q)
        assert f.mul_table().tolist() == [[ref.mul(x, y) for y in els] for x in els], q
        assert f.sub_table().tolist() == [[ref.sub(x, y) for y in els] for x in els], q
    rng = random.Random(2500)
    for q in (169, 243, 343, 529, 729, 961, 2209):
        f, ref = field(q), PolyField(*prime_power(q))
        assert (f.modulus, f.g) == (ref.modulus, ref.g), q
        assert f.powers().tolist() == ref.pow, q
        mul, sub = f.mul_table(), f.sub_table()
        for _ in range(2000):
            x, y = rng.randrange(q), rng.randrange(q)
            assert (mul[x, y], sub[x, y]) == (ref.mul(x, y), ref.sub(x, y)), (q, x, y)


def test_whole_tables_match_scalar_methods():
    for q in (2, 4, 9, 25, 27, 32):
        f, ref = field(q), PolyField(*prime_power(q))
        nz = range(1, q)
        # each nonzero x has the reference inverse, and 1 / x = g^(-log x)
        assert [f.mul_table()[x].tolist().index(1) for x in nz] == [ref.inv(x) for x in nz]
        assert set(f.mul_table().diagonal()[1:].tolist()) == ref.squares()
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
