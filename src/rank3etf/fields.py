"""
Small finite fields GF(p^e) with integer-indexed elements.

An element is the index sum(c_i * p^i) of its coefficient vector (c_0 the
constant term) in GF(p)[x] / (modulus).  The modulus is the first monic
irreducible polynomial of degree e in index order on its non-leading
coefficients, so field tables are reproducible; GF(4) comes out as
x^2 + x + 1.  Only this module knows that encoding: a Field builds three
read-only arrays once, the digits of every element, the powers of the
primitive element g (the smallest index generating GF(q)*) and their logs.
Multiplying by c is GF(p)-linear on the digits, so c x for every x is one
sum over the digits of c of the arrays x X^t, each a shift of the last
reduced by the modulus; the orbit of 1 under it both tests c for
primitivity and is the power table.  The builders read whole tables from
it: powers, mul_table and sub_table; these fields have a few thousand
elements.
"""

from functools import lru_cache

import numpy as np

_MAX_EXT_DEGREE = 6


def is_prime(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def _digits(idx, p, e):
    out = []
    for _ in range(e):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_divmod(a, b, p):
    b = _poly_trim(tuple(b))
    if not b:
        raise ValueError("division by the zero polynomial")
    a = list(_poly_trim(tuple(a)))
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = (a[-1] * binv) % p
        k = len(a) - 1 - db
        quo[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
        a = list(_poly_trim(tuple(a)))
    return tuple(quo), tuple(a)


def _is_irreducible(poly, p):
    "trial division by all monic polynomials of degree <= deg/2"
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        raise ValueError("the modulus must be monic of degree at least 1")
    if poly[0] == 0:
        return deg == 1  # divisible by x
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = _digits(idx, p, d) + (1,)
            if not _poly_divmod(poly, div, p)[1]:
                return False
    return True


class Field:
    "GF(p^e); immutable, elements are indices 0..q-1"

    def __init__(self, p, e=1, modulus=None):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if not 1 <= e <= _MAX_EXT_DEGREE:
            raise ValueError(
                "GF(%d^%d): the exponent must be between 1 and %d" % (p, e, _MAX_EXT_DEGREE)
            )
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = (0, 1)  # the polynomial x, unused
        else:
            if modulus is None:
                modulus = self._find_modulus()
            modulus = tuple(modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("the modulus must be monic of degree %d" % e)
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
            self.modulus = modulus
        self._vecs = np.arange(self.q)[:, None] // p ** np.arange(e) % p
        self.g = self._find_primitive()
        pw = self._powers(self.g, self._shifts())
        if set(pw) != set(range(1, self.q)):
            raise ValueError("the powers of the primitive element are not a permutation")
        self._pow = np.array(pw, dtype=np.min_scalar_type(self.q - 1))
        self._log = np.zeros(self.q, dtype=np.int64)
        self._log[self._pow] = np.arange(self.q - 1)
        for a in (self._vecs, self._pow, self._log):
            a.flags.writeable = False

    def _find_modulus(self):
        for idx in range(self.q):
            cand = _digits(idx, self.p, self.e) + (1,)
            if _is_irreducible(cand, self.p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # impossible

    def _shifts(self):
        "the digits of x X^t for every x, as an (e, q, e) array"
        out = [self._vecs]
        for _ in range(self.e - 1):
            # x X has digits 0..e, and subtracting digit e times the modulus clears it
            up = np.pad(out[-1], ((0, 0), (1, 0)))
            out.append((up - up[:, -1:] * self.modulus)[:, :-1] % self.p)
        return np.array(out)

    def _powers(self, c, shifts):
        "1, c, c^2, ...: the orbit of 1 under x -> c x, up to its return to 1 or q - 1 terms"
        cx = np.tensordot(self._vecs[c], shifts, 1) % self.p  # sum_t c_t (x X^t)
        times, pw = (cx @ self.p ** np.arange(self.e)).tolist(), [1]
        while len(pw) < self.q - 1 and times[pw[-1]] != 1:
            pw.append(times[pw[-1]])
        return pw

    def _find_primitive(self):
        shifts = self._shifts()
        for c in range(2 if self.q > 2 else 1, self.q):
            if len(self._powers(c, shifts)) == self.q - 1:
                return c
        raise AssertionError("no primitive element")  # impossible

    def powers(self):
        "the read-only array of g^j, j = 0..q-2, in the narrowest dtype holding q - 1"
        return self._pow

    def mul_table(self):
        "the q x q array of products x y, in the dtype of powers()"
        t = self._pow[(self._log[:, None] + self._log) % (self.q - 1)]
        t[0] = t[:, 0] = 0
        return t

    def sub_table(self):
        "the q x q array of the indices of x - y, formed digit by digit in a narrow dtype"
        diff = np.zeros((self.q, self.q), dtype=np.min_scalar_type(max(self.q, 2 * self.p)))
        for d in self._vecs.T[::-1].astype(diff.dtype):  # the leading digit first
            diff = diff * self.p + (d[:, None] + (self.p - d)) % self.p
        return diff

    def __repr__(self):
        return "GF(%d)" % self.q

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))


def prime_power(q):
    "(p, e) with q = p^e, by trial division; ValueError if q is not a prime power"
    p = 2
    while p * p <= q and q % p:
        p += 1 if p == 2 else 2
    if p * p > q:
        p = q  # no small factor, q itself is prime
    e = 0
    n = q
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    if n != 1 or e == 0:
        raise ValueError("%d is not a prime power" % q)
    return p, e


@lru_cache(maxsize=None)
def field(q):
    "GF(q) with the canonical modulus, cached"
    return Field(*prime_power(q))
