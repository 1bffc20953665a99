"""
Small finite fields GF(p^e) with integer-indexed elements.

An element is the index sum(c_i * p^i) of its coefficient vector (c_0 the
constant term) in GF(p)[x] / (modulus).  The modulus is the first monic
irreducible polynomial of degree e in index order on its non-leading
coefficients, so field tables are reproducible; GF(4) comes out as
x^2 + x + 1.  A primitive element (smallest index generating the
multiplicative group) is found at construction and powers/logs are tabled,
making mul/inv O(1); these fields never exceed a few thousand elements.
"""

from functools import lru_cache

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


def _poly_mulmod(a, b, mod, p):
    "a*b mod (mod) over GF(p); coefficient tuples, little-endian"
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    return tuple(_poly_divmod(tuple(res), mod, p)[1])


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
        self._mul_cache = {}
        self.g = self._find_primitive()
        self._pow = self._power_table()
        self._log = {x: j for j, x in enumerate(self._pow)}

    def _find_modulus(self):
        for idx in range(self.q):
            cand = _digits(idx, self.p, self.e) + (1,)
            if _is_irreducible(cand, self.p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # impossible

    # -- element arithmetic --------------------------------------------------

    def to_vec(self, x):
        return _digits(x, self.p, self.e)

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
        return self.from_vec([a + b for a, b in zip(self.to_vec(x), self.to_vec(y))])

    def neg(self, x):
        if self.p == 2:
            return x
        if self.e == 1:
            return (-x) % self.p
        return self.from_vec([-a for a in self.to_vec(x)])

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        if self.e == 1:
            return (x * y) % self.p
        key = (x, y) if x <= y else (y, x)
        v = self._mul_cache.get(key)
        if v is None:
            v = self.from_vec(
                _poly_mulmod(self.to_vec(x), self.to_vec(y), self.modulus, self.p) + (0,) * self.e
            )
            self._mul_cache[key] = v
        return v

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._pow[(self.q - 1 - self._log[x]) % (self.q - 1)]

    def power(self, x, n):
        r = 1
        for _ in range(n):
            r = self.mul(r, x)
        return r

    def order(self, x):
        if x == 0:
            raise ValueError("zero has no multiplicative order")
        r, n = x, 1
        while r != 1:
            r = self.mul(r, x)
            n += 1
        return n

    def _find_primitive(self):
        for x in range(2 if self.q > 2 else 1, self.q):
            if self.order(x) == self.q - 1:
                return x
        raise AssertionError("no primitive element")  # impossible

    def _power_table(self):
        pw = [1]
        for _ in range(self.q - 2):
            pw.append(self.mul(pw[-1], self.g))
        if len(set(pw)) != self.q - 1:
            raise ValueError("the powers of the primitive element are not a permutation")
        return pw

    def log(self, x):
        return self._log[x]

    def squares(self):
        "the set of nonzero squares"
        return {self.mul(x, x) for x in range(1, self.q)}

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return "GF(%d)" % self.q

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))


@lru_cache(maxsize=None)
def field(q):
    "GF(q) with the canonical modulus, cached"
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
    return Field(p, e)
