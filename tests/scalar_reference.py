"""
Scalar references for the whole-array paths of rank3etf.fields and
rank3etf.quadspaces.  They share no code with the package: GF(p^e) is
polynomial arithmetic on coefficient tuples (products reduced modulo the
modulus one at a time, powers by repeated multiplication, the modulus found
by trial division), and a quadratic form is evaluated one vector at a time
on top of it.  Elements and vectors use the package's encodings, as the
tests compare whole tables entry by entry: an element is the index
sum(c_i * p^i) of its coefficient vector (c_0 the constant term), and a
vector packs coordinate j into bits e*j .. e*j + e - 1 of an integer.
"""


def digits(idx, p, e):
    "the e coefficients of index idx, constant term first"
    return tuple(idx // p**i % p for i in range(e))


def from_digits(cs, p):
    "the index of the coefficient tuple cs, constant term first"
    return sum(c % p * p**i for i, c in enumerate(cs))


def _poly_mod(a, m, p):
    "a mod m over GF(p), for a monic m; coefficient tuples, constant term first"
    a = list(a)
    for k in range(len(a) - len(m), -1, -1):
        c = a[k + len(m) - 1]
        for i, y in enumerate(m):
            a[k + i] = (a[k + i] - c * y) % p
    return tuple(a[: len(m) - 1])


def _is_irreducible(poly, p):
    "no monic factor of degree 1 .. deg/2 leaves remainder zero"
    deg = len(poly) - 1
    return not any(
        not any(_poly_mod(poly, digits(i, p, d) + (1,), p))
        for d in range(1, deg // 2 + 1)
        for i in range(p**d)
    )


class PolyField:
    "GF(p^e) by polynomial products behind a cache, powers by repeated mul"

    def __init__(self, p, e):
        self.p, self.e, self.q = p, e, p**e
        if e == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = next(
                m for m in (digits(i, p, e) + (1,) for i in range(self.q))
                if _is_irreducible(m, p)
            )
        self._mul_cache = {}
        self.g = next(
            x for x in range(2 if self.q > 2 else 1, self.q) if self.order(x) == self.q - 1
        )
        self.pow = [1]
        for _ in range(self.q - 2):
            self.pow.append(self.mul(self.pow[-1], self.g))
        self.log = {x: j for j, x in enumerate(self.pow)}

    def add(self, x, y):
        if self.p == 2:
            return x ^ y  # the digits are bits, added without carry
        a, b = digits(x, self.p, self.e), digits(y, self.p, self.e)
        return from_digits([s + t for s, t in zip(a, b)], self.p)

    def neg(self, x):
        return from_digits([-c for c in digits(x, self.p, self.e)], self.p)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        key = (x, y) if x <= y else (y, x)
        if key not in self._mul_cache:
            a, b = digits(x, self.p, self.e), digits(y, self.p, self.e)
            prod = [0] * (2 * self.e - 1)
            for i, s in enumerate(a):
                for j, t in enumerate(b):
                    prod[i + j] += s * t
            self._mul_cache[key] = from_digits(_poly_mod(prod, self.modulus, self.p), self.p)
        return self._mul_cache[key]

    def inv(self, x):
        return self.pow[-self.log[x] % (self.q - 1)]

    def order(self, x):
        r, n = x, 1
        while r != 1:
            r = self.mul(r, x)
            n += 1
        return n

    def squares(self):
        "the set of nonzero squares"
        return {self.mul(x, x) for x in range(1, self.q)}


def pack(vec, e):
    "the packed index of a vector of field elements, coordinate j at bits e*j"
    return sum(c << e * j for j, c in enumerate(vec))


def unpack(idx, e, dim):
    "the dim coordinates of a packed index"
    return tuple(idx >> e * j & (1 << e) - 1 for j in range(dim))


def q_of(f, coeffs, vec):
    "sum c x_i x_j over the terms {(i, j): c} of a form, in the PolyField f"
    acc = 0
    for (i, j), c in coeffs.items():
        acc = f.add(acc, f.mul(c, f.mul(vec[i], vec[j])))
    return acc
