"""
Exact scalars a + b*sqrt(D) with rational a, b and a fixed square-free D >= 0.

Every eigenvalue, Gram entry and frame coordinate in this package lives in a
real quadratic extension Q(sqrt(D)) of the rationals: integral spectra fold to
D = 0, conference-graph spectra need D = q, and the 1/sqrt(N) frame scalings
need the square-free part of N.  Arithmetic is closed as long as the two
operands agree on D (a rational operand, D = 0, is compatible with anything).

Values are canonical: b = 0 forces D = 0, and D = 1 folds sqrt(1) into the
rational part, so equality is plain structural equality on (a, b, D).
"""

import re
from fractions import Fraction


def squarefree_part(n):
    "largest square-free d with n = m*m*d; n must be a positive integer"
    if n <= 0:
        raise ValueError("squarefree_part needs a positive integer, not %r" % (n,))
    d, m, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                d *= p
            m *= p ** (e // 2)
        p += 1 if p == 2 else 2
    return d * n, m  # leftover n is prime or 1, always square-free


def _issquarefree(n):
    return n >= 0 and (n < 2 or squarefree_part(n)[0] == n)


_RAT = r"(-?\d+)(?:/(\d+))?"
_SCALAR_RE = re.compile(r"^%s(?:\+%s\*sqrt\((\d+)\))?$" % (_RAT, _RAT))


class QuadExt:
    "immutable exact scalar a + b*sqrt(D)"

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=0):
        a = Fraction(a)
        b = Fraction(b)
        if D == 1:
            a, b, D = a + b, Fraction(0), 0
        if b == 0:
            D = 0
        if not _issquarefree(D):
            raise ValueError("D must be a square-free non-negative integer: %r" % D)
        if D == 0 and b != 0:
            raise ValueError("a non-zero b needs D > 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "D", D)

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x)
        raise TypeError("cannot coerce %r to QuadExt" % (x,))

    def _join(self, other):
        "common D for an arithmetic op, or raise"
        if self.D == other.D:
            return self.D
        if self.D == 0:
            return other.D
        if other.D == 0:
            return self.D
        raise ValueError("incompatible radicals sqrt(%d) vs sqrt(%d)" % (self.D, other.D))

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        other = QuadExt.coerce(other)
        return QuadExt(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        return self + (-QuadExt.coerce(other))

    def __rsub__(self, other):
        return QuadExt.coerce(other) + (-self)

    def __mul__(self, other):
        other = QuadExt.coerce(other)
        D = self._join(other)
        return QuadExt(
            self.a * other.a + self.b * other.b * D,
            self.a * other.b + self.b * other.a,
            D,
        )

    __rmul__ = __mul__

    def inverse(self):
        "multiplicative inverse; x * x.inverse() == 1 exactly"
        nrm = self.a * self.a - self.b * self.b * self.D
        if nrm == 0:
            raise ZeroDivisionError("zero has no inverse")
        return QuadExt(self.a / nrm, -self.b / nrm, self.D)

    def __truediv__(self, other):
        return self * QuadExt.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadExt.coerce(other) * self.inverse()

    def sq(self):
        return self * self

    # -- order and equality ------------------------------------------------

    def sign(self):
        "-1, 0 or +1 as a real number; exact"
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare |a| with |b|*sqrt(D) via squares
        t = a * a - b * b * self.D
        if t == 0:
            return 0  # impossible for square-free D > 1, kept for safety
        big_is_a = t > 0
        return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        try:
            other = QuadExt.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.D == other.D

    def __hash__(self):
        return hash((self.a, self.b, self.D))

    def __lt__(self, other):
        return (self - QuadExt.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadExt.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadExt.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadExt.coerce(other)).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b != 0:
            raise ValueError("irrational value %s" % self)
        return self.a

    # -- serialization -----------------------------------------------------

    def serialize(self):
        "canonical string, e.g. '15/1' or '0/1+-1/5*sqrt(5)'; bit-exact round-trip"
        s = "%d/%d" % (self.a.numerator, self.a.denominator)
        if self.b:
            s += "+%d/%d*sqrt(%d)" % (self.b.numerator, self.b.denominator, self.D)
        return s

    @staticmethod
    def parse(s):
        m = _SCALAR_RE.match(s.strip())
        if not m:
            raise ValueError("bad scalar string %r" % s)
        an, ad, bn, bd, D = m.groups()
        a = Fraction(int(an), int(ad or 1))
        if bn is None:
            return QuadExt(a)
        return QuadExt(a, Fraction(int(bn), int(bd or 1)), int(D))

    def __repr__(self):
        if self.b == 0:
            return "QuadExt(%s)" % (self.a,)
        return "QuadExt(%s, %s, %d)" % (self.a, self.b, self.D)

    def __str__(self):
        return self.serialize()


ZERO = QuadExt(0)
ONE = QuadExt(1)


def sqrt_int(n):
    "exact sqrt(n) of a positive integer as a QuadExt"
    d, m = squarefree_part(n)
    if m * m * d != n:
        raise ValueError("squarefree_part(%d) gave %d^2 * %d" % (n, m, d))
    if d == 1:
        return QuadExt(m)
    return QuadExt(0, m, d)
