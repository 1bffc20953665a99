"""
Exact scalars a + b*sqrt(D) with rational a, b and a fixed square-free D >= 0.

Every eigenvalue, Gram entry and frame coordinate in this package lives in a
real quadratic extension Q(sqrt(D)) of the rationals: integral spectra fold to
D = 0, conference-graph spectra need D = q, and the 1/sqrt(N) frame scalings
need the square-free part of N.  Arithmetic is closed as long as the two
operands agree on D (a rational operand, D = 0, is compatible with anything).

A value is stored as (na + nb*sqrt(D)) / den in Python ints, the form of
matrices.ExactMatrix, with den > 0, gcd(na, nb, den) = 1, and D square-free,
not 1, and 0 exactly when nb = 0.  So equality is structural equality on
(na, nb, den, D), and a rational value hashes as its Fraction, like an equal
int or Fraction.  QuadExt(a, b, D) checks D; results of + - * and inverse
take an operand's D, so _make only divides out the gcd and fixes signs.
The parts a and b are handed out as Fractions.
"""

import re
from fractions import Fraction
from math import gcd, lcm


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


_set = object.__setattr__


def _join(d1, d2):
    "the common radical of two operands, 0 for a rational one, or raise"
    if d1 and d2 and d1 != d2:
        raise ValueError("incompatible radicals sqrt(%d) vs sqrt(%d)" % (d1, d2))
    return d1 or d2


def _make(na, nb, den, D):
    """(na + nb*sqrt(D)) / den from ints with den != 0 and D an operand's
    radical (square-free, not 1); puts the value in lowest terms"""
    if den < 0:
        na, nb, den = -na, -nb, -den
    g = gcd(na, nb, den)
    if g > 1:
        na, nb, den = na // g, nb // g, den // g
    x = object.__new__(QuadExt)
    _set(x, "na", na)
    _set(x, "nb", nb)
    _set(x, "den", den)
    _set(x, "D", D if nb else 0)
    return x


class QuadExt:
    "immutable exact scalar (na + nb*sqrt(D)) / den = a + b*sqrt(D)"

    __slots__ = ("na", "nb", "den", "D")

    def __new__(cls, a, b=0, D=0):
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
        den = lcm(a.denominator, b.denominator)
        return _make(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator),
                     den, D)

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    @property
    def a(self):
        return Fraction(self.na, self.den)

    @property
    def b(self):
        return Fraction(self.nb, self.den)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(x.numerator, 0, x.denominator, 0)
        raise TypeError("cannot coerce %r to QuadExt" % (x,))

    # -- ring ops ----------------------------------------------------------

    def __add__(self, other):
        other = QuadExt.coerce(other)
        D = _join(self.D, other.D)
        d, e = self.den, other.den
        if d == e:
            return _make(self.na + other.na, self.nb + other.nb, d, D)
        return _make(self.na * e + other.na * d, self.nb * e + other.nb * d, d * e, D)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.na, -self.nb, self.den, self.D)

    def __sub__(self, other):
        return self + (-QuadExt.coerce(other))

    def __rsub__(self, other):
        return QuadExt.coerce(other) + (-self)

    def __mul__(self, other):
        other = QuadExt.coerce(other)
        D = _join(self.D, other.D)
        a, b, c, d = self.na, self.nb, other.na, other.nb
        return _make(a * c + b * d * D, a * d + b * c, self.den * other.den, D)

    __rmul__ = __mul__

    def inverse(self):
        "multiplicative inverse; x * x.inverse() == 1 exactly"
        a, b = self.na, self.nb
        nrm = a * a - b * b * self.D
        if nrm == 0:
            raise ZeroDivisionError("zero has no inverse")
        return _make(self.den * a, -self.den * b, nrm, self.D)

    def __truediv__(self, other):
        return self * QuadExt.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadExt.coerce(other) * self.inverse()

    def sq(self):
        return self * self

    # -- order and equality ------------------------------------------------

    def sign(self):
        "-1, 0 or +1 as a real number; exact"
        a, b = self.na, self.nb  # den > 0 does not change the sign
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
        return (self.na == other.na and self.nb == other.nb
                and self.den == other.den and self.D == other.D)

    def __hash__(self):
        if not self.nb:  # equal ints and Fractions hash alike
            return hash(Fraction(self.na, self.den))
        return hash((self.na, self.nb, self.den, self.D))

    def __lt__(self, other):
        return (self - QuadExt.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadExt.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadExt.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadExt.coerce(other)).sign() >= 0

    def __bool__(self):
        return self.na != 0 or self.nb != 0

    def is_rational(self):
        return self.nb == 0

    def as_fraction(self):
        if self.nb != 0:
            raise ValueError("irrational value %s" % self)
        return self.a

    # -- serialization -----------------------------------------------------

    def serialize(self):
        "canonical string, e.g. '15/1' or '0/1+-1/5*sqrt(5)'; bit-exact round-trip"
        a = self.a
        s = "%d/%d" % (a.numerator, a.denominator)
        if self.nb:
            b = self.b
            s += "+%d/%d*sqrt(%d)" % (b.numerator, b.denominator, self.D)
        return s

    @staticmethod
    def parse(s):
        m = _SCALAR_RE.match(s.strip())
        if not m or any(d is not None and not int(d) for d in m.group(2, 4)):
            raise ValueError("bad scalar string %r" % s)
        an, ad, bn, bd, D = m.groups()
        a = Fraction(int(an), int(ad or 1))
        if bn is None:
            return QuadExt(a)
        return QuadExt(a, Fraction(int(bn), int(bd or 1)), int(D))

    def __reduce__(self):
        "copy and pickle through _make, since __setattr__ is blocked"
        return (_make, (self.na, self.nb, self.den, self.D))

    def __repr__(self):
        if self.nb == 0:
            return "QuadExt(%s)" % (self.a,)
        return "QuadExt(%s, %s, %d)" % (self.a, self.b, self.D)

    def __str__(self):
        return self.serialize()


def sqrt_int(n):
    "exact sqrt(n) of a positive integer as a QuadExt"
    d, m = squarefree_part(n)
    if m * m * d != n:
        raise ValueError("squarefree_part(%d) gave %d^2 * %d" % (n, m, d))
    if d == 1:
        return QuadExt(m)
    return QuadExt(0, m, d)
