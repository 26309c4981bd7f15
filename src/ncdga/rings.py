"""Exact scalar rings: the integers, the rationals and prime fields.

Scalars are stored as plain ``int`` (Z and Z/p, the latter reduced into
[0, p)).  Over Q a scalar is canonical: an ``int`` when its value is
integral and a lowest-terms ``fractions.Fraction`` only otherwise.  The
coefficients of differentials, augmentations and eliminations are mostly
small integers, and an ``int`` product costs a small fraction of a
``Fraction`` one; ints and Fractions of equal value compare, hash and
print alike, so the form never shows.  All arithmetic goes through the
owning :class:`Ring` so nothing ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import NcdgaError


# Miller-Rabin with these bases is exact below this bound
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _PRIME_BOUND:
        raise NcdgaError(f"moduli of {_PRIME_BOUND} and above are not supported, got {n}")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a witnesses compositeness unless a^d = 1 or a^(2^r d) = -1 for some r < s
    return not any(
        pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s))
        for a in _PRIME_BASES
    )


# -- rational arithmetic ----------------------------------------------------
#
# Fraction's operators dispatch on the operand types and normalise their
# result a second time in Fraction.__new__.  These compute the lowest-terms
# numerator and denominator with math.gcd (the formulas of the fractions
# module) and build the result from its two slots.  Operands are canonical
# scalars, ints and Fractions with denominator at least 2, and at least one
# of the two is a Fraction: the Ring methods keep int operands to themselves.


def _ratio(n: int, d: int):
    """The canonical scalar n/d, for n/d in lowest terms with d > 0."""
    if d == 1:
        return n
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _q_sum(na: int, da: int, nb: int, db: int):
    """na/da + nb/db for two Fractions."""
    g = gcd(da, db)
    if g == 1:
        return _ratio(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _ratio(t, s * db)
    return _ratio(t // g2, s * (db // g2))


def _q_add(a, b):
    # an int plus a Fraction n/d is (a d + n)/d, already in lowest terms
    if type(a) is int:
        return _ratio(a * b._denominator + b._numerator, b._denominator)
    if type(b) is int:
        return _ratio(a._numerator + b * a._denominator, a._denominator)
    return _q_sum(a._numerator, a._denominator, b._numerator, b._denominator)


def _q_sub(a, b):
    if type(a) is int:
        return _ratio(a * b._denominator - b._numerator, b._denominator)
    if type(b) is int:
        return _ratio(a._numerator - b * a._denominator, a._denominator)
    return _q_sum(a._numerator, a._denominator, -b._numerator, b._denominator)


def _q_mul(a, b):
    if type(a) is int:
        g = gcd(a, b._denominator)
        return _ratio(a // g * b._numerator, b._denominator // g)
    if type(b) is int:
        g = gcd(b, a._denominator)
        return _ratio(b // g * a._numerator, a._denominator // g)
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g1, g2 = gcd(na, db), gcd(nb, da)
    return _ratio((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _q_inv(a):
    if type(a) is int:
        return _ratio(1, a) if a > 0 else _ratio(-1, -a)
    n, d = a._numerator, a._denominator
    return _ratio(d, n) if n > 0 else _ratio(-d, -n)


@dataclass(frozen=True)
class Ring:
    kind: str  # "Z", "Q" or "Zp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zp"):
            raise NcdgaError(f"unknown scalar ring kind {self.kind!r}")
        if self.kind == "Zp" and (self.p is None or not _is_prime(self.p)):
            raise NcdgaError(f"Z/{self.p} is not a prime field")

    @property
    def name(self) -> str:
        return f"Z{self.p}" if self.kind == "Zp" else self.kind

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "Zp")

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Zp" else 0

    def coerce(self, value):
        if type(value) is int:  # most scalars; an isinstance test of Fraction is an ABC check
            return value % self.p if self.kind == "Zp" else value
        if self.kind == "Zp":
            if isinstance(value, Fraction):
                return self.div(value.numerator % self.p, value.denominator % self.p)
            return int(value) % self.p
        if self.kind == "Q":
            if type(value) is not Fraction:
                value = Fraction(value)  # strings, floats, other rationals
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise NcdgaError(f"{value} is not an integer")
            return value.numerator
        return int(value)

    # cached: slot products ask for one once per placement, so it is
    # read off the instance rather than coerced each time
    @cached_property
    def zero(self):
        return self.coerce(0)

    @cached_property
    def one(self):
        return self.coerce(1)

    def is_zero(self, value) -> bool:
        return value == 0

    # Over Q, add, sub, mul and inv return canonical scalars (see _ratio);
    # over Z every scalar is an int, which the same functions pass through.

    def add(self, a, b):
        if self.kind == "Zp":
            return (a + b) % self.p
        if type(a) is int and type(b) is int:
            return a + b
        return _q_add(a, b)

    def add_term(self, terms: dict, key, value) -> None:
        """Add value at key of a sparse term map, in place; a key whose
        sum is zero is dropped, so term maps never hold a zero."""
        old = terms.get(key)
        total = value if old is None else self.add(old, value)
        if not total:
            terms.pop(key, None)
        else:
            terms[key] = total

    def sub(self, a, b):
        if self.kind == "Zp":
            return (a - b) % self.p
        if type(a) is int and type(b) is int:
            return a - b
        return _q_sub(a, b)

    def neg(self, a):
        return (-a) % self.p if self.kind == "Zp" else -a

    def mul(self, a, b):
        if self.kind == "Zp":
            return (a * b) % self.p
        if type(a) is int and type(b) is int:
            return a * b
        return _q_mul(a, b)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Zp":
            return pow(a, -1, self.p)
        if self.kind == "Q":
            return _q_inv(a)
        if a in (1, -1):
            return a
        raise NcdgaError(f"{a} is not invertible in Z")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def scalar_str(self, value) -> str:
        return str(value)

    def split_sign(self, value):
        """(is_negative, magnitude) for printing; Z/p values never negate."""
        if self.kind != "Zp" and value < 0:
            return True, -value
        return False, value

    @staticmethod
    def from_name(name: str) -> "Ring":
        if name == "Z":
            return Z
        if name == "Q":
            return Q
        # ASCII digits only, as for integer literals: str.isdigit also
        # accepts superscripts and other scripts' digits
        if name.startswith("Z") and name[1:].isascii() and name[1:].isdigit():
            try:
                p = int(name[1:])
            except ValueError:  # past the interpreter's limit on digits converted by int()
                raise NcdgaError(f"modulus of {len(name) - 1} digits is too long") from None
            return Ring("Zp", p)
        raise NcdgaError(f"unknown ring {name!r}")


Z = Ring("Z")
Q = Ring("Q")
Z2 = Ring("Zp", 2)


def Zp(p: int) -> Ring:
    return Ring("Zp", p)
