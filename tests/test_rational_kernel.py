"""``Ring.add``, ``sub``, ``mul`` and ``inv`` over Q against plain
``fractions`` arithmetic.

Over Q the ring computes lowest-terms numerators and denominators with
``math.gcd`` and builds each non-integral result from ``Fraction``'s two
slots without normalising it again.  The result must be the canonical
scalar of the exact value: an ``int`` when it is integral, otherwise a
``Fraction`` whose value, numerator, denominator, hash, printed form and
arithmetic are those of ``Fraction`` itself.  A change to ``Fraction``'s
internals that breaks the slot construction fails here."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import Q

integers = st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30))
# canonical scalars: ints, and Fractions only when not integral
scalars = st.builds(lambda n, d: Q.coerce(Fraction(n, d)), integers, integers.filter(bool))


def assert_canonical(value, expected: Fraction):
    if expected.denominator == 1:
        assert type(value) is int
        assert value == expected.numerator
        return
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert value == expected and hash(value) == hash(expected)
    assert str(value) == str(expected) and repr(value) == repr(expected)
    # a result behaves as a Fraction in further Fraction arithmetic
    assert value + Fraction(1, 3) == expected + Fraction(1, 3)
    assert value * 7 == expected * 7 and -value == -expected and abs(value) == abs(expected)
    assert value < expected + 1 and float(value) == float(expected)


@settings(max_examples=400, deadline=None)
@given(scalars, scalars)
def test_q_arithmetic_matches_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical(Q.add(a, b), fa + fb)
    assert_canonical(Q.sub(a, b), fa - fb)
    assert_canonical(Q.mul(a, b), fa * fb)
    if b:
        assert_canonical(Q.inv(b), 1 / fb)
        assert_canonical(Q.div(a, b), fa / fb)


def test_q_arithmetic_edge_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert_canonical(Q.add(half, -half), Fraction(0))
    assert_canonical(Q.add(half, half), Fraction(1))
    assert_canonical(Q.sub(Fraction(5, 6), third), half)
    assert_canonical(Q.mul(Fraction(2, 3), Fraction(3, 2)), Fraction(1))
    assert_canonical(Q.mul(0, half), Fraction(0))
    assert_canonical(Q.mul(-4, Fraction(3, 8)), Fraction(-3, 2))
    assert_canonical(Q.inv(-3), Fraction(-1, 3))
    assert_canonical(Q.inv(Fraction(-1, 7)), Fraction(-7))
    assert_canonical(Q.inv(Fraction(-2, 7)), Fraction(-7, 2))
    assert_canonical(Q.add(3, Fraction(1, 4)), Fraction(13, 4))
