"""Scalar rings, coefficient algebras, star involutions, trace pairings."""

import itertools
import time

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    AlgebraElement,
    CoefficientMorphism,
    FreeAlgebra,
    GroupRing,
    MatrixAlgebra,
    Q,
    SplitAlgebra,
    TensorElement,
    Z,
    Z2,
    Zp,
    check_hermitian_axioms,
    parse_dga,
    pairing_t,
    try_word_inverse,
)
from ncdga.errors import (
    AlgebraMismatchError,
    MorphismIllDefinedError,
    NcdgaError,
    NotHermitianError,
)


def test_ring_arithmetic_is_exact():
    assert Z2.add(1, 1) == 0
    assert Zp(5).inv(3) == 2
    assert Q.coerce("1/3") + Q.coerce(Fraction(2, 3)) == 1
    assert Q.div(1, 3) == Fraction(1, 3)
    assert Z.coerce(7) == 7
    with pytest.raises(NcdgaError):
        Zp(6)
    with pytest.raises(NcdgaError):
        Z.inv(2)


def _canonical(value) -> bool:
    """An int when integral, a lowest-terms Fraction otherwise."""
    return type(value) is int if Fraction(value).denominator == 1 else type(value) is Fraction


# canonical Q scalars, small enough to keep the test fast
_q_scalars = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)).map(Q.coerce)


@settings(max_examples=50, deadline=None)
@given(_q_scalars, _q_scalars)
def test_q_arithmetic_keeps_scalars_canonical(a, b):
    """Over Q every operation agrees with Fraction arithmetic and returns
    an int exactly when its value is integral."""
    assert _canonical(a) and _canonical(b)
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (Q.add(a, b), fa + fb),
        (Q.sub(a, b), fa - fb),
        (Q.mul(a, b), fa * fb),
        (Q.neg(a), -fa),
    ]
    if fb:
        results += [(Q.div(a, b), fa / fb), (Q.inv(b), 1 / fb)]
    for got, expected in results:
        assert got == expected and _canonical(got)
    terms = {"w": a}
    Q.add_term(terms, "w", b)
    assert terms == ({} if fa + fb == 0 else {"w": fa + fb})
    assert all(_canonical(c) for c in terms.values())


def test_q_coerce_gives_canonical_scalars():
    for value in (2, Fraction(4, 2), "2", 2.0):
        assert type(Q.coerce(value)) is int and Q.coerce(value) == 2
    third = Q.coerce("1/3")
    assert type(third) is Fraction and third == Fraction(1, 3)
    assert Q.coerce(third) is third
    assert (type(Q.zero), type(Q.one)) == (int, int)
    assert (Q.zero, Q.one) == (0, 1)


def test_parsed_q_coefficients_are_canonical():
    dga = parse_dga(
        "ring Q\nalgebra free\ngrading mod 0\ngen a deg 1\ngen x deg 0\ngen y deg 0\n"
        "d a = 2*x + 1/2*y\n"
    )
    coeffs = {tw.gens: c for tw, c in dga.d_of_generator("a").terms.items()}
    assert coeffs == {("x",): 2, ("y",): Fraction(1, 2)}
    assert type(coeffs[("x",)]) is int and type(coeffs[("y",)]) is Fraction


def _is_prime_field(p):
    try:
        Zp(p)
    except NcdgaError:
        return False
    return True


def test_prime_moduli_up_to_the_miller_rabin_bound():
    """Deterministic Miller-Rabin decides primality below its exactness
    bound; larger moduli are refused at once instead of trial-divided."""
    by_trial_division = [n for n in range(2, 3000) if all(n % d for d in range(2, n))]
    assert [n for n in range(3000) if _is_prime_field(n)] == by_trial_division
    start = time.perf_counter()
    largest = 3317044064679887385961813  # the largest prime below the bound
    assert Zp(largest).inv(2) * 2 % largest == 1
    # a Carmichael number and strong pseudoprimes to the first 1, 4 and 9 prime bases
    for composite in (561, 2047, 3215031751, 3825123056546413051):
        with pytest.raises(NcdgaError, match="not a prime field"):
            Zp(composite)
    with pytest.raises(NcdgaError, match="3317044064679887385961981 and above"):
        Zp(2**127 - 1)
    assert time.perf_counter() - start < 0.5


def test_addition_examples():
    m2 = MatrixAlgebra(2, Z2)
    e11 = m2.element((1, 1))
    assert (e11 + e11).is_zero()

    free = FreeAlgebra(("g1", "g2"), Z2)
    g1, g2 = free.element((1,)), free.element((2,))
    assert sorted((g1 + g2).terms) == [(1,), (2,)]

    rationals = FreeAlgebra((), Q)
    half = rationals.unit().scale(Fraction(1, 2))
    assert half + half == rationals.unit()


def test_multiplication_examples():
    m2 = MatrixAlgebra(2, Z2)
    assert m2.element((1, 2)) * m2.element((2, 1)) == m2.element((1, 1))
    assert (m2.element((1, 2)) * m2.element((1, 2))).is_zero()

    group = GroupRing(2, Z2)
    g = group.element((1,))
    ginv = group.element((-1,))
    assert g * ginv == group.unit()

    free = FreeAlgebra(("g1", "g2"), Z2)
    g1, g2 = free.element((1,)), free.element((2,))
    assert g2 * g1 == free.element((2, 1))
    assert g2 * g1 != g1 * g2


def test_mixed_algebras_rejected():
    free = FreeAlgebra(("g1",), Z2)
    group = GroupRing(1, Z2)
    with pytest.raises(AlgebraMismatchError):
        free.element((1,)) + group.element((1,))


def test_algebra_and_tensor_elements_do_not_mix():
    """A sum of the two combination types would key one dict by basis
    words and tensor words, so it is rejected either way round."""
    free = FreeAlgebra(("g1",), Q)
    one = free.unit()
    tensor = TensorElement.from_algebra(free.element((1,)))
    for a, b in ((one, tensor), (tensor, one)):
        with pytest.raises(AlgebraMismatchError, match=f"{type(a).__name__} vs {type(b).__name__}"):
            a + b
        with pytest.raises(AlgebraMismatchError):
            a - b
        assert a != b
    assert one != TensorElement.from_algebra(one)
    assert TensorElement.from_algebra(one) + tensor == TensorElement.from_algebra(one + free.element((1,)))


def test_star_examples():
    m2 = MatrixAlgebra(2, Z2)
    assert m2.element((1, 2)).star() == m2.element((2, 1))
    assert m2.unit().star() == m2.unit()

    group = GroupRing(2, Z2)
    g1g2 = group.element((1, 2))
    assert g1g2.star() == group.element((-2, -1))
    assert group.unit().star() == group.unit()

    free = FreeAlgebra(("g1", "g2"), Z2)
    with pytest.raises(NotHermitianError):
        free.element((1,)).star()


def test_star_involution_and_antihomomorphism_exhaustive():
    group = GroupRing(2, Z2)
    words = [w for w in group.words(2)]
    for w1, w2 in itertools.product(words, repeat=2):
        a, b = group.element(w1), group.element(w2)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def test_pairing_examples():
    m2 = MatrixAlgebra(2, Z2)
    e12 = m2.element((1, 2))
    assert pairing_t(e12, e12) == 1
    assert pairing_t(m2.unit(), m2.unit()) == 0  # trace of 1 is 2 = 0 mod 2
    m3 = MatrixAlgebra(3, Zp(3))
    assert pairing_t(m3.unit(), m3.unit()) == 0  # 3 = 0 mod 3

    group = GroupRing(2, Z2)
    for w1 in group.words(2):
        for w2 in group.words(2):
            expected = 1 if w1 == w2 else 0
            assert pairing_t(group.element(w1), group.element(w2)) == expected
    assert pairing_t(group.unit(), group.unit()) == 1


def test_matrix_units_orthonormal():
    m2 = MatrixAlgebra(2, Z2)
    for w1 in m2.words():
        for w2 in m2.words():
            expected = 1 if w1 == w2 else 0
            assert pairing_t(m2.element(w1), m2.element(w2)) == expected


@pytest.mark.parametrize(
    "algebra",
    [MatrixAlgebra(2, Z2), GroupRing(2, Z2), SplitAlgebra(MatrixAlgebra(2, Z2), 2)],
    ids=["matrix", "group", "split"],
)
def test_pairing_adjunction(algebra):
    words = sorted(algebra.words(2), key=algebra.word_key)[:8]
    samples = [algebra.element(w) for w in words]
    for a, b, c in itertools.product(samples, repeat=3):
        assert pairing_t(b * a, c) == pairing_t(a, b.star() * c)
        assert pairing_t(b * a, c) == pairing_t(b, c * a.star())


def test_normal_form_confluence():
    free = FreeAlgebra(("g1", "g2"), Q)
    group = GroupRing(2, Q)
    for algebra, letters in [
        (free, [(1,), (2,), (1, 2)]),
        (group, [(1,), (-1,), (2, 1)]),
    ]:
        elements = [algebra.element(w) for w in letters]
        a, b, c = elements
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c


def test_check_hermitian_axioms_passes_for_matrix_units():
    m2 = MatrixAlgebra(2, Z2)
    samples = [m2.element(w) for w in m2.words()]
    report = check_hermitian_axioms(m2, samples)
    assert report.ok


def test_check_hermitian_axioms_passes_for_group_words():
    group = GroupRing(2, Z2)
    samples = [group.element(w) for w in list(group.words(1))]
    assert check_hermitian_axioms(group, samples).ok


def test_check_hermitian_axioms_flags_corrupted_star():
    m2 = MatrixAlgebra(2, Z2)
    samples = [m2.element(w) for w in m2.words()]

    def corrupted(element):
        # forgets to transpose one unit
        out = {}
        for w, c in element.terms.items():
            out[w if w == (1, 2) else m2.star_word(w)] = c
        return AlgebraElement(m2, out)

    report = check_hermitian_axioms(m2, samples, star=corrupted)
    assert not report.ok
    assert (report.checks, len(report.violations)) == (180, 15)
    assert report.violations[0] == "star not involutive on E21"
    # a pairing that is zero everywhere fails only the Gram diagonal
    report = check_hermitian_axioms(m2, samples, pairing=lambda a, b: Z2.zero)
    assert report.violations == [f"gram entry t(E{i},E{i}) = 0" for i in (11, 12, 21, 22)]


def test_reversal_star_on_free_monomials_is_not_hermitian():
    """Orthonormal monomials with reversal star violate t(ba, c) = t(a, b*c),
    which is why free algebras expose no hermitian structure."""
    free = FreeAlgebra(("g1", "g2"), Z2)

    def reversal(element):
        return AlgebraElement(
            free, {tuple(reversed(w)): c for w, c in element.terms.items()}
        )

    def orthonormal(a, b):
        total = Z2.zero
        for w, c in a.terms.items():
            if w in b.terms:
                total = Z2.add(total, Z2.mul(c, b.terms[w]))
        return total

    samples = [free.element(w) for w in [(), (1,), (2,), (2, 1)]]
    report = check_hermitian_axioms(free, samples, star=reversal, pairing=orthonormal)
    assert not report.ok
    # the witness: t(g2 * g2g1, g1) = 0 but t(g2g1, g2* g1) = 1
    g2, g2g1, g1 = free.element((2,)), free.element((2, 1)), free.element((1,))
    assert orthonormal(g2 * g2g1, g1) != orthonormal(g2g1, reversal(g2) * g1)


def test_split_algebra_relations():
    split = SplitAlgebra(GroupRing(1, Z2), 3)
    syms = split.symbols()
    e1, e2 = syms["e1"], syms["e2"]
    assert e1 * e1 == e1
    assert (e1 * e2).is_zero()
    total = split.zero()
    for i in (1, 2, 3):
        total = total + syms[f"e{i}"]
    assert total == split.unit()
    g1 = syms["g1"]
    assert e1 * g1 == g1 * e1  # idempotents are central


def test_word_inverse_helper():
    group = GroupRing(2, Z2)
    inv = try_word_inverse(group, (1, 2), 1)
    assert inv == group.element((-2, -1))
    m2 = MatrixAlgebra(2, Z2)
    assert try_word_inverse(m2, (1, 2), 1) is None
    m1 = MatrixAlgebra(1, Z2)
    assert try_word_inverse(m1, (1, 1), 1) == m1.unit()


def test_morphism_validation():
    free = FreeAlgebra(("g1", "g2"), Z2)
    m2 = MatrixAlgebra(2, Z2)
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    morphism = CoefficientMorphism(free, m2, {1: swap, 2: m2.unit()})
    assert morphism.apply(free.element((1, 2))) == swap
    with pytest.raises(MorphismIllDefinedError):
        CoefficientMorphism(free, m2, {1: swap})  # missing image for g2

    group = GroupRing(1, Z2)
    with pytest.raises(MorphismIllDefinedError):
        CoefficientMorphism(group, m2, {1: m2.element((1, 2)), -1: m2.element((2, 1))})
    CoefficientMorphism(group, m2, {1: swap, -1: swap})

    with pytest.raises(MorphismIllDefinedError):
        # matrix-unit images must respect the unit relations
        CoefficientMorphism(
            m2, m2, {w: (m2.element(w) if w != (1, 1) else m2.zero()) for w in m2.words()}
        )


def test_split_inclusion_morphism():
    free = FreeAlgebra(("g1",), Z2)
    inclusion = CoefficientMorphism.split_inclusion(free, 2)
    image = inclusion.apply(free.element((1,)))
    assert image == inclusion.target.from_terms([((1, (1,)), 1), ((2, (1,)), 1)])
    assert inclusion.apply(free.unit()) == inclusion.target.unit()
