"""Property-based checks of the algebraic laws on randomised words."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncdga import (
    DualElement,
    FreeAlgebra,
    GroupRing,
    Q,
    TensorElement,
    Z2,
    Zp,
    iota_pair,
    pairing_t,
    parse_dga,
    psi_eval,
    tensor_product,
)
from ncdga.cli import _parse_dual_input

GROUP = GroupRing(2, Z2)
FREE = FreeAlgebra(("g1", "g2"), Z2)

group_letters = st.sampled_from([1, -1, 2, -2])
group_words = st.lists(group_letters, max_size=4).map(
    lambda letters: GROUP.mul_words((), tuple(letters))  # reduce
)
group_elements = group_words.map(GROUP.element)

free_words = st.lists(st.sampled_from([1, 2]), max_size=4).map(tuple)
free_elements = st.lists(free_words, max_size=3).map(
    lambda words: FREE.from_terms((w, 1) for w in words)
)


@given(group_elements, group_elements, group_elements)
def test_pairing_adjunction_randomised(a, b, c):
    assert pairing_t(b * a, c) == pairing_t(a, b.star() * c)
    assert pairing_t(b * a, c) == pairing_t(b, c * a.star())


@given(group_elements, group_elements)
def test_star_antihomomorphism_randomised(a, b):
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


@given(free_elements, free_elements, free_elements)
def test_free_product_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=50)
@given(group_words, group_words, group_words)
def test_balanced_product_normal_form(w0, w1, w2):
    """Moving an algebra factor across the tensor sign is invisible."""
    a = TensorElement.from_algebra(GROUP.element(w1))
    c, d = TensorElement.generator(GROUP, "c"), TensorElement.generator(GROUP, "d")
    left_assoc = (c * a) * d
    right_assoc = c * (a * d)
    assert left_assoc == right_assoc
    framed = TensorElement.from_algebra(GROUP.element(w0)) * left_assoc
    framed = framed * TensorElement.from_algebra(GROUP.element(w2))
    assert framed == tensor_product(
        [
            TensorElement.from_algebra(GROUP.element(w0)),
            c,
            a,
            d,
            TensorElement.from_algebra(GROUP.element(w2)),
        ]
    )


@settings(max_examples=50)
@given(group_words, group_words, group_elements, group_elements)
def test_psi_rebalancing_randomised(w0, w1, b1, b2):
    betas = [DualElement.term(b1, "c"), DualElement.term(b2, "d")]
    a = TensorElement.from_algebra(GROUP.element(w0))
    tail = TensorElement.from_algebra(GROUP.element(w1))
    c, d = TensorElement.generator(GROUP, "c"), TensorElement.generator(GROUP, "d")
    one_way = (c * a) * (d * tail)
    other_way = c * ((a * d) * tail)
    assert psi_eval(betas, one_way) == psi_eval(betas, other_way)


@settings(max_examples=50)
@given(group_words, group_words, group_words, group_words)
def test_iota_adjunction_randomised(w0, w1, wa, wb):
    x = tensor_product(
        [
            TensorElement.from_algebra(GROUP.element(w0)),
            TensorElement.generator(GROUP, "c"),
            TensorElement.from_algebra(GROUP.element(w1)),
        ]
    )
    y = TensorElement.generator(GROUP, "c")
    a = TensorElement.from_algebra(GROUP.element(wa))
    b = TensorElement.from_algebra(GROUP.element(wb))
    a_star = TensorElement.from_algebra(GROUP.element(wa).star())
    b_star = TensorElement.from_algebra(GROUP.element(wb).star())
    assert iota_pair(a * x * b, y) == iota_pair(x, a_star * y * b_star)


DUAL_RINGS = {"Z2": Z2, "Z3": Zp(3), "Q": Q}
_DUAL_DGAS = {
    name: parse_dga(f"ring {name}\nalgebra free g1 g2\ngrading mod 0\ngen c deg 0\ngen d deg 1\n")
    for name in DUAL_RINGS
}
_dual_scalars = {
    "Z2": st.sampled_from([1]),
    "Z3": st.sampled_from([1, 2]),
    "Q": st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
}


@settings(max_examples=150)
@given(st.sampled_from(sorted(DUAL_RINGS)), st.sampled_from(["c", "d"]), st.data())
def test_dual_element_prints_as_cli_input(ring_name, gen, data):
    """Every single-generator functional reads back from its text."""
    dga = _DUAL_DGAS[ring_name]
    terms = data.draw(
        st.lists(st.tuples(free_words, _dual_scalars[ring_name]), min_size=1, max_size=4)
    )
    coeff = dga.algebra.from_terms(terms)
    assume(not coeff.is_zero())
    beta = DualElement.term(coeff, gen)
    assert _parse_dual_input(dga, str(beta), {}) == beta


def test_dual_element_strings():
    alg = _DUAL_DGAS["Q"].algebra
    one, g1 = alg.unit(), alg.element((1,))
    assert str(DualElement.term(one - g1, "c")) == "(1 - g1)*c"
    assert str(DualElement.term(-one, "c")) == "-c"
    assert str(DualElement.term(-g1, "c")) == "-g1*c"
    assert str(DualElement(alg, {"c": g1, "d": -one})) == "g1*c - d"
    assert str(DualElement(alg, {"c": one.scale(2), "d": g1 - one})) == "2*c + (-1 + g1)*d"
    z3 = _DUAL_DGAS["Z3"].algebra
    assert str(DualElement.term(-z3.unit(), "c")) == "2*c"
