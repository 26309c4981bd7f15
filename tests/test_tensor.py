"""Tensor normal forms, functionals, pairings and the adjoint machinery."""

import itertools

import pytest

from ncdga import (
    DualElement,
    FreeAlgebra,
    GroupRing,
    MatrixAlgebra,
    TensorElement,
    TensorWord,
    Z2,
    adjoint_bruteforce,
    adjoint_formula,
    apply_block,
    iota_pair,
    parse_dga,
    parse_element,
    psi_eval,
    tensor_product,
)
from ncdga.errors import (
    ArityMismatchError,
    BoundTooSmallError,
    NotHermitianError,
    ZeroArityTargetError,
)


@pytest.fixture(scope="module")
def free():
    return FreeAlgebra(("g1", "g2"), Z2)


@pytest.fixture(scope="module")
def group():
    return GroupRing(2, Z2)


def gen(alg, name):
    return TensorElement.generator(alg, name)


def coeff(alg, word):
    return TensorElement.from_algebra(alg.element(word))


def test_balancing(free):
    g1 = coeff(free, (1,))
    c, cp = gen(free, "c"), gen(free, "cp")
    assert (c * g1) * cp == c * (g1 * cp)


def test_zero_and_linearity(free):
    c = gen(free, "c")
    assert c.scale(0).is_zero()
    g1g2 = coeff(free, (1,)) + coeff(free, (2,))
    expanded = g1g2 * c
    assert set(expanded.terms) == {
        TensorWord(((1,), ()), ("c",)),
        TensorWord(((2,), ()), ("c",)),
    }


def test_product_associative_random(free):
    pool = [gen(free, "c"), coeff(free, (1,)), gen(free, "d"), coeff(free, (2, 1))]
    for a, b, c in itertools.product(pool, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_matrix_generator_normal_form():
    m2 = MatrixAlgebra(2, Z2)
    c = gen(m2, "c")
    # 1 * c * 1 expands over the diagonal units
    assert len(c.terms) == 4
    assert c * TensorElement.from_algebra(m2.unit()) == c


def test_arity_bookkeeping(free):
    mixed = gen(free, "c") + coeff(free, ())
    assert mixed.arities() == {0, 1}
    with pytest.raises(ArityMismatchError):
        mixed.arity
    assert mixed.component(1) == gen(free, "c")


def test_dual_eval_examples(free):
    beta = DualElement.term(free.unit(), "c3")
    assert beta.eval_on(gen(free, "c3")) == free.unit()
    assert beta.eval_on(gen(free, "c1")).is_zero()

    beta2 = DualElement.term(free.element((2,)), "c2")
    g1 = free.element((1,))
    word = tensor_product(
        [TensorElement.from_algebra(g1), gen(free, "c2"), TensorElement.from_algebra(g1)]
    )
    assert beta2.eval_on(word) == free.element((1, 2, 1))


def test_psi_identity_is_dual_eval(free):
    beta = DualElement.term(free.element((1,)), "c2")
    word = tensor_product([coeff(free, (2,)), gen(free, "c2")])
    assert psi_eval([beta], word) == beta.eval_on(word)


def test_psi_slotwise_product(free):
    b1 = DualElement.term(free.element((1,)), "c2")
    b2 = DualElement.term(free.element((2,)), "c4")
    a0, a1, a2 = ((2,), (1, 1), (2, 2))
    word = TensorElement(free, {TensorWord((a0, a1, a2), ("c2", "c4")): 1})
    value = psi_eval([b1, b2], word)
    assert value == free.element((2, 1, 1, 1, 2, 2, 2))
    assert psi_eval([b2, b1], word).is_zero()  # mismatched generators


def test_psi_invariant_under_rebalancing(free):
    b1 = DualElement.term(free.element((1,)), "c2")
    b2 = DualElement.term(free.element((2,)), "c4")
    g = coeff(free, (1,))
    left = (gen(free, "c2") * g) * gen(free, "c4")
    right = gen(free, "c2") * (g * gen(free, "c4"))
    assert psi_eval([b1, b2], left) == psi_eval([b1, b2], right)


def test_iota_orthonormal(group):
    c2, c4 = gen(group, "c2"), gen(group, "c4")
    assert iota_pair(c2, c2) == 1
    assert iota_pair(c2, c4) == 0
    word = tensor_product([c2, coeff(group, (1,)), c4])
    assert iota_pair(word, word) == 1


def test_iota_star_adjunction(group):
    g = coeff(group, (1,))
    ginv = coeff(group, (-1,))
    c = gen(group, "c")
    assert iota_pair(g * c, c) == iota_pair(c, ginv * c)
    # exhaustively over short words on both sides
    words = [group.element(w) for w in group.words(1)]
    x = tensor_product([c, coeff(group, (2,)), gen(group, "d")])
    y = tensor_product([c, coeff(group, (2,)), gen(group, "d")])
    for a1, a2 in itertools.product(words, repeat=2):
        lhs = iota_pair(
            TensorElement.from_algebra(a1) * x * TensorElement.from_algebra(a2), y
        )
        rhs = iota_pair(
            x,
            TensorElement.from_algebra(a1.star()) * y * TensorElement.from_algebra(a2.star()),
        )
        assert lhs == rhs


def test_iota_needs_hermitian(free):
    with pytest.raises(NotHermitianError):
        iota_pair(gen(free, "c"), gen(free, "c"))


def test_iota_gram_identity(group):
    words = [
        TensorElement(group, {TensorWord((w1, w2), ("c",)): 1})
        for w1 in [(), (1,), (2,)]
        for w2 in [(), (-1,)]
    ]
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            assert iota_pair(x, y) == (1 if i == j else 0)


def test_adjoint_zero_morphism(group):
    f = {"c": TensorElement.zero(group)}
    with pytest.raises(ZeroArityTargetError):
        adjoint_formula(f, 0, 0, gen(group, "c"))


def test_adjoint_rejects_arity_zero_images(group):
    f = {"c": coeff(group, (1,))}
    with pytest.raises(ZeroArityTargetError):
        adjoint_formula(f, 0, 0, gen(group, "c"))


def test_adjoint_of_permutation_is_inverse_permutation(group):
    # c -> d, d -> e, e -> c on plain generators
    perm = {"c": "d", "d": "e", "e": "c"}
    f = {source: gen(group, image) for source, image in perm.items()}
    inverse = {image: source for source, image in perm.items()}
    for name in perm:
        assert adjoint_formula(f, 0, 0, gen(group, name)) == gen(group, inverse[name])


def test_adjoint_formula_matches_bruteforce_spot(group):
    f = {
        "c1": TensorElement(group, {TensorWord(((1,), (), (2,)), ("c2", "c3")): 1}),
        "c2": TensorElement(group, {TensorWord(((-2,), (1,), ()), ("c3", "c3")): 1}),
    }
    inputs = [
        TensorElement(group, {TensorWord(((2,), (), (1,)), ("c2", "c3")): 1}),
        TensorElement(group, {TensorWord(((), (1,), (1,)), ("c3", "c3")): 1}),
    ]
    for y in inputs:
        lhs = adjoint_formula(f, 0, 0, y)
        rhs = adjoint_bruteforce(f, 0, 0, y, ["c1", "c2", "c3"], 3)
        assert lhs == rhs


def test_adjoint_block_matches_bruteforce(group):
    f = {"c2": TensorElement(group, {TensorWord(((), (1,)), ("c3",)): 1})}
    y = TensorElement(group, {TensorWord(((), (), (1,)), ("c1", "c3")): 1})
    lhs = adjoint_formula(f, 1, 0, y)
    rhs = adjoint_bruteforce(f, 1, 0, y, ["c1", "c2", "c3"], 2)
    # the trailing g1 of the image cancels against the input's g1
    assert lhs == rhs == TensorElement(
        group, {TensorWord(((), (), ()), ("c1", "c2")): 1}
    )


def test_bruteforce_bound_guard(group):
    f = {"c1": TensorElement(group, {TensorWord(((1, 2), ()), ("c2",)): 1})}
    y = gen(group, "c2")
    with pytest.raises(BoundTooSmallError):
        adjoint_bruteforce(f, 0, 0, y, ["c1", "c2"], 1)


def test_apply_block(group):
    f = {"c2": gen(group, "c3") * coeff(group, (1,))}
    x = tensor_product([gen(group, "c1"), gen(group, "c2")])
    image = apply_block(f, 1, 0, x)
    assert image == tensor_product([gen(group, "c1"), gen(group, "c3"), coeff(group, (1,))])
    assert apply_block(f, 0, 1, x).is_zero()  # c1 has no image


def test_printing_is_pinned():
    """Exact strings for algebra, tensor and dual elements: the order of the
    terms, their signs, and the unit word (2 in the algebra, 2*1 as a tensor)."""
    mixed = parse_dga(
        "ring Q\nalgebra free g1\ngen a deg 1\ngen x deg 0\ngen y deg 0\n"
        "d a = x*y - 2 + 1/2*g1*x*g1 - g1\n"
    )
    assert str(mixed.d_of_generator("a")) == "-2*1 - g1 + 1/2*g1*x*g1 + x*y"
    assert str(parse_element("3*g1 - 2", mixed).constant_part()) == "-2 + 3*g1"
    z3 = parse_dga("ring Z3\nalgebra group free 1\ngen a deg 1\ngen x deg 0\nd a = 2*x*g1^-1 - 1\n")
    assert str(z3.d_of_generator("a")) == "2*1 + 2*x*g1^-1"
    alg = mixed.algebra
    g1 = alg.element((1,))
    beta = DualElement(alg, {"x": -alg.unit(), "y": alg.unit() + g1, "a": g1.scale(-2)})
    assert str(beta) == "-2*g1*a - x + (1 + g1)*y"
