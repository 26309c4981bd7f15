"""Leibniz extension, structural checks and the DGA constructions."""

import pytest

from ncdga import (
    Augmentation,
    CoefficientMorphism,
    FreeAlgebra,
    Generator,
    LinkGrading,
    SemifreeDGA,
    TensorElement,
    Z2,
    check_link_grading,
    check_mixed_filtration,
    ncopy,
    ncopy_projection_report,
    ncopy_via_split,
    parse_dga,
    restrict_to_components,
    tensor_product,
)
from ncdga.errors import (
    ActionViolationError,
    DegreeMismatchError,
    DegreeUnknownError,
    InvalidDGAError,
    NoActionsError,
    NotInvertibleError,
)

from conftest import ACTION_SOURCE as ACTION_TOY


def word(dga, *factors):
    parts = []
    for f in factors:
        parts.append(dga.generator(f) if isinstance(f, str) else TensorElement.from_algebra(f))
    return tensor_product(parts, dga.algebra)


def corrupt(dga, name):
    differential = {k: v for k, v in dga.differential.items() if k != name}
    return SemifreeDGA(dga.algebra, dga.generators, differential, dga.modulus)


def test_leibniz_on_constants(toy):
    constant = TensorElement.from_algebra(toy.algebra.element((1, 2)))
    assert toy.d(constant).is_zero()


def test_leibniz_on_generator_and_word(toy):
    g1 = toy.algebra.element((1,))
    assert toy.d(toy.generator("c1")) == word(toy, "c2", g1, "c4") + toy.generator("c3")
    g2g1 = toy.algebra.element((2, 1))
    assert toy.d(word(toy, "c2", g1, "c4")) == word(toy, "c5", g2g1, "c4")


def test_leibniz_sign_over_q(q_corpus):
    # d(x1 a x1) = y0 a x1 - x1 a y0 since |x1| is odd
    a = q_corpus.algebra.element((1,))
    value = q_corpus.d(word(q_corpus, "x1", a, "x1"))
    expected = word(q_corpus, "y0", a, "x1") - word(q_corpus, "x1", a, "y0")
    assert value == expected


def test_unknown_generator_in_leibniz(toy):
    stray = TensorElement.generator(toy.algebra, "nope")
    with pytest.raises(DegreeUnknownError):
        toy.d(stray)


def test_check_d_squared(toy):
    assert toy.check_d_squared().ok
    broken = corrupt(toy, "c3")
    report = broken.check_d_squared()
    assert not report.ok
    assert any("c1" in v for v in report.violations)
    report = corrupt(toy, "c2").check_d_squared()
    assert report.violations == ["d^2(c1) = c5*g2*g1*c4"]
    trivial = SemifreeDGA(toy.algebra, toy.generators, {}, 0)
    assert trivial.check_d_squared().ok


def test_differential_components(toy):
    assert toy.d_component("c1", 1) == toy.generator("c3")
    g1 = toy.algebra.element((1,))
    assert toy.d_component("c1", 2) == word(toy, "c2", g1, "c4")
    for name in toy.names:
        assert toy.d_component(name, 0).is_zero()
        total = TensorElement.zero(toy.algebra)
        for n in range(toy.max_word_arity() + 1):
            total = total + toy.d_component(name, n)
        assert total == toy.d_of_generator(name)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_component_relations_match_d_squared(toy, q_corpus, n):
    assert toy.check_component_relations(n).ok
    assert q_corpus.check_component_relations(n).ok
    broken = corrupt(toy, "c3")
    all_ok = all(broken.check_component_relations(m).ok for m in range(4))
    assert not all_ok
    report = corrupt(toy, "c2").check_component_relations(n)
    assert report.checks == len(toy.names)
    assert report.violations == (["relation fails at c1: c5*g2*g1*c4"] if n == 2 else [])


def test_component_relation_vacuous_beyond_word_length(toy):
    assert toy.check_component_relations(7).ok
    assert toy.check_component_relations(7).checks == len(toy.names)


def test_degree_validation():
    with pytest.raises(DegreeMismatchError):
        parse_dga(
            "ring Z2\nalgebra free g1\ngrading mod 0\n"
            "gen a deg 1\ngen b deg 1\nd a = b\n"
        )


def test_change_coefficients_identity(toy):
    same = toy.change_coefficients(CoefficientMorphism.identity(toy.algebra))
    assert same == toy


def test_change_coefficients_to_matrices(toy, m2):
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    morphism = CoefficientMorphism(toy.algebra, m2, {1: swap, 2: m2.unit()})
    moved = toy.change_coefficients(morphism)
    assert moved.algebra == m2
    assert moved.check_d_squared().ok
    # the transported map intertwines the differentials on generators
    for name in toy.names:
        images = {g: TensorElement.generator(m2, g) for g in toy.names}
        from ncdga import substitute

        lhs = substitute(toy.d_of_generator(name), images, morphism, m2)
        assert lhs == moved.d_of_generator(name)


def test_change_coefficients_split(toy):
    split_dga = ncopy_via_split(toy, 2)
    assert split_dga.check_d_squared().ok
    syms = split_dga.algebra.symbols()
    assert syms["e1"] * syms["e2"] == split_dga.algebra.zero()


def test_conjugate_identity(toy):
    assert toy.conjugate({}) == toy


def test_conjugate_example(toy):
    g1 = toy.algebra.element((1,))
    phi = {"c3": toy.generator("c3") + word(toy, "c2", g1, "c4")}
    conj = toy.conjugate(phi)
    assert conj.check_d_squared().ok
    assert conj.d_of_generator("c1") == toy.generator("c3")


def test_conjugate_round_trip(q_corpus):
    phi = {"x2": q_corpus.generator("x2") + q_corpus.generator("u1")}
    inverse = q_corpus.invert_substitution(phi)
    assert q_corpus.conjugate(phi).conjugate(inverse) == q_corpus


def test_conjugate_constant_offset_gives_augmentation(q_corpus):
    shifted = q_corpus.conjugate(
        {"u4": q_corpus.generator("u4") + TensorElement.from_scalar(q_corpus.algebra, 1)}
    )
    assert shifted.check_d_squared().ok
    eps = Augmentation(shifted, {"u4": shifted.algebra.unit().scale(-1)})
    assert eps.check().ok


def test_conjugate_rejects_noninvertible(toy):
    with pytest.raises(NotInvertibleError):
        toy.conjugate({"c4": TensorElement.zero(toy.algebra)})
    with pytest.raises(NotInvertibleError):
        # c4 -> c4 + c5 + c4-term loops back: c4 -> 2 c4 is zero over Z2
        toy.conjugate({"c4": toy.generator("c4") + toy.generator("c4")})


def test_mirror_table_and_involution(toy):
    mirrored = toy.mirror()
    g1 = toy.algebra.element((1,))
    assert mirrored.d_of_generator("c1") == word(toy, "c4", g1, "c2") + toy.generator("c3")
    assert mirrored.check_d_squared().ok
    assert mirrored.mirror() == toy
    trivial = SemifreeDGA(toy.algebra, toy.generators, {}, 0)
    assert trivial.mirror() == trivial


def test_mirror_reverses_algebra_letters(toy_h):
    mirrored = toy_h.mirror()
    g2g1 = toy_h.algebra.element((2, 1))
    g1g2 = toy_h.algebra.element((1, 2))
    assert toy_h.d_of_generator("c3") == word(toy_h, "c5", g2g1, "c4")
    assert mirrored.d_of_generator("c3") == word(toy_h, "c4", g1g2, "c5")


def test_action_subdga():
    dga = parse_dga(ACTION_TOY)
    assert dga.has_actions
    whole = dga.action_subdga(100)
    assert whole == dga
    empty = dga.action_subdga("1/2")
    assert not empty.generators
    sub = dga.action_subdga(3)
    assert [g.name for g in sub.generators] == ["c2", "c3", "c4", "c5"]
    assert sub.check_d_squared().ok
    # inclusion is a chain map: differentials agree with the ambient ones
    for name in sub.names:
        assert sub.d_of_generator(name) == dga.d_of_generator(name)


def test_action_subdga_requires_actions(toy):
    with pytest.raises(NoActionsError):
        toy.action_subdga(1)


def test_action_violation_detected():
    bad = ACTION_TOY.replace("gen c1 deg 2 action 4", "gen c1 deg 2 action 3")
    with pytest.raises(ActionViolationError):
        parse_dga(bad)


def test_ncopy_one_is_base(toy):
    copied, grading = ncopy(toy, 1)
    assert grading.components == 1
    renamed = copied.rename_generators({f"{n}_11": n for n in toy.names})
    assert renamed.differential == toy.differential


def test_ncopy_differential_table(toy):
    copied, _ = ncopy(toy, 2)
    g1 = toy.algebra.element((1,))
    expected = (
        word(copied, "c2_11", g1, "c4_12")
        + word(copied, "c2_12", g1, "c4_22")
        + copied.generator("c3_12")
    )
    assert copied.d_of_generator("c1_12") == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ncopy_d_squared(toy, toy_h, n):
    for base in (toy, toy_h):
        copied, grading = ncopy(base, n)
        assert copied.check_d_squared().ok
        assert check_link_grading(copied, grading).ok


def test_ncopy_projection_cross_check(toy):
    assert ncopy_projection_report(toy, 2).ok


def test_ncopy_mixed_filtration(toy):
    copied, grading = ncopy(toy, 2)
    assert check_mixed_filtration(copied, grading).ok


def test_ncopy_constant_terms_stay_on_diagonal():
    src = "ring Z2\nalgebra free\ngrading mod 0\ngen a deg 1\ngen x deg 0\ngen y deg 0\nd a = x*y - 1\n"
    dga = parse_dga(src)
    copied, grading = ncopy(dga, 2)
    assert copied.check_d_squared().ok
    assert check_link_grading(copied, grading).ok
    assert not copied.d_of_generator("a_11").constant_part().is_zero()
    assert copied.d_of_generator("a_12").constant_part().is_zero()
    assert ncopy_projection_report(dga, 2).ok


def test_link_grading_single_component(toy):
    grading = LinkGrading(1, {n: 1 for n in toy.names}, {n: 1 for n in toy.names})
    assert check_link_grading(toy, grading).ok


def test_link_grading_swapped_label_fails(toy):
    copied, grading = ncopy(toy, 2)
    b = dict(grading.b)
    e = dict(grading.e)
    b["c4_12"], e["c4_12"] = 2, 1
    assert not check_link_grading(copied, LinkGrading(2, b, e)).ok


def test_restrict_all_components_is_identity(toy):
    copied, grading = ncopy(toy, 2)
    assert restrict_to_components(copied, grading, {1, 2}) == copied


def test_restrict_single_component_recovers_base(toy):
    copied, grading = ncopy(toy, 3)
    for k in (1, 2, 3):
        piece = restrict_to_components(copied, grading, {k})
        renamed = piece.rename_generators({f"{n}_{k}{k}": n for n in toy.names})
        assert renamed.differential == toy.differential


def test_restrict_pair_matches_smaller_ncopy(toy):
    copied, grading = ncopy(toy, 3)
    piece = restrict_to_components(copied, grading, {1, 3})
    relabel = {1: 1, 3: 2}
    renaming = {
        f"{n}_{a}{b}": f"{n}_{relabel[a]}{relabel[b]}"
        for n in toy.names
        for a in (1, 3)
        for b in (1, 3)
    }
    doubled, _ = ncopy(toy, 2)
    assert piece.rename_generators(renaming).differential == doubled.differential


def test_generator_names_cannot_shadow_symbols():
    free = FreeAlgebra(("g1",), Z2)
    with pytest.raises(Exception):
        SemifreeDGA(free, [Generator("g1", 0)], {}, 0)


def test_modulus_reduction():
    src = "ring Z2\nalgebra free g1\ngrading mod 4\ngen a deg 5\ngen b deg 0\nd a = b\n"
    dga = parse_dga(src)
    assert dga.degree("a") == 1  # 5 mod 4
    assert dga.check_d_squared().ok


def test_mirror_detects_broken_square():
    # over Q with an odd-degree letter in front of a differentiable one,
    # naive letter reversal does not square to zero; mirror must refuse
    src = (
        "ring Q\nalgebra free g1\ngrading mod 0\n"
        "gen a deg 4\ngen s deg 3\ngen y deg 2\ngen x deg 1\ngen w deg 1\n"
        "d a = x*y + s\nd s = x*w\nd y = w\n"
    )
    dga = parse_dga(src)
    assert dga.check_d_squared().ok
    with pytest.raises(InvalidDGAError):
        dga.mirror()
