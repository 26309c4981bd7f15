"""Augmentation checks, developing, duals and the n-copy diagonal."""

import pytest

from ncdga import (
    Augmentation,
    CoefficientMorphism,
    DualElement,
    MatrixAlgebra,
    Z2,
    enumerate_augmentations,
    ncopy_augmentation,
    restrict_to_components,
)
from ncdga.errors import InvalidAugmentationError, NcdgaError, TargetMismatchError


def test_trivial_augmentation_passes(toy):
    assert Augmentation.trivial(toy).check().ok


def test_matrix_augmentation_examples(xy_dga, m2, xy_into_m2, aug_p):
    assert aug_p.check().ok
    bad = Augmentation(
        xy_dga,
        {"x": m2.from_terms([((1, 2), 1), ((2, 1), 1)]), "y": m2.element((1, 1))},
        xy_into_m2,
    )
    assert not bad.check().ok


def test_degree_rule(toy):
    value_on_degree_one = Augmentation(toy, {"c2": toy.algebra.unit()})
    report = value_on_degree_one.check()
    assert not report.ok
    assert report.violations == ["nonzero value on generator c2 of degree 1"]


def test_forced_zero_value(toy_h):
    # eps(c5) g2 must vanish, and g2 is invertible in the group ring
    eps = Augmentation(toy_h, {"c5": toy_h.algebra.unit()})
    assert eps.check().violations == ["eps(d c2) = g2"]


def test_develop_trivial_is_identity(toy):
    assert Augmentation.trivial(toy).develop() == toy


def test_develop_kills_constant_part(xy_dga, aug_p):
    developed = aug_p.develop()
    assert developed.check_d_squared().ok
    for name in developed.names:
        assert developed.d_of_generator(name).constant_part().is_zero()
    # developing again with the trivial augmentation changes nothing
    again = Augmentation.trivial(developed).develop()
    assert again == developed


def test_develop_rejects_invalid(xy_dga, m2, xy_into_m2):
    bad = Augmentation(
        xy_dga,
        {"x": m2.from_terms([((1, 2), 1), ((2, 1), 1)]), "y": m2.element((1, 1))},
        xy_into_m2,
    )
    with pytest.raises(InvalidAugmentationError):
        bad.develop()


def test_develop_on_corpus(q_corpus_augmented):
    shifted, eps = q_corpus_augmented
    developed = eps.develop()
    assert developed.check_d_squared().ok
    for name in developed.names:
        assert developed.d_of_generator(name).constant_part().is_zero()


def test_eps_dual(toy_h, toy_h_augmentations):
    trivial, eps_g1, _ = toy_h_augmentations
    assert trivial.dual() == DualElement.zero(toy_h.algebra)
    assert eps_g1.dual() == DualElement.term(toy_h.algebra.element((1,)), "c4")


def test_eps_dual_needs_coefficient_target(xy_dga, aug_p):
    with pytest.raises(TargetMismatchError):
        aug_p.dual()


def test_eps_dual_from_conjugation(q_corpus_augmented):
    shifted, eps = q_corpus_augmented
    dual = eps.dual()
    assert dual == DualElement.term(shifted.algebra.unit().scale(-1), "u4")


def test_ncopy_augmentation_trivial(toy):
    copied, grading, diag = ncopy_augmentation(
        [Augmentation.trivial(toy), Augmentation.trivial(toy)], toy
    )
    assert diag.is_trivial
    assert diag.check().ok


def test_ncopy_augmentation_diagonal(toy_h, toy_h_augmentations):
    copied, grading, diag = ncopy_augmentation(toy_h_augmentations, toy_h)
    assert diag.check().ok
    # mixed generators always map to zero
    for name, value in diag.values.items():
        base, labels = name.rsplit("_", 1)
        assert labels[0] == labels[1]
    # restriction to component k recovers eps_k
    for k, eps in enumerate(toy_h_augmentations, start=1):
        piece = restrict_to_components(copied, grading, {k})
        renamed = {f"{n}_{k}{k}": n for n in toy_h.names}
        recovered = {renamed[g]: v for g, v in diag.values.items() if g in renamed}
        assert recovered == eps.values


@pytest.mark.parametrize("n, sep", [(10, ""), (11, "_")])
def test_ncopy_augmentation_names_its_values_as_ncopy_names_generators(xy_dga, n, sep):
    """The diagonal values carry the n-copy's own generator names on both
    sides of n = 10, where the naming scheme changes."""
    one = Augmentation(xy_dga, {"x": xy_dga.algebra.unit(), "y": xy_dga.algebra.unit()})
    copied, _grading, diag = ncopy_augmentation([one] * n, xy_dga)
    expected = {f"{g}_{i}{sep}{i}" for g in "xy" for i in range(1, n + 1)}
    assert set(diag.values) == expected and expected <= set(copied.names)
    assert diag.check().ok


def test_ncopy_augmentation_requires_shared_target(toy_h, toy_h_augmentations):
    other = MatrixAlgebra(2, Z2)
    morphism = CoefficientMorphism(
        toy_h.algebra,
        other,
        {
            1: other.from_terms([((1, 2), 1), ((2, 1), 1)]),
            -1: other.from_terms([((1, 2), 1), ((2, 1), 1)]),
            2: other.unit(),
            -2: other.unit(),
        },
    )
    into_matrices = Augmentation(toy_h, {}, morphism)
    with pytest.raises(TargetMismatchError):
        ncopy_augmentation([toy_h_augmentations[0], into_matrices], toy_h)


def test_enumerate_augmentations(xy_dga, xy_into_m2):
    found = enumerate_augmentations(xy_dga, xy_into_m2)
    assert len(found) == 6  # pairs (X, X^-1) with X in GL_2(F_2)
    for aug in found:
        assert aug.check().ok
    with pytest.raises(NcdgaError):
        enumerate_augmentations(xy_dga, xy_into_m2, limit=10)


def test_enumerate_needs_finite_target(toy):
    with pytest.raises(NcdgaError):
        enumerate_augmentations(toy)


def test_evaluate_is_multiplicative(xy_dga, aug_p, m2):
    x, y = xy_dga.generator("x"), xy_dga.generator("y")
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    assert aug_p.evaluate(x * y) == swap * swap
    assert aug_p.evaluate(x * y) == m2.unit()
