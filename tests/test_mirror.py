"""The mirror comparison reads the source words.

``mirror_compare`` mirrors the source DGA and carries the augmentations
over with ``homology._mirrored``: each value is transposed, and the
coefficient map sends a word w to the transpose of the image of
reverse(w).  The oracle mirrors the DGA with its coefficients changed
(``conftest._prepare``), over which every map is the identity, and
transposes the values.  The two must give the same augmented components at
arities 1 and 2: mirroring commutes with the change of coefficients only
through the transported map.  Inputs: the toy DGA into ``matrix 2`` over
Z2 with g1 = E11 + E12 + E22 and g2 = E21 + E22, whose images are not
symmetric, and generated DGAs over Z2, Z3 and Q moved into ``matrix 2``."""

import itertools

from hypothesis import assume, given, settings

from ncdga import Augmentation, CoefficientMorphism, MatrixAlgebra, Z2, mirror_compare, toy_dga
from ncdga.augmentation import augmented_components
from ncdga.homology import _mirrored

from conftest import _prepare
from test_relation import generated_dgas
from test_source_components import _morphism, _moved_augmentations


def assert_mirrors_match(dga, augs) -> int:
    """Components of every tuple of ``augs`` of arity 1 and 2 on the
    mirrored source against those on the mirrored copy; returns the number
    of nonzero ones."""
    mirrored, carried = _mirrored(dga, augs)
    base, copies = _prepare(dga, augs)
    base_mirrored = base.mirror()
    transposed = [
        Augmentation(base_mirrored, {name: v.reverse() for name, v in aug.values.items()})
        for aug in copies
    ]
    nonzero = 0
    for n in (1, 2):
        for picks in itertools.product(range(len(augs)), repeat=n + 1):
            got = augmented_components(mirrored, [carried[i] for i in picks], n)
            expected = augmented_components(base_mirrored, [transposed[i] for i in picks], n)
            assert got == expected, (n, picks)
            nonzero += bool(got)
    return nonzero


def _toy_into_m2():
    toy = toy_dga()
    m2 = MatrixAlgebra(2, Z2)
    g1 = m2.from_terms([((1, 1), 1), ((1, 2), 1), ((2, 2), 1)])
    g2 = m2.from_terms([((2, 1), 1), ((2, 2), 1)])
    into = CoefficientMorphism(toy.algebra, m2, {1: g1, 2: g2})
    augs = [
        Augmentation(toy, {}, into),
        Augmentation(toy, {"c4": m2.from_terms([((1, 2), 1)])}, into),
        Augmentation(toy, {"c4": m2.from_terms([((1, 1), 1), ((2, 1), 1)])}, into),
    ]
    assert all(aug.check().ok for aug in augs)
    return toy, augs


def test_toy_mirror_matches_the_mirrored_copy():
    toy, augs = _toy_into_m2()
    assert assert_mirrors_match(toy, augs)
    for e0, e1 in itertools.product(augs, repeat=2):
        for case in ("I", "II"):
            assert mirror_compare(toy, e0, e1, case).ok


@settings(max_examples=10, deadline=None)
@given(generated_dgas(("Z2", "Z3", "Q")))
def test_generated_mirrors_match_the_mirrored_copy(instance):
    dga, augs = instance
    morphism = _morphism(dga.algebra, "matrix 2")
    assume(morphism is not None)
    moved = _moved_augmentations(augs, morphism)
    assert_mirrors_match(dga, moved)
    for e0, e1 in itertools.product(moved, repeat=2):
        for case in ("I", "II"):
            assert mirror_compare(dga, e0, e1, case).ok
