"""``SemifreeDGA.change_coefficients`` against the construction it replaced.

The oracle writes each generator as its image in the target, the sum of
u c v over all pairs of the target's unit words, and multiplies every word
of the differential out with ``substitute`` (one tensor product per word).
The direct construction moves each word's coefficient slots instead; both
must give equal term maps on every differential."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    CoefficientMorphism,
    GroupRing,
    MatrixAlgebra,
    Q,
    TensorElement,
    Z2,
    ncopy_via_split,
    parse_augmentation,
    parse_dga,
    substitute,
)

from conftest import TREFOIL_SOURCE, XY_SOURCE
from test_relation import generated_dgas


def generator_image_change(dga, morphism):
    """The moved differential's term maps, built from generator images."""
    target = morphism.target
    images = {name: TensorElement.generator(target, name) for name in dga.names}
    moved = {
        name: substitute(value, images, morphism, target)
        for name, value in dga.differential.items()
    }
    return {name: value.terms for name, value in moved.items() if value.terms}


def assert_same_change(dga, morphism):
    moved = dga.change_coefficients(morphism)
    assert moved.algebra == morphism.target
    terms = {name: value.terms for name, value in moved.differential.items()}
    assert terms == generator_image_change(dga, morphism)


def matrix(alg, rows):
    return alg.from_terms(
        ((i, j), c) for i, row in enumerate(rows, 1) for j, c in enumerate(row, 1)
    )


def block_embeddings(source, target):
    """Unital embeddings of matrix 2 into matrix 4, given on the matrix
    units: A -> diag(A, A), A -> A (x) 1 and, over Q, A -> D A D^-1 (x) 1
    with D = diag(2, 1), whose images carry coefficients other than 1."""
    d = {1: 2, 2: 1} if target.ring == Q else {1: 1, 2: 1}
    diagonal = {
        (i, j): target.from_terms([((i, j), 1), ((i + 2, j + 2), 1)]) for i, j in source.words()
    }
    tensor = {
        (i, j): target.from_terms([((2 * i - 1, 2 * j - 1), 1), ((2 * i, 2 * j), 1)])
        for i, j in source.words()
    }
    conjugated = {(i, j): image.scale(Fraction(d[i], d[j])) for (i, j), image in tensor.items()}
    return [diagonal, tensor, conjugated]


def test_free_into_matrix_2(toy, q_corpus):
    for dga in (toy, q_corpus):
        m2 = MatrixAlgebra(2, dga.algebra.ring)
        images = {1: matrix(m2, [[1, 1], [0, 1]]), 2: matrix(m2, [[0, 3], [1, 0]])}
        assert_same_change(dga, CoefficientMorphism(dga.algebra, m2, images))


@pytest.mark.parametrize("ring", ["Z2", "Q"])
def test_augmentation_targets(ring):
    """The maps a homology run moves the DGA along: a scalar DGA into
    matrix 2 and into split 2 matrix 2."""
    xy = parse_dga(XY_SOURCE.replace("ring Z2", f"ring {ring}"))
    for target in ("matrix 2", "split 2 matrix 2", "matrix 3"):
        aug = parse_augmentation(f"target {target} over {ring}\n", xy)
        assert_same_change(xy, aug.morphism)


@pytest.mark.parametrize("ring", ["Z2", "Q"])
def test_group_ring_into_matrix_2(ring):
    dga = parse_dga(
        f"ring {ring}\nalgebra group free 1 hermitian\ngrading mod 0\n"
        "gen a deg 1\ngen x deg 0\ngen y deg 0\nd a = x*g1*y - g1^-1 + g1*x*g1\n"
    )
    m2 = MatrixAlgebra(2, dga.algebra.ring)
    images = {1: matrix(m2, [[1, 1], [0, 1]]), -1: matrix(m2, [[1, -1], [0, 1]])}
    assert_same_change(dga, CoefficientMorphism(dga.algebra, m2, images))
    if ring == "Q":
        images = {1: matrix(m2, [[0, 2], [1, 0]]), -1: matrix(m2, [[0, 1], [Fraction(1, 2), 0]])}
        assert_same_change(dga, CoefficientMorphism(dga.algebra, m2, images))


def test_hermitian_toy_into_matrix_2(toy_h):
    m2 = MatrixAlgebra(2, Z2)
    swap = matrix(m2, [[0, 1], [1, 0]])
    unipotent = matrix(m2, [[1, 1], [0, 1]])
    images = {1: swap, -1: swap, 2: unipotent, -2: unipotent}
    assert_same_change(toy_h, CoefficientMorphism(toy_h.algebra, m2, images))


def test_matrix_2_into_matrix_4():
    dga = parse_dga(
        "ring Q\nalgebra matrix 2\ngrading mod 0\ngen a deg 1\ngen x deg 0\ngen y deg 0\n"
        "d a = x*E12*y - 1/2*E12*y*x + E21 + x*y*E22\n"
    )
    m4 = MatrixAlgebra(4, Q)
    for images in block_embeddings(dga.algebra, m4):
        assert_same_change(dga, CoefficientMorphism(dga.algebra, m4, images))


def test_split_inclusion(toy, toy_h, q_corpus):
    for dga in (toy, toy_h, q_corpus, parse_dga(TREFOIL_SOURCE)):
        for n in (1, 2, 3):
            morphism = CoefficientMorphism.split_inclusion(dga.algebra, n)
            assert_same_change(dga, morphism)
            assert ncopy_via_split(dga, n) == dga.change_coefficients(morphism)


def generated_morphisms(alg):
    """Maps out of the generated DGAs' algebras: into matrix algebras and
    the split inclusions."""
    ring = alg.ring
    morphisms = [CoefficientMorphism.split_inclusion(alg, 2)]
    if isinstance(alg, MatrixAlgebra):
        m4 = MatrixAlgebra(4, ring)
        morphisms += [CoefficientMorphism(alg, m4, images) for images in block_embeddings(alg, m4)]
        return morphisms
    m2 = MatrixAlgebra(2, ring)
    half = Fraction(1, 2) if ring == Q else 1
    scaled = matrix(m2, [[2 if ring == Q else 1, 1], [0, 1]])
    inverse = matrix(m2, [[half, -half], [0, 1]])
    if isinstance(alg, GroupRing):
        morphisms.append(CoefficientMorphism(alg, m2, {1: scaled, -1: inverse}))
    else:
        morphisms.append(CoefficientMorphism(alg, m2, {1: scaled}))
    return morphisms


@settings(max_examples=15, deadline=None)
@given(generated_dgas(), st.integers(0, 3))
def test_generated_dgas(instance, pick):
    dga, _augs = instance
    morphisms = generated_morphisms(dga.algebra)
    assert_same_change(dga, morphisms[pick % len(morphisms)])
