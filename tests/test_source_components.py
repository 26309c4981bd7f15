"""The augmented components read off the source DGA's words, against the
DGA with its coefficients changed.

``augmented_components`` passes each coefficient word of a source word
through the augmentations' shared coefficient morphism and coerces the
word's scalar into the target's ring.  The oracle moves everything over
the target first: ``_prepare`` changes the DGA's coefficients and rebuilds
the augmentations over the copy, whose morphism is the identity, and a
test-local move writes an arbitrary element's words out with
``tensor_product``, every generator as the sum of u g v over pairs of the
target's unit words.  The two must agree as term maps at arities 0 to 2,
on the differential and on arbitrary elements, and so must the complexes
built from them.  Generated DGAs over ``matrix 2``, ``group free 1`` and
``free g1`` are moved into ``matrix 2``, ``matrix 3`` and ``split 2 matrix
2``, over Z2 and Q; a DGA over Z is moved into Z3 and Q."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncdga import (
    Augmentation,
    CoefficientMorphism,
    MatrixAlgebra,
    SplitAlgebra,
    TensorElement,
    bilinearized_complex,
    parse_augmentation,
    parse_dga,
    tensor_product,
)
from ncdga.augmentation import _prepare, augmented_components
from ncdga.homology import _complex

from test_relation import GENERATED_SCALARS, generated_dgas

TARGETS = ["matrix 2", "matrix 3", "split 2 matrix 2"]


def _matrix(alg, rows, block=None):
    """The matrix ``rows`` in ``alg``, in summand ``block`` of a split algebra."""
    terms = []
    for i, row in enumerate(rows, 1):
        for j, c in enumerate(row, 1):
            if c:
                terms.append((((i, j) if block is None else (block, (i, j))), c))
    return alg.from_terms(terms)


def _target(kind, ring):
    """(target algebra, an invertible G with its inverse, a singular X)."""
    if kind == "matrix 2":
        alg = MatrixAlgebra(2, ring)
        g, g_inv = _matrix(alg, [[1, 1], [0, 1]]), _matrix(alg, [[1, -1], [0, 1]])
        return alg, g, g_inv, _matrix(alg, [[1, 1], [0, 0]])
    if kind == "matrix 3":
        alg = MatrixAlgebra(3, ring)
        g = _matrix(alg, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        g_inv = _matrix(alg, [[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        return alg, g, g_inv, _matrix(alg, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]) + g
    alg = SplitAlgebra(MatrixAlgebra(2, ring), 2)
    g = _matrix(alg, [[1, 1], [0, 1]], 1) + _matrix(alg, [[1, 0], [1, 1]], 2)
    g_inv = _matrix(alg, [[1, -1], [0, 1]], 1) + _matrix(alg, [[1, 0], [-1, 1]], 2)
    return alg, g, g_inv, _matrix(alg, [[1, 1], [0, 0]], 2)


def _morphism(source, kind):
    """A unital morphism from ``source`` into the target ``kind``, or None
    when there is none (matrix 2 into matrix 3)."""
    target, g, g_inv, x = _target(kind, source.ring)
    assert g * g_inv == target.unit()
    if source.kind == "free":
        return CoefficientMorphism(source, target, {1: x})
    if source.kind == "group":
        return CoefficientMorphism(source, target, {1: g, -1: g_inv})
    if target.kind == "matrix" and target.n != source.n:
        return None
    # E_ij -> G E_ij G^-1; into the split algebra E_ij in summand 1 plus
    # G E_ij G^-1 in summand 2
    images = {}
    for w in source.words():
        if target.kind == "matrix":
            images[w] = g * target.element(w) * g_inv
        else:
            images[w] = target.element((1, w)) + g * target.element((2, w)) * g_inv
    return CoefficientMorphism(source, target, images)


def moved(morphism, x):
    """``x`` written over the morphism's target: each word's coefficient
    words replaced by their images and each generator g by the sum of u g v
    over pairs of the target's unit words, multiplied out."""
    target = morphism.target
    ring = target.ring
    out = TensorElement.zero(target)
    for tw, c in x.terms.items():
        parts = [morphism.apply(x.algebra.element(tw.coeffs[0]))]
        for gen, word in zip(tw.gens, tw.coeffs[1:]):
            parts += [TensorElement.generator(target, gen), morphism.apply(x.algebra.element(word))]
        out = out + tensor_product(parts, target).scale(ring.coerce(c))
    return out


def _moved_augmentations(augs, morphism):
    """The augmentations composed with the morphism: phi o eps."""
    return [
        Augmentation(aug.dga, {g: morphism.apply(v) for g, v in aug.values.items()}, morphism)
        for aug in augs
    ]


def assert_components_match_the_copy(dga, augs, images=None):
    """Source components against those of the copy, for every tuple of
    ``augs``: on the differential at arities 1 and 2 (at arity 0 both are
    eps(d c) = 0), or on ``images`` and their moved copies at arities 0 to
    2, where the arity-0 part is also :meth:`Augmentation.evaluate`."""
    base, copies = _prepare(dga, augs)
    morphism = augs[0].morphism
    copy_images = None if images is None else {g: moved(morphism, x) for g, x in images.items()}
    nonzero = 0
    for n in range(0 if images else 1, 3):
        for tuple_ in itertools.product(range(len(augs)), repeat=n + 1):
            got = augmented_components(dga, [augs[i] for i in tuple_], n, images)
            expected = augmented_components(base, [copies[i] for i in tuple_], n, copy_images)
            assert got == expected, (n, tuple_)
            nonzero += bool(got)
    for aug, copy in zip(augs, copies):
        for name, x in (images or {}).items():
            assert aug.evaluate(x) == copy.evaluate(copy_images[name])
    return nonzero


def assert_complexes_match_the_copy(dga, augs):
    """Both complexes of every pair, over matrix and split targets alike."""
    for e0, e1 in itertools.product(augs, repeat=2):
        base, (a0, a1) = _prepare(dga, [e0, e1])
        for case in ("I", "II"):
            cx = bilinearized_complex(dga, e0, e1, case)
            oracle = _complex(base, a0, a1, case)
            assert cx.basis == oracle.basis
            assert cx.blocks == oracle.blocks
            assert list(cx.cores) == list(oracle.cores)
            for key, core in cx.cores.items():
                for degree in cx.degrees():
                    assert core.matrix(degree) == oracle.cores[key].matrix(degree)


@st.composite
def images_of(draw, dga):
    """An element per generator: up to three words of arity 0 to 3 in the
    DGA's generators, with no regard for degrees."""
    alg = dga.algebra
    words = st.sampled_from(list(alg.words(2)))
    scalars = st.sampled_from(GENERATED_SCALARS["Q" if alg.ring.kind == "Q" else "Z2"])
    out = {}
    for name in dga.names:
        value = TensorElement.zero(alg)
        for _ in range(draw(st.integers(0, 3))):
            gens = draw(st.lists(st.sampled_from(["u", "y0", "x1", "v"]), max_size=3))
            parts = [alg.element(draw(words))]
            for gen in gens:
                parts += [dga.generator(gen), alg.element(draw(words))]
            value = value + tensor_product(parts, alg).scale(alg.ring.coerce(draw(scalars)))
        out[name] = value
    return out


def _copy_words(dga, morphism):
    """The words the coefficient change writes out before like words
    merge, an upper bound on the copy's words: per source word, the product
    of its slots' image sizes.  It is counted without building the copy,
    which for a long word over a dense target runs to billions of words."""
    count = 0
    for value in dga.differential.values():
        for tw in value.terms:
            count += math.prod(len(morphism.apply_word(a).terms) for a in tw.coeffs)
    return count


@settings(max_examples=12, deadline=None)
@given(generated_dgas(), st.sampled_from(TARGETS), st.data())
def test_generated_components_match_the_copy(instance, target, data):
    dga, augs = instance
    morphism = _morphism(dga.algebra, target)
    # the oracle walks every word of the copy, up to (terms of an image)^(arity
    # + 1) per source word: past a few thousand words an example takes seconds
    assume(morphism is not None and _copy_words(dga, morphism) <= 3000)
    moved_augs = _moved_augmentations(augs, morphism)
    assert all(aug.check().ok for aug in moved_augs)
    nonzero = assert_components_match_the_copy(dga, moved_augs)
    assert nonzero
    assert_components_match_the_copy(dga, moved_augs, data.draw(images_of(dga)))


@settings(max_examples=6, deadline=None)
@given(generated_dgas(), st.sampled_from(TARGETS))
def test_generated_complexes_match_the_copy(instance, target):
    dga, augs = instance
    morphism = _morphism(dga.algebra, target)
    assume(morphism is not None and _copy_words(dga, morphism) <= 3000)
    assert_complexes_match_the_copy(dga, _moved_augmentations(augs, morphism))


Z_XY = "ring Z\nalgebra free\ngrading mod 0\ngen a deg 1\ngen x deg 0\ngen y deg 0\nd a = 3*x*y - 3\n"


@pytest.mark.parametrize(
    "aug_texts",
    [
        ["target matrix 2 over Z3\nx = [[1,1],[0,1]]\ny = [[1,2],[0,1]]\n",
         "target matrix 2 over Z3\nx = [[0,1],[1,0]]\ny = [[0,1],[1,0]]\n"],
        ["target matrix 2 over Q\nx = [[2,1],[0,1]]\ny = [[1/2,-1/2],[0,1]]\n",
         "target matrix 2 over Q\nx = [[0,1],[1,0]]\ny = [[0,1],[1,0]]\n"],
    ],
    ids=["Z3", "Q"],
)
def test_integer_scalars_are_coerced_into_the_target(aug_texts):
    """Over Z3 the scalar 3 of d a is zero, and every map is an augmentation."""
    dga = parse_dga(Z_XY)
    augs = [parse_augmentation(text, dga) for text in aug_texts]
    assert all(aug.check().ok for aug in augs)
    x = dga.d_of_generator("a") + dga.generator("x")
    assert_components_match_the_copy(dga, augs, {"a": x, "x": x, "y": x})
    assert_complexes_match_the_copy(dga, augs)
