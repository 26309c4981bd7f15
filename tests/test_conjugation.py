"""Conjugation by automorphisms of the tensor algebra, and its invariance.

``SemifreeDGA.conjugate`` and ``invert_substitution`` splice the images of
the generators an automorphism moves into the words that contain them and
copy every other letter with its slots.  The oracle is the whole-word
expansion they replaced, :func:`whole_word_substitute`: every word
multiplied out as the tensor product of its slots and the images of all
its letters, with the fixpoint iteration, the two-sided check and the new
differentials taken over every generator.

The invariance oracle: a tame isomorphism carries augmentations to
augmentations and keeps bilinearised homology (Chekanov, *Differential
algebra of Legendrian links*; Bourgeois-Chantraine, arXiv:1210.7367).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    CoefficientMorphism,
    SemifreeDGA,
    TensorElement,
    bilinearized_complex,
    enumerate_augmentations,
    homology,
    parse_dga,
    substitute,
    tensor_product,
)
from ncdga.errors import DegreeUnknownError, NotInvertibleError

from conftest import Q_BASE_SOURCE, TREFOIL_SOURCE
from test_relation import elementary_images, generated_dgas, pulled_back
from test_source_components import _morphism, _moved_augmentations


def whole_word_substitute(x, images):
    """The image of ``x`` under the algebra endomorphism the images of all
    its letters give: each word multiplied out as the tensor product of its
    slots and its letters' images."""
    alg, ring = x.algebra, x.algebra.ring
    out: dict = {}
    for tw, c in x.terms.items():
        factors = [alg.element(tw.coeffs[0])]
        for gen, word in zip(tw.gens, tw.coeffs[1:]):
            image = images.get(gen)
            if image is None:
                raise DegreeUnknownError(f"no image for generator {gen}")
            factors += [image, alg.element(word)]
        for w, v in tensor_product(factors, alg).terms.items():
            ring.add_term(out, w, ring.mul(c, v))
    return TensorElement(alg, out)


def whole_word_inverse(dga, images):
    """The inverse images of every generator: the fixpoint iteration and
    the two-sided check, both over every generator."""
    phi = {name: images.get(name, dga.generator(name)) for name in dga.names}
    offsets = {name: phi[name] - dga.generator(name) for name in dga.names}
    inverse = {name: dga.generator(name) for name in dga.names}
    for _ in range(len(dga.names) + 2):
        updated = {
            name: dga.generator(name) - whole_word_substitute(offsets[name], inverse)
            for name in dga.names
        }
        if updated == inverse:
            break
        inverse = updated
    for name in dga.names:
        generator = dga.generator(name)
        if (
            whole_word_substitute(phi[name], inverse) != generator
            or whole_word_substitute(inverse[name], phi) != generator
        ):
            raise NotInvertibleError(f"substitution is not invertible at {name}")
    return inverse


def whole_word_conjugate(dga, images):
    """phi^-1 o d o phi, with d(phi(c)) pushed through the inverse for
    every generator c."""
    phi = {name: images.get(name, dga.generator(name)) for name in dga.names}
    inverse = whole_word_inverse(dga, images)
    differential = {
        name: whole_word_substitute(dga.d(phi[name]), inverse) for name in dga.names
    }
    return SemifreeDGA(dga.algebra, dga.generators, differential, dga.modulus)


def assert_matches_whole_word_expansion(dga, images):
    """``invert_substitution``, ``conjugate`` and ``substitute`` against the
    whole-word expansion; a map that is not invertible must be refused by
    both.  Returns whether it was invertible."""
    try:
        expected = whole_word_inverse(dga, images)
    except NotInvertibleError:
        with pytest.raises(NotInvertibleError):
            dga.invert_substitution(images)
        with pytest.raises(NotInvertibleError):
            dga.conjugate(images)
        return False
    inverse = dga.invert_substitution(images)
    assert inverse == expected
    conjugated = dga.conjugate(images)
    assert conjugated == whole_word_conjugate(dga, images)
    assert conjugated.conjugate(inverse) == dga
    phi = {name: images.get(name, dga.generator(name)) for name in dga.names}
    for x in [*dga.differential.values(), *conjugated.differential.values(), *phi.values()]:
        for full in (phi, inverse):
            assert substitute(x, full) == whole_word_substitute(x, full)
    return True


@settings(max_examples=20, deadline=None)
@given(generated_dgas(), st.data())
def test_generated_conjugations_match_whole_word_expansion(instance, data):
    """One elementary automorphism of a generated DGA, and two merged into
    one map, which moves two generators at once (words then have several
    letters to replace) and may not be invertible."""
    dga, _augs = instance
    images = data.draw(elementary_images(dga))
    assert assert_matches_whole_word_expansion(dga, images)
    images.update(data.draw(elementary_images(dga)))
    assert_matches_whole_word_expansion(dga, images)


def test_q_corpus_conjugations_match_whole_word_expansion(q_corpus):
    """The conjugations that build ``q_corpus`` and ``q_corpus_augmented``,
    and one that moves u1, x2 and u4 at once."""
    base = parse_dga(Q_BASE_SOURCE)
    g1 = base.algebra.element((1,))

    def word(dga, *factors):
        return tensor_product(
            [dga.generator(f) if isinstance(f, str) else f for f in factors], dga.algebra
        )

    step1 = {"u1": base.generator("u1") + word(base, "x1", g1, "x1") + word(base, "x1", "u4", "x1")}
    assert assert_matches_whole_word_expansion(base, step1)
    moved = base.conjugate(step1)
    step2 = {"x2": moved.generator("x2") + moved.generator("u1")}
    assert assert_matches_whole_word_expansion(moved, step2)
    assert moved.conjugate(step2) == q_corpus
    one = TensorElement.from_scalar(q_corpus.algebra, 1)
    shift = {"u4": q_corpus.generator("u4") + one}
    assert assert_matches_whole_word_expansion(q_corpus, shift)
    assert assert_matches_whole_word_expansion(q_corpus, {**step1, **step2, **shift})


def test_maps_naming_an_unknown_generator_are_refused(toy):
    images = {"zz": toy.generator("c1")}
    with pytest.raises(DegreeUnknownError, match="zz"):
        toy.conjugate(images)
    with pytest.raises(DegreeUnknownError, match="zz"):
        toy.invert_substitution(images)


def test_substitute_needs_an_image_of_every_letter(toy):
    images = {name: toy.generator(name) for name in toy.names if name != "c4"}
    x = toy.d_of_generator("c1")  # c2*g1*c4 + c3
    with pytest.raises(DegreeUnknownError, match="c4"):
        substitute(x, images)
    identity = CoefficientMorphism.identity(toy.algebra)
    with pytest.raises(DegreeUnknownError, match="c4"):
        substitute(x, images, identity, toy.algebra)
    images["c4"] = toy.generator("c4")
    assert substitute(x, images) == x


def assert_same_bilinearised_homology(dga, augs, conjugated, pulled):
    """Equal homology dimensions in every degree for every ordered pair of
    the augmentations and of their pull-backs, in both cases."""
    pairs = zip(itertools.product(augs, repeat=2), itertools.product(pulled, repeat=2))
    for (e0, e1), (f0, f1) in pairs:
        for case in ("I", "II"):
            expected = homology(bilinearized_complex(dga, e0, e1, case)).dims
            assert homology(bilinearized_complex(conjugated, f0, f1, case)).dims == expected


@settings(max_examples=12, deadline=None)
@given(generated_dgas(), st.data())
def test_tame_isomorphism_keeps_bilinearised_homology(instance, data):
    """A generated DGA with its augmentations moved into ``matrix 2``,
    conjugated by one more elementary automorphism phi, with the
    augmentations pulled back along phi, in both cases.

    Why the dimensions agree.  Let f be a unital, degree-preserving DGA
    morphism from (A, d') to (B, d), so d f = f d', and let e0, e1 be
    augmentations of B.  Write p for the arity-one augmented component of
    (e0, e1): on a word, the sum over its letters c of the word with c
    kept, every letter before c replaced by its e0 value and every letter
    after it by its e1 value (coefficient slots through the coefficient
    map).  Write p' for that of the pull-backs (e0 f, e1 f).
      1. p(x y) = p(x) e1(y) + e0(x) p(y), and p is the identity on a
         generator.  So p o d = D o p, with D the bilinearised differential
         D(c) = p(d c) extended over the coefficients: the Leibniz sign of
         e0(x) p(d y) is (-1)^|x| = 1 whenever e0(x) is nonzero, and the
         terms e0(d x) and e1(d y) vanish.
      2. p o f = F o p', with F = p o f on generators extended over the
         coefficients, by induction on words with the rule of 1 and
         e(f(y)) = (e f)(y).
      3. D F = D p f = p d f = p f d' = F p' d' = F D' on generators, so F
         is a chain map of degree 0 between the two bilinearised complexes.
      4. With g = f^-1 and G = p' o g, rule 2 for g gives
         G(F(c)) = p'(g(f(c))) = c, and likewise F G = id.
    So F is an isomorphism of complexes.  Here f = phi, A = B as algebras,
    d' is the conjugated differential phi^-1 d phi, and the complexes of
    case I and case II are both built on p, read in their own bases."""
    dga, augs = instance
    morphism = _morphism(dga.algebra, "matrix 2")
    moved = _moved_augmentations(augs, morphism)
    # a map that moves y0 or u shifts it by a coefficient, which changes
    # the augmentations' values; any other leaves them as they are
    name = data.draw(st.sampled_from([None, "y0", "u"]))
    conjugated, pulled = pulled_back(dga, moved, data.draw(elementary_images(dga, name)))
    assert all(aug.check().ok for aug in pulled)
    assert_same_bilinearised_homology(dga, moved, conjugated, pulled)


def test_tame_isomorphism_keeps_the_trefoil_homology():
    """All 25 ordered pairs of the trefoil's five augmentations into Z2,
    pulled back along an automorphism that moves a degree-0 and a degree-1
    generator; the derivation is in the generated test above."""
    trefoil = parse_dga(TREFOIL_SOURCE)
    augs = enumerate_augmentations(trefoil)
    assert len(augs) == 5
    one = TensorElement.from_scalar(trefoil.algebra, 1)
    a1, a2, a3, b1, b2 = (trefoil.generator(g) for g in ("a1", "a2", "a3", "b1", "b2"))
    images = {"a2": a2 + a1 * a3 + one, "b1": b1 + a1 * b2}
    conjugated, pulled = pulled_back(trefoil, augs, images)
    assert conjugated != trefoil
    assert all(aug.check().ok for aug in pulled)
    assert_same_bilinearised_homology(trefoil, augs, conjugated, pulled)
