"""Mechanical oracles on generated DGAs: the print -> parse round trip,
and the adjoint formula against the brute-force transpose.

``parse_dga(print_dga(dga))`` must give the DGA back, on generated DGAs and
their broken copies, over Z2, Z3 and Q.  ``adjoint_formula`` must agree
with ``adjoint_bruteforce``, which reads the transpose of
id^k x f x id^l off every source word whose slots are at most a small
bound long, for f the augmented components of a generated DGA over a
hermitian algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    TensorElement,
    adjoint_bruteforce,
    adjoint_formula,
    parse_dga,
    print_dga,
)
from ncdga.augmentation import augmented_components
from ncdga.tensor import TensorWord

from test_relation import GENERATED_SCALARS, generated_dgas, variants


@settings(max_examples=15, deadline=None)
@given(generated_dgas(("Z2", "Z3", "Q")))
def test_print_parse_round_trip_on_generated_dgas(instance):
    for dga, _augs in variants(*instance):
        text = print_dga(dga)
        assert parse_dga(text) == dga
        assert print_dga(parse_dga(text)) == text


def _input(draw, alg, gens):
    """One or two words on ``gens`` with slots of length at most one and
    scalars of the generated DGAs."""
    words = st.sampled_from(list(alg.words(1)))
    scalars = st.sampled_from(GENERATED_SCALARS[alg.ring.name])
    terms: dict = {}
    for _ in range(draw(st.integers(1, 2))):
        word = TensorWord(tuple(draw(words) for _ in range(len(gens) + 1)), gens)
        alg.ring.add_term(terms, word, alg.ring.coerce(draw(scalars)))
    return TensorElement(alg, terms)


@settings(max_examples=10, deadline=None)
@given(generated_dgas(("Z2", "Z3", "Q")), st.data())
def test_adjoint_formula_matches_bruteforce_on_generated_dgas(instance, data):
    """The arity-1 and arity-2 components for a drawn augmentation tuple,
    against inputs on the generators of one of their words, widened by a
    generator on either side over matrix 2.  Over the group ring the
    brute force enumerates the slots up to the longest input slot plus the
    longest image slot, so components with slots past two letters are not
    checked."""
    dga, augs = instance
    alg = dga.algebra
    if not alg.hermitian:
        return
    for n in (1, 2):
        eps = tuple(data.draw(st.sampled_from(augs)) for _ in range(n + 1))
        components = augmented_components(dga, eps, n)
        image_words = sorted(
            (tw for value in components.values() for tw in value.terms), key=repr
        )
        if not image_words:
            continue
        longest = max(alg.word_len(w) for tw in image_words for w in tw.coeffs)
        if longest > 2:
            continue
        bound = alg.product_len_bound(1, longest)
        splits = [(0, 0)]
        if alg.kind == "matrix" and n == 1:
            splits += [(1, 0), (0, 1)]
        for k, l in splits:
            middle = data.draw(st.sampled_from(image_words)).gens
            outer = [data.draw(st.sampled_from(dga.names)) for _ in range(k + l)]
            y = _input(data.draw, alg, tuple(outer[:k]) + middle + tuple(outer[k:]))
            expected = adjoint_bruteforce(components, k, l, y, dga.names, bound)
            assert adjoint_formula(components, k, l, y) == expected
