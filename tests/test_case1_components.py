"""Case I and the relation pruner read the eps-augmented components built by
``augmented_components``; here they are checked against the constructions
they replace: the augmented operation as a sum over block patterns of the
plain operation on inputs interleaved with augmentation duals, and the
candidate patterns as a walk over the same block patterns."""

import itertools

import pytest
from hypothesis import given, settings

from ncdga import (
    Augmentation,
    DualElement,
    Q,
    Z2,
    bilinearized_complex,
    candidate_patterns,
    mu_case1,
    mu_eps_case1,
    parse_dga,
)
from ncdga.ainfinity import _pattern_matches
from ncdga.homology import _prepare

from conftest import TREFOIL_SOURCE, element_of, vector_of
from test_case2_components import _compositions, _xy_augmentations
from test_relation import generated_dgas, variants


def word_mu_case1(dga, inputs):
    """Reference mu_n on functionals: every arity-n word of each d(c)
    whose generators match the inputs contributes a0 b1 a1 ... bn an."""
    alg = dga.algebra
    out = {}
    for name in dga.names:
        for tw, coeff in dga.d_component(name, len(inputs)).terms.items():
            acc = alg.element(tw.coeffs[0])
            for j, gen in enumerate(tw.gens):
                b = inputs[j].terms.get(gen)
                if b is None:
                    acc = None
                    break
                acc = acc * b * alg.element(tw.coeffs[j + 1])
            if acc is not None:
                out[name] = out.get(name, alg.zero()) + acc.scale(coeff)
    return DualElement(alg, out)


def interleaved_mu_eps_case1(dga, augs, inputs):
    """Reference: interleave every block pattern of the functionals
    eps_j(c_1) c_1 + ... between the inputs and sum the plain operation."""
    n = len(inputs)
    duals = [aug.dual() for aug in augs]
    total = DualElement.zero(dga.algebra)
    for arity in range(n, dga.max_word_arity() + 1):
        for comp in _compositions(arity - n, n + 1):
            if any(size > 0 and duals[j].is_zero() for j, size in enumerate(comp)):
                continue
            sequence = []
            for j in range(n):
                sequence.extend([duals[j]] * comp[j])
                sequence.append(inputs[j])
            sequence.extend([duals[n]] * comp[n])
            total = total + word_mu_case1(dga, sequence)
    return total


def walked_pattern_matches(dga, augs, l):
    """Reference: (survivor pattern, generator) for every differential word
    and block pattern whose blocks the augmentations do not kill."""
    out = set()
    for arity in range(l, dga.max_word_arity() + 1):
        comps = list(_compositions(arity - l, l + 1))
        for name in dga.names:
            for tw in dga.d_component(name, arity).terms:
                for comp in comps:
                    pos, survivors, ok = 0, [], True
                    for j, block in enumerate(comp):
                        for _ in range(block):
                            if tw.gens[pos] not in augs[j].values:
                                ok = False
                                break
                            pos += 1
                        if not ok:
                            break
                        if j < l:
                            survivors.append(tw.gens[pos])
                            pos += 1
                    if ok:
                        out.add((tuple(survivors), name))
    return out


def walked_candidate_patterns(dga, augs, n):
    eps = tuple(augs)
    patterns = set()
    for l in range(1, n + 1):
        k = n + 1 - l
        for i in range(1, k + 1):
            inner = walked_pattern_matches(dga, eps[i - 1 : i + l], l)
            outer = walked_pattern_matches(dga, eps[:i] + eps[i + l - 1 :], k)
            for pat_in, name_in in inner:
                for pat_out, _name in outer:
                    if pat_out[i - 1] == name_in:
                        patterns.add(pat_out[: i - 1] + pat_in + pat_out[i:])
    return sorted(patterns)


def _tuples(augs, n):
    """Each augmentation repeated, plus a few mixed tuples of length n + 1."""
    out = [(aug,) * (n + 1) for aug in augs]
    for shift in range(len(augs)):
        out.append(tuple(augs[(shift + j) % len(augs)] for j in range(n + 1)))
    return out


def _q_augmentations(q_corpus_augmented):
    shifted, eps = q_corpus_augmented
    return shifted, [Augmentation.trivial(shifted), eps]


# -- case I operations ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_toy_mu_eps_case1_matches_interleaving(toy_h, toy_h_augmentations, n):
    alg = toy_h.algebra
    units = [alg.unit()] * n
    words = [alg.element((1,))] + [alg.element((2, 1))] * (n - 1)
    for augs in _tuples(toy_h_augmentations, n):
        for pattern in itertools.product(toy_h.names, repeat=n):
            for coeffs in (units, words):
                inputs = [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
                expected = interleaved_mu_eps_case1(toy_h, augs, inputs)
                assert mu_eps_case1(toy_h, augs, inputs) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_mu_eps_case1_matches_interleaving(q_corpus, q_corpus_augmented, n):
    shifted, augs = _q_augmentations(q_corpus_augmented)
    cases = [(q_corpus, [Augmentation.trivial(q_corpus)]), (shifted, augs)]
    nonzero = 0
    for dga, dga_augs in cases:
        g1 = dga.algebra.element((1,))
        for eps in _tuples(dga_augs, n):
            for pattern in itertools.product(dga.names, repeat=n):
                inputs = [DualElement.term(g1.scale(j + 1), g) for j, g in enumerate(pattern)]
                value = mu_eps_case1(dga, eps, inputs)
                assert value == interleaved_mu_eps_case1(dga, eps, inputs)
                nonzero += not value.is_zero()
    assert nonzero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_case1_matches_word_reference(toy, q_corpus, n):
    for dga in (toy, q_corpus):
        alg = dga.algebra
        for pattern in itertools.product(dga.names, repeat=n):
            inputs = [DualElement.term(alg.element((1,)), g) for g in pattern]
            assert mu_case1(dga, inputs) == word_mu_case1(dga, inputs)


# -- candidate patterns ---------------------------------------------------


@pytest.fixture(scope="module")
def candidate_cases(toy, toy_h, toy_h_augmentations, q_corpus, q_corpus_augmented):
    """(DGA, augmentations) pairs whose tuples the candidate tests walk."""
    shifted, q_augs = _q_augmentations(q_corpus_augmented)
    toy_augs = [Augmentation.trivial(toy), Augmentation(toy, {"c4": toy.algebra.unit()})]
    return [
        (toy, toy_augs),
        (toy_h, toy_h_augmentations),
        (q_corpus, [Augmentation.trivial(q_corpus)]),
        (shifted, q_augs),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_candidate_patterns_match_walk(candidate_cases, n):
    for dga, augs in candidate_cases:
        for eps in _tuples(augs, n):
            assert candidate_patterns(dga, eps, n) == walked_candidate_patterns(dga, eps, n)
            for l in range(1, n + 1):
                assert _pattern_matches(dga, eps[: l + 1], l) == walked_pattern_matches(
                    dga, eps[: l + 1], l
                )


def test_shared_matches_give_the_fresh_candidates(candidate_cases):
    """One matches dict, holding the matches and their indexes by slot,
    shared by every arity and tuple on a DGA as verify_ainfty shares it."""
    for dga, augs in candidate_cases:
        shared: dict = {}
        for n in range(1, 6):
            for eps in _tuples(augs, n):
                assert candidate_patterns(dga, eps, n, shared) == candidate_patterns(dga, eps, n)


@settings(max_examples=8, deadline=None)
@given(generated_dgas())
def test_candidate_patterns_match_walk_on_generated_dgas(instance):
    """Every tuple of the trivial map and the generated augmentation, on
    the generated DGA and its broken copies; one matches dict is shared by
    all calls on a DGA, as verify_ainfty shares it across arities."""
    for dga, augs in variants(*instance):
        shared: dict = {}
        for n in range(1, 4):
            for eps in itertools.product(augs, repeat=n + 1):
                expected = walked_candidate_patterns(dga, eps, n)
                assert candidate_patterns(dga, eps, n) == expected
                assert candidate_patterns(dga, eps, n, shared) == expected
                for l in range(1, n + 1):
                    assert _pattern_matches(dga, eps[: l + 1], l) == walked_pattern_matches(
                        dga, eps[: l + 1], l
                    )


def unpruned_candidate_patterns(dga, augs, n):
    """candidate_patterns over every split (l, i), past the longest word of
    d too: the splits it skips add no pattern."""
    eps = tuple(augs)
    patterns = set()
    for l in range(1, n + 1):
        for i in range(1, n + 2 - l):
            inner = _pattern_matches(dga, eps[i - 1 : i + l], l)
            outer = _pattern_matches(dga, eps[:i] + eps[i + l - 1 :], n + 1 - l)
            for pat_in, name_in in inner:
                for pat_out, _name in outer:
                    if pat_out[i - 1] == name_in:
                        patterns.add(pat_out[: i - 1] + pat_in + pat_out[i:])
    return sorted(patterns)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_candidate_patterns_match_unpruned_loop(
    toy_h, toy_h_augmentations, q_corpus_augmented, n
):
    """Words of d have at most two letters in the toy and three in the
    trefoil and the q corpus, so from arity 2 or 3 on some splits are
    skipped, and from arity 4 or 6 on every split is."""
    shifted, q_augs = _q_augmentations(q_corpus_augmented)
    trefoil = parse_dga(TREFOIL_SOURCE)
    unit = trefoil.algebra.unit()
    cases = [
        (toy_h, toy_h_augmentations),
        (shifted, q_augs),
        (trefoil, [Augmentation(trefoil, {"a1": unit}), Augmentation(trefoil, {"a3": unit})]),
    ]
    found = 0
    for dga, augs in cases:
        for eps in _tuples(augs, n):
            patterns = candidate_patterns(dga, eps, n)
            assert patterns == unpruned_candidate_patterns(dga, eps, n)
            found += len(patterns)
    assert found or n > 4


# -- the case I complex ---------------------------------------------------


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
def test_case1_complex_matches_per_column_operations(ring):
    dga, e0, e1 = _xy_augmentations(ring)
    base, augs = _prepare(dga, [e0, e1])
    for pair in [(e0, e1), (e1, e0), (e0, e0)]:
        cx = bilinearized_complex(dga, *pair, "I")
        pair_augs = [augs[[e0, e1].index(e)] for e in pair]
        for degree, labels in cx.basis.items():
            matrix = cx.matrix(degree)
            target = cx._next(degree)
            for col in range(len(labels)):
                unit = [ring.one if i == col else ring.zero for i in range(len(labels))]
                chain = [element_of(cx, degree, unit)]
                expected = mu_eps_case1(base, pair_augs, chain)
                assert expected == interleaved_mu_eps_case1(base, pair_augs, chain)
                if target not in cx.basis:
                    assert expected.is_zero()
                    continue
                assert [row[col] for row in matrix] == vector_of(cx, target, expected)
