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
from ncdga.ainfinity import _candidate_buckets

from conftest import TREFOIL_SOURCE, _prepare, element_of, vector_of
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


def unpruned_candidate_patterns(dga, augs, n):
    """Reference: an inner placement's survivors spliced into an outer
    one's at input i, for every split into an inner operation of arity
    l >= 1 at input i of an outer one of arity n + 1 - l, past the longest
    word of d too."""
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


def split_candidate_patterns(dga, augs, n):
    """Reference: the split join, reading only the splits whose inner arity
    l and outer arity n + 1 - l are both at most the longest word of d,
    with the outer matches indexed by their generator at the split's
    slot."""
    eps = tuple(augs)
    patterns = set()
    longest = dga.max_word_arity()
    for l in range(max(1, n + 1 - longest), min(n, longest) + 1):
        for i in range(1, n + 2 - l):
            inner = walked_pattern_matches(dga, eps[i - 1 : i + l], l)
            outer = walked_pattern_matches(dga, eps[:i] + eps[i + l - 1 :], n + 1 - l)
            by_slot = {}
            for pat_out, _name in outer:
                by_slot.setdefault(pat_out[i - 1], []).append(pat_out)
            for pat_in, name_in in inner:
                for pat_out in by_slot.get(name_in, ()):
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


# with x = y = 1 a placement may skip the whole word x*y of d t or d b, so
# only the rule that a candidate keeps a letter of the spliced word leaves
# (z,) out at arity one; and a block reading the next tuple entry's map
# would let the x of x*y survive where only the y may.  The trivial map is
# no augmentation of it, but candidates are structural and read only which
# letters a map has a value for
SKIPPED_WORD_SOURCE = """\
ring Z2
algebra free
grading mod 0
gen x deg 0
gen y deg 0
gen z deg 0
gen t deg 1
gen b deg 1
gen c deg 2
d t = x*y + 1
d b = x*y + 1
d c = t*z + b*z
"""


@pytest.fixture(scope="module")
def candidate_cases(toy, toy_h, toy_h_augmentations, q_corpus, q_corpus_augmented):
    """(DGA, maps) pairs whose tuples the candidate tests walk."""
    shifted, q_augs = _q_augmentations(q_corpus_augmented)
    toy_augs = [Augmentation.trivial(toy), Augmentation(toy, {"c4": toy.algebra.unit()})]
    skipped = parse_dga(SKIPPED_WORD_SOURCE)
    unit = skipped.algebra.unit()
    return [
        (skipped, [Augmentation.trivial(skipped), Augmentation(skipped, {"x": unit, "y": unit})]),
        (toy, toy_augs),
        (toy_h, toy_h_augmentations),
        (q_corpus, [Augmentation.trivial(q_corpus)]),
        (shifted, q_augs),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_candidate_patterns_match_walk(candidate_cases, n):
    for dga, augs in candidate_cases:
        for eps in _tuples(augs, n):
            assert candidate_patterns(dga, eps, n) == unpruned_candidate_patterns(dga, eps, n)
    skipped, augs = candidate_cases[0]
    assert candidate_patterns(skipped, (augs[1],) * 2, 1) == []
    assert ("x", "z") in candidate_patterns(skipped, (augs[1],) * 3, 2)


def one_walk_gives_each_arity(dga, cycled, max_arity):
    """The buckets of one walk over ``cycled`` give, at every arity n, the
    candidates of arity n's own tuple, the prefix of length n + 1."""
    buckets = _candidate_buckets(dga, cycled, max_arity)
    for n in range(1, max_arity + 1):
        eps = cycled[: n + 1]
        assert candidate_patterns(dga, eps, n, buckets) == candidate_patterns(dga, eps, n)
    assert not set(buckets) - set(range(1, max_arity + 1))


def test_one_walk_gives_every_arity(candidate_cases):
    """One walk per tuple, shared by the arities as verify_ainfty shares it."""
    for dga, augs in candidate_cases:
        for cycled in _tuples(augs, 6):
            one_walk_gives_each_arity(dga, cycled, 6)


@settings(max_examples=8, deadline=None)
@given(generated_dgas())
def test_candidate_patterns_match_walk_on_generated_dgas(instance):
    """Every tuple of the trivial map and the generated augmentation, on
    the generated DGA and its broken copies; one walk over each mixed
    cyclic tuple gives every arity's candidates, as in verify_ainfty."""
    for dga, augs in variants(*instance):
        for n in range(1, 4):
            for eps in itertools.product(augs, repeat=n + 1):
                expected = unpruned_candidate_patterns(dga, eps, n)
                assert candidate_patterns(dga, eps, n) == expected
        for cycled in itertools.product(augs, repeat=3):
            one_walk_gives_each_arity(dga, (cycled * 3)[:7], 6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_candidate_patterns_match_unpruned_loop(
    toy_h, toy_h_augmentations, q_corpus_augmented, n
):
    """Words of d have at most two letters in the toy and three in the
    trefoil and the q corpus, so from arity 2 or 3 on the split join skips
    some splits, and from arity 4 or 6 on every split."""
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
            assert patterns == split_candidate_patterns(dga, eps, n)
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
