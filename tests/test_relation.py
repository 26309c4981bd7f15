"""The composed A-infinity relation against the split-by-split sum.

``ainfty_residual_case1/2`` and ``verify_ainfty`` evaluate one composed
element per arity.  The oracle below evaluates every split of the relation
as an inner operation feeding an outer one and sums the signed results, the
way the relation is written down.  The two must agree on every input,
including the failing ones, so the DGAs are also checked with one
differential dropped.
"""

import itertools
import random

import pytest

from ncdga import (
    Augmentation,
    DualElement,
    TensorElement,
    ainfty_residual_case1,
    ainfty_residual_case2,
    builtin_source,
    candidate_patterns,
    default_coeff_pool,
    parse_dga,
    tensor_product,
    verify_ainfty,
)
from ncdga import ainfinity
from ncdga.ainfinity import _evaluate_case1, _evaluate_case2, _relation, augmented_components
from ncdga.dga import SemifreeDGA
from ncdga.errors import ArityMismatchError
from ncdga.report import Report

MAX_ARITY = 3

# toy_h over Q: d c3 changes sign so that d^2 = 0 holds without Z2
TOY_H_Q_SOURCE = (
    builtin_source("toy-hermitian")
    .replace("ring Z2", "ring Q")
    .replace("d c3 = c5*", "d c3 = -c5*")
)


# -- the split-by-split oracle ----------------------------------------------


def split_by_split_relation(dga, augs, n):
    """(l, i, inner components, outer components) for every split."""
    eps = tuple(augs)
    return [
        (
            l,
            i,
            augmented_components(dga, eps[i - 1 : i + l], l),
            augmented_components(dga, eps[:i] + eps[i + l - 1 :], n + 1 - l),
        )
        for l in range(1, n + 1)
        for i in range(1, n + 2 - l)
    ]


def dual_degree(dga, m):
    degrees = {dga.degree(g) for g in m.terms}
    if len(degrees) != 1:
        raise ArityMismatchError("inhomogeneous functional in relation check")
    return degrees.pop()


def split_by_split_case1(dga, relation, inputs):
    total = DualElement.zero(dga.algebra)
    for l, i, inner_components, outer_components in relation:
        inner = _evaluate_case1(dga, inner_components, inputs[i - 1 : i - 1 + l])
        if inner.is_zero():
            continue
        outer_inputs = list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :])
        outer = _evaluate_case1(dga, outer_components, outer_inputs)
        parity = sum(dual_degree(dga, m) for m in inputs[: i - 1]) % 2
        total = total + (outer.scale(-1) if parity else outer)
    return total


def split_by_split_case2(dga, relation, inputs):
    total = TensorElement.zero(dga.algebra)
    for l, i, inner_components, outer_components in relation:
        inner = _evaluate_case2(
            dga, inner_components, tensor_product(inputs[i - 1 : i - 1 + l])
        )
        if inner.is_zero():
            continue
        spliced = tensor_product(list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :]))
        if spliced.is_zero():
            continue
        outer = _evaluate_case2(dga, outer_components, spliced)
        parity = sum(dga.element_degree(m) or 0 for m in inputs[: i - 1]) % 2
        total = total + (outer.scale(-1) if parity else outer)
    return total


def split_by_split_report(dga, objects, case, max_arity):
    """``verify_ainfty`` over candidate patterns and the default pool, with
    every residual summed split by split."""
    alg = dga.algebra
    pool = default_coeff_pool(alg)
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        relation = split_by_split_relation(dga, eps, n)
        for pattern in candidate_patterns(dga, eps, n):
            for coeffs in itertools.product(pool, repeat=n if case == "I" else n - 1):
                if case == "I":
                    inputs = [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
                else:
                    inputs = [
                        TensorElement.generator(alg, g) * TensorElement.from_algebra(b)
                        for g, b in zip(pattern, coeffs)
                    ] + [TensorElement.generator(alg, pattern[-1])]
                if any(m.is_zero() for m in inputs):
                    continue
                if case == "I":
                    residual = split_by_split_case1(dga, relation, inputs)
                    listed = ", ".join(str(m) for m in inputs)
                else:
                    residual = split_by_split_case2(dga, relation, inputs)
                    listed = " (x) ".join(str(m) for m in inputs)
                report.record(
                    residual.is_zero(), f"arity {n}, inputs {listed}: residual {residual}"
                )
    return report


# -- the corpus -------------------------------------------------------------


def dropped(dga, name):
    differential = {k: v for k, v in dga.differential.items() if k != name}
    return SemifreeDGA(dga.algebra, dga.generators, differential, dga.modulus)


def on(dga, augs):
    """The augmentations into the coefficients carried over to a DGA with
    the same generators, over an algebra with the same words."""
    return [
        Augmentation(dga, {g: dga.algebra.from_terms(v.terms.items()) for g, v in aug.values.items()})
        for aug in augs
    ]


@pytest.fixture(scope="module")
def corpus(toy, toy_h, toy_h_augmentations, q_corpus, q_corpus_augmented):
    """(label, case, DGA, augmentations) over Z2 and Q; every case I DGA
    is over a free algebra, every case II one over a group ring."""
    toy_h_q = parse_dga(TOY_H_Q_SOURCE)
    shifted, eps = q_corpus_augmented
    return [
        ("toy", "I", toy, [Augmentation.trivial(toy)]),
        ("toy_h", "I", toy_h, toy_h_augmentations),
        ("toy_h", "II", toy_h, toy_h_augmentations),
        ("toy_h_q", "II", toy_h_q, on(toy_h_q, toy_h_augmentations)),
        ("q_corpus", "I", q_corpus, [Augmentation.trivial(q_corpus)]),
        ("q_corpus_augmented", "I", shifted, [eps, Augmentation.trivial(shifted)]),
    ]


def broken_corpus(corpus):
    """Every corpus entry with the differential of one generator dropped."""
    for label, case, dga, augs in corpus:
        for name in dga.differential:
            broken = dropped(dga, name)
            yield f"{label} without d {name}", case, broken, on(broken, augs)


def random_inputs(dga, case, pattern, rng):
    """Inputs on ``pattern`` decorated by random pool elements, with random
    scalars over Q."""
    alg = dga.algebra
    pool = default_coeff_pool(alg)

    def coefficient():
        b = rng.choice(pool)
        return b if alg.ring.name == "Z2" else b.scale(rng.choice([1, -1, 2, -3]))

    if case == "I":
        return [DualElement.term(coefficient(), g) for g in pattern]
    return [
        TensorElement.generator(alg, g) * TensorElement.from_algebra(coefficient())
        for g in pattern[:-1]
    ] + [TensorElement.generator(alg, pattern[-1])]


def checked_tuples(dga, augs, case, rng):
    """Per arity, a random augmentation tuple and input tuples: every
    candidate pattern and a few arbitrary ones, each randomly decorated
    three times."""
    for n in range(1, MAX_ARITY + 1):
        eps = tuple(rng.choice(augs) for _ in range(n + 1))
        patterns = candidate_patterns(dga, eps, n)
        patterns += [tuple(rng.choice(dga.names) for _ in range(n)) for _ in range(5)]
        for pattern in patterns:
            for _ in range(3):
                yield n, eps, random_inputs(dga, case, pattern, rng)


def residuals(dga, augs, case, inputs):
    """(composed residual, split-by-split residual)."""
    relation = split_by_split_relation(dga, augs, len(inputs))
    if case == "I":
        return (
            ainfty_residual_case1(dga, augs, inputs),
            split_by_split_case1(dga, relation, inputs),
        )
    return (
        ainfty_residual_case2(dga, augs, inputs),
        split_by_split_case2(dga, relation, inputs),
    )


# -- the tests ----------------------------------------------------------------


def test_residuals_match_the_split_by_split_sum(corpus):
    rng = random.Random(5)
    nonzero = 0
    for label, case, dga, augs in corpus + list(broken_corpus(corpus)):
        for n, eps, inputs in checked_tuples(dga, augs, case, rng):
            composed, split_by_split = residuals(dga, eps, case, inputs)
            assert composed == split_by_split, (label, case, n, inputs)
            nonzero += not composed.is_zero()
    # the failing path is exercised, not only the vanishing one
    assert nonzero > 100


def test_reports_on_broken_dgas_match_the_split_by_split_reports(corpus):
    failing = 0
    for label, case, dga, augs in broken_corpus(corpus):
        report = verify_ainfty(dga, augs, case, MAX_ARITY)
        expected = split_by_split_report(dga, augs, case, MAX_ARITY)
        assert (report.checks, report.violations) == (expected.checks, expected.violations), label
        failing += not report.ok
    assert failing >= 15


def test_composed_relation_is_zero_exactly_when_d_squared_is(corpus):
    for label, case, dga, augs in corpus:
        for n in range(1, MAX_ARITY + 1):
            eps = tuple(augs[j % len(augs)] for j in range(n + 1))
            assert _relation(dga, eps, n) == {}, (label, n)
    assert any(
        _relation(dga, tuple(augs[j % len(augs)] for j in range(n + 1)), n)
        for _label, _case, dga, augs in broken_corpus(corpus)
        for n in range(1, MAX_ARITY + 1)
    )


def test_composed_relation_words_lie_in_candidate_patterns(corpus):
    rng = random.Random(7)
    words = 0
    for label, _case, dga, augs in broken_corpus(corpus):
        for n in range(1, MAX_ARITY + 1):
            eps = tuple(rng.choice(augs) for _ in range(n + 1))
            candidates = set(candidate_patterns(dga, eps, n))
            for name, value in _relation(dga, eps, n).items():
                for tw in value.terms:
                    assert tw.arity == n
                    assert tw.gens in candidates, (label, n, name, tw.gens)
                    words += 1
    assert words > 0


def test_inhomogeneous_inputs_are_extended_multilinearly(q_corpus, toy_h):
    """A sum of inputs of different degrees gets the sign of each word, so
    the residual is the sum of the residuals of its homogeneous parts."""
    broken = dropped(q_corpus, "u1")
    triv = (Augmentation.trivial(broken),) * 4
    one = broken.algebra.unit()
    odd, even = DualElement.term(one, "x1"), DualElement.term(one.scale(2), "y0")
    rest = [DualElement.term(one, "x1"), DualElement.term(one, "y0")]
    mixed = ainfty_residual_case1(broken, triv, [odd + even] + rest)
    parts = [ainfty_residual_case1(broken, triv, [m] + rest) for m in (odd, even)]
    assert not parts[0].is_zero() and not parts[1].is_zero()
    assert mixed == parts[0] + parts[1]

    broken_h = dropped(parse_dga(TOY_H_Q_SOURCE), "c3")
    eps = (Augmentation.trivial(broken_h),) * 3
    c = {name: broken_h.generator(name) for name in broken_h.names}
    first = [c["c5"] * TensorElement.from_algebra(broken_h.algebra.element((2, 1))), c["c2"]]
    mixed = ainfty_residual_case2(broken_h, eps, [first[0] + first[1], c["c4"]])
    parts = [ainfty_residual_case2(broken_h, eps, [x, c["c4"]]) for x in first]
    assert not (parts[0] + parts[1]).is_zero()
    assert mixed == parts[0] + parts[1]


# -- builds shared across one verify call --------------------------------------


def split_keys(objects, max_arity):
    """Per arity up to ``max_arity``, the set of (augmentation tuple,
    arity) that the splits of its relation read."""
    out = []
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        keys = set()
        for l in range(1, n + 1):
            for i in range(1, n + 2 - l):
                keys |= {(eps[i - 1 : i + l], l), (eps[:i] + eps[i + l - 1 :], n + 1 - l)}
        out.append(keys)
    return out


def test_verify_builds_each_component_once_per_call(toy, toy_h, toy_h_augmentations, monkeypatch):
    builds = []

    def counting(dga, augs, n):
        builds.append((tuple(augs), n))
        return augmented_components(dga, augs, n)

    monkeypatch.setattr(ainfinity, "augmented_components", counting)
    trivial = [Augmentation.trivial(toy)]
    # building per arity would make 1 + 2 + 3 + 4 builds
    assert sum(len(keys) for keys in split_keys(trivial, 4)) == 10
    for exhaustive in (False, True):
        builds.clear()
        assert verify_ainfty(toy, trivial, "I", 4, exhaustive=exhaustive).ok
        assert sorted(n for _eps, n in builds) == [1, 2, 3, 4]
    objects = toy_h_augmentations[1:]
    shared = set().union(*split_keys(objects, 4))
    assert len(shared) < sum(len(keys) for keys in split_keys(objects, 4))
    for case in ("I", "II"):
        builds.clear()
        assert verify_ainfty(toy_h, objects, case, 4).ok
        assert len(builds) == len(set(builds)) and set(builds) == shared
    # a second call builds again: nothing is kept across calls
    verify_ainfty(toy_h, objects, "I", 4)
    assert len(builds) == 2 * len(shared)


def test_shared_builds_leave_reports_unchanged(corpus, monkeypatch):
    """The reports on every broken DGA, with each corpus tuple and with
    two-object cyclic tuples, equal those of a verify run that builds
    every arity's relation and patterns afresh."""

    def reports():
        out = []
        for label, case, dga, augs in broken_corpus(corpus):
            for objects in [augs] + [list(pair) for pair in itertools.permutations(augs[:3], 2)]:
                report = verify_ainfty(dga, objects, case, MAX_ARITY)
                out.append((label, report.checks, report.ok, report.violations))
        return out

    shared = reports()
    relation, patterns = ainfinity._relation, ainfinity.candidate_patterns
    monkeypatch.setattr(ainfinity, "_relation", lambda dga, eps, n, _: relation(dga, eps, n))
    monkeypatch.setattr(
        ainfinity, "candidate_patterns", lambda dga, eps, n, _: patterns(dga, eps, n)
    )
    assert shared == reports()
    assert sum(not ok for _label, _checks, ok, _violations in shared) >= 15
