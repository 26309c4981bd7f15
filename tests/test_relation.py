"""The A-infinity relation read off d^2 against the split-by-split sum.

``ainfty_residual_case1/2`` and ``verify_ainfty`` evaluate one element per
arity, the augmented arity-n part of d^2.  The oracle below evaluates every
split of the relation as an inner operation feeding an outer one and sums
the signed results, the way the relation is written down.  The two must
agree on every input, including the failing ones, so the DGAs are also
checked with one differential dropped.  On generated DGAs the relation is
also compared, as an element, with the split composition
(``composed_relation``); the two differ only for maps that are not
augmentations, which the relation checks reject.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ncdga.ainfinity import (
    _evaluate,
    _evaluate_case1,
    _evaluate_case2,
    _relation,
    augmented_components,
)
from ncdga.dga import SemifreeDGA
from ncdga.errors import ArityMismatchError, InvalidAugmentationError, TupleLengthMismatchError
from ncdga.report import Report
from ncdga.tensor import _splice, split_terms

from conftest import XY_SOURCE

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
        inner = _evaluate_case1(dga.algebra, inner_components, inputs[i - 1 : i - 1 + l])
        if inner.is_zero():
            continue
        outer_inputs = list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :])
        outer = _evaluate_case1(dga.algebra, outer_components, outer_inputs)
        parity = sum(dual_degree(dga, m) for m in inputs[: i - 1]) % 2
        total = total + (outer.scale(-1) if parity else outer)
    return total


def split_by_split_case2(dga, relation, inputs):
    total = TensorElement.zero(dga.algebra)
    for l, i, inner_components, outer_components in relation:
        inner = _evaluate_case2(
            dga.algebra, inner_components, tensor_product(inputs[i - 1 : i - 1 + l])
        )
        if inner.is_zero():
            continue
        spliced = tensor_product(list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :]))
        if spliced.is_zero():
            continue
        outer = _evaluate_case2(dga.algebra, outer_components, spliced)
        parity = sum(dga.element_degree(m) or 0 for m in inputs[: i - 1]) % 2
        total = total + (outer.scale(-1) if parity else outer)
    return total


def pool_inputs(alg, case, pattern, coeffs):
    """A check's inputs: case I pool element times generator; case II
    generators joined by pool elements."""
    if case == "I":
        return [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
    return [
        TensorElement.generator(alg, g) * TensorElement.from_algebra(b)
        for g, b in zip(pattern, coeffs)
    ] + [TensorElement.generator(alg, pattern[-1])]


def split_by_split_report(dga, objects, case, max_arity, exhaustive=False):
    """``verify_ainfty`` over candidate patterns (every pattern with
    ``exhaustive`` or when no arity has a candidate) and the default pool,
    with every residual summed split by split."""
    alg = dga.algebra
    pool = default_coeff_pool(alg)
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        relation = split_by_split_relation(dga, eps, n)
        if exhaustive:
            patterns = itertools.product(dga.names, repeat=n)
        else:
            patterns = candidate_patterns(dga, eps, n)
        for pattern in patterns:
            for coeffs in itertools.product(pool, repeat=n if case == "I" else n - 1):
                inputs = pool_inputs(alg, case, pattern, coeffs)
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
    if not exhaustive and not report.checks:
        return split_by_split_report(dga, objects, case, max_arity, exhaustive=True)
    return report


def evaluated_report(dga, objects, case, max_arity):
    """``verify_ainfty`` with ``exhaustive`` as a plain loop: every pattern
    decorated by every pool tuple, and every check evaluated on the
    relation read off d^2, inside the relation's support or not."""
    alg = dga.algebra
    pool = default_coeff_pool(alg)
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        relation = _relation(dga, eps, n)
        for pattern in itertools.product(dga.names, repeat=n):
            for coeffs in itertools.product(pool, repeat=n if case == "I" else n - 1):
                inputs = pool_inputs(alg, case, pattern, coeffs)
                if any(m.is_zero() for m in inputs):
                    continue
                residual = _evaluate(alg, case, relation, inputs)
                listed = (", " if case == "I" else " (x) ").join(str(m) for m in inputs)
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


def test_verify_builds_each_component_once_per_call(toy, toy_h, toy_h_augmentations, monkeypatch):
    """One verify call computes d^2 once, by one application of the Leibniz
    d per generator, and builds one augmented component of it per arity,
    also when no arity has a candidate pattern and it checks every pattern
    instead."""
    d_calls, builds = [], []
    leibniz, build = SemifreeDGA.d, ainfinity.augmented_components

    def counting_d(self, x):
        d_calls.append(self)
        return leibniz(self, x)

    def counting_build(dga, augs, n, images=None):
        builds.append((n, images))
        return build(dga, augs, n, images)

    monkeypatch.setattr(SemifreeDGA, "d", counting_d)
    monkeypatch.setattr(ainfinity, "augmented_components", counting_build)
    runs = [(toy, [Augmentation.trivial(toy)], "I", exhaustive) for exhaustive in (False, True)]
    curved = parse_dga(CURVED_SOURCE)  # no differential contains a: the fallback runs
    one = curved.algebra.unit()
    runs.append((curved, [Augmentation(curved, {"x": one, "y": one})], "I", False))
    runs += [(toy_h, toy_h_augmentations[1:], case, False) for case in ("I", "II")]
    for dga, objects, case, exhaustive in runs:
        d_calls.clear()
        builds.clear()
        assert verify_ainfty(dga, objects, case, 4, exhaustive=exhaustive).ok
        assert d_calls == [dga] * len(dga.names)
        assert [n for n, _square in builds] == [1, 2, 3, 4]
        square = builds[0][1]
        assert square is not None and all(images is square for _n, images in builds)
    # a second call computes d^2 again: nothing is kept across calls
    verify_ainfty(toy_h, toy_h_augmentations[1:], "I", 4)
    assert d_calls == [toy_h] * 2 * len(toy_h.names)
    assert [n for n, _square in builds] == [1, 2, 3, 4] * 2


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


# -- the relation reads only augmentations -------------------------------------

# curved: eps(d a) = -1 for the trivial map, so it is no augmentation
CURVED_SOURCE = XY_SOURCE.replace("ring Z2", "ring Q")
# curved with d^2 = 0: d^2 b = (x*y - 1)*x + x - x*y*x
CURVED_SQUARE_ZERO_SOURCE = CURVED_SOURCE + "gen e deg 1\ngen b deg 2\nd e = x - x*y*x\nd b = a*x + e\n"


def test_relations_reject_maps_that_are_not_augmentations():
    curved = parse_dga(CURVED_SOURCE)
    one = curved.algebra.unit()
    triv = Augmentation.trivial(curved)
    with pytest.raises(InvalidAugmentationError, match=r"eps\(d a\) = -1"):
        verify_ainfty(curved, [triv], "I", 3)
    with pytest.raises(InvalidAugmentationError):
        ainfty_residual_case1(curved, (triv, triv), [DualElement.term(one, "x")])
    with pytest.raises(InvalidAugmentationError):
        ainfty_residual_case2(curved, (triv, triv), [curved.generator("x")])
    # eps(x) = eps(y) = 1 is an augmentation of d a = x*y - 1, and the same
    # names with d a = x*y + 1 pass the name check but not eps o d = 0
    plus = parse_dga(CURVED_SOURCE.replace("x*y - 1", "x*y + 1"))
    eps = Augmentation(curved, {"x": one, "y": one})
    assert eps.check().ok
    with pytest.raises(InvalidAugmentationError, match=r"eps\(d a\) = 2"):
        verify_ainfty(plus, [eps], "I", 3)
    with pytest.raises(InvalidAugmentationError):
        ainfty_residual_case1(plus, (eps, eps), [DualElement.term(one, "x")])
    with pytest.raises(InvalidAugmentationError):
        ainfty_residual_case2(plus, (eps, eps), [plus.generator("x")])
    # the tuple, target and DGA checks come first
    with pytest.raises(TupleLengthMismatchError):
        ainfty_residual_case1(curved, (triv,), [DualElement.term(one, "x")])


def test_curved_trivial_tuple_separates_the_two_relations():
    """On a curved DGA with d^2 = 0 the trivial map is no augmentation, and
    the l = 0 terms of d^2 no longer vanish: the split composition is
    nonzero where d^2 has nothing.  This is why the relations check eps."""
    curved = parse_dga(CURVED_SQUARE_ZERO_SOURCE)
    assert curved.check_d_squared().ok
    triv = (Augmentation.trivial(curved),) * 2
    assert _relation(curved, triv, 1, curved.d_squared()) == {}
    assert composed_relation(curved, triv, 1) == {
        "b": TensorElement.generator(curved.algebra, "x")
    }
    with pytest.raises(InvalidAugmentationError):
        _relation(curved, triv, 1)


# -- generated DGAs ------------------------------------------------------------


def composed_relation(dga, augs, n):
    """The arity-n relation composed split by split: the outer component
    with the letter at the inner operation's input spliced into that
    letter's inner component, signed by the parity of the letters in front
    of it.  It leaves out the l = 0 terms of d^2, so it equals the relation
    read off d^2 exactly when every eps is an augmentation."""
    ring = dga.algebra.ring
    eps = tuple(augs)
    relation = {}
    for l in range(1, n + 1):
        for i in range(1, n + 2 - l):
            inner = augmented_components(dga, eps[i - 1 : i + l], l)
            outers = augmented_components(dga, eps[:i] + eps[i + l - 1 :], n + 1 - l)
            for name, outer in outers.items():
                terms = relation.setdefault(name, {})
                for tw, c in outer.terms.items():
                    image = inner.get(tw.gens[i - 1])
                    if image is not None:
                        sign = dga.sign_parity(tw.gens[: i - 1])
                        c = ring.neg(c) if sign else c
                        _splice(terms, tw, c, i - 1, split_terms(image), dga.algebra)
    return {name: TensorElement(dga.algebra, terms) for name, terms in relation.items() if terms}


# stabilising pairs (x1, y0), (x2, y1) and (c0, s0), where d c0 and d s0
# splice odd letters, and an isolated cycle u for the augmentations
GENERATED_BASE = """\
ring {ring}
algebra {algebra}
grading mod 0
gen c0 deg 4
gen s0 deg 3
gen x2 deg 2
gen y1 deg 1
gen x1 deg 1
gen v deg 1
gen y0 deg 0
gen u deg 0
d c0 = x1*x2 + s0
d s0 = -y0*x2 + x1*y1
d x2 = y1
d x1 = y0
d v = u*y0 - y0*u
"""
GENERATED_ALGEBRAS = ["matrix 2", "group free 1 hermitian", "free g1"]
GENERATED_SCALARS = {"Z2": [1], "Z3": [1, -1], "Q": [1, -1, 2, Fraction(1, 2)]}


@st.composite
def elementary_images(draw, dga, name=None, gens=None, first=None):
    """{g: g + w} for an elementary automorphism of the DGA: w a scalar
    times a word of the degree of g in the other generators (a coefficient
    when g has degree 0), with coefficient words of length at most 2 in its
    slots.  Whatever of ``name``, the word's generators ``gens`` and its
    first slot ``first`` is not given is drawn."""
    alg = dga.algebra
    coefficients = st.sampled_from(list(alg.words(2)))
    if name is None:
        name = draw(st.sampled_from(dga.names))
    if gens is None:
        words = [
            gens
            for arity in range(3 if dga.degree(name) else 0, -1, -1)
            for gens in itertools.product(dga.names, repeat=arity)
            if name not in gens and sum(map(dga.degree, gens)) == dga.degree(name)
        ]
        gens = draw(st.sampled_from(words))
    parts = [alg.element(draw(coefficients) if first is None else first)]
    for gen in gens:
        parts += [dga.generator(gen), alg.element(draw(coefficients))]
    scalar = draw(st.sampled_from(GENERATED_SCALARS[alg.ring.name]))
    return {name: dga.generator(name) + tensor_product(parts, alg).scale(scalar)}


def pulled_back(dga, augs, images):
    """The conjugate of the DGA by the automorphism phi the images give,
    with the augmentations pulled back along phi: eps -> eps o phi."""
    conjugated = dga.conjugate(images)
    return conjugated, [
        Augmentation(
            conjugated,
            {g: aug.evaluate(images.get(g, dga.generator(g))) for g in dga.names},
            aug.morphism,
        )
        for aug in augs
    ]


@st.composite
def generated_dgas(draw, rings=tuple(sorted(GENERATED_SCALARS))):
    """(DGA, augmentations): the base over one of ``rings`` conjugated by
    one to three random elementary automorphisms (:func:`elementary_images`),
    with the base's augmentations pulled back along them.  Two times in
    three the first one is s0 -> s0 + a x1 x2 or s0 -> s0 + a u x1 x2, a a
    letter of the coefficient algebra other than a unit word: the arity-two
    words it puts into d c0 and d s0 carry a coefficient or the augmented
    letter u in front of their first survivor, which random words rarely
    do.  Three times in four a last one shifts y0 (or u, one time in three
    of those) by a coefficient, so that both pulled-back augmentations
    value the shifted letter, and after a shift of y0 the generated one
    values y0 and u: which letters a block's map may skip then depends on
    the block."""
    ring = draw(st.sampled_from(rings))
    dga = parse_dga(
        GENERATED_BASE.format(ring=ring, algebra=draw(st.sampled_from(GENERATED_ALGEBRAS)))
    )
    alg = dga.algebra
    terms = st.tuples(
        st.sampled_from(list(alg.words(2))), st.sampled_from(GENERATED_SCALARS[ring])
    )
    u_value = alg.from_terms(draw(st.lists(terms, min_size=1, max_size=2)))
    augs = [Augmentation.trivial(dga), Augmentation(dga, {"u": u_value})]
    units = set(alg.unit_words())
    leads = [w for w in alg.words(1) if w not in units]
    count = draw(st.integers(1, 3))
    shift = draw(st.sampled_from([None, "y0", "u", "y0"]))
    for step in range(count + bool(shift)):
        lead = draw(st.sampled_from([("x1", "x2"), ("u", "x1", "x2"), None])) if not step else None
        if lead:
            images = draw(elementary_images(dga, "s0", lead, draw(st.sampled_from(leads))))
        elif step == count:
            images = draw(elementary_images(dga, shift))
        else:
            images = draw(elementary_images(dga))
        dga, augs = pulled_back(dga, augs, images)
    assert dga.check_d_squared().ok
    assert all(aug.check().ok for aug in augs)
    return dga, augs


def variants(dga, augs):
    """The DGA and each of its broken copies, with one differential dropped."""
    yield dga, augs
    for name in dga.differential:
        broken = dropped(dga, name)
        yield broken, on(broken, augs)


@settings(max_examples=25, deadline=None)
@given(generated_dgas())
def test_generated_relations_match_the_split_composition(instance):
    nonzero = 0
    for dga, augs in variants(*instance):
        for n in range(1, MAX_ARITY + 1):
            for eps in itertools.product(augs, repeat=n + 1):
                relation = _relation(dga, eps, n)
                assert relation == composed_relation(dga, eps, n), (n, eps)
                nonzero += bool(relation)
    assert nonzero


@settings(max_examples=10, deadline=None)
@given(generated_dgas())
def test_generated_reports_match_the_split_by_split_reports(instance):
    for dga, augs in variants(*instance):
        for case in ("I", "II") if dga.algebra.hermitian else ("I",):
            report = verify_ainfty(dga, augs, case, MAX_ARITY)
            expected = split_by_split_report(dga, augs, case, MAX_ARITY)
            assert (report.checks, report.violations) == (expected.checks, expected.violations)


def assert_exhaustive_reports_are_evaluated_ones(dga, augs, max_arity):
    """The exhaustive report, which counts the checks outside the
    relation's support, equals the one that evaluates every check, and
    the run over candidate patterns finds the same violations."""
    failing = 0
    for case in ("I", "II") if dga.algebra.hermitian else ("I",):
        report = verify_ainfty(dga, augs, case, max_arity, exhaustive=True)
        expected = evaluated_report(dga, augs, case, max_arity)
        assert (report.checks, report.violations) == (expected.checks, expected.violations)
        candidates = verify_ainfty(dga, augs, case, max_arity)
        assert sorted(candidates.violations) == sorted(report.violations)
        failing += not report.ok
    return failing


def test_exhaustive_reports_on_broken_toys_match_evaluating_every_check(toy, toy_h):
    failing = 0
    for dga in (toy, toy_h):
        broken = dropped(dga, "c3")
        failing += assert_exhaustive_reports_are_evaluated_ones(
            broken, [Augmentation.trivial(broken)], MAX_ARITY
        )
    assert failing == 3


@settings(max_examples=5, deadline=None)
@given(generated_dgas())
def test_generated_exhaustive_reports_match_evaluating_every_check(instance):
    failing = 0
    for dga, augs in variants(*instance):
        failing += assert_exhaustive_reports_are_evaluated_ones(dga, augs, 2)
    assert failing
