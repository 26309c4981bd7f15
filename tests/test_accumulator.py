"""The shared sparse accumulator and the shared splice, against copies of
the code they replaced.

Sums and products of algebra and tensor elements used to merge their
terms with a hand-written "add the coefficient, drop the key when the sum
is zero" loop, and the Leibniz extension of d, ``apply_block`` and the
component relations each built the word with one generator replaced by an
image as prefix * image * suffix.  The copies of those loops below are the
references.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    AlgebraElement,
    Augmentation,
    FreeAlgebra,
    MatrixAlgebra,
    Q,
    TensorElement,
    Z2,
    Zp,
    apply_block,
    tensor_product,
)
from ncdga.ainfinity import augmented_components, default_coeff_pool
from ncdga.dga import SemifreeDGA
from ncdga.errors import DegreeUnknownError
from ncdga.tensor import TensorWord

from test_relation import generated_dgas

RINGS = [Z2, Zp(3), Q]


# -- references: the loops the accumulator and the splice replaced -------


def _merge(ring, items) -> dict:
    out: dict = {}
    for key, c in items:
        s = ring.add(out.get(key, ring.zero), c)
        if ring.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _word_products(alg, a, b):
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = alg.mul_words(w1, w2)
            if w is not None:
                yield w, alg.ring.mul(c1, c2)


def _tensor_products(alg, x, y):
    for tw1, c1 in x.terms.items():
        for tw2, c2 in y.terms.items():
            mid = alg.mul_words(tw1.coeffs[-1], tw2.coeffs[0])
            if mid is not None:
                word = TensorWord(tw1.coeffs[:-1] + (mid,) + tw2.coeffs[1:], tw1.gens + tw2.gens)
                yield word, alg.ring.mul(c1, c2)


def _prefix_image_suffix(alg, tw, k, c, image):
    prefix = TensorElement(alg, {TensorWord(tw.coeffs[: k + 1], tw.gens[:k]): c})
    suffix = TensorElement(alg, {TensorWord(tw.coeffs[k + 1 :], tw.gens[k + 1 :]): alg.ring.one})
    return prefix * image * suffix


def _old_d(dga, x):
    ring = dga.algebra.ring
    out = TensorElement.zero(dga.algebra)
    for tw, c in x.terms.items():
        for p in range(tw.arity):
            value = dga.differential.get(tw.gens[p])
            if value is None:
                continue
            coeff = ring.neg(c) if dga.sign_parity(tw.gens[:p]) else c
            out = out + _prefix_image_suffix(dga.algebra, tw, p, coeff, value)
    return out


def _old_apply_block(f_values, k, l, x):
    out = TensorElement.zero(x.algebra)
    for tw, c in x.terms.items():
        assert tw.arity == k + 1 + l
        image = f_values.get(tw.gens[k])
        if image is None or image.is_zero():
            continue
        out = out + _prefix_image_suffix(x.algebra, tw, k, c, image)
    return out


def _old_component_relations(dga, n):
    ring = dga.algebra.ring
    checks, violations = 0, []
    for name in dga.names:
        total = TensorElement.zero(dga.algebra)
        for k in range(1, dga.max_word_arity() + 1):
            l = n + 1 - k
            if l < 0:
                continue
            for i in range(k):
                for tw, c in dga.d_component(name, k).terms.items():
                    inner = dga.d_component(tw.gens[i], l)
                    if inner.is_zero():
                        continue
                    coeff = ring.neg(c) if dga.sign_parity(tw.gens[:i]) else c
                    total = total + _prefix_image_suffix(dga.algebra, tw, i, coeff, inner)
        checks += 1
        if not total.is_zero():
            violations.append(f"relation fails at {name}: {total}")
    return checks, violations


# -- the accumulator -----------------------------------------------------


def _scalars(ring):
    if ring == Q:
        values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        values = st.integers(-4, 4)
    return values.map(ring.coerce)


def _nonzero(ring, terms: dict) -> dict:
    return {key: c for key, c in terms.items() if not ring.is_zero(c)}


@st.composite
def algebra_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        alg = FreeAlgebra(("g1", "g2"), ring)
        words = st.lists(st.sampled_from([1, 2]), max_size=2).map(tuple)
    else:
        alg = MatrixAlgebra(2, ring)
        words = st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2]))
    terms = st.dictionaries(words, _scalars(ring), max_size=4)
    return tuple(AlgebraElement(alg, _nonzero(ring, draw(terms))) for _ in range(2))


@st.composite
def tensor_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    alg = MatrixAlgebra(2, ring)
    units = st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2]))

    @st.composite
    def words(draw):
        gens = tuple(draw(st.lists(st.sampled_from(["c", "d"]), max_size=2)))
        coeffs = tuple(draw(units) for _ in range(len(gens) + 1))
        return TensorWord(coeffs, gens)

    terms = st.dictionaries(words(), _scalars(ring), max_size=4)
    return tuple(TensorElement(alg, _nonzero(ring, draw(terms))) for _ in range(2))


def _expect(result, expected: dict):
    ring = result.algebra.ring
    assert result.terms == expected
    assert not any(ring.is_zero(c) for c in result.terms.values())


@settings(max_examples=150, deadline=None)
@given(algebra_pairs())
def test_algebra_sums_and_products_match_the_merge_loop(pair):
    a, b = pair
    alg, ring = a.algebra, a.algebra.ring
    both = [*a.terms.items(), *b.terms.items()]
    _expect(a + b, _merge(ring, both))
    _expect(a - b, _merge(ring, [*a.terms.items(), *(-b).terms.items()]))
    _expect(a + (-a), {})
    _expect(a * b, _merge(ring, _word_products(alg, a, b)))
    _expect(alg.from_terms(both), _merge(ring, both))


@settings(max_examples=150, deadline=None)
@given(tensor_pairs())
def test_tensor_sums_and_products_match_the_merge_loop(pair):
    x, y = pair
    alg, ring = x.algebra, x.algebra.ring
    _expect(x + y, _merge(ring, [*x.terms.items(), *y.terms.items()]))
    _expect(x - x, {})
    _expect(x * y, _merge(ring, _tensor_products(alg, x, y)))
    _expect((x + y) * y, _merge(ring, _tensor_products(alg, x + y, y)))


# -- the splice ----------------------------------------------------------


def _words(dga, arity):
    """Generator words of the given arity, the letters joined by the
    default coefficient pool (unit coefficients only beyond arity 2)."""
    alg = dga.algebra
    pool = default_coeff_pool(alg) if arity <= 2 else [alg.unit()]
    out = [tensor_product([dga.generator(g)], alg) for g in dga.names]
    for _ in range(arity - 1):
        out = [x * TensorElement.from_algebra(b) * dga.generator(g)
               for x in out for b in pool for g in dga.names]
    return [x for x in out if not x.is_zero()]


def _broken(dga, drop):
    differential = {k: v for k, v in dga.differential.items() if k != drop}
    return SemifreeDGA(dga.algebra, dga.generators, differential, dga.modulus)


@pytest.mark.parametrize("fixture", ["toy_h", "q_corpus"])
def test_leibniz_d_matches_the_prefix_suffix_loop(request, fixture):
    dga = request.getfixturevalue(fixture)
    inputs = _words(dga, 1) + _words(dga, 2)
    inputs += [dga.d_of_generator(name) for name in dga.names]
    inputs += [dga.d_of_generator(a) * dga.generator(b) for a in dga.names for b in dga.names]
    for x in inputs:
        assert dga.d(x) == _old_d(dga, x)


def _with_constant(dga, name):
    """The DGA with the unit added to d ``name``, ``name`` of degree 1: a
    constant term, whose splice merges the slots on both sides of it."""
    alg = dga.algebra
    differential = dict(dga.differential)
    one = TensorElement.from_scalar(alg, 1)
    differential[name] = differential.get(name, TensorElement.zero(alg)) + one
    return SemifreeDGA(alg, dga.generators, differential, dga.modulus)


@pytest.mark.parametrize("ring", ["Z2", "Z3", "Q"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_leibniz_d_matches_the_prefix_suffix_loop_on_generated_dgas(ring, data):
    """The Koszul sign carried along each word against the parity of the
    letters in front recomputed at every letter, on DGAs with odd
    generators graded over Z and modulo 2, 4 and 6.  d^2 is compared term
    map by term map with the old d applied to d, on the DGA and on copies
    whose square is not zero: one differential dropped, or a constant
    added to the differential of a generator of degree 1.  On each copy the
    augmented components of d^2 and of d are the same with the zero images
    present and with them dropped."""
    dga, augs = data.draw(generated_dgas((ring,)))
    modulus = data.draw(st.sampled_from([0, 2, 4, 6]))
    dga = SemifreeDGA(dga.algebra, dga.generators, dga.differential, modulus)
    inputs = _words(dga, 1) + _words(dga, 2)
    inputs += [dga.d_of_generator(name) for name in dga.names]
    inputs += [dga.d_of_generator(a) * dga.generator(b) for a in dga.names for b in dga.names]
    for x in inputs:
        assert dga.d(x).terms == _old_d(dga, x).terms
    stray = TensorElement.generator(dga.algebra, "stray")
    for x in (stray, dga.generator("x1") * stray, stray * dga.generator("x1")):
        with pytest.raises(DegreeUnknownError):
            dga.d(x)
    copies = [dga] + [_broken(dga, name) for name in dga.differential]
    copies += [_with_constant(dga, name) for name in ("x1", "y1", "v")]
    nonzero = 0
    for copy in copies:
        square = copy.d_squared()
        assert list(square) == list(copy.names)
        for name in copy.names:
            assert square[name].terms == _old_d(copy, copy.d_of_generator(name)).terms
        nonzero += any(value.terms for value in square.values())
        zero = TensorElement.zero(copy.algebra)
        with_zeros = {name: copy.differential.get(name, zero) for name in copy.names}
        without_zeros = {name: value for name, value in square.items() if value.terms}
        copy_augs = [Augmentation(copy, aug.values) for aug in augs]
        for n in (1, 2, 3):
            eps = tuple(data.draw(st.sampled_from(copy_augs)) for _ in range(n + 1))
            assert augmented_components(copy, eps, n, square) == augmented_components(
                copy, eps, n, without_zeros
            )
            assert augmented_components(copy, eps, n) == augmented_components(
                copy, eps, n, with_zeros
            )
    # the constants alone give three copies with a nonzero square
    assert nonzero >= 3


@pytest.mark.parametrize("fixture", ["toy_h", "q_corpus"])
def test_apply_block_matches_the_prefix_suffix_loop(request, fixture):
    dga = request.getfixturevalue(fixture)
    maps = [dict(dga.differential)]
    maps += [{name: dga.d_component(name, n) for name in dga.names} for n in range(3)]
    if fixture == "toy_h":
        augs = request.getfixturevalue("toy_h_augmentations")
        maps.append(augmented_components(dga, augs[1:], 1))
    for arity in (1, 2, 3):
        inputs = _words(dga, arity)
        for k in range(arity):
            for f_values in maps:
                for x in inputs:
                    expected = _old_apply_block(f_values, k, arity - 1 - k, x)
                    assert apply_block(f_values, k, arity - 1 - k, x) == expected


@pytest.mark.parametrize("fixture", ["toy_h", "q_corpus"])
def test_component_relations_match_the_prefix_suffix_loop(request, fixture):
    dga = request.getfixturevalue(fixture)
    failures = 0
    for candidate in [dga] + [_broken(dga, name) for name in dga.differential]:
        for n in range(5):
            report = candidate.check_component_relations(n)
            checks, violations = _old_component_relations(candidate, n)
            assert (report.checks, report.violations) == (checks, violations)
            failures += len(violations)
    assert failures  # the broken differentials exercise the messages too
