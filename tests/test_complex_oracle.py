"""The bilinearised complex's one-pass differential and its sparse
representatives, against the constructions they replace.

``homology._complex`` builds each core matrix in one pass over the terms
of the arity-one augmented components, read off the source DGA's words.
The oracle moves the DGA and its augmentations over the target first
(``_prepare``, which changes the coefficients), reads the components off
the moved words, and evaluates the operation on every basis label
separately, one chain each, through ``ainfinity._evaluate``: ``psi_eval``
in case I, ``adjoint_formula`` in case II.  ``HomologyResult.representative_strings`` reads each
representative off the support of its core representative; the oracle
reads it off the dense full-basis vector."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings

from ncdga import Q, Z2, Zp, bilinearized_complex, homology
from ncdga.ainfinity import _evaluate
from ncdga.augmentation import _prepare, augmented_components
from ncdga.homology import _chain, _coordinates

from test_corner import DGA_SOURCES, _augmentations, _dga, _strings
from test_relation import generated_dgas

Z3 = Zp(3)


def per_column_matrix(cx, labels, target_labels, components):
    """The differential on ``labels`` into ``target_labels``: the
    operation evaluated on each label alone."""
    alg = cx.algebra
    ring = alg.ring
    index = {label: i for i, label in enumerate(target_labels)}
    matrix = [[ring.zero] * len(labels) for _ in target_labels]
    for col, label in enumerate(labels):
        value = _evaluate(alg, cx.case, components, [_chain(alg, cx.case, [(label, ring.one)])])
        for label_out, c in _coordinates(cx.case, value):
            matrix[index[label_out]][col] = c
    return matrix


def assert_matches_per_column(cx):
    """The core's matrices and the full ones, on every label of each basis,
    against the components of the DGA with its coefficients changed."""
    base, augs = _prepare(cx.dga, cx.augs)
    components = augmented_components(base, augs, 1)
    for complex_ in {id(cx): cx, id(cx.core): cx.core}.values():
        for degree, labels in complex_.basis.items():
            target = complex_.basis.get(complex_._next(degree), [])
            expected = per_column_matrix(complex_, labels, target, components)
            assert complex_.matrix(degree) == (expected if target else [])


def assert_strings_match_dense(result):
    cx = result.cx
    for degree in cx.degrees():
        dense = result.representatives[degree]
        assert len(dense) == result.dims[degree]
        assert result.representative_strings(degree) == _strings(cx, degree, dense)


def _check(dga, e0, e1, case):
    cx = bilinearized_complex(dga, e0, e1, case)
    assert_matches_per_column(cx)
    assert_strings_match_dense(homology(cx))
    return cx


CORPUS = [
    (ring, which, n) for ring in (Z2, Z3, Q) for which in DGA_SOURCES for n in (2, 3)
]


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize(
    "ring, which, n", CORPUS, ids=[f"{r.name}-{w}-m{n}" for r, w, n in CORPUS]
)
def test_corpus_complexes_match_per_column_evaluation(ring, which, n, case):
    dga = _dga(ring, which)
    e0, e1 = _augmentations(dga, ring, which, n)
    nonzero = 0
    for pair in [(e0, e0), (e0, e1), (e1, e0)]:
        cx = _check(dga, *pair, case)
        nonzero += any(any(row) for degree in cx.degrees() for row in cx.core.matrix(degree))
    assert nonzero


@pytest.mark.parametrize("case", ["I", "II"])
def test_xy_complexes_match_per_column_evaluation(xy_dga, aug_p, aug_id, case):
    for pair in itertools.product([aug_p, aug_id], repeat=2):
        _check(xy_dga, *pair, case)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated_dgas())
def test_generated_complexes_match_per_column_evaluation(instance):
    """Generated DGAs over matrix 2, with Z2 and Q scalars; the other
    generated coefficient algebras are infinite dimensional."""
    dga, augs = instance
    assume(dga.algebra.dimension() is not None)
    for e0, e1 in itertools.product(augs, repeat=2):
        for case in ("I", "II"):
            _check(dga, e0, e1, case)
