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
reads it off the dense full-basis vector.

``HomologyProduct`` applies the arity-two terms to label pairs of the
factors' supports; the oracle evaluates the operation on each pair of
representatives as library elements, again through ``_evaluate``, and
reads the product's class off the chain.
Generated DGAs are moved into ``matrix 2`` and ``split 2 matrix 2``, and
the commutator DGA is taken into split targets over a matrix and a one
dimensional base with augmentations whose summand components differ, so
that every pair of summands has its own core."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ncdga import (
    Augmentation,
    Q,
    Z2,
    Zp,
    bilinearized_complex,
    homology,
    parse_augmentation,
    parse_dga,
    product_on_homology,
)
from ncdga.ainfinity import _evaluate
from ncdga.augmentation import _prepare, augmented_components

from conftest import _chain, _coordinates, element_of, vector_of
from test_corner import DGA_SOURCES, _augmentations, _dga, _strings
from test_relation import GENERATED_SCALARS, generated_dgas
from test_source_components import _morphism, _moved_augmentations

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
    """The full matrices, on every label of the basis, against the
    components of the DGA with its coefficients changed; and each core's
    matrices against the full ones read at the positions of each of its
    blocks."""
    base, augs = _prepare(cx.dga, cx.augs)
    components = augmented_components(base, augs, 1)
    for degree, labels in cx.basis.items():
        after = cx._next(degree)
        target = cx.basis.get(after, [])
        expected = per_column_matrix(cx, labels, target, components)
        assert cx.matrix(degree) == (expected if target else [])
        for block in cx.blocks:
            core = cx.cores[block[:2]].matrix(degree)
            if not target:
                assert core == []
                continue
            rows, cols = cx._positions[after][block], cx._positions[degree][block]
            assert core == [[expected[r][c] for c in cols] for r in rows]


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
        nonzero += any(
            any(row) for core in cx.cores.values() for d in cx.degrees() for row in core.matrix(d)
        )
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


def evaluated_product(prod, components, deg_x, x_vec, deg_y, y_vec):
    """The product chain of a pair, evaluated on the pair as library elements."""
    x, y = element_of(prod.cx01, deg_x, x_vec), element_of(prod.cx12, deg_y, y_vec)
    value = _evaluate(prod.algebra, prod.case, components, [x, y])
    degree = prod.output_degree(deg_x, deg_y)
    if degree not in prod.cx02.basis:
        assert value.is_zero()
        return degree, []
    return degree, vector_of(prod.cx02, degree, value)


def assert_products_match_per_pair_evaluation(prod, rng):
    """Sampled entries of the table with the chains under them, then the
    chains of sampled pairs of basis labels: one pair for each pair of
    degrees, forty pairs whose generators some arity-two term pairs, and ten
    pairs of random sums of three labels.  Returns the number of nonzero
    chains."""
    components = augmented_components(prod.dga, prod.augs, 2)
    ring = prod.algebra.ring
    h01, h12, h02 = prod.h01, prod.h12, prod.h02
    table = prod.table()
    assert len(table) == sum(h01.dims.values()) * sum(h12.dims.values())
    for key in rng.sample(sorted(table), min(len(table), 30)):
        deg_x, i, deg_y, j = key
        x_vec, y_vec = h01.representatives[deg_x][i], h12.representatives[deg_y][j]
        degree, chain = evaluated_product(prod, components, deg_x, x_vec, deg_y, y_vec)
        assert prod.product_chain(deg_x, x_vec, deg_y, y_vec) == (degree, chain)
        assert table[key] == (degree, h02.class_of(degree, chain) if chain else [])

    cx01, cx12 = prod.cx01, prod.cx12

    def pick(cx, degree, scalars=(ring.one,)):
        """(label index, scalar) in a degree, at random."""
        return rng.randrange(len(cx.basis[degree])), rng.choice(scalars)

    def places(cx):
        """generator -> (degree, index) of each of its labels"""
        out: dict = {}
        for d, labels in cx.basis.items():
            for i, label in enumerate(labels):
                out.setdefault(label[1], []).append((d, i))
        return out

    at_x, at_y = places(cx01), places(cx12)
    paired = sorted({tw.gens for value in components.values() for tw in value.terms})
    matched = [
        (rng.choice(at_x[g1]), rng.choice(at_y[g2]))
        for g1, g2 in (rng.choice(paired) for _ in range(50 if paired else 0))
    ]
    pairs = [
        (dx, [pick(cx01, dx)], dy, [pick(cx12, dy)]) for dx in cx01.basis for dy in cx12.basis
    ]
    pairs += [(dx, [(i, ring.one)], dy, [(j, ring.one)]) for (dx, i), (dy, j) in matched[:40]]
    scalars = [ring.coerce(c) for c in GENERATED_SCALARS["Q" if ring.kind == "Q" else "Z2"]]
    for (dx, _i), (dy, _j) in matched[40:]:
        xs, ys = ([pick(cx, d, scalars) for _ in range(3)] for cx, d in ((cx01, dx), (cx12, dy)))
        pairs.append((dx, xs, dy, ys))

    def chain(cx, degree, entries):
        vec = [ring.zero] * len(cx.basis[degree])
        for i, c in entries:
            vec[i] = ring.add(vec[i], c)
        return vec

    nonzero = 0
    for deg_x, x_entries, deg_y, y_entries in pairs:
        x_vec, y_vec = chain(cx01, deg_x, x_entries), chain(cx12, deg_y, y_entries)
        expected = evaluated_product(prod, components, deg_x, x_vec, deg_y, y_vec)
        assert prod.product_chain(deg_x, x_vec, deg_y, y_vec) == expected
        nonzero += any(expected[1])
    return nonzero


# an arity-two term whose first slot is not its own star, which few
# generated DGAs have: case II reads the slot starred
STARRED = parse_dga(
    "ring Q\nalgebra matrix 2\ngrading mod 0\ngen a deg 1\ngen x deg 0\ngen y deg 0\n"
    "d a = E(1,2)*x*y\n"
)
STARRED_INSTANCE = (STARRED, [Augmentation.trivial(STARRED)] * 2)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated_dgas(), st.sampled_from(["matrix 2", "split 2 matrix 2"]), st.randoms())
@example(STARRED_INSTANCE, "matrix 2", random.Random(0))
@example(STARRED_INSTANCE, "split 2 matrix 2", random.Random(1))
def test_generated_products_match_per_pair_evaluation(instance, target, rng):
    """Generated DGAs moved into a matrix and a split target, over Z2 and Q,
    in both cases, on a triple of the moved augmentations; and a DGA whose
    arity-two term has a first slot that is not its own star."""
    dga, augs = instance
    morphism = _morphism(dga.algebra, target)
    assume(morphism is not None)
    e0, e1 = _moved_augmentations(augs, morphism)
    for case in ("I", "II"):
        assert assert_products_match_per_pair_evaluation(
            product_on_homology(dga, e1, e0, e1, case), rng
        )


# values of x and y that commute in every summand, so that each is an
# augmentation of d a = x*y - y*x; the two differ in each summand
SPLIT_TARGETS = {
    "split 3 matrix 1": [
        "x = e1 + 2*e2 + 3*e3\ny = 2*e1 + e3",
        "x = 2*e1 + 2*e2 + e3\ny = e2 + 5*e3",
    ],
    "split 2 free": ["x = e1 + 2*e2\ny = 3*e1", "x = 2*e1 + 2*e2\ny = e2 + 1"],
    "split 2 matrix 2": [
        "x = e1*E11 + e2*E11 + e2*E22\ny = e1*E11 + e2*E12",
        "x = E11 + E22 + e1*E12\ny = 2*E11 + 2*E22 + e1*E12 + e2*E21",
    ],
    "split 2 matrix 3": [
        "x = e1*E11 + e2*E11 + e2*E22 + e2*E33\ny = e1*E11 + e2*E12",
        "x = E11 + E22 + E33 + e1*E12 + e2*E23\ny = 2*E11 + 2*E22 + 2*E33 + e1*E13 + e2*E21",
    ],
}


def _split_augmentations(ring, target):
    dga = _dga(ring, "commutator")
    augs = [
        parse_augmentation(f"target {target} over {ring.name}\n{text}\n", dga)
        for text in SPLIT_TARGETS[target]
    ]
    assert all(aug.check().ok for aug in augs)
    return dga, augs


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("ring", [Z3, Q], ids=["Z3", "Q"])
@pytest.mark.parametrize("target", list(SPLIT_TARGETS))
def test_split_complexes_match_per_column_evaluation(target, ring, case):
    dga, augs = _split_augmentations(ring, target)
    for pair in itertools.product(augs, repeat=2):
        _check(dga, *pair, case)


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("target", list(SPLIT_TARGETS))
def test_split_products_match_per_pair_evaluation(target, case):
    """Over Q: a case II table over split 2 matrix 3 has some 10^5 entries."""
    dga, (e0, e1) = _split_augmentations(Q, target)
    rng = random.Random(f"{target}-{case}")
    for triple in [(e0, e1, e1), (e1, e0, e1)]:
        prod = product_on_homology(dga, *triple, case)
        assert assert_products_match_per_pair_evaluation(prod, rng)
