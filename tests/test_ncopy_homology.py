"""The n-copy block identity, an oracle for the bilinearised homology.

Under the diagonal augmentation of (e_a, e_b) every mixed letter c_12, c_21
of the free 2-copy is augmented to zero.  So the linear part of d c_ij
keeps only the words whose letters before the survivor are pure copies
labelled (i, i), augmented by e_i, and whose letters after it are labelled
(j, j), augmented by e_j: the copies c_ij span a subcomplex isomorphic to
the (e_i, e_j) complex of the base.  The homology of the 2-copy is then,
degree by degree, H(a, a) + H(b, b) + H(a, b) + H(b, a), in case I and in
case II.  It is pinned on the 25 ordered pairs of the five augmentations of
Chekanov's trefoil over Z2, and on generated DGAs moved into a matrix and a
split target."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncdga import (
    bilinearized_complex,
    enumerate_augmentations,
    homology,
    ncopy_augmentation,
    parse_dga,
)

from test_relation import generated_dgas
from test_source_components import _morphism, _moved_augmentations

TREFOIL = (
    "ring Z2\nalgebra free\ngrading mod 0\ngen a1 deg 0\ngen a2 deg 0\ngen a3 deg 0\n"
    "gen b1 deg 1\ngen b2 deg 1\nd b1 = 1 + a1 + a3 + a1*a2*a3\nd b2 = 1 + a1 + a3 + a3*a2*a1\n"
)


def assert_block_identity(dga, augs, case, pairs):
    """The 2-copy's homology at the diagonal augmentation of each pair of
    augmentations, against the sum of the four ordered pairs' homologies."""
    dims = {}

    def h(a, b):
        if (a, b) not in dims:
            dims[a, b] = homology(bilinearized_complex(dga, augs[a], augs[b], case)).dims
        return dims[a, b]

    for a, b in pairs:
        copied, _grading, diag = ncopy_augmentation([augs[a], augs[b]], dga)
        got = homology(bilinearized_complex(copied, diag, diag, case)).dims
        blocks = [h(a, a), h(b, b), h(a, b), h(b, a)]
        assert got == {degree: sum(block[degree] for block in blocks) for degree in h(a, a)}


@pytest.mark.parametrize("case", ["I", "II"])
def test_trefoil_two_copies_split_into_pairs(case):
    dga = parse_dga(TREFOIL)
    augs = enumerate_augmentations(dga)
    assert len(augs) == 5
    assert_block_identity(dga, augs, case, itertools.product(range(5), repeat=2))


@settings(max_examples=10, deadline=None)
@given(generated_dgas(), st.sampled_from(["matrix 2", "split 2 matrix 2"]))
def test_generated_two_copies_split_into_pairs(instance, target):
    dga, augs = instance
    morphism = _morphism(dga.algebra, target)
    assume(morphism is not None)
    moved = _moved_augmentations(augs, morphism)
    for case in ("I", "II"):
        assert_block_identity(dga, moved, case, [(0, 1), (1, 1)])
