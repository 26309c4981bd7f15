"""Homology read off one elimination per core matrix, against the whole
two-pass elimination, and the block order the printed terms rest on.

:class:`HomologyResult` row-eliminates each core matrix once, for its
kernel, and reads the rank r of the d into a degree by rank-nullity.  A
degree whose incoming d is zero takes its kernel basis as representatives;
one whose boundaries fill its cycles (r = dim ker) has none; one whose
boundaries fill the whole degree (r = width) takes the unit rows as their
span.  Only 0 < r < width column-eliminates the incoming d, and only
0 < r < dim ker extends the boundaries by the cycles.  The oracle,
``FullHomology`` of ``test_corner``, column-eliminates every incoming d and
extends the boundaries by every cycle, on dense vectors; the library's
term maps are written out dense to compare.  The inputs reach every
branch."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncdga import Q, Z2, bilinearized_complex, homology, parse_augmentation, parse_dga

from conftest import dense, dense_kernel_basis, terms_of
from test_corner import FullHomology, _augmentations, _dga
from test_ncopy_homology import TREFOIL
from test_relation import generated_dgas
from test_source_components import _morphism, _moved_augmentations

BRANCHES = {"no boundaries", "boundaries fill the cycles", "boundaries fill the degree", "partial"}


def _branch(rank, cycles, width):
    if not rank:
        return "no boundaries"
    if rank == width:
        return "boundaries fill the degree"
    return "boundaries fill the cycles" if rank == cycles else "partial"


def assert_matches_two_passes(dga, e0, e1, case) -> set:
    """Every core's representatives and spans of boundaries, and the whole
    complex's dimensions, representatives and classes, against the
    oracle; returns the branches taken."""
    cx = bilinearized_complex(dga, e0, e1, case)
    result = homology(cx)
    ring = cx.field
    branches = set()
    for key, core in cx.cores.items():
        full = FullHomology(core)
        for degree in core.degrees():
            width = len(core.basis[degree])
            span, expected = result.image_spans[key, degree], full.image_spans[degree]
            reps = result.core_representatives[key, degree]
            assert [dense(z, width, ring) for z in reps] == full.representatives[degree]
            assert span.width == width and span.rank == expected.rank
            # the same row space: each span reduces the other's rows to zero
            assert not any(span.reduce(terms_of(row)) for row in expected.rows)
            assert not any(c for row in span.rows for c in expected.reduce(dense(row, width, ring)))
            cycles = len(dense_kernel_basis(core.matrix(degree), width, ring))
            branches.add(_branch(span.rank, cycles, width))
    full = FullHomology(cx)
    assert result.dims == full.dims
    rng = random.Random(repr((case, sorted(cx.basis))))
    for degree in cx.degrees():
        reps = full.representatives[degree]
        assert result.representatives[degree] == reps
        prev = [d for d in cx.degrees() if cx._next(d) == degree]
        for _ in range(3):
            coords = [ring.coerce(rng.randrange(-2, 3)) for _ in reps]
            vector = [ring.zero] * len(cx.basis[degree])
            for c, rep in zip(coords, reps):
                vector = [ring.add(v, ring.mul(c, r)) for v, r in zip(vector, rep)]
            for source in prev:
                u = [ring.coerce(rng.randrange(2)) for _ in cx.basis[source]]
                vector = [ring.add(v, b) for v, b in zip(vector, cx.apply_d(source, u))]
            assert result.class_of(degree, vector) == coords == full.class_of(degree, vector)
    return branches


def _trefoil_pair():
    dga = parse_dga(TREFOIL)
    e0 = parse_augmentation("target matrix 2 over Z2\na3 = [[1,0],[0,1]]\n", dga)
    e1 = parse_augmentation(
        "target matrix 2 over Z2\na2 = [[0,0],[1,1]]\na3 = [[1,0],[0,1]]\n", dga
    )
    return dga, e0, e1


def _mod2_pair():
    dga = parse_dga(
        "ring Z2\nalgebra free\ngrading mod 2\ngen a deg 1\ngen x deg 0\ngen y deg 0\n"
        "d a = x*y + 1\n"
    )
    aug = parse_augmentation("target free over Z2\nx = 1\ny = 1\n", dga)
    return dga, aug, aug


def _stabilised_pair():
    """Two stabilising pairs into matrix 2 over Q, trivially augmented: the
    boundaries of x fill the cycles of degree 2, which also holds c."""
    dga = parse_dga(
        "ring Q\nalgebra free\ngrading mod 0\ngen x deg 0\ngen a deg 1\ngen c deg 1\n"
        "gen b deg 2\nd a = x\nd b = c\n"
    )
    aug = parse_augmentation("target matrix 2 over Q\n", dga)
    return dga, aug, aug


HAND_INPUTS = {
    "xy-1-m2": lambda: (_dga(Q, "xy-1"), *_augmentations(_dga(Q, "xy-1"), Q, "xy-1", 2)),
    "xy-1-m3": lambda: (_dga(Z2, "xy-1"), *_augmentations(_dga(Z2, "xy-1"), Z2, "xy-1", 3)),
    "trefoil-m2": _trefoil_pair,
    "mod2": _mod2_pair,
    "stabilised-m2": _stabilised_pair,
}


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("which", list(HAND_INPUTS))
def test_hand_inputs_match_two_passes(which, case):
    dga, e0, e1 = HAND_INPUTS[which]()
    for pair in [(e0, e1), (e1, e0)]:
        assert_matches_two_passes(dga, *pair, case)


def test_hand_inputs_take_every_branch():
    taken = {}
    for which, make in HAND_INPUTS.items():
        dga, e0, e1 = make()
        taken[which] = assert_matches_two_passes(dga, e0, e1, "II")
    assert set().union(*taken.values()) == BRANCHES
    # the degree 2 of the trefoil pair gets rank 6 of its 8 cycles
    assert "partial" in taken["trefoil-m2"]
    assert "boundaries fill the degree" in taken["xy-1-m2"]


@settings(max_examples=10, deadline=None)
@given(generated_dgas(), st.sampled_from(["matrix 2", "split 2 matrix 2"]))
def test_generated_dgas_match_two_passes(instance, target):
    dga, augs = instance
    morphism = _morphism(dga.algebra, target)
    assume(morphism is not None)
    moved = _moved_augmentations(augs, morphism)
    for case in ("I", "II"):
        for pair in [(moved[0], moved[1]), (moved[1], moved[1])]:
            assert_matches_two_passes(dga, *pair, case)


# -- block order ------------------------------------------------------------

BLOCK_TARGETS = [
    "matrix 1",
    "matrix 2",
    "matrix 3",
    "matrix 10",
    "split 2 matrix 2",
    "split 2 matrix 3",
    "split 3 matrix 1",
    "split 2 free",
    "free",
    "group free 0",
]


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("target", BLOCK_TARGETS)
def test_blocks_keep_their_core_order(target, case):
    """Each block's positions in the full basis strictly increase with the
    core index, so a core vector's terms, read in core order, are in
    full-basis order within its block: representative strings are written
    without sorting their terms."""
    dga = _dga(Q, "commutator")  # two generators in one degree
    aug = parse_augmentation(f"target {target} over Q\n", dga)
    cx = bilinearized_complex(dga, aug, aug, case)
    for degree in cx.degrees():
        for block, positions in cx._positions[degree].items():
            core = cx.cores[block[:2]]
            assert len(positions) == len(core.basis[degree])
            assert all(a < b for a, b in zip(positions, positions[1:])), (degree, block)
