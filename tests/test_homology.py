"""Bilinearised complexes, homology, the induced product, mirrors."""

import random

import pytest

from ncdga import (
    Augmentation,
    ChainComplex,
    bilinearized_complex,
    homology,
    mirror_compare,
    parse_dga,
    product_on_homology,
)
from ncdga.errors import (
    InfiniteDimensionalCoefficientsError,
    InvalidAugmentationError,
    NcdgaError,
    NotAComplexError,
    NotMatrixTargetError,
)


def test_specialized_complex_matrix(toy_specialized):
    triv = Augmentation.trivial(toy_specialized)
    cx = bilinearized_complex(toy_specialized, triv, triv, "I")
    # the suspended grading puts c4, c5 in degree 1; c2, c3 in 2; c1 in 3
    assert {deg: [label[1] for label in labels] for deg, labels in cx.basis.items()} == {
        1: ["c4", "c5"],
        2: ["c2", "c3"],
        3: ["c1"],
    }
    # d sends c3 to c1 and c5 to c2 (the images of the words under g -> 1)
    assert cx.matrix(2) == [[0, 1]]
    assert cx.matrix(1) == [[0, 1], [0, 0]]


def test_specialized_homology_dimension_one(toy_specialized):
    triv = Augmentation.trivial(toy_specialized)
    result = homology(bilinearized_complex(toy_specialized, triv, triv, "I"))
    assert result.total_dimension == 1
    assert result.dims[1] == 1
    assert result.representative_strings(1) == ["c4"]


def test_zero_differential_homology(toy):
    from ncdga.dga import SemifreeDGA
    from ncdga import FreeAlgebra, Z2

    scalars = FreeAlgebra((), Z2)
    trivial_dga = SemifreeDGA(
        scalars, [g for g in toy.generators], {}, 0
    )
    triv = Augmentation.trivial(trivial_dga)
    result = homology(bilinearized_complex(trivial_dga, triv, triv, "I"))
    assert result.total_dimension == len(trivial_dga.generators)


def test_acyclic_complex():
    src = "ring Z2\nalgebra free\ngrading mod 0\ngen p deg 1\ngen q deg 0\nd p = q\n"
    dga = parse_dga(src)
    triv = Augmentation.trivial(dga)
    result = homology(bilinearized_complex(dga, triv, triv, "I"))
    assert result.total_dimension == 0


def test_infinite_dimensional_coefficients_rejected(toy):
    triv = Augmentation.trivial(toy)
    with pytest.raises(InfiniteDimensionalCoefficientsError):
        bilinearized_complex(toy, triv, triv, "I")


def test_matrix_pair_complex(xy_dga, aug_p, aug_id):
    cx = bilinearized_complex(xy_dga, aug_p, aug_id, "I")
    assert {deg: len(labels) for deg, labels in cx.basis.items()} == {1: 8, 2: 4}
    result = homology(cx)
    assert result.dims[1] == 4
    assert result.dims[2] == 0
    # case II runs over the two-sided decorations
    cx2 = bilinearized_complex(xy_dga, aug_p, aug_id, "II")
    assert {deg: len(labels) for deg, labels in cx2.basis.items()} == {1: 32, 2: 16}
    homology(cx2)


def test_homology_of_developed_matches_bilinearized(xy_dga, aug_p):
    developed = aug_p.develop()
    triv = Augmentation.trivial(developed)
    for case in ("I", "II"):
        via_pair = homology(bilinearized_complex(xy_dga, aug_p, aug_p, case))
        via_developed = homology(bilinearized_complex(developed, triv, triv, case))
        assert via_pair.dims == via_developed.dims


def test_mirror_compare_corpus(toy_specialized, xy_dga, aug_p, aug_id):
    triv = Augmentation.trivial(toy_specialized)
    assert mirror_compare(toy_specialized, triv, triv, "II").ok
    assert mirror_compare(toy_specialized, triv, triv, "I").ok
    assert mirror_compare(xy_dga, aug_p, aug_id, "II").ok
    assert mirror_compare(xy_dga, aug_p, aug_p, "II").ok
    assert mirror_compare(xy_dga, aug_id, aug_id, "II").ok


def test_mirror_compare_needs_matrix_target(toy_h):
    triv = Augmentation.trivial(toy_h)
    with pytest.raises((NotMatrixTargetError, InfiniteDimensionalCoefficientsError)):
        mirror_compare(toy_h, triv, triv, "II")


def test_product_zero_on_specialized(toy_specialized):
    triv = Augmentation.trivial(toy_specialized)
    prod = product_on_homology(toy_specialized, triv, triv, triv, "I")
    for (dx, i, dy, j), (deg, coeffs) in prod.table().items():
        assert coeffs == {}


def test_product_on_matrix_pair(xy_dga, aug_p, aug_id):
    prod = product_on_homology(xy_dga, aug_p, aug_id, aug_p, "I")
    table = prod.table()
    assert table  # 4 x 4 products of the degree-1 classes
    for (dx, i, dy, j), (deg, coeffs) in table.items():
        assert deg == dx + dy


def test_product_boundary_perturbation_invariance(xy_dga, aug_p, aug_id):
    """Changing cycle representatives by boundaries never moves the class
    of the product."""
    prod = product_on_homology(xy_dga, aug_p, aug_id, aug_p, "I")
    rng = random.Random(7)
    ring = prod.cx02.field
    deg_x = deg_y = 1
    x = prod.h01.representatives[deg_x][0]
    y = prod.h12.representatives[deg_y][1]
    _, base_class = prod.product_class(deg_x, x, deg_y, y)

    def perturb(cx, degree, vector):
        prev = [d for d in cx.degrees() if cx._next(d) == degree]
        if not prev:
            return vector
        source = prev[0]
        width = len(cx.basis[source])
        u = [ring.coerce(rng.randrange(2)) for _ in range(width)]
        boundary = cx.apply_d(source, u)
        return [ring.add(a, b) for a, b in zip(vector, boundary)]

    for _ in range(50):
        x_pert = perturb(prod.cx01, deg_x, x)
        y_pert = perturb(prod.cx12, deg_y, y)
        _, cls = prod.product_class(deg_x, x_pert, deg_y, y_pert)
        assert cls == base_class


def test_not_a_complex_detected(toy_specialized):
    triv = Augmentation.trivial(toy_specialized)
    cx = bilinearized_complex(toy_specialized, triv, triv, "I")
    broken_diff = {deg: [dict(column) for column in m] for deg, m in cx.diff.items()}
    broken_diff[1][0][0] = cx.field.one  # d(c4) = c2 ...
    broken_diff[2][0][0] = cx.field.one  # ... and d(c2) = c1
    with pytest.raises(NotAComplexError):
        ChainComplex(cx.dga, cx.algebra, "I", cx.basis, broken_diff)


@pytest.mark.parametrize("case", ["I", "II"])
def test_maps_that_are_not_augmentations_are_rejected(xy_dga, m2, xy_into_m2, aug_p, case):
    """d a = x*y - 1 is curved: the trivial map sends d a to 1 over Z2."""
    triv = Augmentation.trivial(xy_dga)
    with pytest.raises(InvalidAugmentationError, match=r"augmentation 1 of 2: .*\n  eps\(d a\) = 1"):
        bilinearized_complex(xy_dga, triv, triv, case)
    with pytest.raises(InvalidAugmentationError, match=r"augmentation 1 of 3: .*\n  eps\(d a\) = 1"):
        product_on_homology(xy_dga, triv, triv, triv, case)
    # a failing entry is named by its position, also over a changed target
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    bad = Augmentation(xy_dga, {"x": swap, "y": m2.from_terms([((1, 1), 1)])}, xy_into_m2)
    with pytest.raises(InvalidAugmentationError, match="augmentation 3 of 3: "):
        product_on_homology(xy_dga, aug_p, aug_p, bad, case)


def test_pairs_must_share_coefficient_map(xy_dga, aug_p):
    triv = Augmentation.trivial(xy_dga)
    with pytest.raises(NcdgaError):
        bilinearized_complex(xy_dga, aug_p, triv, "I")
