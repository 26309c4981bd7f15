"""The eps-augmented case II components, built once per complex, against
the construction they replace (one adjoint per block pattern), against the
brute-force transpose, and the sparse echelon span against a dense
reference elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    Augmentation,
    CoefficientMorphism,
    MatrixAlgebra,
    Q,
    TensorElement,
    TensorWord,
    Z2,
    adjoint_bruteforce,
    adjoint_formula,
    bilinearized_complex,
    homology,
    mu_eps_case2,
    parse_dga,
    tensor_product,
)
from ncdga.ainfinity import augmented_components
from ncdga.errors import TupleLengthMismatchError
from ncdga.homology import Span, _prepare, kernel_basis

from conftest import XY_SOURCE, element_of, solve_in_span, vector_of


def _compositions(total, parts):
    """Every way to write ``total`` as an ordered sum of ``parts`` sizes."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _augmented_word(dga, augs, tw, comp):
    """Reference: evaluate the augmentation blocks of ``comp`` (block sizes
    around the survivors) on a differential word, leaving the survivor
    generators in place; None when a block hits a generator the
    augmentation kills."""
    alg = dga.algebra
    n = len(comp) - 1
    parts = [alg.element(tw.coeffs[0])]
    pos = 0
    for j, block in enumerate(comp):
        for _ in range(block):
            value = augs[j].values.get(tw.gens[pos])
            if value is None:
                return None
            parts.append(value)
            parts.append(alg.element(tw.coeffs[pos + 1]))
            pos += 1
        if j < n:
            parts.append(TensorElement.generator(alg, tw.gens[pos]))
            parts.append(alg.element(tw.coeffs[pos + 1]))
            pos += 1
    return tensor_product(parts, alg)


def per_pattern_mu_eps_case2(dga, augs, x):
    """Reference: one adjoint for each arity and block pattern, summed."""
    n = x.arity
    total = TensorElement.zero(dga.algebra)
    for arity in range(n, dga.max_word_arity() + 1):
        for comp in _compositions(arity - n, n + 1):
            f_values = {}
            for name in dga.names:
                value = TensorElement.zero(dga.algebra)
                for tw, coeff in dga.d_component(name, arity).terms.items():
                    augmented = _augmented_word(dga, augs, tw, comp)
                    if augmented is not None:
                        value = value + augmented.scale(coeff)
                if not value.is_zero():
                    f_values[name] = value
            if f_values:
                total = total + adjoint_formula(f_values, 0, 0, x)
    return total


# -- d a = x*y - 1 into matrix 2, over Z2 and over Q ----------------------


def _xy_augmentations(ring):
    """(e0, e1): x -> A, y -> A^-1 for a non-permutation A, and the swap."""
    dga = parse_dga(XY_SOURCE.replace("ring Z2", f"ring {ring.name}"))
    m2 = MatrixAlgebra(2, ring)
    into = CoefficientMorphism(dga.algebra, m2, {})
    half = Fraction(1, 2) if ring == Q else 1
    a = m2.from_terms([((1, 1), 2 if ring == Q else 1), ((1, 2), 1), ((2, 2), 1)])
    a_inv = m2.from_terms([((1, 1), half), ((1, 2), -half), ((2, 2), 1)])
    assert a * a_inv == m2.unit()
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    e0 = Augmentation(dga, {"x": a, "y": a_inv}, into)
    e1 = Augmentation(dga, {"x": swap, "y": swap}, into)
    assert e0.check().ok and e1.check().ok
    return dga, e0, e1


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
def test_case2_complex_matches_per_pattern_columns(ring):
    dga, e0, e1 = _xy_augmentations(ring)
    base, augs = _prepare(dga, [e0, e1])
    for pair in [(e0, e1), (e1, e0), (e0, e0)]:
        cx = bilinearized_complex(dga, *pair, "II")
        pair_augs = [augs[[e0, e1].index(e)] for e in pair]
        for degree, labels in cx.basis.items():
            matrix = cx.matrix(degree)
            target = cx._next(degree)
            for col in range(len(labels)):
                unit = [ring.one if i == col else ring.zero for i in range(len(labels))]
                expected = per_pattern_mu_eps_case2(
                    base, pair_augs, element_of(cx, degree, unit)
                )
                if target not in cx.basis:
                    assert expected.is_zero()
                    continue
                assert [row[col] for row in matrix] == vector_of(cx, target, expected)


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
@pytest.mark.parametrize("n", [1, 2])
def test_xy_components_adjoint_matches_bruteforce(ring, n):
    dga, e0, e1 = _xy_augmentations(ring)
    base, (a0, a1) = _prepare(dga, [e0, e1])
    augs = [a0, a1, a0][: n + 1]
    components = augmented_components(base, augs, n)
    assert components
    alg = base.algebra
    for gens in [("x",) * n, ("y",) * n]:
        for slot in alg.words():
            y = TensorElement(alg, {TensorWord((slot,) * (n + 1), gens): ring.one})
            lhs = adjoint_formula(components, 0, 0, y)
            assert lhs == adjoint_bruteforce(components, 0, 0, y, base.names, 1)
            assert lhs == per_pattern_mu_eps_case2(base, augs, y)
            assert lhs == mu_eps_case2(base, augs, y)


# -- the toy DGA over the group ring of a free group ----------------------


def _toy_inputs(dga, n):
    alg = dga.algebra
    slots = [(), (1,), (-2,)]
    out = []
    for gens in [("c2",) * n, ("c5",) * n, ("c4",) * n, ("c3",) + ("c4",) * (n - 1)]:
        for left in slots:
            for right in slots:
                coeffs = (left,) + ((),) * (n - 1) + (right,)
                out.append(TensorElement(alg, {TensorWord(coeffs, gens): alg.ring.one}))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_toy_mu_eps_case2_matches_per_pattern(toy_h, toy_h_augmentations, n):
    triv, by_g1, by_g2g1 = toy_h_augmentations
    for augs in [(triv,) * (n + 1), (by_g1,) * (n + 1), (by_g1, by_g2g1, triv)[: n + 1]]:
        for x in _toy_inputs(toy_h, n):
            assert mu_eps_case2(toy_h, augs, x) == per_pattern_mu_eps_case2(toy_h, augs, x)


def test_toy_components_adjoint_matches_bruteforce(toy_h):
    alg = toy_h.algebra
    unit_aug = Augmentation(toy_h, {"c4": alg.unit()})
    assert unit_aug.check().ok
    components = augmented_components(toy_h, (unit_aug, unit_aug), 1)
    # augmenting c4 by 1 turns c2*g1*c4 into c2*g1 and c5*g2*g1*c4 into c5*g2*g1
    assert set(components) == {"c1", "c2", "c3"}
    # the brute force enumerates every slot of length <= 2, which covers the
    # adjoint of undecorated generators against images with slots g2*g1
    for name in toy_h.names:
        x = TensorElement.generator(alg, name)
        lhs = adjoint_formula(components, 0, 0, x)
        assert lhs == adjoint_bruteforce(components, 0, 0, x, toy_h.names, 2)


def test_augmented_components_checks_the_tuple(toy_h, toy_h_augmentations):
    with pytest.raises(TupleLengthMismatchError):
        augmented_components(toy_h, toy_h_augmentations[:2], 2)


# -- sparse span against a dense reference --------------------------------


class DenseSpan:
    """Reference: reduced echelon rows, every update over the full width."""

    def __init__(self, ring, width):
        self.ring, self.width = ring, width
        self.rows, self.pivots = [], []

    def reduce(self, vector):
        ring, vec = self.ring, list(vector)
        for row, pivot in zip(self.rows, self.pivots):
            c = vec[pivot]
            if not ring.is_zero(c):
                vec = [ring.sub(a, ring.mul(c, b)) for a, b in zip(vec, row)]
        return vec

    def add(self, vector):
        ring = self.ring
        vec = self.reduce(vector)
        pivot = next((j for j, c in enumerate(vec) if not ring.is_zero(c)), None)
        if pivot is None:
            return False
        inv = ring.inv(vec[pivot])
        vec = [ring.mul(inv, c) for c in vec]
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if not ring.is_zero(c):
                self.rows[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(row, vec)]
        self.rows.append(vec)
        self.pivots.append(pivot)
        return True


def dense_kernel_basis(matrix, ncols, ring):
    """Reference: Gauss-Jordan with row swaps, one vector per free column."""
    rows = [row[:] for row in matrix]
    pivot_of_col, r = {}, 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(r, len(rows)) if not ring.is_zero(rows[i][col])), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ring.inv(rows[r][col])
        rows[r] = [ring.mul(inv, c) for c in rows[r]]
        for i in range(len(rows)):
            if i != r and not ring.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [ring.sub(a, ring.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivot_of_col[col] = r
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_of_col):
        vec = [ring.zero] * ncols
        vec[free] = ring.one
        for col, row in pivot_of_col.items():
            vec[col] = ring.neg(rows[row][free])
        basis.append(vec)
    return basis


def dense_solve_in_span(columns, target, ring):
    """Reference: Gauss-Jordan on [columns | target], free coefficients zero."""
    if not columns:
        return [] if all(ring.is_zero(c) for c in target) else None
    height, ncols = len(target), len(columns)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(height)]
    r, pivot_cols = 0, []
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(r, height) if not ring.is_zero(rows[i][col])), None
        )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ring.inv(rows[r][col])
        rows[r] = [ring.mul(inv, c) for c in rows[r]]
        for i in range(height):
            if i != r and not ring.is_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [ring.sub(a, ring.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    if any(not ring.is_zero(rows[i][-1]) for i in range(r, height)):
        return None
    solution = [ring.zero] * ncols
    for row_idx, col in enumerate(pivot_cols):
        solution[col] = rows[row_idx][-1]
    return solution


def dense_representatives(cx, degree):
    """Reference representative choice: the kernel's basis vectors, in
    order, that enlarge the span of the incoming boundaries."""
    ring = cx.field
    width = len(cx.basis[degree])
    span = DenseSpan(ring, width)
    for prev in cx.degrees():
        if cx._next(prev) == degree:
            matrix = cx.matrix(prev)
            for col in range(len(cx.basis[prev])):
                span.add([row[col] for row in matrix])
    matrix = cx.matrix(degree)
    if matrix:
        cycles = dense_kernel_basis(matrix, width, ring)
    else:
        cycles = [[ring.one if i == j else ring.zero for j in range(width)] for i in range(width)]
    return [z for z in cycles if span.add(z)]


def _scalars(ring):
    if ring == Z2:
        return st.sampled_from([0, 0, 0, 1])
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    return st.sampled_from([Fraction(v) for v in values])


@st.composite
def _matrices(draw, ring):
    height = draw(st.integers(0, 7))
    width = draw(st.integers(1, 8))
    entries = _scalars(ring)
    return [[draw(entries) for _ in range(width)] for _ in range(height)], width


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
def test_sparse_span_matches_dense_reference(ring):
    @settings(max_examples=200, deadline=None)
    @given(_matrices(ring), st.data())
    def check(image, data):
        rows, width = image
        sparse, dense = Span(ring, width), DenseSpan(ring, width)
        for row in rows:
            assert sparse.add(row) == dense.add(row)
        assert sparse.rank == len(dense.rows)
        assert (sparse.rows, sparse.pivots) == (dense.rows, dense.pivots)
        assert kernel_basis(rows, width, ring) == dense_kernel_basis(rows, width, ring)
        # representative choice: which candidates enlarge a copy of the span
        vectors = st.lists(_scalars(ring), min_size=width, max_size=width)
        candidates = data.draw(st.lists(vectors, max_size=6))
        copy, dense_copy = sparse.copy(), DenseSpan(ring, width)
        dense_copy.rows = [row[:] for row in dense.rows]
        dense_copy.pivots = list(dense.pivots)
        assert [copy.add(z) for z in candidates] == [dense_copy.add(z) for z in candidates]
        assert (sparse.rows, sparse.pivots) == (dense.rows, dense.pivots)
        columns = [list(col) for col in zip(*rows)]
        heights = st.lists(_scalars(ring), min_size=len(rows), max_size=len(rows))
        for z in candidates:
            assert sparse.reduce(z) == dense.reduce(z)
            # a target in the column span (rows . z) and an arbitrary one
            image = []
            for row in rows:
                total = ring.zero
                for a, b in zip(row, z):
                    total = ring.add(total, ring.mul(a, b))
                image.append(total)
            for target in (image, data.draw(heights)):
                solution = solve_in_span(columns, target, ring)
                assert solution == dense_solve_in_span(columns, target, ring)
            assert solve_in_span(columns, image, ring) is not None

    check()


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
@pytest.mark.parametrize("case", ["I", "II"])
def test_homology_representatives_match_dense_reference(ring, case):
    dga, e0, e1 = _xy_augmentations(ring)
    for pair in [(e0, e1), (e1, e0)]:
        result = homology(bilinearized_complex(dga, *pair, case))
        for degree in result.cx.degrees():
            assert result.representatives[degree] == dense_representatives(result.cx, degree)
