"""Case II over matrix n through its case I core, against the full
construction it replaces.

Over ``matrix n`` the case II complex is n^2 copies of one core, the case
I complex over matrix n, whose label (E_bc, g) sits at (E_ab, g, E_cd) in
block (a, d).  The library evaluates and eliminates only the core and
moves its representatives and products into the blocks.  The oracle below
is the full construction: one adjoint per label of the full basis,
elimination of the whole block-diagonal matrix, and each class solved
afresh in [representatives | boundaries].  The two must agree on matrices,
representatives, their strings and the product table.  A case I complex
over matrix n is one block of the same core and goes through the same
path; its oracle eliminates the whole complex the same way.
"""

import hashlib
import random

import pytest

from ncdga import (
    Q,
    ChainComplex,
    TensorElement,
    TensorWord,
    Z2,
    Zp,
    bilinearized_complex,
    homology,
    parse_augmentation,
    parse_dga,
    product_on_homology,
)
from ncdga.ainfinity import _evaluate_case2, augmented_components
from ncdga.cli import main
from ncdga.errors import NcdgaError
from conftest import (
    DenseSpan,
    _prepare,
    dense,
    dense_kernel_basis,
    dense_table,
    element_of,
    solve_in_span,
    terms_of,
    vector_of,
)

Z3 = Zp(3)

DGA_SOURCES = {
    "xy-1": "d a = x*y - 1",
    "commutator": "d a = x*y - y*x",
}


def _dga_text(ring_name, which):
    return (
        f"ring {ring_name}\nalgebra free\ngrading mod 0\n"
        f"gen a deg 1\ngen x deg 0\ngen y deg 0\n{DGA_SOURCES[which]}\n"
    )


def _dga(ring, which):
    return parse_dga(_dga_text(ring.name, which))


def _literal(rows):
    return "[" + ",".join("[" + ",".join(str(c) for c in row) + "]" for row in rows) + "]"


def _jordan(n):
    """I + N with N the upper shift."""
    return [[int(j == i) + int(j == i + 1) for j in range(n)] for i in range(n)]


def _transpose(rows):
    return [list(row) for row in zip(*rows)]


def _augmentations(dga, ring, which, n):
    """(e0, e1), two distinct augmentations into matrix n over the ring."""
    jordan = _jordan(n)
    if which == "xy-1":
        # x -> A, y -> A^-1 for A = I + N and for its transpose;
        # (I + N)^-1 = sum (-N)^k
        inverse = [[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
        images = [(jordan, inverse), (_transpose(jordan), _transpose(inverse))]
    else:
        # commuting pairs: x -> I + N, y -> (I + N)^2, and x -> 1, y -> I + N^T
        square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*jordan)] for row in jordan]
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        images = [(jordan, square), (identity, _transpose(jordan))]
    p = ring.characteristic
    augs = []
    for x, y in images:
        x, y = ([[c % p for c in row] for row in m] if p else m for m in (x, y))
        text = f"target matrix {n} over {ring.name}\nx = {_literal(x)}\ny = {_literal(y)}\n"
        aug = parse_augmentation(text, dga)
        assert aug.check().ok
        augs.append(aug)
    return augs


# -- the full construction (oracle) ---------------------------------------


def full_complex(dga, e0, e1):
    """Every column of the full case II basis, one adjoint each."""
    base, (a0, a1) = _prepare(dga, [e0, e1])
    alg = base.algebra
    ring = alg.ring
    words = sorted(alg.words(alg.dimension()), key=alg.word_key)
    basis = {}
    for gen in base.generators:
        degree = base.reduce_degree(gen.degree + 1)
        basis.setdefault(degree, []).extend((u, gen.name, v) for u in words for v in words)
    components = augmented_components(base, (a0, a1), 1)
    diff = {}
    for degree, labels in basis.items():
        index = {label: i for i, label in enumerate(basis.get(degree + 1, []))}
        columns = diff[degree] = []
        for u, gen, v in labels:
            chain = TensorElement(alg, {TensorWord((u, v), (gen,)): ring.one})
            value = _evaluate_case2(alg, components, chain)
            columns.append(
                {index[tw.coeffs[0], tw.gens[0], tw.coeffs[1]]: c for tw, c in value.terms.items()}
            )
    return ChainComplex(base, alg, "II", basis, diff)


class FullHomology:
    """Dense elimination of the whole complex (``conftest``'s reference);
    classes solved afresh each time."""

    def __init__(self, cx):
        self.cx = cx
        ring = cx.field
        self.image_spans = {}
        self.representatives = {}
        for degree in cx.degrees():
            span = DenseSpan(ring, len(cx.basis[degree]))
            for prev in cx.degrees():
                if cx._next(prev) == degree:
                    matrix = cx.matrix(prev)
                    for col in range(len(cx.basis[prev])):
                        span.add([row[col] for row in matrix])
            self.image_spans[degree] = span
        for degree in cx.degrees():
            cycles = dense_kernel_basis(cx.matrix(degree), len(cx.basis[degree]), ring)
            span = self.image_spans[degree].copy()
            self.representatives[degree] = [z for z in cycles if span.add(z)]
        self.dims = {d: len(reps) for d, reps in self.representatives.items()}

    def class_of(self, degree, vector):
        reps = self.representatives[degree]
        columns = [list(r) for r in reps] + [list(r) for r in self.image_spans[degree].rows]
        solution = solve_in_span(columns, list(vector), self.cx.field)
        if solution is None:
            raise NcdgaError("vector is not a cycle class in this degree")
        return solution[: len(reps)]


def full_components(prod):
    """The arity-two components of the product's triple, read off the DGA
    with its coefficients changed rather than off the source words."""
    base, augs = _prepare(prod.dga, prod.augs)
    return augmented_components(base, augs, 2)


def full_product_class(prod, components, h01, h12, h02, deg_x, x_vec, deg_y, y_vec):
    x = element_of(h01.cx, deg_x, x_vec)
    y = element_of(h12.cx, deg_y, y_vec)
    value = _evaluate_case2(prod.algebra, components, x * y)
    degree = prod.output_degree(deg_x, deg_y)
    if degree not in h02.cx.basis:
        assert value.is_zero()
        return degree, []
    return degree, h02.class_of(degree, vector_of(h02.cx, degree, value))


def _strings(cx, degree, reps):
    ring = cx.field
    out = []
    for rep in reps:
        parts = [
            cx.label_str(label) if c == ring.one else f"{ring.scalar_str(c)}*{cx.label_str(label)}"
            for c, label in zip(rep, cx.basis[degree])
            if not ring.is_zero(c)
        ]
        out.append(" + ".join(parts) or "0")
    return out


CASES = [
    (ring, which, n, equal)
    for ring in (Z2, Z3, Q)
    for which in DGA_SOURCES
    for n in (2, 3)
    for equal in (True, False)
]


def _case_id(case):
    ring, which, n, equal = case
    return f"{ring.name}-{which}-m{n}-{'e0=e1' if equal else 'e0!=e1'}"


def _assert_matches_whole_elimination(case, kind):
    """Case II against the full construction; case I, one block that is its
    own core, against the elimination of the whole case I complex."""
    ring, which, n, equal = case
    dga = _dga(ring, which)
    e0, e1 = _augmentations(dga, ring, which, n)
    if equal:
        e1 = e0
    cx = bilinearized_complex(dga, e0, e1, kind)
    oracle = full_complex(dga, e0, e1) if kind == "II" else cx
    blocks = n * n if kind == "II" else 1
    assert len(cx.blocks) == blocks
    assert list(cx.cores) == [(1, 1)]
    assert cx.basis == oracle.basis
    for degree in cx.degrees():
        assert cx.matrix(degree) == oracle.matrix(degree)
        # the core is one of the blocks
        assert len(cx.cores[1, 1].basis[degree]) * blocks == len(cx.basis[degree])
    result, full = homology(cx), FullHomology(oracle)
    assert result.dims == full.dims
    for degree in cx.degrees():
        assert result.representatives[degree] == full.representatives[degree]
        assert result.representative_strings(degree) == _strings(
            oracle, degree, full.representatives[degree]
        )
    # classes of random cycles plus boundaries, read block by block
    rng = random.Random(_case_id(case))
    for degree in cx.degrees():
        reps = full.representatives[degree]
        prev = [d for d in cx.degrees() if cx._next(d) == degree]
        for _ in range(5):
            coords = [ring.coerce(rng.randrange(-2, 3)) for _ in reps]
            vector = [ring.zero] * len(cx.basis[degree])
            for c, rep in zip(coords, reps):
                vector = [ring.add(v, ring.mul(c, r)) for v, r in zip(vector, rep)]
            for source in prev:
                u = [ring.coerce(rng.randrange(2)) for _ in cx.basis[source]]
                vector = [ring.add(v, b) for v, b in zip(vector, cx.apply_d(source, u))]
            assert result.class_of(degree, vector) == coords == full.class_of(degree, vector)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_corner_complex_and_homology_match_full_construction(case):
    _assert_matches_whole_elimination(case, "II")


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_case1_complex_and_homology_match_whole_elimination(case):
    _assert_matches_whole_elimination(case, "I")


@pytest.mark.parametrize("ring", [Z2, Z3, Q], ids=["Z2", "Z3", "Q"])
@pytest.mark.parametrize("which", list(DGA_SOURCES))
@pytest.mark.parametrize("n", [2, 3])
def test_corner_dimensions_equal_case1_dimensions(ring, which, n):
    dga = _dga(ring, which)
    e0, e1 = _augmentations(dga, ring, which, n)
    for pair in [(e0, e0), (e0, e1), (e1, e0)]:
        result = homology(bilinearized_complex(dga, *pair, "II"))
        case1 = homology(bilinearized_complex(dga, *pair, "I"))
        core_dims = {d: len(reps) for (_core, d), reps in result.core_representatives.items()}
        assert core_dims == case1.dims
        assert result.dims == {d: n * n * k for d, k in case1.dims.items()}


def _triples(e0, e1):
    return [(e0, e0, e0), (e0, e1, e1), (e1, e0, e1)]


@pytest.mark.parametrize("ring", [Z2, Z3, Q], ids=["Z2", "Z3", "Q"])
@pytest.mark.parametrize("which", list(DGA_SOURCES))
def test_corner_product_table_matches_full_construction(ring, which):
    """matrix 2: the whole table against the full products."""
    dga = _dga(ring, which)
    e0, e1 = _augmentations(dga, ring, which, 2)
    nonzero = 0
    for triple in _triples(e0, e1):
        prod = product_on_homology(dga, *triple, "II")
        components = full_components(prod)
        h01, h12, h02 = (
            FullHomology(full_complex(dga, a, b))
            for a, b in [(triple[0], triple[1]), (triple[1], triple[2]), (triple[0], triple[2])]
        )
        expected = {}
        for deg_x, xs in h01.representatives.items():
            for i, x_vec in enumerate(xs):
                for deg_y, ys in h12.representatives.items():
                    for j, y_vec in enumerate(ys):
                        expected[deg_x, i, deg_y, j] = full_product_class(
                            prod, components, h01, h12, h02, deg_x, x_vec, deg_y, y_vec
                        )
        table = dense_table(prod)
        assert list(table) == list(expected)
        assert table == expected
        nonzero += sum(any(c != 0 for c in coords) for _deg, coords in table.values())
    if which == "commutator":
        assert nonzero


@pytest.mark.parametrize("ring", [Z2, Z3, Q], ids=["Z2", "Z3", "Q"])
@pytest.mark.parametrize("which", list(DGA_SOURCES))
def test_corner_product_table_samples_match_full_construction(ring, which):
    """matrix 3: sampled entries (the full table takes a minute)."""
    dga = _dga(ring, which)
    e0, e1 = _augmentations(dga, ring, which, 3)
    rng = random.Random(f"{ring.name}-{which}")
    for triple in _triples(e0, e1)[:2]:
        prod = product_on_homology(dga, *triple, "II")
        table = dense_table(prod)
        components = full_components(prod)
        h01, h12, h02 = (
            FullHomology(full_complex(dga, a, b))
            for a, b in [(triple[0], triple[1]), (triple[1], triple[2]), (triple[0], triple[2])]
        )
        assert len(table) == sum(h01.dims.values()) * sum(h12.dims.values())
        for key in rng.sample(sorted(table), 40):
            deg_x, i, deg_y, j = key
            x_vec = h01.representatives[deg_x][i]
            y_vec = h12.representatives[deg_y][j]
            expected = full_product_class(
                prod, components, h01, h12, h02, deg_x, x_vec, deg_y, y_vec
            )
            assert table[key] == expected
            # the public per-pair product agrees with the table
            assert prod.product_class(deg_x, x_vec, deg_y, y_vec) == table[key]


@pytest.mark.parametrize("ring", [Z2, Q], ids=["Z2", "Q"])
def test_case1_classes_match_fresh_solve(ring):
    """Case I over matrix n is one block, a copy of its one core; its
    factored classes against a fresh solve of [representatives |
    boundaries] per product."""
    dga = _dga(ring, "commutator")
    e0, e1 = _augmentations(dga, ring, "commutator", 3)
    prod = product_on_homology(dga, e0, e1, e1, "I")
    assert list(prod.cx01.cores) == [(1, 1)] and len(prod.cx01.blocks) == 1
    for key, (degree, coords) in dense_table(prod).items():
        deg_x, i, deg_y, j = key
        chain_degree, vec = prod.product_chain(
            deg_x, prod.h01.representatives[deg_x][i], deg_y, prod.h12.representatives[deg_y][j]
        )
        assert chain_degree == degree
        if degree not in prod.cx02.basis:
            assert coords == []
            continue
        h02 = prod.h02
        width = len(prod.cx02.basis[degree])  # one block: the core is the whole complex
        columns = [list(r) for r in h02.representatives[degree]] + [
            dense(r, width, prod.cx02.field) for r in h02.image_spans[(1, 1), degree].rows
        ]
        solution = solve_in_span(columns, vec, prod.cx02.field)
        assert coords == solution[: len(h02.representatives[degree])]


@pytest.mark.parametrize("case", ["I", "II"])
def test_class_of_rejects_non_cycles(case):
    dga = _dga(Q, "commutator")
    e0, _e1 = _augmentations(dga, Q, "commutator", 2)
    result = homology(bilinearized_complex(dga, e0, e0, case))
    degree = min(result.dims)
    width = len(result.cx.basis[degree])
    units = ([Q.one if k == col else Q.zero for k in range(width)] for col in range(width))
    # a unit vector that d does not kill
    unit = next(u for u in units if any(c != 0 for c in result.cx.apply_d(degree, u)))
    with pytest.raises(NcdgaError, match="not a cycle class"):
        result.class_of(degree, unit)


def test_core_class_of_rejects_full_vectors():
    """Over matrix 2 a full case II vector is four core blocks wide; it is
    read through class_of, never against the core's echelon form, where its
    terms past the core's width are refused."""
    dga = _dga(Q, "commutator")
    e0, _e1 = _augmentations(dga, Q, "commutator", 2)
    result = homology(bilinearized_complex(dga, e0, e0, "II"))
    degree = min(result.dims)
    vector = result.representatives[degree][-1]
    width = len(result.cx.cores[1, 1].basis[degree])
    assert len(vector) == 4 * width and max(terms_of(vector)) >= width
    with pytest.raises(NcdgaError, match="outside the core basis"):
        result.core_class_of((1, 1), degree, terms_of(vector))
    assert result.class_of(degree, vector)[-1] == Q.one


# -- CLI output pinned at the full construction ---------------------------

PINNED_PRODUCTS = {
    # ring: (x, y, line count, sha256 of stdout)
    "Z2": (
        "[[1,1],[0,1]]",
        "[[0,1],[0,0]]",
        1024,
        "e5a0a84bb20937107a0410af311bd7f8ed8fef206b8aad2efee037e363b269a2",
    ),
    "Q": (
        "[[1,1],[0,1]]",
        "[[2,3],[0,2]]",
        1024,
        "53ca327ea0659447a9a3c7b2688fbc77ab03f7d5fa7f80ff188bb6446e0f0c35",
    ),
}


@pytest.mark.parametrize("ring", list(PINNED_PRODUCTS))
def test_commutator_product_output_pinned(ring, tmp_path, capsys):
    x, y, lines, digest = PINNED_PRODUCTS[ring]
    dga_file = tmp_path / "commutator.dga"
    dga_file.write_text(_dga_text(ring, "commutator"))
    aug_file = tmp_path / "m2.aug"
    aug_file.write_text(f"target matrix 2 over {ring}\nx = {x}\ny = {y}\n")
    assert main(["product", str(dga_file), "--aug", str(aug_file), "--case", "II"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
