import pytest
from hypothesis import settings

from ncdga import (
    AlgebraElement,
    Augmentation,
    CoefficientMorphism,
    DualElement,
    FreeAlgebra,
    MatrixAlgebra,
    TensorElement,
    TensorWord,
    Z2,
    parse_dga,
    tensor_product,
    toy_dga,
    toy_hermitian_dga,
)
from ncdga.augmentation import require_shared_augmentations

# every run draws the same examples, so Tier-1's time and memory do not
# depend on the run; each test keeps its own max_examples and deadline
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

XY_SOURCE = """\
ring Z2
algebra free
grading mod 0
gen a deg 1
gen x deg 0
gen y deg 0
d a = x*y - 1
"""

ACTION_SOURCE = """\
ring Z2
algebra free g1 g2
grading mod 0
gen c1 deg 2 action 4
gen c2 deg 1 action 5/2
gen c3 deg 1 action 5/2
gen c4 deg 0 action 1
gen c5 deg 0 action 1
d c1 = c2*g1*c4 + c3
d c2 = c5*g2
d c3 = c5*g2*g1*c4
"""

# Chekanov's trefoil: words of d up to three letters
TREFOIL_SOURCE = """\
ring Z2
algebra free
grading mod 0
gen a1 deg 0
gen a2 deg 0
gen a3 deg 0
gen b1 deg 1
gen b2 deg 1
d b1 = 1 + a1 + a3 + a1*a2*a3
d b2 = 1 + a1 + a3 + a3*a2*a1
"""

# The c0/s0 pair makes the corpus genuinely sign-sensitive: d(c0) contains
# x1*x2 with an odd letter in front of a differentiable one, so d^2 = 0 and
# the associativity relations both hinge on the Koszul signs.
Q_BASE_SOURCE = """\
ring Q
algebra free g1 g2
grading mod 0
gen u1 deg 2
gen u4 deg 0
gen c0 deg 4
gen s0 deg 3
gen x2 deg 2
gen y1 deg 1
gen x1 deg 1
gen y0 deg 0
d c0 = x1*x2 + s0
d s0 = -y0*x2 + x1*y1
d x2 = y1
d x1 = y0
"""


# -- dense references ---------------------------------------------------
#
# The library keeps every chain of a complex as a term map {index: c}; the
# oracles below eliminate dense zero-filled lists over the full width, and
# these move vectors and product tables between the two.


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

    @property
    def rank(self):
        return len(self.rows)

    def copy(self):
        clone = DenseSpan(self.ring, self.width)
        clone.rows, clone.pivots = [row[:] for row in self.rows], list(self.pivots)
        return clone


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


def dense(terms: dict, width: int, ring) -> list:
    """A term map {index: c} as a dense vector of the given width."""
    vec = [ring.zero] * width
    for i, c in terms.items():
        vec[i] = c
    return vec


def terms_of(vector) -> dict:
    """A dense vector as a term map, its zero entries left out."""
    return {i: c for i, c in enumerate(vector) if c}


def dense_table(prod) -> dict:
    """``prod.table()`` with each entry's coordinates written out dense,
    over the homology of its degree."""
    dims, ring = prod.h02.dims, prod.cx02.field
    return {
        key: (degree, dense(coeffs, dims.get(degree, 0), ring))
        for key, (degree, coeffs) in prod.table().items()
    }


def solve_in_span(columns, target, ring):
    """Coefficients expressing target in the given columns, or None.  Free
    coefficients are zero; the rest come from the reduced echelon form of
    the augmented matrix [columns | target]."""
    ncols = len(columns)
    span = DenseSpan(ring, ncols + 1)
    for i, t in enumerate(target):
        span.add([col[i] for col in columns] + [t])
    if ncols in span.pivots:
        return None
    solution = [ring.zero] * ncols
    for row, col in zip(span.rows, span.pivots):
        solution[col] = row[-1]
    return solution


def _prepare(dga, augs):
    """Oracle for reading the source words: check the entries, then move
    everything over the (common) augmentation target, the DGA with its
    coefficients changed and the augmentations rebuilt over it."""
    require_shared_augmentations(dga, augs)
    first = augs[0]
    if first.morphism.is_identity:
        return dga, list(augs)
    base = dga.change_coefficients(first.morphism)
    return base, [Augmentation(base, dict(aug.values)) for aug in augs]


# -- chains of a complex as library elements ---------------------------
#
# The library applies the augmented operations to basis labels directly;
# the oracles below evaluate the same operations on library elements
# (ainfinity._evaluate), and these move chains between the two.


def _chain(alg, case: str, pairs):
    """The chain sum of c * label over (label, c) pairs: in case I a
    functional, the labels (word, generator) standing for word * generator;
    in case II a bimodule element, the labels (left, generator, right)
    standing for left generator right."""
    add_term = alg.ring.add_term
    if case == "I":
        terms: dict = {}
        for (word, gen), c in pairs:
            add_term(terms.setdefault(gen, {}), word, c)
        return DualElement(alg, {g: AlgebraElement(alg, t) for g, t in terms.items()})
    out: dict = {}
    for (left, gen, right), c in pairs:
        add_term(out, TensorWord((left, right), (gen,)), c)
    return TensorElement(alg, out)


def _coordinates(case: str, element) -> list:
    """The (label, c) pairs of a chain of arity one, inverse to :func:`_chain`."""
    if case == "I":
        return [((w, g), c) for g, b in element.terms.items() for w, c in b.terms.items()]
    return [((tw.coeffs[0], tw.gens[0], tw.coeffs[1]), c) for tw, c in element.terms.items()]


def element_of(cx, degree: int, vector: list):
    """The chain of a complex with the given coordinates, as a library element."""
    return _chain(cx.algebra, cx.case, zip(cx.basis[degree], vector))


def vector_of(cx, degree: int, element) -> list:
    """The coordinates of a library element of arity one in a degree of a complex."""
    labels = cx.basis[degree]
    index = {label: i for i, label in enumerate(labels)}
    vec = [cx.field.zero] * len(labels)
    for label, c in _coordinates(cx.case, element):
        vec[index[label]] = c
    return vec


@pytest.fixture(scope="session")
def toy():
    return toy_dga()


@pytest.fixture(scope="session")
def toy_h():
    return toy_hermitian_dga()


@pytest.fixture(scope="session")
def xy_dga():
    return parse_dga(XY_SOURCE)


@pytest.fixture(scope="session")
def m2():
    return MatrixAlgebra(2, Z2)


@pytest.fixture(scope="session")
def xy_into_m2(xy_dga, m2):
    return CoefficientMorphism(xy_dga.algebra, m2, {})


@pytest.fixture(scope="session")
def aug_p(xy_dga, m2, xy_into_m2):
    swap = m2.from_terms([((1, 2), 1), ((2, 1), 1)])
    return Augmentation(xy_dga, {"x": swap, "y": swap}, xy_into_m2)


@pytest.fixture(scope="session")
def aug_id(xy_dga, m2, xy_into_m2):
    return Augmentation(xy_dga, {"x": m2.unit(), "y": m2.unit()}, xy_into_m2)


@pytest.fixture(scope="session")
def toy_specialized(toy):
    """The toy DGA with both noncommuting symbols sent to 1."""
    scalars = FreeAlgebra((), Z2)
    collapse = CoefficientMorphism(
        toy.algebra, scalars, {1: scalars.unit(), 2: scalars.unit()}
    )
    return toy.change_coefficients(collapse)


def _word(dga, *factors):
    parts = []
    for f in factors:
        if isinstance(f, str):
            parts.append(dga.generator(f))
        else:
            parts.append(TensorElement.from_algebra(f))
    return tensor_product(parts, dga.algebra)


@pytest.fixture(scope="session")
def q_corpus():
    """Sign-sensitive rational DGA: two stabilisations conjugated twice."""
    base = parse_dga(Q_BASE_SOURCE)
    g1 = base.algebra.element((1,))
    step1 = base.conjugate(
        {"u1": base.generator("u1") + _word(base, "x1", g1, "x1") + _word(base, "x1", "u4", "x1")}
    )
    step2 = step1.conjugate({"x2": step1.generator("x2") + step1.generator("u1")})
    assert step2.check_d_squared().ok
    return step2


@pytest.fixture(scope="session")
def q_corpus_augmented(q_corpus):
    """The same DGA conjugated by u4 -> u4 + 1, with the augmentation the
    offset induces (the projection of the inverse substitution)."""
    shifted = q_corpus.conjugate(
        {"u4": q_corpus.generator("u4") + TensorElement.from_scalar(q_corpus.algebra, 1)}
    )
    eps = Augmentation(shifted, {"u4": shifted.algebra.unit().scale(-1)})
    assert eps.check().ok
    return shifted, eps


@pytest.fixture(scope="session")
def toy_h_augmentations(toy_h):
    alg = toy_h.algebra
    return [
        Augmentation.trivial(toy_h),
        Augmentation(toy_h, {"c4": alg.element((1,))}),
        Augmentation(toy_h, {"c4": alg.element((2, 1))}),
    ]
