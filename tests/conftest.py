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
from ncdga.homology import Span

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


def solve_in_span(columns, target, ring):
    """Coefficients expressing target in the given columns, or None.  Free
    coefficients are zero; the rest come from the reduced echelon form of
    the augmented matrix [columns | target]."""
    ncols = len(columns)
    span = Span(ring, ncols + 1)
    for i, t in enumerate(target):
        span.add([col[i] for col in columns] + [t])
    if ncols in span.pivots:
        return None
    solution = [ring.zero] * ncols
    for row, col in zip(span.rows, span.pivots):
        solution[col] = row[-1]
    return solution


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
