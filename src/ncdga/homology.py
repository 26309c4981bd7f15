"""Bilinearised (co)chain complexes, their homology over a field, the
induced product on homology, and the mirror comparison.

The chain groups are spanned by generators decorated with a basis word of
the coefficient algebra (one word on the left for case I functionals, a
word on each side for case II bimodule elements), so the coefficient
algebra must be finite dimensional over the scalar field.  Grading uses
the suspended dual convention: a generator of degree g sits in cochain
degree g + 1 and the differential raises degree by one.
"""

from __future__ import annotations

from typing import Sequence

from .ainfinity import _evaluate_case1, _evaluate_case2, augmented_components
# re-exported: callers reach the operations through this module too
from .ainfinity import mu_eps_case1, mu_eps_case2  # noqa: F401
from .algebra import AlgebraElement
from .augmentation import Augmentation, push_to_target
from .dga import SemifreeDGA
from .errors import (
    InfiniteDimensionalCoefficientsError,
    NcdgaError,
    NotAComplexError,
    NotHermitianError,
    NotMatrixTargetError,
    TargetMismatchError,
)
from .report import Report
from .rings import Ring
from .tensor import DualElement, TensorElement, TensorWord


# -- exact linear algebra over a field ------------------------------------


class Span:
    """Row span in reduced echelon form; supports membership reduction.

    Each echelon row keeps the indices of its nonzero entries, so reducing
    and inserting touch only those columns; complexes of decorated
    generators give sparse rows."""

    def __init__(self, ring: Ring, width: int):
        self.ring = ring
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self.supports: list[list[int]] = []

    def reduce(self, vector: list) -> list:
        ring = self.ring
        vec = list(vector)
        for row, pivot, support in zip(self.rows, self.pivots, self.supports):
            c = vec[pivot]
            if not ring.is_zero(c):
                for j in support:
                    vec[j] = ring.sub(vec[j], ring.mul(c, row[j]))
        return vec

    def add(self, vector: list) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        ring = self.ring
        vec = self.reduce(vector)
        support = [j for j, c in enumerate(vec) if not ring.is_zero(c)]
        if not support:
            return False
        pivot = support[0]
        inv = ring.inv(vec[pivot])
        for j in support:
            vec[j] = ring.mul(inv, vec[j])
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if not ring.is_zero(c):
                for j in support:
                    row[j] = ring.sub(row[j], ring.mul(c, vec[j]))
                merged = set(self.supports[i]).union(support)
                self.supports[i] = [j for j in merged if not ring.is_zero(row[j])]
        self.rows.append(vec)
        self.pivots.append(pivot)
        self.supports.append(support)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Span":
        clone = Span(self.ring, self.width)
        clone.rows = [row[:] for row in self.rows]
        clone.pivots = list(self.pivots)
        clone.supports = [support[:] for support in self.supports]
        return clone


def kernel_basis(matrix: list[list], ncols: int, ring: Ring) -> list[list]:
    """Basis of the null space of a (rows x ncols) matrix, one vector per
    non-pivot column of its reduced echelon form."""
    span = Span(ring, ncols)
    for row in matrix:
        span.add(row)
    pivots = set(span.pivots)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ring.zero] * ncols
        vec[free] = ring.one
        for row, col in zip(span.rows, span.pivots):
            vec[col] = ring.neg(row[free])
        basis.append(vec)
    return basis


def solve_in_span(columns: list[list], target: list, ring: Ring) -> list | None:
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


# -- bilinearised complexes ------------------------------------------------


class ChainComplex:
    """Graded basis with a degree +1 differential, d squared verified."""

    def __init__(self, dga: SemifreeDGA, augs, case: str, basis: dict, diff: dict, label_str):
        self.dga = dga
        self.augs = augs
        self.case = case
        self.field: Ring = dga.algebra.ring
        self.modulus = dga.modulus
        self.basis = basis  # degree -> list of labels
        self.diff = diff    # degree -> matrix (rows: degree+1 basis, cols: degree basis)
        self.label_str = label_str
        self._check_squares()

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def _next(self, degree: int) -> int:
        return (degree + 1) % self.modulus if self.modulus else degree + 1

    def matrix(self, degree: int) -> list[list]:
        return self.diff.get(degree, [])

    def _check_squares(self):
        for degree in self.degrees():
            m1 = self.matrix(degree)
            if not m1 or not self.matrix(self._next(degree)):
                continue
            for col in range(len(self.basis[degree])):
                image = self.apply_d(self._next(degree), [row[col] for row in m1])
                if not all(self.field.is_zero(c) for c in image):
                    raise NotAComplexError(f"d^2 != 0 out of degree {degree}, column {col}")

    def element_of(self, degree: int, vector: list):
        """Chain with the given coordinates, as a library element."""
        labels = self.basis[degree]
        alg = self.dga.algebra
        if self.case == "I":
            terms: dict = {}
            for c, (word, gen) in zip(vector, labels):
                alg.ring.add_term(terms.setdefault(gen, {}), word, c)
            return DualElement(alg, {g: AlgebraElement(alg, t) for g, t in terms.items()})
        out: dict = {}
        for c, (left, gen, right) in zip(vector, labels):
            alg.ring.add_term(out, TensorWord((left, right), (gen,)), c)
        return TensorElement(alg, out)

    def vector_of(self, degree: int, element) -> list:
        labels = self.basis[degree]
        index = {label: i for i, label in enumerate(labels)}
        ring = self.field
        vec = [ring.zero] * len(labels)
        if self.case == "I":
            for gen, coeff in element.terms.items():
                for word, c in coeff.terms.items():
                    vec[index[(word, gen)]] = c
        else:
            for tw, c in element.terms.items():
                vec[index[(tw.coeffs[0], tw.gens[0], tw.coeffs[1])]] = c
        return vec

    def apply_d(self, degree: int, vector: list) -> list:
        matrix = self.matrix(degree)
        ring = self.field
        if not matrix:
            return [ring.zero] * len(self.basis.get(self._next(degree), []))
        out = [ring.zero] * len(matrix)
        for i, row in enumerate(matrix):
            total = ring.zero
            for j, c in enumerate(vector):
                total = ring.add(total, ring.mul(row[j], c))
            out[i] = total
        return out


def _prepare(dga: SemifreeDGA, augs: Sequence[Augmentation]):
    """Move everything over the (common) augmentation target."""
    first = augs[0]
    for aug in augs[1:]:
        if aug.target != first.target or aug.morphism.images != first.morphism.images:
            raise TargetMismatchError("augmentations do not share a coefficient map")
    if first.morphism.is_identity:
        return dga, list(augs)
    base = dga.change_coefficients(first.morphism)
    return base, [push_to_target(aug, base) for aug in augs]


def bilinearized_complex(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "I"
) -> ChainComplex:
    """The complex carried by the arity-one augmented operation."""
    if case not in ("I", "II"):
        raise NcdgaError(f"unknown case {case!r}")
    base, (a0, a1) = _prepare(dga, [e0, e1])
    alg = base.algebra
    if not alg.ring.is_field:
        raise NcdgaError("homology needs field scalars (Q or Z/p)")
    dim = alg.dimension()
    if dim is None:
        raise InfiniteDimensionalCoefficientsError(
            f"{alg} is infinite dimensional over {alg.ring.name}"
        )
    words = sorted(alg.words(dim), key=alg.word_key)
    basis: dict[int, list] = {}
    for gen in base.generators:
        degree = base.reduce_degree(gen.degree + 1)
        if case == "I":
            labels = [(w, gen.name) for w in words]
        else:
            labels = [(u, gen.name, v) for u in words for v in words]
        basis.setdefault(degree, []).extend(labels)

    def label_str(label) -> str:
        if case == "I":
            word, gen = label
            ws = alg.word_str(word)
            return gen if ws == "1" else f"{ws}*{gen}"
        left, gen, right = label
        ls, rs = alg.word_str(left), alg.word_str(right)
        parts = [p for p in (ls if ls != "1" else "", gen, rs if rs != "1" else "") if p]
        return "*".join(parts)

    def chain_of(label):
        if case == "I":
            word, gen = label
            return DualElement.term(alg.element(word), gen)
        left, gen, right = label
        return TensorElement(alg, {TensorWord((left, right), (gen,)): alg.ring.one})

    if case == "II" and not alg.hermitian:
        raise NotHermitianError(f"{alg} has no hermitian structure")
    # the arity-one operation reads these components; they do not depend
    # on the column, so build them once per complex
    components = augmented_components(base, (a0, a1), 1)

    diff: dict[int, list[list]] = {}
    for degree, labels in basis.items():
        target_degree = (degree + 1) % base.modulus if base.modulus else degree + 1
        target_labels = basis.get(target_degree, [])
        index = {label: i for i, label in enumerate(target_labels)}
        matrix = [[alg.ring.zero] * len(labels) for _ in target_labels]
        for col, label in enumerate(labels):
            if case == "I":
                value = _evaluate_case1(base, components, [chain_of(label)])
                pairs = [
                    ((w, gen), c)
                    for gen, coeff in value.terms.items()
                    for w, c in coeff.terms.items()
                ]
            else:
                value = _evaluate_case2(base, components, chain_of(label))
                pairs = [
                    ((tw.coeffs[0], tw.gens[0], tw.coeffs[1]), c)
                    for tw, c in value.terms.items()
                ]
            for label_out, c in pairs:
                matrix[index[label_out]][col] = c
        diff[degree] = matrix
    return ChainComplex(base, (a0, a1), case, basis, diff, label_str)


class HomologyResult:
    """Per-degree dimensions with representative cycles."""

    def __init__(self, cx: ChainComplex):
        self.cx = cx
        ring = cx.field
        self.dims: dict[int, int] = {}
        self.representatives: dict[int, list[list]] = {}
        self.image_spans: dict[int, Span] = {}
        degrees = cx.degrees()
        for degree in degrees:
            width = len(cx.basis[degree])
            span = Span(ring, width)
            for prev in degrees:
                if cx._next(prev) == degree:
                    matrix = cx.matrix(prev)
                    for col in range(len(cx.basis[prev])):
                        span.add([row[col] for row in matrix])
            self.image_spans[degree] = span
        for degree in degrees:
            # with no rows the kernel is everything: the unit vectors
            cycles = kernel_basis(cx.matrix(degree), len(cx.basis[degree]), ring)
            span = self.image_spans[degree].copy()
            reps = [z for z in cycles if span.add(z)]
            self.dims[degree] = len(reps)
            self.representatives[degree] = reps

    @property
    def total_dimension(self) -> int:
        return sum(self.dims.values())

    def representative_strings(self, degree: int) -> list[str]:
        out = []
        ring = self.cx.field
        for rep in self.representatives[degree]:
            parts = []
            for c, label in zip(rep, self.cx.basis[degree]):
                if ring.is_zero(c):
                    continue
                text = self.cx.label_str(label)
                parts.append(text if c == ring.one else f"{ring.scalar_str(c)}*{text}")
            out.append(" + ".join(parts) if parts else "0")
        return out

    def class_of(self, degree: int, vector: list) -> list:
        """Coordinates of a cycle's class in the representative basis."""
        ring = self.cx.field
        reps = self.representatives[degree]
        image = self.image_spans[degree]
        columns = [list(r) for r in reps] + [list(r) for r in image.rows]
        solution = solve_in_span(columns, list(vector), ring)
        if solution is None:
            raise NcdgaError("vector is not a cycle class in this degree")
        return solution[: len(reps)]


def homology(cx: ChainComplex) -> HomologyResult:
    return HomologyResult(cx)


class HomologyProduct:
    """The degree-one-shifted product induced on homology by the arity-two
    augmented operation, for a triple of augmentations."""

    def __init__(self, dga: SemifreeDGA, e0, e1, e2, case: str = "I"):
        self.case = case
        base, (a0, a1, a2) = _prepare(dga, [e0, e1, e2])
        self.base = base
        self.augs = (a0, a1, a2)
        self.cx01 = bilinearized_complex(base, a0, a1, case)
        self.cx12 = bilinearized_complex(base, a1, a2, case)
        self.cx02 = bilinearized_complex(base, a0, a2, case)
        self.h01 = homology(self.cx01)
        self.h12 = homology(self.cx12)
        self.h02 = homology(self.cx02)
        # the arity-two operation reads these for every product
        self.components = augmented_components(base, self.augs, 2)

    def product_chain(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        """The chain-level product of two cycles, as a cx02 vector."""
        x = self.cx01.element_of(deg_x, x_vec)
        y = self.cx12.element_of(deg_y, y_vec)
        if self.case == "I":
            value = _evaluate_case1(self.base, self.components, [x, y])
        else:
            value = _evaluate_case2(self.base, self.components, x * y)
        degree = self.output_degree(deg_x, deg_y)
        if degree not in self.cx02.basis:
            if value.is_zero():
                return degree, []
            raise NcdgaError("product landed outside the complex")
        return degree, self.cx02.vector_of(degree, value)

    def output_degree(self, deg_x: int, deg_y: int) -> int:
        degree = deg_x + deg_y
        return degree % self.base.modulus if self.base.modulus else degree

    def product_class(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        degree, vec = self.product_chain(deg_x, x_vec, deg_y, y_vec)
        if degree not in self.cx02.basis:
            return degree, []
        return degree, self.h02.class_of(degree, vec)

    def table(self):
        """Products of all representative pairs, in homology coordinates."""
        out = {}
        for deg_x in self.h01.dims:
            for i, x_vec in enumerate(self.h01.representatives[deg_x]):
                for deg_y in self.h12.dims:
                    for j, y_vec in enumerate(self.h12.representatives[deg_y]):
                        out[(deg_x, i, deg_y, j)] = self.product_class(
                            deg_x, x_vec, deg_y, y_vec
                        )
        return out


def product_on_homology(dga: SemifreeDGA, e0, e1, e2, case: str = "I") -> HomologyProduct:
    return HomologyProduct(dga, e0, e1, e2, case)


def mirror_compare(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "II"
) -> Report:
    """Graded dimensions of the (e0, e1) complex match those of the mirror
    DGA with the transposed augmentations in swapped order."""
    base, (a0, a1) = _prepare(dga, [e0, e1])
    alg = base.algebra
    if alg.kind != "matrix" and alg.dimension() != 1:
        raise NotMatrixTargetError(f"mirror comparison needs a matrix target, got {alg}")
    report = Report("mirror comparison")
    mirrored = base.mirror()

    def transported(aug: Augmentation) -> Augmentation:
        values = {name: value.reverse() for name, value in aug.values.items()}
        return Augmentation(mirrored, values)

    m1, m0 = transported(a1), transported(a0)
    for aug in (m0, m1):
        check = aug.check()
        report.record(check.ok, f"transported augmentation invalid: {check}")
    if not report.ok:
        return report
    h = homology(bilinearized_complex(base, a0, a1, case))
    hm = homology(bilinearized_complex(mirrored, m1, m0, case))
    degrees = sorted(set(h.dims) | set(hm.dims))
    for degree in degrees:
        d1, d2 = h.dims.get(degree, 0), hm.dims.get(degree, 0)
        report.record(d1 == d2, f"degree {degree}: {d1} vs {d2} on the mirror")
    return report
