"""Bilinearised (co)chain complexes, their homology over a field, the
induced product on homology, and the mirror comparison.

The chain groups are spanned by generators decorated with a basis word of
the coefficient algebra (one word on the left for case I functionals, a
word on each side for case II bimodule elements), so the coefficient
algebra must be finite dimensional over the scalar field.  Grading uses
the suspended dual convention: a generator of degree g sits in cochain
degree g + 1 and the differential raises degree by one.

Every complex is a set of blocks, copies of one core complex, and every
result is computed on the core once and moved into the blocks.  Case II
over matrix n (n >= 2) has the n^2 blocks of its corner, the labels
(E_1b, g, E_c1).  The case II operations are adjoints of the augmented
components, which multiply the outer slots of a label and nothing else,
so they are linear over matrix n on both sides: the complex is n^2 copies
of the corner, one per block (a, d) of outer indices, and the product
sends blocks (a, d) and (d, d') to block (a, d') and every other pair of
blocks to zero.  The corner is built, squared and eliminated once, and its
representatives and products are moved into the blocks by
z -> E_a1 z E_1d.  Every other complex is the one block (1, 1) and its
own core, and the move is the identity.  The results are exactly those of
eliminating the whole complex, not merely isomorphic: see
:class:`HomologyResult`.
"""

from __future__ import annotations

from .ainfinity import _evaluate
# re-exported: the benchmark self-test reads ncdga.homology.mu_eps_case2, so
# these stay until a change to the benchmark moves that test
from .ainfinity import mu_eps_case1, mu_eps_case2  # noqa: F401
from .algebra import AlgebraElement
from .augmentation import Augmentation, _prepare, augmented_components
from .dga import SemifreeDGA
from .errors import (
    InfiniteDimensionalCoefficientsError,
    NcdgaError,
    NotAComplexError,
    NotHermitianError,
    NotMatrixTargetError,
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
    """Graded basis with a degree +1 differential, d squared verified.

    Every complex is a set of blocks, each a copy of one core complex whose
    labels sit at known positions of the full basis.  A case II complex
    over matrix n (n >= 2, see :func:`bilinearized_complex`) has the n^2
    blocks (a, d) of its corner; only the corner's matrices are stored and
    squared, and the full block-diagonal matrix of a degree is assembled on
    the first call of :meth:`matrix`.  Every other complex is the one block
    (1, 1) and its own core, at the identity positions."""

    def __init__(self, dga: SemifreeDGA, augs, case: str, basis: dict, diff: dict, core=None):
        self.dga = dga
        self.augs = augs
        self.case = case
        self.field: Ring = dga.algebra.ring
        self.basis = basis  # degree -> list of labels (see _chain)
        self.diff = diff    # degree -> matrix (rows: degree+1 basis, cols: degree basis)
        if core is None:
            self.core = self
            self.blocks = [(1, 1)]
            self._positions = {
                degree: {(1, 1): list(range(len(labels)))} for degree, labels in basis.items()
            }
            self._check_squares()
            return
        self.core = core
        n = dga.algebra.n
        self.blocks = [(a, d) for a in range(1, n + 1) for d in range(1, n + 1)]
        # degree -> block (a, d) -> full index of each corner label moved
        # into the block: (E_1b, g, E_c1) -> (E_ab, g, E_cd)
        self._positions: dict[int, dict] = {}
        for degree, labels in basis.items():
            index = {label: j for j, label in enumerate(core.basis[degree])}
            slots = {block: [0] * len(index) for block in self.blocks}
            for i, (left, gen, right) in enumerate(labels):
                j = index[((1, left[1]), gen, (right[0], 1))]
                slots[left[0], right[1]][j] = i
            self._positions[degree] = slots

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def _next(self, degree: int) -> int:
        return self.dga.reduce_degree(degree + 1)

    def label_str(self, label) -> str:
        """A label as printed: the generator between its words, units left out."""
        word_str = self.dga.algebra.word_str
        parts = [word_str(label[0]), label[1]]
        if len(label) == 3:  # a case II label has a word on each side
            parts.append(word_str(label[2]))
        return "*".join([part for part in parts if part != "1"])

    def matrix(self, degree: int) -> list[list]:
        core = self.core
        small = core.matrix(degree) if core is not self and degree not in self.diff else []
        if small:
            zero = self.field.zero
            full = [[zero] * len(self.basis[degree]) for _ in self.basis[self._next(degree)]]
            rows_at, cols_at = self._positions[self._next(degree)], self._positions[degree]
            for block in self.blocks:
                cols = cols_at[block]
                for r, row in zip(rows_at[block], small):
                    target = full[r]
                    for c, value in zip(cols, row):
                        target[c] = value
            self.diff[degree] = full
        return self.diff.get(degree, [])

    def _move(self, degree: int, vector: list, block) -> list:
        """A core vector moved into a block: z -> E_a1 z E_1d."""
        out = [self.field.zero] * len(self.basis[degree])
        for i, c in zip(self._positions[degree][block], vector):
            out[i] = c
        return out

    def _split(self, degree: int, vector: list):
        """(block, core vector) for each block where the vector is nonzero."""
        ring = self.field
        for block, positions in self._positions[degree].items():
            piece = [vector[i] for i in positions]
            if any(not ring.is_zero(c) for c in piece):
                yield block, piece

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
        return _chain(self.dga.algebra, self.case, zip(self.basis[degree], vector))

    def vector_of(self, degree: int, element) -> list:
        labels = self.basis[degree]
        index = {label: i for i, label in enumerate(labels)}
        vec = [self.field.zero] * len(labels)
        for label, c in _coordinates(self.case, element):
            vec[index[label]] = c
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


def bilinearized_complex(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "I"
) -> ChainComplex:
    """The complex carried by the arity-one augmented operation.

    In case II over matrix n (n >= 2) the complex is n^2 copies of its
    corner, the labels (E_1b, g, E_c1): the operation is the adjoint of
    the augmented components, which multiplies the outer slots of a label
    and nothing else, so d(E_a1 z E_1d) = E_a1 d(z) E_1d and the labels
    (E_ab, g, E_cd) of each block (a, d) form a copy of the corner.  Only
    the corner's columns are evaluated, and the returned complex has the
    corner as its core (see :class:`ChainComplex`); its basis is still the
    full one."""
    base, (a0, a1) = _prepare(dga, [e0, e1])
    return _complex(base, a0, a1, case)


def _complex(base: SemifreeDGA, a0: Augmentation, a1: Augmentation, case: str) -> ChainComplex:
    """:func:`bilinearized_complex` of augmentations that :func:`_prepare`
    has already checked and moved over ``base``."""
    if case not in ("I", "II"):
        raise NcdgaError(f"unknown case {case!r}")
    alg = base.algebra
    if not alg.ring.is_field:
        raise NcdgaError("homology needs field scalars (Q or Z/p)")
    dim = alg.dimension()
    if dim is None:
        raise InfiniteDimensionalCoefficientsError(
            f"{alg} is infinite dimensional over {alg.ring.name}"
        )
    words = sorted(alg.words(dim), key=alg.word_key)
    morita = case == "II" and alg.kind == "matrix" and alg.n > 1
    basis: dict[int, list] = {}
    corner_basis: dict[int, list] = {}
    for gen in base.generators:
        degree = base.reduce_degree(gen.degree + 1)
        if case == "I":
            labels = [(w, gen.name) for w in words]
        else:
            labels = [(u, gen.name, v) for u in words for v in words]
        basis.setdefault(degree, []).extend(labels)
        if morita:
            corner_basis.setdefault(degree, []).extend(
                label for label in labels if label[0][0] == 1 and label[2][1] == 1
            )

    if case == "II" and not alg.hermitian:
        raise NotHermitianError(f"{alg} has no hermitian structure")
    # the arity-one operation reads these components; they do not depend
    # on the column, so build them once per complex
    components = augmented_components(base, (a0, a1), 1)

    evaluated = corner_basis if morita else basis
    diff: dict[int, list[list]] = {}
    for degree, labels in evaluated.items():
        target_labels = evaluated.get(base.reduce_degree(degree + 1), [])
        index = {label: i for i, label in enumerate(target_labels)}
        matrix = [[alg.ring.zero] * len(labels) for _ in target_labels]
        for col, label in enumerate(labels):
            value = _evaluate(base, case, components, [_chain(alg, case, [(label, alg.ring.one)])])
            for label_out, c in _coordinates(case, value):
                matrix[index[label_out]][col] = c
        diff[degree] = matrix
    cx = ChainComplex(base, (a0, a1), case, evaluated, diff)
    if morita:
        return ChainComplex(base, (a0, a1), case, basis, {}, core=cx)
    return cx


class HomologyResult:
    """Per-degree dimensions with representative cycles.

    The core of the complex is eliminated: its representatives in a degree
    are the kernel basis vectors of d, one per free column of its reduced
    echelon form in column order, that enlarge the span of the incoming
    boundaries.  Each core representative z is then moved into each block
    (a, d) as E_a1 z E_1d, and the moved vectors are sorted by free column.
    These are exactly the representatives of the whole complex: the reduced
    echelon form is unique and d is block diagonal, so the echelon form of
    the whole is that of each block, whose columns keep the core's order,
    and a cycle of one block enlarges the span exactly when it does within
    its block.  With one block the move is the identity.  ``image_spans``
    holds the core's spans."""

    def __init__(self, cx: ChainComplex):
        self.cx = cx
        core = cx.core
        ring = cx.field
        degrees = core.degrees()
        # core width, not the full width of cx.basis: reduce full vectors
        # through class_of, never against these spans directly
        self.image_spans: dict[int, Span] = {}
        for degree in degrees:
            span = Span(ring, len(core.basis[degree]))
            for prev in degrees:
                if core._next(prev) == degree:
                    matrix = core.matrix(prev)
                    for col in range(len(core.basis[prev])):
                        span.add([row[col] for row in matrix])
            self.image_spans[degree] = span
        self.core_representatives: dict[int, list[list]] = {}
        self.representatives: dict[int, list[list]] = {}
        self.dims: dict[int, int] = {}
        self._origin: dict[int, list] = {}  # degree -> (block, core index) per representative
        self._slot: dict[int, dict] = {}    # its inverse
        self._class_spans: dict[int, Span] = {}
        for degree in degrees:
            # with no rows the kernel is everything: the unit vectors
            cycles = kernel_basis(core.matrix(degree), len(core.basis[degree]), ring)
            span = self.image_spans[degree].copy()
            reps = [z for z in cycles if span.add(z)]
            self.core_representatives[degree] = reps
            positions = cx._positions[degree]
            # a kernel basis vector's free column is its last nonzero entry
            free = [max(j for j, c in enumerate(z) if not ring.is_zero(c)) for z in reps]
            order = sorted(
                (positions[block][col], block, k)
                for block in cx.blocks
                for k, col in enumerate(free)
            )
            origin = [(block, k) for _col, block, k in order]
            self.representatives[degree] = [cx._move(degree, reps[k], block) for block, k in origin]
            self.dims[degree] = len(origin)
            self._origin[degree] = origin
            self._slot[degree] = {key: i for i, key in enumerate(origin)}

    @property
    def total_dimension(self) -> int:
        return sum(self.dims.values())

    def representative_strings(self, degree: int) -> list[str]:
        cx = self.cx
        labels = cx.basis[degree]
        ring = cx.field
        one = ring.one
        out = []
        for rep in self.representatives[degree]:
            parts = []
            for i, c in ring.support(rep):
                text = cx.label_str(labels[i])
                parts.append(text if c == one else f"{ring.scalar_str(c)}*{text}")
            out.append(" + ".join(parts) if parts else "0")
        return out

    def class_of(self, degree: int, vector: list) -> list:
        """Coordinates of a cycle's class in the representative basis: each
        block of the vector is read on the core."""
        out = [self.cx.field.zero] * self.dims[degree]
        slot = self._slot[degree]
        for block, piece in self.cx._split(degree, vector):
            for k, c in enumerate(self.core_class_of(degree, piece)):
                out[slot[block, k]] = c
        return out

    def core_class_of(self, degree: int, vector: list) -> list:
        """Coordinates of a core cycle's class in the core representatives.

        The degree's rows [rep_k | e_k] and [boundary | 0] are put in
        echelon form once; [v | 0] then reduces to [0 | -coordinates of v],
        and to a nonzero left part when v is not a cycle."""
        ring = self.cx.field
        span = self._class_spans.get(degree)
        if span is None:
            span = self._class_spans[degree] = self._class_span(degree)
        width = len(self.cx.core.basis[degree])
        if len(vector) != width:
            raise NcdgaError("vector and core basis widths differ in this degree")
        reduced = span.reduce(list(vector) + [ring.zero] * (span.width - width))
        if any(not ring.is_zero(c) for c in reduced[:width]):
            raise NcdgaError("vector is not a cycle class in this degree")
        return [ring.neg(c) for c in reduced[width:]]

    def _class_span(self, degree: int) -> Span:
        ring = self.cx.field
        reps = self.core_representatives[degree]
        image = self.image_spans[degree]
        pad = [ring.zero] * len(reps)
        span = Span(ring, image.width + len(reps))
        for row in image.rows:
            span.add(row + pad)
        for k, rep in enumerate(reps):
            tag = pad[:]
            tag[k] = ring.one
            span.add(rep + tag)
        return span


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
        self.cx01 = _complex(base, a0, a1, case)
        self.cx12 = _complex(base, a1, a2, case)
        self.cx02 = _complex(base, a0, a2, case)
        self.h01 = homology(self.cx01)
        self.h12 = homology(self.cx12)
        self.h02 = homology(self.cx02)
        # the arity-two operation reads these for every product
        self.components = augmented_components(base, self.augs, 2)

    def product_chain(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        """The chain-level product of two cycles, as a cx02 vector."""
        return self._chain((self.cx01, self.cx12, self.cx02), deg_x, x_vec, deg_y, y_vec)

    def _chain(self, complexes, deg_x, x_vec, deg_y, y_vec):
        cx01, cx12, cx02 = complexes
        x = cx01.element_of(deg_x, x_vec)
        y = cx12.element_of(deg_y, y_vec)
        value = _evaluate(self.base, self.case, self.components, [x, y])
        degree = self.output_degree(deg_x, deg_y)
        if degree not in cx02.basis:
            if value.is_zero():
                return degree, []
            raise NcdgaError("product landed outside the complex")
        return degree, cx02.vector_of(degree, value)

    def output_degree(self, deg_x: int, deg_y: int) -> int:
        return self.base.reduce_degree(deg_x + deg_y)

    def product_class(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        degree, vec = self.product_chain(deg_x, x_vec, deg_y, y_vec)
        if degree not in self.cx02.basis:
            return degree, []
        return degree, self.h02.class_of(degree, vec)

    def table(self):
        """Products of all representative pairs, in homology coordinates.

        Only the core pairs are multiplied.  The product contracts the
        inner matrix indices, E_1d E_a'1 = delta(d, a') E_11, so a class of
        block (a, d) times one of block (a', d') is zero unless d = a', and
        then it is the product of their core classes moved to block
        (a, d').  A complex of one block is the block (1, 1)."""
        h01, h12, h02 = self.h01, self.h12, self.h02
        cores = (self.cx01.core, self.cx12.core, self.cx02.core)
        products = {}
        for deg_x, xs in h01.core_representatives.items():
            for k, x_vec in enumerate(xs):
                for deg_y, ys in h12.core_representatives.items():
                    for l, y_vec in enumerate(ys):
                        degree, vec = self._chain(cores, deg_x, x_vec, deg_y, y_vec)
                        coords = h02.core_class_of(degree, vec) if degree in cores[2].basis else []
                        products[deg_x, k, deg_y, l] = degree, coords
        zero = self.cx02.field.zero
        out = {}
        for deg_x, origins_x in h01._origin.items():
            for i, (block_x, k) in enumerate(origins_x):
                for deg_y, origins_y in h12._origin.items():
                    for j, (block_y, l) in enumerate(origins_y):
                        degree, coords = products[deg_x, k, deg_y, l]
                        full = [zero] * h02.dims.get(degree, 0)
                        if coords and block_x[1] == block_y[0]:
                            slot = h02._slot[degree]
                            block = (block_x[0], block_y[1])
                            for m, c in enumerate(coords):
                                full[slot[block, m]] = c
                        out[deg_x, i, deg_y, j] = degree, full
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
    h = homology(_complex(base, a0, a1, case))
    hm = homology(_complex(mirrored, m1, m0, case))
    degrees = sorted(set(h.dims) | set(hm.dims))
    for degree in degrees:
        d1, d2 = h.dims.get(degree, 0), hm.dims.get(degree, 0)
        report.record(d1 == d2, f"degree {degree}: {d1} vs {d2} on the mirror")
    return report
