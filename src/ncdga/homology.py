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

A complex or product takes the source DGA, for its generators and
grading, together with the augmentations' common target, for the words
and scalars of its labels.  Its augmented components are read off the
source DGA's words through the augmentations' shared coefficient
morphism (:func:`augmented_components`); no DGA over the target is
built.

The augmented operations on chains are read off one term index per
complex or product (:func:`_term_index`): the terms c a0 h1 a1 ... hn an
of the arity-n augmented components under their survivors (h1, ..., hn).
One label rule (:func:`_apply_terms`) applies them: case I sends
(w1 h1, ..., wn hn) to c (a0 w1 a1 ... wn an) g, case II sends
(u1 h1 v1, ..., un hn vn) to c (u1 a0*) g (an* vn) when every inner slot
a_i is v_i u_(i+1), the trace-pairing adjoint of orthonormal words.  Each
core label scatters its arity-one terms into its column of d (n = 1), and
the bilinear product of two chains sums c x_i y_j over the arity-two terms
of each label pair of their supports (n = 2).  A representative is kept as
its core vector and its block, and printed from the core vector's nonzero
entries; the full-basis vectors are built only on request.
"""

from __future__ import annotations

import functools

# re-exported: the benchmark self-test reads ncdga.homology.mu_eps_case2, so
# these stay until a change to the benchmark moves that test
from .ainfinity import mu_eps_case1, mu_eps_case2  # noqa: F401
from .augmentation import (
    Augmentation,
    _prepare,
    augmented_components,
    require_shared_augmentations,
)
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


# -- exact linear algebra over a field ------------------------------------


class Span:
    """Row span in reduced echelon form; supports membership reduction.

    Each echelon row keeps the indices of its nonzero entries, so reducing
    and inserting touch only those columns; complexes of decorated
    generators give sparse rows.  Scalars are tested by their truth value,
    as in :meth:`Ring.support`: they are false exactly when zero."""

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
            if c:
                for j in support:
                    vec[j] = ring.sub(vec[j], ring.mul(c, row[j]))
        return vec

    def add(self, vector: list) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        ring = self.ring
        vec = self.reduce(vector)
        support = [j for j, c in enumerate(vec) if c]
        if not support:
            return False
        pivot = support[0]
        inv = ring.inv(vec[pivot])
        for j in support:
            vec[j] = ring.mul(inv, vec[j])
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                for j in support:
                    row[j] = ring.sub(row[j], ring.mul(c, vec[j]))
                merged = set(self.supports[i]).union(support)
                self.supports[i] = [j for j in merged if row[j]]
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


# -- bilinearised complexes ------------------------------------------------


class ChainComplex:
    """Graded basis with a degree +1 differential, d squared verified.

    Every complex is a set of blocks, each a copy of one core complex whose
    labels sit at known positions of the full basis.  A case II complex
    over matrix n (n >= 2, see :func:`bilinearized_complex`) has the n^2
    blocks (a, d) of its corner; only the corner's matrices are stored and
    squared, and the full block-diagonal matrix of a degree is assembled on
    the first call of :meth:`matrix`.  Every other complex is the one block
    (1, 1) and its own core, at the identity positions.  ``dga`` is the
    source DGA, which gives the generators and the grading; the labels'
    words and the scalars are those of ``algebra``, the augmentations'
    common target."""

    def __init__(self, dga: SemifreeDGA, augs, case: str, basis: dict, diff: dict, core=None):
        self.dga = dga
        self.augs = augs
        self.case = case
        self.algebra = augs[0].target
        self.field: Ring = self.algebra.ring
        self.basis = basis  # degree -> labels: (word, gen) in case I, (left, gen, right) in II
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
        n = self.algebra.n
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
        word_str = self.algebra.word_str
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

    def support(self, degree: int, vector: list) -> list:
        """(label, c) for each nonzero entry of a vector of a degree."""
        labels = self.basis[degree]
        return [(labels[i], c) for i, c in self.field.support(vector)]

    def _split(self, degree: int, vector: list):
        """(block, core vector) for each block where the vector is nonzero."""
        for block, positions in self._positions[degree].items():
            piece = [vector[i] for i in positions]
            if any(piece):  # scalars are false exactly when zero
                yield block, piece

    def _check_squares(self):
        """d^2 = 0, each column of d read against the next d's columns at its
        nonzero entries only."""
        ring = self.field
        for degree in self.degrees():
            m1, m2 = self.matrix(degree), self.matrix(self._next(degree))
            if not m1 or not m2:
                continue
            after = [ring.support(column) for column in zip(*m2)]
            for col, column in enumerate(zip(*m1)):
                image: dict = {}
                for j, c in ring.support(column):
                    for i, e in after[j]:
                        ring.add_term(image, i, ring.mul(c, e))
                if image:
                    raise NotAComplexError(f"d^2 != 0 out of degree {degree}, column {col}")

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


def _term_index(dga: SemifreeDGA, augs, case: str) -> dict[tuple, list]:
    """The terms of the arity-n augmented components, n + 1 = len(augs), as
    (g, slots, c) under their survivors: the slots are the outer slots a0
    and an, starred in case II, and the inner ones (a1, ..., a_(n-1))."""
    star = augs[0].target.star_word if case == "II" else (lambda word: word)
    index: dict[tuple, list] = {}
    for gen, value in augmented_components(dga, augs, len(augs) - 1).items():
        for tw, c in value.terms.items():
            a = tw.coeffs
            index.setdefault(tw.gens, []).append((gen, (star(a[0]), a[1:-1], star(a[-1])), c))
    return index


def _apply_terms(mul, case: str, terms: list, labels: tuple) -> list:
    """(output label, c) for each indexed term of one survivor tuple on input
    labels with those generators, by the module docstring's rule."""
    out = []
    if case == "I":
        w, more = labels[0][0], labels[1:]
        for gen, (a0, inner, an), c in terms:
            word = mul(a0, w)
            for a, (x, _gen) in zip(inner, more) if inner else ():
                if word is None or (word := mul(word, a)) is None:
                    break
                word = mul(word, x)
            if word is not None and (word := mul(word, an)) is not None:
                out.append(((word, gen), c))
        return out
    u, v = labels[0][0], labels[-1][2]
    # the products v_i u_(i+1) that the inner slots must equal, none at arity one
    inner = () if len(labels) == 1 else tuple(mul(x[2], y[0]) for x, y in zip(labels, labels[1:]))
    for gen, (a0, middle, an), c in terms:
        if middle == inner:
            left, right = mul(u, a0), mul(an, v)
            if left is not None and right is not None:
                out.append(((left, gen, right), c))
    return out


def bilinearized_complex(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "I"
) -> ChainComplex:
    """The complex carried by the arity-one augmented operation.

    In case II over matrix n (n >= 2) d(E_a1 z E_1d) = E_a1 d(z) E_1d (see
    the module docstring): only the corner's columns are built, and the
    returned complex has the corner as its core (see :class:`ChainComplex`);
    its basis is still the full one."""
    require_shared_augmentations(dga, [e0, e1])
    return _complex(dga, e0, e1, case)


def _complex(dga: SemifreeDGA, a0: Augmentation, a1: Augmentation, case: str) -> ChainComplex:
    """:func:`bilinearized_complex` of augmentations of ``dga`` that share a
    coefficient morphism and have been checked: the generators and grading
    are the source DGA's, the words and scalars the target's, and the
    arity-one components are read off the source words."""
    if case not in ("I", "II"):
        raise NcdgaError(f"unknown case {case!r}")
    alg = a0.target
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
    for gen in dga.generators:
        degree = dga.reduce_degree(gen.degree + 1)
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
    terms, ring = _term_index(dga, (a0, a1), case), alg.ring
    core_basis = corner_basis if morita else basis
    diff: dict[int, list[list]] = {}
    for degree, labels in core_basis.items():
        target_labels = core_basis.get(dga.reduce_degree(degree + 1), [])
        index = {label: i for i, label in enumerate(target_labels)}
        matrix = [[ring.zero] * len(labels) for _ in target_labels]
        for col, label in enumerate(labels):
            found = terms.get((label[1],))
            if found:
                for out, c in _apply_terms(alg.mul_words, case, found, (label,)):
                    row = matrix[index[out]]
                    row[col] = ring.add(row[col], c)
        diff[degree] = matrix
    cx = ChainComplex(dga, (a0, a1), case, core_basis, diff)
    if morita:
        return ChainComplex(dga, (a0, a1), case, basis, {}, core=cx)
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
    holds the core's spans.

    Only the core representatives and the (block, core index) origin of
    each representative are kept: :meth:`representative_strings` reads
    a moved representative off its core vector's nonzero entries, and
    :attr:`representatives`, the full-basis vectors, is built on first
    use."""

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
                    for column in zip(*core.matrix(prev)):
                        span.add(column)
            self.image_spans[degree] = span
        self.core_representatives: dict[int, list[list]] = {}
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
            self.dims[degree] = len(origin)
            self._origin[degree] = origin
            self._slot[degree] = {key: i for i, key in enumerate(origin)}

    @property
    def total_dimension(self) -> int:
        return sum(self.dims.values())

    @functools.cached_property
    def representatives(self) -> dict[int, list[list]]:
        """The representatives as vectors of the full basis, built on first
        use: the results themselves only read the core representatives."""
        move = self.cx._move
        reps = self.core_representatives
        return {
            degree: [move(degree, reps[degree][k], block) for block, k in origin]
            for degree, origin in self._origin.items()
        }

    def representative_strings(self, degree: int) -> list[str]:
        """The representatives as printed, read off the core: entry j of a
        core representative moved into a block is the label at the block's
        position of j, and the terms are written in full-basis order."""
        cx = self.cx
        labels = cx.basis[degree]
        positions = cx._positions[degree]
        ring = cx.field
        one = ring.one
        supports = [ring.support(z) for z in self.core_representatives[degree]]
        texts: dict[int, str] = {}
        out = []
        for block, k in self._origin[degree]:
            at = positions[block]
            parts = []
            for i, c in sorted((at[j], c) for j, c in supports[k]):
                text = texts.get(i)
                if text is None:
                    text = texts[i] = cx.label_str(labels[i])
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
    augmented operation, for a triple of augmentations sharing one
    coefficient morphism; its complexes and its term index are read off the
    source DGA's words, over the common target ``algebra``."""

    def __init__(self, dga: SemifreeDGA, e0, e1, e2, case: str = "I"):
        self.case = case
        require_shared_augmentations(dga, [e0, e1, e2])
        self.dga = dga
        self.algebra = e0.target
        self.augs = (e0, e1, e2)
        pairs = ((e0, e1), (e1, e2), (e0, e2))
        self.cx01, self.cx12, self.cx02 = (_complex(dga, a, b, case) for a, b in pairs)
        self.h01, self.h12, self.h02 = (homology(cx) for cx in (self.cx01, self.cx12, self.cx02))
        # the arity-two terms under their survivor pairs, read by every product
        self.terms = _term_index(dga, self.augs, case)

    def product_chain(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        """The chain-level product of two cycles, as a cx02 vector."""
        value = self._chain(self.cx01.support(deg_x, x_vec), self.cx12.support(deg_y, y_vec))
        degree = self.output_degree(deg_x, deg_y)
        return degree, _vector(self.cx02, degree, value)

    def _chain(self, xs: list, ys: list) -> dict:
        """The product of two chains, given and returned as (label, c) terms:
        it is bilinear, so the label pairs of their supports add up."""
        mul, case, terms, ring = self.algebra.mul_words, self.case, self.terms, self.algebra.ring
        value: dict = {}
        for x, cx in xs:
            for y, cy in ys:
                found = terms.get((x[1], y[1]))
                if found:
                    cxy = ring.mul(cx, cy)
                    for label, c in _apply_terms(mul, case, found, (x, y)):
                        ring.add_term(value, label, ring.mul(cxy, c))
        return value

    def output_degree(self, deg_x: int, deg_y: int) -> int:
        return self.dga.reduce_degree(deg_x + deg_y)

    def product_class(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        degree, vec = self.product_chain(deg_x, x_vec, deg_y, y_vec)
        return degree, (self.h02.class_of(degree, vec) if degree in self.cx02.basis else [])

    def table(self):
        """Products of all representative pairs, in homology coordinates.

        Only the core pairs are multiplied.  The product contracts the
        inner matrix indices, E_1d E_a'1 = delta(d, a') E_11, so a class of
        block (a, d) times one of block (a', d') is zero unless d = a', and
        then it is the product of their core classes moved to block
        (a, d').  A complex of one block is the block (1, 1)."""
        h01, h12, h02 = self.h01, self.h12, self.h02
        core02 = self.cx02.core
        xs, ys = (
            {d: [h.cx.core.support(d, z) for z in zs] for d, zs in h.core_representatives.items()}
            for h in (h01, h12)
        )
        products = {}
        for deg_x, x_terms in xs.items():
            for k, x in enumerate(x_terms):
                for deg_y, y_terms in ys.items():
                    for l, y in enumerate(y_terms):
                        degree, value = self.output_degree(deg_x, deg_y), self._chain(x, y)
                        coords = []  # a zero product keeps the zero coordinates below
                        if value:
                            coords = h02.core_class_of(degree, _vector(core02, degree, value))
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


def _vector(cx: ChainComplex, degree: int, value: dict) -> list:
    """A product's terms, taken out of ``value``, as a vector of ``cx``;
    they must sum to zero in a degree without labels."""
    vec = [value.pop(label, cx.field.zero) for label in cx.basis.get(degree, ())]
    if value:
        raise NcdgaError("product landed outside the complex")
    return vec


def product_on_homology(dga: SemifreeDGA, e0, e1, e2, case: str = "I") -> HomologyProduct:
    return HomologyProduct(dga, e0, e1, e2, case)


def mirror_compare(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "II"
) -> Report:
    """Graded dimensions of the (e0, e1) complex match those of the mirror
    DGA with the transposed augmentations in swapped order.  The DGA is
    mirrored after its coefficients are changed to the target, so this
    comparison alone builds the changed copy (:func:`_prepare`)."""
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
