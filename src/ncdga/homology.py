"""Bilinearised (co)chain complexes, their homology over a field, the
induced product on homology, and the mirror comparison.

The chain groups are spanned by generators decorated with a basis word of
the coefficient algebra (one word on the left for case I functionals, a
word on each side for case II bimodule elements), so the coefficient
algebra must be finite dimensional over the scalar field.  Grading uses
the suspended dual convention: a generator of degree g sits in cochain
degree g + 1 and the differential raises degree by one.

Such a target is semisimple: a base B, matrix n or one dimensional (n = 1,
its one word read as E_11), or a split algebra B e_1 + ... + B e_k.  One
term index (:func:`_term_index`) files the terms c a0 h1 a1 ... hn an of
the arity-n augmented components by the summands of their slots, then by
their survivors (h1, ..., hn).  The core (i, j) is the case I complex over
B of the terms with a0 in summand i and an in summand j, built by the one
label rule (:func:`_apply_terms`): (w1 h1, ..., wn hn) goes to
c (a0 w1 a1 ... wn an) g, the slots read in B.  Every complex is a set of
blocks, each a copy of a core (Morita).  Case II sends u h v, u = e_i E_ab
and v = e_j E_cd, to c (u a0*) g (an* v): with a0 = E_pb' and an = E_c'r,
u a0* = delta(b, b') E_ap and an* v = delta(c, c') E_rd, where case I
sends E_bc h to a0 E_bc an = delta(b, b') delta(c, c') E_pr.  So
(E_bc, g) -> (e_i E_ab, g, e_j E_cd) is a chain map from core (i, j) onto
block (i, j, a, d), and the case II complex is the sum of these blocks.
In case I, a0 w an vanishes unless its words share a summand: the complex
is the sum of the diagonal cores (i, i), one block each.  In a product the
inner slot a1 must equal v1 u2 in case II, which is nonzero only when the
factors' blocks (i, j, a, d) and (j, l, d, d') meet, and then a0 w1 a1 w2
a2 is the case I product of their core labels by the terms of summands
(i, j, l), in block (i, l, a, d'); every other pair of blocks gives zero.

Each core is built from the source DGA's words read through the
augmentations' shared coefficient morphism (:func:`augmented_components`)
and squared; each of its matrices is then eliminated once, for its kernel,
and the rank of each d follows by rank-nullity (see :class:`HomologyResult`).
Its representatives and products are moved into its blocks.  The results
equal those of eliminating the whole complex, as each block keeps its
core's order: per generator the full basis runs over u = e_i E_ab, then
v = e_j E_cd (case I: e_i E_bc), so within a block over E_bc in the core's
order.

Every chain is a term map {index: c} with no zero entry, as every other
element of the library: the columns of d, echelon rows, kernel vectors,
representatives, class coordinates and product table entries.  A kernel
vector's keys increase, so a representative is printed from its term map
in core order, which is full-basis order within a block.  Dense lists over
a whole basis are made only where they are asked for: ``matrix``,
``representatives``, ``class_of``, ``apply_d``, ``product_chain`` and
``product_class``.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict

# re-exported: the benchmark self-test reads ncdga.homology.mu_eps_case2, so
# these stay until a change to the benchmark moves that test
from .ainfinity import mu_eps_case1, mu_eps_case2  # noqa: F401
from .algebra import CoefficientMorphism
from .augmentation import Augmentation, augmented_components, require_shared_augmentations
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

    Rows and vectors are term maps {column: c} with no zero entry, so
    reducing and inserting touch only the columns where they are nonzero.
    A row's pivot, its least column, holds 1 and is absent from every
    other row."""

    def __init__(self, ring: Ring, width: int):
        self.ring = ring
        self.width = width
        self.rows: list[dict] = []
        self.pivots: list[int] = []

    def reduce(self, vector: dict) -> dict:
        ring = self.ring
        vec = dict(vector)
        for row, pivot in zip(self.rows, self.pivots):
            c = vec.get(pivot)
            if c:
                c = ring.neg(c)
                for j, e in row.items():
                    ring.add_term(vec, j, ring.mul(c, e))
        return vec

    def add(self, vector: dict) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        ring = self.ring
        vec = self.reduce(vector)
        if not vec:
            return False
        pivot = min(vec)
        if vec[pivot] != ring.one:  # over Z2 every pivot is 1 already
            inv = ring.inv(vec[pivot])
            vec = {j: ring.mul(inv, c) for j, c in vec.items()}
        for row in self.rows:
            c = row.get(pivot)
            if c:
                c = ring.neg(c)
                for j, e in vec.items():
                    ring.add_term(row, j, ring.mul(c, e))
        self.rows.append(vec)
        self.pivots.append(pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Span":
        clone = Span(self.ring, self.width)
        clone.rows = [dict(row) for row in self.rows]
        clone.pivots = list(self.pivots)
        return clone

    @classmethod
    def whole(cls, ring: Ring, width: int) -> "Span":
        """The whole space: the unit rows, already in reduced echelon form."""
        span = cls(ring, width)
        span.rows = [{j: ring.one} for j in range(width)]
        span.pivots = list(range(width))
        return span


def kernel_basis(columns: list[dict], ring: Ring) -> list[dict]:
    """Basis of the null space of the map with these columns (term maps
    {row: c}), one vector per non-pivot column of its reduced echelon form,
    in column order.  A vector's keys increase: the pivot columns whose
    rows meet its free column, then the free column."""
    rows: dict[int, dict] = defaultdict(dict)
    for col, column in enumerate(columns):
        for i, c in column.items():
            rows[i][col] = c
    span = Span(ring, len(columns))
    for row in rows.values():
        span.add(row)
    pivots = set(span.pivots)
    basis = {free: {} for free in range(len(columns)) if free not in pivots}
    for pivot, row in sorted(zip(span.pivots, span.rows)):
        for j, c in row.items():
            if j != pivot:  # a free column: no row holds another's pivot
                basis[j][pivot] = ring.neg(c)
    for free, vec in basis.items():
        vec[free] = ring.one
    return list(basis.values())


# -- bilinearised complexes ------------------------------------------------


class ChainComplex:
    """Graded basis with a degree +1 differential, d squared verified, over
    ``algebra``; the source DGA ``dga`` gives the generators and grading.
    ``diff[degree]`` is d out of the degree, one column map {row: c} over
    the next degree's basis per label.  Each core of a
    :class:`BlockComplex` is one."""

    def __init__(self, dga: SemifreeDGA, algebra, case: str, basis: dict, diff: dict):
        self.dga = dga
        self.algebra = algebra
        self.case = case
        self.field: Ring = algebra.ring
        self.basis = basis  # degree -> labels: (word, gen) in case I, (left, gen, right) in II
        self.diff = diff    # degree -> one column map per label
        self._check_squares()

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def _next(self, degree: int) -> int:
        return self.dga.reduce_degree(degree + 1)

    def label_str(self, label, word_str=None) -> str:
        """A label as printed: the generator between its words, units left
        out.  ``word_str`` gives a word's text, the algebra's by default."""
        word_str = word_str or self.algebra.word_str
        parts = [word_str(label[0]), label[1]]
        if len(label) == 3:  # a case II label has a word on each side
            parts.append(word_str(label[2]))
        if "1" in parts:
            parts = [part for part in parts if part != "1"]
        return "*".join(parts)

    def matrix(self, degree: int) -> list[list]:
        """d out of a degree as dense rows, one per label of the next degree."""
        columns = self.diff.get(degree, [])
        rows = [[self.field.zero] * len(columns) for _ in self.basis.get(self._next(degree), ())]
        for col, column in enumerate(columns):
            for i, c in column.items():
                rows[i][col] = c
        return rows

    def _check_squares(self):
        """d^2 = 0, each column of d sent through the next d's columns."""
        ring = self.field
        for degree in self.degrees():
            after = self.diff.get(self._next(degree))
            for col, column in enumerate(self.diff.get(degree, ()) if after else ()):
                image: dict = {}
                for j, c in column.items():
                    for i, e in after[j].items():
                        ring.add_term(image, i, ring.mul(c, e))
                if image:
                    raise NotAComplexError(f"d^2 != 0 out of degree {degree}, column {col}")

    def apply_d(self, degree: int, vector: list) -> list:
        ring = self.field
        out = [ring.zero] * len(self.basis.get(self._next(degree), []))
        for column, v in zip(self.diff.get(degree, ()), vector):
            for i, c in column.items() if v else ():
                out[i] = ring.add(out[i], ring.mul(c, v))
        return out


class BlockComplex(ChainComplex):
    """A bilinearised complex: blocks (i, j, a, d), copies of the cores
    ``cores[i, j]`` (see the module docstring), whose labels sit at
    ``_positions[degree][block]`` of the full basis over the target
    ``algebra``.  The cores share their labels, found at
    ``core_index[degree][label]``.  The cores are checked; ``diff`` is
    assembled on first use."""

    def __init__(self, dga, augs, case, basis, cores, blocks, positions, core_index):
        self.dga = dga
        self.augs = augs
        self.case = case
        self.algebra = augs[0].target
        self.field: Ring = self.algebra.ring
        self.basis = basis
        self.cores = cores
        self.blocks = blocks
        self._positions = positions
        self.core_index = core_index

    @functools.cached_property
    def diff(self) -> dict:
        """The full columns, each core's moved into its blocks."""
        diff = {}
        for degree, labels in self.basis.items():
            rows = self._positions.get(self._next(degree), {})
            full = diff[degree] = [None] * len(labels)
            for block, cols in self._positions[degree].items():
                at = rows.get(block)
                for col, column in zip(cols, self.cores[block[:2]].diff[degree]):
                    full[col] = {at[r]: c for r, c in column.items()}
        return diff

    def _move(self, degree: int, vector: dict, block) -> list:
        """A core chain moved into a block, E_bc -> e_i E_ab ... e_j E_cd, as
        a dense vector of the full basis."""
        out = [self.field.zero] * len(self.basis[degree])
        at = self._positions[degree][block]
        for j, c in vector.items():
            out[at[j]] = c
        return out

    def _split(self, degree: int, vector: list):
        """(block, core chain) for each block where a dense vector is nonzero."""
        for block, positions in self._positions[degree].items():
            piece = {k: vector[i] for k, i in enumerate(positions) if vector[i]}
            if piece:
                yield block, piece


def _term_index(dga: SemifreeDGA, augs) -> dict[tuple, dict]:
    """The terms of the arity-n augmented components, n + 1 = len(augs), as
    (g, (a0, (a1, ..., a_(n-1)), an), c) with the slots read in the base,
    filed by the slots' summands (i0, ..., in), then by the survivors."""
    split = augs[0].target.kind == "split"
    summands = (1,) * len(augs)
    index: dict[tuple, dict] = {}
    for gen, value in augmented_components(dga, augs, len(augs) - 1).items():
        for tw, c in value.terms.items():
            a = tw.coeffs
            if split:  # a split word is (summand, base word)
                summands, a = tuple([w[0] for w in a]), tuple([w[1] for w in a])
            terms = index.setdefault(summands, {}).setdefault(tw.gens, [])
            terms.append((gen, (a[0], a[1:-1], a[-1]), c))
    return index


def _apply_terms(mul, terms: list, labels: tuple) -> list:
    """(output label, c) for each indexed term of one survivor tuple on core
    labels with those generators: (w1 h1, ..., wn hn) goes to
    c (a0 w1 a1 ... wn an) g."""
    out = []
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


def bilinearized_complex(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "I"
) -> BlockComplex:
    """The complex carried by the arity-one augmented operation, as blocks
    of case I cores over the target's base (see the module docstring)."""
    require_shared_augmentations(dga, [e0, e1])
    return _complex(dga, e0, e1, case)


def _complex(dga: SemifreeDGA, a0: Augmentation, a1: Augmentation, case: str) -> BlockComplex:
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
    if case == "II" and not alg.hermitian:
        raise NotHermitianError(f"{alg} has no hermitian structure")
    split = alg.kind == "split"
    base = alg.base if split else alg
    words = sorted(alg.words(dim), key=alg.word_key)
    part = {w: w if split else (1, w) for w in words}  # word -> (summand, base word)
    core_words = sorted(base.words(dim), key=base.word_key)
    at = {word: k for k, word in enumerate(core_words)}
    matrix = base.kind == "matrix" and case == "II"
    # shapes: the outer words of a generator's full labels, in order; where:
    # block -> the place among them of each core word.  In case II
    # (e_i E_ab, e_j E_cd) is E_bc in block (i, j, a, d), and (e_i, e_j) the
    # one word of a one-dimensional base in block (i, j, 1, 1); in case I
    # e_i x is x in block (i, i, 1, 1)
    shapes = [(w,) for w in words] if case == "I" else list(itertools.product(words, repeat=2))
    where: dict[tuple, list] = defaultdict(lambda: [0] * len(core_words))
    for place, shape in enumerate(shapes):
        (i, x), (j, y) = part[shape[0]], part[shape[-1]]
        block, word = ((i, j, x[0], y[1]), (x[1], y[0])) if matrix else ((i, j, 1, 1), x)
        where[block][at[word]] = place
    basis: dict[int, list] = {}
    core_basis: dict[int, list] = {}
    for gen in dga.generators:
        degree, name = dga.reduce_degree(gen.degree + 1), gen.name
        core_basis.setdefault(degree, []).extend((w, name) for w in core_words)
        basis.setdefault(degree, []).extend((shape[0], name, *shape[1:]) for shape in shapes)
    positions = {
        degree: {
            block: [g + place for g in range(0, len(labels), len(shapes)) for place in places]
            for block, places in where.items()
        }
        for degree, labels in basis.items()
    }

    terms, ring, mul = _term_index(dga, (a0, a1)), alg.ring, base.mul_words
    index = {d: {label: i for i, label in enumerate(labels)} for d, labels in core_basis.items()}
    cores = {}
    for key in dict.fromkeys(block[:2] for block in where):
        found, diff = terms.get(key, {}), {}
        for degree, labels in core_basis.items():
            row_of = index.get(dga.reduce_degree(degree + 1), {})
            columns = diff[degree] = []
            for label in labels:
                column: dict = {}
                label_terms = found.get((label[1],))
                for out, c in _apply_terms(mul, label_terms, (label,)) if label_terms else ():
                    ring.add_term(column, row_of[out], c)
                columns.append(column)
        cores[key] = ChainComplex(dga, base, "I", core_basis, diff)
    return BlockComplex(dga, (a0, a1), case, basis, cores, list(where), positions, index)


class HomologyResult:
    """Per-degree dimensions with representative cycles.

    Each core matrix is row-eliminated once, by :func:`kernel_basis`: the
    cycles of a degree are the kernel basis vectors of d out of it, one per
    free column of its reduced echelon form, in column order.  By
    rank-nullity the d into the degree has rank r = width - dim ker of its
    source degree, and the representatives are the cycles that enlarge the
    span of the incoming boundaries.  With r = 0 that is every cycle; with
    r = dim ker none, since the boundaries lie in the cycles (d^2 = 0 is
    checked when the core is built); only with 0 < r < dim ker are the
    cycles reduced against a copy of the span.  The span, kept in
    ``image_spans`` with its rank r, is the unit rows when r = width;
    only 0 < r < width column-eliminates the incoming d.
    The representatives, moved into each block of their core, are sorted
    by the full position of their free column.  These are exactly the whole complex's
    representatives: d is block diagonal and the reduced echelon form is
    unique, so it is that of each block, whose columns keep their core's
    order, and a cycle of one block enlarges the span exactly when it does
    within its block.  ``image_spans`` and ``core_representatives`` are
    keyed by (core, degree); :attr:`representatives`, the full-basis
    vectors, is built on first use."""

    def __init__(self, cx: BlockComplex):
        self.cx = cx
        ring = cx.field
        # core widths, not the full width of cx.basis: reduce full vectors
        # through class_of, never against these spans directly
        self.image_spans: dict[tuple, Span] = {}
        self.core_representatives: dict[tuple, list[dict]] = {}
        free: dict[tuple, list[int]] = {}
        for key, core in cx.cores.items():
            degrees = core.degrees()
            # with no next degree the columns are empty: the kernel is everything
            kernels = {d: kernel_basis(core.diff[d], ring) for d in degrees}
            # degree -> the one degree whose d lands in it (d + 1 is injective)
            prev_of = {core._next(d): d for d in degrees}
            for degree in degrees:
                width, cycles, prev = len(core.basis[degree]), kernels[degree], prev_of.get(degree)
                # rank-nullity: the rank of the d into this degree
                rank = 0 if prev is None else len(core.basis[prev]) - len(kernels[prev])
                if rank == width:
                    span = Span.whole(ring, width)
                else:
                    span = Span(ring, width)
                    for column in core.diff[prev] if rank else ():
                        span.add(column)
                self.image_spans[key, degree] = span
                if not rank:
                    reps = cycles
                elif rank == len(cycles):  # boundaries fill the cycles (d^2 = 0)
                    reps = []
                else:
                    span = span.copy()
                    reps = [z for z in cycles if span.add(z)]
                self.core_representatives[key, degree] = reps
                # a kernel basis vector's free column is its greatest key
                free[key, degree] = [max(z) for z in reps]
        self.dims: dict[int, int] = {}
        self._origin: dict[int, list] = {}  # degree -> (block, core index) per representative
        self._slot: dict[int, dict] = {}    # its inverse
        self._class_spans: dict[tuple, Span] = {}
        for degree in cx.degrees():
            positions = cx._positions[degree]
            order = sorted(
                (positions[block][col], block, k)
                for block in cx.blocks
                for k, col in enumerate(free[block[:2], degree])
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
            degree: [move(degree, reps[block[:2], degree][k], block) for block, k in origin]
            for degree, origin in self._origin.items()
        }

    def representative_strings(self, degree: int) -> list[str]:
        """The representatives as printed, read off the cores: term j of a
        core representative moved into a block is the label at the block's
        position of j.  A block's positions increase with the core index
        (see the module docstring), so the terms, read in the increasing
        key order of the core term map, are in full-basis order.  Each
        word's and each label's text is made once per call, by
        :meth:`ChainComplex.label_str`."""
        cx = self.cx
        labels = cx.basis[degree]
        positions = cx._positions[degree]
        one, scalar_str = cx.field.one, cx.field.scalar_str
        # each word's text once per call; each label's once per call
        word_str = functools.lru_cache(maxsize=None)(cx.algebra.word_str)
        texts: dict[int, str] = {}
        out = []
        for block, k in self._origin[degree]:
            at = positions[block]
            parts = []
            for j, c in self.core_representatives[block[:2], degree][k].items():
                text = texts.get(i := at[j])
                if text is None:
                    text = texts[i] = cx.label_str(labels[i], word_str)
                parts.append(text if c == one else f"{scalar_str(c)}*{text}")
            out.append(" + ".join(parts) if parts else "0")
        return out

    def class_of(self, degree: int, vector: list) -> list:
        """Coordinates of a cycle's class in the representative basis: each
        block of the vector is read on its core."""
        out = [self.cx.field.zero] * self.dims[degree]
        slot = self._slot[degree]
        for block, piece in self.cx._split(degree, vector):
            for k, c in self.core_class_of(block[:2], degree, piece).items():
                out[slot[block, k]] = c
        return out

    def core_class_of(self, key: tuple, degree: int, vector: dict) -> dict:
        """Coordinates {k: c} of the class of a cycle of core ``key``, a
        term map, in that core's representatives.  The degree's rows
        [rep_k | e_k] and [boundary | 0] are put in echelon form once;
        [v | 0] then reduces to [0 | -coordinates of v], and to a nonzero
        left part when v is not a cycle."""
        ring = self.cx.field
        width = len(self.cx.cores[key].basis[degree])
        span = self._class_spans.get((key, degree))
        if span is None:  # [boundary | 0] and [rep_k | e_k], once
            reps, image = self.core_representatives[key, degree], self.image_spans[key, degree]
            span = self._class_spans[key, degree] = image.copy()
            span.width += len(reps)
            for k, rep in enumerate(reps):
                span.add({**rep, width + k: ring.one})
        if any(j >= width for j in vector):
            raise NcdgaError("vector has entries outside the core basis in this degree")
        reduced = span.reduce(vector)
        if any(j < width for j in reduced):
            raise NcdgaError("vector is not a cycle class in this degree")
        return {j - width: ring.neg(c) for j, c in reduced.items()}


def homology(cx: BlockComplex) -> HomologyResult:
    return HomologyResult(cx)


def _labelled(cx: BlockComplex, block: tuple, degree: int, vector: dict) -> list:
    """(label, c) for each term of a chain of the core of a block (i, j, ...)."""
    labels = cx.cores[block[:2]].basis[degree]
    return [(labels[k], c) for k, c in vector.items()]


def _compose(bx: tuple, by: tuple):
    """The block of a product of classes of blocks (i, j, a, d) and
    (j, l, d, d'): (i, l, a, d'); None for every other pair of blocks."""
    return (bx[0], by[1], bx[2], by[3]) if bx[1] == by[0] and bx[3] == by[2] else None


class HomologyProduct:
    """The degree-one-shifted product induced on homology by the arity-two
    augmented operation, for a triple of augmentations sharing one
    coefficient morphism, taken block by block on the cores (see the module
    docstring), over the common target ``algebra``."""

    def __init__(self, dga: SemifreeDGA, e0, e1, e2, case: str = "I"):
        self.case = case
        require_shared_augmentations(dga, [e0, e1, e2])
        self.dga = dga
        self.algebra = e0.target
        self.augs = (e0, e1, e2)
        pairs = ((e0, e1), (e1, e2), (e0, e2))
        self.cx01, self.cx12, self.cx02 = (_complex(dga, a, b, case) for a, b in pairs)
        self.h01, self.h12, self.h02 = (homology(cx) for cx in (self.cx01, self.cx12, self.cx02))
        # the arity-two terms under their summands and survivor pairs
        self.terms = _term_index(dga, self.augs)

    def product_chain(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        """The chain-level product of two dense chains, as a cx02 vector: the core
        product of each pair of their blocks that compose, moved into the
        composed block."""
        cx01, cx12, cx02 = self.cx01, self.cx12, self.cx02
        degree = self.output_degree(deg_x, deg_y)
        ring = cx02.field
        out = [ring.zero] * len(cx02.basis.get(degree, ()))
        ys = [(by, _labelled(cx12, by, deg_y, y)) for by, y in cx12._split(deg_y, y_vec)]
        for bx, x in cx01._split(deg_x, x_vec):
            xs = _labelled(cx01, bx, deg_x, x)
            for by, y_terms in ys:
                block = _compose(bx, by)
                vec = self._chain((*bx[:2], by[1]), degree, xs, y_terms) if block else {}
                for k, c in vec.items():
                    i = cx02._positions[degree][block][k]
                    out[i] = ring.add(out[i], c)
        return degree, out

    def _chain(self, summands: tuple, degree: int, xs: list, ys: list) -> dict:
        """The product of core chains of summands (i, j) and (j, l), given as
        (label, c) terms, as a term map over core (i, l) of cx02: the label
        pairs of their terms add up."""
        i, _j, l = summands
        core = self.cx02.cores[i, l]
        mul, ring, terms = core.algebra.mul_words, core.field, self.terms.get(summands, {})
        value: dict = {}
        for x, cx in xs:
            for y, cy in ys:
                found = terms.get((x[1], y[1]))
                if found:
                    cxy = ring.mul(cx, cy)
                    for label, c in _apply_terms(mul, found, (x, y)):
                        ring.add_term(value, label, ring.mul(cxy, c))
        at = self.cx02.core_index.get(degree, {})
        try:
            return {at[label]: c for label, c in value.items()}
        except KeyError:
            raise NcdgaError("product landed outside the complex") from None

    def output_degree(self, deg_x: int, deg_y: int) -> int:
        return self.dga.reduce_degree(deg_x + deg_y)

    def product_class(self, deg_x: int, x_vec: list, deg_y: int, y_vec: list):
        degree, vec = self.product_chain(deg_x, x_vec, deg_y, y_vec)
        return degree, (self.h02.class_of(degree, vec) if degree in self.cx02.basis else [])

    def table(self):
        """Products of all representative pairs, in homology coordinates:
        (degree, {k: c}) with no zero c.  Only core pairs are multiplied: the
        representatives of cores (i, j) of cx01 and (j, l) of cx12, into
        core (i, l) of cx02.  A class of block (i, j, a, d) times one of
        (j, l, d, d') is their core product moved to block (i, l, a, d');
        every other pair of blocks gives zero, and all such entries share
        one empty map."""
        h01, h12, h02 = self.h01, self.h12, self.h02
        xs, ys = (
            {
                (key, d): [_labelled(h.cx, key, d, z) for z in zs]
                for (key, d), zs in h.core_representatives.items()
            }
            for h in (h01, h12)
        )
        products = {}
        for ((i, j), deg_x), x_terms in xs.items():
            for ((j2, l), deg_y), y_terms in ys.items():
                degree = self.output_degree(deg_x, deg_y)
                for k, x in enumerate(x_terms if j2 == j else ()):
                    for m, y in enumerate(y_terms):
                        vec = self._chain((i, j, l), degree, x, y)
                        coords = vec and h02.core_class_of((i, l), degree, vec)
                        products[(i, j, l), deg_x, k, deg_y, m] = coords
        empty: dict = {}
        out = {}
        for deg_x, origins_x in h01._origin.items():
            for i, (bx, k) in enumerate(origins_x):
                for deg_y, origins_y in h12._origin.items():
                    degree = self.output_degree(deg_x, deg_y)
                    slot, zero = h02._slot.get(degree), (degree, empty)
                    for j, (by, m) in enumerate(origins_y):
                        block = _compose(bx, by)
                        if block is None:
                            out[deg_x, i, deg_y, j] = zero
                            continue
                        coords = products[(*bx[:2], by[1]), deg_x, k, deg_y, m]
                        coeffs = {slot[block, n]: c for n, c in coords.items()}
                        out[deg_x, i, deg_y, j] = degree, coeffs
        return out


def product_on_homology(dga: SemifreeDGA, e0, e1, e2, case: str = "I") -> HomologyProduct:
    return HomologyProduct(dga, e0, e1, e2, case)


def _mirrored(dga: SemifreeDGA, augs) -> tuple:
    """The mirror DGA and the augmentations carried over to it: each value
    transposed, and the coefficient map sending a word w to the transpose
    of the image of reverse(w), so that the image of a mirrored source word
    is the mirror of the image.  A map without images (the identity, a
    split inclusion, or out of the scalars) is its own transport."""
    mirrored, morphism = dga.mirror(), augs[0].morphism
    if morphism.images:
        src = morphism.source
        flip = src.reverse_word if src.kind == "matrix" else (lambda letter: letter)
        images = {key: morphism.images[flip(key)].reverse() for key in morphism.images}
        morphism = CoefficientMorphism(src, morphism.target, images)
    values = ({name: value.reverse() for name, value in aug.values.items()} for aug in augs)
    return mirrored, [Augmentation(mirrored, v, morphism) for v in values]


def mirror_compare(
    dga: SemifreeDGA, e0: Augmentation, e1: Augmentation, case: str = "II"
) -> Report:
    """Graded dimensions of the (e0, e1) complex match those of the mirror
    DGA with the transposed augmentations in swapped order, both read off
    source words (:func:`_mirrored`)."""
    require_shared_augmentations(dga, [e0, e1])
    alg = e0.target
    if alg.kind != "matrix" and alg.dimension() != 1:
        raise NotMatrixTargetError(f"mirror comparison needs a matrix target, got {alg}")
    report = Report("mirror comparison")
    mirrored, (m0, m1) = _mirrored(dga, [e0, e1])
    for aug in (m0, m1):
        check = aug.check()
        report.record(check.ok, f"transported augmentation invalid: {check}")
    if not report.ok:
        return report
    h = homology(_complex(dga, e0, e1, case))
    hm = homology(_complex(mirrored, m1, m0, case))
    for degree in sorted(set(h.dims) | set(hm.dims)):
        d1, d2 = h.dims.get(degree, 0), hm.dims.get(degree, 0)
        report.record(d1 == d2, f"degree {degree}: {d1} vs {d2} on the mirror")
    return report
