"""Noncommutative coefficient algebras with a distinguished word basis.

Four kinds are supported, all with a totally ordered basis of "words" and
a confluent normal form for products:

* ``MatrixAlgebra(n)``     - words are matrix units ``(i, j)``,
* ``GroupRing(rank)``      - words are reduced words in a free group,
  stored as tuples of signed generator indices,
* ``FreeAlgebra(names)``   - words are monomials, stored as tuples of
  generator indices,
* ``SplitAlgebra(base, n)``- the base algebra tensored with n orthogonal
  central idempotents e_1, ..., e_n; words are ``(i, base_word)``.

When an algebra carries a star involution, the basis words are orthonormal
for the associated trace pairing t, which is what makes the adjoint
machinery in :mod:`ncdga.tensor` exact.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import (
    AlgebraMismatchError,
    MorphismIllDefinedError,
    NcdgaError,
    NotHermitianError,
)
from .report import Report
from .rings import Ring


class CoefficientAlgebra:
    """Base class; concrete kinds implement the word-level operations."""

    kind = "abstract"
    ring: Ring
    hermitian: bool = False

    # -- word level -------------------------------------------------

    def unit_words(self) -> list[tuple]:
        """Basis words whose sum is the multiplicative unit."""
        raise NotImplementedError

    def mul_words(self, w1, w2):
        """Product of two basis words: a basis word, or None for zero."""
        raise NotImplementedError

    def star_word(self, w):
        raise NotHermitianError(f"{self} has no star involution")

    def reverse_word(self, w):
        """The canonical anti-automorphism (letter reversal / transpose)."""
        raise NotImplementedError

    def word_len(self, w) -> int:
        raise NotImplementedError

    def product_len_bound(self, l1: int, l2: int) -> int:
        """Upper bound for the length of a product of words of given lengths."""
        return l1 + l2

    def word_str(self, w) -> str:
        raise NotImplementedError

    def word_key(self, w):
        return (self.word_len(w), w)

    def words(self, max_len: int) -> Iterator[tuple]:
        """All basis words of length at most max_len, sorted."""
        raise NotImplementedError

    def dimension(self) -> int | None:
        """Dimension over the scalar ring, or None when infinite."""
        return None

    def symbols(self) -> dict[str, "AlgebraElement"]:
        """Named elements the expression language may refer to."""
        return {}

    def declaration(self) -> str:
        raise NotImplementedError

    # -- element level ----------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def unit(self) -> "AlgebraElement":
        one = self.ring.one
        return AlgebraElement(self, {w: one for w in self.unit_words()})

    def element(self, word, coeff=1) -> "AlgebraElement":
        c = self.ring.coerce(coeff)
        return AlgebraElement(self, {word: c} if not self.ring.is_zero(c) else {})

    def from_terms(self, terms: Iterable[tuple]) -> "AlgebraElement":
        acc: dict = {}
        for word, coeff in terms:
            self.ring.add_term(acc, word, self.ring.coerce(coeff))
        return AlgebraElement(self, acc)

    def __str__(self):
        return self.declaration() + f" over {self.ring.name}"

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    # each constructor sets _key, the values that determine the algebra
    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._key == other._key)

    def __hash__(self):
        return hash((self.kind, *self._key))


class MatrixAlgebra(CoefficientAlgebra):
    kind = "matrix"
    hermitian = True  # transposition, trace pairing

    def __init__(self, n: int, ring: Ring):
        if n < 1:
            raise NcdgaError("matrix size must be positive")
        self.n = n
        self.ring = ring
        self._key = (n, ring)

    def unit_words(self):
        return [(i, i) for i in range(1, self.n + 1)]

    def mul_words(self, w1, w2):
        return (w1[0], w2[1]) if w1[1] == w2[0] else None

    def star_word(self, w):
        return (w[1], w[0])

    reverse_word = star_word

    def word_len(self, w):
        return 1

    def product_len_bound(self, l1, l2):
        return 1

    def word_str(self, w):
        if self.n <= 9:
            return f"E{w[0]}{w[1]}"
        return f"E({w[0]},{w[1]})"

    def words(self, max_len=None):
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                yield (i, j)

    def dimension(self):
        return self.n * self.n

    def symbols(self):
        if self.n > 9:
            return {}
        one = self.ring.one
        return {self.word_str(w): AlgebraElement(self, {w: one}) for w in self.words()}

    def declaration(self):
        return f"matrix {self.n}"


def _reduce_group_word(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class GroupRing(CoefficientAlgebra):
    """Group ring of the free group on ``rank`` generators g1, ..., gk."""

    kind = "group"
    hermitian = True  # star is the group inverse, words are orthonormal

    def __init__(self, rank: int, ring: Ring):
        if rank < 0:
            raise NcdgaError("group rank must be nonnegative")
        self.rank = rank
        self.ring = ring
        self._key = (rank, ring)

    def unit_words(self):
        return [()]

    def mul_words(self, w1, w2):
        return _reduce_group_word(w1 + w2)

    def star_word(self, w):
        return tuple(-x for x in reversed(w))

    def reverse_word(self, w):
        return tuple(reversed(w))

    def word_len(self, w):
        return len(w)

    def word_str(self, w):
        if not w:
            return "1"
        return "*".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in w)

    def words(self, max_len):
        yield ()
        letters = [x for i in range(1, self.rank + 1) for x in (i, -i)]
        frontier = [()]
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                for x in letters:
                    if w and w[-1] == -x:
                        continue
                    nxt.append(w + (x,))
            nxt.sort()
            yield from nxt
            frontier = nxt

    def dimension(self):
        return 1 if self.rank == 0 else None

    def symbols(self):
        return {f"g{i}": self.element((i,)) for i in range(1, self.rank + 1)}

    def declaration(self):
        return f"group free {self.rank}"


class FreeAlgebra(CoefficientAlgebra):
    """Free associative algebra on named generators.

    No star structure is offered: with the monomials orthonormal, reversal
    fails t(ba, c) = t(a, b*c) because free monomials never cancel
    (t(g2*g2g1, g1) = 0 against t(g2g1, g2g1) = 1).  The group ring of a
    free group is the hermitian home for noncommuting symbols.
    """

    kind = "free"

    def __init__(self, names: tuple[str, ...], ring: Ring):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise NcdgaError("duplicate free-algebra generator names")
        self.ring = ring
        self._key = (self.names, ring)

    @property
    def hermitian(self):
        # rank zero is the scalar ring, hermitian with the identity star
        return not self.names

    def unit_words(self):
        return [()]

    def mul_words(self, w1, w2):
        return w1 + w2

    def star_word(self, w):
        if self.names:
            raise NotHermitianError(f"{self} has no star involution")
        return w

    def reverse_word(self, w):
        return tuple(reversed(w))

    def word_len(self, w):
        return len(w)

    def word_str(self, w):
        if not w:
            return "1"
        return "*".join(self.names[i - 1] for i in w)

    def words(self, max_len):
        k = len(self.names)
        for length in range(max_len + 1):
            for w in itertools.product(range(1, k + 1), repeat=length):
                yield w

    def dimension(self):
        return 1 if not self.names else None

    def symbols(self):
        return {name: self.element((i + 1,)) for i, name in enumerate(self.names)}

    def declaration(self):
        return "free" + "".join(" " + n for n in self.names)


class SplitAlgebra(CoefficientAlgebra):
    """base x (R e_1 + ... + R e_n) with e_i e_j = delta_ij e_i, sum e_i = 1."""

    kind = "split"

    def __init__(self, base: CoefficientAlgebra, n: int):
        if n < 1:
            raise NcdgaError("number of idempotents must be positive")
        if isinstance(base, SplitAlgebra):
            raise NcdgaError("nested split algebras are not supported")
        self.base = base
        self.copies = n
        self.ring = base.ring
        self.hermitian = base.hermitian
        self._key = (base, n)

    def unit_words(self):
        return [(i, w) for i in range(1, self.copies + 1) for w in self.base.unit_words()]

    def mul_words(self, w1, w2):
        if w1[0] != w2[0]:
            return None
        prod = self.base.mul_words(w1[1], w2[1])
        return None if prod is None else (w1[0], prod)

    def star_word(self, w):
        return (w[0], self.base.star_word(w[1]))

    def reverse_word(self, w):
        return (w[0], self.base.reverse_word(w[1]))

    def word_len(self, w):
        return self.base.word_len(w[1])

    def product_len_bound(self, l1, l2):
        return self.base.product_len_bound(l1, l2)

    def word_str(self, w):
        inner = self.base.word_str(w[1])
        return f"e{w[0]}" if inner == "1" else f"e{w[0]}*{inner}"

    def words(self, max_len):
        for w in self.base.words(max_len):
            for i in range(1, self.copies + 1):
                yield (i, w)

    def dimension(self):
        d = self.base.dimension()
        return None if d is None else d * self.copies

    def symbols(self):
        syms = {}
        for i in range(1, self.copies + 1):
            syms[f"e{i}"] = self.from_terms(((i, w), 1) for w in self.base.unit_words())
        for name, elem in self.base.symbols().items():
            syms[name] = self.from_terms(
                ((i, w), c)
                for i in range(1, self.copies + 1)
                for w, c in elem.terms.items()
            )
        return syms

    def declaration(self):
        return f"split {self.copies} {self.base.declaration()}"


def term_product(algebra: CoefficientAlgebra, left: dict, right: dict) -> dict:
    """The product of two term maps over ``algebra``, as a term map."""
    ring, mul_words = algebra.ring, algebra.mul_words
    product: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = mul_words(w1, w2)
            if w is not None:
                ring.add_term(product, w, ring.mul(c1, c2))
    return product


def signed_sum(parts: Iterable[str]) -> str:
    """Join printed terms into ``a + b - c``; a negative term starts with
    '-'.  No terms print as 0."""
    out = ""
    for part in parts:
        if not out:
            out = part
        elif part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out or "0"


class Combination:
    """Finite linear combination of basis keys over an algebra's scalar
    ring, zero coefficients dropped.  Subclasses give the product, the
    order of the keys, ``sort_key(key)``, and ``term_str(key, magnitude)``,
    one term printed without its sign."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CoefficientAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _check(self, other: "Combination"):
        # keys of different combination types do not mix in one dict
        if type(other) is not type(self):
            raise AlgebraMismatchError(f"{type(self).__name__} vs {type(other).__name__}")
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(f"{self.algebra} vs {other.algebra}")

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        sort_key = self.sort_key
        return sorted(self.terms.items(), key=lambda item: sort_key(item[0]))

    def __add__(self, other):
        self._check(other)
        add_term = self.algebra.ring.add_term
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return type(self)(self.algebra, out)

    def __neg__(self):
        neg = self.algebra.ring.neg
        return type(self)(self.algebra, {key: neg(c) for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        ring = self.algebra.ring
        s = ring.coerce(scalar)
        if ring.is_zero(s):
            return type(self)(self.algebra, {})
        return type(self)(self.algebra, {key: ring.mul(s, c) for key, c in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __str__(self):
        split_sign = self.algebra.ring.split_sign
        parts = []
        for key, c in self.sorted_terms():
            negative, magnitude = split_sign(c)
            parts.append(("-" if negative else "") + self.term_str(key, magnitude))
        return signed_sum(parts)

    def __repr__(self):
        return f"<{self}>"


class AlgebraElement(Combination):
    """Finite linear combination of basis words, zero coefficients dropped."""

    __slots__ = ()

    def sort_key(self, w):
        return self.algebra.word_key(w)

    def term_str(self, w, magnitude) -> str:
        ring = self.algebra.ring
        ws = self.algebra.word_str(w)
        if magnitude == ring.one:
            return ws
        if ws == "1":
            return ring.scalar_str(magnitude)
        return f"{ring.scalar_str(magnitude)}*{ws}"

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            if hasattr(other, "terms"):
                return NotImplemented  # tensor elements handle mixed products
            return self.scale(other)
        self._check(other)
        return AlgebraElement(self.algebra, term_product(self.algebra, self.terms, other.terms))

    def star(self) -> "AlgebraElement":
        alg = self.algebra
        return AlgebraElement(alg, {alg.star_word(w): c for w, c in self.terms.items()})

    def reverse(self) -> "AlgebraElement":
        alg = self.algebra
        return AlgebraElement(alg, {alg.reverse_word(w): c for w, c in self.terms.items()})


def try_word_inverse(algebra: CoefficientAlgebra, word, coeff) -> AlgebraElement | None:
    """Inverse of coeff * word when one exists as a scalar times a word.

    Candidate inverses come from the reversal anti-automorphism (the group
    inverse for group rings); both products are verified against the unit.
    """
    candidates = []
    if algebra.hermitian:
        candidates.append(algebra.star_word(word))
    candidates.append(algebra.reverse_word(word))
    for inverse in candidates:
        forward = algebra.element(word) * algebra.element(inverse)
        backward = algebra.element(inverse) * algebra.element(word)
        if forward == algebra.unit() and backward == algebra.unit():
            try:
                return algebra.element(inverse, algebra.ring.inv(coeff))
            except NcdgaError:
                return None
    return None


def pairing_t(a: AlgebraElement, b: AlgebraElement):
    """Trace pairing t(a, b).  Basis words are orthonormal in every
    supported hermitian algebra, so this is the overlap of coefficients."""
    if a.algebra != b.algebra:
        raise AlgebraMismatchError(f"{a.algebra} vs {b.algebra}")
    if not a.algebra.hermitian:
        raise NotHermitianError(f"{a.algebra} has no trace pairing")
    ring = a.algebra.ring
    total = ring.zero
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for w, c in small.items():
        other = big.get(w)
        if other is not None:
            total = ring.add(total, ring.mul(c, other))
    return total


def check_hermitian_axioms(
    algebra: CoefficientAlgebra,
    samples: list[AlgebraElement],
    star=None,
    pairing=None,
) -> Report:
    """Verify the star axioms and the pairing adjunction on sample triples.

    ``star`` / ``pairing`` may be overridden to test a deliberately corrupted
    structure.  Nondegeneracy is checked on the span of the sample words,
    where the Gram matrix must be the identity.
    """
    star = star or (lambda x: x.star())
    pairing = pairing or pairing_t
    report = Report(f"hermitian axioms on {algebra}")
    if not algebra.hermitian:
        report.record(False, "algebra carries no hermitian structure")
        return report
    ring = algebra.ring
    two, three = ring.coerce(2), ring.coerce(3)
    for a in samples:
        ok = star(star(a)) == a
        report.record(ok, "" if ok else f"star not involutive on {a}")
    for a, b in itertools.product(samples, repeat=2):
        ok = star(a * b) == star(b) * star(a)
        report.record(ok, "" if ok else f"star not antimultiplicative on ({a}, {b})")
        ok = star(a.scale(two) + b.scale(three)) == star(a).scale(two) + star(b).scale(three)
        report.record(ok, "" if ok else f"star not linear on ({a}, {b})")
    for a, b, c in itertools.product(samples, repeat=3):
        lhs = pairing(b * a, c)
        ok = lhs == pairing(a, star(b) * c)
        report.record(ok, "" if ok else f"t(ba,c) != t(a,b*c) on ({a}, {b}, {c})")
        ok = lhs == pairing(b, c * star(a))
        report.record(ok, "" if ok else f"t(ba,c) != t(b,ca*) on ({a}, {b}, {c})")
    words = sorted({w for s in samples for w in s.terms}, key=algebra.word_key)
    for i, w1 in enumerate(words):
        for j, w2 in enumerate(words):
            val = pairing(algebra.element(w1), algebra.element(w2))
            ok = val == (ring.one if i == j else ring.zero)
            report.record(
                ok, "" if ok else f"gram entry t({algebra.word_str(w1)},{algebra.word_str(w2)}) = {val}"
            )
    return report


class CoefficientMorphism:
    """Unital algebra morphism, given by images of the source generators.

    For a free algebra any assignment extends; for a group ring the images
    of the inverses must be supplied (or derivable) and are verified; for a
    matrix algebra the matrix-unit relations are verified.
    """

    def __init__(
        self,
        source: CoefficientAlgebra,
        target: CoefficientAlgebra,
        images: dict,
        _split: int | None = None,
    ):
        if source.ring != target.ring and source.ring.kind != "Z":
            raise MorphismIllDefinedError(
                f"no ring map from {source.ring.name} to {target.ring.name}:"
                " only Z maps to every ring, any other ring only to itself"
            )
        self.source = source
        self.target = target
        self.images = dict(images)
        self._cache: dict = {}
        self._split = _split
        self._identity = source == target and not images and _split is None
        # the source's unit when it is one basis word (the empty word of a
        # free or group algebra): its image is 1, and slot products skip it
        units = source.unit_words()
        self.unit_word = units[0] if len(units) == 1 else None
        if _split is None:
            self.check()

    @classmethod
    def identity(cls, algebra: CoefficientAlgebra) -> "CoefficientMorphism":
        return cls(algebra, algebra, {})

    @classmethod
    def split_inclusion(cls, algebra: CoefficientAlgebra, n: int) -> "CoefficientMorphism":
        """The canonical map into SplitAlgebra(algebra, n), w -> sum_i e_i w."""
        return cls(algebra, SplitAlgebra(algebra, n), {}, _split=n)

    @property
    def is_identity(self) -> bool:
        return self._identity

    def check(self):
        if self._identity:
            return
        src, tgt = self.source, self.target
        if isinstance(src, MatrixAlgebra):
            units = list(src.words())
            missing = [w for w in units if w not in self.images]
            if missing:
                raise MorphismIllDefinedError(
                    f"missing images for {[src.word_str(w) for w in missing]}"
                )
            for w1 in units:
                for w2 in units:
                    prod = self.images[w1] * self.images[w2]
                    w = src.mul_words(w1, w2)
                    expected = self.images[w] if w is not None else tgt.zero()
                    if prod != expected:
                        raise MorphismIllDefinedError(
                            f"images break {src.word_str(w1)}*{src.word_str(w2)}"
                        )
            total = tgt.from_terms(
                item for w in src.unit_words() for item in self.images[w].terms.items()
            )
            if total != tgt.unit():
                raise MorphismIllDefinedError("images of the diagonal units do not sum to 1")
        elif isinstance(src, GroupRing):
            for i in range(1, src.rank + 1):
                if i not in self.images:
                    raise MorphismIllDefinedError(f"missing image for g{i}")
                if -i not in self.images:
                    raise MorphismIllDefinedError(f"missing image for g{i}^-1")
                one = tgt.unit()
                if self.images[i] * self.images[-i] != one or self.images[-i] * self.images[i] != one:
                    raise MorphismIllDefinedError(f"image of g{i} is not invertible as supplied")
        elif isinstance(src, FreeAlgebra):
            for i in range(1, len(src.names) + 1):
                if i not in self.images:
                    raise MorphismIllDefinedError(f"missing image for {src.names[i - 1]}")
        else:
            raise MorphismIllDefinedError(f"morphisms out of {src} are not supported")
        for img in self.images.values():
            if img.algebra != tgt:
                raise AlgebraMismatchError("image lives in the wrong algebra")

    def apply_word(self, word) -> AlgebraElement:
        """The image of a basis word, computed once per word and shared:
        callers read it and never change it."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        src, tgt = self.source, self.target
        if self._identity:
            result = src.element(word)
        elif self._split is not None:
            result = tgt.from_terms((((i, word), 1) for i in range(1, self._split + 1)))
        elif isinstance(src, MatrixAlgebra):
            result = self.images[word]
        else:
            result = tgt.unit()
            for letter in word:
                result = result * self.images[letter]
        self._cache[word] = result
        return result

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.algebra != self.source:
            raise AlgebraMismatchError("element is not over the morphism's source")
        if self._identity:
            return element
        ring = self.target.ring
        out: dict = {}
        for w, c in element.terms.items():
            c = ring.coerce(c)
            for word, value in self.apply_word(w).terms.items():
                ring.add_term(out, word, ring.mul(c, value))
        return AlgebraElement(self.target, out)
