"""Free bimodule tensor powers in normal form, duals and adjoints.

A :class:`TensorWord` is an alternating string ``a0 c1 a1 ... cn an`` where
each ``aj`` is a single basis word of the coefficient algebra and the ``ci``
are generator names.  Sums are pushed to the outer scalar combination, so
an element of the tensor algebra is a sparse map word -> scalar.  Moving an
algebra factor across a tensor sign rewrites the adjacent slots, which is
exactly the balanced-product relation; multiplication below performs that
normalisation.

:class:`DualElement` is the left-coefficient presentation of a bimodule
functional into the algebra: a finite sum of terms ``b * c`` meaning "send
the generator c to b and every other generator to zero".
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import (
    AlgebraElement,
    CoefficientAlgebra,
    CoefficientMorphism,
    Combination,
    signed_sum,
    term_product,
)
from .errors import (
    AlgebraMismatchError,
    ArityMismatchError,
    BoundTooSmallError,
    NotHermitianError,
    ZeroArityTargetError,
)


class TensorWord(NamedTuple):
    coeffs: tuple  # n + 1 algebra basis words
    gens: tuple    # n generator names

    @property
    def arity(self) -> int:
        return len(self.gens)


class TensorElement(Combination):
    """Sparse element of the tensor algebra over a coefficient algebra."""

    __slots__ = ()

    # the benchmark tracer patches these two on this class's own __dict__
    __add__ = Combination.__add__
    __str__ = Combination.__str__

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, algebra: CoefficientAlgebra) -> "TensorElement":
        return cls(algebra, {})

    @classmethod
    def from_algebra(cls, element: AlgebraElement) -> "TensorElement":
        return cls(
            element.algebra,
            {TensorWord((w,), ()): c for w, c in element.terms.items()},
        )

    @classmethod
    def from_scalar(cls, algebra: CoefficientAlgebra, scalar) -> "TensorElement":
        return cls.from_algebra(algebra.unit().scale(scalar))

    @classmethod
    def generator(cls, algebra: CoefficientAlgebra, name: str) -> "TensorElement":
        one = algebra.ring.one
        units = algebra.unit_words()
        return cls(
            algebra,
            {TensorWord((u, v), (name,)): one for u in units for v in units},
        )

    # -- structure ----------------------------------------------------

    def arities(self) -> set[int]:
        return {tw.arity for tw in self.terms}

    @property
    def arity(self) -> int:
        """Common arity of all words; raises when mixed or zero."""
        arities = self.arities()
        if len(arities) != 1:
            raise ArityMismatchError(f"element has arities {sorted(arities)}")
        return arities.pop()

    def component(self, n: int) -> "TensorElement":
        return TensorElement(
            self.algebra, {tw: c for tw, c in self.terms.items() if tw.arity == n}
        )

    def max_arity(self) -> int:
        return max((tw.arity for tw in self.terms), default=0)

    def constant_part(self) -> AlgebraElement:
        return self.algebra.from_terms(
            (tw.coeffs[0], c) for tw, c in self.terms.items() if tw.arity == 0
        )

    def sort_key(self, tw: TensorWord):
        word_key = self.algebra.word_key
        return (tw.arity, tw.gens, tuple(word_key(w) for w in tw.coeffs))

    def term_str(self, tw: TensorWord, magnitude) -> str:
        word_str, ring = self.algebra.word_str, self.algebra.ring
        factors = [word_str(tw.coeffs[0])]
        for gen, w in zip(tw.gens, tw.coeffs[1:]):
            factors += [gen, word_str(w)]
        # unit slots are not written; the empty word prints as 1
        body = "*".join(f for f in factors if f != "1") or "1"
        if magnitude != ring.one:
            body = f"{ring.scalar_str(magnitude)}*{body}"
        return body

    # -- arithmetic ----------------------------------------------------

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return TensorElement.from_algebra(other) * self
        return self.scale(other)

    def __mul__(self, other) -> "TensorElement":
        """Concatenation product; merges the boundary slots."""
        if isinstance(other, AlgebraElement):
            other = TensorElement.from_algebra(other)
        self._check(other)
        alg, ring = self.algebra, self.algebra.ring
        out: dict = {}
        for tw1, c1 in self.terms.items():
            for tw2, c2 in other.terms.items():
                mid = alg.mul_words(tw1.coeffs[-1], tw2.coeffs[0])
                if mid is not None:
                    tw = TensorWord(
                        tw1.coeffs[:-1] + (mid,) + tw2.coeffs[1:],
                        tw1.gens + tw2.gens,
                    )
                    ring.add_term(out, tw, ring.mul(c1, c2))
        return TensorElement(alg, out)


def tensor_product(factors: Sequence, algebra: CoefficientAlgebra | None = None) -> TensorElement:
    """Product of a mixed list of TensorElements / AlgebraElements."""
    items = [
        TensorElement.from_algebra(f) if isinstance(f, AlgebraElement) else f for f in factors
    ]
    if not items:
        if algebra is None:
            raise ArityMismatchError("empty product needs an explicit algebra")
        return TensorElement.from_scalar(algebra, 1)
    out = items[0]
    for f in items[1:]:
        out = out * f
    return out


class DualElement:
    """Functional on the degree-one part, as a sum of terms (b, c)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CoefficientAlgebra, terms: dict[str, AlgebraElement]):
        self.algebra = algebra
        self.terms = {g: b for g, b in terms.items() if not b.is_zero()}

    @classmethod
    def zero(cls, algebra: CoefficientAlgebra) -> "DualElement":
        return cls(algebra, {})

    @classmethod
    def term(cls, coeff: AlgebraElement, gen: str) -> "DualElement":
        return cls(coeff.algebra, {gen: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return set(self.terms)

    def __add__(self, other: "DualElement") -> "DualElement":
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(f"{self.algebra} vs {other.algebra}")
        out = dict(self.terms)
        for g, b in other.terms.items():
            out[g] = out[g] + b if g in out else b
        return DualElement(self.algebra, out)

    def __neg__(self):
        return DualElement(self.algebra, {g: -b for g, b in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "DualElement":
        return DualElement(self.algebra, {g: b.scale(scalar) for g, b in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, DualElement)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def eval_on(self, element: TensorElement) -> AlgebraElement:
        """Evaluate the bimodule functional on an arity-one element."""
        return psi_eval([self], element)

    def __str__(self):
        unit = self.algebra.unit()
        # Z/p values print in [0, p), so only characteristic 0 writes -c
        minus_unit = -unit if self.algebra.ring.characteristic == 0 else None
        parts = []
        for g in sorted(self.terms):
            b = self.terms[g]
            if b == unit:
                parts.append(g)
            elif b == minus_unit:
                parts.append(f"-{g}")
            elif len(b.terms) > 1:
                parts.append(f"({b})*{g}")
            else:
                parts.append(f"{b}*{g}")
        return signed_sum(parts)

    def __repr__(self):
        return f"<{self}>"


def slot_products(morphism: CoefficientMorphism, words: Sequence, letters: Sequence) -> list[dict]:
    """The slots of a word a0 c1 a1 ... cn an over the morphism's source,
    whose letters are kept (None in ``letters``) or replaced by elements of
    its target: each coefficient word aj is passed through the morphism
    and the target factors between consecutive kept letters are multiplied
    out, one term map per slot, so n kept letters give n + 1 slots.  The
    source's unit word maps to 1 and is not multiplied in, so a slot holding
    one letter value is that value's own term map.  Returns [] as soon as a
    slot vanishes."""
    algebra, image, unit_word = morphism.target, morphism.apply_word, morphism.unit_word
    slots: list[dict] = []
    slot = None  # the unit, with nothing multiplied in yet
    for i, word in enumerate(words):
        if i:
            value = letters[i - 1]
            if value is None:
                slots.append(image(unit_word).terms if slot is None else slot)
                slot = None
            else:
                slot = value.terms if slot is None else term_product(algebra, slot, value.terms)
        if word != unit_word:
            terms = image(word).terms
            slot = terms if slot is None else term_product(algebra, slot, terms)
        if slot is not None and not slot:
            return []
    slots.append(image(unit_word).terms if slot is None else slot)
    return slots


def psi_eval(betas: Sequence[DualElement], element: TensorElement) -> AlgebraElement:
    """Evaluate beta_1 x ... x beta_n on an arity-n element, slotwise.

    On a word ``a0 c1 a1 ... cn an`` the value is ``a0 b1 a1 ... bn an``
    where ``bi`` is beta_i's coefficient at ``ci``; any mismatch kills the
    word.  Well defined on the balanced product because the betas are
    bimodule morphisms.
    """
    n = len(betas)
    if n < 1:
        raise ArityMismatchError("psi needs at least one functional")
    alg = element.algebra
    for beta in betas:
        if beta.algebra != alg:
            raise AlgebraMismatchError("mixed algebras in psi evaluation")
    ring = alg.ring
    identity = CoefficientMorphism.identity(alg)
    out: dict = {}
    for tw, c in element.terms.items():
        if tw.arity != n:
            raise ArityMismatchError(f"word of arity {tw.arity}, expected {n}")
        values = [beta.terms.get(gen) for beta, gen in zip(betas, tw.gens)]
        if any(b is None for b in values):
            continue
        # every letter is replaced: one slot, or none once a product vanishes
        for slot in slot_products(identity, tw.coeffs, values):
            for w, v in slot.items():
                ring.add_term(out, w, ring.mul(c, v))
    return AlgebraElement(alg, out)


def _word_t(algebra: CoefficientAlgebra, w1, w2):
    """Trace pairing of two basis words (they are orthonormal)."""
    return algebra.ring.one if w1 == w2 else algebra.ring.zero


def iota_pair(x: TensorElement, y: TensorElement):
    """Pairing of two equal-arity elements: the product of the slotwise
    trace pairings when all generators match, extended bilinearly."""
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("mixed algebras in pairing")
    alg, ring = x.algebra, x.algebra.ring
    if not alg.hermitian:
        raise NotHermitianError(f"{alg} has no trace pairing")
    if not x.is_zero() and not y.is_zero() and x.arity != y.arity:
        raise ArityMismatchError(f"arity {x.arity} vs {y.arity}")
    total = ring.zero
    for tw1, c1 in x.terms.items():
        for tw2, c2 in y.terms.items():
            if tw1.gens != tw2.gens:
                continue
            factor = ring.mul(c1, c2)
            for w1, w2 in zip(tw1.coeffs, tw2.coeffs):
                factor = ring.mul(factor, _word_t(alg, w1, w2))
                if ring.is_zero(factor):
                    break
            total = ring.add(total, factor)
    return total


def _morphism_arity(f_values: Mapping[str, TensorElement]) -> int:
    arities = {a for v in f_values.values() for a in v.arities()}
    if not arities:
        raise ZeroArityTargetError("morphism is zero; its target arity is ambiguous")
    if len(arities) != 1:
        raise ArityMismatchError(f"morphism images have mixed arities {sorted(arities)}")
    n = arities.pop()
    if n == 0:
        raise ZeroArityTargetError("adjoints into the zero-length part are rejected")
    return n


def split_terms(element: TensorElement) -> tuple:
    """The terms as :func:`_splice` reads them: (first slot, inner slots,
    last slot, generators, coefficient); last slot None at arity 0."""
    return tuple(
        (tw.coeffs[0], tw.coeffs[1:-1], tw.coeffs[-1] if tw.gens else None, tw.gens, c)
        for tw, c in element.terms.items()
    )


def _splice(out: dict, tw: TensorWord, c, k: int, split: tuple, alg: CoefficientAlgebra) -> None:
    """Add c * (prefix . image . suffix) to the term map ``out``: the word
    ``tw`` with its k-th generator (from 0) replaced by the image whose
    terms are ``split`` (:func:`split_terms`), whose end slots absorb the
    slots around that generator; an arity-0 term merges both into one."""
    ring, mul_words, new = alg.ring, alg.mul_words, tuple.__new__
    coeffs, gens = tw
    head, left, right, tail = coeffs[:k], coeffs[k], coeffs[k + 1], coeffs[k + 2 :]
    gens_head, gens_tail = gens[:k], gens[k + 1 :]
    for first, inner, last, image_gens, ic in split:
        first = mul_words(left, first)
        if first is None:
            continue
        if last is None:
            slots = (mul_words(first, right),)
        else:
            slots = (first, *inner, mul_words(last, right))
        if slots[-1] is not None:
            word = new(TensorWord, (head + slots + tail, gens_head + image_gens + gens_tail))
            ring.add_term(out, word, ring.mul(c, ic))


def apply_block(
    f_values: Mapping[str, TensorElement], k: int, l: int, x: TensorElement
) -> TensorElement:
    """Apply id^k x f x id^l, where f is given by generator images."""
    out: dict = {}
    for tw, c in x.terms.items():
        if tw.arity != k + 1 + l:
            raise ArityMismatchError(f"word arity {tw.arity}, expected {k + 1 + l}")
        image = f_values.get(tw.gens[k])
        if image is not None:
            x._check(image)
            _splice(out, tw, c, k, split_terms(image), x.algebra)
    return TensorElement(x.algebra, out)


def adjoint_formula(
    f_values: Mapping[str, TensorElement], k: int, l: int, y: TensorElement
) -> TensorElement:
    """Adjoint of id^k x f x id^l with respect to the trace pairings.

    For an image word ``a0 d1 a1 ... dn an`` of the generator c and an
    input block ``b_k d1' ... dn' b_{k+n}``, the contribution is nonzero
    only when the generators match, and then equals

        t(a1, b_{k+1}) ... t(a_{n-1}, b_{k+n-1}) . (b_k a0*) c (an* b_{k+n})

    inside the untouched outer slots.
    """
    alg = y.algebra
    if not alg.hermitian:
        raise NotHermitianError(f"{alg} has no star involution")
    ring = alg.ring
    n = _morphism_arity(f_values)
    out: dict = {}
    for tw, cy in y.terms.items():
        if tw.arity != k + n + l:
            raise ArityMismatchError(f"input arity {tw.arity}, expected {k + n + l}")
        mid_gens = tw.gens[k : k + n]
        for gen, image in f_values.items():
            for fw, cf in image.terms.items():
                if fw.gens != mid_gens:
                    continue
                factor = ring.mul(cy, cf)
                for i in range(1, n):
                    factor = ring.mul(factor, _word_t(alg, fw.coeffs[i], tw.coeffs[k + i]))
                    if ring.is_zero(factor):
                        break
                if ring.is_zero(factor):
                    continue
                left = alg.mul_words(tw.coeffs[k], alg.star_word(fw.coeffs[0]))
                if left is None:
                    continue
                right = alg.mul_words(alg.star_word(fw.coeffs[-1]), tw.coeffs[k + n])
                if right is None:
                    continue
                word = TensorWord(
                    tw.coeffs[:k] + (left, right) + tw.coeffs[k + n + 1 :],
                    tw.gens[:k] + (gen,) + tw.gens[k + n :],
                )
                ring.add_term(out, word, factor)
    return TensorElement(alg, out)


def adjoint_bruteforce(
    f_values: Mapping[str, TensorElement],
    k: int,
    l: int,
    y: TensorElement,
    generators: Iterable[str],
    slot_bound: int,
) -> TensorElement:
    """Transpose of id^k x f x id^l in the orthonormal word basis.

    Enumerates every source word whose slots have length at most
    ``slot_bound`` and reads off the matrix transpose entry by entry:
    the coefficient of a source word w in the adjoint of y is <y, F(w)>.
    Raises :class:`BoundTooSmallError` when the bound demonstrably cannot
    cover the support of the true adjoint (a slot of the input or of an
    image, or a boundary product of the two, may exceed it).
    """
    alg = y.algebra
    if not alg.hermitian:
        raise NotHermitianError(f"{alg} has no star involution")
    ring = alg.ring
    n = _morphism_arity(f_values)
    gens = sorted(set(generators))

    image_slots = [w for img in f_values.values() for fw in img.terms for w in fw.coeffs]
    input_slots = [w for tw in y.terms for w in tw.coeffs]
    for w in itertools.chain(image_slots, input_slots):
        if alg.word_len(w) > slot_bound:
            raise BoundTooSmallError(
                f"slot {alg.word_str(w)} exceeds the brute-force bound {slot_bound}"
            )
    for wi in input_slots:
        for wf in image_slots:
            if alg.product_len_bound(alg.word_len(wi), alg.word_len(wf)) > slot_bound:
                raise BoundTooSmallError(
                    "boundary products may exceed the brute-force bound"
                )

    slots = list(alg.words(slot_bound))
    arity = k + 1 + l
    out = TensorElement.zero(alg)
    for gen_choice in itertools.product(gens, repeat=arity):
        for coeff_choice in itertools.product(slots, repeat=arity + 1):
            w = TensorWord(tuple(coeff_choice), tuple(gen_choice))
            source = TensorElement(alg, {w: ring.one})
            value = iota_pair(y, apply_block(f_values, k, l, source))
            if not ring.is_zero(value):
                out = out + source.scale(value)
    return out
