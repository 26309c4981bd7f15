"""Augmentations of a semifree DGA and the eps-augmented DGA they define.

An augmentation eps conjugates the differential by phi(c) = c + eps(c):
d^eps = phi o d o phi^-1.  It is built here, once:
:func:`augmented_components` reads the arity-n part straight off the
source DGA's words.  Each word's letters are kept or replaced by their
augmentation values, its coefficient words are passed through the
coefficient morphism that the augmentations share, and its scalar is
coerced into the target's ring; no DGA over the target is built.  The
A-infinity operations, their relations and the bilinearised complexes read
these components, :meth:`Augmentation.develop` sums them into the
developed DGA, and :meth:`Augmentation.evaluate` is their arity-0 case."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import AlgebraElement, CoefficientMorphism
from .dga import LinkGrading, SemifreeDGA, _copy_name, ncopy
from .errors import (
    AlgebraMismatchError,
    InvalidAugmentationError,
    NcdgaError,
    TargetMismatchError,
    TupleLengthMismatchError,
)
from .report import Report
from .tensor import DualElement, TensorElement, TensorWord, slot_products


class Augmentation:
    """Unital DGA morphism into an algebra with zero differential.

    ``morphism`` carries the coefficient map; generator values live in its
    target and default to zero.  Validity (values only in degree zero and
    vanishing on every differential) is a reported check, so candidate
    maps can be examined before being used.
    """

    def __init__(
        self,
        dga: SemifreeDGA,
        values: Mapping[str, AlgebraElement] | None = None,
        morphism: CoefficientMorphism | None = None,
    ):
        self.dga = dga
        self.morphism = morphism if morphism is not None else CoefficientMorphism.identity(dga.algebra)
        if self.morphism.source != dga.algebra:
            raise AlgebraMismatchError("coefficient morphism starts at the wrong algebra")
        self.target = self.morphism.target
        self.values: dict[str, AlgebraElement] = {}
        for name, value in (values or {}).items():
            dga.degree(name)
            if value.algebra != self.target:
                raise TargetMismatchError(f"value of {name} is not in the target algebra")
            if not value.is_zero():
                self.values[name] = value

    @classmethod
    def trivial(cls, dga: SemifreeDGA) -> "Augmentation":
        return cls(dga, {})

    @property
    def is_trivial(self) -> bool:
        return not self.values and self.morphism.is_identity

    @property
    def into_coefficients(self) -> bool:
        return self.morphism.is_identity

    def value(self, name: str) -> AlgebraElement:
        return self.values.get(name, self.target.zero())

    def evaluate(self, x: TensorElement) -> AlgebraElement:
        """Value of the induced unital algebra morphism on any element: the
        arity-0 case of the augmented components, every letter replaced by
        its value and every coefficient word passed through the morphism."""
        if x.algebra != self.dga.algebra:
            raise AlgebraMismatchError("element is over the wrong algebra")
        ring = self.target.ring
        out: dict = {}
        for c, (slot,), _survivors in _placements((self,), 0, x.terms.items()):
            for w, v in slot.items():
                ring.add_term(out, w, ring.mul(c, v))
        return AlgebraElement(self.target, out)

    def check(self) -> Report:
        report = Report("augmentation")
        for name, value in self.values.items():
            degree = self.dga.degree(name)
            ok = self.dga.reduce_degree(degree) == 0 or value.is_zero()
            report.record(ok, "" if ok else f"nonzero value on generator {name} of degree {degree}")
        for name in self.dga.names:
            value = self.dga.differential.get(name)  # eps(0) = 0 is not evaluated
            image = None if value is None else self.evaluate(value)
            ok = image is None or image.is_zero()
            report.record(ok, "" if ok else f"eps(d {name}) = {image}")
        return report

    def dual(self) -> DualElement:
        """The functional eps(c_1) c_1 + ... + eps(c_k) c_k; only defined
        for augmentations into the coefficient algebra itself."""
        if not self.into_coefficients or self.target != self.dga.algebra:
            raise TargetMismatchError("dual needs an augmentation into the coefficients")
        return DualElement(self.dga.algebra, dict(self.values))

    def develop(self) -> SemifreeDGA:
        """The developed DGA: coefficients changed to the target and the
        differential conjugated by c -> c + eps(c).  Its arity-n part is the
        eps-augmented arity-n component (:func:`augmented_components`), read
        off the source words; the arity-0 part eps(d c) vanishes, as
        ``self`` is an augmentation."""
        dga = self.dga
        require_augmentations(dga, [self])
        differential = {name: TensorElement.zero(self.target) for name in dga.names}
        for n in range(1, dga.max_word_arity() + 1):
            for name, part in augmented_components(dga, (self,) * (n + 1), n).items():
                differential[name] += part
        return SemifreeDGA(self.target, dga.generators, differential, dga.modulus)

    def __repr__(self):
        listed = ", ".join(f"{n} -> {v}" for n, v in sorted(self.values.items()))
        return f"<Augmentation into {self.target}: {listed or 'trivial'}>"


def require_augmentations(dga: SemifreeDGA, augs: Sequence[Augmentation]) -> None:
    """Raise :class:`InvalidAugmentationError` unless every entry of
    ``augs`` is an augmentation of ``dga`` (:meth:`Augmentation.check`).
    The message names the first failing entry by its position in ``augs``;
    an entry that repeats an earlier one is not checked again, and one of
    ``dga`` itself is checked in place."""
    for i, aug in enumerate(augs):
        if aug in augs[:i]:
            continue
        check = (aug if aug.dga is dga else Augmentation(dga, aug.values, aug.morphism)).check()
        if not check.ok:
            check.title = f"augmentation {i + 1} of {len(augs)}"
            raise InvalidAugmentationError(str(check))


def require_shared_augmentations(dga: SemifreeDGA, augs: Sequence[Augmentation]) -> None:
    """:func:`require_augmentations`, after checking that the entries share
    one coefficient morphism, as every complex and product needs."""
    _shared_morphism(augs)
    require_augmentations(dga, augs)


def _prepare(dga: SemifreeDGA, augs: Sequence[Augmentation]):
    """Check the entries (:func:`require_shared_augmentations`), then move
    everything over the (common) augmentation target: the DGA with its
    coefficients changed and the augmentations rebuilt over it.  The
    mirror comparison mirrors this copy; everything else reads the
    source words (:func:`augmented_components`)."""
    require_shared_augmentations(dga, augs)
    first = augs[0]
    if first.morphism.is_identity:
        return dga, list(augs)
    base = dga.change_coefficients(first.morphism)
    return base, [Augmentation(base, dict(aug.values)) for aug in augs]


# -- the eps-augmented components ---------------------------------------


def _shared_morphism(augs: Sequence[Augmentation]) -> CoefficientMorphism:
    """The coefficient morphism of every entry; raises unless they share one."""
    first = augs[0].morphism
    for aug in augs[1:]:
        m = aug.morphism
        if m is not first and (m.target != first.target or m.images != first.images):
            raise TargetMismatchError("augmentations do not share a coefficient map")
    return first


def _check_tuple(dga: SemifreeDGA, augs: Sequence[Augmentation], length: int):
    """The tuple of an A-infinity operation: ``length`` augmentations of
    ``dga`` into its coefficient algebra itself."""
    if len(augs) != length:
        raise TupleLengthMismatchError(f"need {length} augmentations, got {len(augs)}")
    for aug in augs:
        if not aug.into_coefficients or aug.target != dga.algebra:
            raise TargetMismatchError(
                "operations need augmentations into the coefficient algebra;"
                " change coefficients first"
            )
        if aug.dga.names != dga.names:
            raise TargetMismatchError("augmentation belongs to a different DGA")


def _check_augmentations(dga: SemifreeDGA, augs: Sequence[Augmentation], length: int):
    """:func:`_check_tuple`, then that every entry is an augmentation of ``dga``."""
    _check_tuple(dga, augs, length)
    require_augmentations(dga, augs)


def _placements(
    augs: Sequence[Augmentation], n: int, terms: Iterable[tuple[TensorWord, object]]
) -> Iterator[tuple[object, list[dict], tuple]]:
    """Every way to read an arity-n part off ``terms``, the (word,
    coefficient) pairs of an element over the source algebra: for each word
    of arity at least n and each choice of n survivor letters, every other
    letter is replaced by its value under the augmentation of its block
    (the number of survivors in front of it), and the placement yields
    (coefficient, slots, survivors).  The slots are the word's
    :func:`slot_products` through the augmentations' shared coefficient
    morphism, the coefficient is coerced into the target's scalars, and
    ``survivors`` are the survivors' generators.  Placements in which a
    block's augmentation kills a letter, or a slot vanishes, are skipped."""
    morphism = augs[0].morphism
    coerce = morphism.target.ring.coerce
    for tw, coeff in terms:
        arity = len(tw.gens)
        if arity < n:
            continue
        coeff = coerce(coeff)
        for survivors in itertools.combinations(range(arity), n):
            letters: list = []
            kept: list = []
            block = 0
            for pos, gen in enumerate(tw.gens):
                if block < n and survivors[block] == pos:
                    letters.append(None)
                    kept.append(gen)
                    block += 1
                    continue
                value = augs[block].values.get(gen)
                if value is None:
                    break
                letters.append(value)
            else:
                slots = slot_products(morphism, tw.coeffs, letters)
                if slots:
                    yield coeff, slots, tuple(kept)


def augmented_components(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, images: Mapping | None = None
) -> dict[str, TensorElement]:
    """The eps-augmented arity-n components of the differential (or of
    ``images``), over the augmentations' common target: for each generator,
    the sum over its placements (see :func:`_placements`) of the word with
    every non-survivor letter replaced by its augmentation value and every
    coefficient word by its image.  ``augs`` has n + 1 entries, one per
    block, sharing one coefficient morphism.  Generators whose component
    vanishes are left out, and one whose differential (or image) has no
    terms is skipped before any placement walk: zero squares cost nothing.

    A placement adds the outer product of its slots' terms, with the
    survivors as generators.  Writing a survivor as the sum of u g v over
    pairs of unit words would give the same element, since the unit words
    sum to 1: a (sum u g v) b = a g b.  So the components are those of the
    DGA with its coefficients changed (:meth:`SemifreeDGA.change_coefficients`)
    under the augmentations rebuilt over it, as term maps: the product of
    a word's slot images is the sum that the changed words spell out."""
    if len(augs) != n + 1:
        raise TupleLengthMismatchError(f"need {n + 1} augmentations, got {len(augs)}")
    target = _shared_morphism(augs).target
    ring = target.ring
    components: dict[str, TensorElement] = {}
    source = dga.differential if images is None else images
    for name in dga.names:
        image = source.get(name)
        if image is None or not image.terms:
            continue
        terms: dict = {}
        for coeff, slots, survivors in _placements(augs, n, image.terms.items()):
            for choice in itertools.product(*(s.items() for s in slots)):
                c = coeff
                for _w, v in choice:
                    c = ring.mul(c, v)
                word = TensorWord(tuple(w for w, _v in choice), survivors)
                ring.add_term(terms, word, c)
        if terms:
            components[name] = TensorElement(target, terms)
    return components


def ncopy_augmentation(
    augs: Sequence[Augmentation], base: SemifreeDGA
) -> tuple[SemifreeDGA, LinkGrading, Augmentation]:
    """Diagonal augmentation of the free n-copy: the i-th augmentation on
    the pure generators c_ii, zero on the mixed ones."""
    if not augs:
        raise NcdgaError("need at least one augmentation")
    for aug in augs:
        if aug.dga is not base and aug.dga != base:
            raise AlgebraMismatchError("augmentations are not all over the base DGA")
        if aug.target != augs[0].target or aug.morphism.images != augs[0].morphism.images:
            raise TargetMismatchError("augmentations do not share a target")
    n = len(augs)
    copied, grading = ncopy(base, n)
    values = {
        _copy_name(name, i, i, n): augs[i - 1].values[name]
        for i in range(1, n + 1)
        for name in augs[i - 1].values
    }
    return copied, grading, Augmentation(copied, values, augs[0].morphism)


def enumerate_augmentations(
    dga: SemifreeDGA, morphism: CoefficientMorphism | None = None, limit: int = 1 << 16
) -> list[Augmentation]:
    """Brute-force search over all degree-zero assignments into a finite
    target algebra; refuses to enumerate more than ``limit`` candidates."""
    morphism = morphism if morphism is not None else CoefficientMorphism.identity(dga.algebra)
    target = morphism.target
    dim = target.dimension()
    p = target.ring.characteristic
    if dim is None or p == 0:
        raise NcdgaError("target algebra is not finite, give explicit values")
    slots = [name for name in dga.names if dga.reduce_degree(dga.degree(name)) == 0]
    total = (p ** dim) ** len(slots)
    if total > limit:
        raise NcdgaError(f"{total} candidate assignments exceed the search limit {limit}")
    words = list(target.words(max_len=dim))
    elements = [
        target.from_terms(zip(words, coeffs))
        for coeffs in itertools.product(range(p), repeat=len(words))
    ]
    found = []
    for assignment in itertools.product(elements, repeat=len(slots)):
        aug = Augmentation(dga, dict(zip(slots, assignment)), morphism)
        if aug.check().ok:
            found.append(aug)
    return found
