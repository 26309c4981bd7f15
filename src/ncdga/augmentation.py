"""Augmentations of a semifree DGA and the eps-augmented DGA they define.

An augmentation eps conjugates the differential by phi(c) = c + eps(c):
d^eps = phi o d o phi^-1.  It is built here, once: :func:`_prepare` checks
the maps and moves them over their common target, and
:func:`augmented_components` builds the arity-n part.  The A-infinity
operations, their relations and the bilinearised complexes read these
components, and :meth:`Augmentation.develop` sums them into the developed
DGA."""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from .algebra import AlgebraElement, CoefficientMorphism
from .dga import LinkGrading, SemifreeDGA, ncopy
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
        """Value of the induced unital algebra morphism on any element."""
        # its own slot loop runs on the short source words; per complex-II check, arity-0
        # components of the moved DGA took 2-10x as long, substitute 2-6x
        if x.algebra != self.dga.algebra:
            raise AlgebraMismatchError("element is over the wrong algebra")
        ring = self.target.ring
        out: dict = {}
        for tw, c in x.terms.items():
            value = self.morphism.apply_word(tw.coeffs[0])
            for gen, slot in zip(tw.gens, tw.coeffs[1:]):
                gen_value = self.values.get(gen)
                if gen_value is None or value.is_zero():
                    break
                value = value * gen_value * self.morphism.apply_word(slot)
            else:
                c = ring.coerce(c)
                for w, v in value.terms.items():
                    ring.add_term(out, w, ring.mul(c, v))
        return AlgebraElement(self.target, out)

    def check(self) -> Report:
        report = Report("augmentation")
        for name, value in self.values.items():
            degree = self.dga.degree(name)
            ok = self.dga.reduce_degree(degree) == 0 or value.is_zero()
            report.record(ok, "" if ok else f"nonzero value on generator {name} of degree {degree}")
        for name in self.dga.names:
            image = self.evaluate(self.dga.d_of_generator(name))
            ok = image.is_zero()
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
        eps-augmented arity-n component (:func:`augmented_components`); the
        arity-0 part eps(d c) vanishes, as ``self`` is an augmentation."""
        base, (eps,) = _prepare(self.dga, [self])
        differential = {name: TensorElement.zero(base.algebra) for name in base.names}
        for n in range(1, base.max_word_arity() + 1):
            for name, part in augmented_components(base, (eps,) * (n + 1), n).items():
                differential[name] += part
        return SemifreeDGA(base.algebra, base.generators, differential, base.modulus)

    def __repr__(self):
        listed = ", ".join(f"{n} -> {v}" for n, v in sorted(self.values.items()))
        return f"<Augmentation into {self.target}: {listed or 'trivial'}>"


def require_augmentations(dga: SemifreeDGA, augs: Sequence[Augmentation]) -> None:
    """Raise :class:`InvalidAugmentationError` unless every entry of
    ``augs`` is an augmentation of ``dga`` (:meth:`Augmentation.check`).
    The message names the first failing entry by its position in ``augs``;
    an entry that repeats an earlier one is not checked again."""
    for i, aug in enumerate(augs):
        if aug in augs[:i]:
            continue
        check = Augmentation(dga, aug.values, aug.morphism).check()
        if not check.ok:
            check.title = f"augmentation {i + 1} of {len(augs)}"
            raise InvalidAugmentationError(str(check))


def _prepare(dga: SemifreeDGA, augs: Sequence[Augmentation]):
    """Check that every entry is an augmentation of ``dga``, then move
    everything over the (common) augmentation target."""
    first = augs[0]
    for aug in augs[1:]:
        if aug.target != first.target or aug.morphism.images != first.morphism.images:
            raise TargetMismatchError("augmentations do not share a coefficient map")
    require_augmentations(dga, augs)
    if first.morphism.is_identity:
        return dga, list(augs)
    base = dga.change_coefficients(first.morphism)
    return base, [Augmentation(base, dict(aug.values)) for aug in augs]


# -- the eps-augmented components ---------------------------------------


def _check_tuple(dga: SemifreeDGA, augs: Sequence[Augmentation], length: int):
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
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, images: Mapping | None = None
) -> Iterator[tuple[str, TensorWord, object, list, tuple]]:
    """Every way to read an arity-n operation off the differential (or off
    ``images`` of the generators): for each word of d(generator) of arity
    at least n and each choice of n survivor letters, (generator, word,
    coefficient, letters, survivors), where ``letters`` is None at each
    survivor and elsewhere the value of the letter under the augmentation
    of its block, and ``survivors`` are the survivors' generators.
    Placements in which a block's augmentation kills a letter are skipped."""
    for name in dga.names:
        image = dga.d_of_generator(name) if images is None else images[name]
        for tw, coeff in image.terms.items():
            for survivors in itertools.combinations(range(tw.arity), n):
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
                    yield name, tw, coeff, letters, tuple(kept)


def augmented_components(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, images: Mapping | None = None
) -> dict[str, TensorElement]:
    """The eps-augmented arity-n components of the differential (or of
    ``images``): for each generator, the sum over its placements (see
    :func:`_placements`) of the word with every non-survivor letter
    replaced by its augmentation value.  ``augs`` has n + 1 entries, one
    per block.  Generators whose component vanishes are left out.

    A placement is built by :func:`slot_products`: the algebra factors
    between consecutive survivors multiply into n + 1 slots (a placement
    stops at the first slot that vanishes), and the placement adds the
    outer product of the slots' terms, with the survivors as generators.
    Writing a survivor as the sum of u g v over pairs of unit words would
    give the same element, since the unit words sum to 1:
    a (sum u g v) b = a g b."""
    _check_tuple(dga, augs, n + 1)
    alg = dga.algebra
    ring = alg.ring
    components: dict[str, dict] = {}
    for name, tw, coeff, letters, survivors in _placements(dga, augs, n, images):
        slots = slot_products(alg, tw, letters)
        if not slots:
            continue
        terms = components.setdefault(name, {})
        for choice in itertools.product(*(s.items() for s in slots)):
            c = coeff
            for _w, v in choice:
                c = ring.mul(c, v)
            word = TensorWord(tuple(w for w, _v in choice), survivors)
            ring.add_term(terms, word, c)
    return {name: TensorElement(alg, terms) for name, terms in components.items() if terms}


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
        f"{name}_{i}{i}": augs[i - 1].values[name]
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
