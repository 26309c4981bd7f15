"""Augmentations of a semifree DGA and the developing construction."""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .algebra import AlgebraElement, CoefficientMorphism
from .dga import LinkGrading, SemifreeDGA, ncopy, substitute
from .errors import (
    AlgebraMismatchError,
    InvalidAugmentationError,
    InvalidDGAError,
    NcdgaError,
    TargetMismatchError,
)
from .report import Report
from .tensor import DualElement, TensorElement


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
        """Change coefficients to the target and conjugate by m -> m + eps(m);
        the developed differential has no constant part."""
        check = self.check()
        if not check.ok:
            raise InvalidAugmentationError(str(check))
        base = (
            self.dga
            if self.morphism.is_identity
            else self.dga.change_coefficients(self.morphism)
        )
        images = {
            name: base.generator(name)
            + TensorElement.from_algebra(self.value(name))
            for name in base.names
        }
        differential = {
            name: substitute(base.d_of_generator(name), images) for name in base.names
        }
        developed = SemifreeDGA(base.algebra, base.generators, differential, base.modulus)
        for name in developed.names:
            constant = developed.d_of_generator(name).constant_part()
            if not constant.is_zero():
                raise InvalidDGAError(f"developed differential has constant part at {name}")
        return developed

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


def push_to_target(aug: Augmentation, developed_base: SemifreeDGA) -> Augmentation:
    """Reinterpret an augmentation over the target coefficients, for use on
    a DGA already obtained by the matching change of coefficients."""
    if developed_base.algebra != aug.target:
        raise TargetMismatchError("DGA is not over the augmentation target")
    return Augmentation(developed_base, dict(aug.values))


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
