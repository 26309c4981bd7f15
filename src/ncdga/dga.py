"""Semifree differential graded algebras over a noncommutative algebra.

The underlying algebra is the tensor algebra of a free bimodule on a
finite, graded generator basis.  A differential is stored by its values
on generators and extended to arbitrary elements by the graded Leibniz
rule with the sign (-1)^(sum of the degrees of the generators passed).
Construction validates degrees and actions; the equation d(d(x)) = 0 is
a separate, reported check so that deliberately broken differentials can
be built and examined.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import CoefficientAlgebra, CoefficientMorphism
from .errors import (
    ActionViolationError,
    AlgebraMismatchError,
    DegreeMismatchError,
    DegreeUnknownError,
    InvalidDGAError,
    InvalidLinkGradingError,
    NcdgaError,
    NoActionsError,
    NotInvertibleError,
)
from .report import Report
from .tensor import TensorElement, TensorWord, _splice, tensor_product


class Generator(NamedTuple):
    name: str
    degree: int
    action: Fraction | None = None
    link: tuple[int, int] | None = None


class LinkGrading(NamedTuple):
    components: int
    b: dict[str, int]
    e: dict[str, int]


def substitute(
    x: TensorElement,
    gen_images: Mapping[str, TensorElement],
    slot_morphism: CoefficientMorphism | None = None,
    target: CoefficientAlgebra | None = None,
) -> TensorElement:
    """Apply the algebra endomorphism determined by generator images.

    Slots pass through ``slot_morphism`` when given (change of
    coefficients), otherwise unchanged.  No signs: degree-preserving
    algebra morphisms commute with the grading.
    """
    alg = target if target is not None else x.algebra
    ring = alg.ring
    slot = slot_morphism.apply_word if slot_morphism else x.algebra.element
    out: dict = {}
    for tw, c in x.terms.items():
        factors: list = [slot(tw.coeffs[0])]
        for gen, word in zip(tw.gens, tw.coeffs[1:]):
            image = gen_images.get(gen)
            if image is None:
                raise DegreeUnknownError(f"no image for generator {gen}")
            factors += [image, slot(word)]
        c = ring.coerce(c)
        for w, v in tensor_product(factors, alg).terms.items():
            ring.add_term(out, w, ring.mul(c, v))
    return TensorElement(alg, out)


class SemifreeDGA:
    def __init__(
        self,
        algebra: CoefficientAlgebra,
        generators: Sequence[Generator],
        differential: Mapping[str, TensorElement],
        modulus: int = 0,
    ):
        """``modulus`` is the grading modulus 2*mu; zero means Z-graded."""
        if modulus < 0 or modulus % 2:
            raise NcdgaError("grading modulus must be an even nonnegative integer")
        self.algebra = algebra
        self.modulus = modulus
        self.generators = tuple(
            Generator(
                g.name,
                self.reduce_degree(g.degree),
                None if g.action is None else Fraction(g.action),
                g.link,
            )
            for g in generators
        )
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise NcdgaError("duplicate generator names")
        clashes = set(names) & set(algebra.symbols())
        if clashes:
            raise NcdgaError(f"generator names shadow algebra symbols: {sorted(clashes)}")
        self.names = tuple(names)
        self._degrees = {g.name: g.degree for g in self.generators}
        self._actions = {g.name: g.action for g in self.generators}
        self.differential = {}
        for name, value in differential.items():
            if name not in self._degrees:
                raise DegreeUnknownError(f"differential assigned to unknown generator {name}")
            if value.algebra != algebra:
                raise AlgebraMismatchError(f"differential of {name} is over the wrong algebra")
            if not value.is_zero():
                self.differential[name] = value
        self._validate()

    # -- basic structure ----------------------------------------------

    def reduce_degree(self, d: int) -> int:
        return d % self.modulus if self.modulus else d

    def degree(self, name: str) -> int:
        try:
            return self._degrees[name]
        except KeyError:
            raise DegreeUnknownError(f"unknown generator {name}") from None

    def action(self, name: str) -> Fraction | None:
        return self._actions[name]

    @property
    def has_actions(self) -> bool:
        return all(a is not None for a in self._actions.values()) and bool(self.generators)

    def generator(self, name: str) -> TensorElement:
        if name not in self._degrees:
            raise DegreeUnknownError(f"unknown generator {name}")
        return TensorElement.generator(self.algebra, name)

    def word_degree(self, tw: TensorWord) -> int:
        return self.reduce_degree(sum(self.degree(g) for g in tw.gens))

    def element_degree(self, x: TensorElement) -> int | None:
        """The common degree of all words, or None for the zero element."""
        degrees = {self.word_degree(tw) for tw in x.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise DegreeMismatchError(f"inhomogeneous element of degrees {sorted(degrees)}")
        return degrees.pop()

    def word_action(self, tw: TensorWord) -> Fraction:
        total = Fraction(0)
        for g in tw.gens:
            a = self._actions[g]
            if a is None:
                raise NoActionsError(f"generator {g} carries no action")
            total += a
        return total

    def _validate(self):
        for g in self.generators:
            if g.action is not None and g.action <= 0:
                raise ActionViolationError(f"action of {g.name} must be positive")
        for name, value in self.differential.items():
            expected = self.reduce_degree(self.degree(name) - 1)
            for tw in value.terms:
                for g in tw.gens:
                    self.degree(g)
                if self.word_degree(tw) != expected:
                    raise DegreeMismatchError(
                        f"d {name}: word of degree {self.word_degree(tw)},"
                        f" expected {expected}",
                        generator=name,
                    )
            if self.has_actions:
                bound = self.action(name)
                for tw in value.terms:
                    if self.word_action(tw) >= bound:
                        raise ActionViolationError(
                            f"d {name}: word action {self.word_action(tw)}"
                            f" does not drop below {bound}",
                            generator=name,
                        )

    def d_of_generator(self, name: str) -> TensorElement:
        self.degree(name)
        return self.differential.get(name, TensorElement.zero(self.algebra))

    def d_component(self, name: str, n: int) -> TensorElement:
        return self.d_of_generator(name).component(n)

    def max_word_arity(self) -> int:
        return max((v.max_arity() for v in self.differential.values()), default=0)

    def sign_parity(self, gens: Iterable[str]) -> int:
        return sum(self.degree(g) for g in gens) % 2

    # -- the differential ----------------------------------------------

    def d(self, x: TensorElement) -> TensorElement:
        """Leibniz extension of the differential to any element."""
        if x.algebra != self.algebra:
            raise AlgebraMismatchError("element is over the wrong algebra")
        ring = self.algebra.ring
        out: dict = {}
        for tw, c in x.terms.items():
            for p in range(tw.arity):
                value = self.differential.get(tw.gens[p])
                if value is None:
                    self.degree(tw.gens[p])
                    continue
                coeff = ring.neg(c) if self.sign_parity(tw.gens[:p]) else c
                _splice(out, tw, coeff, p, value)
        return TensorElement(self.algebra, out)

    def d_squared(self) -> dict[str, TensorElement]:
        """d(d(c)) for every generator c."""
        return {name: self.d(self.d_of_generator(name)) for name in self.names}

    def check_d_squared(self) -> Report:
        report = Report("d^2 = 0")
        for name, residual in self.d_squared().items():
            ok = residual.is_zero()
            report.record(ok, "" if ok else f"d^2({name}) = {residual}")
        return report

    def check_component_relations(self, n: int) -> Report:
        """The arity-n component identity equivalent to d^2 = 0:
        sum over k + l - 1 = n of (sigma^i x d_l x id) o d_k vanishes.
        That sum is the arity-n part of d^2, since the Leibniz d splices
        every d_l into every letter of every word of d_k."""
        report = Report(f"component relation at arity {n}")
        for name, square in self.d_squared().items():
            residual = square.component(n)
            ok = residual.is_zero()
            report.record(ok, "" if ok else f"relation fails at {name}: {residual}")
        return report

    # -- constructions -------------------------------------------------

    def change_coefficients(self, morphism: CoefficientMorphism) -> "SemifreeDGA":
        """Transport the DGA along a unital algebra morphism on coefficients."""
        if morphism.source != self.algebra:
            raise AlgebraMismatchError("morphism source is not the coefficient algebra")
        target = morphism.target
        images = {name: TensorElement.generator(target, name) for name in self.names}
        differential = {
            name: substitute(value, images, morphism, target)
            for name, value in self.differential.items()
        }
        return SemifreeDGA(target, self.generators, differential, self.modulus)

    def _endomorphism(self, images: Mapping[str, TensorElement]) -> dict[str, TensorElement]:
        full = {}
        for name in self.names:
            image = images.get(name)
            full[name] = image if image is not None else self.generator(name)
            deg = self.element_degree(full[name])
            if deg is not None and deg != self.degree(name):
                raise DegreeMismatchError(f"image of {name} is not degree-preserving")
        return full

    def invert_substitution(
        self, images: Mapping[str, TensorElement]
    ) -> dict[str, TensorElement]:
        """Inverse of a substitution c -> c + (other terms), found by
        fixpoint iteration; raises when the iteration does not close."""
        phi = self._endomorphism(images)
        offsets = {name: phi[name] - self.generator(name) for name in self.names}
        inverse = {name: self.generator(name) for name in self.names}
        for _ in range(len(self.names) + 2):
            updated = {
                name: self.generator(name) - substitute(offsets[name], inverse)
                for name in self.names
            }
            if updated == inverse:
                break
            inverse = updated
        for name in self.names:
            if substitute(phi[name], inverse) != self.generator(name) or substitute(
                inverse[name], phi
            ) != self.generator(name):
                raise NotInvertibleError(f"substitution is not invertible at {name}")
        return inverse

    def conjugate(self, images: Mapping[str, TensorElement]) -> "SemifreeDGA":
        """The DGA with differential phi^-1 o d o phi for the degree-preserving
        automorphism phi determined by the generator images."""
        phi = self._endomorphism(images)
        inverse = self.invert_substitution(phi)
        differential = {
            name: substitute(self.d(phi[name]), inverse) for name in self.names
        }
        return SemifreeDGA(self.algebra, self.generators, differential, self.modulus)

    def mirror(self) -> "SemifreeDGA":
        """Reverse the letters of every differential word (algebra letters
        included, via the coefficient algebra's anti-automorphism)."""
        alg = self.algebra
        differential = {}
        for name, value in self.differential.items():
            terms = {}
            for tw, c in value.terms.items():
                reversed_word = TensorWord(
                    tuple(alg.reverse_word(w) for w in reversed(tw.coeffs)),
                    tuple(reversed(tw.gens)),
                )
                terms[reversed_word] = c
            differential[name] = TensorElement(alg, terms)
        mirrored = SemifreeDGA(alg, self.generators, differential, self.modulus)
        check = mirrored.check_d_squared()
        if not check.ok:
            raise InvalidDGAError(f"mirror differential does not square to zero:\n{check}")
        return mirrored

    def action_subdga(self, bound) -> "SemifreeDGA":
        """Sub-DGA on the generators of action strictly below the bound."""
        if not self.has_actions:
            raise NoActionsError("DGA carries no action filtration")
        bound = Fraction(bound)
        kept = [g for g in self.generators if g.action < bound]
        kept_names = {g.name for g in kept}
        differential = {}
        for name, value in self.differential.items():
            if name not in kept_names:
                continue
            for tw in value.terms:
                if not set(tw.gens) <= kept_names:
                    raise InvalidDGAError(
                        f"d {name} leaves the action-{bound} subalgebra"
                    )
            differential[name] = value
        return SemifreeDGA(self.algebra, kept, differential, self.modulus)

    def rename_generators(self, mapping: Mapping[str, str]) -> "SemifreeDGA":
        generators = [
            Generator(mapping.get(g.name, g.name), g.degree, g.action, g.link)
            for g in self.generators
        ]
        differential = {}
        for name, value in self.differential.items():
            terms = {
                TensorWord(tw.coeffs, tuple(mapping.get(g, g) for g in tw.gens)): c
                for tw, c in value.terms.items()
            }
            differential[mapping.get(name, name)] = TensorElement(self.algebra, terms)
        return SemifreeDGA(self.algebra, generators, differential, self.modulus)

    def link_grading(self) -> LinkGrading | None:
        if any(g.link is None for g in self.generators) or not self.generators:
            return None
        b = {g.name: g.link[0] for g in self.generators}
        e = {g.name: g.link[1] for g in self.generators}
        m = max(max(b.values()), max(e.values()))
        return LinkGrading(m, b, e)

    def __eq__(self, other):
        return (
            isinstance(other, SemifreeDGA)
            and self.algebra == other.algebra
            and self.modulus == other.modulus
            and self.generators == other.generators
            and self.differential == other.differential
        )

    def __repr__(self):
        return (
            f"<SemifreeDGA over {self.algebra} with {len(self.generators)} generators>"
        )


# -- free n-copies ------------------------------------------------------


def _copy_name(name: str, i: int, j: int) -> str:
    return f"{name}_{i}{j}"


def ncopy(dga: SemifreeDGA, n: int) -> tuple[SemifreeDGA, LinkGrading]:
    """The free n-copy DGA: n^2 labelled copies c_ij of every generator.

    The differential distributes component labels along composable
    staircases: the word a0 d1 a1 ... dm am of d(c) contributes its copy
    with labels (t0 t1)(t1 t2)...(t_{m-1} tm) to d(c_ij) exactly when
    t0 = i and tm = j.  Constant terms survive only on the diagonal.
    """
    if n < 1:
        raise NcdgaError("n-copy needs n >= 1")
    generators = [
        Generator(_copy_name(g.name, i, j), g.degree, g.action, (i, j))
        for g in dga.generators
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    differential: dict[str, TensorElement] = {}
    for name, value in dga.differential.items():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                terms: dict[TensorWord, object] = {}
                for tw, c in value.terms.items():
                    m = tw.arity
                    if m == 0:
                        if i == j:
                            terms[tw] = c
                        continue
                    for middle in itertools.product(range(1, n + 1), repeat=m - 1):
                        labels = (i,) + middle + (j,)
                        gens = tuple(
                            _copy_name(g, labels[k], labels[k + 1])
                            for k, g in enumerate(tw.gens)
                        )
                        terms[TensorWord(tw.coeffs, gens)] = c
                if terms:
                    differential[_copy_name(name, i, j)] = TensorElement(dga.algebra, terms)
    copied = SemifreeDGA(dga.algebra, generators, differential, dga.modulus)
    grading = copied.link_grading()
    assert grading is not None
    return copied, grading


def ncopy_via_split(dga: SemifreeDGA, n: int) -> SemifreeDGA:
    """Change of coefficients to base x (R e_1 + ... + R e_n); the cross
    check against :func:`ncopy` lives in :func:`ncopy_projection_report`."""
    if n < 1:
        raise NcdgaError("n-copy needs n >= 1")
    return dga.change_coefficients(CoefficientMorphism.split_inclusion(dga.algebra, n))


def ncopy_projection_report(dga: SemifreeDGA, n: int) -> Report:
    """Verify that the projection pi(c_ij) = e_i c e_j intertwines the
    n-copy differential with the split-coefficient differential.

    The comparison happens inside the corner e_i ... e_j, where the image
    of d(c_ij) lives.  Without constant differential terms the corner cut
    changes nothing; with curvature it removes the off-component copies of
    the constant that pi necessarily spreads over every idempotent."""
    copied, _ = ncopy(dga, n)
    split_dga = ncopy_via_split(dga, n)
    split_alg = split_dga.algebra
    morphism = CoefficientMorphism.split_inclusion(dga.algebra, n)

    idempotents = {
        i: TensorElement.from_algebra(
            split_alg.from_terms(((i, w), 1) for w in dga.algebra.unit_words())
        )
        for i in range(1, n + 1)
    }
    pi_images = {}
    corners = {}
    for name in dga.names:
        base = TensorElement.generator(split_alg, name)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                copy = _copy_name(name, i, j)
                pi_images[copy] = idempotents[i] * base * idempotents[j]
                corners[copy] = (i, j)

    report = Report(f"projection intertwines the {n}-copy differentials")
    for name in copied.names:
        i, j = corners[name]
        lhs = substitute(copied.d_of_generator(name), pi_images, morphism, split_alg)
        lhs = idempotents[i] * lhs * idempotents[j]
        rhs = split_dga.d(pi_images[name])
        report.record(lhs == rhs, f"pi(d {name}) != d(pi {name})")
    return report


def check_mixed_filtration(copied: SemifreeDGA, grading: LinkGrading) -> Report:
    """Words in d(c) never contain fewer mixed letters than c itself."""

    def mixed(name: str) -> bool:
        return grading.b[name] != grading.e[name]

    report = Report("mixed-letter filtration")
    for name in copied.names:
        base = 1 if mixed(name) else 0
        for tw in copied.d_of_generator(name).terms:
            count = sum(1 for g in tw.gens if mixed(g))
            report.record(
                count >= base,
                f"d {name}: word with {count} mixed letters below filtration {base}",
            )
    return report


# -- link gradings -------------------------------------------------------


def check_link_grading(dga: SemifreeDGA, grading: LinkGrading) -> Report:
    """Composability of every differential word with the labels: words run
    from b(c) to e(c) through matching intermediate labels, and a mixed
    generator has no constant term."""
    report = Report(f"{grading.components}-component link grading")
    for name in dga.names:
        if name not in grading.b or name not in grading.e:
            report.record(False, f"generator {name} is unlabelled")
            continue
        bc, ec = grading.b[name], grading.e[name]
        for tw in dga.d_of_generator(name).terms:
            if tw.arity == 0:
                report.record(bc == ec, f"mixed generator {name} has a constant term")
                continue
            ok = grading.b[tw.gens[0]] == bc and grading.e[tw.gens[-1]] == ec
            for left, right in zip(tw.gens, tw.gens[1:]):
                ok = ok and grading.e[left] == grading.b[right]
            report.record(ok, f"d {name} contains a non-composable word")
    return report


def restrict_to_components(
    dga: SemifreeDGA, grading: LinkGrading, components: Iterable[int]
) -> SemifreeDGA:
    """Sub-DGA on the generators labelled inside the component subset,
    with the projected differential."""
    check = check_link_grading(dga, grading)
    if not check.ok:
        raise InvalidLinkGradingError(str(check))
    keep = set(components)
    kept = [
        g
        for g in dga.generators
        if grading.b[g.name] in keep and grading.e[g.name] in keep
    ]
    kept_names = {g.name for g in kept}
    differential = {}
    for name, value in dga.differential.items():
        if name not in kept_names:
            continue
        terms = {
            tw: c for tw, c in value.terms.items() if set(tw.gens) <= kept_names
        }
        if terms:
            differential[name] = TensorElement(dga.algebra, terms)
    restricted = SemifreeDGA(dga.algebra, kept, differential, dga.modulus)
    check = restricted.check_d_squared()
    if not check.ok:
        raise InvalidDGAError(f"restricted differential fails d^2 = 0:\n{check}")
    return restricted
