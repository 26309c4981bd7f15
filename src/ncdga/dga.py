"""Semifree differential graded algebras over a noncommutative algebra.

The underlying algebra is the tensor algebra of a free bimodule on a
finite, graded generator basis.  A differential is stored by its values
on generators and extended to arbitrary elements by the graded Leibniz
rule with the sign (-1)^(sum of the degrees of the generators passed).
Construction validates degrees and actions; the equation d(d(x)) = 0 is
a separate, reported check so that deliberately broken differentials can
be built and examined.  Differentials never change after construction,
which keeps their generator patterns and their terms split for the splice.

Automorphisms are given by the images of the generators they move.
Applying one (:func:`substitute`, :meth:`SemifreeDGA.invert_substitution`,
:meth:`SemifreeDGA.conjugate`) splices the split images of the moved
letters into each word through the same splice, from right to left, and
copies every other letter with its slots; conjugation rewrites only the
differentials of the moved generators and the words that hold a moved
letter.
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
from .tensor import TensorElement, TensorWord, _splice, split_terms, tensor_product


class Generator(NamedTuple):
    name: str
    degree: int
    action: Fraction | None = None
    link: tuple[int, int] | None = None


class LinkGrading(NamedTuple):
    components: int
    b: dict[str, int]
    e: dict[str, int]


def _expand(x: TensorElement, split: Mapping[str, tuple]) -> TensorElement:
    """x with each letter named in ``split`` replaced by the image whose
    terms are given split (:func:`.tensor.split_terms`).  The images are
    spliced in from the right, so the positions of the letters still to
    replace do not move; every other letter stays with its slots, since
    a (sum of u g v over unit words u, v) b = a g b."""
    alg = x.algebra
    add_term = alg.ring.add_term
    out: dict = {}
    for tw, c in x.terms.items():
        moved = [p for p, gen in enumerate(tw.gens) if gen in split]
        if not moved:
            add_term(out, tw, c)
            continue
        words = {tw: c}
        for p in reversed(moved):
            spliced: dict = {}
            terms = split[tw.gens[p]]
            for w, v in words.items():
                _splice(spliced, w, v, p, terms, alg)
            words = spliced
        for w, v in words.items():
            add_term(out, w, v)
    return TensorElement(alg, out)


def substitute(
    x: TensorElement,
    gen_images: Mapping[str, TensorElement],
    slot_morphism: CoefficientMorphism | None = None,
    target: CoefficientAlgebra | None = None,
) -> TensorElement:
    """Apply the algebra endomorphism determined by generator images;
    every letter of ``x`` needs an image.

    Slots pass through ``slot_morphism`` when given (change of
    coefficients): each word is then multiplied out as the product of its
    slot and letter images.  Without it the images are spliced into the
    unchanged slots.  No signs: degree-preserving algebra morphisms commute
    with the grading.
    """
    if slot_morphism is None and target is None:
        for tw in x.terms:
            for gen in tw.gens:
                if gen_images.get(gen) is None:
                    raise DegreeUnknownError(f"no image for generator {gen}")
        return _expand(x, _split_images(x.algebra, gen_images))
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


def _split_images(algebra: CoefficientAlgebra, images: Mapping[str, TensorElement]) -> dict:
    """The images, over ``algebra``, split for :func:`_expand`."""
    split = {}
    for gen, image in images.items():
        if image is None:
            continue
        if image.algebra != algebra:
            raise AlgebraMismatchError(f"image of {gen} is over the wrong algebra")
        split[gen] = split_terms(image)
    return split


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

    def word_degree(self, gens: Sequence[str]) -> int:
        """The degree of a word with these generators."""
        return self.reduce_degree(sum(self.degree(g) for g in gens))

    def element_degree(self, x: TensorElement) -> int | None:
        """The common degree of all words, or None for the zero element."""
        degrees = {self.word_degree(tw.gens) for tw in x.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise DegreeMismatchError(f"inhomogeneous element of degrees {sorted(degrees)}")
        return degrees.pop()

    def word_action(self, gens: Sequence[str]) -> Fraction:
        """The total action of a word's generators."""
        total = Fraction(0)
        for g in gens:
            a = self._actions[g]
            if a is None:
                raise NoActionsError(f"generator {g} carries no action")
            total += a
        return total

    def _validate(self):
        """Check degrees and actions.  The distinct generator patterns of
        each differential, which the checks read, are kept as
        ``word_patterns`` (the longest is :meth:`max_word_arity`), and its
        terms split for the Leibniz splice (:func:`.tensor.split_terms`)."""
        for g in self.generators:
            if g.action is not None and g.action <= 0:
                raise ActionViolationError(f"action of {g.name} must be positive")
        self.word_patterns: dict[str, tuple[tuple[str, ...], ...]] = {}
        self._split = {name: split_terms(value) for name, value in self.differential.items()}
        for name, value in self.differential.items():
            expected = self.reduce_degree(self.degree(name) - 1)
            # degree and action depend on a word's generators alone, and
            # words over a matrix algebra share them n^(arity + 1) times
            patterns = tuple(dict.fromkeys(tw.gens for tw in value.terms))
            self.word_patterns[name] = patterns
            for gens in patterns:
                degree = self.word_degree(gens)
                if degree != expected:
                    raise DegreeMismatchError(
                        f"d {name}: word of degree {degree}, expected {expected}",
                        generator=name,
                    )
            if self.has_actions:
                bound = self.action(name)
                for gens in patterns:
                    action = self.word_action(gens)
                    if action >= bound:
                        raise ActionViolationError(
                            f"d {name}: word action {action} does not drop below {bound}",
                            generator=name,
                        )
        self._max_word_arity = max(
            (len(gens) for patterns in self.word_patterns.values() for gens in patterns), default=0
        )

    def d_of_generator(self, name: str) -> TensorElement:
        self.degree(name)
        return self.differential.get(name, TensorElement.zero(self.algebra))

    def d_component(self, name: str, n: int) -> TensorElement:
        return self.d_of_generator(name).component(n)

    def max_word_arity(self) -> int:
        return self._max_word_arity

    def sign_parity(self, gens: Iterable[str]) -> int:
        return sum(self.degree(g) for g in gens) % 2

    # -- the differential ----------------------------------------------

    def d(self, x: TensorElement) -> TensorElement:
        """Leibniz extension of the differential to any element."""
        alg = self.algebra
        if x.algebra != alg:
            raise AlgebraMismatchError("element is over the wrong algebra")
        neg = alg.ring.neg
        split, degrees = self._split, self._degrees
        out: dict = {}
        for tw, c in x.terms.items():
            # the Koszul sign of letter p is the parity of the degrees in
            # front of it, carried along the word
            odd = 0
            for p, gen in enumerate(tw.gens):
                degree = degrees.get(gen)
                if degree is None:
                    self.degree(gen)  # raises for an unknown generator
                terms = split.get(gen)
                if terms is not None:
                    _splice(out, tw, neg(c) if odd else c, p, terms, alg)
                odd ^= degree & 1
        return TensorElement(alg, out)

    def d_squared(self) -> dict[str, TensorElement]:
        """d(d(c)) for every generator c."""
        differential, zero = self.differential, TensorElement.zero(self.algebra)
        return {name: self.d(differential.get(name, zero)) for name in self.names}

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
        """Transport the DGA along a unital algebra morphism on coefficients.

        The word a0 c1 a1 ... cn an with coefficient c moves to the sum,
        over one term (wj, vj) of the image of each aj, of c * v0 ... vn
        at the word w0 c1 w1 ... cn wn.  That is the image of the word with
        each generator written as the sum of u cj v over pairs of the
        target's unit words: every basis word of every algebra here has
        exactly one left and one right unit word, and the unit words are
        orthogonal idempotents summing to 1, so u w v is either w or 0."""
        if morphism.source != self.algebra:
            raise AlgebraMismatchError("morphism source is not the coefficient algebra")
        target = morphism.target
        ring = target.ring
        apply_word = morphism.apply_word
        differential = {}
        for name, value in self.differential.items():
            out: dict = {}
            for tw, c in value.terms.items():
                c = ring.coerce(c)
                images = [apply_word(a).terms.items() for a in tw.coeffs]
                for choice in itertools.product(*images):
                    v = c
                    for _w, x in choice:
                        v = ring.mul(v, x)
                    ring.add_term(out, TensorWord(tuple(w for w, _x in choice), tw.gens), v)
            differential[name] = TensorElement(target, out)
        return SemifreeDGA(target, self.generators, differential, self.modulus)

    def _endomorphism(self, images: Mapping[str, TensorElement]) -> dict[str, TensorElement]:
        """The images of the generators the map moves, checked: each names
        a generator, and each nonzero image has its generator's degree.  An
        image that is its generator moves nothing and is left out."""
        moved = {}
        for name, image in images.items():
            generator = self.generator(name)  # raises for an unknown generator
            if image is None or image == generator:
                continue
            deg = self.element_degree(image)
            if deg is not None and deg != self.degree(name):
                raise DegreeMismatchError(f"image of {name} is not degree-preserving")
            moved[name] = image
        return moved

    def _inverse(self, phi: Mapping[str, TensorElement]) -> dict[str, TensorElement]:
        """The inverse images of the generators that ``phi`` (from
        :meth:`_endomorphism`) moves; every other generator is its own.

        The inverse image of a moved c is the fixpoint of
        c -> c - (phi(c) - c)(inverse), iterated on the moved generators
        only.  Both compositions are then checked on every generator."""
        alg = self.algebra
        offsets = {name: image - self.generator(name) for name, image in phi.items()}
        inverse = {name: self.generator(name) for name in phi}
        for _ in range(len(self.names) + 2):
            split = _split_images(alg, inverse)
            updated = {
                name: self.generator(name) - _expand(offset, split)
                for name, offset in offsets.items()
            }
            if updated == inverse:
                break
            inverse = updated
        forward, backward = _split_images(alg, phi), _split_images(alg, inverse)
        for name in self.names:
            generator = self.generator(name)
            if _expand(phi.get(name, generator), backward) != generator or _expand(
                inverse.get(name, generator), forward
            ) != generator:
                raise NotInvertibleError(f"substitution is not invertible at {name}")
        return inverse

    def invert_substitution(
        self, images: Mapping[str, TensorElement]
    ) -> dict[str, TensorElement]:
        """Inverse of a substitution c -> c + (other terms), as the images
        of every generator, found by fixpoint iteration on the generators it
        moves; raises when the iteration does not give a two-sided inverse."""
        inverse = self._inverse(self._endomorphism(images))
        return {
            name: inverse[name] if name in inverse else self.generator(name)
            for name in self.names
        }

    def conjugate(self, images: Mapping[str, TensorElement]) -> "SemifreeDGA":
        """The DGA with differential phi^-1 o d o phi for the degree-preserving
        automorphism phi determined by the generator images (a generator
        without an image is fixed).  A fixed generator's new differential
        is its own differential pushed through phi^-1, so only the letters
        phi moves are rewritten."""
        phi = self._endomorphism(images)
        split = _split_images(self.algebra, self._inverse(phi))
        zero = TensorElement.zero(self.algebra)
        differential = {
            name: _expand(
                self.d(phi[name]) if name in phi else self.differential.get(name, zero), split
            )
            for name in self.names
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


def _copy_name(name: str, i: int, j: int, n: int) -> str:
    """The name of the copy c_ij of ``name`` in the n-copy: name_ij while
    n <= 10, where the indices can be read back (only 10 has two digits),
    and name_i_j from n = 11 on, where name_111 would be both (1, 11) and
    (11, 1)."""
    return f"{name}_{i}{j}" if n <= 10 else f"{name}_{i}_{j}"


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
        Generator(_copy_name(g.name, i, j, n), g.degree, g.action, (i, j))
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
                            _copy_name(g, labels[k], labels[k + 1], n)
                            for k, g in enumerate(tw.gens)
                        )
                        terms[TensorWord(tw.coeffs, gens)] = c
                if terms:
                    differential[_copy_name(name, i, j, n)] = TensorElement(dga.algebra, terms)
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
                copy = _copy_name(name, i, j, n)
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
