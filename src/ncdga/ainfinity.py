"""The A-infinity operations attached to a semifree DGA and its
augmentations, in two flavours, plus machine verification of the
associativity relations.

Case I (any unital coefficient algebra): inputs are left-coefficient
functionals b*c, the arity-n operation reads the arity-n words of the
differential and splices the input coefficients into their slots.

Case II (hermitian coefficient algebra): inputs are elements of the free
bimodule itself, and the operation is the adjoint of the arity-n part of
the differential with respect to the trace pairings.

The augmented operations interleave blocks of augmentation values between
the inputs; the sums are finite because the differential has words of
bounded length.  Relation checking enumerates, for each splitting of the
relation, the input patterns that could make a term nonzero (every term
needs a word of the differential whose non-augmented letters match the
inputs), so tuples outside that set vanish term by term and the report is
exact without exhausting the full input space.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .algebra import AlgebraElement
from .augmentation import Augmentation
from .dga import SemifreeDGA
from .errors import (
    ArityMismatchError,
    NcdgaError,
    NotHermitianError,
    TargetMismatchError,
    TupleLengthMismatchError,
)
from .report import Report
from .tensor import DualElement, TensorElement, adjoint_formula, tensor_product


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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


def mu_case1(dga: SemifreeDGA, inputs: Sequence[DualElement]) -> DualElement:
    """mu_n on functionals: the coefficient of c in the output collects,
    for every arity-n word a0 d1 a1 ... dn an of d(c) whose generators
    match the inputs b1 d1, ..., bn dn, the product a0 b1 a1 ... bn an."""
    n = len(inputs)
    if n < 1:
        raise ArityMismatchError("mu needs at least one input")
    alg = dga.algebra
    for beta in inputs:
        if beta.algebra != alg:
            raise ArityMismatchError("input functional over the wrong algebra")
    out: dict[str, AlgebraElement] = {}
    for pattern, entries in dga.word_index(n).items():
        values = []
        for j, gen in enumerate(pattern):
            b = inputs[j].terms.get(gen)
            if b is None:
                break
            values.append(b)
        else:
            for name, tw, coeff in entries:
                acc = alg.element(tw.coeffs[0])
                for j, b in enumerate(values):
                    acc = acc * b * alg.element(tw.coeffs[j + 1])
                    if acc.is_zero():
                        break
                if not acc.is_zero():
                    out[name] = out.get(name, alg.zero()) + acc.scale(coeff)
    return DualElement(alg, out)


def curvature(dga: SemifreeDGA) -> DualElement:
    """The arity-zero obstruction: the constant parts of the differential,
    one functional term per generator.  Diagnostic only."""
    return DualElement(
        dga.algebra,
        {name: dga.d_of_generator(name).constant_part() for name in dga.names},
    )


def mu_eps_case1(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[DualElement]
) -> DualElement:
    """The augmented operation: interleave every block pattern of the
    functionals eps_j(c_1) c_1 + ... between the inputs and sum."""
    n = len(inputs)
    _check_tuple(dga, augs, n + 1)
    duals = [aug.dual() for aug in augs]
    total = DualElement.zero(dga.algebra)
    for arity in range(n, dga.max_word_arity() + 1):
        for comp in _compositions(arity - n, n + 1):
            if any(size > 0 and duals[j].is_zero() for j, size in enumerate(comp)):
                continue
            sequence: list[DualElement] = []
            for j in range(n):
                sequence.extend([duals[j]] * comp[j])
                sequence.append(inputs[j])
            sequence.extend([duals[n]] * comp[n])
            total = total + mu_case1(dga, sequence)
    return total


def mu_case2(dga: SemifreeDGA, x: TensorElement) -> TensorElement:
    """mu_n as the trace-pairing adjoint of the arity-n differential."""
    if not dga.algebra.hermitian:
        raise NotHermitianError(f"{dga.algebra} has no hermitian structure")
    if x.is_zero():
        return TensorElement.zero(dga.algebra)
    n = x.arity
    if n < 1:
        raise ArityMismatchError("mu needs arity at least one")
    f_values = {
        name: dga.d_component(name, n)
        for name in dga.names
        if not dga.d_component(name, n).is_zero()
    }
    if not f_values:
        return TensorElement.zero(dga.algebra)
    return adjoint_formula(f_values, 0, 0, x)


def _augmented_word(
    dga: SemifreeDGA, augs: Sequence[Augmentation], tw, comp: tuple[int, ...]
) -> TensorElement | None:
    """Evaluate the augmentation blocks of ``comp`` on a differential word,
    leaving the survivor generators in place; None when a block hits a
    generator the augmentation kills."""
    alg = dga.algebra
    n = len(comp) - 1
    parts: list = [alg.element(tw.coeffs[0])]
    pos = 0
    for j, block in enumerate(comp):
        for _ in range(block):
            value = augs[j].values.get(tw.gens[pos])
            if value is None:
                return None
            parts.append(value)
            parts.append(alg.element(tw.coeffs[pos + 1]))
            pos += 1
        if j < n:
            parts.append(TensorElement.generator(alg, tw.gens[pos]))
            parts.append(alg.element(tw.coeffs[pos + 1]))
            pos += 1
    return tensor_product(parts, alg)


def augmented_components(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int
) -> dict[str, TensorElement]:
    """The eps-augmented arity-n components of the differential: for each
    generator, the sum over every differential word of arity at least n
    and every way of spreading the extra letters into augmentation blocks
    around the n survivors.  ``augs`` has n + 1 entries, one per block.
    Generators whose component vanishes are left out."""
    _check_tuple(dga, augs, n + 1)
    components: dict[str, TensorElement] = {}
    for arity in range(n, dga.max_word_arity() + 1):
        comps = list(_compositions(arity - n, n + 1))
        for name in dga.names:
            di = dga.d_component(name, arity)
            if di.is_zero():
                continue
            value = components.get(name, TensorElement.zero(dga.algebra))
            for comp in comps:
                for tw, coeff in di.terms.items():
                    augmented = _augmented_word(dga, augs, tw, comp)
                    if augmented is not None:
                        value = value + augmented.scale(coeff)
            components[name] = value
    return {name: value for name, value in components.items() if not value.is_zero()}


def mu_eps_case2(
    dga: SemifreeDGA, augs: Sequence[Augmentation], x: TensorElement
) -> TensorElement:
    """The augmented adjoint operation: the trace-pairing adjoint of the
    eps-augmented arity-n components of the differential (see
    :func:`augmented_components`).  The adjoint is linear in the
    components, so one adjoint of their sum replaces one adjoint per block
    pattern; the bounding-cochain sums are never materialised."""
    if not dga.algebra.hermitian:
        raise NotHermitianError(f"{dga.algebra} has no hermitian structure")
    if x.is_zero():
        return TensorElement.zero(dga.algebra)
    n = x.arity
    if n < 1:
        raise ArityMismatchError("mu needs arity at least one")
    components = augmented_components(dga, augs, n)
    if not components:
        return TensorElement.zero(dga.algebra)
    return adjoint_formula(components, 0, 0, x)


# -- relation checking ---------------------------------------------------


def default_coeff_pool(algebra) -> list[AlgebraElement]:
    """Decorating coefficients for relation checking: the unit plus a few
    short words (all matrix units for a matrix algebra).  Operations are
    scalar-linear, so these span every input up to the word lengths the
    differentials can see."""
    kind = algebra.kind
    if kind == "matrix":
        return [algebra.element(w) for w in algebra.words()]
    if kind == "free":
        rank = len(algebra.names)
        pool = [algebra.unit()]
        if rank >= 1:
            pool.append(algebra.element((1,)))
        if rank >= 2:
            pool.append(algebra.element((2,)))
            pool.append(algebra.element((2, 1)))
        return pool
    if kind == "group":
        pool = [algebra.unit()]
        if algebra.rank >= 1:
            pool.extend([algebra.element((1,)), algebra.element((-1,))])
        if algebra.rank >= 2:
            pool.append(algebra.element((2, 1)))
        return pool
    if kind == "split":
        base_pool = default_coeff_pool(algebra.base)
        out = [algebra.unit()]
        for i in range(1, algebra.copies + 1):
            for b in base_pool[:2]:
                out.append(algebra.from_terms(((i, w), c) for w, c in b.terms.items()))
        return out
    return [algebra.unit()]


def _dual_degree(dga: SemifreeDGA, m: DualElement) -> int:
    degrees = {dga.degree(g) for g in m.terms}
    if len(degrees) != 1:
        raise ArityMismatchError("inhomogeneous functional in relation check")
    return degrees.pop()


def _pattern_matches(
    dga: SemifreeDGA, augs: Sequence[Augmentation], l: int
) -> set[tuple[tuple[str, ...], str]]:
    """(input pattern, output generator) pairs for which the augmented
    arity-l operation can have a nonzero term."""
    out: set[tuple[tuple[str, ...], str]] = set()
    for arity in range(l, dga.max_word_arity() + 1):
        comps = list(_compositions(arity - l, l + 1))
        for name in dga.names:
            for tw in dga.d_component(name, arity).terms:
                for comp in comps:
                    pos = 0
                    survivors = []
                    ok = True
                    for j, block in enumerate(comp):
                        for _ in range(block):
                            if tw.gens[pos] not in augs[j].values:
                                ok = False
                                break
                            pos += 1
                        if not ok:
                            break
                        if j < l:
                            survivors.append(tw.gens[pos])
                            pos += 1
                    if ok:
                        out.add((tuple(survivors), name))
    return out


def candidate_patterns(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int
) -> list[tuple[str, ...]]:
    """Input generator patterns for which some term of the arity-n
    relation can be nonzero.  Every other pattern vanishes term by term."""
    eps = tuple(augs)
    patterns: set[tuple[str, ...]] = set()
    for l in range(1, n + 1):
        k = n + 1 - l
        for i in range(1, k + 1):
            inner = _pattern_matches(dga, eps[i - 1 : i + l], l)
            outer = _pattern_matches(dga, eps[:i] + eps[i + l - 1 :], k)
            by_slot: dict[str, list[tuple[str, ...]]] = {}
            for pat_out, _name in outer:
                by_slot.setdefault(pat_out[i - 1], []).append(pat_out)
            for pat_in, name_in in inner:
                for pat_out in by_slot.get(name_in, ()):
                    patterns.add(pat_out[: i - 1] + pat_in + pat_out[i:])
    return sorted(patterns)


def ainfty_residual_case1(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[DualElement]
) -> DualElement:
    """Signed double sum of the arity-n relation; zero when the theorem
    holds.  The sign of a term is the parity of the generator degrees of
    the inputs standing left of the inner operation."""
    n = len(inputs)
    eps = tuple(augs)
    total = DualElement.zero(dga.algebra)
    for l in range(1, n + 1):
        k = n + 1 - l
        for i in range(1, k + 1):
            inner = mu_eps_case1(dga, eps[i - 1 : i + l], inputs[i - 1 : i - 1 + l])
            if inner.is_zero():
                continue
            outer_inputs = list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :])
            outer = mu_eps_case1(dga, eps[:i] + eps[i + l - 1 :], outer_inputs)
            parity = sum(_dual_degree(dga, m) for m in inputs[: i - 1]) % 2
            total = total + (outer.scale(-1) if parity else outer)
    return total


def ainfty_residual_case2(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[TensorElement]
) -> TensorElement:
    n = len(inputs)
    eps = tuple(augs)
    total = TensorElement.zero(dga.algebra)
    for l in range(1, n + 1):
        k = n + 1 - l
        for i in range(1, k + 1):
            inner = mu_eps_case2(
                dga, eps[i - 1 : i + l], tensor_product(inputs[i - 1 : i - 1 + l])
            )
            if inner.is_zero():
                continue
            spliced = tensor_product(
                list(inputs[: i - 1]) + [inner] + list(inputs[i - 1 + l :])
            )
            if spliced.is_zero():
                continue
            outer = mu_eps_case2(dga, eps[:i] + eps[i + l - 1 :], spliced)
            parity = sum(dga.element_degree(m) or 0 for m in inputs[: i - 1]) % 2
            total = total + (outer.scale(-1) if parity else outer)
    return total


def verify_ainfty(
    dga: SemifreeDGA,
    objects: Sequence[Augmentation],
    case: str,
    max_arity: int,
    coeff_pool: Sequence[AlgebraElement] | None = None,
    exhaustive: bool = False,
) -> Report:
    """Check the relations at every arity up to ``max_arity``.

    ``objects`` supplies the augmentation tuple; when shorter than
    max_arity + 1 it is repeated cyclically.  Inputs run over candidate
    generator patterns decorated with ``coeff_pool`` (case I: pool element
    times generator; case II: generators joined by pool elements).  With
    ``exhaustive`` every generator pattern is enumerated instead.
    """
    if case not in ("I", "II"):
        raise NcdgaError(f"unknown case {case!r}")
    if not objects:
        raise TupleLengthMismatchError("need at least one augmentation")
    if max_arity < 1:
        # every check runs at arity 1 or more; a smaller bound would pass
        # with no checks at all
        raise ArityMismatchError(f"max arity must be at least 1, got {max_arity}")
    alg = dga.algebra
    pool = list(coeff_pool) if coeff_pool is not None else default_coeff_pool(alg)
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        _check_tuple(dga, eps, n + 1)
        if exhaustive:
            patterns = list(itertools.product(dga.names, repeat=n))
        else:
            patterns = candidate_patterns(dga, eps, n)
        for pattern in patterns:
            if case == "I":
                for coeffs in itertools.product(pool, repeat=n):
                    inputs = [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
                    if any(m.is_zero() for m in inputs):
                        continue
                    residual = ainfty_residual_case1(dga, eps, inputs)
                    report.record(
                        residual.is_zero(),
                        f"arity {n}, inputs "
                        + ", ".join(str(m) for m in inputs)
                        + f": residual {residual}",
                    )
            else:
                for coeffs in itertools.product(pool, repeat=n - 1):
                    inputs = []
                    for j, g in enumerate(pattern):
                        m = TensorElement.generator(alg, g)
                        if j < n - 1:
                            m = m * TensorElement.from_algebra(coeffs[j])
                        inputs.append(m)
                    if any(m.is_zero() for m in inputs):
                        continue
                    residual = ainfty_residual_case2(dga, eps, inputs)
                    report.record(
                        residual.is_zero(),
                        f"arity {n}, inputs "
                        + " (x) ".join(str(m) for m in inputs)
                        + f": residual {residual}",
                    )
    return report
