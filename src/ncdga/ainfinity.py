"""The A-infinity operations attached to a semifree DGA and its
augmentations, in two flavours, plus machine verification of the
associativity relations.

Case I (any unital coefficient algebra): inputs are left-coefficient
functionals b*c, the arity-n operation reads the arity-n words of the
differential and splices the input coefficients into their slots.

Case II (hermitian coefficient algebra): inputs are elements of the free
bimodule itself, and the operation is the adjoint of the arity-n part of
the differential with respect to the trace pairings.

The augmented operations read the eps-augmented arity-n components of the
differential, which :func:`augmented_components` in :mod:`.augmentation`
builds for the operations and the developed DGA alike: every word of
arity at least n, with n of its letters kept as survivors and every other
letter replaced by its augmentation value, the block of a letter being
the number of survivors in front of it.  The sums are finite because the
differential has words of bounded length.  Each placement is built by slot products: the
algebra factors between consecutive survivors multiply into n + 1 slots,
and the placement's terms are the outer product of the slots.  Case I
evaluates the components slot by slot, case II takes their trace-pairing
adjoint.  The plain operations are the augmented ones over the trivial
augmentation.

The operations come from d^eps = phi o d o phi^-1, phi(c) = c + eps(c),
so the arity-n relation is the eps-augmented arity-n part of d^2
(:func:`_relation`): the component builder run on c -> d(d(c)).  Beyond
the usual double sum it has only terms prefix . eps(d z) . suffix, which
vanish as eps o d = 0; the relation checks reject maps that are not
augmentations.  Each check evaluates the relation with the operation's own
evaluator, over the input patterns that could make a term nonzero, so the
report is exact.  One verify call computes d^2 once for all its arities.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .algebra import AlgebraElement
from .augmentation import Augmentation, _check_augmentations, _placements, augmented_components
from .dga import SemifreeDGA
from .errors import (
    ArityMismatchError,
    NcdgaError,
    NotHermitianError,
    TupleLengthMismatchError,
)
from .report import Report
from .tensor import (
    DualElement,
    TensorElement,
    adjoint_formula,
    psi_eval,
    tensor_product,
)


def _evaluate_case1(
    dga: SemifreeDGA, components: Mapping[str, TensorElement], inputs: Sequence[DualElement]
) -> DualElement:
    """Case I: the coefficient of c collects the slotwise evaluation of
    the inputs on the arity-n component of c."""
    if len(inputs) < 1:
        raise ArityMismatchError("mu needs at least one input")
    for beta in inputs:
        if beta.algebra != dga.algebra:
            raise ArityMismatchError("input functional over the wrong algebra")
    return DualElement(
        dga.algebra, {name: psi_eval(inputs, value) for name, value in components.items()}
    )


def _evaluate_case2(
    dga: SemifreeDGA, components: Mapping[str, TensorElement], x: TensorElement
) -> TensorElement:
    """Case II: the trace-pairing adjoint of the (nonzero) components."""
    if not dga.algebra.hermitian:
        raise NotHermitianError(f"{dga.algebra} has no hermitian structure")
    if x.is_zero() or not components:
        return TensorElement.zero(dga.algebra)
    return adjoint_formula(components, 0, 0, x)


def _evaluate(dga: SemifreeDGA, case: str, components: Mapping[str, TensorElement], chains):
    """The operation that reads ``components``, on one chain per input:
    slot by slot on functionals in case I, the adjoint on the tensor
    product of bimodule elements in case II."""
    if case == "I":
        return _evaluate_case1(dga, components, chains)
    return _evaluate_case2(dga, components, tensor_product(chains))


def _case2_arity(dga: SemifreeDGA, x: TensorElement) -> int:
    """The arity of a case II input; 0 for the zero element."""
    if not dga.algebra.hermitian:
        raise NotHermitianError(f"{dga.algebra} has no hermitian structure")
    if x.is_zero():
        return 0
    n = x.arity
    if n < 1:
        raise ArityMismatchError("mu needs arity at least one")
    return n


def mu_case1(dga: SemifreeDGA, inputs: Sequence[DualElement]) -> DualElement:
    """mu_n on functionals: the coefficient of c in the output collects,
    for every arity-n word a0 d1 a1 ... dn an of d(c) whose generators
    match the inputs b1 d1, ..., bn dn, the product a0 b1 a1 ... bn an:
    the augmented operation over the trivial augmentation, which keeps
    exactly the words of arity n."""
    n = len(inputs)
    trivial = (Augmentation.trivial(dga),) * (n + 1)
    return _evaluate_case1(dga, augmented_components(dga, trivial, n), inputs)


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
    """The augmented operation: the eps-augmented arity-n components of
    the differential (see :func:`augmented_components`) evaluated slot by
    slot on the inputs."""
    return _evaluate_case1(dga, augmented_components(dga, augs, len(inputs)), inputs)


def mu_case2(dga: SemifreeDGA, x: TensorElement) -> TensorElement:
    """mu_n as the trace-pairing adjoint of the arity-n differential: the
    augmented operation over the trivial augmentation."""
    n = _case2_arity(dga, x)
    trivial = (Augmentation.trivial(dga),) * (n + 1)
    return _evaluate_case2(dga, augmented_components(dga, trivial, n), x)


def mu_eps_case2(
    dga: SemifreeDGA, augs: Sequence[Augmentation], x: TensorElement
) -> TensorElement:
    """The augmented adjoint operation: the trace-pairing adjoint of the
    eps-augmented arity-n components of the differential (see
    :func:`augmented_components`).  The adjoint is linear in the
    components, so one adjoint of their sum replaces one adjoint per block
    pattern; the bounding-cochain sums are never materialised."""
    n = _case2_arity(dga, x)
    if not n:
        return TensorElement.zero(dga.algebra)
    return _evaluate_case2(dga, augmented_components(dga, augs, n), x)


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


def _pattern_matches(
    dga: SemifreeDGA, augs: Sequence[Augmentation], l: int
) -> set[tuple[tuple[str, ...], str]]:
    """(input pattern, output generator) pairs for which the augmented
    arity-l operation can have a nonzero term: the survivors of every
    placement.  Structural: a product that happens to vanish still
    counts."""
    return {(survivors, name) for name, *_, survivors in _placements(dga, augs, l)}


def _relation(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, square: Mapping | None = None
) -> dict[str, TensorElement]:
    """The arity-n relation: the eps-augmented arity-n components of d^2
    (``square``, computed here after checking the tuple when not given).
    A placement on a word of d^2, a word of d(c) with a letter z replaced
    by a word of d(z), keeps l survivors inside that word of d(z).  For
    l >= 1 these are the outer arity-(n + 1 - l) component with the inner
    arity-l component of z spliced in, signed by the Leibniz rule: the
    usual double sum.  For l = 0 the word of d(z) lies in one block b, and
    summed over d(z) they give prefix . eps_b(d z) . suffix = 0.
    Generators whose relation vanishes are left out."""
    if square is None:
        _check_augmentations(dga, augs, n + 1)
        square = dga.d_squared()
    return augmented_components(dga, augs, n, square)


def candidate_patterns(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, matches: dict | None = None
) -> list[tuple[str, ...]]:
    """Input generator patterns for which some term of the arity-n
    relation can be nonzero: an inner placement's survivors spliced into an
    outer one's at input i, for every split into an inner operation of
    arity l >= 1 at input i of an outer one (the l = 0 terms of d^2 sum to
    eps(d z) = 0, see :func:`_relation`).  Every other pattern vanishes
    term by term.  ``matches`` maps (augmentation tuple, arity) to the
    pattern matches built so far; a caller checking several arities in one
    call passes the same dict to each, so shared matches are built once."""
    eps = tuple(augs)
    built = {} if matches is None else matches
    patterns: set[tuple[str, ...]] = set()
    for l in range(1, n + 1):
        for i in range(1, n + 2 - l):
            keys = (eps[i - 1 : i + l], l), (eps[:i] + eps[i + l - 1 :], n + 1 - l)
            for key in keys:
                if key not in built:
                    built[key] = _pattern_matches(dga, *key)
            by_slot: dict[str, list[tuple[str, ...]]] = {}
            for pat_out, _name in built[keys[1]]:
                by_slot.setdefault(pat_out[i - 1], []).append(pat_out)
            for pat_in, name_in in built[keys[0]]:
                for pat_out in by_slot.get(name_in, ()):
                    patterns.add(pat_out[: i - 1] + pat_in + pat_out[i:])
    return sorted(patterns)


def ainfty_residual_case1(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[DualElement]
) -> DualElement:
    """The arity-n relation on the inputs; zero when the theorem holds.
    Its Leibniz signs are taken word by word, so inhomogeneous inputs are
    extended multilinearly."""
    return _evaluate_case1(dga, _relation(dga, augs, len(inputs)), inputs)


def ainfty_residual_case2(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[TensorElement]
) -> TensorElement:
    return _evaluate_case2(dga, _relation(dga, augs, len(inputs)), tensor_product(inputs))


def verify_ainfty(
    dga: SemifreeDGA,
    objects: Sequence[Augmentation],
    case: str,
    max_arity: int,
    exhaustive: bool = False,
) -> Report:
    """Check the relations at every arity up to ``max_arity``.

    ``objects``, augmentations of ``dga``, supply the tuple, repeated
    cyclically when shorter than max_arity + 1.  Inputs run over candidate
    generator patterns decorated with :func:`default_coeff_pool` (case I:
    pool element times generator; case II: generators joined by pool
    elements).  With ``exhaustive`` every generator pattern is enumerated
    instead, as it is when no arity has a candidate pattern.
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
    pool = default_coeff_pool(alg)
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    joiner = ", " if case == "I" else " (x) "
    _check_augmentations(dga, objects, len(objects))
    square = dga.d_squared()
    matches: dict = {}
    for n in range(1, max_arity + 1):
        eps = tuple(objects[j % len(objects)] for j in range(n + 1))
        relation = _relation(dga, eps, n, square)
        if exhaustive:
            patterns = list(itertools.product(dga.names, repeat=n))
        else:
            patterns = candidate_patterns(dga, eps, n, matches)
        for pattern in patterns:
            for coeffs in itertools.product(pool, repeat=n if case == "I" else n - 1):
                if case == "I":
                    inputs = [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
                else:
                    inputs = [
                        TensorElement.generator(alg, g) * TensorElement.from_algebra(b)
                        for g, b in zip(pattern, coeffs)
                    ] + [TensorElement.generator(alg, pattern[-1])]
                if any(m.is_zero() for m in inputs):
                    continue
                residual = _evaluate(dga, case, relation, inputs)
                if residual.is_zero():
                    report.record(True, "")  # a passing check formats no message
                else:
                    listed = joiner.join(str(m) for m in inputs)
                    report.record(False, f"arity {n}, inputs {listed}: residual {residual}")
    if not exhaustive and not report.checks:
        # no candidate pattern at any arity; a pass with no checks shows
        # nothing, so check every pattern
        return verify_ainfty(dga, objects, case, max_arity, exhaustive=True)
    return report
