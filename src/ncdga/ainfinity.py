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
augmentations.  The checks run over the input patterns that could make a
term nonzero, with the operation's own evaluator, so the report is exact.
Only the checks on the relation's support, the generator patterns of its
words, are evaluated; the others are counted.  Both evaluators keep only
the words whose generators are the inputs' pattern, so a check off the
support has a zero residual term by term.

One verify call builds each piece of structure it reads once, and keeps
none of it past the call: d^2, one relation per arity, the candidate
patterns of every arity from one walk over the distinct words of d^2, and
the live pool, the decorating coefficients whose inputs are nonzero,
which counts the checks of every pattern.  The words are read off the
distinct generator patterns of each differential, which the DGA keeps
from its construction with the terms its Leibniz d splices in; zero
squares are never walked, nor zero images.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .algebra import AlgebraElement
from .augmentation import (
    Augmentation,
    _check_augmentations,
    _check_tuple,
    augmented_components,
)
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
    alg, components: Mapping[str, TensorElement], inputs: Sequence[DualElement]
) -> DualElement:
    """Case I: the coefficient of c collects the slotwise evaluation of
    the inputs on the arity-n component of c, all over ``alg``."""
    if len(inputs) < 1:
        raise ArityMismatchError("mu needs at least one input")
    for beta in inputs:
        if beta.algebra != alg:
            raise ArityMismatchError("input functional over the wrong algebra")
    return DualElement(alg, {name: psi_eval(inputs, value) for name, value in components.items()})


def _evaluate_case2(
    alg, components: Mapping[str, TensorElement], x: TensorElement
) -> TensorElement:
    """Case II: the trace-pairing adjoint of the (nonzero) components."""
    if not alg.hermitian:
        raise NotHermitianError(f"{alg} has no hermitian structure")
    if x.is_zero() or not components:
        return TensorElement.zero(alg)
    return adjoint_formula(components, 0, 0, x)


def _evaluate(alg, case: str, components: Mapping[str, TensorElement], chains):
    """The operation that reads ``components`` (over the algebra ``alg``),
    on one chain per input: slot by slot on functionals in case I, the
    adjoint on the tensor product of bimodule elements in case II."""
    if case == "I":
        return _evaluate_case1(alg, components, chains)
    return _evaluate_case2(alg, components, tensor_product(chains))


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
    return _evaluate_case1(dga.algebra, augmented_components(dga, trivial, n), inputs)


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
    _check_tuple(dga, augs, len(inputs) + 1)
    return _evaluate_case1(dga.algebra, augmented_components(dga, augs, len(inputs)), inputs)


def mu_case2(dga: SemifreeDGA, x: TensorElement) -> TensorElement:
    """mu_n as the trace-pairing adjoint of the arity-n differential: the
    augmented operation over the trivial augmentation."""
    n = _case2_arity(dga, x)
    trivial = (Augmentation.trivial(dga),) * (n + 1)
    return _evaluate_case2(dga.algebra, augmented_components(dga, trivial, n), x)


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
    _check_tuple(dga, augs, n + 1)
    return _evaluate_case2(dga.algebra, augmented_components(dga, augs, n), x)


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


def _candidate_buckets(
    dga: SemifreeDGA, augs: Sequence[Augmentation], max_arity: int
) -> dict[int, set[tuple[str, ...]]]:
    """The candidate patterns of every arity up to ``max_arity``, keyed by
    arity; arity n reads the prefix of length n + 1 of ``augs``.  One walk
    over the distinct words head . w . tail of d^2, w a word of d(z) in
    place of the letter z: a placement keeps a survivor when it takes the
    letter and may skip it only when eps[b] has a value for it, b the
    survivors so far, and counts when it kept a letter of w (the splits
    with inner arity l = 0 sum to eps(d z) = 0, see :func:`_relation`).
    The placements with the same survivors after a letter are one state;
    those kept in d(z) from block b are walked once per (z, b)."""
    values = [eps.values for eps in augs]

    def walk(states, letters, start):
        """The states after ``letters`` from ``states`` in block ``start``."""
        top = max_arity - start
        for letter in letters:
            out = set()
            for s in states:
                b = len(s)
                if b < top:
                    out.add(s + (letter,))
                if letter in values[start + b]:
                    out.add(s)
            states = out
        return states

    patterns = dga.word_patterns
    inner: dict[tuple[str, int], set[tuple[str, ...]]] = {}
    buckets: dict[int, set[tuple[str, ...]]] = {}
    for u in dict.fromkeys(gens for words in patterns.values() for gens in words):
        head = {()}
        for p, z in enumerate(u):
            tail = u[p + 1 :]
            words = patterns.get(z)
            if words:
                spliced = set()
                for h in head:
                    b = len(h)
                    kept = inner.get((z, b))
                    if kept is None:
                        kept = inner[z, b] = set().union(*(walk({()}, w, b) for w in words))
                        kept.discard(())
                    spliced.update(h + t for t in kept)
                for survivors in walk(spliced, tail, 0) if tail else spliced:
                    buckets.setdefault(len(survivors), set()).add(survivors)
            if tail:
                head = walk(head, (z,), 0)
    return buckets


def candidate_patterns(
    dga: SemifreeDGA, augs: Sequence[Augmentation], n: int, buckets: dict | None = None
) -> list[tuple[str, ...]]:
    """Input generator patterns for which some term of the arity-n
    relation can be nonzero, sorted; every other pattern vanishes term by
    term.  ``buckets`` is the walk (:func:`_candidate_buckets`) of a tuple
    that starts with ``augs``, shared by a caller's arities."""
    if buckets is None:
        buckets = _candidate_buckets(dga, augs, n)
    return sorted(buckets.get(n, ()))


def ainfty_residual_case1(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[DualElement]
) -> DualElement:
    """The arity-n relation on the inputs; zero when the theorem holds.
    Its Leibniz signs are taken word by word, so inhomogeneous inputs are
    extended multilinearly."""
    return _evaluate_case1(dga.algebra, _relation(dga, augs, len(inputs)), inputs)


def ainfty_residual_case2(
    dga: SemifreeDGA, augs: Sequence[Augmentation], inputs: Sequence[TensorElement]
) -> TensorElement:
    return _evaluate_case2(dga.algebra, _relation(dga, augs, len(inputs)), tensor_product(inputs))


def _inputs(alg, case: str, pattern: tuple[str, ...], coeffs) -> list:
    """One check's inputs: case I pool element times generator; case II
    generators joined by pool elements."""
    if case == "I":
        return [DualElement.term(b, g) for b, g in zip(coeffs, pattern)]
    return [
        TensorElement.generator(alg, g) * TensorElement.from_algebra(b)
        for g, b in zip(pattern, coeffs)
    ] + [TensorElement.generator(alg, pattern[-1])]


def _live_pool(alg, case: str, generator: str, pool) -> list:
    """The pool elements on which a check's inputs are all nonzero.  Each
    input reads one pool element, so a pool tuple is live exactly when
    each of its elements is, and the live elements are read off the
    one-slot checks on any generator: generators are only labels here."""
    pattern = (generator,) * (1 if case == "I" else 2)
    return [b for b in pool if not any(m.is_zero() for m in _inputs(alg, case, pattern, (b,)))]


# the largest max_arity that verify_ainfty accepts
_MAX_ARITY = 1000


def verify_ainfty(
    dga: SemifreeDGA,
    objects: Sequence[Augmentation],
    case: str,
    max_arity: int,
    exhaustive: bool = False,
) -> Report:
    """Check the relations at every arity up to ``max_arity``.

    ``objects``, augmentations of ``dga``, supply the tuple, repeated
    cyclically to length max_arity + 1.  Inputs run over the candidate
    generator patterns of one walk of it (:func:`_candidate_buckets`),
    decorated with :func:`default_coeff_pool` (case I: pool element times
    generator; case II: generators joined by pool elements).  With
    ``exhaustive`` nothing is walked and every generator pattern is
    checked instead, as it is when no arity has a candidate pattern.  A
    DGA without generators has no inputs, so it is refused rather than
    passed with no checks.  ``max_arity`` runs from 1 to ``_MAX_ARITY``,
    which keeps the check count of a few thousand generators printable.

    Only the patterns in the relation's support, the generators of its
    words, are evaluated, in enumeration order.  The checks on every other
    pattern are counted, not walked: both evaluators keep only the words
    whose generators are the inputs' pattern, so those residuals vanish
    term by term, and each pattern has the same number of live pool
    tuples.  Counts, violations and their order are those of evaluating
    every check.
    """
    if case not in ("I", "II"):
        raise NcdgaError(f"unknown case {case!r}")
    if not objects:
        raise TupleLengthMismatchError("need at least one augmentation")
    if max_arity < 1:
        # every check runs at arity 1 or more; a smaller bound would pass
        # with no checks at all
        raise ArityMismatchError(f"max arity must be at least 1, got {max_arity}")
    if max_arity > _MAX_ARITY:
        # the count of an exhaustive run grows like the generator count to
        # the power max_arity, and past a few thousand digits it cannot be
        # printed
        raise ArityMismatchError(f"max arity must be at most {_MAX_ARITY}, got {max_arity}")
    if not dga.names:
        # every check's inputs are generators, so a run would pass with none
        raise ArityMismatchError("the DGA has no generators, so there are no inputs to check")
    alg = dga.algebra
    report = Report(f"A-infinity relations, case {case}, arity <= {max_arity}")
    _check_augmentations(dga, objects, len(objects))
    if case == "II" and not alg.hermitian:
        # every run checks an arity-1 input, which the case II evaluator
        # rejects; counted checks would not reach it
        raise NotHermitianError(f"{alg} has no hermitian structure")
    live = _live_pool(alg, case, dga.names[0], default_coeff_pool(alg))
    square = dga.d_squared()
    cycled = tuple(objects[j % len(objects)] for j in range(max_arity + 1))
    buckets = {} if exhaustive else _candidate_buckets(dga, cycled, max_arity)
    index = {name: i for i, name in enumerate(dga.names)}

    def every_pattern(support):
        return sorted(support, key=lambda pattern: [index[g] for g in pattern])

    arities = []  # (n, relation, support), kept for the zero-check fallback
    for n in range(1, max_arity + 1):
        eps = cycled[: n + 1]
        relation = _relation(dga, eps, n, square)
        # psi_eval drops every word whose generators differ from the
        # inputs' pattern, and adjoint_formula every word with
        # fw.gens != mid_gens, so a pattern outside the relation's support
        # has a zero residual term by term: its checks pass uncomputed
        support = {tw.gens for value in relation.values() for tw in value.terms}
        if exhaustive:
            evaluated, total = every_pattern(support), len(dga.names) ** n
        else:
            arities.append((n, relation, support))
            candidates = candidate_patterns(dga, eps, n, buckets)
            evaluated = [pattern for pattern in candidates if pattern in support]
            total = len(candidates)
        _check_arity(report, dga, case, live, n, relation, evaluated, total)
    if not exhaustive and not report.checks:
        # no candidate pattern at any arity; a pass with no checks shows
        # nothing, so check every pattern, on the relations already built
        report = Report(report.title)
        for n, relation, support in arities:
            total = len(dga.names) ** n
            _check_arity(report, dga, case, live, n, relation, every_pattern(support), total)
    return report


def _check_arity(
    report: Report,
    dga: SemifreeDGA,
    case: str,
    live: Sequence,
    n: int,
    relation: Mapping[str, TensorElement],
    evaluated: Sequence[tuple[str, ...]],
    total: int,
) -> None:
    """Record the arity-n checks of ``total`` patterns on ``report``, each
    on every tuple of ``live`` pool elements (see :func:`_live_pool`):
    those on ``evaluated``, the patterns in the relation's support, one by
    one and in order; those on the other patterns as a count, since the
    checks on a pattern do not depend on its generators."""
    alg = dga.algebra
    joiner = ", " if case == "I" else " (x) "
    slots = n if case == "I" else n - 1
    report.checks += (total - len(evaluated)) * len(live) ** slots
    for pattern in evaluated:
        for coeffs in itertools.product(live, repeat=slots):
            inputs = _inputs(alg, case, pattern, coeffs)
            residual = _evaluate(alg, case, relation, inputs)
            if residual.is_zero():
                report.record(True, "")  # a passing check formats no message
            else:
                listed = joiner.join(str(m) for m in inputs)
                report.record(False, f"arity {n}, inputs {listed}: residual {residual}")
