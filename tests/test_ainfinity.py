"""Both operation flavours, their augmented versions and the relations."""

import itertools

import pytest

from ncdga import (
    Augmentation,
    DualElement,
    TensorElement,
    ainfty_residual_case1,
    candidate_patterns,
    curvature,
    mu_case1,
    mu_case2,
    mu_eps_case1,
    mu_eps_case2,
    ncopy_augmentation,
    parse_dga,
    tensor_product,
    verify_ainfty,
)
from ncdga.errors import (
    ArityMismatchError,
    NotHermitianError,
    TargetMismatchError,
    TupleLengthMismatchError,
)


def dual(dga, coeff, gen):
    return DualElement.term(coeff, gen)


def pool_elements(alg):
    """1, g1, g2, g1*g2, g2*g1 in either the free algebra or the group ring."""
    words = [(), (1,), (2,), (1, 2), (2, 1)]
    return [alg.element(w) for w in words]


def test_case1_golden_table(toy):
    alg = toy.algebra
    g2c2 = lambda a: dual(toy, a * alg.element((2,)), "c2")
    for a in pool_elements(alg):
        assert mu_case1(toy, [dual(toy, a, "c3")]) == dual(toy, a, "c1")
        assert mu_case1(toy, [dual(toy, a, "c5")]) == g2c2(a)
        for name in ("c1", "c2", "c4"):
            assert mu_case1(toy, [dual(toy, a, name)]).is_zero()


def test_case1_golden_arity_two(toy):
    alg = toy.algebra
    g1, g2g1 = alg.element((1,)), alg.element((2, 1))
    for a, ap in itertools.product(pool_elements(alg), repeat=2):
        assert mu_case1(toy, [dual(toy, a, "c2"), dual(toy, ap, "c4")]) == dual(
            toy, a * g1 * ap, "c1"
        )
        assert mu_case1(toy, [dual(toy, a, "c5"), dual(toy, ap, "c4")]) == dual(
            toy, a * g2g1 * ap, "c3"
        )
        for cx, cy in itertools.product(toy.names, repeat=2):
            if (cx, cy) in (("c2", "c4"), ("c5", "c4")):
                continue
            assert mu_case1(toy, [dual(toy, a, cx), dual(toy, ap, cy)]).is_zero()


def test_case1_vanishes_beyond_word_length(toy):
    one = toy.algebra.unit()
    for n in (3, 4):
        for pattern in itertools.product(toy.names, repeat=n):
            inputs = [dual(toy, one, g) for g in pattern]
            assert mu_case1(toy, inputs).is_zero()


def test_case2_golden_table(toy_h):
    alg = toy_h.algebra
    c = {n: toy_h.generator(n) for n in toy_h.names}
    assert mu_case2(toy_h, c["c3"]) == c["c1"]
    g2_star = TensorElement.from_algebra(alg.element((2,)).star())
    assert mu_case2(toy_h, c["c5"]) == c["c2"] * g2_star
    for name in ("c1", "c2", "c4"):
        assert mu_case2(toy_h, c[name]).is_zero()


def test_case2_golden_arity_two(toy_h):
    from ncdga import pairing_t

    alg = toy_h.algebra
    c = {n: toy_h.generator(n) for n in toy_h.names}
    g1, g2g1 = alg.element((1,)), alg.element((2, 1))
    for h in pool_elements(alg):
        mid = TensorElement.from_algebra(h)
        assert mu_case2(toy_h, c["c2"] * mid * c["c4"]) == c["c1"].scale(
            pairing_t(h, g1)
        )
        assert mu_case2(toy_h, c["c5"] * mid * c["c4"]) == c["c3"].scale(
            pairing_t(h, g2g1)
        )
        for cx, cy in itertools.product(toy_h.names, repeat=2):
            if (cx, cy) in (("c2", "c4"), ("c5", "c4")):
                continue
            assert mu_case2(toy_h, c[cx] * mid * c[cy]).is_zero()


def test_case2_vanishes_beyond_word_length(toy_h):
    for n in (3, 4):
        for pattern in itertools.product(toy_h.names, repeat=n):
            element = tensor_product(
                [toy_h.generator(g) for g in pattern], toy_h.algebra
            )
            assert mu_case2(toy_h, element).is_zero()


def test_case2_needs_hermitian(toy):
    with pytest.raises(NotHermitianError):
        mu_case2(toy, toy.generator("c3"))
    # the relations of the toy vanish, so no check is evaluated; the run
    # is still refused
    for exhaustive in (False, True):
        with pytest.raises(NotHermitianError):
            verify_ainfty(toy, [Augmentation.trivial(toy)], "II", 2, exhaustive=exhaustive)


def test_case2_bimodule_property(xy_dga, aug_p, m2):
    developed = aug_p.develop()
    triv = Augmentation.trivial(developed)
    units = [m2.element(w) for w in m2.words()]
    x = developed.generator("x")
    for left, right in itertools.product(units, repeat=2):
        lhs = mu_eps_case2(
            developed,
            (triv, triv),
            TensorElement.from_algebra(left) * x * TensorElement.from_algebra(right),
        )
        rhs = (
            TensorElement.from_algebra(left)
            * mu_eps_case2(developed, (triv, triv), x)
            * TensorElement.from_algebra(right)
        )
        assert lhs == rhs


def test_mu_eps_trivial_tuple_equals_plain(toy, toy_h):
    triv = Augmentation.trivial(toy)
    one = toy.algebra.unit()
    inputs = [dual(toy, one, "c2"), dual(toy, one, "c4")]
    assert mu_eps_case1(toy, (triv, triv, triv), inputs) == mu_case1(toy, inputs)

    trivh = Augmentation.trivial(toy_h)
    element = tensor_product([toy_h.generator("c5"), toy_h.generator("c4")])
    assert mu_eps_case2(toy_h, (trivh, trivh, trivh), element) == mu_case2(
        toy_h, element
    )


def test_mu_eps_single_tuple_equals_developed(toy_h, toy_h_augmentations):
    _, eps, _ = toy_h_augmentations
    developed = eps.develop()
    one = toy_h.algebra.unit()
    for pattern in itertools.product(toy_h.names, repeat=2):
        inputs = [dual(toy_h, one, g) for g in pattern]
        lhs = mu_eps_case1(toy_h, (eps, eps, eps), inputs)
        rhs = mu_case1(developed, inputs)
        assert lhs == rhs
    for name in toy_h.names:
        lhs = mu_eps_case1(toy_h, (eps, eps), [dual(toy_h, one, name)])
        rhs = mu_case1(developed, [dual(toy_h, one, name)])
        assert lhs == rhs
    element = tensor_product([toy_h.generator("c2"), toy_h.generator("c4")])
    assert mu_eps_case2(toy_h, (eps, eps, eps), element) == mu_case2(
        developed, element
    )


def test_interleaved_block_contribution():
    """One augmented slot on each side of the inputs picks up the expected
    coefficient from a long differential word."""
    src = (
        "ring Z2\nalgebra free g1 g2\ngrading mod 0\n"
        "gen d0 deg 3\n"
        "gen d1 deg 0\ngen d2 deg 1\ngen d3 deg 0\ngen d4 deg 1\ngen d5 deg 0\n"
        "d d0 = g1*d1*g2*d2*d3*g1*d4*d5*g2\n"
    )
    dga = parse_dga(src)
    assert dga.check_d_squared().ok
    alg = dga.algebra
    g1, g2 = alg.element((1,)), alg.element((2,))
    eps0 = Augmentation(dga, {"d1": g2})
    eps1 = Augmentation(dga, {"d3": g1})
    eps2 = Augmentation(dga, {"d5": g1 * g1})
    for eps in (eps0, eps1, eps2):
        assert eps.check().ok
    x, y = alg.element((1, 2)), alg.unit()
    value = mu_eps_case1(
        dga, (eps0, eps1, eps2), [dual(dga, x, "d2"), dual(dga, y, "d4")]
    )
    expected = g1 * g2 * g2 * x * g1 * g1 * y * g1 * g1 * g2
    assert value == dual(dga, expected, "d0")


def test_mixed_tuple_reduces_to_diagonal_on_copies(toy_h, toy_h_augmentations):
    """The two-input operation for a mixed tuple equals the diagonal-tuple
    operation on the three-copy staircase decoration."""
    e0, e1, e2 = toy_h_augmentations
    copied, grading, diag = ncopy_augmentation([e0, e1, e2], toy_h)
    alg = toy_h.algebra
    for a1, a2 in itertools.product(pool_elements(alg)[:3], repeat=2):
        for d1, d2 in itertools.product(toy_h.names, repeat=2):
            base_value = mu_eps_case1(
                toy_h, (e0, e1, e2), [dual(toy_h, a1, d1), dual(toy_h, a2, d2)]
            )
            copy_value = mu_eps_case1(
                copied,
                (diag, diag, diag),
                [dual(copied, a1, f"{d1}_12"), dual(copied, a2, f"{d2}_23")],
            )
            identified = DualElement(
                alg,
                {
                    name.rsplit("_", 1)[0]: value
                    for name, value in copy_value.terms.items()
                },
            )
            assert identified == base_value
            for name in copy_value.terms:
                assert name.endswith("_13")


def test_tuple_validation(toy, toy_h, aug_p):
    triv = Augmentation.trivial(toy)
    with pytest.raises(TupleLengthMismatchError):
        mu_eps_case1(toy, (triv,), [dual(toy, toy.algebra.unit(), "c3")])
    with pytest.raises(TargetMismatchError):
        mu_eps_case1(
            toy_h,
            (Augmentation.trivial(toy_h), aug_p),
            [dual(toy_h, toy_h.algebra.unit(), "c3")],
        )


def test_curvature_reads_constant_parts(xy_dga):
    kappa = curvature(xy_dga)
    assert set(kappa.terms) == {"a"}
    assert kappa.terms["a"] == xy_dga.algebra.unit()


def test_verify_ainfty_trivial(toy, toy_h):
    assert verify_ainfty(toy, [Augmentation.trivial(toy)], "I", 4).ok
    trivh = Augmentation.trivial(toy_h)
    assert verify_ainfty(toy_h, [trivh], "I", 4).ok
    assert verify_ainfty(toy_h, [trivh], "II", 4).ok


def test_candidates_cover_exhaustive(toy, toy_h):
    """The pruned report must agree with full enumeration at low arity."""
    triv = Augmentation.trivial(toy)
    pruned = verify_ainfty(toy, [triv], "I", 2)
    full = verify_ainfty(toy, [triv], "I", 2, exhaustive=True)
    assert pruned.ok and full.ok
    trivh = Augmentation.trivial(toy_h)
    assert verify_ainfty(toy_h, [trivh], "II", 2, exhaustive=True).ok

    # every term of the relation vanishes on patterns outside the candidates
    one = toy.algebra.unit()
    for n in (1, 2, 3):
        eps = tuple([triv] * (n + 1))
        candidates = set(candidate_patterns(toy, eps, n))
        for pattern in itertools.product(toy.names, repeat=n):
            if pattern in candidates:
                continue
            inputs = [dual(toy, one, g) for g in pattern]
            for l in range(1, n + 1):
                for i in range(1, n + 1 - l + 1):
                    inner = mu_eps_case1(
                        toy, eps[i - 1 : i + l], inputs[i - 1 : i - 1 + l]
                    )
                    if inner.is_zero():
                        continue
                    outer = mu_eps_case1(
                        toy,
                        eps[:i] + eps[i + l - 1 :],
                        inputs[: i - 1] + [inner] + inputs[i - 1 + l :],
                    )
                    assert outer.is_zero()


def test_verify_ainfty_detects_broken_relations(toy, toy_h):
    from ncdga.dga import SemifreeDGA

    def without_c3(dga):
        differential = {k: v for k, v in dga.differential.items() if k != "c3"}
        return SemifreeDGA(dga.algebra, dga.generators, differential, dga.modulus)

    broken = without_c3(toy)
    assert not broken.check_d_squared().ok
    report = verify_ainfty(broken, [Augmentation.trivial(broken)], "I", 2)
    assert not report.ok
    # passing checks format no message, a failing one names its inputs
    # and the residual
    assert (report.checks, len(report.violations)) == (16, 16)
    assert report.violations[0] == "arity 2, inputs c5, c4: residual g2*g1*c1"
    broken_h = without_c3(toy_h)
    report = verify_ainfty(broken_h, [Augmentation.trivial(broken_h)], "II", 2)
    assert report.checks == 4
    assert report.violations == ["arity 2, inputs c5*g2*g1 (x) c4: residual c1"]


def test_verify_ainfty_q_signs(q_corpus):
    triv = Augmentation.trivial(q_corpus)
    assert verify_ainfty(q_corpus, [triv], "I", 4).ok
    assert verify_ainfty(q_corpus, [triv], "I", 2, exhaustive=True).ok


def test_verify_ainfty_q_with_augmentation(q_corpus_augmented):
    shifted, eps = q_corpus_augmented
    triv = Augmentation.trivial(shifted)
    assert verify_ainfty(shifted, [eps, triv], "I", 4).ok
    assert verify_ainfty(shifted, [eps], "I", 4).ok


def test_residual_signs_need_rational_coefficients(q_corpus):
    """Flipping one relation sign breaks exactness over Q, so a residual
    computed with the wrong sign is caught (chararacteristic-2 collapse
    would hide it)."""
    triv = Augmentation.trivial(q_corpus)
    eps = (triv, triv, triv)
    found_nonzero = False
    for pattern in candidate_patterns(q_corpus, eps, 2):
        inputs = [dual(q_corpus, q_corpus.algebra.unit(), g) for g in pattern]
        residual = ainfty_residual_case1(q_corpus, eps, inputs)
        assert residual.is_zero()
        # recompute with the sign dropped: sum instead of signed sum
        unsigned = DualElement.zero(q_corpus.algebra)
        n = 2
        for l in (1, 2):
            k = n + 1 - l
            for i in range(1, k + 1):
                inner = mu_eps_case1(
                    q_corpus, eps[i - 1 : i + l], inputs[i - 1 : i - 1 + l]
                )
                if inner.is_zero():
                    continue
                unsigned = unsigned + mu_eps_case1(
                    q_corpus,
                    eps[:i] + eps[i + l - 1 :],
                    inputs[: i - 1] + [inner] + inputs[i - 1 + l :],
                )
        if not unsigned.is_zero():
            found_nonzero = True
    assert found_nonzero


def test_output_degree_convention(toy):
    """Suspended degrees: |mu_n| = sum of inputs + 2 - n."""
    alg = toy.algebra
    one = alg.unit()

    def susp(name):
        return toy.degree(name) + 1

    out = mu_case1(toy, [dual(toy, one, "c3")])
    assert set(out.terms) == {"c1"} and susp("c1") == susp("c3") + 1
    out = mu_case1(toy, [dual(toy, one, "c2"), dual(toy, one, "c4")])
    assert set(out.terms) == {"c1"} and susp("c1") == susp("c2") + susp("c4")


def test_arity_zero_rejected(toy):
    with pytest.raises(ArityMismatchError):
        mu_case1(toy, [])


def test_operations_refuse_augmentations_outside_the_coefficients(xy_dga, aug_p):
    """The components read any shared coefficient morphism; the operations
    and their relations still need augmentations into the coefficients."""
    message = "operations need augmentations into the coefficient algebra; change coefficients first"
    x = TensorElement.generator(xy_dga.algebra, "x")
    beta = DualElement.term(xy_dga.algebra.unit(), "x")
    calls = [
        lambda: mu_eps_case1(xy_dga, [aug_p, aug_p], [beta]),
        lambda: mu_eps_case2(xy_dga, [aug_p, aug_p], x),
        lambda: ainfty_residual_case1(xy_dga, [aug_p, aug_p], [beta]),
        lambda: verify_ainfty(xy_dga, [aug_p], "I", 2),
    ]
    for call in calls:
        with pytest.raises(TargetMismatchError) as info:
            call()
        assert str(info.value) == message
