"""``augmented_components`` builds each placement by slot products.  The
oracle below is the construction it replaced: every survivor written as
the sum of u g v over pairs of unit words, every other letter replaced by
its augmentation value (zero when the block's augmentation has none), and
the whole word multiplied out with ``tensor_product``.  The two agree on
random DGAs over every algebra kind and ring, at arity at most 3, with a
different random augmentation in each block."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import (
    Augmentation,
    FreeAlgebra,
    GroupRing,
    MatrixAlgebra,
    Q,
    SplitAlgebra,
    TensorElement,
    Z2,
    Zp,
    tensor_product,
)
from ncdga.ainfinity import augmented_components
from ncdga.dga import Generator, SemifreeDGA
from ncdga.tensor import TensorWord

RINGS = {"Z2": Z2, "Z3": Zp(3), "Q": Q}
SCALARS = {
    "Z2": [1],
    "Z3": [1, 2],
    "Q": [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)],
}
ALGEBRAS = {
    "free": lambda ring: FreeAlgebra(("g1", "g2"), ring),
    "group": lambda ring: GroupRing(2, ring),
    "matrix 2": lambda ring: MatrixAlgebra(2, ring),
    "matrix 3": lambda ring: MatrixAlgebra(3, ring),
    "split free": lambda ring: SplitAlgebra(FreeAlgebra(("g1",), ring), 2),
    "split matrix": lambda ring: SplitAlgebra(MatrixAlgebra(2, ring), 2),
}
# mod 2: d(a) has the even words, d(x) the odd ones
ODD, EVEN = ("a1", "a2"), ("x1", "x2", "x3")
GENERATORS = [Generator(g, 1) for g in ODD] + [Generator(g, 0) for g in EVEN]
NAMES = ODD + EVEN


def tensor_product_components(dga, augs, n):
    """The construction that slot products replaced, placement by placement."""
    alg = dga.algebra
    ring = alg.ring
    components = {}
    for name in dga.names:
        terms = components.setdefault(name, {})
        for tw, coeff in dga.d_of_generator(name).terms.items():
            for survivors in itertools.combinations(range(tw.arity), n):
                parts = [alg.element(tw.coeffs[0])]
                block = 0
                for pos, (gen, slot) in enumerate(zip(tw.gens, tw.coeffs[1:])):
                    if block < n and survivors[block] == pos:
                        parts.append(TensorElement.generator(alg, gen))
                        block += 1
                    else:
                        parts.append(augs[block].value(gen))
                    parts.append(alg.element(slot))
                for w, c in tensor_product(parts, alg).terms.items():
                    ring.add_term(terms, w, ring.mul(coeff, c))
    return {name: TensorElement(alg, terms) for name, terms in components.items() if terms}


@st.composite
def instances(draw):
    """(DGA, n, augmentation tuple) with one fresh augmentation per block."""
    ring_name = draw(st.sampled_from(sorted(RINGS)))
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))](RINGS[ring_name])
    words = list(alg.words(2))
    algebra_words = st.sampled_from(words)
    scalars = st.sampled_from(SCALARS[ring_name])
    differential = {name: {} for name in NAMES}
    for _ in range(draw(st.integers(1, 6))):
        arity = draw(st.integers(0, 4))
        gens = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=arity, max_size=arity)))
        coeffs = tuple(draw(st.lists(algebra_words, min_size=arity + 1, max_size=arity + 1)))
        odd = sum(g in ODD for g in gens) % 2
        name = draw(st.sampled_from(EVEN if odd else ODD))
        scalar = alg.ring.coerce(draw(scalars))
        alg.ring.add_term(differential[name], TensorWord(coeffs, gens), scalar)
    dga = SemifreeDGA(
        alg, GENERATORS, {name: TensorElement(alg, t) for name, t in differential.items()}, 2
    )

    def augmentation():
        values = {}
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True)):
            terms = draw(st.lists(st.tuples(algebra_words, scalars), min_size=1, max_size=3))
            values[name] = alg.from_terms(terms)
        return Augmentation(dga, values)

    n = draw(st.integers(0, 3))
    return dga, n, tuple(augmentation() for _ in range(n + 1))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_slot_products_match_the_tensor_product_construction(instance):
    dga, n, augs = instance
    assert augmented_components(dga, augs, n) == tensor_product_components(dga, augs, n)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_trivial_tuple_keeps_the_words_of_the_arity(instance):
    """Over the trivial tuple (the plain operations ``mu_case1`` and
    ``mu_case2``) the components are the words of exactly arity n."""
    dga, n, _augs = instance
    trivial = (Augmentation.trivial(dga),) * (n + 1)
    words = {name: dga.d_component(name, n) for name in dga.names}
    assert augmented_components(dga, trivial, n) == {
        name: value for name, value in words.items() if not value.is_zero()
    }
