"""The two benchmark workloads: seeded input generators, item lists and
output checks.

Every input comes from a finite *bank* of instances per kind.  Instance i
of a kind is generated from the string ``"<workload>/<kind>/<i>"`` alone,
so it is the same on every machine, and its reference digest is recorded
once in ``reference.json``.  The run seed only chooses which bank
instances a run uses and in which order, so every seed is covered by the
recorded references.

A workload is a fixed *pass*: a list of items in a fixed proportion of
kinds.  The timed phase repeats whole passes, so the mix of kinds is the
same in every run, and the latency percentiles land inside the same kind
(the kinds' latencies do not overlap) whatever the number of passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ncdga
from ncdga import cli

BANK = 32


class CheckError(Exception):
    """An item's output breaks an invariant that holds for every input."""


@dataclass
class Item:
    key: str                          # reference key: "<workload>/<kind>/<index>"
    call: Callable[[], object]        # the timed work
    digest: Callable[[object], str]   # raises CheckError on a broken invariant


@dataclass
class Workload:
    name: str
    pass_specs: Callable[[random.Random], list]
    bank_specs: Callable[[], list]    # every spec of the bank
    build: Callable[[list, Path], list]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# -- invertible matrices over Z2 and Q ----------------------------------


def _identity(n: int) -> list[list]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: list[list], b: list[list], p: int) -> list[list]:
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[c % p for c in row] for row in out] if p else out


def invertible_pair(
    rng: random.Random, n: int, ring: str, twist: bool = False
) -> tuple[list[list], list[list]]:
    """(A, A^-1) as exact products of elementary matrices, A = P . D . L . U:
    P a seeded permutation (row swaps), times the swap of the first two rows
    when ``twist`` is set, over Q the scaling
    D = diag(2, 1/2, 2, ...), and L (U) the fixed product of the matrices
    I + E_ij, one for each position below (above) the diagonal.  The seed
    moves rows but never the entries' sizes or signs: with seeded signs or
    entries, sums in the complex cancel or not, and instances then differ
    in cost by a quarter."""
    p = 2 if ring == "Z2" else 0
    factors: list[tuple[list[list], list[list]]] = []
    swaps = [(i, rng.randrange(i + 1)) for i in range(n - 1, 0, -1)]
    for i, j in swaps + ([(0, 1)] if twist else []):
        if j != i:
            swap = _identity(n)
            swap[i][i] = swap[j][j] = 0
            swap[i][j] = swap[j][i] = 1
            factors.append((swap, swap))
    if not p:
        for i in range(n):
            step, inverse = _identity(n), _identity(n)
            step[i][i] = Fraction(2) ** (-1) ** i
            inverse[i][i] = 1 / step[i][i]
            factors.append((step, inverse))
    lower = [(i, j) for i in range(n) for j in range(i)]
    for i, j in lower + [(j, i) for i, j in lower]:
        step, inverse = _identity(n), _identity(n)
        step[i][j], inverse[i][j] = 1, p - 1 if p else -1
        factors.append((step, inverse))
    a, a_inv = _identity(n), _identity(n)
    for step, inverse in factors:
        a = _matmul(a, step, p)
        a_inv = _matmul(inverse, a_inv, p)
    if _matmul(a, a_inv, p) != _identity(n) or _matmul(a_inv, a, p) != _identity(n):
        raise RuntimeError("generated matrix pair is not inverse")
    return a, a_inv


def _matrix_literal(rows: list[list]) -> str:
    return "[" + ",".join("[" + ",".join(str(c) for c in row) + "]" for row in rows) + "]"


# -- the DGA d a = x*y - 1 and its augmentations into matrix algebras ------

XY_GENERATORS = (("a", 1), ("x", 0), ("y", 0))


def xy_dga_text(ring: str) -> str:
    gens = "".join(f"gen {name} deg {deg}\n" for name, deg in XY_GENERATORS)
    return f"ring {ring}\nalgebra free\ngrading mod 0\n{gens}d a = x*y - 1\n"


def xy_aug_text(rng: random.Random, n: int, ring: str, twist: bool = False) -> str:
    """x -> A, y -> A^-1 with A seeded and invertible: eps(x*y - 1) = 0."""
    a, a_inv = invertible_pair(rng, n, ring, twist)
    return (
        f"target matrix {n} over {ring}\n"
        f"x = {_matrix_literal(a)}\ny = {_matrix_literal(a_inv)}\n"
    )


def _validated_dga(text: str):
    dga = ncdga.parse_dga(text)
    if not dga.check_d_squared().ok:
        raise RuntimeError("generated DGA has d^2 != 0")
    return dga


def _validated_aug(aug):
    if not aug.check().ok:
        raise RuntimeError(f"generated augmentation is invalid: {aug!r}")
    return aug


# -- complex-II ------------------------------------------------------------

COMPLEX_KINDS = ("Z2-m2", "Q-m2", "Z2-m3")
# One pass: 12 Z2 and 6 Q items into matrix 2 and two Z2 items into matrix
# 3.  The median lands among the Z2 matrix 2 items, the p75 tail among the
# Q matrix 2 items, and the matrix 3 items take over half of the time.
COMPLEX_PASS = ("Z2-m2", "Q-m2", "Z2-m2", "Z2-m2", "Q-m2", "Z2-m2", "Z2-m3", "Z2-m2", "Q-m2", "Z2-m2") * 2


def _complex_pass(rng: random.Random) -> list:
    draws = {kind: rng.sample(range(BANK), COMPLEX_PASS.count(kind)) for kind in COMPLEX_KINDS}
    return [(kind, draws[kind].pop()) for kind in COMPLEX_PASS]


def _complex_bank() -> list:
    return [(kind, i) for kind in COMPLEX_KINDS for i in range(BANK)]


def _complex_euler(n: int) -> int:
    # cochain degree = generator degree + 1; n^4 basis labels per generator
    return sum((-1) ** (deg + 1) for _name, deg in XY_GENERATORS) * n**4


def _complex_build(specs: list, workdir: Path) -> list:
    dga_paths = {}
    items = []
    for kind, index in specs:
        ring, size = kind.split("-m")
        n = int(size)
        if ring not in dga_paths:
            path = workdir / f"xy-{ring}.dga"
            text = xy_dga_text(ring)
            path.write_text(text, encoding="utf-8")
            dga_paths[ring] = (path, _validated_dga(text))
        dga_path, dga = dga_paths[ring]
        aug_paths = []
        for side in (0, 1):
            # both sides share the seeded permutation and differ by a fixed
            # row swap: pairs whose permutations relate in other ways, or
            # coincide, cost up to a third less, which the seed would pick
            text = xy_aug_text(_rng("complex-II", kind, index), n, ring, twist=bool(side))
            _validated_aug(ncdga.parse_augmentation(text, dga))
            path = workdir / f"{kind}-{index}-{side}.aug"
            path.write_text(text, encoding="utf-8")
            aug_paths.append(str(path))
        argv = ["homology", str(dga_path), "--aug", aug_paths[0], "--aug", aug_paths[1],
                "--case", "II", "--json"]
        items.append(Item(f"complex-II/{kind}/{index}", _cli_call(argv), _complex_digest(n)))
    return items


def _cli_call(argv: list[str]):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _complex_digest(n: int):
    def digest(output) -> str:
        code, text = output
        if code != 0:
            raise CheckError(f"homology exited with {code}")
        payload = json.loads(text)
        euler = sum((-1) ** d["degree"] * d["dimension"] for d in payload["degrees"])
        if euler != _complex_euler(n):
            raise CheckError(f"Euler characteristic {euler}, complex has {_complex_euler(n)}")
        return _sha(text)
    return digest


# -- verify-I --------------------------------------------------------------

# q_corpus-style base: three stabilising pairs plus the sign-sensitive
# c0/s0 pair, whose d(c0) = x1*x2 + s0 puts an odd letter in front of a
# differentiable one.  One coefficient symbol keeps the default pool of
# decorating coefficients at {1, g1}, so an arity-4 check takes ~0.15 s.
Q_BASE = """\
ring Q
algebra free g1
grading mod 0
gen u1 deg 2
gen u4 deg 0
gen c0 deg 4
gen s0 deg 3
gen x2 deg 2
gen y1 deg 1
gen x1 deg 1
gen y0 deg 0
d c0 = x1*x2 + s0
d s0 = -y0*x2 + x1*y1
d x2 = y1
d x1 = y0
"""

# fixed sizes, seeded signs: the sizes of the scalars change the cost of
# the rational arithmetic, and the seed should not
_Q_SCALARS = (Fraction(2), Fraction(1, 2), Fraction(1), Fraction(2))


def _word(dga, *factors):
    parts = [dga.generator(f) if isinstance(f, str) else ncdga.TensorElement.from_algebra(f)
             for f in factors]
    return ncdga.tensor_product(parts, dga.algebra)


def q_style_augmented(rng: random.Random):
    """The base conjugated by u1 -> u1 + c1 x1 g1 x1 + c2 x1 u4 x1, then by
    x2 -> x2 + c3 u1, then by u4 -> u4 + c4, with the augmentation
    eps(u4) = -c4 that the last offset induces; the signs are seeded."""
    base = ncdga.parse_dga(Q_BASE)
    c1, c2, c3, c4 = (rng.choice([1, -1]) * c for c in _Q_SCALARS)
    g1 = base.algebra.element((1,))
    step1 = base.conjugate({"u1": base.generator("u1")
                            + _word(base, "x1", g1, "x1").scale(c1)
                            + _word(base, "x1", "u4", "x1").scale(c2)})
    step2 = step1.conjugate({"x2": step1.generator("x2") + step1.generator("u1").scale(c3)})
    step3 = step2.conjugate({"u4": step2.generator("u4")
                             + ncdga.TensorElement.from_scalar(step2.algebra, c4)})
    if not step3.check_d_squared().ok:
        raise RuntimeError("generated DGA has d^2 != 0")
    eps = ncdga.Augmentation(step3, {"u4": step3.algebra.unit().scale(-c4)})
    return step3, _validated_aug(eps)


# One pass: every q-style instance of the bank at arity <= 4, in an order
# the seed picks, with the exhaustive toy check at arity 3 (8,420 checks)
# in the middle; the toy check takes about a quarter of the pass.  The
# q-style instances cost from 0.10 to 0.16 s each, in clusters, and the
# median of a seeded sample of 22 of them jumped between clusters: by up to
# 15% from seed to seed at the same machine speed.  The median and the p75
# tail land among the q-style items.
def _verify_i_pass(rng: random.Random) -> list:
    order = [("q4", i) for i in rng.sample(range(BANK), BANK)]
    return order[:BANK // 2] + [("toy-ex3", 0)] + order[BANK // 2:]


def _verify_i_bank() -> list:
    return [("q4", i) for i in range(BANK)] + [("toy-ex3", 0)]


def _report_digest(report) -> str:
    if report.checks == 0:
        raise CheckError("report passed with zero checks")
    return f"ok={report.ok} checks={report.checks}"


def _verify_i_build(specs: list, workdir: Path) -> list:
    items = []
    for kind, index in specs:
        if kind == "q4":
            dga, aug = q_style_augmented(_rng("verify-I", kind, index))
            call = lambda dga=dga, aug=aug: ncdga.verify_ainfty(dga, [aug], "I", 4)
        else:
            dga = _validated_dga(ncdga.builtin_source("toy"))
            aug = _validated_aug(ncdga.Augmentation.trivial(dga))
            call = lambda dga=dga, aug=aug: ncdga.verify_ainfty(dga, [aug], "I", 3, exhaustive=True)
        items.append(Item(f"verify-I/{kind}/{index}", call, _report_digest))
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("complex-II", _complex_pass, _complex_bank, _complex_build),
        Workload("verify-I", _verify_i_pass, _verify_i_bank, _verify_i_build),
    )
}
