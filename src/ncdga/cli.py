"""Command-line driver.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 for usage or parse errors.  All output is deterministic: identical
inputs produce byte-identical reports.

The ``homology`` subcommand prints one line per degree, ``deg dim
representatives``, and with ``--json`` emits an object::

    {"degrees": [{"degree": d, "dimension": k, "representatives": [...]}],
     "total_dimension": n}
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .ainfinity import mu_case1, mu_case2, mu_eps_case1, mu_eps_case2, verify_ainfty
from .augmentation import Augmentation
from .dga import (
    check_link_grading,
    ncopy,
    ncopy_via_split,
    restrict_to_components,
)
from .dsl import (
    builtin_source,
    parse_augmentation,
    parse_coefficient_map,
    parse_dga,
    parse_element,
    print_dga,
)
from .errors import NcdgaError, ParseError
from .homology import bilinearized_complex, homology, product_on_homology
from .report import Report
from .tensor import DualElement


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_dga(path: str):
    return parse_dga(_read(path))


def _load_augs(dga, paths):
    return [parse_augmentation(_read(p), dga) for p in paths]


def _aug_tuple(dga, paths, size: int, message: str):
    """The augmentation tuple of a complex (size 2) or a product (size 3):
    one file stands for every entry, and with none allowed by the option
    the trivial augmentation does."""
    augs = _load_augs(dga, paths) or [Augmentation.trivial(dga)]
    if len(augs) == 1:
        augs = augs * size
    if len(augs) != size:
        raise ParseError(message)
    return augs


def _emit(text: str, out: str | None):
    """Write text to the file named by -o, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _finish(report: Report) -> int:
    print(report)
    return 0 if report.ok else 1


def _parse_subs(dga, pairs):
    subs = {}
    for pair in pairs or []:
        name, _, expr = pair.partition("=")
        if not _:
            raise ParseError(f"--coeff needs name=expr, got {pair!r}")
        subs[name.strip()] = parse_element(expr, dga)
    return subs


def _parse_dual_input(dga, text: str, subs) -> DualElement:
    """Case I inputs have the shape  (algebra expression) * generator,
    or a bare generator c or -c."""
    head, star, gen = text.rpartition("*")
    gen = gen.strip()
    if not star:
        head, gen = ("-1", gen[1:].strip()) if gen.startswith("-") else ("1", gen)
    if gen not in dga.names:
        raise ParseError(f"case I input must end in a generator: {text!r}")
    coeff = parse_element(head, dga, subs)
    if coeff.max_arity():
        raise ParseError(f"case I input coefficient must not contain generators: {text!r}")
    return DualElement.term(coeff.constant_part(), gen)


def _cmd_example(args) -> int:
    _emit(builtin_source(args.name), args.output)
    return 0


def _cmd_check(args) -> int:
    dga = _load_dga(args.file)
    report = dga.check_d_squared()
    grading = dga.link_grading()
    if grading is not None:
        report.merge(check_link_grading(dga, grading))
    if report.ok:
        print("d^2 = 0: OK")
        if grading is not None:
            print(f"link grading ({grading.components} components): OK")
        return 0
    print(report)
    return 1


def _cmd_aug_check(args) -> int:
    dga = _load_dga(args.file)
    (aug,) = _load_augs(dga, [args.aug])
    return _finish(aug.check())


def _cmd_develop(args) -> int:
    dga = _load_dga(args.file)
    (aug,) = _load_augs(dga, [args.aug])
    _emit(print_dga(aug.develop()), args.output)
    return 0


def _cmd_mu(args) -> int:
    dga = _load_dga(args.file)
    subs = _parse_subs(dga, args.coeff)
    augs = _load_augs(dga, args.eps or [])
    if args.case == "I":
        inputs = [
            _parse_dual_input(dga, part, subs) for part in args.inputs.split(",")
        ]
        if augs:
            value = mu_eps_case1(dga, augs, inputs)
        else:
            value = mu_case1(dga, inputs)
    else:
        element = parse_element(args.inputs, dga, subs)
        if augs:
            value = mu_eps_case2(dga, augs, element)
        else:
            value = mu_case2(dga, element)
    print(value)
    return 0


def _cmd_ainfty_verify(args) -> int:
    dga = _load_dga(args.file)
    objects = _load_augs(dga, args.eps or []) or [Augmentation.trivial(dga)]
    report = verify_ainfty(
        dga, objects, args.case, args.max_arity, exhaustive=args.exhaustive
    )
    if report.ok:
        print(f"all residuals vanish ({report.checks} checks)")
        return 0
    print(report)
    return 1


def _cmd_linearize(args) -> int:
    dga = _load_dga(args.file)
    augs = _aug_tuple(dga, args.aug, 2, "linearize needs one or two --aug files")
    cx = bilinearized_complex(dga, augs[0], augs[1], args.case)
    for degree in cx.degrees():
        labels = cx.basis[degree]
        print(f"degree {degree}: dim {len(labels)}")
        print("  basis: " + ", ".join(cx.label_str(label) for label in labels))
        matrix = cx.matrix(degree)
        if matrix:
            for row in matrix:
                print("  [" + " ".join(cx.field.scalar_str(c) for c in row) + "]")
    return 0


def _cmd_homology(args) -> int:
    dga = _load_dga(args.file)
    augs = _aug_tuple(dga, args.aug, 2, "homology needs at most two --aug files")
    result = homology(bilinearized_complex(dga, augs[0], augs[1], args.case))
    if args.json:
        payload = {
            "degrees": [
                {
                    "degree": degree,
                    "dimension": result.dims[degree],
                    "representatives": result.representative_strings(degree),
                }
                for degree in sorted(result.dims)
            ],
            "total_dimension": result.total_dimension,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("deg  dim  representatives")
        for degree in sorted(result.dims):
            reps = "; ".join(result.representative_strings(degree)) or "-"
            print(f"{degree:>3}  {result.dims[degree]:>3}  {reps}")
        print(f"total dimension: {result.total_dimension}")
    return 0


def _cmd_product(args) -> int:
    dga = _load_dga(args.file)
    augs = _aug_tuple(dga, args.aug, 3, "product needs one or three --aug files")
    prod = product_on_homology(dga, augs[0], augs[1], augs[2], args.case)
    table = prod.table()
    if not table:
        print("no homology classes to multiply")
        return 0
    support = prod.h02.cx.field.support
    lines = []
    for (deg_x, i, deg_y, j), (degree, coeffs) in sorted(table.items()):
        value = " + ".join(f"{c} * H{degree}[{k}]" for k, c in support(coeffs)) or "0"
        lines.append(f"H{deg_x}[{i}] * H{deg_y}[{j}] -> degree {degree}: {value}\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_ncopy(args) -> int:
    dga = _load_dga(args.file)
    if args.split:
        _emit(print_dga(ncopy_via_split(dga, args.n)), args.output)
    else:
        copied, _grading = ncopy(dga, args.n)
        _emit(print_dga(copied), args.output)
    return 0


def _cmd_mirror(args) -> int:
    dga = _load_dga(args.file)
    _emit(print_dga(dga.mirror()), args.output)
    return 0


def _cmd_coeffchange(args) -> int:
    dga = _load_dga(args.file)
    morphism = parse_coefficient_map(_read(args.map), dga.algebra)
    _emit(print_dga(dga.change_coefficients(morphism)), args.output)
    return 0


def _cmd_subdga(args) -> int:
    dga = _load_dga(args.file)
    if args.action is not None:
        _emit(print_dga(dga.action_subdga(args.action)), args.output)
        return 0
    grading = dga.link_grading()
    if grading is None:
        raise NcdgaError("DGA has no link labels")
    _emit(print_dga(restrict_to_components(dga, grading, args.components)), args.output)
    return 0


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _components(text: str) -> set[int]:
    try:
        return {int(part) for part in text.split(",") if part}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdga",
        description="Exact computations with semifree DGAs over noncommutative coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("example", _cmd_example, "print a built-in example DGA file")
    p.add_argument("name")
    p.add_argument("-o", "--output")

    p = add("check", _cmd_check, "verify d^2 = 0 (and the link grading, if labelled)")
    p.add_argument("file")

    p = add("aug-check", _cmd_aug_check, "verify an augmentation file")
    p.add_argument("file")
    p.add_argument("--aug", required=True)

    p = add("develop", _cmd_develop, "develop the DGA with respect to an augmentation")
    p.add_argument("file")
    p.add_argument("--aug", required=True)
    p.add_argument("-o", "--output")

    p = add("mu", _cmd_mu, "evaluate an operation on explicit inputs")
    p.add_argument("file")
    p.add_argument("--case", choices=["I", "II"], required=True)
    p.add_argument("--inputs", required=True, help="case I: comma-separated b*c; case II: one tensor expression")
    p.add_argument("--coeff", action="append", help="substitution name=expr for input parameters")
    p.add_argument("--eps", action="append", help="augmentation files forming the tuple")

    p = add("ainfty-verify", _cmd_ainfty_verify, "verify the associativity relations")
    p.add_argument("file")
    p.add_argument("--case", choices=["I", "II"], required=True)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--eps", action="append", help="augmentation files (default: trivial)")
    p.add_argument("--exhaustive", action="store_true", help="enumerate every generator pattern")

    p = add("linearize", _cmd_linearize, "print the bilinearised complex")
    p.add_argument("file")
    p.add_argument("--aug", action="append", required=True)
    p.add_argument("--case", choices=["I", "II"], default="I")

    p = add("homology", _cmd_homology, "homology of the bilinearised complex")
    p.add_argument("file")
    p.add_argument("--aug", action="append", default=[])
    p.add_argument("--case", choices=["I", "II"], default="I")
    p.add_argument("--json", action="store_true")

    p = add("product", _cmd_product, "product on homology for a triple of augmentations")
    p.add_argument("file")
    p.add_argument("--aug", action="append", required=True)
    p.add_argument("--case", choices=["I", "II"], default="I")

    p = add("ncopy", _cmd_ncopy, "free n-copy of the DGA")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--split", action="store_true", help="use split coefficients instead")
    p.add_argument("-o", "--output")

    p = add("mirror", _cmd_mirror, "reverse all differential words")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = add("coeffchange", _cmd_coeffchange, "change the coefficient algebra")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("-o", "--output")

    p = add("subdga", _cmd_subdga, "action- or component-restricted sub-DGA")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--action", type=_fraction)
    group.add_argument("--components", type=_components)
    p.add_argument("-o", "--output")

    return parser


# main parses with one parser per process: building it costs about as much
# as a small homology run, and parse_args leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NcdgaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
