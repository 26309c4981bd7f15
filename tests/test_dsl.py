"""Parsing, printing, round trips and error positions."""

import pytest

from ncdga import (
    MatrixAlgebra,
    Z2,
    builtin_source,
    ncopy,
    ncopy_via_split,
    parse_augmentation,
    parse_coefficient_map,
    parse_dga,
    parse_element,
    print_dga,
    toy_dga,
    toy_hermitian_dga,
)
from ncdga.errors import (
    ActionViolationError,
    DegreeMismatchError,
    NcdgaError,
    ParseError,
    UnknownGeneratorError,
)

from conftest import ACTION_SOURCE


def reparse(dga):
    return parse_dga(print_dga(dga))


def test_round_trip_corpus(toy, toy_h, q_corpus, xy_dga, aug_p):
    fixtures = [
        toy,
        toy_h,
        q_corpus,
        xy_dga,
        ncopy(toy, 2)[0],
        ncopy_via_split(toy, 2),
        parse_dga(ACTION_SOURCE),
        aug_p.develop(),  # matrix coefficients with E-symbols
        toy.mirror(),
    ]
    for dga in fixtures:
        assert reparse(dga) == dga


def test_round_trip_matrix_10(xy_dga):
    """Over matrix n with n >= 10 the printer writes E(i,j), which the
    parser reads back; below 10 the E12 spelling stays and E(i,j) means
    the same unit."""
    cycle = " + ".join(f"E({i},{i % 10 + 1})" for i in range(1, 11))
    inverse = " + ".join(f"E({i % 10 + 1},{i})" for i in range(1, 11))
    aug = parse_augmentation(f"target matrix 10 over Z2\nx = {cycle}\ny = {inverse}\n", xy_dga)
    developed = aug.develop()
    text = print_dga(developed)
    assert "E(10,1)" in text and "E(1,10)" in text
    assert reparse(developed) == developed
    assert print_dga(reparse(developed)) == text
    m2 = parse_augmentation("target matrix 2 over Z2\nx = E(1,2) + E(2,1)\ny = E21 + E12\n", xy_dga)
    assert m2.values["x"] == m2.values["y"]
    assert "E12" in print_dga(m2.develop())


def test_round_trip_is_fixed_point(toy_h):
    once = print_dga(toy_h)
    assert print_dga(parse_dga(once)) == once


def test_toy_shape(toy):
    assert len(toy.generators) == 5
    assert len(toy.differential) == 3
    assert toy.modulus == 0


def test_empty_generator_list_is_valid():
    dga = parse_dga("ring Z2\nalgebra free g1\n")
    assert not dga.generators
    assert dga.check_d_squared().ok


def test_degree_mismatch_with_line_number():
    src = (
        "ring Z2\n"
        "algebra free g1 g2\n"
        "grading mod 0\n"
        "gen c1 deg 2\n"
        "gen c2 deg 1\n"
        "gen c5 deg 0\n"
        "d c2 = c5*g2 + c1\n"
    )
    with pytest.raises(DegreeMismatchError) as err:
        parse_dga(src)
    assert err.value.line == 7


def test_unknown_generator_with_position():
    src = "ring Z2\nalgebra free g1\ngrading mod 0\ngen a deg 1\nd a = b*g1\n"
    with pytest.raises(UnknownGeneratorError) as err:
        parse_dga(src)
    assert err.value.line == 5
    assert err.value.column == 7


def test_syntax_error_with_position():
    src = "ring Z2\nalgebra free g1\ngen a deg 1\nd a = g1 +\n"
    with pytest.raises(ParseError) as err:
        parse_dga(src)
    assert err.value.line == 4


def test_action_violation_with_line_number():
    src = (
        "ring Z2\nalgebra free g1\ngrading mod 0\n"
        "gen a deg 1 action 1\ngen b deg 0 action 2\n"
        "d a = b\n"
    )
    with pytest.raises(ActionViolationError) as err:
        parse_dga(src)
    assert err.value.line == 6


def test_free_hermitian_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_dga("ring Z2\nalgebra free g1 g2 hermitian\n")
    assert err.value.line == 2


def test_bad_ring_name():
    with pytest.raises(ParseError):
        parse_dga("ring Z6\nalgebra free g1\n")


def test_odd_grading_modulus_rejected():
    with pytest.raises(ParseError):
        parse_dga("ring Z2\nalgebra free g1\ngrading mod 3\n")


def test_statements_separated_by_semicolons():
    dga = parse_dga("ring Z2; algebra free g1; gen a deg 0 ; gen b deg 1; d b = a*g1*a")
    assert len(dga.generators) == 2


def test_parse_augmentation_matrix_literal(xy_dga):
    aug = parse_augmentation(
        "target matrix 2 over Z2 ; x = [[0,1],[1,0]] ; y = [[0,1],[1,0]]", xy_dga
    )
    assert aug.check().ok
    assert aug.value("x") == aug.target.from_terms([((1, 2), 1), ((2, 1), 1)])


def test_parse_augmentation_empty_is_trivial(toy):
    aug = parse_augmentation("# nothing\n", toy)
    assert aug.is_trivial
    assert aug.check().ok


def test_parse_augmentation_degree_one_value_fails_check(toy):
    aug = parse_augmentation("c2 = g1", toy)
    assert not aug.check().ok


def test_parse_augmentation_group_values(toy_h):
    aug = parse_augmentation("c4 = g1*g2^-1", toy_h)
    assert aug.check().ok
    assert aug.value("c4") == toy_h.algebra.element((1, -2))


def test_parse_augmentation_unknown_generator(toy):
    with pytest.raises(UnknownGeneratorError) as err:
        parse_augmentation("zz = g1", toy)
    assert err.value.line == 1


def test_parse_augmentation_with_coeff_map(toy):
    text = (
        "target matrix 2 over Z2\n"
        "coeff g1 = E12 + E21\n"
        "coeff g2 = E11 + E22\n"
        "c4 = E11\n"
    )
    aug = parse_augmentation(text, toy)
    assert aug.check().ok
    assert aug.morphism.apply(toy.algebra.element((1,))) == aug.target.from_terms(
        [((1, 2), 1), ((2, 1), 1)]
    )


def test_parse_coefficient_map(toy):
    morphism = parse_coefficient_map(
        "target free over Z2\ng1 = 1\ng2 = 1\n", toy.algebra
    )
    collapsed = toy.change_coefficients(morphism)
    assert collapsed.check_d_squared().ok


def test_parse_coefficient_map_out_of_matrix_10():
    """Over matrix n with n >= 10 a coefficient map names its units E(i,j),
    with or without the coeff keyword; E12 is no unit there."""
    m10 = MatrixAlgebra(10, Z2)
    shift = lambda i: i % 10 + 1
    lines = [
        f"{'coeff ' if i % 2 else ''}E({i},{j}) = E({shift(i)},{shift(j)})"
        for i in range(1, 11)
        for j in range(1, 11)
    ]
    morphism = parse_coefficient_map("target matrix 10 over Z2\n" + "\n".join(lines), m10)
    for i, j in m10.words():
        assert morphism.apply(m10.element((i, j))) == m10.element((shift(i), shift(j)))
    for text, line, column in [
        ("target matrix 10 over Z2\ncoeff E(1,11) = E(1,1)\n", 2, 11),
        ("target matrix 10 over Z2\nE12 = E(1,2)\n", 2, 1),
        ("target matrix 10 over Z2\nE(1,2) = E(1,2)\ncoeff E(1, 2) = E(2,1)\n", 3, 7),
    ]:
        with pytest.raises(ParseError) as err:
            parse_coefficient_map(text, m10)
        assert (err.value.line, err.value.column) == (line, column)


def test_parse_coefficient_map_group_inverse_derived(toy_h):
    morphism = parse_coefficient_map(
        "target matrix 2 over Z2\ng1 = E12 + E21\ng1^-1 = E12 + E21\ng2 = E11 + E22\n",
        toy_h.algebra,
    )
    # g2^-1 derived automatically from the identity image
    assert morphism.apply(toy_h.algebra.element((-2,))) == morphism.target.unit()


def test_parse_element_with_substitutions(toy_h):
    subs = {"h": parse_element("g1", toy_h)}
    value = parse_element("c2*h*c4", toy_h, subs)
    assert value == parse_element("c2*g1*c4", toy_h)


def test_parse_element_scalars():
    dga = parse_dga("ring Q\nalgebra free g1\ngrading mod 0\ngen a deg 0\n")
    value = parse_element("1/2*a - 1/2*a", dga)
    assert value.is_zero()
    value = parse_element("-a", dga)
    assert not value.is_zero()
    value = parse_element("(g1 + 1)*a", dga)
    assert len(value.terms) == 2


def test_parse_element_rejects_trailing(toy):
    with pytest.raises(ParseError):
        parse_element("c2 c4", toy)


def test_matrix_literal_shape_checked(xy_dga):
    with pytest.raises(ParseError):
        parse_augmentation("target matrix 2 over Z2\nx = [[1,0],[0,1],[0,0]]", xy_dga)


def test_inverse_only_for_units(toy):
    with pytest.raises(ParseError):
        parse_element("g1^-1", toy)  # free-algebra symbol has no inverse


def test_builtin_sources():
    assert parse_dga(builtin_source("toy")) == toy_dga()
    assert parse_dga(builtin_source("toy-hermitian")) == toy_hermitian_dga()
    with pytest.raises(NcdgaError):
        builtin_source("nope")


@pytest.mark.parametrize(
    "source, line, column",
    [
        ("ring Z2\nalgebra free g1\ngen a deg 1\ngen x deg 0\nd a = 1/2*x\n", 5, 7),
        ("ring Z\nalgebra free g1\ngen a deg 1\ngen x deg 0\nd a = 1/0*x\n", 5, 9),
        ("ring Z\nalgebra free g1\ngen a deg 1\ngen x deg 0\nd a = 1/2*x\n", 5, 7),
        ("ring Q\nalgebra free g1\ngen a deg 1 action 1/0\n", 3, 22),
        ("ring Z2\nalgebra free g1\ngen a deg 1\ngen x deg 0\nd a = x\nd a = g1*x\n", 6, 3),
        # matrix units E(i,j) with an index outside 1..n
        ("ring Z2\nalgebra matrix 10\ngen a deg 1\ngen x deg 0\nd a = E(11,1)*x\n", 5, 9),
        ("ring Z2\nalgebra matrix 2\ngen a deg 1\ngen x deg 0\nd a = x*E(1, 0)\n", 5, 14),
    ],
)
def test_bad_scalars_and_repeated_differentials_are_parse_errors(source, line, column):
    with pytest.raises(ParseError) as err:
        parse_dga(source)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("target matrix 2 over Z2\nx = 1/2\n", 2, 5),
        ("target matrix 2 over Z2\nx = [[1,0],[0,1/2]]\n", 2, 15),
        ("target matrix 2 over Z2\nx = [[1,0],[0,1]]\nx = [[0,1],[1,0]]\n", 3, 1),
    ],
)
def test_bad_augmentation_values_are_parse_errors(xy_dga, text, line, column):
    with pytest.raises(ParseError) as err:
        parse_augmentation(text, xy_dga)
    assert (err.value.line, err.value.column) == (line, column)


def test_repeated_coefficient_images_are_parse_errors(toy):
    text = "target matrix 2 over Z2\ncoeff g1 = E12\ncoeff g2 = E11\ncoeff g1 = E21\n"
    with pytest.raises(ParseError) as err:
        parse_augmentation(text, toy)
    assert (err.value.line, err.value.column) == (4, 7)
    assert "second image for 'g1'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_coefficient_map("target free over Z2\ng1 = 1\ng2 = 1\ng1 = 0\n", toy.algebra)
    assert (err.value.line, err.value.column) == (4, 1)


HUGE = "9" * 5000  # past the 4,300 digits that some interpreters' int() converts


@pytest.mark.parametrize(
    "source, line, column",
    [
        (f"ring Q\nalgebra free\ngen a deg 1\ngen x deg 0\nd a = {HUGE}*x\n", 5, 7),
        (f"ring Z{HUGE}\nalgebra free\n", 1, 6),
        (f"ring Q\nalgebra free\ngen a deg {HUGE}\n", 3, 11),
    ],
    ids=["scalar", "modulus", "degree"],
)
def test_huge_integer_literals_parse_or_are_parse_errors(source, line, column):
    """Interpreters without the digit limit read the number; the others
    report its position, never a ValueError."""
    try:
        parse_dga(source)
    except ParseError as exc:
        assert (exc.line, exc.column) == (line, column)


@pytest.mark.parametrize("key", ["g" + HUGE, "g3", "g01"])
def test_group_keys_name_a_group_generator(toy_h, key):
    """A key past the rank (or spelled with leading zeros, or too long
    for int()) is an unknown symbol, as in a free algebra."""
    with pytest.raises(UnknownGeneratorError) as err:
        parse_coefficient_map(f"target free over Z2\ng1 = 1\ng2 = 1\n{key} = 1\n", toy_h.algebra)
    assert (err.value.line, err.value.column) == (4, 1)


def nested(depth):
    return f"ring Q\nalgebra free\ngen a deg 1\ngen x deg 0\nd a = {'(' * depth}x{')' * depth}\n"


def test_deep_parentheses_are_parse_errors():
    assert parse_dga(nested(200)) == parse_dga(nested(0))
    for depth in (201, 3000):
        with pytest.raises(ParseError, match="over 200 nested parentheses") as err:
            parse_dga(nested(depth))
        assert (err.value.line, err.value.column) == (5, 207)


@pytest.mark.parametrize(
    "decl", ["algebra matrix 100000", "algebra split 100000 matrix 2", "algebra split 1000000000 matrix 2"]
)
def test_huge_algebra_declarations_are_parse_errors(decl):
    """A unit of more than 100 basis words is refused at the declaration,
    before the words of a generator are built."""
    with pytest.raises(ParseError, match="basis words, over 100") as err:
        parse_dga(f"ring Q\n{decl}\ngen a deg 1\ngen x deg 0\nd a = x\n")
    assert (err.value.line, err.value.column) == (2, 1)


def test_huge_target_declarations_are_parse_errors(xy_dga):
    with pytest.raises(ParseError, match="basis words, over 100") as err:
        parse_augmentation("x = 1\ntarget matrix 100000 over Q\n", xy_dga)
    assert (err.value.line, err.value.column) == (2, 1)


def test_parse_errors_inside_an_algebra_declaration_keep_their_position(xy_dga):
    """The bad token is located once, not again at the declaring keyword."""
    with pytest.raises(ParseError, match="expected an integer, found 'x'") as err:
        parse_dga("ring Q\nalgebra matrix x\ngen a deg 1\n")
    assert (err.value.line, err.value.column) == (2, 16)
    assert str(err.value).count("(line") == 1
    with pytest.raises(ParseError, match="expected an integer, found 'x'") as err:
        parse_augmentation("target matrix x over Q\nx = 1\n", xy_dga)
    assert (err.value.line, err.value.column) == (1, 15)
    assert str(err.value).count("(line") == 1


@pytest.mark.parametrize(
    "decl, token, column",
    [
        ("matrix 2 3", "3", 17),
        ("matrix 2 hermitian junk", "junk", 27),
        ("free g1 g2 g3 3", "3", 22),
    ],
)
def test_leftover_tokens_in_a_target_declaration_are_parse_errors(xy_dga, decl, token, column):
    """A target declaration is read to its "over RING"; a token left
    before it is reported as a DGA file reports one after its statement."""
    source = f"target {decl} over Q\nx = 1\n"
    with pytest.raises(ParseError, match=f"unexpected '{token}' at end of statement") as err:
        parse_augmentation(source, xy_dga)
    assert (err.value.line, err.value.column) == (1, column)
    with pytest.raises(ParseError, match=f"unexpected '{token}' at end of statement"):
        parse_coefficient_map(source, xy_dga.algebra)


@pytest.mark.parametrize("suffix", ["^-7", "^-2", "^-01"])
def test_inverse_keys_must_read_minus_one(toy_h, suffix):
    """A coefficient key takes the '^-1' of an expression and nothing else."""
    images = "g1 = E12 + E21\ng1{} = E12 + E21\ng2 = E11 + E22\n"
    with pytest.raises(ParseError, match=r"only '\^-1' is supported") as err:
        parse_coefficient_map("target matrix 2 over Z2\n" + images.format(suffix), toy_h.algebra)
    assert (err.value.line, err.value.column) == (3, 5)
    coeffs = "".join("coeff " + line + "\n" for line in images.format(suffix).splitlines())
    with pytest.raises(ParseError, match=r"only '\^-1' is supported") as err:
        parse_augmentation("target matrix 2 over Z2\n" + coeffs, toy_h)
    assert (err.value.line, err.value.column) == (3, 11)


def test_matrix_100_parses():
    dga = parse_dga("ring Q\nalgebra matrix 100\ngen a deg 1\ngen x deg 0\nd a = x\n")
    assert dga.algebra == MatrixAlgebra(100, dga.algebra.ring)


@pytest.mark.parametrize(
    "source, char, line, column",
    [
        ("ring Q\nalgebra free\ngen a deg ²\n", "²", 3, 11),
        ("ring Q\nalgebra free\ngen a deg ١\n", "١", 3, 11),
        ("ring Q\nalgebra free\ngen a deg 1١\n", "١", 3, 12),
        ("ring Q\nalgebra free\ngen a deg 1 action 1/٣\n", "٣", 3, 22),
        ("ring Q\nalgebra matrix २\n", "२", 2, 16),
        ("ring Q\nalgebra free\ngen a deg 1\ngen x deg 0\nd a = ２*x\n", "２", 5, 7),
    ],
    ids=["superscript", "arabic-indic", "after-ascii", "denominator", "matrix-size", "fullwidth"],
)
def test_non_ascii_digits_are_unexpected_characters(source, char, line, column):
    """Numbers are ASCII digits: str.isdigit's other digits are refused
    where they stand, not read as a number."""
    with pytest.raises(ParseError) as err:
        parse_dga(source)
    assert str(err.value) == f"unexpected character {char!r} (line {line}, column {column})"


def test_non_ascii_digits_in_values_and_ring_names(xy_dga):
    with pytest.raises(ParseError) as err:
        parse_augmentation("target matrix 2 over Z2\nx = [[1,0],[0,١]]\n", xy_dga)
    assert str(err.value) == "unexpected character '١' (line 2, column 15)"
    for name in ("Z٣", "Z²"):
        with pytest.raises(ParseError) as err:
            parse_dga(f"ring {name}\nalgebra free\n")
        assert str(err.value) == f"unknown ring {name!r} (line 1, column 6)"


def test_non_ascii_letters_in_identifiers_keep_working():
    """An identifier is a letter or '_' and then letters, digits and '_'
    of any script; only numbers are restricted to ASCII."""
    dga = parse_dga(
        "ring Q\nalgebra free\ngen é deg 1\ngen x² deg 0\ngen Ω_١ deg 0\n"
        "d é = x²*Ω_١ - 1\n"
    )
    assert dga.names == ("é", "x²", "Ω_١")
    assert reparse(dga) == dga
