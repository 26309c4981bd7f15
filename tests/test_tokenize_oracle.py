"""The tokenizer against the character loop it replaced.

``character_loop_tokenize`` is the earlier tokenizer, kept as the oracle.
On token soup, ASCII and not, ``parse_dga``, ``parse_augmentation`` and
``parse_element`` give equal results, or the same error with the same
text, line and column, with either tokenizer.  The one difference is the
documented one: the loop read a run of any ``str.isdigit`` characters as a
number, where a number is now ASCII digits only, and any other digit
character there is an ``unexpected character`` error at that character."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ncdga import Augmentation, builtin_source, dsl, parse_augmentation, parse_dga, parse_element
from ncdga.dsl import Token, _PUNCT
from ncdga.errors import NcdgaError, ParseError

from conftest import XY_SOURCE


def character_loop_tokenize(text):
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                tokens.append(Token("number", line[i:j], line_no, col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(Token("ident", line[i:j], line_no, col))
                i = j
            elif ch in _PUNCT:
                tokens.append(Token(ch, ch, line_no, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, col)
        tokens.append(Token("newline", "", line_no, len(line) + 1))
    return tokens


Q_XY = XY_SOURCE.replace("ring Z2", "ring Q")
M2_DGA = "ring Q\nalgebra matrix 2\ngen a deg 1 action 3/2\ngen x deg 0 action 1/2\nd a = E12*x - x*E12\n"
GROUP_DGA = "ring Z3\nalgebra group free 1\ngen a deg 1\ngen x deg 0\nd a = 2*x*g1^-1 - 1\n"
SOURCES = [XY_SOURCE, Q_XY, M2_DGA, GROUP_DGA, builtin_source("toy-hermitian")]
AUGMENTATIONS = [
    (Q_XY, "target matrix 2 over Q\nx = [[1,1],[0,1]]\ny = [[1,-1],[0,1]]\n"),
    (Q_XY, "target split 2 matrix 2 over Q\nx = E11 + E22 + e1*E12\ny = E(1,1) + E22 - e1*E12\n"),
    (
        builtin_source("toy-hermitian"),
        "target matrix 2 over Z2\ncoeff g1 = E12 + E21\ncoeff g2 = E11 + E22\n",
    ),
    (GROUP_DGA, "x = g1\n"),
]
ELEMENTS = [(Q_XY, "x*y - 1/2*(x + 3)"), (M2_DGA, "[[1,0],[2,1]]*x*E(1,2)"), (GROUP_DGA, "g1^-1*x - 2")]

TOKENS = [
    "ring", "algebra", "gen", "d", "deg", "grading", "mod", "target", "over", "coeff",
    "free", "matrix", "group", "split", "hermitian", "action", "link", "Q", "Z2", "Z3",
    "a", "x", "y", "c4", "g1", "E12", "E", "e1", "_x", "x_1", "0", "1", "2", "10", "007", "-1",
    "1/2", "1/0", "*", "+", "-", "/", "^", "(", ")", "[", "]", ",", "=", ";", "#", "\t", "",
]
NON_ASCII = [
    "\u00e9", "\u00df", "\u03a9", "x\u00e9", "\u00b2", "x\u00b2", "\u0661", "\u0663\u0662",
    "1\u0661", "x\u0661", "\uff13", "\u00bd", "Z\u0663", "\u00a0", "\u2028", "\u0966",
]
SOUP = st.lists(st.sampled_from(TOKENS + NON_ASCII), max_size=8).map(" ".join)
EDITS = st.lists(st.tuples(st.integers(0, 7), st.booleans(), SOUP), max_size=2)


def edited(text, edits):
    lines = text.splitlines()
    for at, replace, line in edits:
        lines[at : at + replace] = [line]
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """What a parse gives: comparable values, or the error's type, text
    and position."""
    try:
        value = parse(text)
    except NcdgaError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    if isinstance(value, Augmentation):
        return value.target, value.values, value.morphism.images
    return value


def is_digit_change(result, text):
    """The tokenizer's error at a digit outside ASCII 0-9."""
    if not (isinstance(result, tuple) and result[0] is ParseError):
        return False
    _type, message, line, column = result
    if not message.startswith("unexpected character "):
        return False
    char = text.splitlines()[line - 1][column - 1]
    return char.isdigit() and not char.isascii()


def assert_same_outcome(parse, text):
    new = outcome(parse, text)
    with mock.patch.object(dsl, "tokenize", character_loop_tokenize):
        old = outcome(parse, text)
    if not is_digit_change(new, text):
        assert new == old
        return
    # the loop read the character as (part of) a number: its tokens up to
    # the character hold a number token that covers it
    _type, _text, line, column = new
    lines = text.splitlines()[:line]
    lines[-1] = lines[-1][:column]
    assert any(
        tok.kind == "number" and tok.line == line and tok.column <= column < tok.column + len(tok.text)
        for tok in character_loop_tokenize("\n".join(lines))
    )


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SOURCES), EDITS)
def test_parse_dga_matches_the_character_loop(source, edits):
    assert_same_outcome(parse_dga, edited(source, edits))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(AUGMENTATIONS), EDITS)
def test_parse_augmentation_matches_the_character_loop(pair, edits):
    dga = parse_dga(pair[0])
    assert_same_outcome(lambda text: parse_augmentation(text, dga), edited(pair[1], edits))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ELEMENTS), SOUP, SOUP)
def test_parse_element_matches_the_character_loop(pair, before, after):
    dga = parse_dga(pair[0])
    assert_same_outcome(lambda text: parse_element(text, dga), f"{before} {pair[1]} {after}")


def test_the_documented_digit_change_is_seen():
    """The soup reaches the exception: a degree in Arabic-Indic digits,
    which the loop read as 1 and the tokenizer refuses."""
    text = "ring Q\nalgebra free\ngen a deg \u0661\n"
    with mock.patch.object(dsl, "tokenize", character_loop_tokenize):
        assert parse_dga(text).degree("a") == 1
    assert is_digit_change(outcome(parse_dga, text), text)
    assert_same_outcome(parse_dga, text)
