"""Line-oriented description language for DGAs, augmentations and
coefficient maps, plus the canonical printer.

Grammar (``#`` starts a comment, statements end at a newline or ``;``)::

    ring    <Z | Q | Z2 | Z3 | ...>
    algebra <free n1 n2 ... | matrix n | group free k | split n <decl>> [hermitian]
    grading mod <2mu>                        # 0 means Z-graded
    gen <name> deg <int> [action <rational>] [link <b> <e>]
    d <name> = <expr>

    expr   := ['-'] term (('+' | '-') term)*
    term   := atom ('*' atom)*
    atom   := scalar | ident ['^-1'] | unit ['^-1'] | matrix-literal | '(' expr ')'
    unit   := 'E' '(' int ',' int ')'
    scalar := int ['/' int]
    int    := ASCII digits 0-9                # any other digit is an error

Identifiers resolve to declared generators or to the algebra's symbols
(g1, E12, e1, ...).  ``unit`` is the matrix unit E(i,j) of ``matrix n``,
1 <= i, j <= n; the printer writes it for n >= 10, where E12 would be
ambiguous.  Augmentation files assign values to generators, with an
optional ``target`` declaration and ``coeff`` lines for the coefficient
morphism, keyed by a source symbol or ``unit``; the same statements serve
as coefficient-map files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgebraElement,
    CoefficientAlgebra,
    CoefficientMorphism,
    FreeAlgebra,
    GroupRing,
    MatrixAlgebra,
    SplitAlgebra,
    try_word_inverse,
)
from .augmentation import Augmentation
from .dga import Generator, SemifreeDGA
from .errors import (
    ActionViolationError,
    DegreeMismatchError,
    NcdgaError,
    ParseError,
    UnknownGeneratorError,
)
from .rings import Ring
from .tensor import TensorElement


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_PUNCT = {"*", "+", "-", "/", "^", "(", ")", "[", "]", ",", "=", ";"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # Token(...) runs the named tuple's __new__, a Python function; building
    # the tuple directly costs a third as much, and a file has dozens of tokens
    new = tuple.__new__
    for line_no, line in enumerate(text.splitlines(), start=1):
        i, end = 0, len(line)
        while i < end:
            ch = line[i]
            # single characters first: matrix literals are mostly brackets,
            # commas and one-digit entries
            if ch in _PUNCT:
                append(new(Token, (ch, ch, line_no, i + 1)))
                i += 1
            elif "0" <= ch <= "9":
                # numbers are ASCII digits; any other digit is unexpected
                j = i + 1
                while j < end and "0" <= line[j] <= "9":
                    j += 1
                append(new(Token, ("number", line[i:j], line_no, i + 1)))
                i = j
            elif ch.isspace():
                i += 1
            elif ch == "#":
                break
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < end and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                append(new(Token, ("ident", line[i:j], line_no, i + 1)))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, i + 1)
        append(new(Token, ("newline", "", line_no, end + 1)))
    return tokens


# ends every stream, so reading stops there without a bounds test; it has
# no position, as the end of the input has none
_END = Token("end", "", None, None)
_STATEMENT_ENDS = frozenset(("newline", ";", "end"))


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = [*tokens, _END]
        self.pos = 0

    def peek(self) -> Token:
        """The next token; :data:`_END` at the end of the input."""
        return self.tokens[self.pos]

    def at_statement_end(self) -> bool:
        return self.tokens[self.pos].kind in _STATEMENT_ENDS

    def next(self) -> Token:
        """Consume the next token, which :meth:`peek` has shown is not the end."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = "end of input" if tok is _END else repr(tok.text or tok.kind)
            raise ParseError(f"expected {what or kind}, found {found}", tok.line, tok.column)
        self.pos += 1
        return tok

    def expect_word(self, word: str) -> Token:
        tok = self.expect("ident", repr(word))
        if tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def skip_separators(self):
        while self.tokens[self.pos].kind in ("newline", ";"):
            self.pos += 1

    def end_statement(self):
        tok = self.tokens[self.pos]
        if tok.kind not in _STATEMENT_ENDS:
            raise ParseError(
                f"unexpected {tok.text!r} at end of statement", tok.line, tok.column
            )


def _parse_int(stream: _Stream) -> int:
    negative = False
    if stream.peek().kind == "-":
        stream.next()
        negative = True
    tok = stream.expect("number", "an integer")
    try:
        value = int(tok.text)
    except ValueError:  # past the interpreter's limit on digits converted by int()
        raise ParseError(f"{len(tok.text)}-digit integer too long", tok.line, tok.column) from None
    return -value if negative else value


def _parse_rational(stream: _Stream) -> int | Fraction:
    """An integer, or a Fraction when a '/' follows it."""
    numerator = _parse_int(stream)
    if stream.peek().kind == "/":
        stream.next()
        denominator_tok = stream.peek()
        denominator = _parse_int(stream)
        if denominator == 0:
            raise ParseError(
                "division by zero", denominator_tok.line, denominator_tok.column
            )
        return Fraction(numerator, denominator)
    return numerator


def _parse_inverse(stream: _Stream) -> bool:
    """Read an optional '^-1' suffix; True when there was one."""
    if stream.peek().kind != "^":
        return False
    stream.next()
    stream.expect("-", "'^-1'")
    one = stream.expect("number", "'^-1'")
    if one.text != "1":
        raise ParseError("only '^-1' is supported", one.line, one.column)
    return True


# A generator over an algebra is the sum of u g v over all pairs of the
# basis words u, v whose sum is the unit, so a declaration with more of
# them is refused before any word is built.
_MAX_UNIT_WORDS = 100


def _bound_unit_words(count: int, what: str) -> None:
    if count > _MAX_UNIT_WORDS:
        raise NcdgaError(f"unit of {what} is a sum of {count} basis words, over {_MAX_UNIT_WORDS}")


def _parse_algebra_decl(stream: _Stream, ring: Ring) -> CoefficientAlgebra:
    tok = stream.expect("ident", "an algebra kind")
    if tok.text == "free":
        names = []
        while (nxt := stream.peek()).kind == "ident" and nxt.text != "hermitian":
            names.append(stream.next().text)
        if (nxt := stream.peek()).kind == "ident" and nxt.text == "hermitian":
            raise ParseError(
                "free algebras carry no hermitian structure; use 'group free k'",
                nxt.line,
                nxt.column,
            )
        return FreeAlgebra(tuple(names), ring)
    if tok.text == "matrix":
        n = _parse_int(stream)
        _bound_unit_words(n, f"matrix {n}")
        if (nxt := stream.peek()).kind == "ident" and nxt.text == "hermitian":
            stream.next()
        return MatrixAlgebra(n, ring)
    if tok.text == "group":
        stream.expect_word("free")
        rank = _parse_int(stream)
        if (nxt := stream.peek()).kind == "ident" and nxt.text == "hermitian":
            stream.next()
        return GroupRing(rank, ring)
    if tok.text == "split":
        n = _parse_int(stream)
        base = _parse_algebra_decl(stream, ring)
        _bound_unit_words(n * len(base.unit_words()), f"split {n}")
        return SplitAlgebra(base, n)
    raise ParseError(f"unknown algebra kind {tok.text!r}", tok.line, tok.column)


def _read_algebra_decl(stream: _Stream, ring: Ring, keyword: Token) -> CoefficientAlgebra:
    """An algebra declaration; errors that carry no position of their own
    (a bound, a size) are located at the declaring keyword."""
    try:
        return _parse_algebra_decl(stream, ring)
    except ParseError:
        raise
    except NcdgaError as exc:
        raise ParseError(str(exc), keyword.line, keyword.column) from None


# each level of parentheses takes three parser frames of the interpreter's stack
_MAX_NESTING = 200


class _ExpressionParser:
    """Evaluates expressions directly into tensor elements."""

    def __init__(
        self,
        stream: _Stream,
        algebra: CoefficientAlgebra,
        generators: set[str],
        extra: dict[str, TensorElement] | None = None,
    ):
        self.stream = stream
        self.algebra = algebra
        self.generators = generators
        self.symbols: dict | None = None  # the algebra's, built at the first non-generator
        self.extra = extra or {}
        self.depth = 0  # parentheses open around the current atom

    def parse(self) -> TensorElement:
        stream = self.stream
        negative = False
        if stream.peek().kind == "-":
            stream.next()
            negative = True
        total = self._term()
        if negative:
            total = -total
        while (tok := stream.peek()).kind in ("+", "-"):
            stream.next()
            term = self._term()
            total = total + (-term if tok.kind == "-" else term)
        return total

    def _term(self) -> TensorElement:
        value = self._atom()
        while self.stream.peek().kind == "*":
            self.stream.next()
            value = value * self._atom()
        return value

    def _atom(self) -> TensorElement:
        stream = self.stream
        tok = stream.peek()
        if tok is _END:
            raise ParseError("unexpected end of expression")
        if tok.kind == "number":
            return TensorElement.from_scalar(self.algebra, self._scalar())
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"over {_MAX_NESTING} nested parentheses", tok.line, tok.column)
            stream.next()
            self.depth += 1
            inner = self.parse()
            self.depth -= 1
            stream.expect(")")
            return inner
        if tok.kind == "[":
            return self._matrix_literal()
        if tok.kind == "ident":
            stream.next()
            value = self._resolve(tok)
            if _parse_inverse(stream):
                value = self._invert(value, tok)
            return value
        raise ParseError(f"unexpected {tok.text!r} in expression", tok.line, tok.column)

    def _scalar(self):
        """A rational literal, coerced into the algebra's scalar ring."""
        tok = self.stream.peek()
        value = _parse_rational(self.stream)
        ring = self.algebra.ring
        try:
            return ring.coerce(value)
        except (ZeroDivisionError, NcdgaError):
            raise ParseError(
                f"{value} is not a scalar of {ring.name}", tok.line, tok.column
            ) from None

    def _resolve(self, tok: Token) -> TensorElement:
        alg = self.algebra
        if tok.text == "E" and isinstance(alg, MatrixAlgebra) and self.stream.peek().kind == "(":
            return TensorElement.from_algebra(alg.element(self._matrix_unit()))
        if tok.text in self.generators:
            return TensorElement.generator(alg, tok.text)
        if self.symbols is None:
            self.symbols = alg.symbols()
        if tok.text in self.symbols:
            return TensorElement.from_algebra(self.symbols[tok.text])
        if tok.text in self.extra:
            return self.extra[tok.text]
        raise UnknownGeneratorError(
            f"unknown generator or symbol {tok.text!r}", tok.line, tok.column
        )

    def _matrix_unit(self) -> tuple[int, int]:
        """The word (i, j) of the matrix unit E(i,j), read from the opening
        parenthesis on."""
        stream, n = self.stream, self.algebra.n
        indices = []
        for before in ("(", ","):
            stream.expect(before, repr(before))
            tok = stream.peek()
            indices.append(_parse_int(stream))
            if not 1 <= indices[-1] <= n:
                raise ParseError(f"E index {indices[-1]} is not in 1..{n}", tok.line, tok.column)
        stream.expect(")", "')'")
        return tuple(indices)

    def _invert(self, value: TensorElement, tok: Token) -> TensorElement:
        constant = value.constant_part()
        if value.arities() not in (set(), {0}) or len(constant.terms) != 1:
            raise ParseError(f"{tok.text!r} is not invertible", tok.line, tok.column)
        (word, coeff), = constant.terms.items()
        inverse = try_word_inverse(self.algebra, word, coeff)
        if inverse is None:
            raise ParseError(f"{tok.text!r} is not invertible here", tok.line, tok.column)
        return TensorElement.from_algebra(inverse)

    def _matrix_literal(self) -> TensorElement:
        stream = self.stream
        open_tok = stream.expect("[")
        if not isinstance(self.algebra, MatrixAlgebra):
            raise ParseError(
                "matrix literal outside a matrix algebra", open_tok.line, open_tok.column
            )
        rows: list[list] = []
        while True:
            stream.expect("[")
            row = [self._scalar()]
            while stream.peek().kind == ",":
                stream.next()
                row.append(self._scalar())
            stream.expect("]")
            rows.append(row)
            if stream.peek().kind == ",":
                stream.next()
                continue
            break
        stream.expect("]")
        n = self.algebra.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError(
                f"matrix literal is not {n} x {n}", open_tok.line, open_tok.column
            )
        # the entries are ring scalars already, and each unit appears once
        element = AlgebraElement(
            self.algebra,
            {
                (i, j): value
                for i, row in enumerate(rows, start=1)
                for j, value in enumerate(row, start=1)
                if value
            },
        )
        return TensorElement.from_algebra(element)


def parse_dga(text: str) -> SemifreeDGA:
    stream = _Stream(tokenize(text))
    ring: Ring | None = None
    algebra: CoefficientAlgebra | None = None
    modulus = 0
    generators: list[Generator] = []
    gen_names: set[str] = set()
    differential: dict[str, TensorElement] = {}
    diff_lines: dict[str, int] = {}

    stream.skip_separators()
    while stream.peek() is not _END:
        tok = stream.expect("ident", "a statement")
        if tok.text == "ring":
            name = stream.expect("ident", "a ring name")
            try:
                ring = Ring.from_name(name.text)
            except NcdgaError as exc:
                raise ParseError(str(exc), name.line, name.column) from None
        elif tok.text == "algebra":
            if ring is None:
                raise ParseError("declare the ring before the algebra", tok.line, tok.column)
            algebra = _read_algebra_decl(stream, ring, tok)
        elif tok.text == "grading":
            stream.expect_word("mod")
            modulus = _parse_int(stream)
            if modulus < 0 or modulus % 2:
                raise ParseError(
                    "grading modulus must be an even nonnegative integer",
                    tok.line,
                    tok.column,
                )
        elif tok.text == "gen":
            name = stream.expect("ident", "a generator name")
            if name.text in gen_names:
                raise ParseError(f"duplicate generator {name.text!r}", name.line, name.column)
            stream.expect_word("deg")
            degree = _parse_int(stream)
            action = None
            link = None
            while not stream.at_statement_end():
                option = stream.expect("ident", "'action' or 'link'")
                if option.text == "action":
                    action = Fraction(_parse_rational(stream))
                elif option.text == "link":
                    link = (_parse_int(stream), _parse_int(stream))
                else:
                    raise ParseError(
                        f"unknown generator option {option.text!r}",
                        option.line,
                        option.column,
                    )
            generators.append(Generator(name.text, degree, action, link))
            gen_names.add(name.text)
        elif tok.text == "d":
            if algebra is None:
                raise ParseError("declare the algebra before differentials", tok.line, tok.column)
            name = stream.expect("ident", "a generator name")
            if name.text not in gen_names:
                raise UnknownGeneratorError(
                    f"differential for undeclared generator {name.text!r}",
                    name.line,
                    name.column,
                )
            if name.text in differential:
                raise ParseError(
                    f"second differential for {name.text!r}", name.line, name.column
                )
            stream.expect("=")
            value = _ExpressionParser(stream, algebra, gen_names).parse()
            differential[name.text] = value
            diff_lines[name.text] = name.line
        else:
            raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.column)
        stream.end_statement()
        stream.skip_separators()

    if ring is None or algebra is None:
        raise ParseError("file must declare a ring and an algebra")
    try:
        return SemifreeDGA(algebra, generators, differential, modulus)
    except (DegreeMismatchError, ActionViolationError) as exc:
        raise type(exc)(
            str(exc), line=diff_lines.get(exc.generator), generator=exc.generator
        ) from None


def _parse_assignments(
    text: str,
    source: CoefficientAlgebra,
    generators: set[str],
    coeff_only: bool = False,
):
    """Shared reader for augmentation and coefficient-map files: returns
    (target algebra, coeff images keyed for CoefficientMorphism, values).
    With ``coeff_only`` every bare assignment is a coefficient image."""
    stream = _Stream(tokenize(text))
    target: CoefficientAlgebra | None = None
    coeff_images: dict = {}
    values: dict[str, TensorElement] = {}

    stream.skip_separators()
    while stream.peek() is not _END:
        tok = stream.expect("ident", "a statement")
        if tok.text == "target":
            decl_tokens = []
            while not stream.at_statement_end():
                decl_tokens.append(stream.next())
            # the declaration ends with "over RING"
            if len(decl_tokens) < 3 or decl_tokens[-2].text != "over":
                raise ParseError("target needs '... over RING'", tok.line, tok.column)
            try:
                ring = Ring.from_name(decl_tokens[-1].text)
            except NcdgaError as exc:
                raise ParseError(str(exc), decl_tokens[-1].line, decl_tokens[-1].column) from None
            sub = _Stream(decl_tokens[:-2] + [Token("newline", "", tok.line, 0)])
            target = _read_algebra_decl(sub, ring, tok)
            # the declaration must be used up before its "over RING"
            sub.end_statement()
        elif tok.text == "coeff" or coeff_only:
            name = stream.expect("ident", "an algebra symbol") if tok.text == "coeff" else tok
            key = name.text
            if key == "E" and isinstance(source, MatrixAlgebra) and stream.peek().kind == "(":
                key = source.word_str(_ExpressionParser(stream, source, set())._matrix_unit())
            if _parse_inverse(stream):
                key += "^-1"
            if key in coeff_images:
                raise ParseError(f"second image for {key!r}", name.line, name.column)
            stream.expect("=")
            expr = _ExpressionParser(
                stream, target if target is not None else source, set()
            ).parse()
            coeff_images[key] = (name, expr)
        else:
            name = tok
            if name.text not in generators:
                raise UnknownGeneratorError(
                    f"value assigned to unknown generator {name.text!r}",
                    name.line,
                    name.column,
                )
            if name.text in values:
                raise ParseError(
                    f"second value for {name.text!r}", name.line, name.column
                )
            stream.expect("=")
            expr = _ExpressionParser(
                stream, target if target is not None else source, set()
            ).parse()
            values[name.text] = expr
        stream.end_statement()
        stream.skip_separators()
    return target, coeff_images, values


def _morphism_from_images(source, target, coeff_images) -> CoefficientMorphism:
    images = {}
    if isinstance(source, MatrixAlgebra):
        units = {source.word_str(w): w for w in source.words()}
    for key, (tok, expr) in coeff_images.items():
        value = expr.constant_part()
        if isinstance(source, MatrixAlgebra):
            if key not in units:
                raise ParseError(f"coeff key {key!r} is not a matrix unit", tok.line, tok.column)
            images[units[key]] = value
        elif isinstance(source, (FreeAlgebra, GroupRing)):
            base = key.removesuffix("^-1")
            inverse = key.endswith("^-1")
            if isinstance(source, FreeAlgebra):
                if inverse:
                    raise ParseError("free-algebra symbols have no inverses", tok.line, tok.column)
                if base not in source.names:
                    raise UnknownGeneratorError(f"unknown symbol {base!r}", tok.line, tok.column)
                images[source.names.index(base) + 1] = value
            else:
                if base not in source.symbols():
                    raise UnknownGeneratorError(f"unknown symbol {base!r}", tok.line, tok.column)
                index = int(base[1:])
                images[-index if inverse else index] = value
        else:
            raise ParseError(f"coefficient maps out of {source} are unsupported", tok.line, tok.column)
    if isinstance(source, GroupRing):
        # derive missing inverse images where an inverse is apparent: an
        # invertible basis word, a star-unitary element, or an involution
        for i in list(images):
            if i > 0 and -i not in images:
                image = images[i]
                candidates = []
                if len(image.terms) == 1:
                    (word, coeff), = image.terms.items()
                    derived = try_word_inverse(target, word, coeff)
                    if derived is not None:
                        candidates.append(derived)
                if target.hermitian:
                    candidates.append(image.star())
                candidates.append(image)
                one = target.unit()
                for candidate in candidates:
                    if image * candidate == one and candidate * image == one:
                        images[-i] = candidate
                        break
    return CoefficientMorphism(source, target, images)


def parse_augmentation(text: str, dga: SemifreeDGA) -> Augmentation:
    target, coeff_images, values = _parse_assignments(text, dga.algebra, set(dga.names))
    if target is None or target == dga.algebra:
        if coeff_images:
            raise ParseError("coeff lines need a distinct target algebra")
        morphism = CoefficientMorphism.identity(dga.algebra)
        target = dga.algebra
    else:
        morphism = _morphism_from_images(dga.algebra, target, coeff_images)
    return Augmentation(
        dga, {name: expr.constant_part() for name, expr in values.items()}, morphism
    )


def parse_coefficient_map(text: str, source: CoefficientAlgebra) -> CoefficientMorphism:
    """A map file assigns images to the source algebra's symbols."""
    target, coeff_images, _values = _parse_assignments(text, source, set(), coeff_only=True)
    if target is None:
        raise ParseError("coefficient map file needs a target declaration")
    return _morphism_from_images(source, target, coeff_images)


def parse_element(
    text: str, dga: SemifreeDGA, substitutions: dict[str, TensorElement] | None = None
) -> TensorElement:
    """Parse one expression over the DGA, e.g. for CLI inputs."""
    tokens = tokenize(text)
    stream = _Stream(tokens)
    stream.skip_separators()
    value = _ExpressionParser(
        stream, dga.algebra, set(dga.names), substitutions or {}
    ).parse()
    stream.skip_separators()
    if (tok := stream.peek()) is not _END:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return value


# -- printing -------------------------------------------------------------


def print_dga(dga: SemifreeDGA) -> str:
    lines = [f"ring {dga.algebra.ring.name}"]
    lines.append(f"algebra {dga.algebra.declaration()}")
    lines.append(f"grading mod {dga.modulus}")
    for gen in dga.generators:
        line = f"gen {gen.name} deg {gen.degree}"
        if gen.action is not None:
            line += f" action {gen.action}"
        if gen.link is not None:
            line += f" link {gen.link[0]} {gen.link[1]}"
        lines.append(line)
    for name in dga.names:
        value = dga.d_of_generator(name)
        if not value.is_zero():
            lines.append(f"d {name} = {value}")
    return "\n".join(lines) + "\n"


TOY_SOURCE = """\
# five-generator toy DGA over a free noncommutative coefficient algebra
ring Z2
algebra free g1 g2
grading mod 0
gen c1 deg 2
gen c2 deg 1
gen c3 deg 1
gen c4 deg 0
gen c5 deg 0
d c1 = c2*g1*c4 + c3
d c2 = c5*g2
d c3 = c5*g2*g1*c4
"""

# same differential with g1, g2 the generators of a free group, whose group
# ring carries the star involution and trace pairing the hermitian-side
# operations need
TOY_HERMITIAN_SOURCE = TOY_SOURCE.replace(
    "algebra free g1 g2", "algebra group free 2 hermitian"
)

_BUILTINS = {"toy": TOY_SOURCE, "toy-hermitian": TOY_HERMITIAN_SOURCE}


def builtin_source(name: str) -> str:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise NcdgaError(
            f"unknown example {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        ) from None


def toy_dga() -> SemifreeDGA:
    return parse_dga(TOY_SOURCE)


def toy_hermitian_dga() -> SemifreeDGA:
    return parse_dga(TOY_HERMITIAN_SOURCE)
