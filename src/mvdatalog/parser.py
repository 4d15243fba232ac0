"""Parser and pretty-printer for the `.mvdl` textual format.

Grammar (line comments start with `%`):

    fact   :=  [degree '::'] atom '.'          degree defaults to 1
    rule   :=  atom ':-' atom (',' atom)* '.'
    degree :=  NUMBER | INT '/' INT            decimals parse exactly
    atom   :=  ident ['(' term (',' term)* ')']
    term   :=  ident | VARIABLE | NUMBER

Identifiers starting lowercase are constants/predicates, starting
uppercase are variables. Head variables absent from the body are
existentially quantified unless strict mode is on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NoReturn, Optional, TypeVar

from .core import (
    ONE,
    ZERO,
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    Program,
    Rule,
    Term,
    Variable,
    as_degree,
    make_rule,
)


class ParseError(ValueError):
    """Malformed syntax; always carries a source location."""

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        where = f"line {line}, column {column}"
        shown = f" near {token!r}" if token else ""
        super().__init__(f"{message} ({where}{shown})")


class SafetyError(ValueError):
    """A head variable does not occur in the body (strict mode only)."""


class NonGroundQuery(ValueError):
    """A query atom contains variables."""


_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>\s+|%[^\n]*)
    | (?P<NUMBER>\d+(?:\.\d+)?)
    | (?P<IDENT>[a-z][A-Za-z0-9_']*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<IMPLIEDBY>:-)
    | (?P<DEGSEP>::)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<SLASH>/)
    | (?P<OTHER>.)
    """,
    re.VERBOSE | re.DOTALL,
)

T = TypeVar("T")


class _Parser:
    """Tokens are (kind, text, offset) tuples; line and column are worked
    out from the offset only when an error reports them."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "OTHER":
                self.fail("unexpected character", (kind, m.group(), m.start()))
            if kind != "SKIP":
                self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("EOF", "", len(text)))
        self.pos = 0

    def line_column(self, offset: int) -> tuple[int, int]:
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, offset) + 1, offset - line_start + 1

    def fail(self, message: str, token: Optional[tuple[str, str, int]] = None) -> NoReturn:
        _, text, offset = token or self.tokens[self.pos]
        raise ParseError(message, *self.line_column(offset), text)

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            self.fail(f"expected {kind}")
        return self.next()

    def statements(self) -> Iterator[tuple[Atom, Optional[list[Atom]], Fraction, int]]:
        """Yield (head, body, degree, offset) per statement; a fact's body is None."""
        while self.peek() != "EOF":
            kind, _, offset = self.tokens[self.pos]
            degree, body = ONE, None
            if kind == "NUMBER":
                degree = self.degree()
                self.expect("DEGSEP")
            elif kind != "IDENT":
                self.fail("expected a fact or rule")
            head = self.atom()
            if kind == "IDENT" and self.peek() == "IMPLIEDBY":
                self.next()
                body = self.comma_separated(self.atom)
            self.expect("DOT")
            yield head, body, degree, offset

    def comma_separated(self, item: Callable[[], T]) -> list[T]:
        items = [item()]
        while self.peek() == "COMMA":
            self.next()
            items.append(item())
        return items

    def degree(self) -> Fraction:
        first = self.expect("NUMBER")
        if self.peek() != "SLASH":
            # Fraction parses decimal strings exactly (no float intermediate).
            return self.number(Fraction, first)
        self.next()
        second = self.expect("NUMBER")
        if "." in first[1] or "." in second[1]:
            self.fail("fraction degrees must be integer/integer", first)
        denominator = self.number(int, second)
        if denominator == 0:
            self.fail("zero denominator", second)
        return Fraction(self.number(int, first), denominator)

    def number(self, convert: Callable[[str], T], token: tuple[str, str, int]) -> T:
        try:
            return convert(token[1])
        except ValueError:
            # Python refuses to convert integer strings beyond sys.get_int_max_str_digits()
            self.fail("too many digits in degree", token)

    def atom(self) -> Atom:
        name = self.expect("IDENT")[1]
        if self.peek() != "LPAREN":
            return Atom(name)
        self.next()
        args = self.comma_separated(self.term)
        self.expect("RPAREN")
        return Atom(name, tuple(args))

    def term(self) -> Term:
        kind, text, _ = self.tokens[self.pos]
        if kind == "VAR":
            self.next()
            return Variable(text)
        if kind != "IDENT" and kind != "NUMBER":
            self.fail("expected a term")
        self.next()
        return Constant(text)


def parse(text: str, *, strict: bool = False) -> tuple[Program, FuzzyDatabase]:
    """Parse one `.mvdl` text into a program and fuzzy database."""
    return parse_many([text], strict=strict)


def parse_many(texts: Iterable[str], *, strict: bool = False) -> tuple[Program, FuzzyDatabase]:
    """Parse and merge several texts; conflicting duplicate facts are errors.

    Every text is read before any statement is checked, so a syntax error
    anywhere is reported before a semantic one.
    """
    parsed = [(parser, list(parser.statements())) for parser in map(_Parser, texts)]
    facts: dict[Atom, Fraction] = {}
    rules: list[Rule] = []
    for parser, statements in parsed:
        for head, body, degree, offset in statements:
            if body is not None:
                rule = make_rule(len(rules), body, head)
                if strict and rule.existential_vars:
                    raise SafetyError(
                        f"head variables {sorted(rule.existential_vars)} do not occur in the body "
                        f"(line {parser.line_column(offset)[0]}): {head}"
                    )
                rules.append(rule)
                continue
            if not head.is_ground():
                parser.fail("facts must be ground", ("", str(head), offset))
            # FuzzyDatabase validates every degree; a bad one fails here, in statement order
            if not ZERO < degree <= ONE:
                as_degree(degree, positive=True)
            known = facts.get(head)
            if known is not None and known != degree:
                raise DomainError(
                    f"conflicting degrees {known} and {degree} for fact {head} "
                    f"(line {parser.line_column(offset)[0]})"
                )
            facts[head] = degree
    # Program.from_rules rejects a predicate used with two arities.
    return Program.from_rules(rules, extra_atoms=list(facts)), FuzzyDatabase(facts)


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, e.g. a query argument."""
    parser = _Parser(text)
    a = parser.atom()
    if parser.peek() == "DOT":
        parser.next()
    if parser.peek() != "EOF":
        parser.fail("trailing input after atom")
    if not a.is_ground():
        raise NonGroundQuery(f"query atom must be ground: {a}")
    return a


def parse_degree(text: str) -> Fraction:
    """Parse a degree as the file grammar writes one (`1`, `0.8`, `4/5`); range unchecked."""
    parser = _Parser(text)
    degree = parser.degree()
    parser.expect("EOF")
    return degree


def format_instance(program: Program, database: FuzzyDatabase) -> str:
    """Canonical text: facts sorted by predicate then arguments, rules in order.

    parse(format_instance(p, d)) is structurally identical to (p, d) for
    parser-produced instances (rule ids are positional).
    """
    lines = []
    for a in sorted(database.entries, key=Atom.sort_key):
        lines.append(f"{database.entries[a]} :: {a}.")
    for r in program.rules:
        lines.append(f"{r.head} :- {', '.join(str(b) for b in r.body)}.")
    return "\n".join(lines) + ("\n" if lines else "")
