"""Parser and pretty-printer for the `.mvdl` textual format.

Grammar (line comments start with `%`):

    fact   :=  [degree '::'] atom '.'          degree defaults to 1
    rule   :=  atom ':-' atom (',' atom)* '.'
    degree :=  NUMBER | INT '/' INT            decimals parse exactly
    atom   :=  ident ['(' term (',' term)* ')']
    term   :=  ident | VARIABLE | NUMBER

Identifiers starting lowercase are constants/predicates, starting
uppercase are variables. NUMBER is ASCII digits with an optional
decimal part (`[0-9]+(.[0-9]+)?`), so other Unicode digits are
unexpected characters. Head variables absent from the body are
existentially quantified unless strict mode is on.

The tokenizer is one `findall` into plain strings; a token's kind is
read off its text, and its position is recovered only for an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NoReturn, Optional, TypeVar

from .core import (
    ONE,
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


# One findall yields the token texts: the group is empty for whitespace
# and comments, and `.` takes any character the grammar has no token for.
_TOKEN_RE = re.compile(r"\s+|%[^\n]*|([0-9]+(?:\.[0-9]+)?|[a-z][A-Za-z0-9_']*|[A-Z_][A-Za-z0-9_]*|:-|::|.)")

# A token's kind by its first character, else by its whole text; the empty text is EOF.
_KINDS = {
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "VAR"),
    ":-": "IMPLIEDBY", "::": "DEGSEP", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "/": "SLASH",
    "": "EOF",
}

T = TypeVar("T")


class _Parser:
    """Recursive descent over the token texts, ending in EOF's empty text,
    and their kinds in a parallel list. An error alone finds its token's
    offset. Each distinct degree or term literal is built once."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [*filter(None, _TOKEN_RE.findall(text)), ""]
        kinds = {token: _KINDS.get(token[:1]) or _KINDS.get(token, "OTHER") for token in set(self.tokens)}
        self.kinds = list(map(kinds.__getitem__, self.tokens))
        self.pos = 0
        self.degrees, self.terms = {}, {}  # literal -> the Fraction or Term built for it
        if "OTHER" in kinds.values():
            self.fail("unexpected character", self.kinds.index("OTHER"))

    def line_column(self, index: int) -> tuple[int, int]:
        offset = [*(m.start() for m in _TOKEN_RE.finditer(self.text) if m.lastindex), len(self.text)][index]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, offset) + 1, offset - line_start + 1

    def fail(self, message: str, index: Optional[int] = None, shown: Optional[str] = None) -> NoReturn:
        """Raise at token `index`, by default the current one, showing its text unless `shown` is given."""
        index = self.pos if index is None else index
        raise ParseError(message, *self.line_column(index), self.tokens[index] if shown is None else shown)

    def expect(self, kind: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind}")
        self.pos = pos + 1
        return self.tokens[pos]

    def statements(self) -> Iterator[tuple[Atom, Optional[list[Atom]], Fraction, int]]:
        """Yield (head, body, degree, first token index) per statement; a fact's body is None."""
        kinds = self.kinds
        while kinds[self.pos] != "EOF":
            start = self.pos
            kind = kinds[start]
            degree, body = ONE, None
            if kind == "NUMBER":
                degree = self.degree()
                self.expect("DEGSEP")
            elif kind != "IDENT":
                self.fail("expected a fact or rule")
            head = self.atom()
            if kind == "IDENT" and kinds[self.pos] == "IMPLIEDBY":
                self.pos += 1
                body = self.comma_separated(self.atom)
            self.expect("DOT")
            yield head, body, degree, start

    def comma_separated(self, item: Callable[[], T]) -> list[T]:
        items = [item()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            items.append(item())
        return items

    def degree(self) -> Fraction:
        first = self.pos
        numerator = self.expect("NUMBER")
        if self.kinds[self.pos] != "SLASH":
            degree = self.degrees.get(numerator)
            if degree is None:
                # Fraction parses decimal strings exactly (no float intermediate).
                degree = self.degrees[numerator] = self.number(Fraction, first)
            return degree
        self.pos += 1
        second = self.pos
        key = (numerator, self.expect("NUMBER"))
        degree = self.degrees.get(key)
        if degree is None:
            if "." in key[0] or "." in key[1]:
                self.fail("fraction degrees must be integer/integer", first)
            denominator = self.number(int, second)
            if denominator == 0:
                self.fail("zero denominator", second)
            degree = self.degrees[key] = Fraction(self.number(int, first), denominator)
        return degree

    def number(self, convert: Callable[[str], T], index: int) -> T:
        try:
            return convert(self.tokens[index])
        except ValueError:
            # Python refuses to convert integer strings beyond sys.get_int_max_str_digits()
            self.fail("too many digits in degree", index)

    def atom(self) -> Atom:
        name = self.expect("IDENT")
        if self.kinds[self.pos] != "LPAREN":
            return Atom(name)
        self.pos += 1
        args = self.comma_separated(self.term)
        self.expect("RPAREN")
        return Atom(name, tuple(args))

    def term(self) -> Term:
        text = self.tokens[self.pos]
        term = self.terms.get(text)
        if term is None:
            kind = self.kinds[self.pos]
            if kind != "VAR" and kind != "IDENT" and kind != "NUMBER":
                self.fail("expected a term")
            term = self.terms[text] = Variable(text) if kind == "VAR" else Constant(text)
        self.pos += 1
        return term


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
        for head, body, degree, start in statements:
            if body is not None:
                rule = make_rule(len(rules), body, head)
                if strict and rule.existential_vars:
                    raise SafetyError(
                        f"head variables {sorted(rule.existential_vars)} do not occur in the body "
                        f"(line {parser.line_column(start)[0]}): {head}"
                    )
                rules.append(rule)
                continue
            if not head.is_ground():
                parser.fail("facts must be ground", start, str(head))
            # checked here, in statement order, and not again by FuzzyDatabase:
            # a parsed term is never a labelled null, a parsed degree a Fraction
            as_degree(degree, positive=True)
            known = facts.get(head)
            if known is not None and known != degree:
                raise DomainError(
                    f"conflicting degrees {known} and {degree} for fact {head} "
                    f"(line {parser.line_column(start)[0]})"
                )
            facts[head] = degree
    # Program.from_rules rejects a predicate used with two arities.
    return Program.from_rules(rules, extra_atoms=list(facts)), FuzzyDatabase.from_validated(facts)


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, e.g. a query argument."""
    parser = _Parser(text)
    a = parser.atom()
    if parser.kinds[parser.pos] == "DOT":
        parser.pos += 1
    if parser.kinds[parser.pos] != "EOF":
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
