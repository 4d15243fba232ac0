"""Parser for the `.mvdl` textual format.

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

The tokenizer is one `findall` into plain strings, comments dropped
after it; a token's kind is read off its text, and its position is
recovered only for an error.
The descent reads an atom as its name key, (predicate, tuple of term
texts), a text being a variable exactly when it starts with
`[A-Z_]`. Facts stay name keys, deduplicated and checked on those
tuples, and become a `FuzzyDatabase` as they are; only rules, which are
few, are built as `core` atoms.
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
    NameKey,
    Program,
    Rule,
    Variable,
    as_degree,
    atom_text,
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


# One findall yields the token texts and the comments, and skips whitespace;
# `\S` takes any character the grammar has no token for.
_TOKEN_RE = re.compile(r"[a-z][A-Za-z0-9_']*|[(),.]|[0-9]+(?:\.[0-9]+)?|[A-Z_][A-Za-z0-9_]*|:-|::|%[^\n]*|\S")

# A token's kind by its first character, else by its whole text; the empty text is EOF.
_KINDS = {
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "VAR"),
    ":-": "IMPLIEDBY", "::": "DEGSEP", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "/": "SLASH",
    "": "EOF",
}

_TERM_KINDS = frozenset(("VAR", "IDENT", "NUMBER"))

T = TypeVar("T")


class _Parser:
    """Recursive descent over the token texts, ending in EOF's empty text,
    and their kinds in a parallel list; `variables` holds the texts of
    kind VAR. An error alone finds its token's offset. Each distinct
    degree literal, and each distinct term of a rule, is built once."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        if "%" in text:
            self.tokens = [token for token in self.tokens if token[0] != "%"]
        self.tokens.append("")
        kinds = {token: _KINDS.get(token[:1]) or _KINDS.get(token, "OTHER") for token in set(self.tokens)}
        self.kinds = list(map(kinds.__getitem__, self.tokens))
        self.variables = {token for token, kind in kinds.items() if kind == "VAR"}
        self.pos = 0
        self.degrees, self.terms = {}, {}  # literal -> the Fraction or Term built for it
        if "OTHER" in kinds.values():
            self.fail("unexpected character", self.kinds.index("OTHER"))

    def line_column(self, index: int) -> tuple[int, int]:
        offset = [*(m.start() for m in _TOKEN_RE.finditer(self.text) if m[0][0] != "%"), len(self.text)][index]
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

    def statements(self) -> Iterator[tuple[NameKey, Optional[list[NameKey]], Fraction, int]]:
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
                body = [self.atom()]
                while kinds[self.pos] == "COMMA":
                    self.pos += 1
                    body.append(self.atom())
            self.expect("DOT")
            yield head, body, degree, start

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

    def atom(self) -> NameKey:
        """The next atom's name key: (predicate, its term texts)."""
        tokens, kinds, pos = self.tokens, self.kinds, self.pos
        if kinds[pos] != "IDENT":
            self.fail("expected IDENT")
        name = tokens[pos]
        pos += 1
        if kinds[pos] != "LPAREN":
            self.pos = pos
            return name, ()
        args = []
        while True:
            pos += 1
            if kinds[pos] not in _TERM_KINDS:
                self.fail("expected a term", pos)
            args.append(tokens[pos])
            pos += 1
            if kinds[pos] != "COMMA":
                break
        if kinds[pos] != "RPAREN":
            self.fail("expected RPAREN", pos)
        self.pos = pos + 1
        return name, tuple(args)

    def to_atom(self, key: NameKey) -> Atom:
        """The `core` atom of a name key."""
        predicate, args = key
        terms = self.terms
        for t in args:
            if t not in terms:
                terms[t] = Variable(t) if t in self.variables else Constant(t)
        return Atom(predicate, tuple(map(terms.__getitem__, args)))


def parse(text: str, *, strict: bool = False) -> tuple[Program, FuzzyDatabase]:
    """Parse one `.mvdl` text into a program and fuzzy database."""
    return parse_many([text], strict=strict)


def parse_many(texts: Iterable[str], *, strict: bool = False) -> tuple[Program, FuzzyDatabase]:
    """Parse and merge several texts; conflicting duplicate facts are errors.

    Every text is read before any statement is checked, so a syntax error
    anywhere is reported before a semantic one.
    """
    parsed = [(parser, list(parser.statements())) for parser in map(_Parser, texts)]
    facts: dict[NameKey, Fraction] = {}
    rules: list[Rule] = []
    for parser, statements in parsed:
        variables = parser.variables
        for head, body, degree, start in statements:
            if body is not None:
                rule = make_rule(len(rules), list(map(parser.to_atom, body)), parser.to_atom(head))
                if strict and rule.existential_vars:
                    raise SafetyError(
                        f"head variables {sorted(rule.existential_vars)} do not occur in the body "
                        f"(line {parser.line_column(start)[0]}): {rule.head}"
                    )
                rules.append(rule)
                continue
            if not variables.isdisjoint(head[1]):
                parser.fail("facts must be ground", start, atom_text(*head))
            # checked here, in statement order, and not again by FuzzyDatabase:
            # a parsed degree is a Fraction
            as_degree(degree, positive=True)
            known = facts.setdefault(head, degree)
            if known is not degree and known != degree:
                raise DomainError(
                    f"conflicting degrees {known} and {degree} for fact {atom_text(*head)} "
                    f"(line {parser.line_column(start)[0]})"
                )
    database = FuzzyDatabase.from_facts(facts)
    # Program.from_rules rejects a predicate used with two arities.
    return Program.from_rules(rules, relations=database.relations), database


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, e.g. a query argument."""
    parser = _Parser(text)
    key = parser.atom()
    if parser.kinds[parser.pos] == "DOT":
        parser.pos += 1
    if parser.kinds[parser.pos] != "EOF":
        parser.fail("trailing input after atom")
    if not parser.variables.isdisjoint(key[1]):
        raise NonGroundQuery(f"query atom must be ground: {atom_text(*key)}")
    return parser.to_atom(key)


def parse_degree(text: str) -> Fraction:
    """Parse a degree as the file grammar writes one (`1`, `0.8`, `4/5`); range unchecked."""
    parser = _Parser(text)
    degree = parser.degree()
    parser.expect("EOF")
    return degree

