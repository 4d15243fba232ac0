"""Core domain types and Lukasiewicz semantics.

Truth degrees are exact rationals (`fractions.Fraction`) in [0, 1]; the
whole engine avoids floating point, so every comparison such as
``degree >= threshold`` is an exact decision. A fuzzy database keys its
facts by name, (predicate, tuple of constant names), as the parser reads
them; its map over `Atom`s is a view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[Fraction, int, str]


class DomainError(ValueError):
    """A truth degree lies outside its permitted range, or a fuzzy fact is ill-formed."""


class ArityError(ValueError):
    """A predicate symbol is used with inconsistent arities."""


def as_degree(value: RationalLike, *, positive: bool = False) -> Fraction:
    """Coerce to an exact truth degree in [0, 1] ((0, 1] when positive=True)."""
    try:
        degree = value if type(value) is Fraction else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational degree: {value!r}") from exc
    numerator = degree.numerator  # exact int comparisons: the denominator is positive
    if numerator < 0 or numerator > degree.denominator:
        raise DomainError(f"degree {degree} outside [0, 1]")
    if positive and numerator == 0:
        raise DomainError("degree must be strictly positive")
    return degree


# ---------------------------------------------------------------------------
# Terms and atoms


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LabelledNull:
    """Fresh constant invented by the chase to witness an existential head variable.

    Ids are unique within one chase run and can never collide with constants
    (distinct type, distinct rendering).
    """

    id: int

    def __str__(self) -> str:
        return f"_:n{self.id}"


Term = Union[Variable, Constant, LabelledNull]


def term_sort_key(term: Term) -> tuple:
    """Total order over terms: constants, then variables, then nulls."""
    if isinstance(term, Constant):
        return (0, term.name, 0)
    if isinstance(term, Variable):
        return (1, term.name, 0)
    return (2, "", term.id)


@dataclass(frozen=True)
class Atom:
    """A relational atom. Ground atoms (no variables) are hashable map keys."""

    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return Variable not in map(type, self.args)

    def has_nulls(self) -> bool:
        return LabelledNull in map(type, self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Variable)}

    def sort_key(self) -> tuple:
        return (self.predicate, len(self.args), tuple(map(term_sort_key, self.args)))

    def __str__(self) -> str:
        return atom_text(self.predicate, [str(t) for t in self.args])


def atom_text(predicate: str, args: Sequence[str]) -> str:
    """An atom as `.mvdl` writes it, from its args' text: bare when nullary."""
    return f"{predicate}({', '.join(args)})" if args else predicate


def atom(predicate: str, *args: Union[Term, str]) -> Atom:
    """Convenience constructor mirroring the surface syntax.

    String arguments starting with an uppercase letter become variables,
    anything else a constant; Term instances pass through unchanged.
    """
    converted: list[Term] = []
    for a in args:
        if isinstance(a, (Variable, Constant, LabelledNull)):
            converted.append(a)
        elif a[:1].isupper():
            converted.append(Variable(a))
        else:
            converted.append(Constant(a))
    return Atom(predicate, tuple(converted))


# ---------------------------------------------------------------------------
# Rules, programs, databases


@dataclass(frozen=True)
class Rule:
    """A rule body_1 (x) ... (x) body_n -> head.

    Head variables that do not occur in the body are existentially
    quantified (the Datalog+- convention); plain rules have none.
    `existential_vars` is derived from body and head on first use, so no
    rule can carry a wrong set.
    """

    id: int
    body: tuple[Atom, ...]
    head: Atom

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule body must be non-empty")
        for a in (*self.body, self.head):
            if a.has_nulls():
                raise ValueError("labelled nulls cannot occur in a rule")

    @cached_property
    def existential_vars(self) -> frozenset[str]:
        return frozenset(self.head.variables() - self.body_variables())

    @property
    def is_existential(self) -> bool:
        return bool(self.existential_vars)

    def body_variables(self) -> set[str]:
        return set().union(*(a.variables() for a in self.body))

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


def make_rule(rule_id: int, body: Sequence[Atom], head: Atom) -> Rule:
    """Build a rule from any sequence of body atoms; head-only variables are existential."""
    return Rule(rule_id, tuple(body), head)


def infer_signature(relations: Iterable[tuple[str, int]], signature: Optional[dict[str, int]] = None) -> dict[str, int]:
    """Accumulate a predicate -> arity map from (predicate, arity) pairs, rejecting inconsistent arities."""
    sig = dict(signature) if signature else {}
    for predicate, arity in relations:
        known = sig.setdefault(predicate, arity)
        if known != arity:
            raise ArityError(f"predicate {predicate!r} used with arities {known} and {arity}")
    return sig


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    signature: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_rules(
        cls, rules: Sequence[Rule], extra_atoms: Iterable[Atom] = (), relations: Iterable[tuple[str, int]] = ()
    ) -> "Program":
        """The program of `rules`, its signature also over `extra_atoms` and
        the (predicate, arity) pairs `relations`."""
        rules = tuple(rules)
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ValueError("rule ids must be unique")
        atoms = [a for r in rules for a in (*r.body, r.head)] + list(extra_atoms)
        return cls(rules, infer_signature([*((a.predicate, a.arity) for a in atoms), *relations]))

    @cached_property
    def _rules_by_id(self) -> dict[int, Rule]:
        return {r.id: r for r in self.rules}

    def rule_by_id(self, rule_id: int) -> Rule:
        return self._rules_by_id[rule_id]

    @property
    def has_existential_rules(self) -> bool:
        return any(r.is_existential for r in self.rules)


NameKey = tuple[str, tuple[str, ...]]  # a database atom by name: (predicate, its constants' names)


def _name_key(a: Atom) -> Optional[NameKey]:
    """`a`'s key in a database, None when some argument is not a constant."""
    if all(type(t) is Constant for t in a.args):
        return a.predicate, tuple([t.name for t in a.args])
    return None


@dataclass(frozen=True, init=False)
class FuzzyDatabase:
    """The partial truth assignment tau: finitely many ground atoms with
    degrees in (0, 1]. `facts` keys each atom by name, in input order;
    `entries`, the same map over `core` atoms, and `relations`, the
    distinct (predicate, arity) pairs, are views built on first read."""

    facts: dict[NameKey, Fraction]

    def __init__(self, entries: Optional[Mapping[Atom, RationalLike]] = None) -> None:
        entries = {} if entries is None else entries
        facts: dict[NameKey, Fraction] = {}
        exact = True
        for a, d in entries.items():
            if not a.is_ground():
                raise DomainError(f"database atom {a} is not ground")
            if a.has_nulls():
                raise DomainError(f"database atom {a} contains a labelled null")
            exact &= as_degree(d, positive=True) is d
            facts[_name_key(a)] = d
        if not exact:  # keep the exact degrees, in a copy: the caller's dict stays as it is
            entries = {a: as_degree(d) for a, d in entries.items()}
            facts = dict(zip(facts, entries.values()))
        object.__setattr__(self, "facts", facts)
        self.__dict__["entries"] = entries

    @classmethod
    def from_facts(cls, facts: dict[NameKey, Fraction]) -> "FuzzyDatabase":
        """A database over name-keyed facts that the caller has checked as
        `__init__` would: `Fraction` degrees in (0, 1]. The parser's facts
        are; nothing is re-checked."""
        database = object.__new__(cls)
        object.__setattr__(database, "facts", facts)
        return database

    @cached_property
    def entries(self) -> dict[Atom, Fraction]:
        """`facts` over `core` atoms, in the same order, one `Constant` per name."""
        constant = {name: Constant(name) for name in {n for _, args in self.facts for n in args}}.__getitem__
        return {Atom(p, tuple(map(constant, args))): d for (p, args), d in self.facts.items()}

    @cached_property
    def relations(self) -> list[tuple[str, int]]:
        """The distinct (predicate, arity) pairs of the facts, in first-seen order."""
        return list(dict.fromkeys([(p, len(args)) for p, args in self.facts]))

    def degree(self, a: Atom) -> Optional[Fraction]:
        return self.facts.get(_name_key(a))

    def __contains__(self, a: Atom) -> bool:
        return _name_key(a) in self.facts

    def __len__(self) -> int:
        return len(self.facts)


@dataclass(frozen=True)
class TruthAssignment:
    """A total valuation with finite support: atoms off-support have
    degree 0. The constructor trusts `support`'s degrees."""

    support: dict[Atom, Fraction] = field(default_factory=dict)

    def __call__(self, a: Atom) -> Fraction:
        return self.support.get(a, ZERO)

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class GroundRule:
    """A grounding of a rule; body order (and multiplicity) is preserved."""

    origin_rule_id: int
    body: tuple[Atom, ...]
    head: Atom

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


@dataclass(frozen=True)
class Instance:
    """A program paired with a fuzzy database and the satisfaction level K."""

    program: Program
    database: FuzzyDatabase
    K: Fraction = ONE
    signature: dict[str, int] = field(init=False, repr=False, compare=False)  # program's and database's

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", as_degree(self.K, positive=True))
        object.__setattr__(self, "signature", infer_signature(self.database.relations, self.program.signature))


# ---------------------------------------------------------------------------
# Lukasiewicz connectives


def luk_implies(a: Fraction, b: Fraction) -> Fraction:
    return min(ONE, ONE - a + b)


def body_truth(nu: TruthAssignment, body: Sequence[Atom]) -> Fraction:
    """Conjunction of the body atoms: max(0, sum(nu(G_i)) - (l - 1))."""
    if not body:
        raise ValueError("body must be non-empty")
    total = sum((nu(a) for a in body), ZERO)
    return max(ZERO, total - (len(body) - 1))


def rule_gap(nu: TruthAssignment, gamma: GroundRule, K: Fraction) -> Fraction:
    """nu(head) - (nu(body) - 1 + K); >= 0 iff K-satisfied, == 0 iff tight."""
    return nu(gamma.head) - (body_truth(nu, gamma.body) - ONE + K)


def k_satisfies(nu: TruthAssignment, gamma: GroundRule, K: Fraction) -> bool:
    """True iff the implication value min(1, 1 - nu(body) + nu(head)) reaches K."""
    return rule_gap(nu, gamma, K) >= ZERO

