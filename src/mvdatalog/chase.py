"""Oblivious chase over the crisp instance.

Saturation is round-based and semi-naive: round 0 joins the rules with
the input facts, and each later round only with homomorphisms that map
some body atom into the atoms the previous round added (the delta),
matching the other body atoms in hash indexes on (predicate, bound
argument positions) over the round's snapshot. Every pair found is new
and is applied once, in rule-id and then homomorphism order; the chase
stops at the first round that adds no atom. Existential rules draw their
labelled nulls from a registry keyed by (rule id, body homomorphism) so
reruns are stable. Each ground atom is one object: a ground rule's body
holds the atoms its join matched and its head the atom already held, so
later lookups by these atoms hit on identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .core import (
    Atom,
    GroundRule,
    LabelledNull,
    Program,
    Rule,
    Term,
    Variable,
    substitute,
    term_sort_key,
)

Homomorphism = dict[str, Term]


def _hom_key(hom: Mapping[str, Term]) -> tuple:
    return tuple(sorted(hom.items()))


def _hom_order(hom_key: tuple) -> tuple:
    """Sort key of a homomorphism: its image terms in variable-name order."""
    return tuple(term_sort_key(t) for _, t in hom_key)


class NullRegistry:
    """One tuple of fresh nulls per (rule, body homomorphism) pair."""

    def __init__(self) -> None:
        self._assigned: dict[tuple, tuple[LabelledNull, ...]] = {}
        self._counter = itertools.count(1)

    def nulls_for(self, rule: Rule, hom_key: tuple) -> dict[str, LabelledNull]:
        """Fetch (or mint) the nulls of `rule`'s existential head vars for the hom keyed `hom_key`."""
        key = (rule.id, hom_key)
        variables = tuple(sorted(rule.existential_vars))
        if key not in self._assigned:
            self._assigned[key] = tuple(LabelledNull(next(self._counter)) for _ in variables)
        return dict(zip(variables, self._assigned[key]))

    def entries(self) -> list[tuple[int, tuple, tuple[LabelledNull, ...]]]:
        return [(rid, hom_key, nulls) for (rid, hom_key), nulls in self._assigned.items()]

    def all_nulls(self) -> set[LabelledNull]:
        return {n for nulls in self._assigned.values() for n in nulls}

    def __len__(self) -> int:
        return len(self._assigned)


@dataclass(frozen=True)
class ChaseResult:
    """The chase's atoms (olim: the facts plus Gamma's heads), Gamma and nulls.

    olim is the engine's one atom universe, sorted once by `sorted_olim`.
    Its constants all come from the program or the facts, so an atom lies
    over the active domain exactly when it is null-free.
    """

    olim: frozenset[Atom]
    gamma: tuple[GroundRule, ...]
    registry: NullRegistry
    truncated: bool
    steps: int

    @cached_property
    def _sorted_olim(self) -> list[Atom]:
        return sorted(self.olim, key=Atom.sort_key)

    def sorted_olim(self) -> list[Atom]:
        """olim in `Atom.sort_key` order, sorted once per chase; do not mutate."""
        return self._sorted_olim


def _index_by_predicate(atoms: Iterable[Atom]) -> dict[str, list[Atom]]:
    index: dict[str, list[Atom]] = {}
    for a in atoms:
        index.setdefault(a.predicate, []).append(a)
    return index


def _match_atom(pattern: Atom, candidate: Atom, hom: Homomorphism) -> Optional[Homomorphism]:
    """Extend `hom` so that pattern maps onto candidate, or None."""
    if pattern.predicate != candidate.predicate or pattern.arity != candidate.arity:
        return None
    out = hom
    copied = False
    for p, c in zip(pattern.args, candidate.args):
        if isinstance(p, Variable):
            bound = out.get(p.name)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p.name] = c
            elif bound != c:
                return None
        elif p != c:
            return None
    return out


def _plan(rule: Rule, d: int) -> list[tuple]:
    """The join plan for body position d: a step (pattern, old, bound
    positions, their terms) per body atom other than body[d].

    Body atom d is matched in the delta first, the atoms before it outside
    the delta (`old`) and the atoms after it anywhere, so a homomorphism
    with several body atoms in the delta is found once, under the first.
    """
    bound = rule.body[d].variables()
    steps = []
    for j, pattern in enumerate(rule.body):
        if j != d:
            args = pattern.args
            positions = tuple(i for i, t in enumerate(args) if not isinstance(t, Variable) or t.name in bound)
            steps.append((pattern, j < d, positions, tuple(args[i] for i in positions)))
            bound = bound | pattern.variables()
    return steps


class _Index:
    """A round's atom set and delta, with hash indexes keyed on (predicate,
    bound argument positions). An index is built by one scan of the atom
    set when a join first asks for it and then extended with each round's
    new atoms. A fresh `_Index` takes all its atoms as the delta.
    """

    def __init__(self, atoms: Iterable[Atom]):
        # each atom maps to itself, so a lookup by an equal atom returns the held one
        self.atoms = self.delta = {a: a for a in atoms}
        self.delta_by_predicate = _index_by_predicate(self.atoms)
        self.tables: dict[tuple[str, tuple[int, ...]], dict[tuple, list[Atom]]] = {}
        self.plans: dict[tuple[int, int], list[tuple]] = {}

    def add(self, new_atoms: dict[Atom, Atom]) -> None:
        """Make `new_atoms` part of the atom set and the next round's delta."""
        self.delta, self.delta_by_predicate = new_atoms, _index_by_predicate(new_atoms)
        self.atoms |= new_atoms
        for (predicate, positions), table in self.tables.items():
            for a in self.delta_by_predicate.get(predicate, ()):
                table.setdefault(tuple(a.args[i] for i in positions), []).append(a)

    def lookup(self, predicate: str, positions: tuple[int, ...], values: tuple) -> list[Atom]:
        table = self.tables.get((predicate, positions))
        if table is None:
            table = self.tables[predicate, positions] = {}
            for a in self.atoms:
                if a.predicate == predicate:
                    table.setdefault(tuple(a.args[i] for i in positions), []).append(a)
        return table.get(values, [])

    def has_old(self, predicate: str) -> bool:
        """True iff some atom of `predicate` lies outside the delta."""
        return len(self.lookup(predicate, (), ())) > len(self.delta_by_predicate.get(predicate, ()))


def _join(rule: Rule, index: _Index) -> list[tuple[tuple, tuple, Homomorphism, tuple[Atom, ...]]]:
    """The rule's body homomorphisms into the atom set that map at least
    one body atom into the delta, as (`_hom_order`, `_hom_key`, hom, the
    matched body atoms in body order), sorted by `_hom_order`. Depth-first
    on an explicit stack, so body length is not bounded by recursion depth."""
    atoms, delta = index.atoms, index.delta
    results = []
    for d, first in enumerate(rule.body):
        firsts = index.delta_by_predicate.get(first.predicate)
        if not firsts or not all(index.has_old(b.predicate) for b in rule.body[:d]):
            continue
        steps = index.plans.get((rule.id, d))
        if steps is None:
            steps = index.plans[rule.id, d] = _plan(rule, d)
        # matched atoms in plan order: body[d], then the others in body order
        stack = [(0, hom, (c,)) for c in firsts if (hom := _match_atom(first, c, {})) is not None]
        while stack:
            i, hom, matched = stack.pop()
            if i == len(steps):
                key = _hom_key(hom)
                results.append((_hom_order(key), key, hom, matched[1:d + 1] + matched[:1] + matched[d + 1:]))
                continue
            pattern, old, positions, terms = steps[i]
            values = tuple(hom[t.name] if isinstance(t, Variable) else t for t in terms)
            if len(positions) == len(pattern.args):
                # fully bound pattern: a membership test replaces the lookup
                image = atoms.get(Atom(pattern.predicate, values))
                if image is not None and not (old and image in delta):
                    stack.append((i + 1, hom, matched + (image,)))
                continue
            for candidate in index.lookup(pattern.predicate, positions, values):
                if not (old and candidate in delta):
                    extended = _match_atom(pattern, candidate, hom)
                    if extended is not None:
                        stack.append((i + 1, extended, matched + (candidate,)))
    results.sort(key=itemgetter(0))
    return results


def enumerate_homomorphisms(rule: Rule, atoms: Iterable[Atom]) -> list[Homomorphism]:
    """All substitutions of the rule's body variables into `atoms`.

    Deterministic: the result is sorted lexicographically by variable
    name, then by the image terms. This is the chase's join with every
    atom in the delta.
    """
    return [hom for _, _, hom, _ in _join(rule, _Index(atoms))]


def matches(candidate: Atom, head_pattern: Atom, nulls: set[LabelledNull]) -> bool:
    """True iff substituting the pattern's nulls (consistently) yields `candidate`.

    Positions outside `nulls` must agree exactly; repeated occurrences of
    one null must map to a single term.
    """
    if candidate.predicate != head_pattern.predicate or candidate.arity != head_pattern.arity:
        return False
    binding: dict[LabelledNull, Term] = {}
    for p, c in zip(head_pattern.args, candidate.args):
        if isinstance(p, LabelledNull) and p in nulls:
            bound = binding.get(p)
            if bound is None:
                binding[p] = c
            elif bound != c:
                return False
        elif p != c:
            return False
    return True


def _ground_head(rule: Rule, hom: Homomorphism, hom_key: tuple, registry: NullRegistry) -> Atom:
    if rule.existential_vars:
        hom = {**hom, **registry.nulls_for(rule, hom_key)}
    return substitute(rule.head, hom)


def oblivious_chase(
    program: Program,
    facts: Iterable[Atom],
    step_limit: Optional[int] = None,
) -> ChaseResult:
    """Chase `facts` with the (crisp) program, applying each pair once.

    A rule none of whose body predicates gained atoms in the previous
    round is not joined; null numbering, `steps` and the truncation point
    are those of a chase that re-enumerates every pair each round.

    `gamma` holds the ground rule of every applied pair, ordered by rule
    id and then by homomorphism as `enumerate_homomorphisms` orders them.
    On natural termination every (rule, homomorphism) pair whose body maps
    into olim was applied, so `gamma` has exactly one ground rule per pair.
    When the step limit is exceeded the result is flagged truncated and
    `gamma` holds only the rules of the applications performed. olim and
    `gamma` share their atoms: one object per ground atom.
    """
    index = _Index(facts)  # round 0's delta is every fact
    atoms = index.atoms
    for a in atoms:
        if not a.is_ground():
            raise ValueError(f"chase input atom {a} is not ground")
    registry = NullRegistry()
    applied: list[tuple[int, tuple, GroundRule]] = []  # (rule id, hom order, ground rule)
    rules = sorted(program.rules, key=lambda r: r.id)
    steps = 0
    truncated = False

    while not truncated:
        new_atoms: dict[Atom, Atom] = {}
        for rule in rules:
            if truncated:
                break
            if index.delta_by_predicate.keys().isdisjoint(b.predicate for b in rule.body):
                continue
            for order, key, hom, body in _join(rule, index):
                if step_limit is not None and steps >= step_limit:
                    truncated = True
                    break
                steps += 1
                head = _ground_head(rule, hom, key, registry)
                head = atoms.get(head) or new_atoms.setdefault(head, head)
                applied.append((rule.id, order, GroundRule(rule.id, body, head)))
        if not new_atoms:
            # every pair into this unchanged atom set has been applied
            break
        index.add(new_atoms)

    applied.sort(key=itemgetter(0, 1))
    return ChaseResult(frozenset(atoms), tuple(g for _, _, g in applied), registry, truncated, steps)
