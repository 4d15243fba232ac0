"""Oblivious chase over the crisp instance.

Saturation is round-based and FIFO: every round enumerates all (rule,
body-homomorphism) pairs against a snapshot of the current atom set,
applies the pairs not yet applied, and stops at the first round that
adds no atom. Each pair is applied exactly once, and its ground rule is
recorded as it is applied; existential rules draw their labelled nulls
from a registry keyed by (rule id, body homomorphism) so reruns are
stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    def nulls_for(self, rule: Rule, hom: Mapping[str, Term]) -> dict[str, LabelledNull]:
        """Fetch (or mint) the null tuple witnessing `rule`'s existential head vars."""
        key = (rule.id, _hom_key(hom))
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
    olim: frozenset[Atom]
    gamma: tuple[GroundRule, ...]
    registry: NullRegistry
    truncated: bool
    steps: int

    def sorted_olim(self) -> list[Atom]:
        return sorted(self.olim, key=Atom.sort_key)


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


def enumerate_homomorphisms(
    rule: Rule,
    atoms: Iterable[Atom],
    index: Optional[dict[str, list[Atom]]] = None,
) -> list[Homomorphism]:
    """All substitutions of the rule's body variables into `atoms`.

    Deterministic: the result is sorted lexicographically by variable
    name, then by the image terms.
    """
    atom_set = atoms if isinstance(atoms, (set, frozenset)) else set(atoms)
    if index is None:
        index = _index_by_predicate(atom_set)
    results: list[Homomorphism] = []

    def extend(i: int, hom: Homomorphism) -> None:
        if i == len(rule.body):
            results.append(dict(hom))
            return
        pattern = rule.body[i]
        grounded = _ground_under(pattern, hom)
        if grounded is not None:
            # fully bound pattern: a membership test replaces the scan
            if grounded in atom_set:
                extend(i + 1, hom)
            return
        for candidate in index.get(pattern.predicate, ()):
            extended = _match_atom(pattern, candidate, hom)
            if extended is not None:
                extend(i + 1, extended)

    extend(0, {})
    results.sort(key=lambda h: _hom_order(_hom_key(h)))
    return results


def _ground_under(pattern: Atom, hom: Mapping[str, Term]) -> Optional[Atom]:
    """The pattern's image when all its variables are bound, else None."""
    args = []
    for t in pattern.args:
        if isinstance(t, Variable):
            bound = hom.get(t.name)
            if bound is None:
                return None
            args.append(bound)
        else:
            args.append(t)
    return Atom(pattern.predicate, tuple(args))


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


def _ground_rule(rule: Rule, hom: Homomorphism, registry: NullRegistry) -> GroundRule:
    body = tuple(substitute(a, hom) for a in rule.body)
    if rule.existential_vars:
        full = dict(hom)
        full.update(registry.nulls_for(rule, hom))
        head = substitute(rule.head, full)
    else:
        head = substitute(rule.head, hom)
    return GroundRule(rule.id, body, head)


def oblivious_chase(
    program: Program,
    facts: Iterable[Atom],
    step_limit: Optional[int] = None,
) -> ChaseResult:
    """Chase `facts` with the (crisp) program, applying each pair once.

    `gamma` holds the ground rule of every applied pair, ordered by rule
    id and then by homomorphism as `enumerate_homomorphisms` orders them.
    On natural termination every (rule, homomorphism) pair whose body maps
    into olim was applied, so `gamma` has exactly one ground rule per pair.
    When the step limit is exceeded the result is flagged truncated and
    `gamma` holds only the rules of the applications performed.
    """
    atoms: set[Atom] = set(facts)
    for a in atoms:
        if not a.is_ground():
            raise ValueError(f"chase input atom {a} is not ground")
    registry = NullRegistry()
    applied: dict[tuple, GroundRule] = {}
    rules = sorted(program.rules, key=lambda r: r.id)
    steps = 0
    truncated = False

    index = _index_by_predicate(atoms)
    while not truncated:
        new_atoms: set[Atom] = set()
        for rule in rules:
            if truncated:
                break
            for hom in enumerate_homomorphisms(rule, atoms, index):
                key = (rule.id, _hom_key(hom))
                if key in applied:
                    continue
                if step_limit is not None and steps >= step_limit:
                    truncated = True
                    break
                steps += 1
                grounded = _ground_rule(rule, hom, registry)
                applied[key] = grounded
                if grounded.head not in atoms:
                    new_atoms.add(grounded.head)
        if not new_atoms:
            # every pair into this unchanged atom set has been applied
            break
        for a in new_atoms:
            index.setdefault(a.predicate, []).append(a)
        atoms |= new_atoms

    order = sorted(applied, key=lambda k: (k[0], _hom_order(k[1])))
    gamma = tuple(applied[k] for k in order)
    return ChaseResult(frozenset(atoms), gamma, registry, truncated, steps)
