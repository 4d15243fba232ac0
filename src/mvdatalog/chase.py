"""Oblivious chase over the crisp instance.

Saturation is round-based and semi-naive: round 0 joins the rules with the
input facts, each later round only with homomorphisms that map some body
atom into the atoms the previous round added (the delta). Each rule is
compiled once per chase, with a slot plan per body position built when a
join first reaches it: a homomorphism is the tuple of its body variables'
images in name order, found by matching body[d] in the delta, then probing
a hash index for each other body atom on the positions a constant or an
earlier atom fixes. Every pair found is new and applied once, in rule-id
and homomorphism order, until a round adds no atom. Heads come from a
template, nulls from a registry keyed by (rule id, homomorphism). olim and
the ground rules share one object per ground atom. The compiled rule also
decides a ground rule's head sum (`head_atoms`) after the chase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import Atom, GroundRule, LabelledNull, Program, Rule, Term, Variable, term_sort_key

Relation = tuple[str, int]  # (predicate, arity)


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """seq -> the tuple of seq's items at `indices`; an itemgetter from two on."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices) if indices else lambda seq: ()


class NullRegistry:
    """One tuple of fresh nulls per (rule, body homomorphism) pair."""

    def __init__(self) -> None:
        self._assigned: dict[tuple, tuple[LabelledNull, ...]] = {}
        self._counter = itertools.count(1)

    def nulls_for(self, rule: Rule, hom_key: tuple) -> tuple[LabelledNull, ...]:
        """The nulls of `rule`'s existential vars in name order for the hom keyed `hom_key`."""
        key = (rule.id, hom_key)
        if key not in self._assigned:
            self._assigned[key] = tuple(LabelledNull(next(self._counter)) for _ in rule.existential_vars)
        return self._assigned[key]

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
    over the active domain exactly when it is null-free. `index` is an
    `_Index` over olim (the chase's own), for head lookups after the chase.
    """

    olim: frozenset[Atom]
    gamma: tuple[GroundRule, ...]
    registry: NullRegistry
    truncated: bool
    steps: int
    index: _Index = field(compare=False, repr=False)

    @cached_property
    def _sorted_olim(self) -> list[Atom]:
        return sorted(self.olim, key=Atom.sort_key)

    def sorted_olim(self) -> list[Atom]:
        """olim in `Atom.sort_key` order, sorted once per chase; do not mutate."""
        return self._sorted_olim


def _by_relation(atoms: Iterable[Atom]) -> dict[Relation, list[Atom]]:
    index: dict[Relation, list[Atom]] = {}
    for a in atoms:
        index.setdefault((a.predicate, len(a.args)), []).append(a)
    return index


class _CompiledRule:
    """A rule compiled for the join and its head sums: `names` (its body
    variables in name order) are a homomorphism's slots, `relations` its
    body atoms' (predicate, arity). `head` holds the predicate, a getter of
    the args from the slots, nulls and head constants, those constants, and
    whether there are nulls; `lookup` the head positions of constants and
    body variables, those of existential variables, and the pairs of
    positions that one existential variable fills."""

    __slots__ = ("rule", "relations", "names", "plans", "head", "lookup")

    def __init__(self, rule: Rule):
        self.rule, self.plans = rule, [None] * len(rule.body)
        self.names = sorted(rule.body_variables())
        self.relations = [(b.predicate, len(b.args)) for b in rule.body]
        existential = rule.existential_vars
        pool = self.names + sorted(existential)
        template, constants, kept, nulls, repeats = [], [], [], [], []
        for p, t in enumerate(rule.head.args):
            if type(t) is Variable:
                i = pool.index(t.name)
            else:
                i = len(pool) + len(constants)
                constants.append(t)
            existential_position = len(self.names) <= i < len(pool)
            (nulls if existential_position else kept).append(p)
            if existential_position and i in template:  # filled before, first at template.index(i)
                repeats.append((p, template.index(i)))
            template.append(i)
        self.head = (rule.head.predicate, _getter(template), tuple(constants), bool(existential))
        self.lookup = (tuple(kept), nulls, repeats)

    def plan(self, d: int) -> tuple:
        """The join of body[d] in the delta with the other atoms, built on first use.

        Registers hold the matched atoms' args in plan order. A plan is
        body[d]'s probe positions, their constants and its repeat checks; a
        step (relation, probe positions, constants, key getter over the
        registers followed by the constants, old, repeat checks) per other
        atom in body order, `old` (outside the delta) before d, so that a
        homomorphism is found at its first delta atom; the slots' getter, or
        None when the registers are the slots."""
        body = self.rule.body
        registers: dict[str, int] = {}  # variable name -> register
        size = 0
        steps = []
        for j in (d, *range(d), *range(d + 1, len(body))):
            args = body[j].args
            probe, keys, constants, repeats = [], [], [], []
            for p, t in enumerate(args):
                if type(t) is not Variable:
                    probe.append(p)
                    keys.append(size + len(constants))
                    constants.append(t)
                elif t.name not in registers:
                    registers[t.name] = size + p
                elif registers[t.name] < size:
                    probe.append(p)
                    keys.append(registers[t.name])
                else:
                    repeats.append((p, registers[t.name] - size))
            if j == d:  # nothing is bound yet: test the constants on each delta atom
                first = (probe, constants, repeats)
            else:
                steps.append((self.relations[j], tuple(probe), tuple(constants), _getter(keys), j < d, repeats))
            size += len(args)
        order = list(map(registers.__getitem__, self.names))
        plan = self.plans[d] = (first, steps, None if order == list(range(size)) else _getter(order))
        return plan


class _Index:
    """A round's atom set and delta, listed by relation, with hash indexes on
    some argument positions, built on a join's first probe and extended each
    round. A fresh `_Index` takes all its atoms as the delta. `rules` holds
    the rules compiled for its joins, `examined` the candidates they took:
    the delta atoms each plan scans and the atoms each probe returns."""

    def __init__(self, atoms: Iterable[Atom]):
        # each atom maps to itself, so a lookup by an equal atom returns the held one
        self.atoms = self.delta = {a: a for a in atoms}
        self.by_relation = self.delta_by_relation = _by_relation(self.atoms)
        self.tables: dict[tuple[Relation, tuple[int, ...]], tuple[dict[tuple, list[Atom]], Callable]] = {}
        self.rules: dict[int, _CompiledRule] = {}
        self.examined = 0

    def add(self, new_atoms: dict[Atom, Atom]) -> None:
        """Make `new_atoms` part of the atom set and the next round's delta."""
        self.delta, self.delta_by_relation = new_atoms, _by_relation(new_atoms)
        self.atoms |= new_atoms
        for relation, atoms in self.delta_by_relation.items():
            self.by_relation.setdefault(relation, []).extend(atoms)
        for (relation, _), (table, key) in self.tables.items():
            for a in self.delta_by_relation.get(relation, ()):
                table.setdefault(key(a.args), []).append(a)

    def table(self, relation: Relation, positions: tuple[int, ...]) -> dict[tuple, list[Atom]]:
        """The atoms of `relation` keyed by the tuple of their args at `positions`."""
        entry = self.tables.get((relation, positions))
        if entry is None:
            table: dict[tuple, list[Atom]] = {}
            key = _getter(positions)
            for a in self.by_relation.get(relation, ()):
                table.setdefault(key(a.args), []).append(a)
            entry = self.tables[relation, positions] = (table, key)
        return entry[0]

    def compiled(self, rule: Rule) -> _CompiledRule:
        """`rule` compiled for this index's joins and head lookups, once."""
        return self.rules.get(rule.id) or self.rules.setdefault(rule.id, _CompiledRule(rule))

    def has_old(self, relation: Relation) -> bool:
        """True iff some atom of `relation` lies outside the delta."""
        return len(self.by_relation.get(relation, ())) > len(self.delta_by_relation.get(relation, ()))


def _join(rule: Rule, index: _Index) -> list[tuple[tuple, tuple, tuple[Atom, ...]]]:
    """The rule's body homomorphisms into the atom set that map a body atom
    into the delta, as (sort key, slots, the matched atoms in body order),
    sorted by the key, the slots' term sort keys. Plans extend partial
    homomorphisms an atom at a time: no recursion bounds the body length."""
    compiled = index.compiled(rule)
    delta, results, examined = index.delta, [], 0
    for d, relation in enumerate(compiled.relations):
        firsts = index.delta_by_relation.get(relation)
        if not firsts or d and not all(map(index.has_old, compiled.relations[:d])):
            continue
        (probe, constants, repeats), steps, slots = compiled.plans[d] or compiled.plan(d)
        examined += len(firsts)
        if probe or repeats:  # constants and repeated variables of body[d]
            firsts = [c for c in firsts if list(map(c.args.__getitem__, probe)) == constants
                      and all(c.args[p] == c.args[q] for p, q in repeats)]
        partials = [(c.args, (c,)) for c in firsts]
        for relation, positions, constants, key, old, repeats in steps:
            table = index.table(relation, positions) if partials else {}
            extended = []
            for registers, matched in partials:
                candidates = table.get(key(registers + constants), ())
                examined += len(candidates)
                for c in candidates:
                    args = c.args
                    if not (old and c in delta or repeats and not all(args[p] == args[q] for p, q in repeats)):
                        extended.append((registers + args, matched + (c,)))
            partials = extended
        for registers, matched in partials:
            values = slots(registers) if slots else registers
            if d:  # back to body order
                matched = matched[1:d + 1] + matched[:1] + matched[d + 1:]
            results.append((tuple(map(term_sort_key, values)), values, matched))
    index.examined += examined
    results.sort(key=itemgetter(0))
    return results


def enumerate_homomorphisms(rule: Rule, atoms: Iterable[Atom]) -> list[dict[str, Term]]:
    """All substitutions of the rule's body variables into `atoms`, sorted
    by their images in variable-name order: the chase's join with every atom
    in the delta."""
    index = _Index(atoms)
    joined = _join(rule, index)
    return [dict(zip(index.rules[rule.id].names, values)) for _, values, _ in joined]


def head_atoms(rule: Rule, g: GroundRule, index: _Index) -> list[Atom]:
    """The atoms whose degrees sum to the head value of g, grounded from `rule`:
    g.head for a plain rule; for an existential one, every atom of `index`
    that agrees with g.head where the rule's head holds a constant or a body
    variable, and with itself where an existential variable repeats (a hash
    lookup on the compiled positions, then the join's repeat check). The
    list may be the index's own."""
    kept, nulls, repeats = index.compiled(rule).lookup
    if not nulls:
        return [g.head]
    args = g.head.args
    for p in nulls:
        if type(args[p]) is not LabelledNull:
            raise AssertionError(f"existential position of {g.head} holds {args[p]}")
    candidates = index.table((g.head.predicate, len(args)), kept).get(tuple(map(args.__getitem__, kept)), [])
    return [a for a in candidates if all(a.args[p] == a.args[q] for p, q in repeats)] if repeats else candidates


def oblivious_chase(program: Program, facts: Iterable[Atom], step_limit: Optional[int] = None) -> ChaseResult:
    """Chase `facts` with the (crisp) program, applying each pair once.

    A rule none of whose body relations gained atoms in the previous round
    is not joined; null numbering, `steps` and the truncation point are those
    of a chase that re-enumerates every pair each round. `gamma` holds the
    ground rule of every applied pair, ordered by rule id and then as
    `enumerate_homomorphisms` orders homomorphisms: one per pair whose body
    maps into olim, or, flagged truncated past the step limit, one per
    application performed. olim and `gamma` share one object per ground atom.
    """
    index = _Index(facts)  # round 0's delta is every fact
    atoms = index.atoms
    for a in atoms:
        if not a.is_ground():
            raise ValueError(f"chase input atom {a} is not ground")
    registry = NullRegistry()
    applied: list[tuple[int, tuple, GroundRule]] = []  # (rule id, hom order, ground rule)
    rules = [index.compiled(r) for r in sorted(program.rules, key=lambda r: r.id)]
    steps, truncated = 0, False

    while not truncated:
        new_atoms: dict[Atom, Atom] = {}
        for compiled in rules:
            if truncated:
                break
            if index.delta_by_relation.keys().isdisjoint(compiled.relations):
                continue
            rule = compiled.rule
            joined = _join(rule, index)
            predicate, head_args, head_constants, existential = compiled.head
            for order, values, body in joined:
                if step_limit is not None and steps >= step_limit:
                    truncated = True
                    break
                steps += 1
                if existential:
                    values += registry.nulls_for(rule, tuple(zip(compiled.names, values)))
                head = Atom(predicate, head_args(values + head_constants))
                head = atoms.get(head) or new_atoms.setdefault(head, head)
                applied.append((rule.id, order, GroundRule(rule.id, body, head)))
        if not new_atoms:
            # every pair into this unchanged atom set has been applied
            break
        index.add(new_atoms)

    applied.sort(key=itemgetter(0, 1))
    return ChaseResult(frozenset(atoms), tuple(g for _, _, g in applied), registry, truncated, steps, index)
