"""Saturation on ints: `settle`, a least fixpoint by degree, and the
oblivious chase, which is `settle` at one degree.

A term is its rank: the program's and the facts' constant names in
sorted order, then null n at C + n - 1 for C constants
(`term_sort_key`'s order), and a ground atom is its key, (predicate,
rank tuple), with an int id assigned when the loop first derives it, the
facts first. A database's facts arrive as name keys, (predicate, names),
and one pass (`_rank`) sorts the names and ranks them; `core` atoms
passed to `oblivious_chase` become a database at its boundary.
`settle` settles a whole degree at a time, that level being the delta
(at one degree, a chase round), and joins only homomorphisms that map
some body atom into it. Each rule is compiled once per loop, with a
slot plan per body position: a homomorphism is its body variables'
ranks in name order, also its sort key, found by matching body[d] in
the delta, then probing hash indexes, each built on first use, on the
positions a constant or an earlier atom fixes.
Gamma is kept as (rule id, head id, body ids); the compiled rule also
decides a ground rule's head sum (`head_ids`). `ChaseResult` builds
`core` terms, atoms and ground rules only when they are read; its
`AtomTable` part, the keys and the ways to write and find an atom, is
also the table that `Engine.settled` builds from `settle`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, itemgetter, neg
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from .core import ONE, Atom, Constant, FuzzyDatabase, GroundRule, LabelledNull, Program, Rule, Term, Variable, atom_text

Relation = tuple[str, int]  # (predicate, arity)
Key = tuple[str, tuple]  # (predicate, args): ranks in the chase, terms in `engine.verify_model`
Ground = tuple[int, int, tuple[int, ...]]  # a ground rule: (rule id, head id, body ids)
Scaled = Union[int, Fraction]  # a degree in units of 1/L: an int, or a Fraction where L is 1
Made = tuple[int, list[str], tuple[int, ...], tuple[int, ...]]  # (rule id, slot names, slot ranks, null ranks)
Applied = tuple[int, tuple[int, ...], int, tuple[int, ...]]  # a fired ground rule: (rule id, slots, head id, body ids)


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """seq -> the tuple of seq's items at `indices`; an itemgetter from two on."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices) if indices else lambda seq: ()


class NullRegistry(list):
    """One tuple of fresh nulls per applied (rule, body homomorphism) pair of
    an existential rule: (rule id, the homomorphism's (name, term) pairs in
    name order, the nulls of its existential variables in name order), in
    the order the chase made them."""

    def all_nulls(self) -> set[LabelledNull]:
        return {n for _, _, nulls in self for n in nulls}


class AtomTable:
    """Ground atoms by int id: atom i is keys[i], (predicate, rank tuple), the
    facts first. Rank r is the constant of the r-th name of
    `rank` (names to ranks, sorted) below `first_null`, else null
    r - first_null + 1, up to null `null_count`. `ids` maps each key back
    to its id, so `id_of` finds a `core` atom without building any, and
    `text` writes one. `order` is the ids in key order, `Atom.sort_key`'s
    when each predicate has one arity, as in an `Instance`. `terms` and
    `atoms` are views in `core` objects, built from the keys on first read.
    """

    def __init__(self, keys: list[Key], ids: dict[Key, int], rank: dict[str, int], null_count: int) -> None:
        self.keys, self.ids, self.rank, self.null_count = keys, ids, rank, null_count

    @property
    def first_null(self) -> int:
        return len(self.rank)

    @cached_property
    def terms(self) -> list[Term]:
        """Term r is terms[r]."""
        return _terms(list(self.rank), self.null_count)

    @cached_property
    def texts(self) -> list[str]:
        """Term r's text, str(terms[r]), without building the terms."""
        return [*self.rank, *(str(LabelledNull(n)) for n in range(1, self.null_count + 1))]

    def text(self, i: int) -> str:
        """Atom i's text, str(atoms[i]), without building the atom."""
        predicate, ranks = self.keys[i]
        return atom_text(predicate, list(map(self.texts.__getitem__, ranks)))

    @cached_property
    def order(self) -> list[int]:
        """The atom ids in key order."""
        return sorted(range(len(self.keys)), key=self.keys.__getitem__)

    @cached_property
    def atoms(self) -> list[Atom]:
        """Atom i is atoms[i]."""
        terms = self.terms.__getitem__
        return [Atom(p, tuple(map(terms, args))) for p, args in self.keys]

    def id_of(self, atom: Atom) -> Optional[int]:
        """The id of the ground atom `atom`, None when the table does not hold
        it: a constant by its rank, null n at `first_null` + n - 1 for n >= 1
        (below 1 it would alias a constant's rank)."""
        rank, ranks = self.rank, []
        for t in atom.args:
            r = rank.get(t.name) if type(t) is Constant else (
                self.first_null + t.id - 1 if type(t) is LabelledNull and t.id >= 1 else None)
            if r is None:
                return None
            ranks.append(r)
        return self.ids.get((atom.predicate, tuple(ranks)))


class ChaseResult(AtomTable):
    """The chase's atoms (olim: the facts plus Gamma's heads), Gamma and nulls.

    An `AtomTable` with Gamma as (rule id, head id, body ids) in `ground`,
    the registry as (rule id, slot names, slot ranks, null ranks) in
    `nulls`, and the chase's own `index`. The constants all come from the
    program or the facts, so an atom lies over the active domain exactly
    when it is null-free. `olim`, `gamma`, `registry` and `sorted_olim()`
    are views in `core` objects, built on first read, one object per atom.
    """

    ground: list[Ground]
    nulls: list[Made]
    truncated: bool
    steps: int
    index: _Index

    def __init__(self, keys, ids, rank, null_count, ground, nulls, truncated, steps, index):
        super().__init__(keys, ids, rank, null_count)
        self.ground, self.nulls, self.truncated, self.steps, self.index = ground, nulls, truncated, steps, index

    @cached_property
    def olim(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    @cached_property
    def gamma(self) -> tuple[GroundRule, ...]:
        atoms = self.atoms
        return tuple(GroundRule(r, tuple(map(atoms.__getitem__, body)), atoms[h]) for r, h, body in self.ground)

    @cached_property
    def registry(self) -> NullRegistry:
        terms = self.terms.__getitem__
        return NullRegistry([(r, tuple(zip(names, map(terms, slots))), tuple(map(terms, made)))
                             for r, names, slots, made in self.nulls])

    def sorted_olim(self) -> list[Atom]:
        """olim in `order`, sorted once per chase."""
        return list(map(self.atoms.__getitem__, self.order))


def _terms(names: list[str], nulls: int) -> list[Term]:
    """The terms by rank: a constant per name, then nulls 1 to `nulls`."""
    return [*map(Constant, names), *map(LabelledNull, range(1, nulls + 1))]


def _rank(rules: Iterable[Rule], facts: Collection[tuple[str, tuple[str, ...]]]) -> tuple[dict[str, int], list[Key]]:
    """Rank the constant names of `rules` and `facts` in sorted order, and
    key each fact, (predicate, names), by its args' ranks. Returns the
    ranks by name and the facts' keys, in order."""
    named = {t.name for r in rules for b in (*r.body, r.head) for t in b.args if type(t) is Constant}
    named.update(*[args for _, args in facts])
    rank = {name: r for r, name in enumerate(sorted(named))}
    return rank, [(p, tuple(map(rank.__getitem__, args))) for p, args in facts]


class _CompiledRule:
    """A rule compiled for the join and its head sums, its constants as
    ranks: `names` (its body variables in name order) are a homomorphism's
    slots, `relations` its body atoms' (predicate, arity). `head` holds the
    predicate, a getter of the args from the slots, nulls and head
    constants, those constants, and the number of nulls; `lookup` the head
    positions of constants and body variables, those of existential
    variables, and the pairs of positions that one existential variable
    fills."""

    __slots__ = ("rule", "rank", "relations", "names", "plans", "head", "lookup")

    def __init__(self, rule: Rule, rank: dict[str, int]):
        self.rule, self.rank, self.plans = rule, rank, [None] * len(rule.body)
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
                constants.append(rank[t.name])
            existential_position = len(self.names) <= i < len(pool)
            (nulls if existential_position else kept).append(p)
            if existential_position and i in template:  # filled before, first at template.index(i)
                repeats.append((p, template.index(i)))
            template.append(i)
        self.head = (rule.head.predicate, _getter(template), tuple(constants), len(existential))
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
                    constants.append(self.rank[t.name])
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
    """A round's atoms and delta, by id into `keys`, listed by relation as
    (args, id) pairs, with hash indexes on some argument positions, built on
    a join's first probe and extended each round. The delta is the ids from
    `start` on; a fresh `_Index` takes all of `keys` as the delta. `rules`
    holds the rules compiled for its joins with the ranks `rank`,
    `examined` the candidates they took: the delta atoms each plan scans and
    the atoms each probe returns."""

    def __init__(self, keys: list[Key], rank: Optional[dict[str, int]] = None):
        self.keys, self.rank, self.end, self.examined = keys, rank, 0, 0
        self.by_relation: dict[Relation, list[tuple[tuple, int]]] = {}
        self.tables: dict[tuple[Relation, tuple[int, ...]], tuple[dict[tuple, list], Callable]] = {}
        self.rules: dict[int, _CompiledRule] = {}
        self.add()

    def add(self) -> None:
        """Make the atoms keyed since the last call the next round's delta."""
        self.start, self.end = self.end, len(self.keys)
        self.delta_by_relation = delta = {}
        for i in range(self.start, self.end):
            predicate, args = self.keys[i]
            delta.setdefault((predicate, len(args)), []).append((args, i))
        for relation, atoms in delta.items():
            self.by_relation.setdefault(relation, []).extend(atoms)
        for (relation, _), (table, key) in self.tables.items():
            for c in self.delta_by_relation.get(relation, ()):
                table.setdefault(key(c[0]), []).append(c)

    def table(self, relation: Relation, positions: tuple[int, ...]) -> dict[tuple, list[tuple[tuple, int]]]:
        """The (args, id) pairs of `relation` keyed by the tuple of their args at `positions`."""
        entry = self.tables.get((relation, positions))
        if entry is None:
            table: dict[tuple, list] = {}
            key = _getter(positions)
            for c in self.by_relation.get(relation, ()):
                table.setdefault(key(c[0]), []).append(c)
            entry = self.tables[relation, positions] = (table, key)
        return entry[0]

    def compiled(self, rule: Rule) -> _CompiledRule:
        """`rule` compiled for this index's joins and head lookups, once."""
        return self.rules.get(rule.id) or self.rules.setdefault(rule.id, _CompiledRule(rule, self.rank))

    def has_old(self, relation: Relation) -> bool:
        """True iff some atom of `relation` lies outside the delta."""
        return len(self.by_relation.get(relation, ())) > len(self.delta_by_relation.get(relation, ()))


def _join(rule: Rule, index: _Index) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The rule's body homomorphisms into the atom set that map a body atom
    into the delta, as (slots, the matched atoms' ids in body order),
    sorted by the slots. Plans extend partial homomorphisms an atom at a
    time: no recursion bounds the body length."""
    compiled = index.compiled(rule)
    start, results, examined = index.start, [], 0
    for d, relation in enumerate(compiled.relations):
        firsts = index.delta_by_relation.get(relation)
        if not firsts or d and not all(map(index.has_old, compiled.relations[:d])):
            continue
        (probe, constants, repeats), steps, slots = compiled.plans[d] or compiled.plan(d)
        examined += len(firsts)
        if probe or repeats:  # constants and repeated variables of body[d]
            firsts = [(args, i) for args, i in firsts if list(map(args.__getitem__, probe)) == constants
                      and all(args[p] == args[q] for p, q in repeats)]
        partials = [(args, (i,)) for args, i in firsts]
        for relation, positions, constants, key, old, repeats in steps:
            table = index.table(relation, positions) if partials else {}
            extended = []
            for registers, matched in partials:
                candidates = table.get(key(registers + constants), ())
                examined += len(candidates)
                for args, i in candidates:
                    if not (old and i >= start or repeats and not all(args[p] == args[q] for p, q in repeats)):
                        extended.append((registers + args, matched + (i,)))
            partials = extended
        for registers, matched in partials:
            if d:  # back to body order
                matched = matched[1:d + 1] + matched[:1] + matched[d + 1:]
            results.append((slots(registers) if slots else registers, matched))
    index.examined += examined
    results.sort()
    return results


def head_ids(compiled: _CompiledRule, args: tuple, index: _Index) -> list[int]:
    """The ids of `index`'s atoms in the head sum of a ground rule of
    compiled's existential rule with head args `args`: a hash lookup on the
    positions of the head's constants and body variables, then the join's
    check where an existential variable repeats."""
    kept, _, repeats = compiled.lookup
    candidates = index.table((compiled.head[0], len(args)), kept).get(tuple(map(args.__getitem__, kept)), ())
    return [i for a, i in candidates if all(a[p] == a[q] for p, q in repeats)]


def oblivious_chase(
    program: Program, facts: Union[FuzzyDatabase, Iterable[Atom]], step_limit: Optional[int] = None
) -> ChaseResult:
    """Chase `facts` with the (crisp) program, applying each pair once:
    `settle` with K = L = 1 and every fact seeded at 1, each level a round.

    `facts` is a database, or `core` atoms, which enter as the database
    that holds each at degree 1: its `DomainError` refuses an atom that is
    not ground or holds a null (fresh nulls are numbered from 1, and would
    alias it). olim's facts equal the atoms but are new objects.

    A rule is joined in a round only when one of its body relations gained
    atoms in the previous one and each holds an atom; null numbering,
    `steps` and the truncation point are those of a chase that
    re-enumerates every pair each round. Gamma holds the ground rule of
    every applied pair, ordered by rule id and then by the homomorphism's
    images in variable-name order: one per pair whose body maps into olim,
    or, flagged truncated past the step limit, one per application
    performed.
    """
    if not isinstance(facts, FuzzyDatabase):
        facts = FuzzyDatabase(dict.fromkeys(facts, ONE))
    rank, keys = _rank(program.rules, facts.facts)
    applied: list[Applied] = []
    ids, index, nulls, steps, truncated = settle(
        program, rank, keys, 1, 1, dict.fromkeys(range(len(keys)), 1), step_limit, applied)
    ground = [(r, h, body) for r, _, h, body in sorted(applied)]
    return ChaseResult(keys, ids, rank, sum(len(m) for *_, m in nulls), ground, nulls, truncated, steps, index)


def settle(
    program: Program, rank: dict[str, int], keys: list[Key], k: Scaled, L: int, nu: dict[int, Scaled],
    step_limit: Optional[int] = None, applied: Optional[list[Applied]] = None,
) -> tuple[dict[Key, int], _Index, list[Made], int, bool]:
    """Raise `nu`, seeds by id into `keys` (ranked by `rank`), to the least
    degrees with nu(H) >= nu(body) - 1 + K for every ground rule, in units
    of 1/L as is K = k/L, appending each derived atom of positive degree to
    `keys`. Returns the ids by key, the index, the nulls made, the steps
    and whether `step_limit` cut the loop short.

    Knuth's generalisation of Dijkstra's algorithm over ([0, 1], max,
    Lukasiewicz t-norm): a rule's value is never above its weakest body
    atom, so the atoms at the top degree are final. A heap of the distinct
    degrees, with the ids pushed at each, pops a whole level; its atoms,
    less stale ids that `nu` has since raised, settle as the index's delta,
    and the semi-naive `_join` of each rule that touches it, in rule-id
    order, fires a ground rule once, when its last body atom settles. An
    existential rule's ground rule makes fresh nulls, ranks from len(rank)
    on; after `step_limit` ground rules the loop stops before the next one
    makes its nulls or its head. `oblivious_chase` runs it at one degree,
    where a level is a round, and passes `applied` to record each fired
    ground rule: then every atom enters the index, as `head_ids` probes
    head relations, and settles in id order, so that its index position is
    its id. Without it, only atoms of a relation that some body reads enter.
    """
    ids = dict(zip(keys, range(len(keys))))
    levels: dict[Scaled, list[int]] = {}  # degree -> the ids pushed at it
    for a, d in nu.items():
        levels.setdefault(d, []).append(a)
    heap = sorted(map(neg, levels))  # a sorted list is a heap
    values = []  # the settled atoms' degrees, by position in the index
    index = _Index([], rank)
    compiled = [index.compiled(r) for r in sorted(program.rules, key=attrgetter("id"))]
    # each rule with its body relations and its value less its body sum
    rules = [(c, frozenset(c.relations), k - len(c.relations) * L) for c in compiled]
    # the predicates whose atoms enter the index: every one (None) when `applied` records, else those a body reads
    joined = None if applied is not None else {p for c in compiled for p, _ in c.relations}
    nulls, fresh, steps, truncated = [], len(rank), 0, False  # fresh: the next null's rank
    pop, push, indexed, value_of = heapq.heappop, heapq.heappush, index.keys, values.__getitem__
    while heap and not truncated:
        level = -pop(heap)
        for a in levels.pop(level):
            if nu[a] == level and (joined is None or keys[a][0] in joined):  # else stale or unjoined
                indexed.append(keys[a])
                values.append(level)
        if len(values) == index.end:
            continue
        index.add()
        delta, held = index.delta_by_relation.keys(), index.by_relation.keys()
        for c, relations, bias in rules:  # joined when the delta and every body relation hold atoms
            if truncated or delta.isdisjoint(relations) or not held >= relations:
                continue
            predicate, head_args, constants, existential = c.head
            found = _join(c.rule, index)
            if step_limit is not None and steps + len(found) > step_limit:
                del found[step_limit - steps:]
                truncated = True
            steps += len(found)
            for slots, body in found:
                value = bias + sum(map(value_of, body))
                if value > 0:
                    if existential:  # fresh nulls, in the order the ground rules fire
                        made = tuple(range(fresh, fresh := fresh + existential))
                        nulls.append((c.rule.id, c.names, slots, made))
                    key = (predicate, head_args((slots + made if existential else slots) + constants))
                    if (h := ids.setdefault(key, len(keys))) == len(keys):
                        keys.append(key)
                    if applied is not None:
                        applied.append((c.rule.id, slots, h, body))
                    if value > nu.get(h, 0):
                        nu[h] = value
                        if not (bucket := levels.setdefault(value, [])):
                            push(heap, -value)
                        bucket.append(h)
    return ids, index, nulls, steps, truncated
