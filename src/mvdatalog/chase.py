"""Oblivious chase over the crisp instance, on ints.

A term is its rank: the program's and the facts' constant names in
sorted order, then null n at C + n - 1 for C constants
(`term_sort_key`'s order), and a ground atom is its key, (predicate,
rank tuple), with an int id given when the chase first holds it, the
facts first. A database's facts arrive as name keys, (predicate, names),
and one pass (`_rank`) sorts the names and ranks them; `core` atoms
given to `oblivious_chase` are keyed by name at its boundary.
Saturation is semi-naive: each round joins only homomorphisms that map
some body atom into the previous round's new atoms (the delta, an id
range). Each rule is compiled once per chase, with a slot plan per body
position: a homomorphism is its body variables' ranks in name order,
also its sort key, found by matching body[d] in the delta, then probing
hash indexes on the positions a constant or an earlier atom fixes.
Gamma is kept as (rule id, head id, body ids); the compiled rule also
decides a ground rule's head sum (`head_ids`). `ChaseResult` builds
`core` terms, atoms and ground rules only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

from .core import Atom, Constant, FuzzyDatabase, GroundRule, LabelledNull, Program, Rule, Term, Variable, atom_text

Relation = tuple[str, int]  # (predicate, arity)
Key = tuple[str, tuple]  # (predicate, args): ranks in the chase, terms in `engine.verify_model`
Ground = tuple[int, int, tuple[int, ...]]  # a ground rule: (rule id, head id, body ids)


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

    def entries(self) -> list[tuple[int, tuple, tuple[LabelledNull, ...]]]:
        return list(self)

    def all_nulls(self) -> set[LabelledNull]:
        return {n for _, _, nulls in self for n in nulls}


@dataclass(frozen=True, eq=False)
class ChaseResult:
    """The chase's atoms (olim: the facts plus Gamma's heads), Gamma and nulls.

    Atom i is keys[i], (predicate, rank tuple), a fact below
    `fact_count`; rank r is the constant names[r] below `first_null`,
    len(names), else null r - first_null + 1, up to null `null_count`.
    `ground` is Gamma as (rule id, head id, body ids), `nulls` the
    registry as (rule id, slot names, slot ranks, null ranks), `index`
    the chase's own. The constants all come from the program or the
    facts, so an atom lies over the active domain exactly when it is
    null-free. `ids` maps each key back to its atom's id, so `id_of`
    finds a `core` atom without building any, and `text` writes one.
    `terms`, `atoms`, `olim`, `gamma`, `registry` and `sorted_olim()`
    are views in `core` objects, built on first read, with one object
    per atom. `given` is None, or, when `oblivious_chase` was given
    atoms, the caller's own, which `atoms` holds as its facts.
    """

    keys: list[Key]
    ids: dict[Key, int]
    names: list[str]
    fact_count: int
    null_count: int
    ground: list[Ground]
    nulls: list[tuple[int, list[str], tuple[int, ...], tuple[int, ...]]]
    truncated: bool
    steps: int
    index: _Index = field(repr=False)
    given: Optional[list[Atom]] = field(repr=False)

    @property
    def first_null(self) -> int:
        return len(self.names)

    @cached_property
    def terms(self) -> list[Term]:
        """Term r is terms[r]."""
        return _terms(self.names, self.null_count)

    @cached_property
    def texts(self) -> list[str]:
        """Term r's text, str(terms[r]), without building the terms."""
        return [*self.names, *(str(LabelledNull(n)) for n in range(1, self.null_count + 1))]

    def text(self, i: int) -> str:
        """Atom i's text, str(atoms[i]), without building the atom."""
        predicate, ranks = self.keys[i]
        return atom_text(predicate, list(map(self.texts.__getitem__, ranks)))

    @cached_property
    def order(self) -> list[int]:
        """The atom ids in `Atom.sort_key` order: by relation, then by rank tuple."""
        by_relation = self.index.by_relation
        return [i for relation in sorted(by_relation) for _, i in sorted(by_relation[relation])]

    @cached_property
    def atoms(self) -> list[Atom]:
        """Atom i is atoms[i]."""
        given, terms = self.given or [], self.terms.__getitem__
        return [*given, *(Atom(p, tuple(map(terms, args))) for p, args in self.keys[len(given):])]

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

    def id_of(self, atom: Atom) -> Optional[int]:
        """The id of the ground atom `atom`, None when the chase does not hold
        it: a constant by its rank, null n at `first_null` + n - 1 for n >= 1
        (below 1 it would alias a constant's rank)."""
        rank, ranks = self.index.rank, []
        for t in atom.args:
            r = rank.get(t.name) if type(t) is Constant else (
                self.first_null + t.id - 1 if type(t) is LabelledNull and t.id >= 1 else None)
            if r is None:
                return None
            ranks.append(r)
        return self.ids.get((atom.predicate, tuple(ranks)))

    def sorted_olim(self) -> list[Atom]:
        """olim in `Atom.sort_key` order, sorted once per chase."""
        return list(map(self.atoms.__getitem__, self.order))


def _terms(names: list[str], nulls: int) -> list[Term]:
    """The terms by rank: a constant per name, then nulls 1 to `nulls`."""
    return [*map(Constant, names), *map(LabelledNull, range(1, nulls + 1))]


def _rank(
    rules: Iterable[Rule], facts: Collection[tuple[str, tuple]], nulls: Collection[int] = ()
) -> tuple[dict[str, int], list[Key]]:
    """Rank the constant names of `rules` and `facts` in sorted order, null n
    at C + n - 1 after the C constants, and key each fact by its args'
    ranks. A fact's args are constant names, or null ids as ints, `nulls`
    the ids that occur. Returns the ranks by name and the facts' keys, in
    order."""
    named = {t.name for r in rules for b in (*r.body, r.head) for t in b.args if type(t) is Constant}
    named.update(*[args for _, args in facts])
    named.difference_update(nulls)
    rank = {name: r for r, name in enumerate(sorted(named))}
    lookup = {**rank, **{n: len(rank) + n - 1 for n in nulls}} if nulls else rank
    return rank, [(p, tuple(map(lookup.__getitem__, args))) for p, args in facts]


def _rank_atoms(rules: Iterable[Rule], atoms: Iterable[Atom]) -> tuple[dict[str, int], dict[Key, Atom], int]:
    """`_rank` of ground `core` atoms, a constant by its name and null n by
    the int n. Returns the ranks by name, each distinct key with the first
    atom that has it, and the highest null id (0 without one)."""
    atoms, named, nulls = list(atoms), [], set()
    for a in atoms:
        if not a.is_ground():
            raise ValueError(f"chase input atom {a} is not ground")
        nulls.update([t.id for t in a.args if type(t) is LabelledNull])
        named.append((a.predicate, tuple([t.name if type(t) is Constant else t.id for t in a.args])))
    rank, keys = _rank(rules, named, nulls)
    held: dict[Key, Atom] = {}
    for key, a in zip(keys, atoms):
        held.setdefault(key, a)
    return rank, held, max([0, *nulls])


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


def enumerate_homomorphisms(rule: Rule, atoms: Iterable[Atom]) -> list[dict[str, Term]]:
    """All substitutions of the rule's body variables into `atoms`, sorted
    by their images in variable-name order: the chase's join with every atom
    in the delta."""
    rank, held, top = _rank_atoms([rule], atoms)
    index = _Index(list(held), rank)
    terms = _terms(list(rank), top)
    return [dict(zip(index.compiled(rule).names, map(terms.__getitem__, slots))) for slots, _ in _join(rule, index)]


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
    """Chase `facts` with the (crisp) program, applying each pair once.

    `facts` is a database, whose name keys are ranked as they are, or
    ground `core` atoms, nulls allowed, which are keyed at this boundary
    and kept as the result's `given`.

    A rule none of whose body relations gained atoms in the previous round
    is not joined; null numbering, `steps` and the truncation point are those
    of a chase that re-enumerates every pair each round. Gamma holds the
    ground rule of every applied pair, ordered by rule id and then as
    `enumerate_homomorphisms` orders homomorphisms: one per pair whose body
    maps into olim, or, flagged truncated past the step limit, one per
    application performed.
    """
    if isinstance(facts, FuzzyDatabase):
        given, top = None, 0
        rank, keys = _rank(program.rules, facts.facts)
    else:
        rank, held, top = _rank_atoms(program.rules, facts)
        keys, given = list(held), list(held.values())
    fact_count = len(keys)
    ids = dict(zip(keys, range(fact_count)))
    index = _Index(keys, rank)
    nulls: list[tuple[int, list[str], tuple[int, ...], tuple[int, ...]]] = []
    applied: list[tuple[int, tuple[int, ...], int, tuple[int, ...]]] = []  # (rule id, slots, head, body)
    rules = [index.compiled(r) for r in sorted(program.rules, key=lambda r: r.id)]
    fresh = first_null = len(rank)  # the next null's rank
    steps, truncated = 0, False

    while not truncated:
        for compiled in rules:
            if truncated:
                break
            if index.delta_by_relation.keys().isdisjoint(compiled.relations):
                continue
            rule = compiled.rule
            predicate, head_args, head_constants, existential = compiled.head
            for slots, body in _join(rule, index):
                if step_limit is not None and steps >= step_limit:
                    truncated = True
                    break
                steps += 1
                values = slots
                if existential:
                    made = tuple(range(fresh, fresh + existential))
                    fresh += existential
                    nulls.append((rule.id, compiled.names, slots, made))
                    values += made
                key = (predicate, head_args(values + head_constants))
                if (head := ids.setdefault(key, len(keys))) == len(keys):
                    keys.append(key)
                applied.append((rule.id, slots, head, body))
        if len(keys) == index.end:
            # every pair into this unchanged atom set has been applied
            break
        index.add()

    applied.sort()
    ground = [(r, h, body) for r, _, h, body in applied]
    return ChaseResult(
        keys, ids, list(rank), fact_count, max(top, fresh - first_null), ground, nulls, truncated, steps, index, given
    )
