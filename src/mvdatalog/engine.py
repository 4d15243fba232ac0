"""Model computation and fact entailment.

`Engine.degrees` picks the route and answers by the id of an atom of
`Engine.table`, facts first in input order. The database enters as pins,
the degrees a model must equal, and seeds, the lower bounds it must
reach, by fact id. A plain program on the default route `settle`s
(`chase.settle`, on `_scaled` ints), under any step limit: a least
fixpoint that settles a whole degree at a time and joins the rules as
atoms settle, so it grounds only the rules that fire; the chase, the
same loop at one degree, does not run. Every other engine chases once
(`Engine.chase`, built on first read, refuses an existential program
that is not weakly acyclic unless a step limit bounds it, and a chase
the limit cut short) and solves on its rows: each ground rule as
(heads, body), the ids of its head sum's atoms and of its
body (`_rows`), the one type that the fixpoint and both LPs read. Rows
whose heads hold at most one unpinned atom are Horn and go to an exact
least fixpoint on ints, which also finds a pin the rules overshoot; only
D, the free heads of the others closed under the rows they feed, goes to
an exact LP over its columns in rank order (`horn_split`). An atom is
active exactly when it is null-free, and the chase's compiled rules
decide each ground rule's head sum.
`Engine.query` reads one degree by the table's `id_of`; `Engine.model`
is a view of the degrees in `core` atoms, in `Atom.sort_key` order, for
library callers: `minimal_model` and `preferred_model` read it, and
`k_truth` reads `Engine.query`. The
full LP over olim (`eoptk_columns`) is the reference route behind
`use_fast_path=False` and what `mvdl ground` prints, named by atom.
`verify_model` and a Kleene-style oracle read the chase's `core` views.
`lp` loads with the first LP built or solved, `termination` with an
existential program's `Engine.witness`: a plain program loads neither.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .chase import AtomTable, ChaseResult, Scaled, _Index, _rank, head_ids, oblivious_chase, settle
from .core import (
    ONE,
    ZERO,
    Atom,
    FuzzyDatabase,
    GroundRule,
    Instance,
    RationalLike,
    TruthAssignment,
    as_degree,
    body_truth,
    infer_signature,
    luk_implies,
)

if TYPE_CHECKING:  # `lp` and `termination` load where they run, not with the engine
    from .lp import ColumnProgram, LinearProgram
    from .termination import WitnessCycle


class NoObliviousBaseModel(Exception):
    """No K-fuzzy model whose positive atoms lie inside the chase limit exists.

    Says nothing about models without an oblivious base; the instance may
    still have those, unless the error is an Unsatisfiable.
    """


class Unsatisfiable(NoObliviousBaseModel):
    """The instance has no K-fuzzy model, so none with an oblivious base."""


class TruncatedChase(Exception):
    """The chase hit its step limit; any model computed from it would be unsound."""


class UnboundedChase(TruncatedChase):
    """An existential program failed the weak-acyclicity test, and no step limit bounds its chase."""

    def __init__(self, cycle: WitnessCycle) -> None:
        super().__init__(f"program is not weakly acyclic: cycle {cycle}; set a step_limit")
        self.cycle = cycle


class IterationLimit(Exception):
    """The fixpoint oracle failed to stabilize within its round budget."""


class ModelKind(enum.Enum):
    MINIMAL = "minimal"
    PREFERRED = "preferred"


@dataclass(frozen=True)
class GroundModel:
    assignment: TruthAssignment
    kind: ModelKind
    K: Fraction
    certain_atoms: frozenset[Atom] = frozenset()


@dataclass(frozen=True)
class QueryResult:
    atom: Atom
    threshold: Fraction
    entailed: bool
    degree: Fraction
    model_relative: bool = False


def _require_complete(chase: ChaseResult) -> None:
    if chase.truncated:
        raise TruncatedChase(f"chase stopped after {chase.steps} steps")


def ground_atoms(chase: ChaseResult, tau: FuzzyDatabase) -> list[Atom]:
    """The LP's atom universe, sorted: olim, which is tau's support plus
    the atoms of the ground rules (`tau` is read by the chase already)."""
    return chase.sorted_olim()


def build_optk(instance: Instance, chase: ChaseResult) -> LinearProgram:
    """The base LP: minimize the total truth subject to every ground rule.

    Each ground rule G_1,...,G_l -> H contributes
    sum(1 - x_i) + x_head >= K, i.e. x_head - sum(x_i) >= K - l: the LP
    of `eoptk_columns` without its tie-break, each column named by its
    atom, str(atom), as `mvdl ground` prints it.
    """
    return eoptk_columns(instance, chase).labelled()[0]


Row = tuple[list[int], tuple[int, ...]]  # a ground rule as (heads, body), atom ids


def _rows(chase: ChaseResult) -> Iterator[Row]:
    """Each ground rule of Gamma, in order, as the one row type that the
    fixpoint and both LPs read: (heads, body), the ids of the atoms whose
    degrees sum to its head value and of its body atoms. The heads are its
    head for a plain rule; for an existential one every atom of the chase
    that matches the head pattern (nulls replaced consistently by
    anything), by `head_ids`. Rule ids stop here."""
    index, keys = chase.index, chase.keys
    for r, h, body in chase.ground:
        compiled = index.rules[r]
        yield head_ids(compiled, keys[h][1], index) if compiled.lookup[1] else [h], body


def eoptk_columns(
    instance: Instance,
    chase: ChaseResult,
    seeds: Optional[Mapping[int, Fraction]] = None,
    pins: Optional[Mapping[int, Fraction]] = None,
) -> ColumnProgram:
    """The existential LP and its tie-break over columns in [0, 1], column j
    the j-th atom of chase.sorted_olim(), which names it: `column_program`
    of every row of `_rows(chase)`, `pins` fixed and `seeds` as
    lower bounds, both by atom id; both default to tau's degrees, each
    fact found by the chase's `id_of`."""
    _require_complete(chase)
    if pins is None or seeds is None:
        tau = {chase.id_of(a): d for a, d in instance.database.entries.items()}
        pins, seeds = tau if pins is None else pins, tau if seeds is None else seeds
    columns = column_program(chase, chase.order, _rows(chase), pins, seeds, instance.K)
    columns.names = chase.sorted_olim()
    return columns


def column_program(
    chase: ChaseResult,
    universe: Sequence[int],
    rows: Iterable[Row],
    pins: Mapping[int, Fraction],
    seeds: Mapping[int, Fraction],
    K: Fraction,
) -> ColumnProgram:
    """The LP over the chase's atoms `universe` (ids) as columns in [0, 1],
    named by their ids, `pins`' fixed and each other one in `seeds` bounded
    below by its seed: a row (heads, body) is sum(heads) - sum(body) >=
    K - len(body), in ints scaled by K's denominator. The objective sums
    the null-free atoms, the tie-break the null-carrying ones."""
    from .lp import ColumnProgram
    column = {a: j for j, a in enumerate(universe)}
    bounds = [(ZERO, ONE)] * len(universe)
    for a, d in seeds.items():
        if a not in pins and (j := column.get(a)) is not None:
            bounds[j] = (d, ONE)
    costs: tuple[dict[int, int], dict[int, int]] = ({}, {})  # objective, secondary
    keys, first_null = chase.keys, chase.first_null
    for j, a in enumerate(universe):
        costs[max(keys[a][1], default=-1) >= first_null][j] = 1
    K, scale = K.as_integer_ratio()  # K - l scaled is K - l * scale
    lp_rows = []
    for heads, body in rows:
        coeffs: dict[int, int] = {}
        for h in heads:
            j = column[h]
            coeffs[j] = coeffs.get(j, 0) + scale
        for b in body:
            j = column[b]
            coeffs[j] = coeffs.get(j, 0) - scale
        lp_rows.append(({j: a for j, a in coeffs.items() if a}, K - len(body) * scale, scale))
    fixed = {column[a]: d for a, d in pins.items()}
    return ColumnProgram(bounds, fixed, lp_rows, *costs, universe)


def horn_split(chase: ChaseResult, pins: Mapping[int, Fraction]) -> tuple[list[Row], list[Row], set[int]]:
    """Split Gamma's `_rows` at D, the atoms that only the LP can decide, all by id.

    A row's free heads are its heads outside `pins`; with at most one it
    is Horn. D is the free heads of the other rows, closed under Gamma: a
    row with a body atom in D puts its free heads in D. Returns the rows
    that mention no atom of D, all Horn, for `least_fixpoint`; the others,
    for the LP; and D. Each row goes into one list, in `_rows` order.
    """
    rows = []
    core: set[int] = set()
    for row in _rows(chase):
        free = [h for h in row[0] if h not in pins]
        if len(free) > 1:
            core.update(free)
        rows.append((row, free))
    if core:
        feeds: dict[int, list[list[int]]] = {}  # body atom -> free heads of its rows
        for (_, body), free in rows:
            for b in body:
                feeds.setdefault(b, []).append(free)
        stack = list(core)
        while stack:
            for free in feeds.get(stack.pop(), ()):
                for h in free:
                    if h not in core:
                        core.add(h)
                        stack.append(h)
    horn: list[Row] = []
    rest: list[Row] = []
    for row, free in rows:
        (rest if core and not (core.isdisjoint(free) and core.isdisjoint(row[1])) else horn).append(row)
    return horn, rest, core


_LCM_CAP_BITS = 256  # well below where the read-back gcds outgrow Fraction arithmetic (1,400-3,200 bits on a path)


def _scaled(K: Fraction, seeds: Mapping[int, Fraction]) -> tuple[int, Scaled, dict[int, Scaled]]:
    """L, the lcm of the denominators of K and the seeds, and K and the seeds
    as ints scaled by L, as is every degree the rules derive from them;
    past `_LCM_CAP_BITS` bits of L, L is 1 and they stay Fractions."""
    L = K.denominator
    for d in seeds.values():
        L = lcm(L, d.denominator) if L.bit_length() <= _LCM_CAP_BITS else L
    if L.bit_length() > _LCM_CAP_BITS:
        return 1, K, dict(seeds)
    return L, K.numerator * (L // K.denominator), {a: d.numerator * (L // d.denominator) for a, d in seeds.items()}


def _read_back(
    nu: dict[int, Scaled], L: int, start: Mapping[int, Scaled], pins: Iterable[int]
) -> tuple[dict[int, Fraction], Optional[int]]:
    """`_scaled` degrees as Fractions, one per distinct value, and the first
    of `pins` that nu raises above its `start` (None if none): nu only
    grows, so that is a test for equality, made on the scaled ints."""
    over = next((a for a in pins if nu[a] != start[a]), None)
    degrees = {v: Fraction(v, L) for v in set(nu.values())}
    return {a: degrees[v] for a, v in nu.items()}, over


def least_fixpoint(
    rows: Sequence[Row], seeds: Mapping[int, Fraction], K: Fraction, pins: Collection[int]
) -> tuple[dict[int, Fraction], Optional[int]]:
    """The least nu >= seeds with nu(H) >= nu(body) - 1 + K - offset for
    every row (heads, body) of `rows`, by atom id: H is its one head
    outside `pins`, or its first head when all are pinned, and the offset
    is the sum of its other heads' seed degrees, as an existential head
    sum's pinned atoms hold them. Also returns the first of `pins`, seeds
    held at their seed degree, that nu raises above its seed, None when
    there is none.

    Knuth's generalisation of Dijkstra's algorithm: a rule's value is
    monotone in its body and never above its weakest body atom, so the
    atoms at the largest tentative degree are final. A heap of the distinct
    degrees, with the ids pushed at each, pops a whole level at a time, as
    `settle` does. Each row fires once, when the last of its distinct body
    atoms settles. Seeds are lower bounds, not pins; only positive degrees
    are returned, by id. The degrees and the rule values are `_scaled`
    ints, each distinct one read back once (`_read_back`).
    """
    L, k, nu = _scaled(K, seeds)
    start = nu.copy()
    waiting: dict[int, list[int]] = {}
    unsettled: list[int] = []
    fires = []  # a row's H, body and value less its body sum
    for i, (heads, body) in enumerate(rows):
        distinct = set(body) if len(body) > 1 else body
        unsettled.append(len(distinct))
        for b in distinct:
            waiting.setdefault(b, []).append(i)
        h, bias = heads[0], k - len(body) * L
        if len(heads) > 1:  # H by a plain loop, cheaper per row than next() over a generator
            for h in heads:
                if h not in pins:
                    break
            else:
                h = heads[0]
            bias -= sum([nu[a] for a in heads if a != h])
        fires.append((h, body, bias))
    levels: dict[Scaled, list[int]] = {}  # degree -> the ids pushed at it
    for a, d in nu.items():
        levels.setdefault(d, []).append(a)
    heap = sorted(-d for d in levels)  # a sorted list is a heap
    while heap:
        for a in levels.pop(-heapq.heappop(heap)):
            # an atom settles at its first pop; popping its list makes later pops no-ops
            for i in waiting.pop(a, ()):
                unsettled[i] -= 1
                if unsettled[i]:
                    continue
                h, body, bias = fires[i]
                value = bias + sum(map(nu.__getitem__, body))
                if value > nu.get(h, 0):
                    nu[h] = value
                    if not (bucket := levels.setdefault(value, [])):
                        heapq.heappush(heap, -value)
                    bucket.append(h)
    return _read_back(nu, L, start, pins)


def minimal_model(
    instance: Instance,
    *,
    use_fast_path: bool = True,
    step_limit: Optional[int] = None,
) -> GroundModel:
    """The unique minimal K-fuzzy model, or raise Unsatisfiable.

    Only defined for programs without existential rules, which settle
    with no chase, so `step_limit` changes nothing on the default route;
    `use_fast_path=False` chases, under `step_limit`, and solves the
    reference LP in place of the least fixpoint; the model is the same.
    """
    if instance.program.has_existential_rules:
        raise ValueError("minimal_model requires an existential-free program")
    return Engine(instance, step_limit=step_limit, use_fast_path=use_fast_path).model


def preferred_model(
    instance: Instance, *, step_limit: Optional[int] = None
) -> GroundModel:
    """A deterministic preferred K-fuzzy model, or raise NoObliviousBaseModel.

    Preferred models need not be unique; among the weighted optima the
    representative with the least total truth on null-carrying atoms is
    returned. A plain program gets its minimal model (kind MINIMAL), or
    Unsatisfiable, a NoObliviousBaseModel, when it has none. Raises
    TruncatedChase when the chase limit cuts an existential program's
    chase short (the result would be unsound).
    """
    return Engine(instance, step_limit=step_limit).model


def k_truth(
    instance: Instance, atom: Atom, threshold: RationalLike, *, step_limit: Optional[int] = None
) -> QueryResult:
    """Is the atom true to at least `threshold` in every K-fuzzy model?

    Decided on the minimal model. For programs with existential rules the
    answer is relative to the deterministic preferred model and flagged
    as such.
    """
    return Engine(instance, step_limit=step_limit).query(atom, threshold)


# ---------------------------------------------------------------------------
# Independent fixpoint oracle


def fixpoint_minimal_model(
    instance: Instance,
    *,
    step_limit: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> TruthAssignment:
    """Least fixed point of the consequence operator; cross-check only.

    T(nu)(G) = max(seed(G), max over ground rules with head G of
    max(0, nu(body) - 1 + K)), seeded with tau. Raises Unsatisfiable when
    the fixpoint overshoots tau somewhere, IterationLimit if it fails to
    stabilize within the round budget.
    """
    chase = Engine(instance, step_limit=step_limit).chase
    tau = instance.database
    K = instance.K
    nu: dict[Atom, Fraction] = dict(tau.entries)
    budget = max_rounds if max_rounds is not None else len(chase.olim) * len(chase.gamma) + 1
    for _ in range(budget + 1):
        changed = False
        for g in chase.gamma:
            total = sum((nu.get(b, ZERO) for b in g.body), ZERO)
            body = max(ZERO, total - (len(g.body) - 1))
            candidate = body - ONE + K
            if candidate > nu.get(g.head, ZERO):
                nu[g.head] = candidate
                changed = True
        if not changed:
            break
    else:
        raise IterationLimit(f"no fixed point within {budget} rounds")
    for a, d in tau.entries.items():
        if nu[a] > d:
            raise Unsatisfiable(
                f"derivations force {a} to {nu[a]} but the database pins it at {d}"
            )
    return TruthAssignment({a: v for a, v in nu.items() if v > ZERO})


# ---------------------------------------------------------------------------
# Model verification


@dataclass(frozen=True)
class VerificationReport:
    rule_violations: tuple[tuple[GroundRule, Fraction], ...]
    tau_mismatches: tuple[tuple[Atom, Fraction, Fraction], ...]
    outside_base: tuple[Atom, ...]

    @property
    def rules_satisfied(self) -> bool:
        return not self.rule_violations

    @property
    def ok(self) -> bool:
        return not (self.rule_violations or self.tau_mismatches or self.outside_base)


def verify_model(
    instance: Instance,
    chase: ChaseResult,
    model: TruthAssignment,
    *,
    pins: Optional[Mapping[Atom, Fraction]] = None,
    seeds: Optional[Mapping[Atom, Fraction]] = None,
) -> VerificationReport:
    """Check a truth assignment against the ground rules, the database and the chase base.

    Raises DomainError when a degree of `model` lies outside (0, 1], then
    TruncatedChase when the chase stopped at its step limit.
    Each ground rule's head value is the sum, truncated at 1, over the
    atoms of the model's support that the rule's head pattern matches: for
    an existential rule, strong existential semantics, every atom matching
    it, nulls replaced consistently by anything. The database's degrees are
    `pins`, which a model must equal, and `seeds`, which it must reach;
    both default to tau, as in strict mode (relaxed mode's are
    `Engine.pins_by_id` and `Engine.seeds_by_id` by fact index).
    """
    for d in model.support.values():
        as_degree(d, positive=True)
    _require_complete(chase)
    K = instance.K
    support = list(model.support)  # atoms off the support add 0
    index = _Index([(a.predicate, a.args) for a in support])
    rule_violations = []
    for g in chase.gamma:
        compiled = chase.index.rules[g.origin_rule_id]
        heads = [support[i] for i in head_ids(compiled, g.head.args, index)] if compiled.lookup[1] else [g.head]
        value = luk_implies(body_truth(model, g.body), min(ONE, sum(map(model, heads), ZERO)))
        if value < K:
            rule_violations.append((g, value))
    tau = instance.database.entries
    pins, seeds = tau if pins is None else pins, tau if seeds is None else seeds
    tau_mismatches = [(a, d, model(a)) for a, d in pins.items() if model(a) != d]
    tau_mismatches += [(a, d, model(a)) for a, d in seeds.items() if a not in pins and model(a) < d]
    outside = tuple(
        sorted((a for a in model.support if a not in chase.olim), key=Atom.sort_key)
    )
    return VerificationReport(tuple(rule_violations), tuple(tau_mismatches), outside)


def _optimum(cols: ColumnProgram, fail: type[NoObliviousBaseModel], K: Fraction) -> dict[int, Fraction]:
    """The positive degrees of `solve(cols)`'s optimum, column j's under
    its name, an atom id as `column_program` names it; raise `fail` when
    it is infeasible."""
    from .lp import Status, solve
    solution = solve(cols)
    if solution.status is Status.UNBOUNDED:
        raise AssertionError("box-bounded LP cannot be unbounded")
    if not solution.optimal:
        base = "" if fail is Unsatisfiable else " with an oblivious base"
        raise fail(f"no {K}-fuzzy model{base} exists")
    return {a: d for j, a in enumerate(cols.names) if (d := solution.assignment[j])}  # by position


# ---------------------------------------------------------------------------
# Convenience wrapper with caching


class Engine:
    """One instance, at most one chase, cached models; safe for repeated queries.

    With `relaxed`, tau bounds models from below instead of pinning them: a
    model need only K-satisfy tau(a) -> a for each of tau's atoms, so it
    reaches tau(a) - (1 - K) there (tau's own degree only at K = 1). The
    program and its chase are the same in both modes; only the pins and
    seeds that the solve reads differ.
    """

    def __init__(
        self,
        instance: Instance,
        *,
        step_limit: Optional[int] = None,
        use_fast_path: bool = True,
        relaxed: bool = False,
    ) -> None:
        self.instance = instance
        self.step_limit = step_limit
        self.use_fast_path = use_fast_path
        self.relaxed = relaxed
        # pins, the degrees a model must equal, and seeds, those it must reach, by
        # id: every atom table of the engine numbers tau's facts 0, 1, ... in order
        tau = instance.database.facts.values()
        self.pins_by_id: Mapping[int, Fraction] = {} if relaxed else dict(enumerate(tau))
        self.seeds_by_id = self.pins_by_id
        if relaxed:  # a bound at or below 0 is none, and is left out
            slack = ONE - instance.K
            self.seeds_by_id = {i: d - slack for i, d in enumerate(tau) if d > slack}

    @property
    def is_existential(self) -> bool:
        return self.instance.program.has_existential_rules

    @cached_property
    def witness(self) -> Optional[WitnessCycle]:
        """The weak-acyclicity test's witness cycle, None when the program
        passes; the test runs once per engine, and not for a plain program,
        whose variable expansion has no special edge to close a cycle."""
        if not self.is_existential:
            return None
        from .termination import is_weakly_acyclic_ve
        return is_weakly_acyclic_ve(self.instance.program)[1]

    @cached_property
    def chase(self) -> ChaseResult:
        """The oblivious chase, built on first read; raises UnboundedChase
        where it is refused and TruncatedChase where `step_limit` cuts it short."""
        if self.step_limit is None and self.witness:
            raise UnboundedChase(self.witness)
        chase = oblivious_chase(self.instance.program, self.instance.database, self.step_limit)
        _require_complete(chase)
        return chase

    @property
    def settles(self) -> bool:
        """Whether `degrees` settles, not chases: a plain program on the default
        route. A step limit bounds a chase, and does not choose the route."""
        return self.use_fast_path and not self.is_existential

    @cached_property
    def settled(self) -> Optional[tuple[AtomTable, dict[int, Fraction], Optional[int]]]:
        """`settle`'s table, degrees and overshot pin where the engine
        `settles`; None where `degrees` chases."""
        if not self.settles:
            return None
        L, k, seeds = _scaled(self.instance.K, self.seeds_by_id)
        rank, keys = _rank(self.instance.program.rules, self.instance.database.facts)
        ids = settle(self.instance.program, rank, keys, k, L, nu := dict(seeds))[0]
        return (AtomTable(keys, ids, rank, 0, None), *_read_back(nu, L, seeds, self.pins_by_id))

    @property
    def table(self) -> AtomTable:
        """The atoms that `degrees` is keyed by: `settle`'s, or the chase's."""
        return self.settled[0] if self.settled else self.chase

    @cached_property
    def degrees(self) -> dict[int, Fraction]:
        """The model's positive degrees by the id of `table`'s atoms: the one
        route to a model, chosen by the program class and `use_fast_path`.

        A plain program on the default route `settle`s, grounding only the
        rules that fire: its minimal model. An existential one runs the
        least fixpoint from the seeds, checked against the pins, on every
        row of its chase that `horn_split` leaves outside D; when
        D is not empty, one `lp.solve` of the rows that mention D, every
        other atom fixed at its fixpoint degree, decides D's atoms: a
        preferred model. With use_fast_path=False the full
        `eoptk_columns` LP decides every atom. With no model,
        Unsatisfiable for a plain program, NoObliviousBaseModel for an
        existential one.
        """
        K = self.instance.K
        pins, seeds = self.pins_by_id, self.seeds_by_id
        fail = NoObliviousBaseModel if self.is_existential else Unsatisfiable
        if self.settled:
            (table, nu, over), core = self.settled, None
        else:
            table = chase = self.chase
            if not self.use_fast_path:  # `eoptk_columns`, its columns left unnamed
                return _optimum(column_program(chase, chase.order, _rows(chase), pins, seeds, K), fail, K)
            horn, rest, core = horn_split(chase, pins)
            nu, over = least_fixpoint(horn, seeds, K, pins)
        if over is not None:
            raise fail(f"derivations force {table.text(over)} to {nu[over]} but the database pins it at {pins[over]}")
        if core:
            used = core.union(*(heads for heads, _ in rest), *(body for _, body in rest))
            universe = [a for a in chase.order if a in used]
            fixed = {a: nu.get(a, ZERO) for a in universe if a not in core}
            nu.update(_optimum(column_program(chase, universe, rest, fixed, seeds, K), fail, K))
        return nu

    @cached_property
    def model(self) -> GroundModel:
        """`degrees` as `core` atoms, the support in `Atom.sort_key` order;
        raises as `degrees` does."""
        degrees, table, K = self.degrees, self.table, self.instance.K
        atoms = table.atoms
        assignment = TruthAssignment({atoms[a]: degrees[a] for a in table.order if a in degrees})
        if self.is_existential:
            return GroundModel(assignment, ModelKind.PREFERRED, K)
        # at K = 1 exactly the classical consequences of the fully-true facts
        certain = frozenset(a for a, d in assignment.support.items() if d == ONE) if K == ONE else frozenset()
        return GroundModel(assignment, ModelKind.MINIMAL, K, certain)

    def query(self, atom: Atom, threshold: RationalLike) -> QueryResult:
        c = as_degree(threshold)
        if not atom.is_ground():
            raise ValueError(f"query atom must be ground: {atom}")
        infer_signature([(atom.predicate, atom.arity)], self.instance.signature)  # ArityError
        degree = self.degrees.get(self.table.id_of(atom), ZERO)
        return QueryResult(atom, c, degree >= c, degree, self.is_existential)
