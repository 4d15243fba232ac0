"""Model computation and fact entailment.

Pipeline: chase the crisp instance once (`Engine.chase` refuses an
existential program that is not weakly acyclic unless a step limit
bounds it), then solve on the chase's atom ids; `Engine.degrees` is the
one place that picks the route, and answers by atom id. olim is the LP's
columns and the model's atoms, in rank order (`ChaseResult.order`, which
is `Atom.sort_key`'s), an atom is active exactly when it is null-free,
and the chase's compiled rules decide each ground rule's head sum. The
database enters as pins, the degrees a model must equal, and seeds, the
lower bounds it must reach, keyed by fact id. Ground rules whose head
sum holds at most one unpinned atom are Horn and go to an exact least
fixpoint on ints, which also finds a pin the rules overshoot; only D,
the free heads of the others closed under the rules they feed, goes to
an exact LP (`horn_split`). `Engine.query` reads one degree by the
chase's `id_of`; `Engine.model` is a view of the degrees in `core`
atoms, its support built in rank order, for library callers, as are
`Engine.pins` and `Engine.seeds`. The full LP over olim
(`eoptk_columns`) is the reference route behind `use_fast_path=False`,
its columns left unnamed there, and what `mvdl ground` prints, named by
atom. `verify_model` and a Kleene-style oracle read the chase's `core`
views instead.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .chase import ChaseResult, Ground, _Index, head_ids, oblivious_chase
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
from .lp import ColumnProgram, LinearProgram, Status, solve
from .termination import WitnessCycle, is_weakly_acyclic_ve


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


def _head_sums(chase: ChaseResult) -> Iterator[tuple[Ground, list[int]]]:
    """Each ground rule of Gamma, (rule id, head id, body ids), with the ids
    of the atoms whose degrees sum to its head value: its head for a plain
    rule; for an existential one every atom of the chase that matches the
    head pattern (nulls replaced consistently by anything), by `head_ids`."""
    index, keys = chase.index, chase.keys
    for g in chase.ground:
        compiled = index.rules[g[0]]
        yield g, head_ids(compiled, keys[g[1]][1], index) if compiled.lookup[1] else [g[1]]


def eoptk_columns(
    instance: Instance,
    chase: ChaseResult,
    seeds: Optional[Mapping[int, Fraction]] = None,
    pins: Optional[Mapping[int, Fraction]] = None,
) -> ColumnProgram:
    """The existential LP and its tie-break over columns in [0, 1], column j
    the j-th atom of chase.sorted_olim(), which names it: `column_program`
    of every ground rule and its head sum, `pins` fixed and `seeds` as
    lower bounds, both by atom id; both default to tau's degrees, each
    fact found by the chase's `id_of`."""
    _require_complete(chase)
    if pins is None or seeds is None:
        tau = {chase.id_of(a): d for a, d in instance.database.entries.items()}
        pins, seeds = tau if pins is None else pins, tau if seeds is None else seeds
    rows = ((heads, g[2]) for g, heads in _head_sums(chase))
    columns = column_program(chase, chase.order, rows, pins, seeds, instance.K)
    columns.names = chase.sorted_olim()
    return columns


def column_program(
    chase: ChaseResult,
    universe: Sequence[int],
    rows: Iterable[tuple[Sequence[int], Sequence[int]]],
    pins: Mapping[int, Fraction],
    seeds: Mapping[int, Fraction],
    K: Fraction,
) -> ColumnProgram:
    """The LP over the chase's atoms `universe` (ids) as columns in [0, 1],
    named by their ids, `pins`' fixed and each other one in `seeds` bounded
    below by its seed: a row (heads, body) is sum(heads) - sum(body) >=
    K - len(body), in ints scaled by K's denominator. The objective sums
    the null-free atoms, the tie-break the null-carrying ones."""
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


def horn_split(
    chase: ChaseResult, pins: Mapping[int, Fraction]
) -> tuple[list[Ground], dict[int, list[int]], list[tuple[list[int], tuple[int, ...]]], set[int]]:
    """Split Gamma at D, the atoms that only the LP can decide, all by id.

    A ground rule's free heads are its head sum's atoms outside `pins`;
    with at most one it is Horn. D is the free heads of the other rules,
    closed under Gamma: a rule with a body atom in D puts its free heads
    in D. Returns the ground rules that mention no atom of D, all Horn, whose
    free head (if any) is their head, with the other, pinned heads of the
    existential ones, keyed by position in that list; the (heads, body)
    rows of the others; and D.
    """
    rows = []
    core: set[int] = set()
    for g, heads in _head_sums(chase):
        free = [h for h in heads if h not in pins]
        if len(free) > 1:
            core.update(free)
        rows.append((g, heads, free))
    if core:
        feeds: dict[int, list[list[int]]] = {}  # body atom -> free heads of its rules
        for g, _, free in rows:
            for b in g[2]:
                feeds.setdefault(b, []).append(free)
        stack = list(core)
        while stack:
            for free in feeds.get(stack.pop(), ()):
                for h in free:
                    if h not in core:
                        core.add(h)
                        stack.append(h)
    horn = []
    pinned: dict[int, list[int]] = {}
    rest = []
    for g, heads, free in rows:
        if core and not (core.isdisjoint(free) and core.isdisjoint(g[2])):
            rest.append((heads, g[2]))
            continue
        if len(heads) > 1:  # an existential rule's head holds nulls: free, and its one free head
            pinned[len(horn)] = [h for h in heads if h in pins]
        horn.append(g)
    return horn, pinned, rest, core


_LCM_CAP_BITS = 256  # well below where the read-back gcds outgrow Fraction arithmetic (1,400-3,200 bits on a path)


def least_fixpoint(
    gamma: Sequence[Ground],
    seeds: Mapping[int, Fraction],
    K: Fraction,
    pinned_heads: Mapping[int, Sequence[int]],
    pins: Iterable[int] = (),
) -> tuple[dict[int, Fraction], Optional[int]]:
    """The least nu >= seeds with nu(H) >= nu(body) - 1 + K - offset for
    every ground rule (rule id, H, body ids) of `gamma`, by atom id, the
    offset of the i-th rule the seed degrees of its `pinned_heads[i]` (0
    when absent): the other atoms of an existential head sum, held at
    their pins. Also returns the first of `pins`, seeds held at their seed
    degree, that nu raises above its seed, None when there is none: nu
    only grows, so that is a test for equality, made on the scaled ints.

    Knuth's generalisation of Dijkstra's algorithm: a rule's value is
    monotone in its body and never above its weakest body atom, so the
    atom with the largest tentative degree is final when it leaves the
    heap. Each ground rule fires once, when the last of its distinct body
    atoms settles. Seeds are lower bounds, not pins; only positive
    degrees are returned, by id. Every degree is a multiple of 1/L, L the
    lcm of the denominators of K and the seeds, so the heap and the rule
    values are ints scaled by L, each distinct one read back once as
    Fraction(v, L); past `_LCM_CAP_BITS` bits of L the same loop runs on
    the Fractions (L = 1).
    """
    L = K.denominator
    for d in seeds.values():
        L = lcm(L, d.denominator) if L.bit_length() <= _LCM_CAP_BITS else L
    scaled = L.bit_length() <= _LCM_CAP_BITS
    L = L if scaled else 1
    nu = {a: d.numerator * (L // d.denominator) for a, d in seeds.items()} if scaled else dict(seeds)
    k = K.numerator * (L // K.denominator) if scaled else K
    start = nu.copy()
    waiting: dict[int, list[int]] = {}
    unsettled: list[int] = []
    bias = []  # a rule's value less its body sum
    for i, (_, _, body) in enumerate(gamma):
        distinct = set(body) if len(body) > 1 else body
        unsettled.append(len(distinct))
        bias.append(k - len(body) * L)
        for b in distinct:
            waiting.setdefault(b, []).append(i)
    for i, heads in pinned_heads.items():
        bias[i] -= sum(map(nu.__getitem__, heads))
    heap = [(-d, a) for a, d in nu.items()]
    heapq.heapify(heap)
    while heap:
        # an atom settles at its first pop; popping its list makes later pops no-ops
        for i in waiting.pop(heapq.heappop(heap)[1], ()):
            unsettled[i] -= 1
            if unsettled[i]:
                continue
            _, h, body = gamma[i]
            value = bias[i] + sum(map(nu.__getitem__, body))
            if value > nu.get(h, 0):
                nu[h] = value
                heapq.heappush(heap, (-value, h))
    over = next((a for a in pins if nu[a] != start[a]), None)
    if not scaled:
        return nu, over
    degrees = {v: Fraction(v, L) for v in set(nu.values())}
    return {a: degrees[v] for a, v in nu.items()}, over


def minimal_model(
    instance: Instance,
    *,
    use_fast_path: bool = True,
    step_limit: Optional[int] = None,
) -> GroundModel:
    """The unique minimal K-fuzzy model, or raise Unsatisfiable.

    Only defined for programs without existential rules; their chase
    always terminates, so `step_limit` is normally left unset.
    `use_fast_path=False` solves the reference LP in place of the least
    fixpoint; the model is the same.
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
    TruncatedChase when the chase limit cuts the run short (the result
    would be unsound).
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
    _require_complete(chase)
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
    both default to tau, as in strict mode (`Engine.pins` and
    `Engine.seeds` give relaxed mode's).
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


def _optimum(
    cols: ColumnProgram, fail: type[NoObliviousBaseModel], K: Fraction, ids: Sequence[int]
) -> dict[int, Fraction]:
    """The positive degrees of `solve(cols)`'s optimum, column j's under
    ids[j]; raise `fail` when it is infeasible."""
    solution = solve(cols)
    if solution.status is Status.UNBOUNDED:
        raise AssertionError("box-bounded LP cannot be unbounded")
    if not solution.optimal:
        base = "" if fail is Unsatisfiable else " with an oblivious base"
        raise fail(f"no {K}-fuzzy model{base} exists")
    return {a: d for j, a in enumerate(ids) if (d := solution.assignment[j])}  # by position


# ---------------------------------------------------------------------------
# Convenience wrapper with caching


class Engine:
    """One instance, one chase, cached models; safe for repeated queries.

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
        # id: the engine's chase numbers tau's facts 0, 1, ... in order
        tau = instance.database.facts.values()
        self.pins_by_id: Mapping[int, Fraction] = {} if relaxed else dict(enumerate(tau))
        self.seeds_by_id = self.pins_by_id
        if relaxed:  # a bound at or below 0 is none, and is left out
            slack = ONE - instance.K
            self.seeds_by_id = {i: d - slack for i, d in enumerate(tau) if d > slack}

    @cached_property
    def pins(self) -> Mapping[Atom, Fraction]:
        """`pins_by_id` by `core` atom."""
        return {} if self.relaxed else self.instance.database.entries

    @cached_property
    def seeds(self) -> Mapping[Atom, Fraction]:
        """`seeds_by_id` by `core` atom."""
        if not self.relaxed:
            return self.pins
        facts = list(self.instance.database.entries)
        return {facts[i]: d for i, d in self.seeds_by_id.items()}

    @property
    def is_existential(self) -> bool:
        return self.instance.program.has_existential_rules

    @cached_property
    def witness(self) -> Optional[WitnessCycle]:
        """The weak-acyclicity test's witness cycle, None when the program
        passes; the test runs once per engine."""
        return is_weakly_acyclic_ve(self.instance.program)[1]

    @cached_property
    def chase(self) -> ChaseResult:
        if self.step_limit is None and self.is_existential and self.witness:
            raise UnboundedChase(self.witness)
        return oblivious_chase(self.instance.program, self.instance.database, self.step_limit)

    @cached_property
    def degrees(self) -> dict[int, Fraction]:
        """The model's positive degrees by atom id: the one route to a model,
        chosen by the program class.

        The least fixpoint from the seeds, checked against the pins, runs
        on every ground rule that `horn_split` leaves outside D (all of
        them for a plain program, which skips the split); when D is not
        empty, one `lp.solve` of the rows that mention D, every other atom
        fixed at its fixpoint degree, decides D's atoms: the minimal model
        of a plain program, a preferred model of an existential one. With
        use_fast_path=False the full `eoptk_columns` LP decides every
        atom. With no model, Unsatisfiable for a plain program,
        NoObliviousBaseModel for an existential one.
        """
        chase = self.chase
        _require_complete(chase)
        K = self.instance.K
        pins, seeds = self.pins_by_id, self.seeds_by_id
        fail = NoObliviousBaseModel if self.is_existential else Unsatisfiable
        if not self.use_fast_path:  # `eoptk_columns`, its columns left unnamed
            rows = ((heads, g[2]) for g, heads in _head_sums(chase))
            return _optimum(column_program(chase, chase.order, rows, pins, seeds, K), fail, K, chase.order)
        if self.is_existential:
            horn, pinned, rest, core = horn_split(chase, pins)
        else:  # every ground rule is Horn, D is empty
            horn, pinned, rest, core = chase.ground, {}, [], set()
        nu, over = least_fixpoint(horn, seeds, K, pinned, pins)
        if over is not None:
            raise fail(f"derivations force {chase.text(over)} to {nu[over]} but the database pins it at {pins[over]}")
        if core:
            used = core.union(*(heads for heads, _ in rest), *(body for _, body in rest))
            universe = [a for a in chase.order if a in used]
            fixed = {a: nu.get(a, ZERO) for a in universe if a not in core}
            nu.update(_optimum(column_program(chase, universe, rest, fixed, seeds, K), fail, K, universe))
        return nu

    @cached_property
    def model(self) -> GroundModel:
        """`degrees` as `core` atoms, the support in `Atom.sort_key` order;
        raises as `degrees` does."""
        degrees, chase, K = self.degrees, self.chase, self.instance.K
        atoms = chase.atoms
        assignment = TruthAssignment({atoms[a]: degrees[a] for a in chase.order if a in degrees})
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
        degree = self.degrees.get(self.chase.id_of(atom), ZERO)
        return QueryResult(atom, c, degree >= c, degree, self.is_existential)
