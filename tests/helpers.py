"""Shared generators and independent reference implementations.

Everything here stays deliberately naive: these are the oracles the
engine is checked against, so they must not share code paths with it.
"""

from __future__ import annotations

import itertools
import random
import re
from types import SimpleNamespace
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from mvdatalog.lp import ONE, ZERO, LinearProgram, MalformedModel, Solution, Status, _Columns, solve
from mvdatalog.core import (
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    GroundRule,
    Instance,
    LabelledNull,
    Program,
    Rule,
    Term,
    TruthAssignment,
    Variable,
    as_degree,
    make_rule,
    rule_gap,
    term_sort_key,
)
from mvdatalog.chase import ChaseResult, Key, _Index, _join, oblivious_chase
from mvdatalog.engine import Engine, horn_split, least_fixpoint
from mvdatalog.parser import NonGroundQuery, ParseError, SafetyError

CONSTANTS = ["a", "b"]
PREDICATES = [("p", 1), ("q", 1), ("r", 2), ("s", 1)]
K_POOL = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(9, 10)]


def luk_and(a: Fraction, b: Fraction) -> Fraction:
    return max(ZERO, a + b - ONE)


def luk_or(a: Fraction, b: Fraction) -> Fraction:
    return min(ONE, a + b)


def luk_not(a: Fraction) -> Fraction:
    return ONE - a


def constants(atoms: Iterable[Atom]) -> set[str]:
    """The names of the constants in `atoms`."""
    return {t.name for a in atoms for t in a.args if isinstance(t, Constant)}


def program_constants(program: Program) -> set[str]:
    return constants(a for r in program.rules for a in (*r.body, r.head))


def rule_by_id(program: Program, rule_id: int) -> Rule:
    return next(r for r in program.rules if r.id == rule_id)


def k_satisfies(nu: TruthAssignment, gamma: GroundRule, K: Fraction) -> bool:
    """True iff the implication value min(1, 1 - nu(body) + nu(head)) reaches K."""
    return rule_gap(nu, gamma, K) >= ZERO


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


def enumerate_homomorphisms(rule: Rule, atoms: Iterable[Atom]) -> list[dict[str, Term]]:
    """All substitutions of the rule's body variables into `atoms`, sorted
    by their images in variable-name order: the chase's join with every atom
    in the delta (not an oracle: it runs the chase's own join). Its atoms may
    hold nulls: a term's rank is its place in `term_sort_key`'s order."""
    atoms = list(dict.fromkeys(atoms))
    named = [t for b in (*rule.body, rule.head) for t in b.args if isinstance(t, Constant)]
    terms = sorted({*named, *(t for a in atoms for t in a.args)}, key=term_sort_key)
    rank = {t: r for r, t in enumerate(terms)}
    index = _Index([(a.predicate, tuple(map(rank.__getitem__, a.args))) for a in atoms],
                   {t.name: r for t, r in rank.items() if isinstance(t, Constant)})
    return [dict(zip(index.compiled(rule).names, map(terms.__getitem__, slots))) for slots, _ in _join(rule, index)]


def atom_bounds(engine: Engine) -> tuple[dict[Atom, Fraction], dict[Atom, Fraction]]:
    """The engine's `pins_by_id` and `seeds_by_id` by `core` atom: fact i is
    the database's i-th entry."""
    facts = list(engine.instance.database.entries)
    return ({facts[i]: d for i, d in engine.pins_by_id.items()},
            {facts[i]: d for i, d in engine.seeds_by_id.items()})


def chase_fixpoint(engine: Engine) -> tuple[ChaseResult, dict[Key, Fraction] | str]:
    """The route a plain program took before it settled: `least_fixpoint`
    on the `horn_split` of its whole crisp `oblivious_chase`, from the
    engine's `seeds_by_id` and against its `pins_by_id`. Returns the chase
    and the degrees by atom key, or the Unsatisfiable message."""
    instance, pins = engine.instance, engine.pins_by_id
    chase = oblivious_chase(instance.program, instance.database)
    horn, _, _ = horn_split(chase, pins)  # a plain program's rules are all Horn
    nu, over = least_fixpoint(horn, engine.seeds_by_id, instance.K, pins)
    if over is not None:
        return chase, f"derivations force {chase.text(over)} to {nu[over]} but the database pins it at {pins[over]}"
    return chase, {chase.keys[i]: d for i, d in nu.items()}


def database_from_pairs(pairs) -> FuzzyDatabase:
    """A database of (atom, degree) pairs; a fact given twice with two degrees is a DomainError."""
    entries: dict[Atom, Fraction] = {}
    for a, raw in pairs:
        d = as_degree(raw, positive=True)
        if a in entries and entries[a] != d:
            raise DomainError(f"conflicting degrees {entries[a]} and {d} for fact {a}")
        entries[a] = d
    return FuzzyDatabase(entries)


def assignment_from_map(mapping) -> TruthAssignment:
    """A truth assignment with each degree validated; zeros leave the support."""
    return TruthAssignment({a: d for a, raw in mapping.items() if (d := as_degree(raw))})


def all_ground_atoms() -> list[Atom]:
    out = []
    for pred, arity in PREDICATES:
        for combo in itertools.product(CONSTANTS, repeat=arity):
            out.append(Atom(pred, tuple(Constant(c) for c in combo)))
    return out


def random_degree(rng: random.Random) -> Fraction:
    den = rng.randint(2, 6)
    return Fraction(rng.randint(1, den), den)


def random_rule(rng: random.Random, rule_id: int, existential: bool = False) -> Rule:
    variables = ["X", "Y"]
    body = []
    for _ in range(rng.randint(1, 2)):
        pred, arity = rng.choice(PREDICATES)
        args = tuple(
            Variable(rng.choice(variables)) if rng.random() < 0.7 else Constant(rng.choice(CONSTANTS))
            for _ in range(arity)
        )
        body.append(Atom(pred, args))
    body_vars = sorted(set().union(*(a.variables() for a in body)) or {""})
    head_pool = [v for v in body_vars if v]
    pred, arity = rng.choice(PREDICATES)
    head_args = []
    for i in range(arity):
        if existential and i == 0:
            head_args.append(Variable("Z"))
        elif head_pool and rng.random() < 0.8:
            head_args.append(Variable(rng.choice(head_pool)))
        else:
            head_args.append(Constant(rng.choice(CONSTANTS)))
    return make_rule(rule_id, body, Atom(pred, tuple(head_args)))


def random_instance(
    rng: random.Random,
    *,
    max_rules: int = 6,
    max_facts: int = 5,
    force_k_one: bool = False,
    all_one_degrees: bool = False,
) -> Instance:
    rules = [random_rule(rng, i) for i in range(rng.randint(1, max_rules))]
    atoms = all_ground_atoms()
    rng.shuffle(atoms)
    n_facts = rng.randint(1, max_facts)
    entries = {}
    for a in atoms[:n_facts]:
        entries[a] = Fraction(1) if all_one_degrees else random_degree(rng)
    if not all_one_degrees and rng.random() < 0.3:
        # seed a potential conflict: strong body facts against a weak head fact
        rule = rng.choice(rules)
        sub = {v: Constant("a") for v in rule.body_variables() | rule.head.variables()}
        for b in rule.body:
            entries[substitute(b, sub)] = Fraction(1)
        head = substitute(rule.head, sub)
        entries[head] = Fraction(1, rng.randint(4, 8))
    program = Program.from_rules(rules, extra_atoms=list(entries))
    K = Fraction(1) if force_k_one else rng.choice(K_POOL)
    return Instance(program, FuzzyDatabase(entries), K)


def random_existential_program(rng: random.Random, max_rules: int = 4) -> Program:
    rules = []
    for i in range(rng.randint(1, max_rules)):
        rules.append(random_rule(rng, i, existential=rng.random() < 0.5))
    return Program.from_rules(rules)


WIDE_PREDICATES = [("p", 1), ("q", 1), ("r", 2), ("s", 2), ("t", 3), ("z", 0)]


def random_wide_program(rng: random.Random, existential: bool = False) -> tuple[Program, set[Atom]]:
    """A program of 1-4 rules with 1-3 body atoms over the variables X, Y
    and W, a ternary and a nullary predicate, constants in bodies and heads
    (c occurs in no fact) and variables repeated inside an atom; with
    `existential`, heads also draw the head-only variables Z (twice as
    often, so it repeats, as in r(Z, Z) :- p(X)) and V. Returns the
    program and 1-8 facts over a and b."""
    rules = []
    for i in range(rng.randint(1, 4)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(WIDE_PREDICATES)
            args = tuple(
                Variable(rng.choice("XYW")) if rng.random() < 0.75 else Constant(rng.choice("abc"))
                for _ in range(arity)
            )
            body.append(Atom(pred, args))
        pool = sorted(set().union(*(a.variables() for a in body))) + (["Z", "Z", "V"] if existential else [])
        pred, arity = rng.choice(WIDE_PREDICATES)
        head = tuple(
            Variable(rng.choice(pool)) if pool and rng.random() < 0.8 else Constant(rng.choice("abc"))
            for _ in range(arity)
        )
        rules.append(make_rule(i, body, Atom(pred, head)))
    ground = [
        Atom(pred, tuple(map(Constant, combo)))
        for pred, arity in WIDE_PREDICATES
        for combo in itertools.product("ab", repeat=arity)
    ]
    facts = set(rng.sample(ground, rng.randint(1, 8)))
    return Program.from_rules(rules, extra_atoms=list(facts)), facts


def relax_rewrite(instance: Instance) -> tuple[Instance, dict[str, str]]:
    """Relaxed mode as a program rewrite: tau bounds models from below
    instead of pinning them.

    For every predicate R occurring in tau, a bridge rule R(x) -> R'(x) is
    added and all other occurrences of R in the program are replaced by R'.
    The bridge need only be K-satisfied, so nu(R'(a)) >= tau(R(a)) - (1 - K):
    tau's own degree only at K = 1. Returns the rewritten instance and the
    renaming {original: primed}.
    """
    tau_preds = sorted({a.predicate for a in instance.database.entries})
    if not tau_preds:
        return instance, {}
    taken = set(instance.program.signature) | set(tau_preds)
    renaming: dict[str, str] = {}
    for p in tau_preds:
        primed = p + "'"
        while primed in taken:
            primed += "'"
        taken.add(primed)
        renaming[p] = primed

    def prime(a: Atom) -> Atom:
        return Atom(renaming.get(a.predicate, a.predicate), a.args)

    sig = dict(instance.program.signature)
    sig.update({a.predicate: a.arity for a in instance.database.entries})
    rules: list[Rule] = []
    for p in tau_preds:
        args = tuple(Variable(f"X{i + 1}") for i in range(sig[p]))
        rules.append(make_rule(len(rules), [Atom(p, args)], Atom(renaming[p], args)))
    for r in instance.program.rules:
        rules.append(make_rule(len(rules), [prime(a) for a in r.body], prime(r.head)))
    program = Program.from_rules(rules, extra_atoms=list(instance.database.entries))
    return Instance(program, instance.database, instance.K), renaming


def rewritten_relaxed_model(instance: Instance, **options) -> dict[Atom, Fraction]:
    """The relaxed model by the rewrite: `Engine(relax_rewrite(instance),
    **options).model` under the user's names, each primed carrier shown as
    its original atom and the raw database atoms dropped."""
    relaxed, renaming = relax_rewrite(instance)
    original = {primed: name for name, primed in renaming.items()}
    support = Engine(relaxed, **options).model.assignment.support
    return {
        Atom(original.get(a.predicate, a.predicate), a.args): d
        for a, d in support.items()
        if a.predicate not in renaming
    }


def classical_closure(program: Program, facts: set[Atom]) -> set[Atom]:
    """Reference Datalog fixpoint: brute-force substitution enumeration."""
    known = set(facts)
    domain = {t for a in known for t in a.args} | {
        t for r in program.rules for a in (*r.body, r.head) for t in a.args if isinstance(t, Constant)
    }
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.is_existential:
                raise ValueError("classical closure is for plain rules")
            variables = sorted(rule.body_variables())
            for combo in itertools.product(sorted(domain, key=str), repeat=len(variables)):
                sub = dict(zip(variables, combo))
                if all(substitute(b, sub) in known for b in rule.body):
                    head = substitute(rule.head, sub)
                    if head not in known:
                        known.add(head)
                        changed = True
    return known


def naive_weakly_acyclic(graph) -> bool:
    """Reference weak-acyclicity verdict over a dependency graph.

    Builds the full transitive closure by repeated set unions; a special
    edge lies on a cycle iff its target reaches its source.
    """
    reach = {v: set() for v in graph.vertices}
    for src, dst in graph.normal_edges | graph.special_edges:
        reach[src].add(dst)
    changed = True
    while changed:
        changed = False
        for v in reach:
            grown = set(reach[v])
            for w in reach[v]:
                grown |= reach[w]
            if grown != reach[v]:
                reach[v] = grown
                changed = True
    return not any(src in reach[dst] or src == dst for src, dst in graph.special_edges)


def _hom_key(hom: dict) -> tuple:
    """A homomorphism's (name, term) pairs in name order: the registry's key."""
    return tuple(sorted(hom.items()))


def _hom_order(hom_key: tuple) -> tuple:
    """A homomorphism's sort key: its images' term sort keys in name order."""
    return tuple(term_sort_key(t) for _, t in hom_key)


def naive_homomorphisms(rule: Rule, atoms: set[Atom]) -> list[dict]:
    """Reference enumeration: every body atom scans every atom of its predicate."""
    by_predicate: dict = {}
    for a in atoms:
        by_predicate.setdefault(a.predicate, []).append(a)
    results = []

    def extend(i: int, hom: dict) -> None:
        if i == len(rule.body):
            results.append(hom)
            return
        pattern = rule.body[i]
        image = substitute(pattern, hom)
        if image.is_ground():
            if image in atoms:
                extend(i + 1, hom)
            return
        for candidate in by_predicate.get(pattern.predicate, ()):
            if len(candidate.args) != len(pattern.args):
                continue
            extended = dict(hom)
            for p, c in zip(pattern.args, candidate.args):
                if isinstance(p, Variable):
                    if extended.setdefault(p.name, c) != c:
                        break
                elif p != c:
                    break
            else:
                extend(i + 1, extended)

    extend(0, {})
    results.sort(key=lambda h: _hom_order(_hom_key(h)))
    return results


class NullRegistry:
    """The naive chase's nulls: one tuple of fresh nulls per (rule, body
    homomorphism) pair, numbered from 1 in the order they are asked for."""

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

    def __len__(self) -> int:
        return len(self._assigned)


def _ground_rule(rule: Rule, hom: dict, registry: NullRegistry) -> GroundRule:
    """The ground rule of (rule, hom) over freshly substituted atoms; the
    chase builds the same rule from the atoms it already holds."""
    body = tuple(substitute(a, hom) for a in rule.body)
    if rule.existential_vars:
        nulls = registry.nulls_for(rule, _hom_key(hom))
        hom = {**hom, **dict(zip(sorted(rule.existential_vars), nulls))}
    return GroundRule(rule.id, body, substitute(rule.head, hom))


def naive_oblivious_chase(program: Program, facts, step_limit=None) -> SimpleNamespace:
    """Reference chase: every round enumerates every homomorphism against
    the whole atom set and applies those not applied before. Returns what
    `ChaseResult` shows of the chase: olim, gamma, registry, truncated and
    steps, as Atom-level objects."""
    atoms: set[Atom] = set(facts)
    for a in atoms:
        if not a.is_ground():
            raise ValueError(f"chase input atom {a} is not ground")
    registry = NullRegistry()
    applied: dict = {}
    rules = sorted(program.rules, key=lambda r: r.id)
    steps = 0
    truncated = False

    while not truncated:
        new_atoms: set[Atom] = set()
        for rule in rules:
            if truncated:
                break
            for hom in naive_homomorphisms(rule, atoms):
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
            break
        atoms |= new_atoms

    order = sorted(applied, key=lambda k: (k[0], _hom_order(k[1])))
    gamma = tuple(applied[k] for k in order)
    return SimpleNamespace(olim=frozenset(atoms), gamma=gamma, registry=registry, truncated=truncated, steps=steps)


def matches(candidate: Atom, head_pattern: Atom, nulls: set[LabelledNull]) -> bool:
    """True iff substituting the pattern's nulls (consistently: one term per
    null) yields `candidate`; positions outside `nulls` must agree exactly."""
    if candidate.predicate != head_pattern.predicate or candidate.arity != head_pattern.arity:
        return False
    binding: dict[LabelledNull, Term] = {}
    for p, c in zip(head_pattern.args, candidate.args):
        mismatch = binding.setdefault(p, c) != c if p in nulls else p != c
        if mismatch:
            return False
    return True


def scan_head_atoms(rule: Rule, g: GroundRule, atoms) -> list[Atom]:
    """Reference head sum of g: every atom of g.head's predicate that
    `matches` g.head with the nulls at the rule's existential positions
    free, found by scanning `atoms`."""
    if not rule.is_existential:
        return [g.head]
    nulls = {
        t
        for p, t in zip(rule.head.args, g.head.args)
        if isinstance(p, Variable) and p.name in rule.existential_vars
    }
    by_predicate: dict = {}
    for a in atoms:
        by_predicate.setdefault(a.predicate, []).append(a)
    return [a for a in by_predicate.get(g.head.predicate, ()) if matches(a, g.head, nulls)]


def substitute(a: Atom, sub: dict) -> Atom:
    """`a` with its variables replaced by their images in `sub`; unmapped ones stay."""
    return Atom(a.predicate, tuple(sub.get(t.name, t) if isinstance(t, Variable) else t for t in a.args))


# ---------------------------------------------------------------------------
# Brute-force LP oracle: enumerate candidate vertices of small systems


def gaussian_solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve a square exact system; None when singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def brute_force_lp(variables, rows, objective):
    """Minimize objective over {x : row . x >= rhs for all rows}.

    `rows` must include the box rows, so the polytope is bounded and its
    optimum (if feasible) is attained at a vertex, i.e. at an intersection
    of n active rows. Returns (status, optimal value).
    """
    n = len(variables)
    best = None
    feasible = False
    for chosen in itertools.combinations(range(len(rows)), n):
        matrix = [[rows[i][0].get(v, Fraction(0)) for v in variables] for i in chosen]
        rhs = [rows[i][1] for i in chosen]
        point = gaussian_solve(matrix, rhs)
        if point is None:
            continue
        values = dict(zip(variables, point))
        if all(
            sum((c * values[v] for v, c in coeffs.items()), Fraction(0)) >= b
            for coeffs, b in rows
        ):
            feasible = True
            obj = sum((c * values[v] for v, c in objective.items()), Fraction(0))
            if best is None or obj < best:
                best = obj
    if not feasible:
        return "infeasible", None
    return "optimal", best


def two_solve_lexicographic(lp: LinearProgram, secondary) -> Solution:
    """Reference staged optimum: solve lp, then solve a copy of it whose
    objective is `secondary` and whose primary is pinned to its optimum
    by two added rows."""
    first = solve(lp)
    secondary = {v: Fraction(c) for v, c in secondary.items() if c != 0}
    if not first.optimal or not secondary:
        return first
    stage2 = LinearProgram(
        variables=list(lp.variables),
        bounds=dict(lp.bounds),
        fixings=dict(lp.fixings),
        constraints=list(lp.constraints),
        objective=secondary,
    )
    primary = {v: c for v, c in lp.objective.items() if c != 0}
    stage2.add_constraint(primary, first.objective_value)
    stage2.add_constraint({v: -c for v, c in primary.items()}, -first.objective_value)
    second = solve(stage2)
    if not second.optimal:
        raise AssertionError("stage two lost the feasible point stage one found")
    return Solution(Status.OPTIMAL, second.assignment, first.objective_value)


# ---------------------------------------------------------------------------
# Reference simplex: the two-mechanism solver the stage loop replaced, kept
# verbatim (phase 1, artificial drive-out with row deactivation, then the
# objectives) as a differential oracle for `mvdatalog.lp.solve`.


class _Tableau:
    """Sparse simplex tableau in equational form (all columns >= 0)."""

    def __init__(self) -> None:
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.active: list[bool] = []
        self.col_rows: dict[int, set[int]] = {}
        self.ncols = 0
        self.artificials: list[int] = []

    def new_column(self) -> int:
        col = self.ncols
        self.ncols += 1
        self.col_rows[col] = set()
        return col

    def add_ge(self, coeffs: dict[int, Fraction], rhs: Fraction) -> None:
        """Add the row sum(coeffs) >= rhs with a basic slack, or, when the
        all-zero point violates it, a surplus and a basic artificial."""
        if rhs <= 0:
            basic = self.new_column()
            row = {c: -a for c, a in coeffs.items()}
            row[basic] = ONE
            rhs = -rhs
        else:
            row = coeffs
            row[self.new_column()] = Fraction(-1)
            basic = self.new_column()
            row[basic] = ONE
            self.artificials.append(basic)
        rid = len(self.rows)
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)
        self.active.append(True)
        for col in row:
            self.col_rows[col].add(rid)

    def set_entry(self, rid: int, col: int, value: Fraction) -> None:
        row = self.rows[rid]
        if value == 0:
            if col in row:
                del row[col]
                self.col_rows[col].discard(rid)
        else:
            if col not in row:
                self.col_rows[col].add(rid)
            row[col] = value

    def pivot(self, rid: int, col: int, z_row: dict[int, Fraction]) -> Fraction:
        """Make `col` basic in row `rid`; returns the z-row value delta."""
        row = self.rows[rid]
        pivot = row[col]
        if pivot != 1:
            for c in list(row):
                row[c] /= pivot
            self.rhs[rid] /= pivot
        z_delta = ZERO
        factor = z_row.get(col, ZERO)
        if factor != 0:
            for c, v in row.items():
                nv = z_row.get(c, ZERO) - factor * v
                if nv == 0:
                    z_row.pop(c, None)
                else:
                    z_row[c] = nv
            # objective moves by (reduced cost) * (entering value)
            z_delta = factor * self.rhs[rid]
        for other in list(self.col_rows[col]):
            if other == rid or not self.active[other]:
                continue
            f = self.rows[other].get(col)
            if f is None or f == 0:
                continue
            for c, v in row.items():
                self.set_entry(other, c, self.rows[other].get(c, ZERO) - f * v)
            self.rhs[other] -= f * self.rhs[rid]
        self.basis[rid] = col
        return z_delta

    def drop_row(self, rid: int) -> None:
        for col in self.rows[rid]:
            self.col_rows[col].discard(rid)
        self.rows[rid] = {}
        self.active[rid] = False

    def drop_column(self, col: int) -> None:
        for rid in list(self.col_rows.get(col, ())):
            self.rows[rid].pop(col, None)
        self.col_rows.pop(col, None)

    def reduced_costs(self, cost: dict[int, Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """z-row = cost - cost_B * B^-1 A, and the current objective value."""
        z = dict(cost)
        value = ZERO
        for rid, basic in enumerate(self.basis):
            if not self.active[rid]:
                continue
            c_b = cost.get(basic, ZERO)
            if c_b == 0:
                continue
            value += c_b * self.rhs[rid]
            for col, v in self.rows[rid].items():
                nv = z.get(col, ZERO) - c_b * v
                if nv == 0:
                    z.pop(col, None)
                else:
                    z[col] = nv
        return z, value


def _simplex_loop(tab: _Tableau, z_row: dict[int, Fraction]) -> tuple[str, Fraction]:
    """Bland-rule pivoting until optimal or unbounded; returns value delta."""
    total_delta = ZERO
    while True:
        entering = None
        for col in sorted(z_row):
            if z_row[col] < 0:
                entering = col
                break
        if entering is None:
            return "optimal", total_delta
        leaving = None
        best_ratio: Optional[Fraction] = None
        for rid in sorted(tab.col_rows.get(entering, ())):
            if not tab.active[rid]:
                continue
            a = tab.rows[rid].get(entering, ZERO)
            if a <= 0:
                continue
            ratio = tab.rhs[rid] / a
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and tab.basis[rid] < tab.basis[leaving]  # type: ignore[index]
            ):
                best_ratio = ratio
                leaving = rid
        if leaving is None:
            return "unbounded", total_delta
        total_delta += tab.pivot(leaving, entering, z_row)


def reference_solve(lp: LinearProgram, secondary: Optional[Mapping[str, Fraction]] = None) -> Solution:
    """Exact optimum of `lp`, or INFEASIBLE / UNBOUNDED.

    With `secondary`, the returned assignment minimizes it among the
    optima of lp's objective; `objective_value` is still the primary one.
    Phase 1 introduces artificials only for rows violated at the all-zero
    point. The returned assignment is re-checked against every original
    constraint, bound, and fixing.
    """
    secondary = secondary or {}
    _Columns(lp, dict.fromkeys(secondary, ONE)).check()
    fixed = lp.fixings
    tab = _Tableau()
    var_col = {v: tab.new_column() for v in lp.variables if v not in fixed}
    for c in lp.constraints:
        coeffs: dict[int, Fraction] = {}
        rhs = c.rhs
        for v, a in c.coeffs.items():
            if v in fixed:
                rhs -= a * fixed[v]
            elif a != 0:
                coeffs[var_col[v]] = a
                rhs -= a * lp.bounds[v][0]
        if coeffs:
            tab.add_ge(coeffs, rhs)
        elif rhs > 0:
            return Solution(Status.INFEASIBLE, {}, None)
    for v, col in var_col.items():
        lo, hi = lp.bounds[v]
        if hi is not None:
            tab.add_ge({col: Fraction(-1)}, lo - hi)

    if tab.artificials:
        phase1_cost = {a: ONE for a in tab.artificials}
        z_row, value = tab.reduced_costs(phase1_cost)
        outcome, delta = _simplex_loop(tab, z_row)
        if outcome != "optimal":
            raise AssertionError("solver bug: phase 1 is bounded below by zero")
        if value + delta > 0:
            return Solution(Status.INFEASIBLE, {}, None)
        art_set = set(tab.artificials)
        for rid in range(len(tab.rows)):
            if not tab.active[rid] or tab.basis[rid] not in art_set:
                continue
            # basic artificial at zero: pivot it out or drop a redundant row
            pivot_col = None
            for col in sorted(tab.rows[rid]):
                if col not in art_set and tab.rows[rid][col] != 0:
                    pivot_col = col
                    break
            if pivot_col is None:
                tab.drop_row(rid)
            else:
                tab.pivot(rid, pivot_col, {})
        for art in tab.artificials:
            tab.drop_column(art)

    cost_cols = {var_col[v]: c for v, c in lp.objective.items() if v in var_col and c != 0}
    z_row, value = tab.reduced_costs(cost_cols)
    outcome, delta = _simplex_loop(tab, z_row)
    if outcome == "unbounded":
        return Solution(Status.UNBOUNDED, {}, None)

    staged = {var_col[v]: Fraction(c) for v, c in secondary.items() if v in var_col and c != 0}
    if staged:
        # At this optimum the primary is its value plus sum(z_j * x_j) over
        # nonbasic columns with every z_j >= 0, so its optima are exactly
        # the points with x_j = 0 wherever z_j > 0.
        for col, z in z_row.items():
            if z > 0:
                tab.drop_column(col)
        z_row, _ = tab.reduced_costs({col: c for col, c in staged.items() if col in tab.col_rows})
        if _simplex_loop(tab, z_row)[0] != "optimal":
            raise AssertionError("stage two is unbounded")

    values = {col: ZERO for col in var_col.values()}
    for rid, basic in enumerate(tab.basis):
        if tab.active[rid] and basic in values:
            values[basic] = tab.rhs[rid]
    if staged and sum((c * values[col] for col, c in cost_cols.items()), ZERO) != value + delta:
        raise AssertionError("solver bug: stage two moved the primary objective")
    assignment = dict(fixed)
    for v, col in var_col.items():
        assignment[v] = lp.bounds[v][0] + values[col]
    objective_value = sum(
        (c * assignment[v] for v, c in lp.objective.items()), ZERO
    )
    fraction_audit(lp, assignment)
    return Solution(Status.OPTIMAL, assignment, objective_value)

# ---------------------------------------------------------------------------
# Fraction simplex: the name-keyed bounded-variable solver that the
# integer-column core of `mvdatalog.lp.solve` replaced, kept verbatim (the
# same Bland pivots on a `Fraction` tableau, with the fold and the audit in
# `Fraction` arithmetic) as a differential oracle. `fraction_audit` is also
# the audit of `reference_solve`.


class _BoundedTableau:
    """Sparse simplex tableau in equational form, 0 <= x_j <= upper.get(j).
    A `flipped` column stands for upper[j] - x_j, so every nonbasic column
    reads 0: at its lower bound or, flipped, at its upper bound."""

    def __init__(self) -> None:
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.col_rows: dict[int, set[int]] = {}
        self.ncols = 0
        self.artificials: list[int] = []
        self.upper: dict[int, Fraction] = {}
        self.flipped: set[int] = set()

    def new_column(self) -> int:
        col = self.ncols
        self.ncols += 1
        self.col_rows[col] = set()
        return col

    def add_ge(self, coeffs: dict[int, Fraction], rhs: Fraction) -> None:
        """Add the row sum(coeffs) >= rhs with a basic slack, or, when the
        all-zero point violates it, a surplus and a basic artificial."""
        if rhs <= 0:
            basic = self.new_column()
            row = {c: -a for c, a in coeffs.items()}
            row[basic] = ONE
            rhs = -rhs
        else:
            row = coeffs
            row[self.new_column()] = Fraction(-1)
            basic = self.new_column()
            row[basic] = ONE
            self.artificials.append(basic)
        rid = len(self.rows)
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)
        for col in row:
            self.col_rows[col].add(rid)

    def set_entry(self, rid: int, col: int, value: Fraction) -> None:
        row = self.rows[rid]
        if value == 0:
            if col in row:
                del row[col]
                self.col_rows[col].discard(rid)
        else:
            if col not in row:
                self.col_rows[col].add(rid)
            row[col] = value

    def pivot(self, rid: int, col: int, z_row: dict[int, Fraction]) -> None:
        """Make `col` basic in row `rid`, updating the z-row too."""
        row = self.rows[rid]
        pivot = row[col]
        if pivot != 1:
            for c in list(row):
                row[c] /= pivot
            self.rhs[rid] /= pivot
        factor = z_row.get(col, ZERO)
        if factor != 0:
            for c, v in row.items():
                nv = z_row.get(c, ZERO) - factor * v
                if nv == 0:
                    z_row.pop(c, None)
                else:
                    z_row[c] = nv
        for other in list(self.col_rows[col]):
            if other == rid:
                continue
            f = self.rows[other].get(col)
            if f is None or f == 0:
                continue
            for c, v in row.items():
                self.set_entry(other, c, self.rows[other].get(c, ZERO) - f * v)
            self.rhs[other] -= f * self.rhs[rid]
        self.basis[rid] = col

    def complement(self, col: int, z_row: dict[int, Fraction]) -> None:
        """Substitute upper[col] - x for column `col`; a basic column's row
        is left with coefficient -1 on it, to be pivoted out next."""
        u = self.upper[col]
        for rid in self.col_rows[col]:
            row = self.rows[rid]
            self.rhs[rid] -= row[col] * u
            row[col] = -row[col]
        if col in z_row:
            z_row[col] = -z_row[col]
        self.flipped ^= {col}

    def drop_column(self, col: int) -> None:
        for rid in list(self.col_rows.get(col, ())):
            self.rows[rid].pop(col, None)
        self.col_rows.pop(col, None)

    def reduced_costs(self, cost: dict[int, Fraction]) -> dict[int, Fraction]:
        """z-row = cost - cost_B * B^-1 A over the columns still present,
        the cost of a flipped column negated."""
        signed = {col: -c if col in self.flipped else c for col, c in cost.items() if col in self.col_rows}
        z = dict(signed)
        for rid, basic in enumerate(self.basis):
            c_b = signed.get(basic, ZERO)
            if c_b == 0:
                continue
            for col, v in self.rows[rid].items():
                nv = z.get(col, ZERO) - c_b * v
                if nv == 0:
                    z.pop(col, None)
                else:
                    z[col] = nv
        return z

    def values(self) -> dict[int, Fraction]:
        """The current basic solution, flips undone; absent columns are 0."""
        x = {col: self.upper[col] for col in self.flipped}
        for rid, b in enumerate(self.basis):
            x[b] = self.upper[b] - self.rhs[rid] if b in self.flipped else self.rhs[rid]
        return x

    def value(self, cost: dict[int, Fraction]) -> Fraction:
        """The current basic solution's cost."""
        x = self.values()
        return sum((c * x[col] for col, c in cost.items() if col in x), ZERO)


def _bounded_simplex_loop(tab: _BoundedTableau, z_row: dict[int, Fraction]) -> bool:
    """Bland-rule pivoting; True when optimal, False when unbounded. The
    entering column's step ends where a basic column falls to 0 or reaches
    its upper bound (then it leaves flipped), or at the entering column's
    own bound (a flip, no pivot); ties go to the lowest leaving column."""
    while True:
        entering = min((col for col, z in z_row.items() if z.numerator < 0), default=None)
        if entering is None:
            return True
        cap = tab.upper.get(entering)
        best = None if cap is None else (cap, entering, -1)
        for rid in tab.col_rows[entering]:
            a, basic = tab.rows[rid][entering], tab.basis[rid]
            if a.numerator > 0:
                step = tab.rhs[rid] / a
            elif basic in tab.upper:
                step = (tab.rhs[rid] - tab.upper[basic]) / a
            else:
                continue
            if best is None or (step, basic) < best[:2]:
                best = (step, basic, rid)
        if best is None:
            return False
        _, leaving, rid = best
        if leaving == entering or tab.rows[rid][entering].numerator < 0:
            tab.complement(leaving, z_row)
        if leaving != entering:
            tab.pivot(rid, entering, z_row)


def fraction_solve(lp: LinearProgram, secondary: Optional[Mapping[str, Fraction]] = None) -> Solution:
    """Exact optimum of `lp`, or INFEASIBLE / UNBOUNDED.

    With `secondary`, the returned assignment minimizes it among the
    optima of lp's objective; `objective_value` is still the primary one,
    and UNBOUNDED covers either objective. Fixings are substituted, and a
    row a*x >= r left with one free variable tightens x's lower bound to
    r/a (a > 0) or its upper bound to r/a (a < 0) in place of a tableau
    row; crossing bounds are INFEASIBLE, and a variable whose folded
    bounds meet is a constant with no column. Phase 1 adds artificials only
    for rows violated with every variable at its (folded) lower bound.
    The returned assignment is re-checked against every original
    constraint, bound, and fixing.
    """
    secondary = secondary or {}
    fraction_validate(lp, secondary)
    fixed = lp.fixings
    bounds = {v: lp.bounds[v] for v in lp.variables if v not in fixed}
    rows: list[tuple[dict[str, Fraction], Fraction]] = []
    for c in lp.constraints:
        coeffs: dict[str, Fraction] = {}
        rhs = c.rhs
        for v, a in c.coeffs.items():
            if v in fixed:
                rhs -= a * fixed[v]
            elif a != 0:
                coeffs[v] = a
        if len(coeffs) == 1:
            ((v, a),) = coeffs.items()
            lo, hi = bounds[v]
            if a > 0:
                bounds[v] = (max(lo, rhs / a), hi)
            else:
                bounds[v] = (lo, rhs / a if hi is None else min(hi, rhs / a))
        elif coeffs:
            rows.append((coeffs, rhs))
        elif rhs > 0:
            return Solution(Status.INFEASIBLE, {}, None)
    if any(hi is not None and lo > hi for lo, hi in bounds.values()):
        return Solution(Status.INFEASIBLE, {}, None)
    tab = _BoundedTableau()
    var_col = {v: tab.new_column() for v, (lo, hi) in bounds.items() if lo != hi}
    tab.upper = {col: bounds[v][1] - bounds[v][0] for v, col in var_col.items() if bounds[v][1] is not None}
    for coeffs, rhs in rows:
        rhs -= sum((a * bounds[v][0] for v, a in coeffs.items()), ZERO)
        tab.add_ge({var_col[v]: a for v, a in coeffs.items() if v in var_col}, rhs)

    phase1 = {a: ONE for a in tab.artificials}
    primary = {var_col[v]: c for v, c in lp.objective.items() if v in var_col and c != 0}
    staged = {var_col[v]: Fraction(c) for v, c in secondary.items() if v in var_col and c != 0}
    z_row: dict[int, Fraction] = {}
    for cost in (phase1, primary, staged):
        if not cost:
            continue
        # The last stage's cost is its value plus sum(z_j * x_j) over nonbasic
        # columns, all z_j >= 0: its optima are the points with x_j = 0 where
        # z_j > 0 (after phase 1 ends at 0, they have every artificial at 0).
        # A dropped flipped column stays at its upper bound.
        for col, z in z_row.items():
            if z.numerator > 0:
                tab.drop_column(col)
        if cost is staged:
            reached = tab.value(primary)
        z_row = tab.reduced_costs(cost)
        if not _bounded_simplex_loop(tab, z_row):
            if cost is phase1:
                raise AssertionError("solver bug: phase 1 is bounded below by zero")
            return Solution(Status.UNBOUNDED, {}, None)
        if cost is phase1 and tab.value(phase1) > 0:
            return Solution(Status.INFEASIBLE, {}, None)
    if staged and tab.value(primary) != reached:
        raise AssertionError("solver bug: stage two moved the primary objective")

    x = tab.values()
    assignment = dict(fixed)
    for v, (lo, _) in bounds.items():
        assignment[v] = lo + x.get(var_col[v], ZERO) if v in var_col else lo
    objective_value = sum(
        (c * assignment[v] for v, c in lp.objective.items()), ZERO
    )
    fraction_audit(lp, assignment)
    return Solution(Status.OPTIMAL, assignment, objective_value)


def fraction_validate(lp: LinearProgram, secondary=()) -> None:
    """The model checks of `_Columns(lp, ...).check()`, name by name."""
    declared = set(lp.bounds)
    if len(lp.variables) != len(declared):
        raise MalformedModel("variable list and bounds disagree")
    for lo, hi in lp.bounds.values():
        if hi is not None and lo > hi:
            raise MalformedModel("lower bound above upper bound")
    for name, value in lp.fixings.items():
        if name not in declared:
            raise MalformedModel(f"fixing of undeclared variable {name!r}")
        lo, hi = lp.bounds[name]
        if value < lo or (hi is not None and value > hi):
            raise MalformedModel(f"fixed value {value} of {name!r} outside bounds")
    for c in lp.constraints:
        for v in c.coeffs:
            if v not in declared:
                raise MalformedModel(f"constraint references undeclared variable {v!r}")
    for v in (*lp.objective, *secondary):
        if v not in declared:
            raise MalformedModel(f"objective references undeclared variable {v!r}")


def fraction_audit(lp: LinearProgram, assignment: dict[str, Fraction]) -> None:
    """Exact feasibility re-check of a claimed-optimal assignment."""
    for v, (lo, hi) in lp.bounds.items():
        x = assignment[v]
        if x < lo or (hi is not None and x > hi):
            raise AssertionError(f"solver bug: {v} = {x} violates bounds")
    for v, value in lp.fixings.items():
        if assignment[v] != value:
            raise AssertionError(f"solver bug: fixing of {v} not honoured")
    for c in lp.constraints:
        lhs = sum((a * assignment[v] for v, a in c.coeffs.items()), ZERO)
        if lhs < c.rhs:
            raise AssertionError(f"solver bug: constraint violated by {c.rhs - lhs}")


# ---------------------------------------------------------------------------
# Reference parser: one regex match, kind and offset per token, and a plain
# descent over (kind, text, offset) tuples. NUMBER is ASCII digits, as in
# the grammar.

_NAIVE_TOKEN_RE = re.compile(
    r"""
      (?P<SKIP>\s+|%[^\n]*)
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<IDENT>[a-z][A-Za-z0-9_']*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<IMPLIEDBY>:-)
    | (?P<DEGSEP>::)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<SLASH>/)
    | (?P<OTHER>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class NaiveParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _NAIVE_TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "OTHER":
                self.fail("unexpected character", (kind, m.group(), m.start()))
            if kind != "SKIP":
                self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("EOF", "", len(text)))
        self.pos = 0

    def line(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1

    def fail(self, message: str, token=None):
        _, text, offset = token or self.tokens[self.pos]
        column = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        raise ParseError(message, self.line(offset), column, text)

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str):
        if self.peek() != kind:
            self.fail(f"expected {kind}")
        return self.next()

    def statements(self) -> list:
        out = []
        while self.peek() != "EOF":
            kind, _, offset = self.tokens[self.pos]
            degree, body = Fraction(1), None
            if kind == "NUMBER":
                degree = self.degree()
                self.expect("DEGSEP")
            elif kind != "IDENT":
                self.fail("expected a fact or rule")
            head = self.atom()
            if kind == "IDENT" and self.peek() == "IMPLIEDBY":
                self.next()
                body = [self.atom()]
                while self.peek() == "COMMA":
                    self.next()
                    body.append(self.atom())
            self.expect("DOT")
            out.append((head, body, degree, offset))
        return out

    def degree(self) -> Fraction:
        first = self.expect("NUMBER")
        if self.peek() != "SLASH":
            return self.number(Fraction, first)
        self.next()
        second = self.expect("NUMBER")
        if "." in first[1] or "." in second[1]:
            self.fail("fraction degrees must be integer/integer", first)
        denominator = self.number(int, second)
        if denominator == 0:
            self.fail("zero denominator", second)
        return Fraction(self.number(int, first), denominator)

    def number(self, convert, token):
        try:
            return convert(token[1])
        except ValueError:
            self.fail("too many digits in degree", token)

    def atom(self) -> Atom:
        name = self.expect("IDENT")[1]
        if self.peek() != "LPAREN":
            return Atom(name)
        self.next()
        args = [self.term()]
        while self.peek() == "COMMA":
            self.next()
            args.append(self.term())
        self.expect("RPAREN")
        return Atom(name, tuple(args))

    def term(self):
        kind, text, _ = self.tokens[self.pos]
        if kind != "VAR" and kind != "IDENT" and kind != "NUMBER":
            self.fail("expected a term")
        self.next()
        return Variable(text) if kind == "VAR" else Constant(text)


def naive_parse_many(texts, *, strict: bool = False) -> tuple[Program, FuzzyDatabase]:
    """Reference `parse_many`: every text is tokenized and parsed before any
    statement is checked; then rules and facts merge in statement order."""
    parsed = [(p, p.statements()) for p in map(NaiveParser, texts)]
    facts: dict[Atom, Fraction] = {}
    rules: list[Rule] = []
    for parser, statements in parsed:
        for head, body, degree, offset in statements:
            if body is not None:
                rule = make_rule(len(rules), body, head)
                if strict and rule.existential_vars:
                    raise SafetyError(
                        f"head variables {sorted(rule.existential_vars)} do not occur in the body "
                        f"(line {parser.line(offset)}): {head}"
                    )
                rules.append(rule)
                continue
            if not head.is_ground():
                parser.fail("facts must be ground", ("", str(head), offset))
            as_degree(degree, positive=True)
            if head in facts and facts[head] != degree:
                raise DomainError(
                    f"conflicting degrees {facts[head]} and {degree} for fact {head} (line {parser.line(offset)})"
                )
            facts[head] = degree
    return Program.from_rules(rules, extra_atoms=list(facts)), FuzzyDatabase(facts)


def naive_parse_ground_atom(text: str) -> Atom:
    parser = NaiveParser(text)
    a = parser.atom()
    if parser.peek() == "DOT":
        parser.next()
    if parser.peek() != "EOF":
        parser.fail("trailing input after atom")
    if not a.is_ground():
        raise NonGroundQuery(f"query atom must be ground: {a}")
    return a


def naive_parse_degree(text: str) -> Fraction:
    parser = NaiveParser(text)
    degree = parser.degree()
    parser.expect("EOF")
    return degree


# ---------------------------------------------------------------------------
# The value types as frozen dataclasses


def dataclass_twins() -> SimpleNamespace:
    """The 20 value types of `core`, `engine`, `lp` and `termination`,
    declared as the `@dataclass`es they once were, word for word: the
    reference their plain classes are checked against. Declared in this
    function's scope, so a twin's methods (and `term_sort_key` and
    `_name_key`, copied too) see the other twins; their qualified names
    carry the prefix `dataclass_twins.<locals>.`."""
    from dataclasses import dataclass, field
    from functools import cached_property

    from mvdatalog.core import as_degree, atom_text, infer_signature
    from mvdatalog.lp import _exact, _less

    # core

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

        @property
        def has_existential_rules(self) -> bool:
            return any(r.is_existential for r in self.rules)

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

    # engine

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

    # lp

    @dataclass(frozen=True)
    class Constraint:
        """sum(coeffs[v] * v) >= rhs"""

        coeffs: dict[str, Fraction]
        rhs: Fraction

    @dataclass
    class LinearProgram:
        variables: list[str] = field(default_factory=list)
        bounds: dict[str, tuple[Fraction, Optional[Fraction]]] = field(default_factory=dict)
        fixings: dict[str, Fraction] = field(default_factory=dict)
        constraints: list[Constraint] = field(default_factory=list)
        objective: dict[str, Fraction] = field(default_factory=dict)

        def add_variable(
            self,
            name: str,
            lo: Fraction = ZERO,
            hi: Optional[Fraction] = ONE,
        ) -> str:
            if name in self.bounds:
                raise MalformedModel(f"variable {name!r} declared twice")
            self.variables.append(name)
            self.bounds[name] = (_exact(lo), None if hi is None else _exact(hi))
            return name

        def fix(self, name: str, value: Fraction) -> None:
            self.fixings[name] = _exact(value)

        def add_constraint(self, coeffs: Mapping[str, Fraction], rhs: Fraction) -> None:
            """Add sum(coeffs) >= rhs; a coefficient equal to 0, in any
            spelling, is left out."""
            self.constraints.append(
                Constraint({v: a for v, c in coeffs.items() if (a := _exact(c))}, _exact(rhs))
            )

    @dataclass
    class ColumnProgram:
        """An LP over integer columns 0..n-1, n = len(bounds): column j lies
        in bounds[j] = (lo, hi or None), is pinned at fixed[j] when set and is
        labelled names[j]. A row (coeffs, rhs, scale) of ints is a constraint
        times `scale`; costs map columns to ints or Fractions. `check` raises
        MalformedModel on inconsistent data."""

        bounds: list[tuple[Fraction, Optional[Fraction]]]
        fixed: dict[int, Fraction]
        rows: list[tuple[dict[int, int], int, int]]
        objective: dict[int, Rational]
        secondary: dict[int, Rational]
        names: Sequence

        def check(self) -> None:
            n = len(self.bounds)
            for used in (self.fixed, *(row for row, _, _ in self.rows), self.objective, self.secondary):
                if used and (min(used) < 0 or max(used) >= n):
                    raise MalformedModel(f"reference to a column outside 0..{n - 1}")
            for lo, hi in self.bounds:
                if hi is not None and _less(hi, lo):
                    raise MalformedModel("lower bound above upper bound")
            for j, value in self.fixed.items():
                lo, hi = self.bounds[j]
                if _less(value, lo) or (hi is not None and _less(hi, value)):
                    raise MalformedModel(f"fixed value {value} of {self.names[j]!r} outside bounds")

        def labelled(self) -> tuple[LinearProgram, dict[str, Fraction]]:
            """The same LP and secondary objective over names: column j is str(names[j])."""
            names = [str(v) for v in self.names]
            fixings, objective, secondary = ({names[j]: _exact(c) for j, c in m.items()} for m in (
                self.fixed, self.objective, self.secondary))
            rows = [Constraint({names[j]: Fraction(a, s) for j, a in row.items()}, Fraction(rhs, s))
                    for row, rhs, s in self.rows]
            return LinearProgram(names, dict(zip(names, self.bounds)), fixings, rows, objective), secondary

    @dataclass(frozen=True)
    class Solution:
        status: Status
        assignment: dict  # by name, or by column for a ColumnProgram
        objective_value: Optional[Fraction]

        @property
        def optimal(self) -> bool:
            return self.status is Status.OPTIMAL

    # termination

    @dataclass(frozen=True)
    class PositionVertex:
        predicate: str
        index: int  # 1-based

        def __str__(self) -> str:
            return f"{self.predicate}[{self.index}]"

    @dataclass(frozen=True)
    class DependencyGraph:
        vertices: frozenset[PositionVertex]
        normal_edges: frozenset[Edge]
        special_edges: frozenset[Edge]

    @dataclass(frozen=True)
    class WitnessCycle:
        """A cycle through at least one special edge, as (src, dst, is_special) steps."""

        steps: tuple[tuple[PositionVertex, PositionVertex, bool], ...]

        def __str__(self) -> str:
            parts = []
            for src, dst, special in self.steps:
                arrow = "=>" if special else "->"
                parts.append(f"{src} {arrow} {dst}")
            return ", ".join(parts)

    return SimpleNamespace(**{cls.__name__: cls for cls in (
        Variable, Constant, LabelledNull, Atom, Rule, Program, FuzzyDatabase, TruthAssignment, GroundRule, Instance,
        GroundModel, QueryResult, VerificationReport, Constraint, LinearProgram, ColumnProgram, Solution,
        PositionVertex, DependencyGraph, WitnessCycle,
    )})
