"""Shared generators and independent reference implementations.

Everything here stays deliberately naive: these are the oracles the
engine is checked against, so they must not share code paths with it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from mvdatalog.chase import ChaseResult, NullRegistry, _ground_rule, _hom_key, _hom_order
from mvdatalog.lp import LinearProgram, Solution, Status, solve
from mvdatalog.core import (
    Atom,
    Constant,
    FuzzyDatabase,
    Instance,
    Program,
    Rule,
    Variable,
    make_rule,
)

CONSTANTS = ["a", "b"]
PREDICATES = [("p", 1), ("q", 1), ("r", 2), ("s", 1)]
K_POOL = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(9, 10)]


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
            entries[_image(b, sub)] = Fraction(1)
        head = _image(rule.head, sub)
        entries[head] = Fraction(1, rng.randint(4, 8))
    program = Program.from_rules(rules, extra_atoms=list(entries))
    K = Fraction(1) if force_k_one else rng.choice(K_POOL)
    return Instance(program, FuzzyDatabase(entries), K)


def random_existential_program(rng: random.Random, max_rules: int = 4) -> Program:
    rules = []
    for i in range(rng.randint(1, max_rules)):
        rules.append(random_rule(rng, i, existential=rng.random() < 0.5))
    return Program.from_rules(rules)


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
                if all(_image(b, sub) in known for b in rule.body):
                    head = _image(rule.head, sub)
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
        image = _image(pattern, hom)
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


def naive_oblivious_chase(program: Program, facts, step_limit=None) -> ChaseResult:
    """Reference chase: every round enumerates every homomorphism against
    the whole atom set and applies those not applied before."""
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
    return ChaseResult(frozenset(atoms), gamma, registry, truncated, steps)


def _image(a: Atom, sub: dict) -> Atom:
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
