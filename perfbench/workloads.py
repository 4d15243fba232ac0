"""Seeded input generators for the four benchmark workloads.

Each generator turns a `random.Random` into a pool of `Case`s: the
`.mvdl` text the CLI reads, its command-line options, one query, and
an oracle from `oracles` that computes the expected answer. Nothing here
imports `mvdatalog`.

Why these four (see README.md for sizes and the layers each stresses):
`chain` is dominated by the naive chase, `grid` by the Fraction simplex
and the K=1 certain-knowledge pass, `keyperson` by the existential LP
build and the two-stage solve, and `small` by the per-call cost of the
CLI and parser that the large inputs hide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    ONE,
    ZERO,
    atom_text,
    chain_degrees,
    fuzzy_fixpoint,
    grid_degrees,
    keyperson_null_degree,
    relaxed_fixpoint,
)

# A query threshold is either the reference degree (entailed, exit 0) or
# this much above it (not entailed, exit 1) while that stays within [0, 1].
QUERY_STEP = Fraction(1, 1000)


@dataclass
class Case:
    """One instance: the file the CLI reads, how it is called, what it must answer."""

    stem: str
    text: str
    K: Fraction
    query_atom: str
    above: bool
    oracle: Callable[[], dict | None] = field(repr=False)
    relaxed: bool = False
    path: Path | None = None  # where set-up wrote `text`

    def options(self) -> list[str]:
        opts = ["--K", str(self.K)]
        if self.relaxed:
            opts += ["--mode", "relaxed"]
        return opts

    def threshold(self, model: dict | None) -> Fraction:
        degree = ZERO if model is None else model.get(self.query_atom, ZERO)
        if self.above and degree + QUERY_STEP <= ONE:
            return degree + QUERY_STEP
        return degree


def _spread(n: int, certain_share: float, uncertain: tuple) -> list[Fraction]:
    """n degrees: round(n * certain_share) ones, the rest cycling through `uncertain`."""
    ones = round(n * certain_share)
    return [ONE] * ones + [uncertain[k % len(uncertain)] for k in range(n - ones)]


def _fact(a: tuple, degree: Fraction) -> str:
    return f"{atom_text(a)}." if degree == ONE else f"{degree} :: {atom_text(a)}."


# ---------------------------------------------------------------------------
# chain: single-source reachability along a path at K just below 1

CHAIN_NODES = 200
CHAIN_POOL = 4
CHAIN_K = Fraction(999, 1000)
# Every edge is uncertain, so degrees fall to 0 within a few dozen steps:
# most LP rows hold at the all-zero point and the simplex barely pivots,
# leaving the chase's rounds (one new atom each) as the dominant cost.
CHAIN_EDGE_DEGREES = (Fraction(9, 10), Fraction(19, 20), Fraction(99, 100))


def chain(rng: random.Random, pool: int = CHAIN_POOL, nodes: int = CHAIN_NODES) -> list[Case]:
    cases = []
    for c in range(pool):
        edges = _spread(nodes - 1, 0.0, CHAIN_EDGE_DEGREES)
        rng.shuffle(edges)
        facts = [_fact(("edge", (f"v{i}", f"v{i + 1}")), e) for i, e in enumerate(edges)]
        rng.shuffle(facts)
        text = "\n".join(["reach(v0).", *facts, "reach(Y) :- edge(X, Y), reach(X).", ""])

        def oracle(edges=edges) -> dict:
            model = {atom_text(("edge", (f"v{i}", f"v{i + 1}"))): e for i, e in enumerate(edges)}
            for i, d in enumerate(chain_degrees(edges, CHAIN_K)):
                if d > ZERO:
                    model[f"reach(v{i})"] = d
            return model

        target = rng.randrange(1, 16)
        cases.append(Case(f"chain{c}", text, CHAIN_K, f"reach(v{target})", c % 2 == 1, oracle))
    return cases


# ---------------------------------------------------------------------------
# grid: reachability on a side x side grid DAG at K = 1

GRID_SIDE = 7
GRID_POOL = 24
GRID_UNCERTAIN = (Fraction(19, 20), Fraction(9, 10))
GRID_CERTAIN_SHARE = 0.3  # share of edges with degree 1; the rest split evenly over GRID_UNCERTAIN
GRID_UNSAT_EVERY = 3  # every third case of the pool is made unsatisfiable


def grid(rng: random.Random, pool: int = GRID_POOL, side: int = GRID_SIDE) -> list[Case]:
    cases = []
    for c in range(pool):
        right_edges = [(i, j) for i in range(side) for j in range(side - 1)]
        down_edges = [(i, j) for i in range(side - 1) for j in range(side)]
        # Fixed proportions, shuffled: every case has the same degree mix,
        # so cost varies less from one seed to the next.
        degrees = _spread(len(right_edges) + len(down_edges), GRID_CERTAIN_SHARE, GRID_UNCERTAIN)
        rng.shuffle(degrees)
        right = dict(zip(right_edges, degrees))
        down = dict(zip(down_edges, degrees[len(right_edges):]))
        derived = grid_degrees(side, right, down)
        corner = (side - 1, side - 1)
        # Pinning the far corner below what the edges force makes the
        # instance unsatisfiable, so phase 1 of the simplex ends infeasible.
        pin = derived[corner] / 2 if c % GRID_UNSAT_EVERY == 2 and derived[corner] > ZERO else None

        def node(v: tuple[int, int]) -> str:
            return f"g{v[0]}_{v[1]}"

        facts = [_fact(("edge", (node(u), node((u[0], u[1] + 1)))), e) for u, e in right.items()]
        facts += [_fact(("edge", (node(u), node((u[0] + 1, u[1])))), e) for u, e in down.items()]
        if pin is not None:
            facts.append(_fact(("reach", (node(corner),)), pin))
        rng.shuffle(facts)
        text = "\n".join([f"reach({node((0, 0))}).", *facts, "reach(Y) :- edge(X, Y), reach(X).", ""])

        def oracle(right=right, down=down, derived=derived, pin=pin) -> dict | None:
            if pin is not None:
                return None
            model = {f"edge({node(u)}, {node((u[0], u[1] + 1))})": e for u, e in right.items()}
            model.update({f"edge({node(u)}, {node((u[0] + 1, u[1]))})": e for u, e in down.items()})
            model.update({f"reach({node(v)})": d for v, d in derived.items() if d > ZERO})
            return model

        target = (rng.randrange(side), rng.randrange(side))
        cases.append(Case(f"grid{c}", text, ONE, f"reach({node(target)})", c % 2 == 1, oracle))
    return cases


# ---------------------------------------------------------------------------
# keyperson: one existential rule over many companies

KP_COMPANIES = 100
KP_POOL = 12
KP_K = ONE  # K < 1 roughly doubles the simplex work and would make cost seed-dependent
KP_KNOWN = (0, 1, 1, 2, 2)  # known key persons per company, in these proportions
KP_DEGREES = tuple(Fraction(n, 10) for n in range(1, 8))


def keyperson(rng: random.Random, pool: int = KP_POOL, companies: int = KP_COMPANIES) -> list[Case]:
    cases = []
    for c in range(pool):
        counts = [KP_KNOWN[i % len(KP_KNOWN)] for i in range(companies)]
        rng.shuffle(counts)
        known = {
            f"co{i}": [(f"p{i}x{j}", rng.choice(KP_DEGREES)) for j in range(n)]
            for i, n in enumerate(counts)
        }
        facts = [f"company({co})." for co in known]
        facts += [_fact(("kp", (p, co)), d) for co, persons in known.items() for p, d in persons]
        rng.shuffle(facts)
        text = "\n".join([*facts, "kp(Y, X) :- company(X).", "person(Y) :- kp(Y, X).", ""])

        def oracle(known=known, K=KP_K) -> dict:
            # Nulls are named by the company they witness, as the checker
            # renames the CLI's `_:nN` (their numbering is the chase's choice).
            model = {}
            for co, persons in known.items():
                model[f"company({co})"] = ONE
                for p, d in persons:
                    model[f"kp({p}, {co})"] = d
                    if d - ONE + K > ZERO:
                        model[f"person({p})"] = d - ONE + K
                null = keyperson_null_degree([d for _, d in persons], K)
                if null > ZERO:
                    model[f"kp(?{co}, {co})"] = null
                    if null - ONE + K > ZERO:
                        model[f"person(?{co})"] = null - ONE + K
            return model

        people = [p for persons in known.values() for p, _ in persons]
        cases.append(Case(f"keyperson{c}", text, KP_K, f"person({rng.choice(people)})", c % 2 == 1, oracle))
    return cases


# ---------------------------------------------------------------------------
# small: many tiny random plain programs

SMALL_POOL = 1200
SMALL_PREDICATES = (("p", 1), ("q", 1), ("t", 1), ("r", 2), ("s", 2))
SMALL_CONSTANTS = ("a", "b", "c")
SMALL_VARIABLES = ("X", "Y", "Z")
SMALL_K = (ONE, Fraction(9, 10), Fraction(3, 4), Fraction(1, 2))
SMALL_DEGREES = (ONE, Fraction(9, 10), Fraction(4, 5), Fraction(3, 4), Fraction(1, 2), Fraction(3, 10))
SMALL_RELAXED_SHARE = 0.2


# Bodies of 1-2 atoms over mostly variables and 5-10 pinned facts make a
# derivation overshoot a pinned degree in about 12% of the cases.
def _small_rule(rng: random.Random) -> tuple:
    body = []
    for _ in range(rng.randint(1, 2)):
        predicate, arity = rng.choice(SMALL_PREDICATES)
        args = tuple(
            rng.choice(SMALL_VARIABLES) if rng.random() < 0.85 else rng.choice(SMALL_CONSTANTS)
            for _ in range(arity)
        )
        body.append((predicate, args))
    # Head variables must occur in the body, or the rule would be existential.
    variables = sorted({t for _, args in body for t in args if t in SMALL_VARIABLES})
    predicate, arity = rng.choice(SMALL_PREDICATES)
    head = tuple(
        rng.choice(variables) if variables and rng.random() < 0.85 else rng.choice(SMALL_CONSTANTS)
        for _ in range(arity)
    )
    return (predicate, head), tuple(body)


def _rule_text(rule: tuple) -> str:
    head, body = rule
    return f"{atom_text(head)} :- {', '.join(atom_text(b) for b in body)}."


def small(rng: random.Random, pool: int = SMALL_POOL) -> list[Case]:
    cases = []
    for c in range(pool):
        K = rng.choice(SMALL_K)
        relaxed = rng.random() < SMALL_RELAXED_SHARE
        rules = [_small_rule(rng) for _ in range(rng.randint(2, 6))]
        facts: dict = {}
        for _ in range(rng.randint(5, 10)):
            predicate, arity = rng.choice(SMALL_PREDICATES)
            a = (predicate, tuple(rng.choice(SMALL_CONSTANTS) for _ in range(arity)))
            facts.setdefault(a, rng.choice(SMALL_DEGREES))
        text = "\n".join([*(_fact(a, d) for a, d in facts.items()), *map(_rule_text, rules), ""])

        def oracle(rules=rules, facts=facts, K=K, relaxed=relaxed) -> dict | None:
            solver = relaxed_fixpoint if relaxed else fuzzy_fixpoint
            model = solver(rules, facts, K, list(SMALL_CONSTANTS))
            return None if model is None else {atom_text(a): d for a, d in model.items()}

        # Query an atom some rule derives, so most queries have a nonzero degree.
        predicate, args = rng.choice(rules)[0]
        query = atom_text((predicate, tuple(rng.choice(SMALL_CONSTANTS) for _ in args)))
        cases.append(Case(f"small{c}", text, K, query, c % 2 == 1, oracle, relaxed))
    return cases


GENERATORS: dict[str, Callable[[random.Random], list[Case]]] = {
    "chain": chain,
    "grid": grid,
    "keyperson": keyperson,
    "small": small,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's pool of cases; the same seed always gives the same pool."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
