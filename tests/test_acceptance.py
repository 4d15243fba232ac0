"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
happen (pytest captures stdout otherwise).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import classical_closure, random_existential_program, random_instance
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import (
    Atom,
    Constant,
    Instance,
    LabelledNull,
    TruthAssignment,
    atom,
    rule_gap,
)
from mvdatalog.engine import (
    NoObliviousBaseModel,
    Unsatisfiable,
    build_optk,
    fixpoint_minimal_model,
    ground_atoms,
    k_truth,
    minimal_model,
    preferred_model,
    verify_model,
)
from mvdatalog.lp import Status, solve
from mvdatalog.parser import parse
from mvdatalog.termination import is_weakly_acyclic_ve

F = Fraction


@contextmanager
def criterion(num, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:02d} PASS  {description}  [{elapsed:.2f}s]")


def inst(text, K=F(1)):
    prog, db = parse(text)
    return Instance(prog, db, F(K))


ORCA = """
0.8 :: label(i1, whale).
0.7 :: polar(i1).
orca(X) :- label(X, whale), polar(X).
"""

KEY_PERSON = """
0.8 :: kp(amy, acme).
1 :: company(acme).
kp(Y, X) :- company(X).
"""

NULLS = """
0.8 :: s(a).
0.2 :: t(a).
p(X, Y) :- s(X).
t(X) :- p(X, Y).
"""

INCONSISTENT = """
1 :: r(a).
0.5 :: s(a).
s(X) :- r(X).
"""


def chase_of(instance):
    return oblivious_chase(instance.program, set(instance.database.entries))


def test_criterion_01_uncertain_labels():
    with criterion(1, "uncertain-label example: degree 1/2 and both query thresholds, < 1s"):
        started = time.perf_counter()
        instance = inst(ORCA)
        model = minimal_model(instance)
        assert model.assignment(atom("orca", "i1")) == F(1, 2)
        assert k_truth(instance, atom("orca", "i1"), F(1, 2)).entailed
        assert not k_truth(instance, atom("orca", "i1"), F(51, 100)).entailed
        assert time.perf_counter() - started < 1.0


def test_criterion_02_missing_key_person():
    with criterion(2, "existential example: null atom settles at exactly 1/5"):
        model = preferred_model(inst(KEY_PERSON))
        n1 = LabelledNull(1)
        assert model.assignment(Atom("kp", (n1, Constant("acme")))) == F(1, 5)
        assert model.assignment(atom("kp", "amy", "acme")) == F(4, 5)
        assert model.assignment(atom("company", "acme")) == F(1)


def test_criterion_03_no_oblivious_base():
    with criterion(3, "multi-null example: no obliviously-based model; hand model verifies rules only"):
        instance = inst(NULLS)
        with pytest.raises(NoObliviousBaseModel):
            preferred_model(instance)
        chase = chase_of(instance)
        support = {atom("s", "a"): F(4, 5), atom("t", "a"): F(1, 5)}
        for null in (LabelledNull(1), LabelledNull(900), LabelledNull(901), LabelledNull(902)):
            support[Atom("p", (Constant("a"), null))] = F(1, 5)
        report = verify_model(instance, chase, TruthAssignment(support))
        assert report.rules_satisfied and not report.tau_mismatches
        assert report.outside_base and not report.ok


def test_criterion_04_inconsistency():
    with criterion(4, "pinned-degree conflict: unsatisfiable at K=1, database itself at K=1/2"):
        with pytest.raises(Unsatisfiable):
            minimal_model(inst(INCONSISTENT))
        model = minimal_model(inst(INCONSISTENT, K=F(1, 2)))
        assert model.assignment.support == {atom("r", "a"): F(1), atom("s", "a"): F(1, 2)}


def test_criterion_05_minimal_model_characterisation():
    with criterion(5, ">=500 random instances: LP = fixpoint; min-closure; pointwise-least; < 60s"):
        started = time.perf_counter()
        rng = random.Random(20240515)
        total = 500
        satisfiable = unsatisfiable = 0
        for i in range(total):
            instance = random_instance(rng)
            try:
                model = minimal_model(instance).assignment
            except Unsatisfiable:
                unsatisfiable += 1
                with pytest.raises(Unsatisfiable):
                    fixpoint_minimal_model(instance)
                continue
            satisfiable += 1
            # (a) exact agreement with the independent fixpoint route
            assert fixpoint_minimal_model(instance).support == model.support
            chase = chase_of(instance)
            universe = {str(a): a for a in ground_atoms(chase, instance.database)}
            # a second feasible point from a perturbed objective
            lp = build_optk(instance, chase)
            lp.objective = {v: F(rng.randint(0, 3)) for v in lp.variables}
            other = solve(lp)
            assert other.status is Status.OPTIMAL
            other_nu = TruthAssignment(
                {universe[n]: v for n, v in other.assignment.items() if v > 0}
            )
            # (c) the minimal model is pointwise below every feasible point
            for name, a in universe.items():
                assert model(a) <= other.assignment[name]
            # (b) the pointwise minimum of two feasible models is again a model
            merged = {}
            for a in set(model.support) | set(other_nu.support):
                low = min(model(a), other_nu(a))
                if low > 0:
                    merged[a] = low
            assert verify_model(instance, chase, TruthAssignment(merged)).ok
        assert satisfiable + unsatisfiable == total
        assert satisfiable >= 300 and unsatisfiable >= 20
        assert time.perf_counter() - started < 60.0


def test_criterion_06_certain_knowledge():
    with criterion(6, ">=200 satisfiable K=1 instances: closure <=> degree-1; pruning transparent"):
        rng = random.Random(77007)
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 2000:
            attempts += 1
            instance = random_instance(rng, force_k_one=True)
            try:
                fast = minimal_model(instance, use_fast_path=True)
            except Unsatisfiable:
                with pytest.raises(Unsatisfiable):
                    minimal_model(instance, use_fast_path=False)
                continue
            checked += 1
            slow = minimal_model(instance, use_fast_path=False)
            assert fast.assignment == slow.assignment
            closure = classical_closure(
                instance.program,
                {a for a, d in instance.database.entries.items() if d == 1},
            )
            chase = chase_of(instance)
            for a in ground_atoms(chase, instance.database):
                assert (a in closure) == (fast.assignment(a) == 1)
            for a in closure:
                assert fast.assignment(a) == 1
        assert checked >= 200


def test_criterion_07_chase_finiteness_test():
    with criterion(7, "finiteness test: self-feeding rule rejected with witness; accepted programs terminate"):
        self_feeding = inst("p(a).\np(Y) :- p(X).").program
        ok, witness = is_weakly_acyclic_ve(self_feeding)
        assert not ok and witness is not None
        assert any(special for _, _, special in witness.steps)
        assert witness.steps[0][0] == witness.steps[-1][1]

        ok, witness = is_weakly_acyclic_ve(inst(KEY_PERSON).program)
        assert ok and witness is None

        rng = random.Random(31337)
        accepted = 0
        for _ in range(150):
            program = random_existential_program(rng)
            ok, _ = is_weakly_acyclic_ve(program)
            if not ok:
                continue
            accepted += 1
            facts = {atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")}
            result = oblivious_chase(program, facts, step_limit=20000)
            assert not result.truncated
        assert accepted >= 25


def test_criterion_08_tight_rules():
    with criterion(8, "every derived positive atom of a minimal model heads a tight rule"):
        rng = random.Random(90210)
        derived_checked = 0
        for _ in range(150):
            instance = random_instance(rng)
            try:
                model = minimal_model(instance)
            except Unsatisfiable:
                continue
            chase = chase_of(instance)
            for a, degree in model.assignment.support.items():
                if instance.database.degree(a) is not None:
                    continue
                derived_checked += 1
                assert any(
                    g.head == a
                    and a not in g.body
                    and rule_gap(model.assignment, g, instance.K) == 0
                    for g in chase.gamma
                ), f"no tight rule for {a} at degree {degree}"
        assert derived_checked >= 50


def _chain_text(n):
    lines = ["1/2 :: reach(c1)."]
    for i in range(1, n):
        lines.append(f"1 :: edge(c{i}, c{i+1}).")
    lines.append("reach(Y) :- edge(X, Y), reach(X).")
    return "\n".join(lines)


def test_criterion_09_scaling_smoke():
    with criterion(9, "chain databases 100..800: end-to-end log-log slope < 3, < 5 min"):
        started = time.perf_counter()
        sizes = [100, 200, 400, 800]
        times = []
        for n in sizes:
            t0 = time.perf_counter()
            prog, db = parse(_chain_text(n))
            model = minimal_model(Instance(prog, db, F(9, 10)))
            times.append(time.perf_counter() - t0)
            assert model.assignment(atom("reach", "c2")) == F(2, 5)
            assert model.assignment(atom("reach", "c7")) == 0
        xs = [math.log(n) for n in sizes]
        ys = [math.log(t) for t in times]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        total = time.perf_counter() - started
        print(f"    chain times: {[f'{t:.3f}s' for t in times]}, slope {slope:.2f}")
        assert slope < 3.0, f"log-log slope {slope:.2f}"
        assert total < 300.0


def test_criterion_10_datalog_degeneration():
    with criterion(10, ">=100 all-certain instances: degree-1 atoms = classical fixpoint"):
        rng = random.Random(1010)
        for _ in range(100):
            instance = random_instance(rng, force_k_one=True, all_one_degrees=True)
            model = minimal_model(instance)
            closure = classical_closure(instance.program, set(instance.database.entries))
            degree_one = {a for a, v in model.assignment.support.items() if v == 1}
            assert degree_one == set(model.assignment.support) == closure
