import ast
import heapq
import os
import random
from collections import Counter
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from helpers import (
    atom_bounds,
    chase_fixpoint,
    classical_closure,
    constants,
    program_constants,
    random_degree,
    random_existential_program,
    random_instance,
    rewritten_relaxed_model,
    rule_by_id,
    scan_head_atoms,
)
from mvdatalog import chase as chase_module
from mvdatalog import engine as engine_module
from mvdatalog import termination as termination_module
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import (
    ArityError,
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    GroundRule,
    Instance,
    LabelledNull,
    Program,
    TruthAssignment,
    Variable,
    atom,
    make_rule,
    rule_gap,
)
from mvdatalog.engine import (
    Engine,
    IterationLimit,
    ModelKind,
    NoObliviousBaseModel,
    TruncatedChase,
    UnboundedChase,
    Unsatisfiable,
    build_optk,
    eoptk_columns,
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


class TestBuildOptk:
    def test_orca_structure(self):
        instance = inst(ORCA)
        lp = build_optk(instance, chase_of(instance))
        assert len(lp.variables) == 3
        assert len(lp.constraints) == 1
        assert len(lp.fixings) == 2
        (c,) = lp.constraints
        assert c.coeffs == {
            "orca(i1)": F(1),
            "label(i1, whale)": F(-1),
            "polar(i1)": F(-1),
        }
        assert c.rhs == F(1) - 2
        assert lp.objective == {v: F(1) for v in lp.variables}

    def test_empty_gamma_keeps_tau_variables(self):
        instance = inst("0.8 :: p(a).")
        lp = build_optk(instance, chase_of(instance))
        assert lp.variables == ["p(a)"]
        assert lp.constraints == []

    def test_inconsistent_instance_is_infeasible(self):
        instance = inst(INCONSISTENT)
        lp = build_optk(instance, chase_of(instance))
        assert solve(lp).status is Status.INFEASIBLE

    def test_truncated_chase_rejected(self):
        instance = inst(KEY_PERSON)
        truncated = oblivious_chase(
            instance.program, set(instance.database.entries), step_limit=0
        )
        with pytest.raises(TruncatedChase):
            build_optk(instance, truncated)


class TestBuildEoptk:
    def test_key_person_matching_sum(self):
        instance = inst(KEY_PERSON)
        lp, secondary = eoptk_columns(instance, chase_of(instance)).labelled()
        (c,) = lp.constraints
        assert c.coeffs == {
            "company(acme)": F(-1),
            "kp(amy, acme)": F(1),
            "kp(_:n1, acme)": F(1),
        }
        assert c.rhs == F(0)
        assert lp.objective == {"company(acme)": F(1), "kp(amy, acme)": F(1)}
        assert secondary == {"kp(_:n1, acme)": F(1)}

    def test_no_existentials_degenerates_to_optk(self):
        instance = inst(ORCA)
        chase = chase_of(instance)
        lp, secondary = eoptk_columns(instance, chase).labelled()
        base = build_optk(instance, chase)
        assert lp.constraints == base.constraints
        assert lp.objective == base.objective
        assert secondary == {}

    def test_nulls_example_infeasible(self):
        instance = inst(NULLS)
        lp, _ = eoptk_columns(instance, chase_of(instance)).labelled()
        assert solve(lp).status is Status.INFEASIBLE


class TestMinimalModel:
    def test_orca_at_k1(self):
        model = minimal_model(inst(ORCA))
        assert model.kind is ModelKind.MINIMAL
        assert model.assignment(atom("orca", "i1")) == F(1, 2)
        assert model.assignment(atom("label", "i1", "whale")) == F(4, 5)
        assert model.assignment(atom("polar", "i1")) == F(7, 10)

    def test_orca_at_k_45(self):
        model = minimal_model(inst(ORCA, K=F(4, 5)))
        assert model.assignment(atom("orca", "i1")) == F(3, 10)

    def test_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            minimal_model(inst(INCONSISTENT))

    def test_satisfiable_at_half(self):
        model = minimal_model(inst(INCONSISTENT, K=F(1, 2)))
        assert model.assignment.support == {atom("r", "a"): F(1), atom("s", "a"): F(1, 2)}

    def test_existential_program_rejected(self):
        with pytest.raises(ValueError):
            minimal_model(inst(KEY_PERSON))

    def test_model_verifies(self):
        instance = inst(ORCA)
        model = minimal_model(instance)
        report = verify_model(instance, chase_of(instance), model.assignment)
        assert report.ok


class TestPreferredModel:
    def test_key_person(self):
        model = preferred_model(inst(KEY_PERSON))
        assert model.kind is ModelKind.PREFERRED
        n1 = LabelledNull(1)
        assert model.assignment(Atom("kp", (n1, Constant("acme")))) == F(1, 5)
        assert model.assignment(atom("kp", "amy", "acme")) == F(4, 5)
        assert model.assignment(atom("company", "acme")) == F(1)

    def test_nulls_example_has_no_oblivious_base_model(self):
        with pytest.raises(NoObliviousBaseModel):
            preferred_model(inst(NULLS))

    def test_existential_free_equals_minimal(self):
        instance = inst(ORCA)
        assert preferred_model(instance).assignment == minimal_model(instance).assignment

    def test_contract(self):
        instance = inst(KEY_PERSON)
        chase = chase_of(instance)
        model = preferred_model(instance)
        report = verify_model(instance, chase, model.assignment)
        assert report.ok  # K-satisfies gamma, agrees with tau, support in OLim
        # no feasible point has a smaller active-atom sum: fresh re-solve
        lp, _ = eoptk_columns(instance, chase).labelled()
        resolved = solve(lp)
        active_sum = sum(
            (model.assignment(a) for a in model.assignment.support if not a.has_nulls()),
            F(0),
        )
        assert resolved.objective_value == active_sum


class TestEntryPointsAgree:
    """Every entry point answers through `Engine.model`: one model, kind and error class."""

    @staticmethod
    def _outcome(run):
        try:
            model = run()
        except NoObliviousBaseModel as exc:  # Unsatisfiable included
            return type(exc)
        return model.assignment, model.kind

    @staticmethod
    def _answer(run, atom_, threshold):
        try:
            result = run(atom_, threshold)
        except NoObliviousBaseModel as exc:
            return type(exc)
        assert result.atom == atom_ and result.threshold == threshold
        assert result.entailed == (result.degree >= threshold)
        return result.degree, result.model_relative

    def _check(self, instance, rng):
        engine = Engine(instance)
        expected = self._outcome(lambda: engine.model)
        runs = [lambda: preferred_model(instance)]
        if not instance.program.has_existential_rules:
            runs.append(lambda: minimal_model(instance))
        for run in runs:
            assert self._outcome(run) == expected
        atoms = sorted(engine.chase.olim, key=Atom.sort_key)
        a, c = rng.choice(atoms), random_degree(rng)
        if isinstance(expected, type):
            answer = expected
        else:
            answer = (expected[0](a), expected[1] is ModelKind.PREFERRED)
        for query in (lambda b, t: k_truth(instance, b, t), engine.query):
            assert self._answer(query, a, c) == answer
        return expected

    def test_random_plain_instances(self):
        rng = random.Random(12012)
        outcomes = Counter()
        for _ in range(600):
            expected = self._check(random_instance(rng, max_rules=8, max_facts=7), rng)
            outcomes[expected if isinstance(expected, type) else expected[1]] += 1
        assert set(outcomes) == {ModelKind.MINIMAL, Unsatisfiable}
        assert min(outcomes.values()) >= 60

    def test_random_existential_programs(self):
        rng = random.Random(12013)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        outcomes = Counter()
        while sum(outcomes.values()) < 1500:
            program = random_existential_program(rng)
            if not is_weakly_acyclic_ve(program)[0]:
                continue
            tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
            expected = self._check(Instance(program, tau, rng.choice([F(1), F(4, 5)])), rng)
            outcomes[expected if isinstance(expected, type) else expected[1]] += 1
        assert set(outcomes) == {ModelKind.MINIMAL, ModelKind.PREFERRED, Unsatisfiable, NoObliviousBaseModel}
        assert min(outcomes.values()) >= 20

    def test_unsatisfiable_plain_program_has_no_oblivious_base_model(self):
        instance = inst("0.5 :: p(a).\np(a) :- q(a).\nq(a).")
        with pytest.raises(Unsatisfiable) as raised:
            preferred_model(instance)
        assert isinstance(raised.value, NoObliviousBaseModel)


class TestKTruth:
    def test_orca_half_entailed(self):
        result = k_truth(inst(ORCA), atom("orca", "i1"), F(1, 2))
        assert result.entailed and result.degree == F(1, 2)
        assert not result.model_relative

    def test_orca_51_not_entailed(self):
        result = k_truth(inst(ORCA), atom("orca", "i1"), F(51, 100))
        assert not result.entailed

    def test_zero_threshold_always_entailed(self):
        result = k_truth(inst(ORCA), atom("absent", "i1"), F(0))
        assert result.entailed and result.degree == 0

    def test_existential_flagged_model_relative(self):
        result = k_truth(inst(KEY_PERSON), atom("kp", "amy", "acme"), F(4, 5))
        assert result.entailed and result.model_relative

    def test_unsatisfiable_propagates(self):
        with pytest.raises(Unsatisfiable):
            k_truth(inst(INCONSISTENT), atom("s", "a"), F(1, 2))


class TestCertainClosure:
    """At K = 1 the model's certain atoms are the classical closure of the fully-true facts."""

    def test_derives_from_fully_true_facts(self):
        instance = inst("1 :: company(acme).\n0.8 :: kp(amy, acme).\norg(X) :- company(X).")
        assert minimal_model(instance).certain_atoms == frozenset(
            {atom("company", "acme"), atom("org", "acme")}
        )

    def test_no_fully_true_facts(self):
        instance = inst("0.9 :: p(a).\nq(X) :- p(X).")
        assert minimal_model(instance).certain_atoms == frozenset()

    def test_orca_all_uncertain(self):
        assert minimal_model(inst(ORCA)).certain_atoms == frozenset()

    def test_conflict_with_database_unsatisfiable(self):
        instance = inst("1 :: r(a).\n0.5 :: s(a).\ns(X) :- r(X).")
        with pytest.raises(Unsatisfiable):
            minimal_model(instance)  # fast path sees s(a) certain but pinned at 1/2


class TestOneUniverse:
    """The engine's universe is the chase's olim, and its active atoms are the null-free ones."""

    @staticmethod
    def _draws():
        rng = random.Random(6006)
        for _ in range(1000):
            instance = random_instance(rng)
            for step_limit in (None, 1, 3):
                yield instance, oblivious_chase(instance.program, set(instance.database.entries), step_limit)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        for _ in range(500):
            tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
            instance = Instance(random_existential_program(rng), tau, rng.choice([F(1), F(4, 5)]))
            for step_limit in (5, 40):
                yield instance, oblivious_chase(instance.program, set(tau.entries), step_limit)

    def test_universe_and_objective_split(self):
        draws = with_nulls = 0
        for instance, chase in self._draws():
            draws += 1
            tau = instance.database
            # an independent universe: tau's support plus Gamma's atoms
            rebuilt = set(tau.entries) | {a for g in chase.gamma for a in (*g.body, g.head)}
            universe = ground_atoms(chase, tau)
            assert universe == sorted(rebuilt, key=Atom.sort_key) == chase.sorted_olim()
            with pytest.raises(DomainError):
                verify_model(instance, chase, TruthAssignment({universe[-1]: F(3, 2)}))
            if chase.truncated:
                continue
            lp, secondary = eoptk_columns(instance, chase).labelled()
            adom = program_constants(instance.program) | constants(tau.entries)
            active = {str(a) for a in universe if all(isinstance(t, Constant) and t.name in adom for t in a.args)}
            null_free = {str(a) for a in universe if not a.has_nulls()}
            assert set(lp.objective) == active == null_free
            assert set(secondary) == set(lp.variables) - null_free
            assert set(lp.objective.values()) | set(secondary.values()) <= {F(1)}
            with_nulls += bool(secondary)
        assert draws >= 3000 and with_nulls > 100


class TestFixpointOracle:
    def test_orca(self):
        nu = fixpoint_minimal_model(inst(ORCA))
        assert nu(atom("orca", "i1")) == F(1, 2)

    def test_two_step_chain(self):
        instance = inst("0.9 :: a0.\nb0 :- a0.\nc0 :- b0.", K=F(9, 10))
        nu = fixpoint_minimal_model(instance)
        assert nu(Atom("b0")) == F(4, 5)
        assert nu(Atom("c0")) == F(7, 10)

    def test_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            fixpoint_minimal_model(inst(INCONSISTENT))

    def test_iteration_limit_surfaces(self):
        with pytest.raises(IterationLimit):
            fixpoint_minimal_model(inst(ORCA), max_rounds=0)


class TestVerifyModel:
    def test_minimal_model_passes(self):
        instance = inst(ORCA)
        model = minimal_model(instance)
        assert verify_model(instance, chase_of(instance), model.assignment).ok

    def test_perturbed_model_fails_on_rule(self):
        instance = inst(ORCA)
        model = minimal_model(instance)
        perturbed = dict(model.assignment.support)
        perturbed[atom("orca", "i1")] = F(2, 5)
        report = verify_model(instance, chase_of(instance), TruthAssignment(perturbed))
        assert not report.ok
        ((g, value),) = report.rule_violations
        assert g.head == atom("orca", "i1")
        assert value == F(9, 10)

    def test_tau_extension_on_rule_free_instance(self):
        instance = inst("0.8 :: p(a).\n0.3 :: q(b).")
        nu = TruthAssignment({atom("p", "a"): F(4, 5), atom("q", "b"): F(3, 10)})
        assert verify_model(instance, chase_of(instance), nu).ok

    def test_truncated_chase_rejected(self):
        # p(_:n1) -> p(_:n2) lies past the step limit and was never checked
        instance = inst("p(a).\np(Y) :- p(X).")
        truncated = oblivious_chase(instance.program, set(instance.database.entries), step_limit=1)
        nu = TruthAssignment({atom("p", "a"): F(1), Atom("p", (LabelledNull(1),)): F(1)})
        assert set(nu.support) == truncated.olim
        with pytest.raises(TruncatedChase):
            verify_model(instance, truncated, nu)

    def test_relaxed_model_against_the_engine_pins_and_seeds(self):
        instance = inst(INCONSISTENT)  # 1 :: r(a). 0.5 :: s(a). s(X) :- r(X).
        engine = Engine(instance, relaxed=True)
        model = engine.model.assignment
        pins, seeds = atom_bounds(engine)
        assert verify_model(instance, engine.chase, model, pins=pins, seeds=seeds).ok
        # tau's degrees as pins: s(a) = 1 is not the pinned 1/2
        assert verify_model(instance, engine.chase, model).tau_mismatches == ((atom("s", "a"), F(1, 2), F(1)),)

    def test_seed_not_reached(self):
        instance = inst("0.8 :: p(a).\nq(X) :- p(X).", F(9, 10))
        engine = Engine(instance, relaxed=True)  # p(a) must reach 7/10
        assert engine.model.assignment.support == {atom("p", "a"): F(7, 10), atom("q", "a"): F(3, 5)}
        low = TruthAssignment({atom("p", "a"): F(3, 5), atom("q", "a"): F(1, 2)})
        pins, seeds = atom_bounds(engine)
        report = verify_model(instance, engine.chase, low, pins=pins, seeds=seeds)
        assert report.rules_satisfied and report.tau_mismatches == ((atom("p", "a"), F(7, 10), F(3, 5)),)

    def test_hand_built_four_null_assignment(self):
        # satisfies every ground rule under strong existential semantics but
        # has no oblivious base (three of the nulls never appear in the chase)
        instance = inst(NULLS)
        chase = chase_of(instance)
        support = {atom("s", "a"): F(4, 5), atom("t", "a"): F(1, 5)}
        names = [LabelledNull(1), LabelledNull(101), LabelledNull(102), LabelledNull(103)]
        for n in names:
            support[Atom("p", (Constant("a"), n))] = F(1, 5)
        report = verify_model(instance, chase, TruthAssignment(support))
        assert report.rules_satisfied
        assert not report.tau_mismatches
        assert len(report.outside_base) == 3
        assert not report.ok


class TestHeadIndex:
    """`chase.head_ids` finds through the chase's hash index exactly the atoms
    that the scan in tests/helpers.py finds."""

    @staticmethod
    def _check(instance, chase, models, monkeypatch):
        """Compare every ground rule's head sum in the engine, by id, and
        verify_model's report on each model, with the scan; returns the
        existential heads."""
        universe = chase.sorted_olim()
        heads = []
        for g, (ids, _) in zip(chase.gamma, engine_module._rows(chase)):
            rule = rule_by_id(instance.program, g.origin_rule_id)
            indexed = [chase.atoms[i] for i in ids]
            assert Counter(indexed) == Counter(scan_head_atoms(rule, g, universe))
            if rule.is_existential:
                heads.append((g, set(indexed)))
        reports = [verify_model(instance, chase, m) for m in models]

        def scanned(compiled, args, index):  # the same ids by the scan, over verify_model's support
            support = [Atom(p, a) for p, a in index.keys]
            head = Atom(compiled.rule.head.predicate, args)
            found = set(scan_head_atoms(compiled.rule, GroundRule(compiled.rule.id, (), head), support))
            return [i for i, a in enumerate(support) if a in found]

        monkeypatch.setattr(engine_module, "head_ids", scanned)
        assert reports == [verify_model(instance, chase, m) for m in models]
        monkeypatch.undo()
        return heads

    def test_random_existential_chases(self, monkeypatch):
        rng = random.Random(9119)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        draws = sums = satisfied = violated = 0
        while draws < 3000:
            program = random_existential_program(rng)
            if not is_weakly_acyclic_ve(program)[0]:
                continue
            tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
            instance = Instance(program, tau, rng.choice([F(1), F(4, 5)]))
            chase = chase_of(instance)
            models = [TruthAssignment({a: random_degree(rng) for a in chase.olim if rng.random() < 0.6})]
            try:
                models.append(preferred_model(instance).assignment)
            except NoObliviousBaseModel:
                pass
            heads = self._check(instance, chase, models, monkeypatch)
            sums += sum(len(h) > 1 for _, h in heads)
            satisfied += len(models) == 2
            violated += not verify_model(instance, chase, models[0]).rules_satisfied
            draws += 1
        assert sums >= 500 and satisfied >= 1000 and violated >= 500

    def _heads(self, text, monkeypatch):
        instance = inst(text)
        chase = chase_of(instance)
        return self._check(instance, chase, [preferred_model(instance).assignment], monkeypatch)

    def test_repeated_existential_variable(self, monkeypatch):
        ((g, heads),) = self._heads("q(c).\n0.5 :: r(b, b).\n0.5 :: r(b, c).\nr(Y, Y) :- q(X).", monkeypatch)
        assert g.head.args[0] == g.head.args[1]
        assert heads == {g.head, atom("r", "b", "b")}

    def test_constant_in_head(self, monkeypatch):
        ((g, heads),) = self._heads("q(c).\n0.5 :: r(a, b).\n0.5 :: r(b, b).\nr(a, Y) :- q(X).", monkeypatch)
        assert heads == {g.head, atom("r", "a", "b")}

    def test_constant_named_like_the_existential_variable(self, monkeypatch):
        # r(Y, Z) with the constant Y and the existential variable Y
        rule = make_rule(0, [atom("q", "X")], Atom("r", (Constant("Y"), Variable("Y"))))
        tau = FuzzyDatabase({atom("q", "a"): F(1), Atom("r", (Constant("Y"), Constant("b"))): F(1, 2)})
        instance = Instance(Program.from_rules([rule], extra_atoms=list(tau.entries)), tau, F(1))
        chase = chase_of(instance)
        ((g, heads),) = self._check(instance, chase, [preferred_model(instance).assignment], monkeypatch)
        assert heads == {g.head, Atom("r", (Constant("Y"), Constant("b")))}

    def test_body_null_at_a_plain_position(self, monkeypatch):
        text = "s(a).\n0.5 :: t(b, a).\np(X, Y) :- s(X).\nt(Y, Z) :- p(X, Y).\nt(Y, X) :- p(X, Y)."
        _, (g, heads) = self._heads(text, monkeypatch)
        null = g.head.args[0]
        assert isinstance(null, LabelledNull) and g.head.args[1] != null
        assert heads == {g.head, Atom("t", (null, Constant("a")))}


class TestRandomizedProperties:
    def _solve_both(self, instance):
        try:
            lp_model = minimal_model(instance).assignment
        except Unsatisfiable:
            lp_model = None
        try:
            fp_model = fixpoint_minimal_model(instance)
        except Unsatisfiable:
            fp_model = None
        return lp_model, fp_model

    def test_lp_and_fixpoint_agree(self):
        rng = random.Random(555)
        satisfiable = unsatisfiable = 0
        for _ in range(120):
            instance = random_instance(rng)
            lp_model, fp_model = self._solve_both(instance)
            if lp_model is None:
                unsatisfiable += 1
                assert fp_model is None
            else:
                satisfiable += 1
                assert fp_model is not None
                assert lp_model.support == fp_model.support
        assert satisfiable >= 40 and unsatisfiable >= 10

    def test_support_bound_by_chase(self):
        rng = random.Random(77)
        for _ in range(40):
            instance = random_instance(rng)
            try:
                model = minimal_model(instance)
            except Unsatisfiable:
                continue
            chase = chase_of(instance)
            assert set(model.assignment.support) <= set(chase.olim)

    def test_tightness_of_derived_atoms(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            instance = random_instance(rng)
            try:
                model = minimal_model(instance)
            except Unsatisfiable:
                continue
            chase = chase_of(instance)
            for a, degree in model.assignment.support.items():
                if instance.database.degree(a) is not None:
                    continue
                checked += 1
                tight = [
                    g
                    for g in chase.gamma
                    if g.head == a
                    and a not in g.body
                    and rule_gap(model.assignment, g, instance.K) == 0
                ]
                assert tight, f"derived atom {a} has no tight rule"
        assert checked >= 20

    def test_minimal_below_any_feasible_point(self):
        rng = random.Random(13)
        compared = 0
        for _ in range(40):
            instance = random_instance(rng)
            chase = chase_of(instance)
            lp = build_optk(instance, chase)
            lp.objective = {v: F(rng.randint(0, 4)) for v in lp.variables}
            other = solve(lp)
            if other.status is not Status.OPTIMAL:
                continue
            model = minimal_model(instance)
            compared += 1
            for name, value in other.assignment.items():
                assert model.assignment.support.get(_atom_by_name(chase, instance)[name], F(0)) <= value
        assert compared >= 15

    def test_pointwise_min_of_models_is_model(self):
        rng = random.Random(137)
        compared = 0
        for _ in range(40):
            instance = random_instance(rng)
            chase = chase_of(instance)
            lp = build_optk(instance, chase)
            lp.objective = {v: F(rng.randint(0, 4)) for v in lp.variables}
            other = solve(lp)
            if other.status is not Status.OPTIMAL:
                continue
            model = minimal_model(instance).assignment
            names = _atom_by_name(chase, instance)
            other_nu = TruthAssignment(
                {names[n]: v for n, v in other.assignment.items() if v > 0}
            )
            merged = {}
            for a in set(model.support) | set(other_nu.support):
                low = min(model(a), other_nu(a))
                if low > 0:
                    merged[a] = low
            compared += 1
            report = verify_model(instance, chase, TruthAssignment(merged))
            assert report.ok
        assert compared >= 15

    def test_certain_knowledge_theorem(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(80):
            instance = random_instance(rng, force_k_one=True)
            try:
                model = minimal_model(instance)
            except Unsatisfiable:
                continue
            checked += 1
            closure = classical_closure(
                instance.program,
                {a for a, d in instance.database.entries.items() if d == 1},
            )
            chase = chase_of(instance)
            for a in ground_atoms(chase, instance.database):
                assert (a in closure) == (model.assignment(a) == 1), str(a)
        assert checked >= 30

    def test_fast_path_transparency(self):
        rng = random.Random(616)
        for _ in range(60):
            instance = random_instance(rng, force_k_one=True)
            try:
                fast = minimal_model(instance, use_fast_path=True)
            except Unsatisfiable:
                with pytest.raises(Unsatisfiable):
                    minimal_model(instance, use_fast_path=False)
                continue
            slow = minimal_model(instance, use_fast_path=False)
            assert fast.assignment == slow.assignment

    def test_datalog_degeneration(self):
        rng = random.Random(88)
        for _ in range(30):
            instance = random_instance(rng, force_k_one=True, all_one_degrees=True)
            model = minimal_model(instance)
            closure = classical_closure(
                instance.program, set(instance.database.entries)
            )
            assert set(model.assignment.support) == closure
            assert all(v == 1 for v in model.assignment.support.values())


def _atom_by_name(chase, instance):
    return {str(a): a for a in ground_atoms(chase, instance.database)}


class TestEngineWrapper:
    def test_query_reuses_model(self):
        engine = Engine(inst(ORCA))
        r1 = engine.query(atom("orca", "i1"), F(1, 2))
        r2 = engine.query(atom("orca", "i1"), F(51, 100))
        assert r1.entailed and not r2.entailed
        assert engine.model.kind is ModelKind.MINIMAL

    def test_non_ground_query_rejected(self):
        with pytest.raises(ValueError, match="must be ground"):
            Engine(inst(ORCA)).query(atom("orca", "X"), F(1, 2))

    def test_existential_dispatch(self):
        engine = Engine(inst(KEY_PERSON))
        assert engine.is_existential
        assert engine.model.kind is ModelKind.PREFERRED

    def test_truncation_surfaces(self):
        engine = Engine(inst("p(a).\np(Y) :- p(X)."), step_limit=3)
        with pytest.raises(TruncatedChase):
            engine.model

    def test_unbounded_chase_refused_before_chasing(self, monkeypatch):
        # the chase of p(a). p(Y) :- p(X). never ends, and the program is not weakly acyclic
        def no_chase(program, facts, step_limit):
            raise AssertionError(f"chased with step_limit={step_limit}")

        monkeypatch.setattr(engine_module, "oblivious_chase", no_chase)
        start = time.perf_counter()
        with pytest.raises(UnboundedChase, match=r"not weakly acyclic: cycle p\[1\] => p\*\[1\]"):
            Engine(inst("p(a).\np(Y) :- p(X).")).model
        assert time.perf_counter() - start < 0.5
        monkeypatch.undo()
        with pytest.raises(TruncatedChase) as truncated:
            Engine(inst("p(a).\np(Y) :- p(X)."), step_limit=3).model
        assert type(truncated.value) is TruncatedChase

    def test_weak_acyclicity_tested_once_per_engine(self, monkeypatch):
        calls = []

        def counted(program):
            calls.append(program)
            return is_weakly_acyclic_ve(program)

        monkeypatch.setattr(termination_module, "is_weakly_acyclic_ve", counted)
        engine = Engine(inst("p(a).\np(Y) :- p(X)."))
        for _ in range(3):  # a cached_property that raises caches nothing
            with pytest.raises(UnboundedChase) as refused:
                engine.model
        assert len(calls) == 1
        assert refused.value.cycle is engine.witness

    @pytest.mark.parametrize("query", [atom("orca", "i1", "i2"), atom("polar", "i1", "i1"), atom("orca")])
    def test_query_arity_mismatch_raises(self, query):
        with pytest.raises(ArityError, match="used with arities"):
            Engine(inst(ORCA)).query(query, F(1, 2))

    def test_query_arity_checked_against_the_database(self):
        # `seen` occurs in the database only, not in the program's signature
        program = Program.from_rules([make_rule(0, [atom("p", "X")], atom("q", "X"))])
        engine = Engine(Instance(program, FuzzyDatabase({atom("seen", "a"): F(1, 2)})))
        with pytest.raises(ArityError):
            engine.query(atom("seen", "a", "b"), F(1, 2))
        assert engine.query(atom("seen", "a"), F(1, 2)).entailed
        assert engine.query(atom("unknown", "a", "b"), F(0)).degree == 0


class TestQueryById:
    """`Engine.query` looks its atom up by id in `Engine.degrees`; it must
    read what `Engine.model` holds for every atom of olim and for atoms the
    chase never held, nulls below 1 and past the last one included."""

    @staticmethod
    def _variants(chase, a):
        """`a` with one argument replaced by a constant the chase never saw,
        null 0, null -1 or the null after the chase's last."""
        last = len(chase.terms) - chase.first_null
        outside = (Constant("unseen"), LabelledNull(0), LabelledNull(-1), LabelledNull(last + 1))
        for j in range(len(a.args)):
            for t in outside:
                yield Atom(a.predicate, (*a.args[:j], t, *a.args[j + 1:]))

    def test_random_draws(self):
        rng = random.Random(23001)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        checked, nulls, aliases = Counter(), 0, 0
        while min(checked[e, r] for e in (False, True) for r in (False, True)) < 100:
            instance = random_instance(rng)
            if rng.random() < 0.5:
                program = random_existential_program(rng)
                if not is_weakly_acyclic_ve(program)[0]:
                    continue
                instance = Instance(program, FuzzyDatabase({a: random_degree(rng) for a in facts}), instance.K)
            relaxed = rng.random() < 0.5
            engine = Engine(instance, relaxed=relaxed)
            try:
                model = engine.model.assignment
            except NoObliviousBaseModel:
                continue
            chase = engine.chase
            named = {t.name: r for r, t in enumerate(chase.terms[:chase.first_null])}
            for a in chase.olim:
                assert engine.query(a, 0).degree == model(a), a
                nulls += a.has_nulls() and model(a) > 0
                for b in self._variants(chase, a):
                    assert engine.query(b, 0).degree == model(b) == 0, b
                    # a null below 1 read as first_null + n - 1 would land on a constant's rank
                    ranks = [named.get(t.name, -1) if type(t) is Constant else chase.first_null + t.id - 1 for t in b.args]
                    aliases += engine.degrees.get(engine.table.ids.get((b.predicate, tuple(ranks)), -1), 0) > 0
            assert engine.query(Atom("unknown", (Constant("a"),)), 0).degree == 0
            checked[instance.program.has_existential_rules, relaxed] += 1
        assert nulls >= 50 and aliases >= 1000, (nulls, aliases)

    def test_query_builds_no_model(self):
        engine = Engine(inst(KEY_PERSON))
        assert engine.query(atom("kp", "amy", "acme"), F(1, 2)).degree == F(4, 5)
        assert engine.query(atom("kp", LabelledNull(1), "acme"), F(0)).degree == F(1, 5)
        assert engine.query(atom("kp", LabelledNull(0), "acme"), F(0)).degree == 0
        assert "model" not in engine.__dict__ and "atoms" not in engine.chase.__dict__


class TestLeastFixpointRoute:
    """The default least-fixpoint route against the LP route and the Kleene oracle."""

    @staticmethod
    def _routes(instance):
        out = []
        for solve_with in (
            lambda: minimal_model(instance),
            lambda: minimal_model(instance, use_fast_path=False),
        ):
            try:
                model = solve_with()
            except Unsatisfiable:
                out.append(None)
            else:
                out.append((model.assignment, model.certain_atoms))
        try:
            out.append(fixpoint_minimal_model(instance))
        except Unsatisfiable:
            out.append(None)
        return out

    def test_three_routes_agree(self):
        rng = random.Random(15001)
        satisfiable = unsatisfiable = below_one = 0
        for _ in range(1500):
            instance = random_instance(rng, max_rules=8, max_facts=7)
            fast, slow, kleene = self._routes(instance)
            if fast is None:
                unsatisfiable += 1
                assert slow is None and kleene is None
                continue
            satisfiable += 1
            below_one += instance.K < 1
            assert fast == slow
            assert fast[0] == kleene
            expected = {a for a, d in kleene.support.items() if d == 1} if instance.K == 1 else set()
            assert fast[1] == expected
        assert satisfiable >= 800 and unsatisfiable >= 100 and below_one >= 300

    @pytest.mark.parametrize(
        "text, K, expected",
        [
            # a repeated body atom counts twice in the conjunction
            ("0.8 :: p(a).\nq(X) :- p(X), p(X).", F(1), {"q(a)": F(3, 5)}),
            ("0.8 :: p(a).\nq(X) :- p(X), p(X).", F(9, 10), {"q(a)": F(1, 2)}),
            # a rule whose head is in its own body never raises its head
            ("0.9 :: s(a).\n0.8 :: r(a).\np(X) :- s(X).\np(X) :- p(X), r(X).", F(1), {"p(a)": F(9, 10)}),
            ("1 :: r(a).\n0.6 :: p(a).\np(X) :- p(X), r(X).", F(1), {}),
        ],
    )
    def test_degenerate_bodies(self, text, K, expected):
        instance = inst(text, K)
        fast, slow, kleene = self._routes(instance)
        assert fast == slow and fast[0] == kleene
        derived = {str(a): d for a, d in kleene.support.items() if a not in instance.database}
        assert derived == expected

    def test_overshoot_of_a_pinned_fact_is_unsatisfiable(self):
        instance = inst("1 :: r(a).\n0.9 :: s(a).\n0.5 :: t(a).\ns(X) :- r(X).\nt(X) :- s(X).", F(9, 10))
        assert self._routes(instance) == [None, None, None]

    def test_soundness_checks_survive_optimisation(self):
        # under `python -O` an `assert` vanishes; an unbounded LP must still
        # be reported as a solver fault, never as an unsatisfiable instance
        script = (
            "import mvdatalog.engine as engine\n"
            "import mvdatalog.lp\n"
            "from mvdatalog.lp import Solution, Status\n"
            "from mvdatalog.parser import parse\n"
            "from mvdatalog.core import Instance\n"
            "mvdatalog.lp.solve = lambda lp, secondary=None: Solution(Status.UNBOUNDED, {}, None)\n"
            "program, database = parse('0.8 :: p(a).\\nq(X) :- p(X).')\n"
            "try:\n"
            "    engine.minimal_model(Instance(program, database), use_fast_path=False)\n"
            "except AssertionError:\n"
            "    print('AssertionError')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "AssertionError"


class TestIntegerFixpoint:
    """`least_fixpoint` runs on ints scaled by L, the lcm of the denominators
    of K and the seeds, and on Fractions once L passes `_LCM_CAP_BITS`; both
    sides match the LP route and the Kleene oracle."""

    @staticmethod
    def _L(instance):
        return lcm(instance.K.denominator, *(d.denominator for d in instance.database.entries.values()))

    @staticmethod
    def _agreed(instance):
        fast, slow, kleene = TestLeastFixpointRoute._routes(instance)
        assert fast == slow
        assert (fast and fast[0]) == kleene
        return fast

    def test_random_draws_on_both_sides_of_the_cap(self, monkeypatch):
        rng = random.Random(15013)
        unsatisfiable = certain = 0
        for _ in range(500):
            instance = random_instance(rng, max_rules=8, max_facts=7)
            assert self._L(instance).bit_length() <= engine_module._LCM_CAP_BITS
            ints = self._agreed(instance)
            monkeypatch.setattr(engine_module, "_LCM_CAP_BITS", 0)  # every L is past the cap
            fractions = self._agreed(instance)
            monkeypatch.undo()
            assert ints == fractions
            unsatisfiable += ints is None
            certain += bool(ints and ints[1])
        assert unsatisfiable >= 100 and certain >= 40

    @staticmethod
    def _prime_chain(edges, K, pin=None):
        """A path whose first three edges are certain and whose others have
        distinct prime denominators, with reach(c0) and optionally a pin at its end."""
        primes = [p for p in range(101, 10**4) if all(p % q for q in range(2, int(p**0.5) + 1))]
        lines = ["reach(c0).", "reach(Y) :- edge(X, Y), reach(X)."]
        for i in range(edges):
            degree = F(1) if i < 3 else F(primes[i] - 1, primes[i])
            lines.append(f"{degree} :: edge(c{i}, c{i + 1}).")
        if pin is not None:
            lines.append(f"{pin} :: reach(c{edges}).")
        return inst("\n".join(lines), K)

    @pytest.mark.parametrize("K", [F(1), F(999, 1000)])
    def test_many_prime_denominators_run_on_fractions(self, K):
        instance = self._prime_chain(80, K)
        assert self._L(instance).bit_length() > engine_module._LCM_CAP_BITS
        assignment, certain = self._agreed(instance)
        reached = [F(1)]
        for i in range(80):
            reached.append(reached[-1] + instance.database.degree(atom("edge", f"c{i}", f"c{i + 1}")) - 2 + K)
        assert [assignment(atom("reach", f"c{i}")) for i in range(81)] == reached
        expected = {atom("reach", f"c{i}") for i in range(4)} | {a for a, d in instance.database.entries.items() if d == 1}
        assert certain == (expected if K == 1 else set())

    @pytest.mark.parametrize("cap", [None, 0])  # ints, then Fractions past the cap
    @pytest.mark.parametrize(
        "text, error",
        [
            ("1 :: r(a).\n0.5 :: s(a).\n0.25 :: t(a).\ns(X) :- r(X).\nt(X) :- r(X).", Unsatisfiable),
            ("1 :: r(a).\n0.5 :: s(a).\ns(X) :- r(X).\nu(X, Y) :- r(X).", NoObliviousBaseModel),
        ],
    )
    def test_overshoot_names_the_first_pinned_fact(self, monkeypatch, cap, text, error):
        if cap is not None:
            monkeypatch.setattr(engine_module, "_LCM_CAP_BITS", cap)
        with pytest.raises(error, match=r"^derivations force s\(a\) to 1 but the database pins it at 1/2$") as raised:
            Engine(inst(text)).degrees
        assert type(raised.value) is error

    @pytest.mark.parametrize("cap", [None, 0])
    def test_a_pin_reached_exactly_is_no_overshoot(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(engine_module, "_LCM_CAP_BITS", cap)
        engine = Engine(inst("0.5 :: r(a).\n0.5 :: s(a).\ns(X) :- r(X).\nt(X) :- s(X)."))
        assert sorted(engine.degrees.values()) == [F(1, 2)] * 3

    @pytest.mark.parametrize("pin, satisfiable", [(F(1), True), (F(1, 7919), False)])
    def test_pinned_end_past_the_cap(self, pin, satisfiable):
        instance = self._prime_chain(80, F(1), pin)
        assert self._L(instance).bit_length() > engine_module._LCM_CAP_BITS
        assert (self._agreed(instance) is not None) == satisfiable


def test_package_has_no_assert_statements():
    # soundness checks must survive `python -O`, which strips every `assert`
    package = Path(__file__).resolve().parent.parent / "src" / "mvdatalog"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} uses assert at lines {lines}"


class TestHornSplit:
    """The default route (least fixpoint on the Horn ground rules, the LP on
    the core D alone) against the full reference LP of use_fast_path=False."""

    @staticmethod
    def _outcome(engine):
        try:
            model = engine.model.assignment
        except NoObliviousBaseModel as exc:  # Unsatisfiable included
            return type(exc)
        values = ([d for a, d in model.support.items() if not a.has_nulls()],
                  [d for a, d in model.support.items() if a.has_nulls()])
        return model, tuple(sum(v, F(0)) for v in values)

    def _compare(self, instance, relaxed=False):
        """Check that both routes agree; returns D and the default route's
        model, None when there is none."""
        fast, full = Engine(instance, relaxed=relaxed), Engine(instance, use_fast_path=False, relaxed=relaxed)
        core = {fast.chase.atoms[a] for a in engine_module.horn_split(fast.chase, fast.pins_by_id)[2]}
        ours, reference = self._outcome(fast), self._outcome(full)
        if isinstance(reference, type):
            assert ours is reference
            return core, None
        assert not isinstance(ours, type) and ours[1] == reference[1]  # primary, secondary
        for a in fast.chase.olim - core:
            assert ours[0](a) == reference[0](a)
        pins, seeds = atom_bounds(fast)
        assert verify_model(instance, fast.chase, ours[0], pins=pins, seeds=seeds).ok
        return core, ours[0]

    def test_random_existential_programs(self):
        rng = random.Random(18001)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        outcomes = Counter()
        while sum(outcomes.values()) < 1500:
            program = random_existential_program(rng)
            if not program.has_existential_rules or not is_weakly_acyclic_ve(program)[0]:
                continue
            tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
            core, model = self._compare(Instance(program, tau, rng.choice([F(1), F(4, 5), F(1, 2)])))
            outcomes[bool(core), model is not None] += 1
        assert outcomes[False, True] + outcomes[False, False] >= 200  # D empty: no LP
        assert outcomes[True, True] + outcomes[True, False] >= 200
        assert min(outcomes.values()) >= 10, outcomes

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_key_persons_past_the_cap(self, relaxed):
        # each company's known key person has a distinct prime denominator
        primes = [p for p in range(101, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))][:60]
        lines = ["kp(Y, X) :- company(X).", "person(Y) :- kp(Y, X)."]
        for i, p in enumerate(primes):
            lines += [f"company(c{i}).", f"{p - 1}/{p} :: kp(k{i}, c{i})."]
        instance = inst("\n".join(lines))
        L = lcm(*(d.denominator for d in instance.database.entries.values()))
        assert L.bit_length() > engine_module._LCM_CAP_BITS
        # relaxed, kp(k_i, c_i) is a lower bound: each existential rule has two free heads
        core, model = self._compare(instance, relaxed)
        assert bool(core) == relaxed
        nulls = {a.args[1]: d for a, d in model.support.items() if a.has_nulls() and a.predicate == "kp"}
        assert nulls == {Constant(f"c{i}"): F(1, p) for i, p in enumerate(primes)}


class TestRows:
    """The one row type after the chase, (heads, body) by atom id:
    `least_fixpoint` on hand-built rows, on ints and on Fractions past the
    cap, and `horn_split`'s partition of `_rows`."""

    @pytest.fixture(params=[None, 0])  # ints, then Fractions past the cap
    def cap(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(engine_module, "_LCM_CAP_BITS", request.param)

    def test_head_found_by_membership(self, cap):
        # atoms 0 and 2 pinned, 3 the body: the free head 1 is not first
        pins = {0: F(1, 5), 2: F(1, 10)}
        seeds = {**pins, 3: F(9, 10)}
        nu, over = engine_module.least_fixpoint([([0, 1, 2], (3,))], seeds, F(4, 5), pins)
        assert over is None
        assert nu == {**seeds, 1: F(9, 10) - 1 + F(4, 5) - F(1, 5) - F(1, 10)}

    def test_only_pinned_head_overshoots(self, cap):
        pins = {0: F(1, 2)}
        nu, over = engine_module.least_fixpoint([([0], (1,))], {**pins, 1: F(1)}, F(1), pins)
        assert over == 0 and nu[0] == F(1)

    def test_all_pinned_heads_raise_the_first(self, cap):
        pins = {0: F(1, 2), 2: F(1, 4)}
        nu, over = engine_module.least_fixpoint([([0, 2], (1,))], {**pins, 1: F(1)}, F(1), pins)
        assert over == 0 and nu == {0: F(3, 4), 1: F(1), 2: F(1, 4)}

    def test_repeated_body_atom_counts_twice(self, cap):
        nu, over = engine_module.least_fixpoint([([1], (0, 0))], {0: F(9, 10)}, F(1), {})
        assert over is None and nu == {0: F(9, 10), 1: F(4, 5)}

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_horn_split_partitions_the_rows(self, relaxed):
        rng = random.Random(30030)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        split = Counter()
        while sum(split.values()) < 400:
            program = random_existential_program(rng)
            if not program.has_existential_rules or not is_weakly_acyclic_ve(program)[0]:
                continue
            tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
            engine = Engine(Instance(program, tau, rng.choice([F(1), F(4, 5)])), relaxed=relaxed)
            chase, pins = engine.chase, engine.pins_by_id
            rows = list(engine_module._rows(chase))
            horn, rest, core = engine_module.horn_split(chase, pins)
            merged, parts = [], [list(horn), list(rest)]  # each row in one list, both in `_rows` order
            for row in rows:
                part = next(p for p in parts if p and p[0] == row)
                merged.append(part.pop(0))
            assert merged == rows and parts == [[], []]
            for heads, body in horn:
                assert sum(h not in pins for h in heads) <= 1
                assert core.isdisjoint(heads) and core.isdisjoint(body)
            split[bool(horn), bool(rest)] += 1
        assert split[True, True] >= 20 and split[True, False] >= 20, split


class TestDegreeQueue:
    """Both Knuth loops, `least_fixpoint` and `settle`, pop a whole degree
    at a time: a head derived at the degree being popped is popped at it
    again, and an id that its atom's raise left at a lower degree is
    stale; on ints and on Fractions past the cap."""

    @pytest.fixture(params=[None, 0])  # ints, then Fractions past the cap
    def cap(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(engine_module, "_LCM_CAP_BITS", request.param)

    @staticmethod
    def _settled(monkeypatch, text):
        """`Engine.degrees` at K = 1 by atom text, checked against the Kleene
        oracle; no atom enters `settle`'s index twice."""
        indexes = []

        class Recorded(chase_module._Index):
            def __init__(self, *args):
                super().__init__(*args)
                indexes.append(self)

        monkeypatch.setattr(chase_module, "_Index", Recorded)
        instance = inst(text)
        engine = Engine(instance)
        degrees = {engine.table.text(a): d for a, d in engine.degrees.items()}
        (index,) = indexes
        assert engine.settles and len(set(index.keys)) == len(index.keys)
        assert degrees == {str(a): d for a, d in fixpoint_minimal_model(instance).support.items()}
        return degrees

    def test_rows_derive_at_the_popped_degree(self, cap):
        # at K = 1 a one-atom body passes its degree on: 1, then 2, join 0's level after it is popped;
        # 3's value, 1/2 + 1/2 - 1, is 0
        rows = [([1], (0,)), ([2], (1,)), ([3], (1, 2)), ([4], (2,))]
        nu, over = engine_module.least_fixpoint(rows, {0: F(1, 2)}, F(1), {})
        assert over is None and nu == {0: F(1, 2), 1: F(1, 2), 2: F(1, 2), 4: F(1, 2)}

    def test_rows_leave_stale_ids_below(self, cap):
        # 2 is seeded at 1/10, raised to 2/5 at level 1/2 and to 9/20 at level 9/20:
        # its ids at 2/5 and 1/10 are stale, and the row it feeds fires once, at 9/20
        seeds = {1: F(9, 10), 2: F(1, 10), 6: F(1, 2), 8: F(9, 20)}
        rows = [([2], (1, 6)), ([2], (8,)), ([3], (2,))]
        nu, over = engine_module.least_fixpoint(rows, seeds, F(1), {2: F(1, 10)})
        assert over == 2 and nu == {**seeds, 2: F(9, 20), 3: F(9, 20)}

    def test_settle_derives_at_the_popped_degree(self, cap, monkeypatch):
        degrees = self._settled(monkeypatch, "0.5 :: p(a).\nq(X) :- p(X).\nr(X) :- q(X).\ns(X) :- q(X), r(X).")
        assert degrees == {"p(a)": F(1, 2), "q(a)": F(1, 2), "r(a)": F(1, 2)}
        text = "0.5 :: p(a).\n0.5 :: e(a, b).\nq(X) :- p(X).\nq(Y) :- q(X), e(X, Y)."
        degrees = self._settled(monkeypatch, text)
        assert degrees == {"p(a)": F(1, 2), "e(a, b)": F(1, 2), "q(a)": F(1, 2)}  # q(b) is 1/2 + 1/2 - 1

    def test_settle_leaves_stale_ids_below(self, cap, monkeypatch):
        # t(x) is raised to 2/5 at level 1/2, then to 9/20 at level 9/20: its id at 2/5 is stale
        text = "0.9 :: a(x).\n0.5 :: b(x).\n0.45 :: c(x).\nt(X) :- a(X), b(X).\nt(X) :- c(X).\nu(X) :- t(X)."
        degrees = self._settled(monkeypatch, text)
        assert degrees == {"a(x)": F(9, 10), "b(x)": F(1, 2), "c(x)": F(9, 20), "t(x)": F(9, 20), "u(x)": F(9, 20)}


class TestRelaxedMode:
    """`Engine(relaxed=True)`, the strict chase solved with tau's degrees
    less 1 - K as lower bounds, against the `relax_rewrite` oracle: the
    rewritten program solved strictly, under the user's names."""

    def test_against_the_rewrite(self):
        # equal assignments, nulls included: no draw here needs the looser
        # check of equal objective and tie-break that a non-unique preferred
        # model would allow
        rng = random.Random(2101)
        outcomes = Counter()
        while sum(outcomes.values()) < 1500:
            instance = random_instance(rng)
            if rng.random() < 0.5:  # existential rules over the same database
                program = random_existential_program(rng)
                if not is_weakly_acyclic_ve(program)[0]:
                    continue
                instance = Instance(program, instance.database, instance.K)
            for fast in (True, False):
                engine = Engine(instance, relaxed=True, use_fast_path=fast)
                ours = engine.model.assignment.support
                assert ours == rewritten_relaxed_model(instance, use_fast_path=fast), instance
                assert all(ours.get(a, 0) >= d > 0 for a, d in atom_bounds(engine)[1].items())
            outcomes[instance.program.has_existential_rules, instance.K < 1] += 1
        assert min(outcomes[e, k] for e in (False, True) for k in (False, True)) >= 100, outcomes

    def test_a_bound_at_or_below_zero_is_no_atom(self):
        # 1/20 - (1 - 9/10) < 0: p(a) has no lower bound and no degree, not degree 0
        engine = Engine(inst("0.05 :: p(a).\nq(X) :- p(X).", F(9, 10)), relaxed=True)
        assert engine.seeds_by_id == {}
        assert engine.model.assignment.support == {}


class TestModelOrder:
    """`Engine.model`'s support iterates in `Atom.sort_key` order, which the
    CLI prints without sorting: the chase's rank order, which differs from
    string order once null ids reach two digits."""

    @staticmethod
    def _assert_sorted(engine):
        try:
            support = list(engine.model.assignment.support)
        except NoObliviousBaseModel:
            return False
        assert support == sorted(support, key=Atom.sort_key)
        return bool(support)

    def test_random_draws(self):
        rng = random.Random(22022)
        facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
        checked = Counter()
        while min(checked[e, r] for e in (False, True) for r in (False, True)) < 100:
            instance = random_instance(rng)
            if rng.random() < 0.5:
                program = random_existential_program(rng)
                if not is_weakly_acyclic_ve(program)[0]:
                    continue
                tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
                instance = Instance(program, tau, instance.K)
            relaxed = rng.random() < 0.5
            if self._assert_sorted(Engine(instance, relaxed=relaxed)):
                checked[instance.program.has_existential_rules, relaxed] += 1

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_twelve_nulls_and_program_constants(self, relaxed):
        # the head constant a0 occurs only in the program and sorts before every fact constant
        lines = ["kp(Y, X) :- company(X).", "person(Y) :- kp(Y, X).", "owner(a0, X) :- company(X)."]
        for i in range(12):
            lines += [f"company(c{i}).", f"0.{i % 5 + 3} :: kp(k{i}, c{i})."]
        engine = Engine(inst("\n".join(lines)), relaxed=relaxed)
        assert self._assert_sorted(engine)
        support = [str(a) for a in engine.model.assignment.support]
        assert support.index("person(_:n9)") < support.index("person(_:n10)")
        assert support.index("owner(a0, c0)") < support.index("owner(a0, c10)") < support.index("owner(a0, c2)")
        assert support[0] == "company(c0)" and "person(_:n12)" in support


class TestFixpointWorkBound:
    """Each fixpoint route fires a ground rule once, when the last of its
    body atoms settles, so it pushes at most one heap entry per ground rule
    fired, at every size of four program families: the plain ones `settle`,
    which grounds only the rules that fire, and key persons run
    `least_fixpoint` on the chase's Horn ground rules."""

    @staticmethod
    def chain(n):
        lines = ["reach(c0).", "reach(Y) :- reach(X), edge(X, Y)."]
        lines += [f"0.999 :: edge(c{i}, c{i + 1})." for i in range(n)]
        return inst("\n".join(lines), F(999, 1000))

    @staticmethod
    def grid(side):
        # uneven degrees: a node's two derivations differ, so later ones may improve it
        lines = ["reach(v0_0).", "reach(Y) :- reach(X), edge(X, Y)."]
        for i in range(side):
            for j in range(side):
                if j + 1 < side:
                    lines.append(f"{F(100 - (7 * i + 3 * j) % 5, 100)} :: edge(v{i}_{j}, v{i}_{j + 1}).")
                if i + 1 < side:
                    lines.append(f"{F(100 - (3 * i + 5 * j) % 7, 100)} :: edge(v{i}_{j}, v{i + 1}_{j}).")
        return inst("\n".join(lines))

    @staticmethod
    def transitive_closure(n):
        lines = ["tc(X, Y) :- e(X, Y).", "tc(X, Z) :- tc(X, Y), tc(Y, Z)."]
        lines += [f"{F(100 - i % 3, 100)} :: e(c{i}, c{i + 1})." for i in range(n)]
        return inst("\n".join(lines))

    @staticmethod
    def keyperson(companies):
        lines = ["kp(Y, X) :- company(X).", "person(Y) :- kp(Y, X)."]
        for i in range(companies):
            lines.append(f"company(c{i}).")
            lines += [f"0.{j + 3} :: kp(p{i}x{j}, c{i})." for j in range(i % 3)]
        return inst("\n".join(lines))

    @pytest.mark.parametrize(
        "family, sizes",
        [("chain", (100, 200, 400, 800)), ("grid", (4, 8, 16, 32)),
         ("transitive_closure", (5, 10, 20, 40)), ("keyperson", (25, 50, 100, 200))],
    )
    def test_one_push_per_ground_rule_at_most(self, family, sizes, monkeypatch):
        least_fixpoint, horn_split, join = engine_module.least_fixpoint, engine_module.horn_split, chase_module._join
        pushes, rules, fixpoints, splits = [], [], [], []

        def counting_push(heap, item):
            pushes[-1] += 1
            heapq.heappush(heap, item)

        def recording(gamma, *rest):
            fixpoints.append(family)
            rules[-1] += len(gamma)
            return least_fixpoint(gamma, *rest)

        def firing(rule, index):  # each homomorphism `settle` joins fires one ground rule
            fired = join(rule, index)
            rules[-1] += len(fired)
            return fired

        def splitting(*args):
            splits.append(family)
            return horn_split(*args)

        counting = types.SimpleNamespace(heapify=heapq.heapify, heappop=heapq.heappop, heappush=counting_push)
        monkeypatch.setattr(engine_module, "heapq", counting)
        monkeypatch.setattr(chase_module, "heapq", counting)
        monkeypatch.setattr(engine_module, "least_fixpoint", recording)
        monkeypatch.setattr(chase_module, "_join", firing)
        monkeypatch.setattr(engine_module, "horn_split", splitting)
        for n in sizes:
            pushes.append(0)
            rules.append(0)
            Engine(getattr(self, family)(n)).model
        assert min(pushes) > 0
        assert all(p <= r for p, r in zip(pushes, rules)), list(zip(pushes, rules))
        existential = family == "keyperson"  # the only existential family: the chase, split and fixpoint
        assert len(fixpoints) == len(splits) == (len(sizes) if existential else 0)


class TestSettle:
    """`settle`, the plain programs' default route, against `least_fixpoint`
    on the crisp chase and the reference LP; the chase runs only where a
    command needs it, and the pass grounds only the live ground rules,
    those whose body atoms all have a positive degree."""

    @staticmethod
    def _outcome(engine):
        """The degrees by atom key, or the Unsatisfiable message."""
        try:
            degrees = engine.degrees
        except Unsatisfiable as exc:
            return str(exc)
        return {engine.table.keys[i]: d for i, d in degrees.items()}

    def test_settles_reads_class_and_route_only(self):
        plain, existential = inst(ORCA), inst(KEY_PERSON)
        assert Engine(plain, step_limit=0, relaxed=True).settles
        assert not Engine(plain, use_fast_path=False).settles
        assert not Engine(existential).settles and Engine(existential).settled is None
        engine = Engine(plain, use_fast_path=False)
        assert engine.settled is None and "chase" not in engine.__dict__  # deciding reads no chase

    def test_against_the_chase_routes(self):
        rng = random.Random(26026)
        outcomes = Counter()
        for _ in range(1500):
            instance = random_instance(rng, max_rules=8, max_facts=7)
            for relaxed in (False, True):
                ours = Engine(instance, relaxed=relaxed)
                chase, by_fixpoint = chase_fixpoint(ours)  # the chase, then `least_fixpoint`
                reference = Engine(instance, relaxed=relaxed, use_fast_path=False)
                assert ours.settles and ours.settled and not reference.settles and reference.settled is None
                outcome, by_lp = self._outcome(ours), self._outcome(reference)
                assert outcome == by_fixpoint, instance
                unsatisfiable = isinstance(outcome, str)
                if unsatisfiable:
                    assert isinstance(by_lp, str)  # the LP's message names no fact
                else:
                    assert outcome == by_lp and ours.model == reference.model
                    # the facts first, in input order, then only atoms of positive degree
                    n = len(instance.database)
                    assert ours.table.keys[:n] == chase.keys[:n]
                    assert set(range(n, len(ours.table.keys))) <= ours.degrees.keys()
                outcomes[relaxed, instance.K < 1, unsatisfiable] += 1
        assert outcomes[False, False, True] + outcomes[False, True, True] >= 200, outcomes
        assert min(outcomes[r, k, False] for r in (False, True) for k in (False, True)) >= 200, outcomes

    @pytest.mark.parametrize(
        "argv, chases",
        [
            (["solve", "chain30"], 0),
            (["solve", "chain30", "--mode", "relaxed", "--format", "text"], 0),
            (["query", "chain30", "reach(c9)", "--at-least", "0.99"], 0),
            (["query", "chain30", "reach(zed)"], 0),
            (["check", "chain30"], 1),
            (["ground", "chain30"], 1),
            (["solve", "chain30", "--no-fast-path"], 1),
            (["query", "chain30", "reach(c9)", "--no-fast-path"], 1),
            (["solve", "chain30", "--max-chase-steps", "1000"], 0),
            (["query", "chain30", "reach(c9)", "--max-chase-steps", "1000"], 0),
            (["check", "chain30", "--max-chase-steps", "1000"], 1),
            (["solve", "chain30", "--no-fast-path", "--max-chase-steps", "1000"], 1),
            (["solve", "keyperson14"], 1),
            (["query", "keyperson14", "kp(k0, c0)"], 1),
        ],
    )
    def test_chase_only_on_demand(self, monkeypatch, capsys, argv, chases):
        from mvdatalog import cli

        calls = []
        chase = engine_module.oblivious_chase
        monkeypatch.setattr(engine_module, "oblivious_chase", lambda *args: calls.append(args) or chase(*args))
        path = Path(__file__).resolve().parent / "golden" / f"{argv[1]}.mvdl"
        assert cli.main([argv[0], str(path), *argv[2:]]) in (0, 1)
        capsys.readouterr()
        assert len(calls) == chases
        engine = Engine(inst(path.read_text(encoding="utf-8"), F(999, 1000)))
        engine.query(atom("reach", "c9"), F(1, 2))
        engine.model
        assert len(calls) == chases + (argv[1] == "keyperson14")  # a library query and model: no chase either

    @staticmethod
    def _chase_route(monkeypatch):
        """Calls of the chase route's three stages, by name, from now on."""
        calls = Counter()
        for name in ("oblivious_chase", "horn_split", "least_fixpoint"):
            real = getattr(engine_module, name)
            monkeypatch.setattr(engine_module, name, lambda *args, _r=real, _n=name: calls.update([_n]) or _r(*args))
        return calls

    def test_step_limit_bounds_only_a_chase(self, monkeypatch):
        """A plain program settles under any step limit, with the answers
        it has without one; only reading the chase itself is cut short."""

        def outcome(call):
            try:
                return call()
            except Unsatisfiable as exc:
                return str(exc)

        rng = random.Random(27027)
        calls = self._chase_route(monkeypatch)
        outcomes = Counter()
        for _ in range(400):
            instance = random_instance(rng, max_rules=8, max_facts=7)
            fact = next(iter(instance.database.entries))
            for relaxed in (False, True):
                unlimited = Engine(instance, relaxed=relaxed)
                expected = self._outcome(unlimited)
                for s in (0, 1, 10**6):
                    engine = Engine(instance, relaxed=relaxed, step_limit=s)
                    assert self._outcome(engine) == expected, (instance, s)
                    if not isinstance(expected, str):
                        assert engine.query(fact, F(1, 2)) == unlimited.query(fact, F(1, 2))
                outcomes[relaxed, isinstance(expected, str)] += 1
            model = outcome(lambda: Engine(instance).model)
            query = outcome(lambda: Engine(instance).query(fact, F(1, 2)))
            for s in (0, 1, 10**6):
                assert outcome(lambda: minimal_model(instance, step_limit=s)) == model
                assert outcome(lambda: preferred_model(instance, step_limit=s)) == model
                assert outcome(lambda: k_truth(instance, fact, F(1, 2), step_limit=s)) == query
            assert not calls, calls
            if oblivious_chase(instance.program, instance.database).steps:
                with pytest.raises(TruncatedChase, match="^chase stopped after 0 steps$"):
                    Engine(instance, step_limit=0).chase
                outcomes["cut short"] += 1
            calls.clear()
        assert outcomes[False, True] >= 50 and outcomes[True, True] == 0, outcomes
        assert min(outcomes[False, False], outcomes[True, False], outcomes["cut short"]) >= 200, outcomes

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "--mode", "relaxed", "--format", "text"],
            ["query", "reach(c9)", "--at-least", "0.99"],
            ["query", "reach(zed)", "--format", "text"],
        ],
    )
    def test_step_limit_changes_no_output(self, monkeypatch, capsys, argv):
        from mvdatalog import cli

        path = str(Path(__file__).resolve().parent / "golden" / "chain30.mvdl")
        calls = self._chase_route(monkeypatch)
        runs = []
        for limit in ([], ["--max-chase-steps", "0"]):
            code = cli.main([argv[0], path, *argv[1:], *limit])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] in (0, 1) and runs[0][1]
        assert not calls, calls

    @staticmethod
    def _chain(n):
        lines = ["reach(c0).", "reach(Y) :- reach(X), edge(X, Y)."]
        return inst("\n".join(lines + [f"0.999 :: edge(c{i}, c{i + 1})." for i in range(n)]), F(9, 10))

    @staticmethod
    def _transitive_closure(n):
        lines = ["tc(X, Y) :- e(X, Y).", "tc(X, Z) :- tc(X, Y), tc(Y, Z)."]
        return inst("\n".join(lines + [f"e(c{i}, c{i + 1})." for i in range(n)]), F(9, 10))

    @pytest.mark.parametrize(
        "family, sizes, sparse",
        [pytest.param(_chain, (100, 200, 400, 800), True, id="chain"),
         pytest.param(_transitive_closure, (20, 40, 80), True, id="transitive_closure"),
         pytest.param(TestFixpointWorkBound.grid, (4, 8, 16), False, id="grid")],
    )
    def test_work_is_linear_in_the_live_ground_rules(self, family, sizes, sparse, monkeypatch):
        """At K = 9/10 live Gamma is a sliver of the chain's and the closure's
        Gamma; the grid's uneven degrees raise nodes after their first push."""
        indexes, fired = [], []
        join = chase_module._join

        class Recorded(chase_module._Index):
            def __init__(self, *args):
                super().__init__(*args)
                indexes.append(self)

        def recording(rule, index):
            found = join(rule, index)
            fired.extend((rule.id, tuple(index.keys[i] for i in body)) for _, body in found)
            return found

        monkeypatch.setattr(chase_module, "_Index", Recorded)
        monkeypatch.setattr(chase_module, "_join", recording)
        for n in sizes:
            instance = family(n)
            chase = oblivious_chase(instance.program, instance.database)  # first: its joins are cleared below
            indexes.clear()
            fired.clear()
            engine = Engine(instance)
            positive = {engine.table.keys[i] for i in engine.degrees}
            live = [(r, tuple(chase.keys[b] for b in body)) for r, _, body in chase.ground
                    if all(chase.keys[b] in positive for b in body)]
            assert sorted(fired) == sorted(live)  # each live ground rule fires once, and no other
            (index,) = indexes
            assert index.examined <= 2 * (len(instance.database) + len(live)), (n, index.examined, len(live))
        if sparse:  # at the largest size, live Gamma is at most 1/30 of Gamma
            assert len(live) * 30 <= len(chase.ground)
