import random

from helpers import (
    all_ground_atoms,
    naive_weakly_acyclic,
    random_degree,
    random_existential_program,
    random_instance,
    relax_rewrite,
)
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import FuzzyDatabase, Instance, Program, atom, make_rule
from mvdatalog.termination import (
    PositionVertex,
    build_dependency_graph,
    is_weakly_acyclic_ve,
    variable_expansion,
)


def V(pred, i):
    return PositionVertex(pred, i)


SELF_FEEDING = Program.from_rules([make_rule(0, [atom("p", "X")], atom("p", "Y"))])
KEY_PERSON = Program.from_rules([make_rule(0, [atom("company", "X")], atom("kp", "Y", "X"))])
PLAIN = Program.from_rules(
    [
        make_rule(0, [atom("e", "X", "Y")], atom("t", "X", "Y")),
        make_rule(1, [atom("t", "X", "Y"), atom("e", "Y", "Z")], atom("t", "X", "Z")),
    ]
)


class TestVariableExpansion:
    def test_self_feeding_rule(self):
        ve = variable_expansion(SELF_FEEDING)
        texts = {str(r) for r in ve.rules}
        assert texts == {"p*(Y, X) :- p(X)", "p(Y) :- p*(Y, X)"}
        star_rule = next(r for r in ve.rules if r.head.predicate == "p*")
        assert star_rule.existential_vars == frozenset({"Y"})

    def test_key_person_no_body_only_vars(self):
        ve = variable_expansion(KEY_PERSON)
        texts = {str(r) for r in ve.rules}
        assert texts == {"kp*(Y, X) :- company(X)", "kp(Y, X) :- kp*(Y, X)"}

    def test_datalog_unchanged(self):
        assert variable_expansion(PLAIN) is PLAIN

    def test_star_name_collision(self):
        prog = Program.from_rules(
            [
                make_rule(0, [atom("p*", "X")], atom("q", "X")),
                make_rule(1, [atom("q", "X")], atom("p", "Y")),
            ]
        )
        ve = variable_expansion(prog)
        starred = {r.head.predicate for r in ve.rules if r.head.predicate.endswith("*")}
        assert "p**" in starred


class TestDependencyGraph:
    def test_self_feeding_expanded_edges(self):
        graph = build_dependency_graph(variable_expansion(SELF_FEEDING))
        assert graph.special_edges == frozenset({(V("p", 1), V("p*", 1))})
        assert graph.normal_edges == frozenset(
            {(V("p", 1), V("p*", 2)), (V("p*", 1), V("p", 1))}
        )

    def test_key_person_expanded_edges(self):
        graph = build_dependency_graph(variable_expansion(KEY_PERSON))
        assert graph.special_edges == frozenset({(V("company", 1), V("kp*", 1))})
        assert graph.normal_edges == frozenset(
            {
                (V("company", 1), V("kp*", 2)),
                (V("kp*", 1), V("kp", 1)),
                (V("kp*", 2), V("kp", 2)),
            }
        )

    def test_datalog_has_no_special_edges(self):
        graph = build_dependency_graph(PLAIN)
        assert graph.special_edges == frozenset()
        assert (V("e", 1), V("t", 1)) in graph.normal_edges

    def test_special_edge_requires_frontier_variable(self):
        # x occurs only in the body, so there is no special edge from its position
        prog = Program.from_rules([make_rule(0, [atom("p", "X")], atom("q", "Y"))])
        graph = build_dependency_graph(prog)
        assert graph.special_edges == frozenset()
        assert graph.normal_edges == frozenset()


class TestWeakAcyclicity:
    def test_self_feeding_rejected_with_witness(self):
        ok, witness = is_weakly_acyclic_ve(SELF_FEEDING)
        assert not ok
        assert witness is not None
        assert any(special for _, _, special in witness.steps)
        # the cycle closes
        assert witness.steps[0][0] == witness.steps[-1][1]
        # and passes through the expanded predicate
        assert any("p*" in str(v) for step in witness.steps for v in step[:2])

    def test_key_person_accepted(self):
        ok, witness = is_weakly_acyclic_ve(KEY_PERSON)
        assert ok and witness is None

    def test_datalog_accepted(self):
        ok, witness = is_weakly_acyclic_ve(PLAIN)
        assert ok and witness is None

    def test_plain_programs_accepted(self):
        # why `Engine.witness` skips the test for a plain program: with no
        # existential variable the expansion has no special edge to close a cycle
        rng = random.Random(5)
        for _ in range(2000):
            program = random_instance(rng).program
            assert not program.has_existential_rules
            assert build_dependency_graph(variable_expansion(program)).special_edges == frozenset()
            assert is_weakly_acyclic_ve(program) == (True, None), program.rules

    def test_witness_edges_exist_in_graph(self):
        ok, witness = is_weakly_acyclic_ve(SELF_FEEDING)
        assert not ok
        graph = build_dependency_graph(variable_expansion(SELF_FEEDING))
        for src, dst, special in witness.steps:
            edges = graph.special_edges if special else graph.normal_edges
            assert (src, dst) in edges

    def test_two_rule_cycle(self):
        prog = Program.from_rules(
            [
                make_rule(0, [atom("p", "X")], atom("q", "X", "Y")),
                make_rule(1, [atom("q", "X", "Y")], atom("p", "Y")),
            ]
        )
        ok, witness = is_weakly_acyclic_ve(prog)
        assert not ok and witness is not None
        assert str(witness) == "p[1] => q*[2], q*[2] -> q[2], q[2] -> p[1]"

    def test_self_feeding_witness_string(self):
        _, witness = is_weakly_acyclic_ve(SELF_FEEDING)
        assert str(witness) == "p[1] => p*[1], p*[1] -> p[1]"

    def test_verdict_matches_transitive_closure_oracle(self):
        rng = random.Random(5)
        rejected = 0
        for i in range(3000):
            program = random_existential_program(rng, max_rules=2 + i % 7)
            graph = build_dependency_graph(variable_expansion(program))
            ok, witness = is_weakly_acyclic_ve(program)
            assert ok == naive_weakly_acyclic(graph), program.rules
            if ok:
                assert witness is None
                continue
            rejected += 1
            steps = witness.steps
            assert steps[0][2], "witness must start with a special edge"
            for src, dst, special in steps:
                assert (src, dst) in (graph.special_edges if special else graph.normal_edges)
            for (_, dst, _), (src, _, _) in zip(steps, steps[1:]):
                assert dst == src
            assert steps[-1][1] == steps[0][0]
        assert 0 < rejected < 3000

    def test_relaxing_keeps_the_verdict(self):
        # the relaxed-mode oracle chases relax_rewrite's program, the engine
        # the program as written: the rewrite renames tau's predicates and
        # adds bridges out of positions that nothing feeds, so it adds no cycle
        rng = random.Random(6)
        verdicts = set()
        for i in range(2000):
            program = random_existential_program(rng, max_rules=2 + i % 7)
            facts = rng.sample(all_ground_atoms(), rng.randint(1, 4))
            instance = Instance(program, FuzzyDatabase({a: random_degree(rng) for a in facts}))
            relaxed, renaming = relax_rewrite(instance)
            assert renaming
            verdict = is_weakly_acyclic_ve(program)[0]
            assert is_weakly_acyclic_ve(relaxed.program)[0] == verdict, program.rules
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSoundnessAtDeskScale:
    def test_accepted_programs_have_finite_chases(self):
        rng = random.Random(99)
        accepted = 0
        for _ in range(120):
            program = random_existential_program(rng)
            ok, _ = is_weakly_acyclic_ve(program)
            if not ok:
                continue
            accepted += 1
            facts = {atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")}
            result = oblivious_chase(program, facts, step_limit=20000)
            assert not result.truncated, f"accepted program did not terminate: {program.rules}"
        assert accepted >= 20
