import itertools
import random
from fractions import Fraction

from helpers import random_existential_program, random_instance
from mvdatalog import chase as chase_module
from mvdatalog.chase import enumerate_homomorphisms, matches, oblivious_chase
from mvdatalog.core import (
    Atom,
    Constant,
    LabelledNull,
    Program,
    Variable,
    atom,
    make_rule,
    substitute,
)
from mvdatalog.termination import is_weakly_acyclic_ve

F = Fraction


def _program(*rules_text):
    """tiny builder: (body atoms, head atom) tuples"""
    rules = [make_rule(i, body, head) for i, (body, head) in enumerate(rules_text)]
    return Program.from_rules(rules)


class TestObliviousChase:
    def test_key_person_single_null(self):
        prog = _program(([atom("company", "X")], atom("kp", "Y", "X")))
        facts = {atom("company", "acme"), atom("kp", "amy", "acme")}
        result = oblivious_chase(prog, facts)
        assert not result.truncated
        n1 = LabelledNull(1)
        null_head = Atom("kp", (n1, Constant("acme")))
        assert result.olim == frozenset(facts | {null_head})
        assert len(result.gamma) == 1
        (g,) = result.gamma
        assert g.body == (atom("company", "acme"),)
        assert g.head == null_head

    def test_two_step_existential_chain(self):
        prog = _program(
            ([atom("s", "X")], atom("p", "X", "Y")),
            ([atom("p", "X", "Y")], atom("t", "X")),
        )
        facts = {atom("s", "a"), atom("t", "a")}
        result = oblivious_chase(prog, facts)
        n1 = LabelledNull(1)
        p_null = Atom("p", (Constant("a"), n1))
        assert result.olim == frozenset({atom("s", "a"), atom("t", "a"), p_null})
        assert [(g.body, g.head) for g in result.gamma] == [
            ((atom("s", "a"),), p_null),
            ((p_null,), atom("t", "a")),
        ]
        assert len(result.registry) == 1

    def test_empty_program(self):
        prog = Program.from_rules([])
        facts = {atom("p", "a")}
        result = oblivious_chase(prog, facts)
        assert result.olim == frozenset(facts)
        assert result.gamma == ()
        assert result.steps == 0

    def test_datalog_terminates_within_active_domain(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_instance(rng)
            result = oblivious_chase(inst.program, set(inst.database.entries))
            assert not result.truncated
            adom = {
                t.name
                for a in result.olim
                for t in a.args
                if isinstance(t, Constant)
            }
            known = inst.program.constants() | inst.database.constants()
            assert adom <= known

    def test_truncation_flagged(self):
        prog = _program(([atom("p", "X")], atom("p", "Y")))
        result = oblivious_chase(prog, {atom("p", "a")}, step_limit=5)
        assert result.truncated
        assert result.steps == 5
        for g in result.gamma:
            assert g.head in result.olim
            assert all(b in result.olim for b in g.body)

    def test_monotone_in_facts_and_rules(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng)
            facts = set(inst.database.entries)
            full = oblivious_chase(inst.program, facts)
            assert full.olim >= frozenset(facts)
            if len(inst.program.rules) > 1:
                smaller = Program.from_rules(inst.program.rules[:-1], extra_atoms=list(facts))
                partial = oblivious_chase(smaller, facts)
                assert partial.olim <= full.olim

    def test_deterministic_replay(self):
        prog = _program(
            ([atom("s", "X")], atom("p", "X", "Y")),
            ([atom("p", "X", "Y")], atom("t", "X")),
        )
        facts = {atom("s", "a"), atom("s", "b"), atom("t", "a")}
        r1 = oblivious_chase(prog, facts)
        r2 = oblivious_chase(prog, facts)
        assert r1.olim == r2.olim
        assert r1.gamma == r2.gamma
        assert r1.steps == r2.steps


class TestGammaCompleteness:
    def _independent_groundings(self, program, olim):
        """Brute-force (rule, substitution) pairs with body inside olim."""
        terms = sorted({t for a in olim for t in a.args}, key=str)
        found = set()
        for rule in program.rules:
            variables = sorted(rule.body_variables())
            for combo in itertools.product(terms, repeat=len(variables)):
                sub = dict(zip(variables, combo))
                if all(substitute(b, sub) in olim for b in rule.body):
                    found.add((rule.id, tuple(sorted(sub.items()))))
        return found

    def _draws(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng, max_rules=4)
            yield inst.program, set(inst.database.entries)
        rng = random.Random(29)
        facts = {atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")}
        accepted = 0
        while accepted < 25:
            program = random_existential_program(rng)
            if is_weakly_acyclic_ve(program)[0]:
                accepted += 1
                yield program, facts

    def test_one_ground_rule_per_pair(self):
        for program, facts in self._draws():
            result = oblivious_chase(program, facts)
            assert not result.truncated
            expected = self._independent_groundings(program, result.olim)
            keys = []
            for g in result.gamma:
                rule = program.rule_by_id(g.origin_rule_id)
                sub = {}
                for pattern, ground in zip(rule.body, g.body):
                    for p, c in zip(pattern.args, ground.args):
                        if isinstance(p, Variable):
                            sub[p.name] = c
                keys.append((g.origin_rule_id, tuple(sorted(sub.items()))))
            assert len(set(keys)) == len(keys), "duplicate grounding"
            assert set(keys) == expected
            # rule-id order, then the order enumerate_homomorphisms lists
            enumerated = [
                (rule.id, tuple(sorted(hom.items())))
                for rule in sorted(program.rules, key=lambda r: r.id)
                for hom in enumerate_homomorphisms(rule, result.olim)
            ]
            assert keys == enumerated


class TestRounds:
    """One enumeration per rule per round; the last round adds no atom."""

    @staticmethod
    def _rounds_adding_atoms(program, facts):
        """Naive round count: apply every rule to a snapshot until nothing is new."""
        known = set(facts)
        rounds = 0
        while True:
            heads = set()
            terms = sorted({t for a in known for t in a.args}, key=str)
            for rule in program.rules:
                variables = sorted(rule.body_variables())
                for combo in itertools.product(terms, repeat=len(variables)):
                    sub = dict(zip(variables, combo))
                    if all(substitute(b, sub) in known for b in rule.body):
                        heads.add(substitute(rule.head, sub))
            if heads <= known:
                return rounds
            known |= heads
            rounds += 1

    def _count_calls(self, monkeypatch, program, facts):
        calls = []

        def counting(rule, atoms, index=None):
            calls.append(rule.id)
            return enumerate_homomorphisms(rule, atoms, index)

        monkeypatch.setattr(chase_module, "enumerate_homomorphisms", counting)
        result = oblivious_chase(program, facts)
        monkeypatch.undo()
        assert not result.truncated
        return len(calls)

    def test_transitive_closure_of_a_path(self, monkeypatch):
        prog = _program(
            ([atom("e", "X", "Y")], atom("t", "X", "Y")),
            ([atom("t", "X", "Y"), atom("e", "Y", "Z")], atom("t", "X", "Z")),
        )
        facts = {atom("e", "a", "b"), atom("e", "b", "c"), atom("e", "c", "d")}
        # rounds add t of length 1, 2 and 3; a fourth round adds nothing
        assert self._count_calls(monkeypatch, prog, facts) == 2 * (3 + 1)

    def test_existential_rule(self, monkeypatch):
        prog = _program(([atom("company", "X")], atom("kp", "Y", "X")))
        facts = {atom("company", "acme"), atom("kp", "amy", "acme")}
        assert self._count_calls(monkeypatch, prog, facts) == 1 * (1 + 1)

    def test_random_plain_programs(self, monkeypatch):
        rng = random.Random(31)
        for _ in range(25):
            inst = random_instance(rng, max_rules=5)
            facts = set(inst.database.entries)
            rounds = self._rounds_adding_atoms(inst.program, facts)
            calls = self._count_calls(monkeypatch, inst.program, facts)
            assert calls == len(inst.program.rules) * (rounds + 1)


class TestNullRegistry:
    def test_null_freshness(self):
        prog = _program(
            ([atom("s", "X")], atom("p", "X", "Y")),
            ([atom("t", "X")], atom("q", "X", "Y")),
        )
        facts = {atom("s", "a"), atom("s", "b"), atom("t", "a")}
        result = oblivious_chase(prog, facts)
        all_nulls = [n for _, _, nulls in result.registry.entries() for n in nulls]
        assert len(all_nulls) == len(set(all_nulls)) == 3

    def test_one_tuple_per_homomorphism(self):
        prog = _program(([atom("s", "X")], atom("p", "X", "Y")))
        facts = {atom("s", "a")}
        result = oblivious_chase(prog, facts)
        assert len(result.registry) == 1
        nulls_in_gamma = {
            t for g in result.gamma for t in g.head.args if isinstance(t, LabelledNull)
        }
        assert len(nulls_in_gamma) == 1


class TestEnumerateHomomorphisms:
    def test_single_match(self):
        rule = make_rule(0, [atom("label", "X", "whale"), atom("polar", "X")], atom("orca", "X"))
        atoms = {atom("label", "i1", "whale"), atom("polar", "i1")}
        assert enumerate_homomorphisms(rule, atoms) == [{"X": Constant("i1")}]

    def test_absent_predicate(self):
        rule = make_rule(0, [atom("missing", "X")], atom("p", "X"))
        assert enumerate_homomorphisms(rule, {atom("p", "a")}) == []

    def test_independent_matches_sorted(self):
        rule = make_rule(0, [atom("r", "X")], atom("s", "X"))
        homs = enumerate_homomorphisms(rule, {atom("r", "b"), atom("r", "a")})
        assert homs == [{"X": Constant("a")}, {"X": Constant("b")}]

    def test_join_consistency(self):
        rule = make_rule(0, [atom("e", "X", "Y"), atom("e", "Y", "Z")], atom("path", "X", "Z"))
        atoms = {atom("e", "a", "b"), atom("e", "b", "c")}
        homs = enumerate_homomorphisms(rule, atoms)
        assert homs == [{"X": Constant("a"), "Y": Constant("b"), "Z": Constant("c")}]

    def test_repeated_variable(self):
        rule = make_rule(0, [atom("e", "X", "X")], atom("loop", "X"))
        atoms = {atom("e", "a", "a"), atom("e", "a", "b")}
        homs = enumerate_homomorphisms(rule, atoms)
        assert homs == [{"X": Constant("a")}]


class TestMatches:
    N1 = LabelledNull(1)

    def test_null_replaced_by_constant(self):
        pattern = Atom("kp", (self.N1, Constant("acme")))
        assert matches(atom("kp", "amy", "acme"), pattern, {self.N1})

    def test_non_null_position_must_agree(self):
        pattern = Atom("kp", (self.N1, Constant("acme")))
        assert not matches(atom("kp", "amy", "emca"), pattern, {self.N1})

    def test_repeated_null_must_bind_consistently(self):
        pattern = Atom("q", (self.N1, self.N1))
        assert not matches(atom("q", "a", "b"), pattern, {self.N1})
        assert matches(atom("q", "a", "a"), pattern, {self.N1})

    def test_pattern_matches_itself(self):
        pattern = Atom("kp", (self.N1, Constant("acme")))
        assert matches(pattern, pattern, {self.N1})

    def test_null_outside_set_is_rigid(self):
        n2 = LabelledNull(2)
        pattern = Atom("p", (self.N1, n2))
        assert not matches(Atom("p", (self.N1, Constant("c"))), pattern, {self.N1})
        assert matches(Atom("p", (Constant("c"), n2)), pattern, {self.N1})
