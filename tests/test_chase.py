import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    constants,
    enumerate_homomorphisms,
    matches,
    naive_oblivious_chase,
    program_constants,
    random_existential_program,
    random_instance,
    random_wide_program,
    rule_by_id,
    substitute,
)
from mvdatalog import chase as chase_module
from mvdatalog import engine as engine_module
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import (
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    Instance,
    LabelledNull,
    Program,
    Variable,
    atom,
    make_rule,
)
from mvdatalog.engine import eoptk_columns
from mvdatalog.parser import parse
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
            known = program_constants(inst.program) | constants(inst.database.entries)
            assert adom <= known

    def test_non_ground_fact_rejected(self):
        prog = _program(([atom("p", "X")], atom("q", "X")))
        with pytest.raises(DomainError, match=r"^database atom p\(X\) is not ground$"):
            oblivious_chase(prog, {atom("p", "X")})

    @pytest.mark.parametrize("null", [1, 0])
    def test_fact_with_a_null_rejected(self, null):
        # fresh nulls are numbered from 1: s(a)'s would alias the input's, deriving r(_:n1)
        prog = _program(([atom("s", "X")], atom("q", "Y")), ([atom("p", "X"), atom("q", "X")], atom("r", "X")))
        facts = [atom("p", "a"), Atom("p", (LabelledNull(null),)), atom("s", "a")]  # _:n0 would alias a's rank
        with pytest.raises(DomainError, match=rf"^database atom p\(_:n{null}\) contains a labelled null$"):
            oblivious_chase(prog, facts)

    def test_repeated_atoms_get_one_id_each_in_first_seen_order(self):
        rng = random.Random(53)
        prog = _program(([atom("r", "X", "Y")], atom("q", "Y")), ([atom("q", "X")], atom("s", "X", "Z")))
        distinct = [atom("r", "b", "a"), atom("p", "a"), atom("r", "a", "b"), atom("q", "c"), atom("s", "a", "b")]
        for _ in range(20):
            facts = distinct * 2 + rng.sample(distinct, 3)
            rng.shuffle(facts)
            first_seen = list(dict.fromkeys(facts))
            result = oblivious_chase(prog, facts)
            n = len(first_seen)
            assert result.keys[:n] == [(a.predicate, tuple(result.rank[t.name] for t in a.args)) for a in first_seen]
            assert result.atoms[:n] == first_seen
            assert [result.id_of(a) for a in first_seen] == list(range(n))
            assert len(set(result.keys)) == len(result.keys)

    @staticmethod
    def _assert_atoms_enter_as_a_database(program, atoms, step_limit):
        by_atoms = oblivious_chase(program, atoms, step_limit)
        by_database = oblivious_chase(program, FuzzyDatabase(dict.fromkeys(atoms, 1)), step_limit)
        for name in ("keys", "ground", "nulls", "steps", "truncated", "olim"):
            assert getattr(by_atoms, name) == getattr(by_database, name), name
        return by_atoms.truncated

    def test_atoms_chase_as_the_database_that_holds_them_at_one(self):
        rng = random.Random(59)
        truncated = 0
        for n in range(300):
            if n % 3 == 0:
                inst = random_instance(rng)
                program, atoms = inst.program, list(inst.database.entries)
            elif n % 3 == 1:
                program = random_existential_program(rng)
                atoms = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
            else:
                program, atoms = random_wide_program(rng, n % 2 == 1)
                atoms = list(atoms)
            rng.shuffle(atoms)
            finite = not program.has_existential_rules or is_weakly_acyclic_ve(program)[0]
            for step_limit in (None, 1, 7) if finite else (1, 7):
                truncated += self._assert_atoms_enter_as_a_database(program, atoms, step_limit)
        assert 0 < truncated

    def test_atoms_of_another_arity_are_not_matched(self):
        # r(c) shares r's name, not its arity: probing r(X, Y) on position 1 must skip it
        prog = _program(([atom("p", "Y"), atom("r", "X", "Y")], atom("q", "Y")))
        facts = {atom("p", "b"), atom("r", "a", "b"), atom("r", "c")}
        result = oblivious_chase(prog, facts)
        assert result.olim == frozenset(facts | {atom("q", "b")})
        assert result.gamma == naive_oblivious_chase(prog, facts).gamma

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
                rule = rule_by_id(program, g.origin_rule_id)
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
    """A rule is joined in a round only when one of its body predicates has
    new atoms there and each of them holds an atom; the last round adds no
    atom."""

    @staticmethod
    def _deltas(program, facts):
        """Naive rounds: apply every rule to a snapshot until nothing is new;
        returns each round's delta, the facts first."""
        known = set(facts)
        deltas = [set(facts)]
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
                return deltas
            deltas.append(heads - known)
            known |= heads

    @staticmethod
    def _rules_reading(program, delta, known):
        """The rules that read `delta` and whose body predicates all hold an atom of `known`."""
        predicates, held = {a.predicate for a in delta}, {a.predicate for a in known}
        return sum(any(b.predicate in predicates for b in r.body) and all(b.predicate in held for b in r.body)
                   for r in program.rules)

    @classmethod
    def _rules_per_round(cls, program, deltas):
        return [cls._rules_reading(program, d, set().union(*deltas[:i + 1])) for i, d in enumerate(deltas)]

    def _count_calls(self, monkeypatch, program, facts):
        calls = []
        join = chase_module._join

        def counting(rule, index):
            calls.append(rule.id)
            return join(rule, index)

        monkeypatch.setattr(chase_module, "_join", counting)
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
        # round 0 joins only the first rule on the facts, as no t atom is held
        # yet; rounds 1-3 see only new t atoms (lengths 1, 2, 3), which the
        # first rule does not read
        assert self._count_calls(monkeypatch, prog, facts) == 1 + 1 + 1 + 1
        assert self._rules_per_round(prog, self._deltas(prog, facts)) == [1, 1, 1, 1]

    def test_existential_rule(self, monkeypatch):
        prog = _program(([atom("company", "X")], atom("kp", "Y", "X")))
        facts = {atom("company", "acme"), atom("kp", "amy", "acme")}
        # round 1's delta is the null kp atom, which the rule does not read
        assert self._count_calls(monkeypatch, prog, facts) == 1

    def test_random_plain_programs(self, monkeypatch):
        rng = random.Random(31)
        for _ in range(25):
            inst = random_instance(rng, max_rules=5)
            facts = set(inst.database.entries)
            deltas = self._deltas(inst.program, facts)  # one per round, the last adds nothing
            calls = self._count_calls(monkeypatch, inst.program, facts)
            assert calls == sum(self._rules_per_round(inst.program, deltas))
            assert calls <= len(inst.program.rules) * len(deltas)

    def test_chain_work_is_linear(self, monkeypatch):
        """Candidate atoms examined on a path grow linearly with its length."""
        join = chase_module._join

        def examined(edges):
            indexes = []

            def capturing(rule, index):
                indexes.append(index)
                return join(rule, index)

            prog = _program(([atom("edge", "X", "Y"), atom("reach", "X")], atom("reach", "Y")))
            facts = {atom("reach", "c0")} | {atom("edge", f"c{i}", f"c{i + 1}") for i in range(edges)}
            monkeypatch.setattr(chase_module, "_join", capturing)
            result = oblivious_chase(prog, facts)
            monkeypatch.undo()
            assert len(result.olim) == 2 * edges + 1
            (count,) = {index.examined for index in indexes}  # one index per chase
            assert count > 0
            return count

        assert examined(200) <= 2.2 * examined(100)

    def test_key_person_head_matching_is_linear(self, monkeypatch):
        """Head atoms found in eoptk_columns grow linearly with the companies."""
        head_ids = engine_module.head_ids

        def matched(companies):
            lines = ["kp(Y, X) :- company(X).", "person(Y) :- kp(Y, X)."]
            for i in range(companies):
                lines.append(f"company(c{i}).")
                lines += [f"0.{j + 3} :: kp(p{i}x{j}, c{i})." for j in range(i % 3)]
            program, tau = parse("\n".join(lines))
            chase = oblivious_chase(program, set(tau.entries))
            count = 0

            def counting_heads(compiled, args, index):
                nonlocal count
                heads = head_ids(compiled, args, index)
                count += len(heads)
                return heads

            monkeypatch.setattr(engine_module, "head_ids", counting_heads)
            eoptk_columns(Instance(program, tau, F(1)), chase)
            monkeypatch.undo()
            assert count >= companies
            return count

        assert matched(200) <= 2.2 * matched(100)


class TestNaiveOracle:
    """The semi-naive chase equals the naive one in tests/helpers.py."""

    @staticmethod
    def _assert_same(program, facts, step_limit):
        fast = oblivious_chase(program, facts, step_limit)
        naive = naive_oblivious_chase(program, facts, step_limit)
        assert fast.olim == naive.olim
        assert fast.gamma == naive.gamma
        assert list(fast.registry) == naive.registry.entries()
        assert (fast.steps, fast.truncated) == (naive.steps, naive.truncated)
        return fast.truncated

    def test_random_plain_programs(self):
        rng = random.Random(37)
        for _ in range(1500):
            inst = random_instance(rng)
            facts = set(inst.database.entries)
            for step_limit in (None, 1, 3, 7):
                self._assert_same(inst.program, facts, step_limit)

    def test_random_existential_programs(self):
        rng = random.Random(41)
        facts = {atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")}
        truncated = sum(
            self._assert_same(random_existential_program(rng), facts, rng.randint(5, 100))
            for _ in range(1500)
        )
        assert 0 < truncated < 1500

    def test_random_wide_programs(self):
        """Programs beyond the generators above: up to three body atoms,
        ternary and nullary predicates, constants in bodies and heads,
        variables repeated inside an atom and existential heads that
        repeat a variable. Existential ones run at bounded limits only."""
        rng = random.Random(53)
        seen = dict.fromkeys(["three atoms", "ternary", "nullary", "body constant", "head constant",
                              "repeat in atom", "repeated existential", "truncated", "complete"], 0)
        for n in range(1000):
            existential = n % 2 == 1
            program, facts = random_wide_program(rng, existential)
            for step_limit in (1, 3, 7, 25) if existential else (None, 1, 3, 7, 25):
                seen["truncated" if self._assert_same(program, facts, step_limit) else "complete"] += 1
            for rule in program.rules:
                atoms = (*rule.body, rule.head)
                seen["three atoms"] += len(rule.body) == 3
                seen["ternary"] += any(a.arity == 3 for a in atoms)
                seen["nullary"] += any(a.arity == 0 for a in atoms)
                seen["body constant"] += bool(constants(rule.body))
                seen["head constant"] += bool(constants([rule.head]))
                seen["repeat in atom"] += any(
                    len(a.variables()) < sum(isinstance(t, Variable) for t in a.args) for a in rule.body
                )
                existential_args = [t for t in rule.head.args if isinstance(t, Variable) and t.name in rule.existential_vars]
                seen["repeated existential"] += len(set(existential_args)) < len(existential_args)
        assert min(seen.values()) >= 100, seen


class TestSharedAtoms:
    """olim and Gamma hold one object per ground atom: every body and head
    atom of a ground rule is the olim member itself."""

    @staticmethod
    def _assert_shared(program, facts, step_limit):
        result = oblivious_chase(program, facts, step_limit)
        held = {a: a for a in result.olim}
        for g in result.gamma:
            for a in (*g.body, g.head):
                assert held[a] is a, f"{a} in {g} is a copy"
        return result

    def test_random_plain_programs(self):
        rng = random.Random(43)
        for _ in range(400):
            inst = random_instance(rng)
            facts = set(inst.database.entries)
            for step_limit in (None, 1, 3, 7):
                self._assert_shared(inst.program, facts, step_limit)

    def test_random_existential_programs(self):
        rng = random.Random(47)
        facts = {atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")}
        unlimited = truncated = 0
        for _ in range(400):
            program = random_existential_program(rng)
            if is_weakly_acyclic_ve(program)[0]:
                unlimited += 1
                assert not self._assert_shared(program, facts, None).truncated
            truncated += self._assert_shared(program, facts, rng.randint(5, 100)).truncated
        assert unlimited >= 100 and 0 < truncated < 400

    def test_head_derived_twice_in_one_round_is_one_object(self):
        prog = _program(([atom("a", "X")], atom("c", "X")), ([atom("b", "X")], atom("c", "X")))
        result = oblivious_chase(prog, {atom("a", "k"), atom("b", "k")})
        first, second = result.gamma
        assert first.head is second.head


class TestNullRegistry:
    def test_null_freshness(self):
        prog = _program(
            ([atom("s", "X")], atom("p", "X", "Y")),
            ([atom("t", "X")], atom("q", "X", "Y")),
        )
        facts = {atom("s", "a"), atom("s", "b"), atom("t", "a")}
        result = oblivious_chase(prog, facts)
        all_nulls = [n for _, _, nulls in result.registry for n in nulls]
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
