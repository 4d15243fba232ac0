import copy as copy_module
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import assignment_from_map, database_from_pairs, k_satisfies, luk_and, luk_not, luk_or, relax_rewrite
from mvdatalog.core import (
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    GroundRule,
    Instance,
    LabelledNull,
    Program,
    Variable,
    as_degree,
    atom,
    body_truth,
    make_rule,
    rule_gap,
)

F = Fraction
degrees = st.fractions(min_value=0, max_value=1)
ta = assignment_from_map


LABEL = atom("label", "i1", "whale")
POLAR = atom("polar", "i1")
ORCA = atom("orca", "i1")
ORCA_GROUND = GroundRule(0, (LABEL, POLAR), ORCA)


class TestBodyTruth:
    def test_orca_body(self):
        nu = ta({LABEL: F(4, 5), POLAR: F(7, 10)})
        assert body_truth(nu, [LABEL, POLAR]) == F(1, 2)

    def test_single_true_atom(self):
        g = atom("g", "a")
        assert body_truth(ta({g: 1}), [g]) == 1

    def test_three_thirds_clamp(self):
        gs = [atom("g1"), atom("g2"), atom("g3")]
        nu = ta({g: F(1, 3) for g in gs})
        assert body_truth(nu, gs) == 0

    def test_multiplicity_counts(self):
        g = atom("g", "a")
        nu = ta({g: F(3, 4)})
        assert body_truth(nu, [g, g]) == F(1, 2)

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            body_truth(ta({}), [])


class TestRuleGap:
    def test_orca_tight_at_minimal_degree(self):
        nu = ta({LABEL: F(4, 5), POLAR: F(7, 10), ORCA: F(1, 2)})
        assert rule_gap(nu, ORCA_GROUND, F(1)) == 0

    def test_all_zero_at_k_one(self):
        g = GroundRule(0, (atom("a0"),), atom("b0"))
        assert rule_gap(ta({}), g, F(1)) == 0

    def test_direct_evaluation(self):
        g = GroundRule(0, (atom("a0"),), atom("b0"))
        nu = ta({atom("a0"): F(9, 10), atom("b0"): F(9, 10)})
        assert rule_gap(nu, g, F(9, 10)) == F(1, 10)


class TestKSatisfies:
    def test_orca_satisfied(self):
        nu = ta({LABEL: F(4, 5), POLAR: F(7, 10), ORCA: F(1, 2)})
        assert k_satisfies(nu, ORCA_GROUND, F(1))

    def test_orca_too_low(self):
        nu = ta({LABEL: F(4, 5), POLAR: F(7, 10), ORCA: F(2, 5)})
        assert not k_satisfies(nu, ORCA_GROUND, F(1))

    def test_everything_zero_satisfies(self):
        assert k_satisfies(ta({}), ORCA_GROUND, F(1))

    @given(
        a=degrees, b=degrees, h=degrees,
        k=st.fractions(min_value=F(1, 100), max_value=1),
    )
    def test_gap_sign_equivalence(self, a, b, h, k):
        nu = ta({LABEL: a, POLAR: b, ORCA: h})
        implication = min(1, 1 - body_truth(nu, ORCA_GROUND.body) + nu(ORCA_GROUND.head))
        assert k_satisfies(nu, ORCA_GROUND, k) == (implication >= k)
        assert k_satisfies(nu, ORCA_GROUND, k) == (rule_gap(nu, ORCA_GROUND, k) >= 0)


class TestLukasiewiczAlgebra:
    @given(values=st.lists(degrees, min_size=1, max_size=6))
    def test_closed_form_equals_pairwise_fold(self, values):
        gs = [atom(f"g{i}") for i in range(len(values))]
        nu = ta(dict(zip(gs, values)))
        folded = values[0]
        for v in values[1:]:
            folded = luk_and(folded, v)
        assert body_truth(nu, gs) == folded
        assert body_truth(nu, gs) <= min(values)

    @given(a=degrees, b=degrees)
    def test_de_morgan(self, a, b):
        assert luk_and(a, b) == luk_not(luk_or(luk_not(a), luk_not(b)))

    @given(a=degrees, b=degrees)
    def test_degree_closure(self, a, b):
        for value in (luk_and(a, b), luk_or(a, b), luk_not(a)):
            assert 0 <= value <= 1


class TestDegrees:
    def test_decimal_exact(self):
        assert as_degree("0.8") == F(4, 5)

    @pytest.mark.parametrize("bad", ["-1/2", "3/2", "2", "abc", "1/0"])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_degree(bad)

    def test_zero_rejected_when_positive(self):
        with pytest.raises(DomainError):
            as_degree(0, positive=True)


class TestStoredDegrees:
    """Instance and FuzzyDatabase keep the Fraction `as_degree` returns, not the raw value."""

    P, Q, R = atom("p", "a"), atom("q", "a"), atom("r", "a")

    def test_instance_k(self):
        program = Program.from_rules([make_rule(0, [atom("p", "X")], atom("q", "X"))])
        tau = FuzzyDatabase({self.P: F(4, 5)})
        assert Instance(program, tau, "9/10").K == F(9, 10)
        K = Instance(program, tau, 0.9).K
        assert type(K) is Fraction and K == Fraction(0.9)
        assert type(Instance(program, tau, 1).K) is Fraction

    def test_database_degrees(self):
        given = {self.P: 0.8, self.Q: "1/2", self.R: 1}
        tau = FuzzyDatabase(given)
        assert tau.entries == {self.P: Fraction(0.8), self.Q: F(1, 2), self.R: F(1)}
        assert all(type(d) is Fraction for d in tau.entries.values())
        assert type(given[self.P]) is float  # the caller's dict is left as it is

    def test_exact_degrees_are_kept_without_a_copy(self):
        given = {self.P: F(4, 5), self.Q: F(1)}
        tau = FuzzyDatabase(given)
        assert tau.entries is given and tau.entries[self.P] is given[self.P]

    def test_fixpoint_over_float_inputs_stays_exact(self):
        from mvdatalog.engine import minimal_model

        program = Program.from_rules([make_rule(0, [atom("p", "X")], atom("q", "X"))])
        model = minimal_model(Instance(program, FuzzyDatabase({self.P: 0.8}), "9/10"))
        degree = model.assignment(self.Q)
        assert type(degree) is Fraction and degree == Fraction(0.8) - 1 + F(9, 10)


class TestTypes:
    def test_database_rejects_zero_degree(self):
        with pytest.raises(DomainError):
            FuzzyDatabase({atom("p", "a"): F(0)})

    def test_database_rejects_nulls(self):
        with pytest.raises(DomainError):
            FuzzyDatabase({Atom("p", (LabelledNull(1),)): F(1, 2)})

    def test_database_conflict(self):
        pairs = [(atom("p", "a"), F(1, 2)), (atom("p", "a"), F(1, 3))]
        with pytest.raises(DomainError):
            database_from_pairs(pairs)

    def test_assignment_total_with_default_zero(self):
        nu = ta({atom("p", "a"): F(1, 2)})
        assert nu(atom("p", "b")) == 0

    @pytest.mark.parametrize("bad", ["1/0", "abc", "3/2"])
    def test_assignment_rejects_bad_degrees(self, bad):
        with pytest.raises(DomainError):
            ta({atom("p", "a"): bad})

    def test_assignment_drops_zeros_in_any_spelling(self):
        nu = ta({atom("p", "a"): "0/3", atom("q", "a"): 0, atom("r", "a"): "1/2"})
        assert nu.support == {atom("r", "a"): F(1, 2)}

    def test_database_rejects_non_ground_atoms(self):
        with pytest.raises(DomainError, match="not ground"):
            FuzzyDatabase({atom("p", "X"): F(1, 2)})

    def test_program_rejects_duplicate_rule_ids(self):
        rules = [make_rule(0, [atom("p", "X")], atom("q", "X")), make_rule(0, [atom("q", "X")], atom("r", "X"))]
        with pytest.raises(ValueError, match="unique"):
            Program.from_rules(rules)

    def test_rule_rejects_empty_body(self):
        with pytest.raises(ValueError):
            make_rule(0, [], atom("p", "a"))

    @pytest.mark.parametrize("in_head", [False, True])
    def test_rule_rejects_labelled_nulls(self, in_head):
        null_atom = Atom("p", (Constant("a"), LabelledNull(1)))
        body, head = ([atom("q", "X")], null_atom) if in_head else ([null_atom], atom("q", "a"))
        with pytest.raises(ValueError, match="labelled nulls cannot occur in a rule"):
            make_rule(0, body, head)

    def test_nullary_atom_prints_its_predicate(self):
        assert str(atom("p")) == "p" and str(atom("p", "a")) == "p(a)"

    def test_atom_keeps_term_arguments(self):
        # an uppercase string becomes a variable, a Constant stays one whatever its name
        assert atom("p", Constant("X"), "X", "x", LabelledNull(2)).args == (
            Constant("X"), Variable("X"), Constant("x"), LabelledNull(2))

    def test_rule_infers_existentials(self):
        r = make_rule(0, [atom("company", "X")], atom("kp", "Y", "X"))
        assert r.existential_vars == frozenset({"Y"})

    def test_instance_requires_positive_k(self):
        prog = Program.from_rules([])
        with pytest.raises(DomainError):
            Instance(prog, FuzzyDatabase({}), F(0))


class TestRelaxRewrite:
    """The rewrite that the relaxed-mode differential test uses as its oracle."""

    def test_bridges_and_replacement(self):
        prog = Program.from_rules([make_rule(0, [atom("r", "X")], atom("s", "X"))])
        tau = FuzzyDatabase({atom("r", "a"): F(1), atom("s", "a"): F(1, 2)})
        rewritten, renaming = relax_rewrite(Instance(prog, tau, F(1)))
        assert renaming == {"r": "r'", "s": "s'"}
        texts = {str(r) for r in rewritten.program.rules}
        assert texts == {"r'(X1) :- r(X1)", "s'(X1) :- s(X1)", "s'(X) :- r'(X)"}
        # tau itself is untouched
        assert rewritten.database is tau

    def test_tau_only_predicates_get_rules(self):
        prog = Program.from_rules([make_rule(0, [atom("u", "X")], atom("v", "X"))])
        tau = FuzzyDatabase({atom("w", "a"): F(1, 2)})
        rewritten, renaming = relax_rewrite(Instance(prog, tau, F(1)))
        assert renaming == {"w": "w'"}
        texts = {str(r) for r in rewritten.program.rules}
        assert texts == {"w'(X1) :- w(X1)", "v(X) :- u(X)"}

    def test_empty_tau_identity(self):
        prog = Program.from_rules([make_rule(0, [atom("u", "X")], atom("v", "X"))])
        inst = Instance(prog, FuzzyDatabase({}), F(1))
        rewritten, renaming = relax_rewrite(inst)
        assert renaming == {}
        assert rewritten is inst

    def test_primed_name_collision_resolved(self):
        prog = Program.from_rules(
            [make_rule(0, [atom("r'", "X")], atom("s", "X"))]
        )
        tau = FuzzyDatabase({atom("r", "a"): F(1, 2)})
        _, renaming = relax_rewrite(Instance(prog, tau, F(1)))
        assert renaming["r"] == "r''"


class TestInstanceImmutability:
    def test_frozen_values(self):
        with pytest.raises(Exception):
            LABEL.predicate = "other"  # type: ignore[misc]

    def test_atoms_are_map_keys(self):
        d = {atom("p", "a"): 1}
        assert d[atom("p", "a")] == 1

    def test_cached_hash_equal_across_constructions(self):
        a = atom("r", "a", "_:n1")
        b = Atom("r", (Constant("a"), Constant("_:n1")))
        c = Atom("r", (Constant("a"), LabelledNull(1)))
        assert a == b and a is not b and hash(a) == hash(b) == hash(a)
        assert hash(a) == hash(("r", a.args))  # the value the dataclass hash had
        assert a != c and {a: 1, c: 2}[b] == 1
        assert repr(a) == "Atom(predicate='r', args=(Constant(name='a'), Constant(name='_:n1')))"

    def test_cached_hash_is_not_pickled(self):
        fresh = pickle.dumps(atom("q", "a"))
        hashed = atom("q", "a")
        hash(hashed)
        assert pickle.dumps(hashed) == fresh
        for twin in (pickle.loads(fresh), copy_module.copy(hashed), copy_module.deepcopy(hashed)):
            assert twin == hashed and hash(twin) == hash(hashed)
