import random
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from helpers import (
    brute_force_lp,
    fraction_solve,
    random_degree,
    random_existential_program,
    random_instance,
    reference_solve,
    two_solve_lexicographic,
)
from mvdatalog import lp as lp_module
from mvdatalog.chase import oblivious_chase
from mvdatalog.core import FuzzyDatabase, Instance, atom
from mvdatalog.engine import Engine, NoObliviousBaseModel, eoptk_columns
from mvdatalog.lp import (
    ColumnProgram,
    Constraint,
    LinearProgram,
    MalformedModel,
    Status,
    solve,
)
from mvdatalog.parser import parse
from mvdatalog.termination import is_weakly_acyclic_ve

F = Fraction


def lp_with(variables, constraints, objective, fixings=None, bounds=None):
    lp = LinearProgram()
    for v in variables:
        lo, hi = (bounds or {}).get(v, (F(0), F(1)))
        lp.add_variable(v, lo, hi)
    for coeffs, rhs in constraints:
        lp.add_constraint({k: F(c) for k, c in coeffs.items()}, F(rhs))
    lp.objective = {k: F(c) for k, c in objective.items()}
    for k, v in (fixings or {}).items():
        lp.fix(k, F(v))
    return lp


class TestSolveBasics:
    def test_single_binding_constraint(self):
        lp = lp_with(["x"], [({"x": 1}, F(1, 2))], {"x": 1})
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.assignment["x"] == F(1, 2)
        assert sol.objective_value == F(1, 2)

    def test_orca_model(self):
        # (1 - label) + (1 - polar) + orca >= 1 with the two database fixings
        lp = lp_with(
            ["label", "orca", "polar"],
            [({"orca": 1, "label": -1, "polar": -1}, F(1) - 2)],
            {"label": 1, "orca": 1, "polar": 1},
            fixings={"label": F(4, 5), "polar": F(7, 10)},
        )
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.assignment["orca"] == F(1, 2)
        assert sol.objective_value == F(2)

    def test_infeasible_fixing_vs_constraint(self):
        lp = lp_with(["x"], [({"x": 1}, F(4, 5))], {"x": 1}, fixings={"x": F(1, 5)})
        assert solve(lp).status is Status.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", F(0), None)
        lp.objective = {"x": F(-1)}
        assert solve(lp).status is Status.UNBOUNDED

    def test_unbounded_tie_break(self):
        # the primary is bounded, but over its optima x may grow without end
        lp = lp_with(["x", "y"], [({"y": 1}, F(1, 2))], {"y": 1}, bounds={"x": (F(0), None)})
        assert solve(lp, {"x": F(-1)}).status is Status.UNBOUNDED

    def test_empty_objective_feasibility(self):
        lp = lp_with(["x"], [({"x": 1}, F(1, 3))], {})
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.objective_value == 0

    def test_constant_row_infeasible(self):
        lp = lp_with(["x"], [({"y": 0}, F(1))], {"x": 1})
        lp.constraints = [Constraint({}, F(1))]
        assert solve(lp).status is Status.INFEASIBLE

    def test_nontrivial_shifted_bounds(self):
        lp = lp_with(
            ["x", "y"],
            [({"x": 1, "y": 1}, F(3))],
            {"x": 1, "y": 2},
            bounds={"x": (F(1), F(5)), "y": (F(1), F(5))},
        )
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.assignment["x"] + sol.assignment["y"] == F(3)
        assert sol.objective_value == F(4)  # push the cheap variable up


class TestMalformed:
    def test_fixing_outside_bounds(self):
        lp = lp_with(["x"], [], {"x": 1}, fixings={"x": F(3, 2)})
        with pytest.raises(MalformedModel):
            solve(lp)

    def test_undeclared_variable_in_secondary(self):
        lp = lp_with(["x"], [({"x": 1}, F(0))], {"x": 1})
        with pytest.raises(MalformedModel):
            solve(lp, {"ghost": F(1)})

    def test_undeclared_variable_in_constraint(self):
        lp = lp_with(["x"], [({"ghost": 1}, F(0))], {"x": 1})
        with pytest.raises(MalformedModel):
            solve(lp)

    @pytest.mark.parametrize(
        "break_lp, message",
        [
            (lambda lp: lp.variables.append("y"), "variable list and bounds disagree"),
            (lambda lp: lp.bounds.update(x=(F(1), F(1, 2))), "lower bound above upper bound"),
            (lambda lp: lp.fixings.update(ghost=F(0)), "fixing of undeclared variable 'ghost'"),
        ],
        ids=["unbounded-variable", "empty-box", "undeclared-fixing"],
    )
    def test_inconsistent_columns(self, break_lp, message):
        lp = lp_with(["x"], [({"x": 1}, F(0))], {"x": 1})
        break_lp(lp)
        with pytest.raises(MalformedModel, match=message):
            solve(lp)

    @staticmethod
    def _column_program(**changes):
        # 2x + 2y >= 1 over [0, 1]^2, scaled by 2 from x + y >= 1/2; x is fixed at 1/4
        data = dict(bounds=[(F(0), F(1))] * 2, fixed={0: F(1, 4)}, rows=[({0: 2, 1: 2}, 1, 2)])
        data.update(objective={1: 1}, secondary={}, names=["x", "y"])
        data.update(changes)
        return ColumnProgram(**data)

    def test_column_program_and_its_labelled_form(self):
        program = self._column_program()
        assert solve(program) == lp_module.Solution(Status.OPTIMAL, {0: F(1, 4), 1: F(1, 4)}, F(1, 4))
        lp, secondary = program.labelled()
        assert lp.constraints == [Constraint({"x": F(1), "y": F(1)}, F(1, 2))] and secondary == {}
        assert solve(lp, secondary).assignment == {"x": F(1, 4), "y": F(1, 4)}
        assert lp_module._Columns(lp, secondary) == program

    @pytest.mark.parametrize(
        "changes",
        [
            {"rows": [({0: 2, 2: 2}, 1, 2)]},
            {"rows": [({-1: 2, 1: 2}, 1, 2)]},
            {"fixed": {2: F(0)}},
            {"objective": {2: 1}},
            {"secondary": {-1: 1}},
        ],
        ids=["row-past-the-end", "negative-row-column", "fixing", "objective", "secondary"],
    )
    def test_column_out_of_range(self, changes):
        with pytest.raises(MalformedModel, match=r"reference to a column outside 0\.\.1"):
            solve(self._column_program(**changes))

    def test_column_fixing_outside_bounds(self):
        with pytest.raises(MalformedModel, match="fixed value 3/2 of 'x' outside bounds"):
            solve(self._column_program(fixed={0: F(3, 2)}))

    def test_column_program_takes_no_second_secondary(self):
        with pytest.raises(TypeError):
            solve(self._column_program(), {1: F(1)})

    def test_duplicate_variable(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(MalformedModel):
            lp.add_variable("x")

    def test_inputs_become_exact_fractions(self):
        lp = LinearProgram()
        half = F(1, 2)
        lp.add_variable("x", 0, "3/2")
        lp.add_variable("y", half, None)
        lp.fix("x", "1/4")
        lp.add_constraint({"x": 2, "y": half, "z": 0}, "1/3")
        assert lp.bounds == {"x": (F(0), F(3, 2)), "y": (F(1, 2), None)}
        assert lp.fixings == {"x": F(1, 4)}
        assert lp.constraints == [Constraint({"x": F(2), "y": F(1, 2)}, F(1, 3))]
        values = [*lp.bounds["x"], lp.fixings["x"], *lp.constraints[0].coeffs.values(), lp.constraints[0].rhs]
        assert all(type(v) is Fraction for v in values)
        # a Fraction is kept as given, not copied
        assert lp.bounds["y"][0] is half and lp.constraints[0].coeffs["y"] is half

    def test_zero_coefficient_dropped_in_any_spelling(self):
        # a zero entry on an undeclared variable is no reference to it
        for zero in (0, "0", "0/5", "0.00", F(0), F(0, 5)):
            lp = LinearProgram()
            lp.add_variable("x")
            lp.add_constraint({"x": 1, "z": zero}, F(1, 2))
            assert lp.constraints == [Constraint({"x": F(1)}, F(1, 2))]
            lp_module._Columns(lp).check()
            assert solve(lp).assignment == {"x": F(1, 2)}

    def test_malformed_numbers_raise(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable("x", "half")
        with pytest.raises(TypeError):
            lp.add_variable("y", F(0), [1])
        with pytest.raises(TypeError):
            lp.fix("x", None)
        with pytest.raises(ValueError):
            lp.add_constraint({"x": "two"}, F(0))
        with pytest.raises(ZeroDivisionError):
            lp.add_constraint({"x": F(1)}, "1/0")


class TestBlandRule:
    def test_beale_cycling_example_terminates(self):
        # classic degenerate instance that cycles under naive pivoting
        lp = LinearProgram()
        for v in ("x1", "x2", "x3", "x4"):
            lp.add_variable(v, F(0), None)
        lp.add_constraint({"x1": F(-1, 4), "x2": 60, "x3": F(1, 25), "x4": -9}, F(0))
        lp.add_constraint({"x1": F(-1, 2), "x2": 90, "x3": F(1, 50), "x4": -3}, F(0))
        lp.add_constraint({"x3": -1}, F(-1))
        lp.objective = {"x1": F(-3, 4), "x2": 150, "x3": F(-1, 50), "x4": 6}
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.objective_value == F(-1, 20)

    def test_bounded_beale_example_terminates(self, monkeypatch):
        # Beale's example with every structural column capped (x3 by its own
        # row) and x3 + x4 <= 1. On a degenerate vertex with x3 basic at its
        # cap, one entering column's step is 0 both to a slack falling to 0
        # and to x3 reaching its cap.
        ties = []

        class Watched(lp_module._Tableau):
            def pivot(self, rid, col, z_row):
                kinds = set()
                for r in self.col_rows[col]:
                    a, basic, rhs = self.rows[r][col], self.basis[r], self.rhs[r]
                    if self.rows[r][basic] == -1:  # complemented just now, to leave at its cap
                        kinds.add("cap" if rhs == 0 else "")
                    elif a > 0 and rhs == 0:
                        kinds.add("zero")
                    elif a < 0 and self.upper.get(basic) == rhs:
                        kinds.add("cap")
                ties.append({"zero", "cap"} <= kinds)
                super().pivot(rid, col, z_row)

        monkeypatch.setattr(lp_module, "_Tableau", Watched)
        variables = ["x1", "x2", "x3", "x4"]
        bounds = {"x1": (F(0), F(1, 25)), "x2": (F(0), F(1, 25)), "x3": (F(0), None), "x4": (F(0), F(1, 25))}
        rows = [
            ({"x1": F(-1, 4), "x2": 60, "x3": F(1, 25), "x4": -9}, F(0)),
            ({"x1": F(-1, 2), "x2": 90, "x3": F(1, 50), "x4": -3}, F(0)),
            ({"x3": -1}, F(-1)),
            ({"x3": -1, "x4": -1}, F(-1)),
        ]
        objective = {"x1": F(-3, 4), "x2": 150, "x3": F(-1, 50), "x4": 6}
        sol = solve(lp_with(variables, rows, objective, bounds=bounds))
        assert any(ties)
        faces = [({v: F(1)}, lo) for v, (lo, _) in bounds.items()]
        faces += [({v: F(-1)}, -hi) for v, (_, hi) in bounds.items() if hi is not None]
        scaled = [({v: F(c) for v, c in coeffs.items()}, rhs) for coeffs, rhs in rows]
        assert ("optimal", F(-1, 20)) == brute_force_lp(variables, scaled + faces, objective)
        assert sol.status is Status.OPTIMAL and sol.objective_value == F(-1, 20)
        assert sol.assignment == {"x1": F(1, 25), "x2": F(0), "x3": F(1), "x4": F(0)}

    def test_uncapped_column_is_never_flipped(self, monkeypatch):
        complemented = []

        class Counted(lp_module._Tableau):
            def complement(self, col, z_row):
                complemented.append(col)
                super().complement(col, z_row)

        monkeypatch.setattr(lp_module, "_Tableau", Counted)
        # x (column 0) has no cap but x + y <= 3/2 holds it; y (column 1) flips to 1
        lp = lp_with(["x", "y"], [({"x": -1, "y": -1}, F(-3, 2))], {"x": -1, "y": -2}, bounds={"x": (F(0), None)})
        sol = solve(lp)
        assert sol.assignment == {"x": F(1, 2), "y": F(1)} and sol.objective_value == F(-5, 2)
        assert complemented and 0 not in complemented

    def test_degenerate_ties(self):
        # y >= x and z >= x with x >= 1/2: minimization must lift all three
        lp = lp_with(
            ["x", "y", "z"],
            [
                ({"y": 1, "x": -1}, F(0)),
                ({"z": 1, "x": -1}, F(0)),
                ({"x": 1}, F(1, 2)),
            ],
            {"x": 1, "y": 1, "z": 1},
        )
        sol = solve(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.assignment == {"x": F(1, 2), "y": F(1, 2), "z": F(1, 2)}


class TestDeterminism:
    def test_identical_models_identical_solutions(self):
        lp1 = lp_with(
            ["a", "b", "c"],
            [({"a": 1, "b": 1}, F(1)), ({"b": 1, "c": 1}, F(1))],
            {"a": 1, "b": 1, "c": 1},
        )
        lp2 = lp_with(
            ["a", "b", "c"],
            [({"a": 1, "b": 1}, F(1)), ({"b": 1, "c": 1}, F(1))],
            {"a": 1, "b": 1, "c": 1},
        )
        s1, s2 = solve(lp1), solve(lp2)
        assert s1 == s2


class TestLexicographic:
    def test_zero_primary(self):
        lp = lp_with(["x"], [({"x": 1}, F(1, 5))], {})
        sol = solve(lp, {"x": F(1)})
        assert sol.assignment["x"] == F(1, 5)
        assert sol.objective_value == 0

    def test_key_person_tie_break(self):
        # constraint (1 - company) + kp_amy + kp_null >= 1; null atom has weight 0
        lp = lp_with(
            ["company", "kp_amy", "kp_null"],
            [({"company": -1, "kp_amy": 1, "kp_null": 1}, F(0))],
            {"company": 1, "kp_amy": 1},
            fixings={"company": F(1), "kp_amy": F(4, 5)},
        )
        sol = solve(lp, {"kp_null": F(1)})
        assert sol.assignment["kp_null"] == F(1, 5)
        assert sol.objective_value == F(9, 5)

    def test_unique_primary_unchanged(self):
        lp = lp_with(["x", "y"], [({"x": 1}, F(1, 3)), ({"y": 1}, F(1, 4))], {"x": 1, "y": 1})
        plain = solve(lp)
        lex = solve(lp, {"x": F(5)})
        assert lex.assignment == plain.assignment
        assert lex.objective_value == plain.objective_value

    def test_infeasible_passthrough(self):
        lp = lp_with(["x"], [({"x": 1}, F(2))], {"x": 1})
        sol = solve(lp, {"x": F(1)})
        assert sol.status is Status.INFEASIBLE


def random_lp(rng):
    n = rng.randint(1, 4)
    variables = [f"x{i}" for i in range(n)]
    lp = LinearProgram()
    for v in variables:
        lp.add_variable(v, F(0), F(1))
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = {}
        for v in variables:
            if rng.random() < 0.7:
                coeffs[v] = F(rng.randint(-3, 3))
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            continue
        rhs = F(rng.randint(-3, 3), rng.randint(1, 3))
        lp.add_constraint(coeffs, rhs)
        rows.append((coeffs, rhs))
    objective = {v: F(rng.randint(0, 3)) for v in variables}
    lp.objective = {v: c for v, c in objective.items() if c != 0}
    # oracle rows: constraints plus the box faces
    for v in variables:
        rows.append(({v: F(1)}, F(0)))
        rows.append(({v: F(-1)}, F(-1)))
    return lp, variables, rows


class TestOracleAgreement:
    def test_simplex_matches_vertex_enumeration(self):
        rng = random.Random(2024)
        optimal = infeasible = 0
        for _ in range(250):
            lp, variables, rows = random_lp(rng)
            status, value = brute_force_lp(variables, rows, lp.objective)
            sol = solve(lp)
            if status == "infeasible":
                infeasible += 1
                assert sol.status is Status.INFEASIBLE
            else:
                optimal += 1
                assert sol.status is Status.OPTIMAL
                assert sol.objective_value == value
        assert optimal >= 50 and infeasible >= 20


def _value(objective, assignment):
    return sum((F(c) * assignment[v] for v, c in objective.items()), F(0))


def _compare_staged(lp, secondary):
    """Check status and both stage values against the two-solve oracle.

    Returns whether the result is optimal and whether its vertex differs
    from the oracle's (both are then optimal for both stages)."""
    staged = solve(lp, secondary)
    reference = two_solve_lexicographic(lp, secondary)
    assert staged.status is reference.status
    if not staged.optimal:
        return False, False
    assert staged.objective_value == reference.objective_value == _value(lp.objective, staged.assignment)
    assert _value(secondary, staged.assignment) == _value(secondary, reference.assignment)
    return True, staged.assignment != reference.assignment


class TestStagedObjectives:
    """Stage two runs on stage one's tableau and agrees with re-solving a pinned copy."""

    def test_one_tableau_per_staged_solve(self, monkeypatch):
        built = []

        class Counted(lp_module._Tableau):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(lp_module, "_Tableau", Counted)
        # a + b >= 1 with an indifferent primary: stage one stops at a = 1,
        # stage two must pivot over to b = 1
        lp = lp_with(["a", "b"], [({"a": 1, "b": 1}, F(1))], {})
        assert solve(lp).assignment == {"a": F(1), "b": F(0)}
        built.clear()
        sol = solve(lp, {"a": F(1)})
        assert sol.assignment == {"a": F(0), "b": F(1)}
        assert len(built) == 1

    def test_random_lps_with_fixings(self):
        rng = random.Random(4242)
        draws = optimal_with_fixings = differing = 0
        while draws < 3000:
            lp, _, secondary = random_fixed_lp(rng)
            feasible, differs = _compare_staged(lp, secondary)
            optimal_with_fixings += feasible and bool(lp.fixings)
            differing += differs
            draws += 1
        assert optimal_with_fixings >= 500
        # two optimal vertices are both right; many would mean the tie-break drifted
        assert differing <= draws // 100

    def test_existential_preferred_model_lps(self):
        draws = with_secondary = differing = 0
        for lp, secondary in existential_lps(random.Random(5151), [F(1), F(4, 5)], 3000):
            feasible, differs = _compare_staged(lp, secondary)
            with_secondary += feasible and bool(secondary)
            differing += differs
            draws += 1
        assert with_secondary >= 1000
        assert differing <= draws // 100


def random_fixed_lp(rng):
    """random_lp with some variables fixed and a secondary on every variable;
    the oracle rows carry the fixings as pairs of opposite rows."""
    lp, variables, rows = random_lp(rng)
    for v in variables:
        if rng.random() < 0.3:
            lp.fix(v, F(rng.randint(0, 4), 4))
            rows += [({v: F(1)}, lp.fixings[v]), ({v: F(-1)}, -lp.fixings[v])]
    return lp, rows, {v: F(rng.randint(-2, 2)) for v in variables}


def redundant_lp(rng):
    """random_fixed_lp with every oracle row as a constraint (so the box
    faces and fixings repeat), scaled copies of some rows, and equality
    pairs through one grid point of the box: redundant rows that leave
    artificials basic at 0 after phase 1."""
    lp, rows, secondary = random_fixed_lp(rng)
    variables = lp.variables
    point = {v: lp.fixings.get(v, F(rng.randint(0, 4), 4)) for v in variables}
    for _ in range(rng.randint(1, 3)):
        coeffs = {v: F(rng.randint(-2, 2)) for v in variables if rng.random() < 0.7}
        coeffs = {v: c for v, c in coeffs.items() if c != 0} or {variables[0]: F(1)}
        rhs = _value(coeffs, point)
        rows += [(coeffs, rhs), ({v: -c for v, c in coeffs.items()}, -rhs)]
    for coeffs, rhs in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
        scale = F(rng.randint(1, 3))
        rows.append(({v: scale * c for v, c in coeffs.items()}, scale * rhs))
    lp.constraints = []
    for coeffs, rhs in rows:
        lp.add_constraint(coeffs, rhs)
    return lp, rows, secondary


def existential_instances(rng, ks, count):
    """Weakly acyclic random existential programs over four uncertain facts."""
    facts = [atom("p", "a"), atom("q", "b"), atom("r", "a", "b"), atom("s", "a")]
    while count:
        program = random_existential_program(rng)
        if not is_weakly_acyclic_ve(program)[0]:
            continue
        tau = FuzzyDatabase({a: random_degree(rng) for a in facts})
        yield Instance(program, tau, rng.choice(ks))
        count -= 1


def existential_lps(rng, ks, count):
    """Labelled `eoptk_columns` LPs of weakly acyclic random existential programs."""
    for instance in existential_instances(rng, ks, count):
        chase = oblivious_chase(instance.program, set(instance.database.entries))
        yield eoptk_columns(instance, chase).labelled()


def singleton_lp(rng):
    """A small LP of mostly single-variable rows, with both coefficient
    signs and often several rows on one variable. One variable may have no
    upper bound except a negative-coefficient row; a row pair may pin a
    variable to one value (folded lo == hi); the folded bounds may cross
    (infeasible). Up to two rows over several variables, some fixings and
    a secondary ride along. The oracle rows list the box faces, every
    constraint and the fixings as pairs of opposite rows."""
    variables = [f"x{i}" for i in range(rng.randint(1, 4))]
    uncapped = rng.choice(variables) if rng.random() < 0.4 else None
    lp = LinearProgram()
    rows = []
    for v in variables:
        lp.add_variable(v, F(0), None if v == uncapped else F(1))
        rows.append(({v: F(1)}, F(0)))
        if v != uncapped:
            rows.append(({v: F(-1)}, F(-1)))
    constraints = []
    for _ in range(rng.randint(1, 5)):
        a = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        at = F(rng.randint(-1, 3) if a > 0 else rng.randint(1, 5), 4)
        constraints.append(({rng.choice(variables): a}, a * at))
    if uncapped:
        a = F(-rng.randint(1, 3))
        constraints.append(({uncapped: a}, a * F(rng.randint(0, 6), 4)))
    if rng.random() < 0.3:
        v, at = rng.choice(variables), F(rng.randint(0, 4), 4)
        constraints += [({v: F(2)}, 2 * at), ({v: F(-1)}, -at)]
    for _ in range(rng.randint(0, 2)):
        coeffs = {v: F(rng.randint(-3, 3)) for v in variables if rng.random() < 0.7}
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if coeffs:
            constraints.append((coeffs, F(rng.randint(-3, 3), rng.randint(1, 3))))
    rng.shuffle(constraints)
    for coeffs, rhs in constraints:
        lp.add_constraint(coeffs, rhs)
    rows += constraints
    lp.objective = {v: c for v in variables if (c := F(rng.randint(0, 3)))}
    for v in variables:
        if rng.random() < 0.2:
            lp.fix(v, F(rng.randint(0, 4), 4))
            rows += [({v: F(1)}, lp.fixings[v]), ({v: F(-1)}, -lp.fixings[v])]
    return lp, rows, {v: F(rng.randint(-2, 2)) for v in variables}


def bounded_lp(rng):
    """A small LP whose upper bounds bind: caps in {1/2, 1, 2, None}, lower
    bounds 0 or 1/4, objectives and secondaries mostly negative, and rows
    through a corner with some variables at their caps, so that steps tie
    at an upper bound. An uncapped variable is held by a row over two
    variables, so it keeps an uncapped column. The oracle rows list the box
    faces, every constraint and the fixings as pairs of opposite rows."""
    variables = [f"x{i}" for i in range(rng.randint(2, 4))]
    lp = LinearProgram()
    rows, constraints, corner = [], [], {}
    for v in variables:
        lo, hi = rng.choice([F(0), F(0), F(1, 4)]), rng.choice([F(1, 2), F(1), F(2), None])
        lp.add_variable(v, lo, hi)
        rows.append(({v: F(1)}, lo))
        if hi is None:
            other = rng.choice([w for w in variables if w != v])
            constraints.append(({v: F(-1), other: F(-rng.randint(1, 2))}, -F(rng.randint(2, 6), 2)))
        else:
            rows.append(({v: F(-1)}, -hi))
        corner[v] = hi if hi is not None and rng.random() < 0.6 else lo
    for _ in range(rng.randint(1, 2)):
        coeffs = {v: c for v in variables if (c := F(rng.randint(-2, 2)))}
        if coeffs:
            rhs = _value(coeffs, corner)
            constraints.append((coeffs, rhs))
            if rng.random() < 0.3:
                constraints.append(({v: -c for v, c in coeffs.items()}, -rhs))
    for _ in range(rng.randint(0, 2)):
        coeffs = {v: c for v in variables if rng.random() < 0.7 and (c := F(rng.randint(-3, 3)))}
        if coeffs:
            constraints.append((coeffs, F(rng.randint(-3, 3), rng.randint(1, 3))))
    rows += constraints
    for coeffs, rhs in constraints:
        lp.add_constraint(coeffs, rhs)
    lp.objective = {v: c for v in variables if (c := F(rng.randint(-3, 2)))}
    for v in variables:
        if rng.random() < 0.15:
            lo, hi = lp.bounds[v]
            lp.fix(v, lo + F(rng.randint(0, 4), 4) * ((hi if hi is not None else 1) - lo))
            rows += [({v: F(1)}, lp.fixings[v]), ({v: F(-1)}, -lp.fixings[v])]
    return lp, rows, {v: F(rng.randint(-3, 1)) for v in variables}


MIXED_DENOMINATORS = (1, 3, 7, 12)


def mixed_denominator_lp(rng):
    """A small LP whose coefficients, right-hand sides, bounds and fixings
    are built from denominators 3, 7 and 12 (a row over all three scales
    by 84), with coefficients of both signs and some uncapped variables.
    Every uncapped variable is held by a row with a negative coefficient
    on it, so no objective is unbounded. The oracle rows list the box
    faces, every constraint and the fixings as pairs of opposite rows."""

    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice(MIXED_DENOMINATORS))

    variables = [f"x{i}" for i in range(rng.randint(2, 4))]
    lp = LinearProgram()
    rows, constraints, inner = [], [], {}
    for v in variables:
        lo = q(0, 3)
        hi = None if rng.random() < 0.3 else lo + q(1, 7)
        lp.add_variable(v, lo, hi)
        rows.append(({v: F(1)}, lo))
        if hi is not None:
            rows.append(({v: F(-1)}, -hi))
        inner[v] = lo + q(0, 4) * ((hi - lo) if hi is not None else 1) / 4
    for v in variables:
        if lp.bounds[v][1] is None:
            other = rng.choice([w for w in variables if w != v])
            coeffs = {v: -q(1, 7), other: -q(0, 7)}
            constraints.append((coeffs, _value(coeffs, inner) - q(0, 12)))
    # rows through or beside a point of the box: most keep it, some cut it off
    for _ in range(rng.randint(1, 4)):
        coeffs = {v: c for v in variables if rng.random() < 0.7 and (c := q(-7, 7))}
        if coeffs:
            constraints.append((coeffs, _value(coeffs, inner) + q(-6, 3)))
    rows += constraints
    for coeffs, rhs in constraints:
        lp.add_constraint(coeffs, rhs)
    lp.objective = {v: c for v in variables if (c := q(-3, 3))}
    for v in variables:
        if rng.random() < 0.2:
            lo, hi = lp.bounds[v]
            lp.fix(v, lo + q(0, 4) * ((hi - lo) if hi is not None else 1) / 4)
            rows += [({v: F(1)}, lp.fixings[v]), ({v: F(-1)}, -lp.fixings[v])]
    return lp, rows, {v: q(-3, 3) for v in variables}


def _enumerate_vertices(lp, rows):
    """brute_force_lp over the free variables, with the fixings substituted."""
    fixed = lp.fixings
    free = [v for v in lp.variables if v not in fixed]
    reduced = []
    for coeffs, rhs in rows:
        rhs -= _value({v: c for v, c in coeffs.items() if v in fixed}, fixed)
        reduced.append(({v: c for v, c in coeffs.items() if v not in fixed}, rhs))
    if any(not coeffs and rhs > 0 for coeffs, rhs in reduced):
        return "infeasible", None
    reduced = [(coeffs, rhs) for coeffs, rhs in reduced if coeffs]
    status, value = brute_force_lp(free, reduced, {v: c for v, c in lp.objective.items() if v not in fixed})
    if value is not None:
        value += _value({v: c for v, c in lp.objective.items() if v in fixed}, fixed)
    return status, value


class TestReferenceSolver:
    """The stage loop against the solver it replaced, which drove basic
    artificials out after phase 1 and deactivated redundant rows."""

    @staticmethod
    def _compare(lp, secondary):
        """Same status and stage values; returns whether the vertices differ."""
        sol, ref = solve(lp, secondary), reference_solve(lp, secondary)
        assert sol.status is ref.status
        assert sol.objective_value == ref.objective_value
        if not sol.optimal:
            return False
        assert _value(secondary, sol.assignment) == _value(secondary, ref.assignment)
        return sol.assignment != ref.assignment

    def _run(self, draw, seed):
        """3,000 draws; every 20th has no secondary and is also checked
        against vertex enumeration. Returns the number of differing vertices."""
        rng = random.Random(seed)
        differing = 0
        for i in range(3000):
            lp, rows, secondary = draw(rng)
            if i % 20 == 0:
                secondary = {}
                sol = solve(lp)
                assert (sol.status.value, sol.objective_value) == _enumerate_vertices(lp, rows)
            differing += self._compare(lp, secondary)
        return differing

    def test_random_lps_with_fixings(self):
        assert self._run(random_fixed_lp, 7373) <= 30

    def test_redundant_rows_and_equalities(self, monkeypatch):
        drive_outs = []

        class Counted(helpers._Tableau):
            def pivot(self, rid, col, z_row):
                drive_outs.append(not z_row)  # the simplex only pivots on a nonempty z-row
                return super().pivot(rid, col, z_row)

            def drop_row(self, rid):
                drive_outs.append(True)
                super().drop_row(rid)

        monkeypatch.setattr(helpers, "_Tableau", Counted)
        assert self._run(redundant_lp, 7474) <= 30
        assert sum(drive_outs) >= 300

    def test_existential_preferred_model_lps(self):
        draws = existential_lps(random.Random(7575), [F(1), F(4, 5), F(1, 2)], 3000)
        assert sum(self._compare(lp, secondary) for lp, secondary in draws) <= 30

    def test_binding_upper_bounds(self, monkeypatch):
        steps = Counter()

        class Counted(lp_module._Tableau):
            def complement(self, col, z_row):
                assert self.upper[col] > 0  # pinned variables get no column
                steps["leave at upper" if col in self.basis else "flip"] += 1
                super().complement(col, z_row)

        monkeypatch.setattr(lp_module, "_Tableau", Counted)
        assert self._run(bounded_lp, 7777) <= 30
        assert steps["flip"] >= 300 and steps["leave at upper"] >= 300

    def test_single_variable_rows(self):
        rng = random.Random(7676)
        statuses = Counter(solve(singleton_lp(rng)[0]).status for _ in range(300))
        assert statuses[Status.OPTIMAL] >= 100 and statuses[Status.INFEASIBLE] >= 30
        assert self._run(singleton_lp, 7676) <= 30

    def test_mixed_denominators(self):
        rng = random.Random(7878)
        statuses = Counter(solve(mixed_denominator_lp(rng)[0]).status for _ in range(300))
        assert statuses[Status.OPTIMAL] >= 100 and statuses[Status.INFEASIBLE] >= 30
        assert self._run(mixed_denominator_lp, 7878) <= 30


def _traced(monkeypatch, module, name):
    """Replace module.name, a tableau class, by a subclass that logs every
    pivot and complement; returns the log."""
    log = []

    class Traced(getattr(module, name)):
        def pivot(self, rid, col, z_row):
            log.append(("pivot", rid, col))
            super().pivot(rid, col, z_row)

        def complement(self, col, z_row):
            log.append(("flip", col))
            super().complement(col, z_row)

    monkeypatch.setattr(module, name, Traced)
    return log


class TestFractionSolver:
    """`solve` against the name-keyed Fraction solver it replaced: the
    same Bland pivots, so the same Solution, assignment and all."""

    def _run(self, monkeypatch, draws):
        ours = _traced(monkeypatch, lp_module, "_Tableau")
        theirs = _traced(monkeypatch, helpers, "_BoundedTableau")
        statuses = Counter()
        for lp, secondary in draws:
            sol, ref = solve(lp, secondary), fraction_solve(lp, secondary)
            assert sol == ref and list(sol.assignment) == list(ref.assignment)
            assert all(type(v) is Fraction for v in (*sol.assignment.values(), sol.objective_value or F(0)))
            assert ours == theirs
            statuses[sol.status] += 1
            ours.clear()
            theirs.clear()
        return statuses

    @staticmethod
    def _draws(draw, seed, count=1000):
        rng = random.Random(seed)
        for _ in range(count):
            lp, _, secondary = draw(rng)
            yield lp, secondary

    def test_random_lps_with_fixings(self, monkeypatch):
        assert self._run(monkeypatch, self._draws(random_fixed_lp, 8181))[Status.OPTIMAL] >= 300

    def test_redundant_rows_and_equalities(self, monkeypatch):
        assert self._run(monkeypatch, self._draws(redundant_lp, 8282))[Status.OPTIMAL] >= 300

    def test_existential_preferred_model_lps(self, monkeypatch):
        draws = existential_lps(random.Random(8383), [F(1), F(4, 5), F(1, 2)], 1000)
        assert self._run(monkeypatch, draws)[Status.OPTIMAL] >= 500

    def test_binding_upper_bounds(self, monkeypatch):
        assert self._run(monkeypatch, self._draws(bounded_lp, 8484))[Status.OPTIMAL] >= 300

    def test_single_variable_rows(self, monkeypatch):
        statuses = self._run(monkeypatch, self._draws(singleton_lp, 8585))
        assert statuses[Status.OPTIMAL] >= 300 and statuses[Status.INFEASIBLE] >= 100

    def test_mixed_denominators(self, monkeypatch):
        statuses = self._run(monkeypatch, self._draws(mixed_denominator_lp, 8686))
        assert statuses[Status.OPTIMAL] >= 300 and statuses[Status.INFEASIBLE] >= 100


class TestColumnRoute:
    """`Engine.model` solves the column LP of `eoptk_columns`; naming its
    columns changes nothing. It has the status, the degrees and the Bland
    pivots of `solve` on its `.labelled()` form read back by name, and of
    the name-keyed Fraction solver."""

    def _run(self, monkeypatch, instances):
        ours = _traced(monkeypatch, lp_module, "_Tableau")
        theirs = _traced(monkeypatch, helpers, "_BoundedTableau")
        statuses = Counter()
        for instance in instances:
            engine = Engine(instance, use_fast_path=False)
            try:
                model, status = engine.model.assignment, Status.OPTIMAL
            except NoObliviousBaseModel:  # Unsatisfiable included
                model, status = None, Status.INFEASIBLE
            by_column = list(ours)
            ours.clear()
            columns = eoptk_columns(instance, engine.chase)
            lp, secondary = columns.labelled()
            named = lp_module._Columns(lp, secondary)
            assert (named.bounds, named.fixed, named.rows) == (columns.bounds, columns.fixed, columns.rows)
            assert (named.objective, named.secondary) == (columns.objective, columns.secondary)
            assert named.names == [str(a) for a in columns.names]
            sol, ref = solve(lp, secondary), fraction_solve(lp, secondary)
            assert sol.status is ref.status is status
            assert ours == theirs == by_column
            if model is not None:
                for a in columns.names:
                    assert model(a) == sol.assignment[str(a)] == ref.assignment[str(a)]
            statuses[status] += 1
            ours.clear()
            theirs.clear()
        return statuses

    def test_existential_programs(self, monkeypatch):
        instances = existential_instances(random.Random(9191), [F(1), F(4, 5), F(1, 2)], 2000)
        statuses = self._run(monkeypatch, instances)
        assert statuses[Status.OPTIMAL] >= 1000 and statuses[Status.INFEASIBLE] >= 60

    def test_plain_programs(self, monkeypatch):
        rng = random.Random(9292)
        statuses = self._run(monkeypatch, (random_instance(rng) for _ in range(1000)))
        assert statuses[Status.OPTIMAL] >= 500 and statuses[Status.INFEASIBLE] >= 200


class TestAudit:
    """The integer audit rejects a point that misses a row, a bound or a
    fixing by the smallest step the data allows."""

    @staticmethod
    def _columns():
        # x/7 + y/12 - z/3 >= 7/36 scales by 252; z is fixed at 5/12
        lp = lp_with(["x", "y", "z"], [({"x": F(1, 7), "y": F(1, 12), "z": F(-1, 3)}, F(7, 36))], {"x": 1})
        lp.bounds["x"] = (F(0), F(3))
        lp.bounds["y"] = (F(0), None)
        lp.fix("z", F(5, 12))
        return lp_module._Columns(lp)

    def test_feasible_point_passes(self):
        p, d = lp_module._audit(self._columns(), [F(3), F(0), F(5, 12)])
        assert d == 12 and p == [36, 0, 5]

    def test_row_short_by_one_84th(self):
        # 9/28 - 5/36 = 23/126, 1/84 below 7/36
        with pytest.raises(AssertionError, match="constraint violated by 1/84"):
            lp_module._audit(self._columns(), [F(9, 4), F(0), F(5, 12)])

    def test_bound_exceeded(self):
        with pytest.raises(AssertionError, match="violates bounds"):
            lp_module._audit(self._columns(), [F(3) + F(1, 84), F(0), F(5, 12)])

    def test_fixing_moved(self):
        with pytest.raises(AssertionError, match="fixing of z not honoured"):
            lp_module._audit(self._columns(), [F(3), F(0), F(5, 12) - F(1, 84)])


KEY_PERSONS = """
company(acme). company(bolt). company(cask).
0.8 :: kp(amy, acme).
0.3 :: kp(bob, bolt).
0.4 :: kp(bea, bolt).
kp(Y, X) :- company(X).
person(Y) :- kp(Y, X).
"""


class TestBoundFolding:
    """A row with one free variable, after fixings, becomes a bound."""

    def test_key_person_lp_adds_no_single_variable_row(self, monkeypatch):
        added = []

        class Counted(lp_module._Tableau):
            def add_ge(self, coeffs, rhs):
                added.append(dict(coeffs))
                super().add_ge(coeffs, rhs)

        monkeypatch.setattr(lp_module, "_Tableau", Counted)
        program, tau = parse(KEY_PERSONS)
        chase = oblivious_chase(program, set(tau.entries))
        lp, secondary = eoptk_columns(Instance(program, tau, F(1)), chase).labelled()
        width = Counter(sum(v not in lp.fixings for v in c.coeffs) for c in lp.constraints)
        assert width[1] >= 5 and width[2] >= 1
        assert solve(lp, secondary).optimal
        # only the rows over two or more free variables: the [0,1] boxes are column bounds
        assert len(added) == len(lp.constraints) - width[0] - width[1]

    def test_uncapped_variable_capped_by_a_row(self):
        # x has no upper bound but -2x >= -3
        rows = [({"x": -2}, F(-3)), ({"x": 1, "y": 1}, F(2))]
        lp = lp_with(["x", "y"], rows, {"y": 1}, bounds={"x": (F(0), None)})
        sol = solve(lp)
        assert sol.assignment == {"x": F(3, 2), "y": F(1, 2)} and sol.objective_value == F(1, 2)

    def test_crossing_bounds_are_infeasible(self, monkeypatch):
        class Unused(lp_module._Tableau):
            def add_ge(self, coeffs, rhs):
                raise AssertionError("crossing bounds need no phase 1")

        monkeypatch.setattr(lp_module, "_Tableau", Unused)
        # x >= 1/2 and x <= 1/4
        rows = [({"x": 2}, F(1)), ({"x": -4}, F(-1)), ({"x": 1, "y": 1}, F(0))]
        lp = lp_with(["x", "y"], rows, {"x": 1})
        assert solve(lp).status is Status.INFEASIBLE

    def test_pinned_variable(self, monkeypatch):
        built = []

        class Counted(lp_module._Tableau):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(lp_module, "_Tableau", Counted)
        # x >= 1/3 and x <= 1/3 fold to lo == hi
        rows = [({"x": 3}, F(1)), ({"x": -1}, F(-1, 3)), ({"x": 1, "y": -1}, F(0))]
        lp = lp_with(["x", "y"], rows, {"y": -1})
        assert solve(lp).assignment == {"x": F(1, 3), "y": F(1, 3)}
        # x is a constant with no column: y's capped column and the slack of
        # x - y >= 0, which reads 1/3 - y >= 0
        (tab,) = built
        assert tab.ncols == 2 and tab.upper == {0: F(1)}
