"""Exact-rational linear programming.

A self-contained simplex over `fractions.Fraction` with Bland's
anti-cycling rule. Floating point is deliberately avoided: the reasoning
layer turns optima into yes/no decisions and needs exact arithmetic.

Models are small structured objects: box-bounded variables, optional
exact fixings, and >=-constraints. `solve` reads the model in one pass:
fixings fold into the right-hand sides, and a row left with one free
variable folds into that variable's bounds. The other rows go into one
sparse tableau, the variables shifted to start at their folded lower
bounds and their upper bounds kept on the columns, not as rows (Dantzig's
bounded-variable simplex, Econometrica 1955). `solve` minimizes on it, in
turn, phase 1's artificials, the objective and optionally a secondary
objective, each stage over the optima of the stages before it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class MalformedModel(ValueError):
    """Inconsistent model data (unknown variables, fixing outside bounds, ...)."""


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


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
        self.constraints.append(
            Constraint({v: _exact(c) for v, c in coeffs.items() if c != 0}, _exact(rhs))
        )

    def validate(self, secondary: Iterable[str] = ()) -> None:
        declared = set(self.bounds)
        if len(self.variables) != len(declared):
            raise MalformedModel("variable list and bounds disagree")
        for lo, hi in self.bounds.values():
            if hi is not None and lo > hi:
                raise MalformedModel("lower bound above upper bound")
        for name, value in self.fixings.items():
            if name not in declared:
                raise MalformedModel(f"fixing of undeclared variable {name!r}")
            lo, hi = self.bounds[name]
            if value < lo or (hi is not None and value > hi):
                raise MalformedModel(f"fixed value {value} of {name!r} outside bounds")
        for c in self.constraints:
            for v in c.coeffs:
                if v not in declared:
                    raise MalformedModel(f"constraint references undeclared variable {v!r}")
        for v in (*self.objective, *secondary):
            if v not in declared:
                raise MalformedModel(f"objective references undeclared variable {v!r}")


@dataclass(frozen=True)
class Solution:
    status: Status
    assignment: dict[str, Fraction]
    objective_value: Optional[Fraction]

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


class _Tableau:
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


def _simplex_loop(tab: _Tableau, z_row: dict[int, Fraction]) -> bool:
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


def solve(lp: LinearProgram, secondary: Optional[Mapping[str, Fraction]] = None) -> Solution:
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
    lp.validate(secondary)
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
    tab = _Tableau()
    var_col = {v: tab.new_column() for v, (lo, hi) in bounds.items() if lo != hi}
    tab.upper = {col: bounds[v][1] - bounds[v][0] for v, col in var_col.items() if bounds[v][1] is not None}
    for coeffs, rhs in rows:
        rhs -= sum((a * bounds[v][0] for v, a in coeffs.items()), ZERO)
        tab.add_ge({var_col[v]: a for v, a in coeffs.items() if v in var_col}, rhs)

    phase1 = {a: ONE for a in tab.artificials}
    primary = {var_col[v]: c for v, c in lp.objective.items() if v in var_col and c != 0}
    staged = {var_col[v]: _exact(c) for v, c in secondary.items() if v in var_col and c != 0}
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
        if not _simplex_loop(tab, z_row):
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
    _audit(lp, assignment)
    return Solution(Status.OPTIMAL, assignment, objective_value)


def _audit(lp: LinearProgram, assignment: dict[str, Fraction]) -> None:
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


def lexicographic_solve(lp: LinearProgram, secondary: Mapping[str, Fraction]) -> Solution:
    """Optimize lp's objective, then minimize `secondary` among its optima.

    The returned solution carries the primary objective value; its
    assignment is the stage-two optimum.
    """
    return solve(lp, secondary)
