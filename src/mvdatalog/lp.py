"""Exact-rational linear programming.

A self-contained simplex with Bland's anti-cycling rule over exact
rationals: Python `int`s where a value is whole, `fractions.Fraction`
elsewhere, and no floating point anywhere. The reasoning layer turns
optima into yes/no decisions and needs exact arithmetic.

`solve` runs on a `ColumnProgram`: integer columns with bounds and
optional exact fixings, rows of `int`s (each >=-constraint scaled by the
lcm of its denominators), an objective and a secondary objective. The
engine builds its LP in this form; a `LinearProgram`, the same data over
named `Fraction`s, is numbered into it by `_Columns` in declaration
order, and its answer is named again. The model checks, the fold and the
final audit run on the int rows: fixings fold into the right-hand sides,
and a row left with one free variable folds into that variable's bounds.
The other rows go into one sparse tableau, the variables shifted to
start at their folded lower bounds and their upper bounds kept on the
columns, not as rows (Dantzig's bounded-variable simplex, Econometrica
1955). `solve` minimizes on it, in turn, phase 1's artificials, the
objective and the secondary objective, each stage over the optima of the
stages before it. Bland's entering column is the top of a min-heap of
the columns whose reduced cost is negative, kept up to date by the
pivots. The optimum is re-checked against every original row, bound and
fixing in `int` arithmetic, over the point's common denominator.
"""

from __future__ import annotations

import enum
import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence, Union

from .core import Value, _set

ZERO = Fraction(0)
ONE = Fraction(1)

Rational = Union[int, Fraction]


def _exact(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _less(a: Rational, b: Rational) -> bool:
    """a < b, cross-multiplied in ints."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def _take(n: int, d: int, a: int, x: Rational) -> tuple[int, int]:
    """n/d - a*x as a numerator over a denominator d grows into, in ints."""
    xd = x.denominator
    if d % xd:
        grow = xd // gcd(d, xd)
        n *= grow
        d *= grow
    return n - a * x.numerator * (d // xd), d


def _quotient(n: Rational, d: Rational) -> Rational:
    """n / d exactly; an int when both are ints and d divides n."""
    if type(n) is int and type(d) is int:
        q, r = divmod(n, d)
        return Fraction(n, d) if r else q
    return n / d


class MalformedModel(ValueError):
    """Inconsistent model data (unknown variables, fixing outside bounds, ...)."""


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Constraint(Value):
    """sum(coeffs[v] * v) >= rhs"""

    _fields = ("coeffs", "rhs")

    def __init__(self, coeffs: dict[str, Fraction], rhs: Fraction) -> None:
        _set(self, "coeffs", coeffs)
        _set(self, "rhs", rhs)


class LinearProgram(Value):
    """A mutable LP over named variables, built by the methods below; a
    field left out starts empty."""

    _fields = ("variables", "bounds", "fixings", "constraints", "objective")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self,
        variables: Optional[list[str]] = None,
        bounds: Optional[dict[str, tuple[Fraction, Optional[Fraction]]]] = None,
        fixings: Optional[dict[str, Fraction]] = None,
        constraints: Optional[list[Constraint]] = None,
        objective: Optional[dict[str, Fraction]] = None,
    ) -> None:
        self.variables = [] if variables is None else variables
        self.bounds = {} if bounds is None else bounds
        self.fixings = {} if fixings is None else fixings
        self.constraints = [] if constraints is None else constraints
        self.objective = {} if objective is None else objective

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
        """Add sum(coeffs) >= rhs; a coefficient equal to 0, in any
        spelling, is left out."""
        self.constraints.append(
            Constraint({v: a for v, c in coeffs.items() if (a := _exact(c))}, _exact(rhs))
        )


class ColumnProgram(Value):
    """An LP over integer columns 0..n-1, n = len(bounds): column j lies
    in bounds[j] = (lo, hi or None), is pinned at fixed[j] when set and is
    labelled names[j]. A row (coeffs, rhs, scale) of ints is a constraint
    times `scale`; costs map columns to ints or Fractions. `check` raises
    MalformedModel on inconsistent data. Mutable, as `LinearProgram` is."""

    _fields = ("bounds", "fixed", "rows", "objective", "secondary", "names")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self,
        bounds: list[tuple[Fraction, Optional[Fraction]]],
        fixed: dict[int, Fraction],
        rows: list[tuple[dict[int, int], int, int]],
        objective: dict[int, Rational],
        secondary: dict[int, Rational],
        names: Sequence,
    ) -> None:
        self.bounds = bounds
        self.fixed = fixed
        self.rows = rows
        self.objective = objective
        self.secondary = secondary
        self.names = names

    def check(self) -> None:
        n = len(self.bounds)
        for used in (self.fixed, *(row for row, _, _ in self.rows), self.objective, self.secondary):
            if used and (min(used) < 0 or max(used) >= n):
                raise MalformedModel(f"reference to a column outside 0..{n - 1}")
        for lo, hi in self.bounds:
            if hi is not None and _less(hi, lo):
                raise MalformedModel("lower bound above upper bound")
        for j, value in self.fixed.items():
            lo, hi = self.bounds[j]
            if _less(value, lo) or (hi is not None and _less(hi, value)):
                raise MalformedModel(f"fixed value {value} of {self.names[j]!r} outside bounds")

    def labelled(self) -> tuple[LinearProgram, dict[str, Fraction]]:
        """The same LP and secondary objective over names: column j is str(names[j])."""
        names = [str(v) for v in self.names]
        fixings, objective, secondary = ({names[j]: _exact(c) for j, c in m.items()} for m in (
            self.fixed, self.objective, self.secondary))
        rows = [Constraint({names[j]: Fraction(a, s) for j, a in row.items()}, Fraction(rhs, s))
                for row, rhs, s in self.rows]
        return LinearProgram(names, dict(zip(names, self.bounds)), fixings, rows, objective), secondary


def _Columns(lp: LinearProgram, secondary: Optional[Mapping[str, Fraction]] = None) -> ColumnProgram:
    """`lp` over integer columns, column j = lp.variables[j], each row
    scaled by the lcm of its denominators; zero costs are left out."""
    index = {v: j for j, v in enumerate(lp.variables)}
    if len(index) != len(lp.variables) or index.keys() != lp.bounds.keys():
        raise MalformedModel("variable list and bounds disagree")
    for use, names in (("fixing of", lp.fixings), ("objective references", [*lp.objective, *(secondary or ())])):
        for ghost in (v for v in names if v not in index):
            raise MalformedModel(f"{use} undeclared variable {ghost!r}")
    rows = []
    for c in lp.constraints:
        scale = lcm(c.rhs.denominator, *[a.denominator for a in c.coeffs.values()])
        try:
            row = {index[v]: a.numerator * (scale // a.denominator) for v, a in c.coeffs.items()}
        except KeyError as exc:
            raise MalformedModel(f"constraint references undeclared variable {exc.args[0]!r}") from None
        rows.append((row, c.rhs.numerator * (scale // c.rhs.denominator), scale))
    costs = [{index[v]: _exact(c) for v, c in cost.items() if c} for cost in (lp.objective, secondary or {})]
    fixed = {index[v]: value for v, value in lp.fixings.items()}
    return ColumnProgram([lp.bounds[v] for v in lp.variables], fixed, rows, *costs, lp.variables)


def _audit(cols: ColumnProgram, values: Mapping[int, Rational]) -> tuple[list[int], int]:
    """Exact feasibility re-check of a claimed-optimal point, by column.

    With d the common denominator of the point's values and p[j]
    column j's value times d, every original row, bound and fixing is an
    inequality between ints. Returns (p, d).
    """
    point = [_exact(values[j]) for j in range(len(cols.bounds))]
    d = lcm(*[x.denominator for x in point])
    p = [x.numerator * (d // x.denominator) for x in point]
    for j, (lo, hi) in enumerate(cols.bounds):
        if p[j] * lo.denominator < lo.numerator * d or (
            hi is not None and p[j] * hi.denominator > hi.numerator * d
        ):
            raise AssertionError(f"solver bug: {cols.names[j]} = {point[j]} violates bounds")
    for j, value in cols.fixed.items():
        if p[j] * value.denominator != value.numerator * d:
            raise AssertionError(f"solver bug: fixing of {cols.names[j]} not honoured")
    for row, rhs, scale in cols.rows:
        short = rhs * d - sum(a * p[j] for j, a in row.items())
        if short > 0:
            raise AssertionError(f"solver bug: constraint violated by {Fraction(short, d * scale)}")
    return p, d


class Solution(Value):
    _fields = ("status", "assignment", "objective_value")

    def __init__(self, status: Status, assignment: dict, objective_value: Optional[Fraction]) -> None:
        _set(self, "status", status)
        _set(self, "assignment", assignment)  # by name, or by column for a ColumnProgram
        _set(self, "objective_value", objective_value)

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


class _ZRow(dict):
    """Column -> nonzero reduced cost, with `heap`, a min-heap that holds
    every column whose cost is negative. Entries are not removed when a
    cost turns non-negative; `entering` discards them lazily."""

    def __init__(self, costs: dict[int, Rational]) -> None:
        super().__init__(costs)
        self.heap = [col for col, z in costs.items() if z.numerator < 0]
        heapq.heapify(self.heap)

    def entering(self) -> Optional[int]:
        """Bland's entering column: the lowest one of negative cost."""
        heap = self.heap
        while heap:
            z = self.get(heap[0])
            if z is not None and z.numerator < 0:
                return heap[0]
            heapq.heappop(heap)
        return None


class _Tableau:
    """Sparse simplex tableau in equational form, 0 <= x_j <= upper.get(j).
    A `flipped` column stands for upper[j] - x_j, so every nonbasic column
    reads 0: at its lower bound or, flipped, at its upper bound."""

    def __init__(self) -> None:
        self.rows: list[dict[int, Rational]] = []
        self.rhs: list[Rational] = []
        self.basis: list[int] = []
        self.col_rows: dict[int, set[int]] = {}
        self.ncols = 0
        self.artificials: list[int] = []
        self.upper: dict[int, Rational] = {}
        self.flipped: set[int] = set()

    def new_column(self) -> int:
        col = self.ncols
        self.ncols += 1
        self.col_rows[col] = set()
        return col

    def add_ge(self, coeffs: dict[int, Rational], rhs: Rational) -> None:
        """Add the row sum(coeffs) >= rhs with a basic slack, or, when the
        all-zero point violates it, a surplus and a basic artificial."""
        if rhs <= 0:
            basic = self.new_column()
            row = {c: -a for c, a in coeffs.items()}
            row[basic] = 1
            rhs = -rhs
        else:
            row = coeffs
            row[self.new_column()] = -1
            basic = self.new_column()
            row[basic] = 1
            self.artificials.append(basic)
        rid = len(self.rows)
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)
        for col in row:
            self.col_rows[col].add(rid)

    def set_entry(self, rid: int, col: int, value: Rational) -> None:
        row = self.rows[rid]
        if value == 0:
            if col in row:
                del row[col]
                self.col_rows[col].discard(rid)
        else:
            if col not in row:
                self.col_rows[col].add(rid)
            row[col] = value

    def pivot(self, rid: int, col: int, z_row: _ZRow) -> None:
        """Make `col` basic in row `rid`, updating the z-row too."""
        row = self.rows[rid]
        pivot = row[col]
        if pivot != 1:
            for c in list(row):
                row[c] = _quotient(row[c], pivot)
            self.rhs[rid] = _quotient(self.rhs[rid], pivot)
        factor = z_row.get(col, 0)
        if factor != 0:
            for c, v in row.items():
                old = z_row.get(c, 0)
                nv = old - factor * v
                if nv == 0:
                    z_row.pop(c, None)
                else:
                    z_row[c] = nv
                    if nv.numerator < 0 <= old.numerator:
                        heapq.heappush(z_row.heap, c)
        for other in list(self.col_rows[col]):
            if other == rid:
                continue
            f = self.rows[other].get(col)
            if f is None or f == 0:
                continue
            for c, v in row.items():
                self.set_entry(other, c, self.rows[other].get(c, 0) - f * v)
            self.rhs[other] -= f * self.rhs[rid]
        self.basis[rid] = col

    def complement(self, col: int, z_row: _ZRow) -> None:
        """Substitute upper[col] - x for column `col`; a basic column's row
        is left with coefficient -1 on it, to be pivoted out next."""
        u = self.upper[col]
        for rid in self.col_rows[col]:
            row = self.rows[rid]
            self.rhs[rid] -= row[col] * u
            row[col] = -row[col]
        if col in z_row:
            z_row[col] = -z_row[col]
            if z_row[col].numerator < 0:
                heapq.heappush(z_row.heap, col)
        self.flipped ^= {col}

    def drop_column(self, col: int) -> None:
        for rid in list(self.col_rows.get(col, ())):
            self.rows[rid].pop(col, None)
        self.col_rows.pop(col, None)

    def reduced_costs(self, cost: dict[int, Rational]) -> _ZRow:
        """z-row = cost - cost_B * B^-1 A over the columns still present,
        the cost of a flipped column negated."""
        signed = {col: -c if col in self.flipped else c for col, c in cost.items() if col in self.col_rows}
        z = dict(signed)
        for rid, basic in enumerate(self.basis):
            c_b = signed.get(basic, 0)
            if c_b == 0:
                continue
            for col, v in self.rows[rid].items():
                nv = z.get(col, 0) - c_b * v
                if nv == 0:
                    z.pop(col, None)
                else:
                    z[col] = nv
        return _ZRow(z)

    def values(self) -> dict[int, Rational]:
        """The current basic solution, flips undone; absent columns are 0."""
        x = {col: self.upper[col] for col in self.flipped}
        for rid, b in enumerate(self.basis):
            x[b] = self.upper[b] - self.rhs[rid] if b in self.flipped else self.rhs[rid]
        return x

    def value(self, cost: dict[int, Rational]) -> Rational:
        """The current basic solution's cost."""
        x = self.values()
        return sum(c * x[col] for col, c in cost.items() if col in x)


def _simplex_loop(tab: _Tableau, z_row: _ZRow) -> bool:
    """Bland-rule pivoting; True when optimal, False when unbounded. The
    entering column's step ends where a basic column falls to 0 or reaches
    its upper bound (then it leaves flipped), or at the entering column's
    own bound (a flip, no pivot); ties go to the lowest leaving column."""
    while True:
        entering = z_row.entering()
        if entering is None:
            return True
        cap = tab.upper.get(entering)
        best = None if cap is None else (cap, entering, -1)
        for rid in tab.col_rows[entering]:
            a, basic = tab.rows[rid][entering], tab.basis[rid]
            if a.numerator > 0:
                step = _quotient(tab.rhs[rid], a)
            elif basic in tab.upper:
                step = _quotient(tab.rhs[rid] - tab.upper[basic], a)
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


def solve(lp: Union[LinearProgram, ColumnProgram], secondary: Optional[Mapping[str, Fraction]] = None) -> Solution:
    """Exact optimum of `lp`, or INFEASIBLE / UNBOUNDED.

    With `secondary`, the returned assignment minimizes it among the
    optima of lp's objective; `objective_value` is still the primary one,
    and UNBOUNDED covers either objective; a ColumnProgram carries its own
    secondary, and its assignment is keyed by column. Fixings are
    substituted, and a row a*x >= r left with one free variable tightens
    x's lower bound to r/a (a > 0) or its upper bound to r/a (a < 0) in
    place of a tableau row; crossing bounds are INFEASIBLE, and a variable
    whose folded bounds meet is a constant with no column. Phase 1 adds
    artificials only for rows violated with every variable at its (folded)
    lower bound. The assignment is re-checked against every original row,
    bound and fixing.
    """
    cols = lp if isinstance(lp, ColumnProgram) else _Columns(lp, secondary)
    if cols is lp and secondary is not None:
        raise TypeError("a ColumnProgram carries its own secondary objective")
    cols.check()
    fixed = cols.fixed
    lo = [b[0] for b in cols.bounds]
    hi = [b[1] for b in cols.bounds]
    rows: list[tuple[dict[int, int], int, int, int]] = []
    for row, rhs, scale in cols.rows:
        # substitute the fixings: sum over free columns of row[j] * x_j >= rhs / den
        free: dict[int, int] = {}
        den = 1
        for j, a in row.items():
            if j in fixed:
                rhs, den = _take(rhs, den, a, fixed[j])
            elif a:
                free[j] = a
        if len(free) == 1:
            ((j, a),) = free.items()
            bound = Fraction(rhs, den * a)
            if a > 0:
                if _less(lo[j], bound):
                    lo[j] = bound
            elif hi[j] is None or _less(bound, hi[j]):
                hi[j] = bound
        elif free:
            rows.append((free, rhs, den, scale))
        elif rhs > 0:
            return Solution(Status.INFEASIBLE, {}, None)
    free_cols = [j for j in range(len(lo)) if j not in fixed]
    tab = _Tableau()
    var_col: dict[int, int] = {}
    for j in free_cols:
        if hi[j] is None:
            var_col[j] = tab.new_column()
            continue
        width, den = _take(hi[j].numerator, hi[j].denominator, 1, lo[j])
        if width < 0:  # crossing bounds
            return Solution(Status.INFEASIBLE, {}, None)
        if width:
            var_col[j] = tab.new_column()
            tab.upper[var_col[j]] = _quotient(width, den)
    for free, rhs, den, scale in rows:
        for j, a in free.items():  # shift x_j to start at lo[j]
            rhs, den = _take(rhs, den, a, lo[j])
        tab.add_ge(
            {var_col[j]: _quotient(a, scale) for j, a in free.items() if j in var_col},
            _quotient(rhs, den * scale),
        )

    phase1 = {a: 1 for a in tab.artificials}
    primary = {var_col[j]: c for j, c in cols.objective.items() if j in var_col}
    staged = {var_col[j]: c for j, c in cols.secondary.items() if j in var_col}
    z_row = _ZRow({})
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
    for j in free_cols:
        shift = x.get(var_col.get(j), 0)  # 0 for a variable with no column
        assignment[j] = _exact(lo[j] + shift if shift else lo[j])
    p, d = _audit(cols, assignment)
    scale = lcm(*[c.denominator for c in cols.objective.values()])
    total = sum(c.numerator * (scale // c.denominator) * p[j] for j, c in cols.objective.items())
    if cols is not lp:
        assignment = {cols.names[j]: value for j, value in assignment.items()}
    return Solution(Status.OPTIMAL, assignment, Fraction(total, scale * d))
