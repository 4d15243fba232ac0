"""
The exact rational LP layer
===========================

The engine decides every Horn ground rule, existential ones included,
by a least fixpoint. Only the non-Horn core of an existential program
(rules whose head sum holds two or more atoms the database does not
pin, and the rules they feed) reaches this small linear-programming
module. The full LP over every chase atom is what `mvdl ground` prints
and what `--no-fast-path` solves as the reference route. Models are
named variables with `Fraction` data. `solve(lp, secondary)` is its one entry point: it numbers the
variables as integer columns, scales each row to ints, and runs a
simplex with Bland's rule on one tableau per model, which minimizes
phase 1's artificials, the objective and, when `secondary` is given for
deterministic tie-breaking, that form in turn, each over the optima of
the stages before it. Every value stays an exact rational, and the
optimum is re-checked against every row in int arithmetic. It is usable
on its own.
"""

from fractions import Fraction

from mvdatalog.lp import LinearProgram, solve

F = Fraction

# minimize x + y subject to x + y >= 3/4 and y >= x, inside the unit box
lp = LinearProgram()
lp.add_variable("x", F(0), F(1))
lp.add_variable("y", F(0), F(1))
lp.add_constraint({"x": F(1), "y": F(1)}, F(3, 4))
lp.add_constraint({"y": F(1), "x": F(-1)}, F(0))
lp.objective = {"x": F(1), "y": F(1)}
solution = solve(lp)
print(f"status:    {solution.status.value}")
print(f"optimum:   {solution.objective_value}")
print(f"point:     x={solution.assignment['x']}, y={solution.assignment['y']}")
# Exactness matters: 3/8 + 3/8 is exactly 3/4, with no epsilon anywhere.

# Fixed variables (how database atoms enter the per-model LPs) are folded
# into the right-hand sides as the tableau is built, so a row they violate
# on their own shows up as infeasible before any pivot.
pinned = LinearProgram()
pinned.add_variable("x", F(0), F(1))
pinned.fix("x", F(1, 5))
pinned.add_constraint({"x": F(1)}, F(4, 5))
pinned.objective = {"x": F(1)}
print(f"\npinned below a constraint: {solve(pinned).status.value}")

# Staged objectives: several points minimize the primary objective; the
# secondary form, solve's second argument, picks one of them
# deterministically. Each stage ends by
# dropping the columns with a strictly positive reduced cost, so the next
# one moves over the previous stage's optima only.
tie = LinearProgram()
tie.add_variable("a", F(0), F(1))
tie.add_variable("b", F(0), F(1))
tie.add_constraint({"a": F(1), "b": F(1)}, F(1))  # a + b >= 1
tie.objective = {}  # primary: indifferent
staged = solve(tie, {"a": F(1)})  # then: prefer small a
print(f"\ntie broken toward a=0: a={staged.assignment['a']}, b={staged.assignment['b']}")
