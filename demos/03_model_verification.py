"""
When no well-behaved model exists
=================================

Some instances have fuzzy models, but none whose positive atoms stay
inside the chase. Here the first rule forces p(a, _) to be at least
0.8-true in total, while the second rule caps every single p(a, _) at
t(a) = 0.2. Four separate nulls at 0.2 each would work -- but the chase
only ever invents one.
"""

from fractions import Fraction

from mvdatalog import (
    Atom,
    Constant,
    Instance,
    LabelledNull,
    NoObliviousBaseModel,
    TruthAssignment,
    atom,
    oblivious_chase,
    parse,
    preferred_model,
    verify_model,
)

text = """
0.8 :: s(a).
0.2 :: t(a).
p(X, Y) :- s(X).
t(X) :- p(X, Y).
"""
program, database = parse(text)
instance = Instance(program, database, Fraction(1))

try:
    preferred_model(instance)
except NoObliviousBaseModel as exc:
    print(f"engine answer: {exc}")

# Build the four-null assignment by hand and check it. It satisfies
# every ground rule under strong existential semantics and agrees with
# the database -- it is a genuine 1-fuzzy model -- yet three of its
# nulls live outside the chase limit, so it has no oblivious base.
chase = oblivious_chase(program, set(database.entries))
support = {atom("s", "a"): Fraction(4, 5), atom("t", "a"): Fraction(1, 5)}
for null_id in (1, 2, 3, 4):
    support[Atom("p", (Constant("a"), LabelledNull(null_id)))] = Fraction(1, 5)
report = verify_model(instance, chase, TruthAssignment(support))

print(f"hand-built model satisfies all ground rules: {report.rules_satisfied}")
print(f"hand-built model agrees with the database:   {not report.tau_mismatches}")
print(f"atoms outside the chase limit:               {[str(a) for a in report.outside_base]}")
print(f"accepted as an obliviously-based model:      {report.ok}")
