"""
Inconsistency and relaxed databases
===================================

Fuzzy databases pin atoms to exact degrees, so rules can contradict the
data: r(a) is fully true and forces s(a) up to 1, but the database
insists s(a) = 0.5. Three ways out: report the inconsistency, lower K,
or relax the database to lower bounds.
"""

from fractions import Fraction

from mvdatalog import Engine, Instance, Unsatisfiable, minimal_model, parse

text = """
1 :: r(a).
0.5 :: s(a).
s(X) :- r(X).
"""
program, database = parse(text)

# 1. As stated, there is no 1-fuzzy model.
try:
    minimal_model(Instance(program, database, Fraction(1)))
except Unsatisfiable as exc:
    print(f"at K=1: {exc}")

# 2. At K=1/2 the rule only needs s(a) >= r(a) - 1 + K = 0.5, which the
#    database already provides: the database itself is the minimal model.
half = minimal_model(Instance(program, database, Fraction(1, 2)))
print("at K=1/2:", {str(a): str(d) for a, d in sorted(half.assignment.support.items(), key=lambda kv: str(kv[0]))})

# 3. Relaxation: stored degrees become lower bounds instead of pinned
#    values. The program and its chase stay as they are; a fact of
#    degree d only asks for d - (1 - K), its own degree at K = 1.
for K in (Fraction(1), Fraction(3, 4)):
    engine = Engine(Instance(program, database, K), relaxed=True)
    facts = list(database.entries)  # seeds_by_id is keyed by fact index
    print(f"relaxed at K={K}: lower bounds", {str(facts[i]): str(d) for i, d in engine.seeds_by_id.items()})
    print("  model:", {str(a): str(d) for a, d in sorted(engine.model.assignment.support.items(), key=lambda kv: str(kv[0]))})
