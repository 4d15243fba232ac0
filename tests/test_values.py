"""The 20 value types of `core`, `engine`, `lp` and `termination` behave
as the frozen dataclasses they once were, `helpers.dataclass_twins`:
the same constructor signatures, defaults and refusals, equality within
one class only, the same hashes, reprs and refused assignments, and the
same pickle and copy state. Each sample is built twice by one recipe,
once from the plain classes and once from the twins."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import dataclass_twins
from mvdatalog import core, engine, lp, termination
from mvdatalog.engine import ModelKind
from mvdatalog.lp import Status

F = Fraction
MODULES = {
    core: ["Variable", "Constant", "LabelledNull", "Atom", "Rule", "Program", "FuzzyDatabase", "TruthAssignment",
           "GroundRule", "Instance"],
    engine: ["GroundModel", "QueryResult", "VerificationReport"],
    lp: ["Constraint", "LinearProgram", "ColumnProgram", "Solution"],
    termination: ["PositionVertex", "DependencyGraph", "WitnessCycle"],
}
NAMES = [name for names in MODULES.values() for name in names]
OURS = SimpleNamespace(**{name: getattr(module, name) for module, names in MODULES.items() for name in names})
TWINS = dataclass_twins()


def _plain(text: str) -> str:
    """A twin's text with its qualified names' function prefix dropped."""
    return text.replace("dataclass_twins.<locals>.", "")


def samples(ns: SimpleNamespace) -> dict[str, list]:
    """Values of each type, built from `ns`'s classes; each list holds two equal values."""
    x, y, a, b = ns.Variable("X"), ns.Variable("Y"), ns.Constant("a"), ns.Constant("b")
    n1, n2 = ns.LabelledNull(1), ns.LabelledNull(2)
    p_a, r_ab, p_n, q_x = ns.Atom("p", (a,)), ns.Atom("r", (a, b)), ns.Atom("p", (n1,)), ns.Atom("q", (x,))
    rules = [
        ns.Rule(1, (ns.Atom("p", (x,)),), q_x),
        ns.Rule(2, (ns.Atom("p", (x,)), ns.Atom("r", (x, y))), ns.Atom("s", (y,))),
        ns.Rule(3, (p_a,), ns.Atom("t", (a, x))),
    ]
    rules[2].existential_vars  # a cached property in the instance's state
    program = ns.Program(tuple(rules[:2]), {"p": 1, "q": 1, "r": 2, "s": 1})
    database = ns.FuzzyDatabase({p_a: F(1, 2), r_ab: 1})
    database.relations
    truth = ns.TruthAssignment({p_a: F(1, 2), r_ab: F(1)})
    gamma = ns.GroundRule(1, (p_a, p_a), r_ab)
    built = ns.LinearProgram()
    built.add_variable("x")
    built.add_variable("y", F(1, 3), None)
    built.fix("x", 1)
    built.add_constraint({"x": 1, "y": "1/2", "z": 0}, "1/3")
    built.objective["y"] = F(2)
    columns = ns.ColumnProgram([(F(0), F(1)), (F(0), None)], {0: F(1)}, [({0: 2, 1: 1}, 1, 6)], {1: 2}, {0: F(1, 2)},
                               ["x", "y"])
    u, v, w = ns.PositionVertex("p", 1), ns.PositionVertex("p", 2), ns.PositionVertex("q", 1)
    return {
        "Variable": [x, y, ns.Variable("a"), ns.Variable("X")],
        "Constant": [a, b, ns.Constant("X"), ns.Constant("a")],
        "LabelledNull": [n1, n2, ns.LabelledNull(0), ns.LabelledNull(1)],
        "Atom": [p_a, r_ab, p_n, q_x, ns.Atom("z"), ns.Atom("p", (ns.Constant("a"),))],
        "Rule": [*rules, ns.Rule(1, (ns.Atom("p", (x,)),), ns.Atom("q", (x,)))],
        "Program": [ns.Program(()), program, ns.Program(tuple(rules), {"p": 1}), ns.Program(program.rules, {
            "p": 1, "q": 1, "r": 2, "s": 1})],
        "FuzzyDatabase": [ns.FuzzyDatabase(), database, ns.FuzzyDatabase({p_a: "1/2", r_ab: 1}),
                          ns.FuzzyDatabase({r_ab: 1})],
        "TruthAssignment": [ns.TruthAssignment(), truth, ns.TruthAssignment({p_a: F(1, 2), r_ab: F(1)})],
        "GroundRule": [gamma, ns.GroundRule(2, (p_a,), p_n), ns.GroundRule(1, (p_a, p_a), r_ab)],
        "Instance": [ns.Instance(program, database), ns.Instance(program, database, "9/10"),
                     ns.Instance(ns.Program(()), ns.FuzzyDatabase(), 1), ns.Instance(program, database, F(1))],
        "GroundModel": [ns.GroundModel(truth, ModelKind.MINIMAL, F(1)),
                        ns.GroundModel(truth, ModelKind.PREFERRED, F(1, 2), frozenset({p_a})),
                        ns.GroundModel(truth, ModelKind.MINIMAL, F(1), frozenset())],
        "QueryResult": [ns.QueryResult(p_a, F(1, 2), True, F(3, 4)), ns.QueryResult(p_a, F(1, 2), True, F(3, 4), True),
                        ns.QueryResult(p_a, F(1, 2), True, F(3, 4), False)],
        "VerificationReport": [ns.VerificationReport((), (), ()),
                               ns.VerificationReport(((gamma, F(1, 4)),), ((p_a, F(1), F(1, 2)),), (r_ab,)),
                               ns.VerificationReport((), (), ())],
        "Constraint": [ns.Constraint({"x": F(1)}, F(1, 2)), ns.Constraint({}, F(0)), ns.Constraint({"x": F(1)}, F(1, 2))],
        "LinearProgram": [ns.LinearProgram(), built, ns.LinearProgram(["x"], {"x": (F(0), None)}), *columns.labelled()[:1],
                          ns.LinearProgram([], {}, {}, [], {})],
        "ColumnProgram": [columns, ns.ColumnProgram([], {}, [], {}, {}, []), ns.ColumnProgram([], {}, [], {}, {}, ()),
                          ns.ColumnProgram([], {}, [], {}, {}, [])],
        "Solution": [ns.Solution(Status.OPTIMAL, {"x": F(1)}, F(1)), ns.Solution(Status.INFEASIBLE, {}, None),
                     ns.Solution(Status.OPTIMAL, {"x": F(1)}, F(1))],
        "PositionVertex": [u, v, w, ns.PositionVertex("p", 1)],
        "DependencyGraph": [ns.DependencyGraph(frozenset({u, v}), frozenset({(u, v)}), frozenset({(v, w)})),
                            ns.DependencyGraph(frozenset(), frozenset(), frozenset()),
                            ns.DependencyGraph(frozenset({v, u}), frozenset({(u, v)}), frozenset({(v, w)}))],
        "WitnessCycle": [ns.WitnessCycle(((u, v, True), (v, u, False))), ns.WitnessCycle(()),
                         ns.WitnessCycle(((u, v, True), (v, u, False)))],
    }


OUR_SAMPLES, TWIN_SAMPLES = samples(OURS), samples(TWINS)


def _outcome(call):
    """What `call()` returns, or its exception's type and text."""
    try:
        return call()
    except Exception as exc:
        return type(exc), _plain(str(exc))


def _raised(call) -> Exception:
    try:
        call()
    except Exception as exc:
        return exc
    raise AssertionError("no exception")


def _module(name: str) -> str:
    return next(module.__name__.split(".")[1] for module, names in MODULES.items() if name in names)


def test_twins_are_the_dataclasses_and_ours_are_not():
    assert sorted(NAMES) == sorted(vars(TWINS)) and len(NAMES) == 20
    for name in NAMES:
        assert dataclasses.is_dataclass(getattr(TWINS, name)) and not dataclasses.is_dataclass(getattr(OURS, name))
        assert len(OUR_SAMPLES[name]) == len(TWIN_SAMPLES[name])


@pytest.mark.parametrize("name", NAMES)
class TestAgainstDataclass:
    def test_repr_and_str(self, name):
        ours, twins = OUR_SAMPLES[name], TWIN_SAMPLES[name]
        assert [repr(v) for v in ours] == [_plain(repr(t)) for t in twins]
        assert [str(v) for v in ours] == [_plain(str(t)) for t in twins]

    def test_equality_within_the_class_only(self, name):
        ours, twins = OUR_SAMPLES[name], TWIN_SAMPLES[name]
        for i, j in [(i, j) for i in range(len(ours)) for j in range(len(ours))]:
            assert (ours[i] == ours[j], ours[i] != ours[j]) == (twins[i] == twins[j], twins[i] != twins[j])
        assert any(ours[i] == ours[j] for i in range(len(ours)) for j in range(i))  # each list has an equal pair
        others = [values[0] for other, values in OUR_SAMPLES.items() if other != name]
        for v, t in zip(ours, twins):
            assert v.__eq__(t) is NotImplemented and v != t  # a twin is another class
            for other in others:
                assert v.__eq__(other) is NotImplemented and t.__eq__(other) is NotImplemented and v != other

    def test_hash(self, name):
        ours, twins = getattr(OURS, name), getattr(TWINS, name)
        assert (ours.__hash__ is None) == (twins.__hash__ is None)
        outcomes = [(_outcome(lambda: hash(v)), _outcome(lambda: hash(t)))
                    for v, t in zip(OUR_SAMPLES[name], TWIN_SAMPLES[name])]
        assert all(mine == theirs for mine, theirs in outcomes)

    def test_assignment_and_deletion(self, name):
        fields = [f.name for f in dataclasses.fields(getattr(TWINS, name))]
        frozen = getattr(TWINS, name).__dataclass_params__.frozen
        assert frozen == (name not in ("LinearProgram", "ColumnProgram"))
        if not frozen:  # the LP builders stay mutable
            v, t = copy.deepcopy(OUR_SAMPLES[name][0]), copy.deepcopy(TWIN_SAMPLES[name][0])
            for o in (v, t):
                setattr(o, fields[0], [])
                o.other = 1
                del o.other
            assert repr(v) == _plain(repr(t)) and vars(v).keys() == vars(t).keys()
            return
        for v, t in zip(OUR_SAMPLES[name], TWIN_SAMPLES[name]):
            for attribute in [*fields, "other"]:
                for act in (lambda o: setattr(o, attribute, 0), lambda o: delattr(o, attribute)):
                    refusal = _raised(lambda: act(t))
                    assert isinstance(refusal, AttributeError)
                    assert _outcome(lambda: act(v)) == (AttributeError, str(refusal))
            assert repr(v) == _plain(repr(t))

    def test_plain_subclass_keeps_its_own_attributes(self, name):
        ours, twins = getattr(OURS, name), getattr(TWINS, name)
        fields = [f.name for f in dataclasses.fields(twins)]
        for cls in (type("Sub", (ours,), {}), type("Sub", (twins,), {})):
            instance = object.__new__(cls)
            instance.extra = 1
            del instance.extra
            if twins.__dataclass_params__.frozen:
                with pytest.raises(AttributeError, match=f"cannot assign to field {fields[0]!r}"):
                    setattr(instance, fields[0], 1)

    def test_signature_defaults_and_call_errors(self, name):
        ours, twins = getattr(OURS, name), getattr(TWINS, name)
        mine, theirs = inspect.signature(ours).parameters, inspect.signature(twins).parameters
        assert [(p.name, p.kind) for p in mine.values()] == [(p.name, p.kind) for p in theirs.values()]
        for p, q in zip(mine.values(), theirs.values()):
            # a dataclass's default_factory shows as `<factory>`; the plain class takes None for it
            assert p.default == (None if repr(q.default) == "<factory>" else q.default)
        required = [p for p in theirs.values() if p.default is inspect.Parameter.empty]
        for args in ([], [0] * (len(theirs) + 1)):
            if len(args) != len(required):
                assert _outcome(lambda: ours(*args)) == _outcome(lambda: twins(*args))
        # the defaults as the dataclass fills them in, a fresh object from each factory
        fields = [getattr(OUR_SAMPLES[name][0], p.name) for p in required]
        twin_fields = [getattr(TWIN_SAMPLES[name][0], p.name) for p in required]
        assert repr(ours(*fields)) == _plain(repr(twins(*twin_fields)))
        for p in theirs.values():
            if repr(p.default) == "<factory>":
                assert getattr(ours(*fields), p.name) is not getattr(ours(*fields), p.name)
        if name != "FuzzyDatabase":  # whose `__init__` takes `entries`, not its field: each field holds what was passed
            for cls, sample in ((ours, OUR_SAMPLES[name][-1]), (twins, TWIN_SAMPLES[name][-1])):
                passed = [getattr(sample, p) for p in theirs]
                assert all(getattr(cls(*passed), p) is value for p, value in zip(theirs, passed))

    def test_pickle_copy_and_deepcopy(self, name):
        for v, t in zip(OUR_SAMPLES[name], TWIN_SAMPLES[name]):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                mine, theirs = v.__reduce_ex__(protocol), t.__reduce_ex__(protocol)
                assert len(mine) == len(theirs) and mine[0] is theirs[0]
                assert _plain(repr(mine[1:])).replace(f"'mvdatalog.{_module(name)}.", "'") == _plain(
                    repr(theirs[1:])).replace("'helpers.", "'")
                again = pickle.loads(pickle.dumps(v, protocol))
                assert type(again) is type(v) and repr(vars(again)) == repr(vars(v)) and again == v
            for copier in (copy.copy, copy.deepcopy):
                mine, theirs = copier(v), copier(t)
                assert repr(vars(mine)) == _plain(repr(vars(theirs))) and mine == v and theirs == t
                assert [mine.__dict__[k] is v.__dict__[k] for k in vars(v)] == [
                    theirs.__dict__[k] is t.__dict__[k] for k in vars(t)]


REFUSALS = {
    "rule with an empty body": lambda ns: ns.Rule(1, (), ns.Atom("p")),
    "rule with a null in its body": lambda ns: ns.Rule(1, (ns.Atom("p", (ns.LabelledNull(1),)),), ns.Atom("q")),
    "rule with a null in its head": lambda ns: ns.Rule(1, (ns.Atom("p"),), ns.Atom("q", (ns.LabelledNull(1),))),
    "repeated rule ids": lambda ns: ns.Program.from_rules([ns.Rule(1, (ns.Atom("p"),), ns.Atom("q"))] * 2),
    "arities that disagree": lambda ns: ns.Program.from_rules(
        [ns.Rule(1, (ns.Atom("p"),), ns.Atom("q"))], [ns.Atom("p", (ns.Constant("a"),))]),
    "non-ground fact": lambda ns: ns.FuzzyDatabase({ns.Atom("p", (ns.Variable("X"),)): 1}),
    "fact with a null": lambda ns: ns.FuzzyDatabase({ns.Atom("p", (ns.Constant("a"), ns.LabelledNull(0))): 1}),
    "null before a variable": lambda ns: ns.FuzzyDatabase(
        {ns.Atom("p", (ns.Constant("a"),)): 1, ns.Atom("r", (ns.LabelledNull(0), ns.Variable("X"))): 1}),
    "degree 0": lambda ns: ns.FuzzyDatabase({ns.Atom("p"): 0}),
    "degree above 1": lambda ns: ns.FuzzyDatabase({ns.Atom("p"): F(3, 2)}),
    "degree not a number": lambda ns: ns.FuzzyDatabase({ns.Atom("p"): "x"}),
    "K of 0": lambda ns: ns.Instance(ns.Program(()), ns.FuzzyDatabase(), 0),
    "K above 1": lambda ns: ns.Instance(ns.Program(()), ns.FuzzyDatabase(), 2),
    "K not a number": lambda ns: ns.Instance(ns.Program(()), ns.FuzzyDatabase(), "1/0"),
    "program and database arities disagree": lambda ns: ns.Instance(
        ns.Program((), {"p": 2}), ns.FuzzyDatabase({ns.Atom("p", (ns.Constant("a"),)): 1})),
    "variable declared twice": lambda ns: [lp_.add_variable("x") for lp_ in [ns.LinearProgram()] * 2],
    "column out of range": lambda ns: ns.ColumnProgram([(F(0), F(1))], {1: F(0)}, [], {}, {}, ["x"]).check(),
    "fixing outside bounds": lambda ns: ns.ColumnProgram([(F(0), F(1))], {0: F(2)}, [], {}, {}, ["x"]).check(),
    "too few arguments": lambda ns: ns.GroundRule(1, ()),
    "too many arguments": lambda ns: ns.PositionVertex("p", 1, 2),
    "unknown keyword": lambda ns: ns.QueryResult(None, 0, True, 0, relative=True),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_refusals_match(case):
    mine, theirs = _outcome(lambda: REFUSALS[case](OURS)), _outcome(lambda: REFUSALS[case](TWINS))
    assert isinstance(mine, tuple) and issubclass(mine[0], Exception) and mine == theirs
