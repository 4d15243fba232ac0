"""Many-valued Datalog(+-) reasoning under Lukasiewicz semantics.

Exact-rational minimal and preferred fuzzy models via the oblivious
chase, a least fixpoint and a rational simplex; fuzzy fact entailment
on top. `is_weakly_acyclic_ve` and `variable_expansion` load with
`termination` on first access (PEP 562), so a plain program never loads it.
"""

from .core import (
    Atom,
    Constant,
    DomainError,
    FuzzyDatabase,
    GroundRule,
    Instance,
    LabelledNull,
    Program,
    Rule,
    TruthAssignment,
    Variable,
    as_degree,
    atom,
    body_truth,
    make_rule,
    rule_gap,
)
from .chase import ChaseResult, oblivious_chase
from .engine import (
    Engine,
    GroundModel,
    NoObliviousBaseModel,
    QueryResult,
    TruncatedChase,
    UnboundedChase,
    Unsatisfiable,
    fixpoint_minimal_model,
    k_truth,
    minimal_model,
    preferred_model,
    verify_model,
)
from .parser import ParseError, parse, parse_ground_atom, parse_many

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("is_weakly_acyclic_ve", "variable_expansion"):
        from . import termination
        return getattr(termination, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "ChaseResult",
    "Constant",
    "DomainError",
    "Engine",
    "FuzzyDatabase",
    "GroundModel",
    "GroundRule",
    "Instance",
    "LabelledNull",
    "NoObliviousBaseModel",
    "ParseError",
    "Program",
    "QueryResult",
    "Rule",
    "TruncatedChase",
    "TruthAssignment",
    "UnboundedChase",
    "Unsatisfiable",
    "Variable",
    "as_degree",
    "atom",
    "body_truth",
    "fixpoint_minimal_model",
    "is_weakly_acyclic_ve",
    "k_truth",
    "make_rule",
    "minimal_model",
    "oblivious_chase",
    "parse",
    "parse_ground_atom",
    "parse_many",
    "preferred_model",
    "rule_gap",
    "variable_expansion",
    "verify_model",
]
