"""Command-line front end.

Subcommands: solve, query, check, ground. Results go to stdout as
deterministic JSON (or plain text with --format text); degrees are
printed as reduced fractions, never floats.

Exit codes: 0 ok/entailed, 1 not entailed, 2 unsatisfiable, 3 usage,
parse or input error, 4 chase limit reached/required, 5 no
obliviously-based model.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn, Optional

from .core import (
    ArityError,
    Atom,
    DomainError,
    Instance,
    as_degree,
    relax_rewrite,
)
from .engine import (
    Engine,
    NoObliviousBaseModel,
    TruncatedChase,
    Unsatisfiable,
    build_eoptk,
)
from .parser import NonGroundQuery, ParseError, SafetyError, parse_degree, parse_ground_atom, parse_many
from .termination import is_weakly_acyclic_ve

EXIT_OK = 0
EXIT_NOT_ENTAILED = 1
EXIT_UNSAT = 2
EXIT_INPUT_ERROR = 3
EXIT_CHASE_LIMIT = 4
EXIT_NO_OBLIVIOUS_BASE = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict, as_json: bool, text_lines: Optional[list[str]] = None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines or [json.dumps(payload, sort_keys=True)]:
            print(line)


def _read_files(paths: list[str]) -> list[str]:
    texts = []
    for p in paths:
        try:
            texts.append(Path(p).read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliError(EXIT_INPUT_ERROR, f"cannot read {p}: {exc}") from exc
    return texts


def _load(args) -> tuple[Instance, dict[str, str]]:
    program, database = parse_many(_read_files(args.files))
    instance = Instance(program, database, as_degree(parse_degree(args.K), positive=True))
    renaming: dict[str, str] = {}
    if args.mode == "relaxed":
        instance, renaming = relax_rewrite(instance)
    return instance, renaming


def _gate_chase(instance: Instance, args) -> None:
    """Refuse to chase a possibly-nonterminating program without a limit."""
    if not instance.program.has_existential_rules or args.max_chase_steps is not None:
        return
    acyclic, witness = is_weakly_acyclic_ve(instance.program)
    if not acyclic:
        raise CliError(
            EXIT_CHASE_LIMIT,
            "program is not weakly acyclic (variable expansion): "
            f"cycle {witness}; supply --max-chase-steps to bound the chase",
        )


def _engine(instance: Instance, args) -> Engine:
    return Engine(
        instance,
        step_limit=args.max_chase_steps,
        use_fast_path=not args.no_fast_path,
    )


def _presented_model(model_support, instance, renaming) -> dict[Atom, Fraction]:
    """Map relaxed-mode primed atoms back to their original predicate names."""
    if not renaming:
        return dict(model_support)
    primed_to_orig = {v: k for k, v in renaming.items()}
    out: dict[Atom, Fraction] = {}
    for a, d in model_support.items():
        if a.predicate in renaming:
            # raw tau predicate: its relaxed truth lives on the primed atom
            continue
        if a.predicate in primed_to_orig:
            out[Atom(primed_to_orig[a.predicate], a.args)] = d
        else:
            out[a] = d
    return out


def _source_of(a: Atom, instance: Instance, model, renaming) -> str:
    # `a` is a presented atom (original predicate names); in relaxed mode
    # its value lives on the primed carrier atom.
    carrier = Atom(renaming[a.predicate], a.args) if a.predicate in renaming else a
    given = instance.database.degree(a)
    if given is not None and given == model.assignment(carrier):
        return "given"
    if carrier in model.certain_atoms:
        return "certain"
    return "derived"


def cmd_solve(args) -> int:
    instance, renaming = _load(args)
    _gate_chase(instance, args)
    engine = _engine(instance, args)
    model = engine.model
    presented = _presented_model(model.assignment.support, instance, renaming)
    entries = []
    for a in sorted(presented, key=Atom.sort_key):
        entries.append(
            {
                "atom": str(a),
                "degree": str(presented[a]),
                "source": _source_of(a, instance, model, renaming),
            }
        )
    payload = {
        "status": "ok",
        "kind": model.kind.value,
        "K": str(instance.K),
        "model": entries,
        "stats": {
            "ground_rules": len(engine.chase.gamma),
            "variables": len(engine.chase.olim),
            "certain": len(model.certain_atoms),
        },
    }
    text = [f"{e['atom']} = {e['degree']}  ({e['source']})" for e in entries]
    _emit(payload, args.format == "json", text)
    return EXIT_OK


def cmd_query(args) -> int:
    instance, renaming = _load(args)
    _gate_chase(instance, args)
    atom = parse_ground_atom(args.atom)
    threshold = as_degree(parse_degree(args.at_least))
    if renaming and atom.predicate in renaming:
        atom = Atom(renaming[atom.predicate], atom.args)
    result = _engine(instance, args).query(atom, threshold)
    payload = {
        "status": "ok",
        "atom": args.atom,
        "threshold": str(result.threshold),
        "degree": str(result.degree),
        "entailed": result.entailed,
        "model_relative": result.model_relative,
    }
    verdict = "entailed" if result.entailed else "not entailed"
    _emit(payload, args.format == "json", [f"{args.atom} >= {result.threshold}: {verdict} (degree {result.degree})"])
    return EXIT_OK if result.entailed else EXIT_NOT_ENTAILED


def cmd_check(args) -> int:
    instance, _ = _load(args)
    acyclic, witness = is_weakly_acyclic_ve(instance.program)
    payload: dict = {
        "weakly_acyclic": acyclic,
        "witness": str(witness) if witness else None,
        "satisfiable": None,
        "stats": None,
    }
    chase_allowed = (
        not instance.program.has_existential_rules
        or acyclic
        or args.max_chase_steps is not None
    )
    if chase_allowed:
        engine = _engine(instance, args)
        try:
            engine.model
            payload["satisfiable"] = True
        except NoObliviousBaseModel:  # Unsatisfiable included
            payload["satisfiable"] = False
        except TruncatedChase:
            _emit(payload, args.format == "json")
            raise
        # the LP has one variable per chase atom and one constraint per ground rule
        chase = engine.chase
        payload["stats"] = {
            "olim": len(chase.olim),
            "gamma": len(chase.gamma),
            "lp_variables": len(chase.olim),
            "lp_constraints": len(chase.gamma),
        }
    text = [
        f"weakly acyclic (variable expansion): {'yes' if acyclic else 'no'}",
    ]
    if witness:
        text.append(f"witness cycle: {witness}")
    if payload["stats"]:
        s = payload["stats"]
        text.append(
            f"chase atoms: {s['olim']}, ground rules: {s['gamma']}, "
            f"lp: {s['lp_variables']} vars / {s['lp_constraints']} constraints"
        )
    if payload["satisfiable"] is not None:
        text.append(f"satisfiable at K={instance.K}: {'yes' if payload['satisfiable'] else 'no'}")
    _emit(payload, args.format == "json", text)
    return EXIT_OK


def _lp_as_json(lp, secondary: Optional[dict] = None) -> dict:
    return {
        "variables": list(lp.variables),
        "fixings": {v: str(d) for v, d in sorted(lp.fixings.items())},
        "objective": {v: str(c) for v, c in sorted(lp.objective.items())},
        "secondary": {v: str(c) for v, c in sorted(secondary.items())} if secondary else None,
        "constraints": [
            {
                "coeffs": {v: str(c) for v, c in sorted(constraint.coeffs.items())},
                "rhs": str(constraint.rhs),
            }
            for constraint in lp.constraints
        ],
    }


def _lp_as_text(lp, secondary: Optional[dict] = None) -> list[str]:
    lines = ["minimize"]
    lines.append("  " + " + ".join(f"{c} {v}" for v, c in sorted(lp.objective.items())))
    if secondary:
        lines.append("then minimize")
        lines.append("  " + " + ".join(f"{c} {v}" for v, c in sorted(secondary.items())))
    lines.append("subject to")
    for constraint in lp.constraints:
        terms = " + ".join(f"{c} {v}" for v, c in sorted(constraint.coeffs.items()))
        lines.append(f"  {terms} >= {constraint.rhs}")
    for v, d in sorted(lp.fixings.items()):
        lines.append(f"  {v} = {d}")
    lines.append("  0 <= x <= 1 for all variables")
    return lines


def cmd_ground(args) -> int:
    instance, _ = _load(args)
    _gate_chase(instance, args)
    chase = _engine(instance, args).chase
    lp, secondary = build_eoptk(instance, chase)  # raises TruncatedChase
    nulls = [
        {
            "rule": rid,
            "homomorphism": {var: str(term) for var, term in hom_key},
            "nulls": [str(n) for n in null_tuple],
        }
        for rid, hom_key, null_tuple in sorted(
            chase.registry.entries(), key=lambda e: [str(n) for n in e[2]]
        )
    ]
    payload = {
        "olim": [str(a) for a in chase.sorted_olim()],
        "gamma": [
            {
                "rule": g.origin_rule_id,
                "body": [str(b) for b in g.body],
                "head": str(g.head),
            }
            for g in chase.gamma
        ],
        "nulls": nulls,
        "lp": _lp_as_json(lp, secondary),
        "steps": chase.steps,
    }
    _emit(payload, args.format == "json", _lp_as_text(lp, secondary))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3), not argparse's 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise CliError(EXIT_INPUT_ERROR, message)


def _step_count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mvdl",
        description="Many-valued Datalog(+-) reasoning under Lukasiewicz semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("files", nargs="+", help=".mvdl input files (merged in order)")
        p.add_argument("--K", default="1", help="satisfaction level, a rational in (0,1]")
        p.add_argument(
            "--mode",
            choices=["strict", "relaxed"],
            default="strict",
            help="relaxed rewrites the program so models only need nu >= tau",
        )
        p.add_argument("--max-chase-steps", type=_step_count, default=None, metavar="N")
        p.add_argument(
            "--no-fast-path",
            action="store_true",
            help="solve plain programs with the reference LP, not the least fixpoint; same answer",
        )
        p.add_argument("--format", choices=["json", "text"], default="json")

    p_solve = sub.add_parser("solve", help="compute the minimal / preferred model")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_query = sub.add_parser("query", help="decide fuzzy fact entailment")
    common(p_query)
    p_query.add_argument("atom", help="ground atom, e.g. 'orca(i1)'")
    p_query.add_argument("--at-least", default="1", metavar="C", help="threshold in [0,1]")
    p_query.set_defaults(func=cmd_query)

    p_check = sub.add_parser("check", help="weak acyclicity, satisfiability, statistics")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_ground = sub.add_parser("ground", help="dump chase output and the LP model")
    common(p_ground)
    p_ground.set_defaults(func=cmd_ground)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        return args.func(args)
    except Unsatisfiable:
        _emit({"status": "unsatisfiable"}, args.format == "json", ["unsatisfiable"])
        return EXIT_UNSAT
    except NoObliviousBaseModel:
        _emit({"status": "no-oblivious-base-model"}, args.format == "json", ["no obliviously-based model"])
        return EXIT_NO_OBLIVIOUS_BASE
    except TruncatedChase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHASE_LIMIT
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, DomainError, ArityError, SafetyError, NonGroundQuery) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
