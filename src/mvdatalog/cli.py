"""Command-line front end.

Subcommands: solve, query, check, ground. All four run one pipeline,
`_open`: parse the files and build the Engine, relaxed under --mode
relaxed (tau's degrees become lower bounds; the program is unchanged).
`solve` and `query` settle a plain program without a chase, under any
--max-chase-steps; `check`, `ground`, --no-fast-path and existential
programs chase, and --max-chase-steps bounds only that chase. The chase
gate chases an existential program only when it is weakly acyclic or
--max-chase-steps bounds it. `check` reports a refused chase with the
engine's witness cycle, and one cut short before it exits 4; the other
commands exit 4 on either, `query` before it parses its atom where the
engine chases; where it settles, it parses the atom before the pass.

`solve`, `query` and `check` answer from `Engine.degrees`, by the id of
an atom of `Engine.table`, and build no `core` atom, of the table or of
the database, on any route: `solve` writes each atom from its rank key
and its constants' names, in rank order, and each distinct degree once;
its JSON is the same on every route. Input files are read as UTF-8, a
leading byte-order mark dropped; other bytes are an input error.

Results go to stdout as deterministic JSON (or plain text with
--format text); degrees are printed as reduced fractions, never floats.
The JSON is json.dumps(indent=2, sort_keys=True)'s: `solve` and `query`
fill templates laid out so. Each command builds only the format it prints.

Exit codes: 0 ok/entailed, 1 not entailed, 2 unsatisfiable, 3 usage,
parse or input error, 4 chase limit reached/required, 5 no
obliviously-based model, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NoReturn, Optional

from .core import ArityError, DomainError, Instance, as_degree
from .engine import (
    Engine,
    ModelKind,
    NoObliviousBaseModel,
    TruncatedChase,
    UnboundedChase,
    Unsatisfiable,
    eoptk_columns,
)
from .parser import NonGroundQuery, ParseError, parse_degree, parse_ground_atom, parse_many

EXIT_OK = 0
EXIT_NOT_ENTAILED = 1
EXIT_UNSAT = 2
EXIT_INPUT_ERROR = 3
EXIT_CHASE_LIMIT = 4
EXIT_NO_OBLIVIOUS_BASE = 5
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process that SIGPIPE killed


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text_lines:
        print("\n".join(text_lines))


def _read_files(paths: list[str]) -> list[str]:
    """Each file's text; a leading byte-order mark is dropped."""
    texts = []
    for p in paths:
        try:
            with open(p, "rb") as f:
                texts.append(f.read().decode("utf-8-sig"))
        except OSError as exc:
            raise CliError(EXIT_INPUT_ERROR, f"cannot read {p}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CliError(EXIT_INPUT_ERROR, f"cannot read {p}: not UTF-8 (byte {exc.start})") from exc
    return texts


def _open(args) -> Engine:
    """Turn the parsed argv into an Engine; its chase runs on first use."""
    program, database = parse_many(_read_files(args.files))
    instance = Instance(program, database, parse_degree(args.K))  # Instance validates K
    return Engine(
        instance,
        step_limit=args.max_chase_steps,
        use_fast_path=not args.no_fast_path,
        relaxed=args.mode == "relaxed",
    )


# `solve`'s and `query`'s JSON as json.dumps(payload, indent=2, sort_keys=True) writes it,
# filled without json's pure-Python indent encoder: one model entry at its depth, solve's
# wrapper around the entries, and query's payload
_ROW = '{{\n      "atom": {},\n      "degree": "{}",\n      "source": "{}"\n    }}'
_SOLVE = ('{{\n  "K": "{}",\n  "kind": "{}",\n  "model": {},\n'
          '  "stats": {{\n    "certain": {}\n  }},\n  "status": "ok"\n}}')
_QUERY = ('{{\n  "atom": {},\n  "degree": "{}",\n  "entailed": {},\n  "model_relative": {},\n'
          '  "status": "ok",\n  "threshold": "{}"\n}}')


def cmd_solve(args) -> int:
    engine = _open(args)
    degrees, table, K = engine.degrees, engine.table, engine.instance.K
    tau = list(engine.instance.database.facts.values())  # fact i's degree, i < len(tau)
    pins = engine.pins_by_id  # a pinned fact's degree is tau's by construction
    certainty = K == 1 and not engine.is_existential  # a minimal model at K = 1: its degree-1 atoms are certain
    # the fixpoint routes share one Fraction per distinct degree: each is written once
    texts = {i: str(d) for i, d in {id(d): d for d in degrees.values()}.items()}
    entries = []  # (atom, degree, source) in rank order, as `str(Atom)` and `str(Fraction)`
    certain = 0
    for i in table.order:
        d = degrees.get(i)
        if d is None:
            continue
        one = certainty and d == 1
        certain += one
        source = "given" if i in pins or i < len(tau) and tau[i] == d else "certain" if one else "derived"
        entries.append((table.text(i), texts[id(d)], source))
    if args.format == "text":
        _emit({}, False, [f"{a} = {d}  ({source})" for a, d, source in entries])
        return EXIT_OK
    rows = [_ROW.format(encode_basestring_ascii(a), d, source) for a, d, source in entries]
    kind = (ModelKind.PREFERRED if engine.is_existential else ModelKind.MINIMAL).value
    print(_SOLVE.format(K, kind, "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]", certain))
    return EXIT_OK


def cmd_query(args) -> int:
    engine = _open(args)
    if not engine.settles:
        engine.chase  # a chase is refused or cut short before the atom is parsed
    atom = parse_ground_atom(args.atom)
    threshold = as_degree(parse_degree(args.at_least))
    result = engine.query(atom, threshold)
    if args.format == "json":
        flags = json.dumps(result.entailed), json.dumps(result.model_relative)
        print(_QUERY.format(encode_basestring_ascii(args.atom), result.degree, *flags, result.threshold))
    else:
        verdict = "entailed" if result.entailed else "not entailed"
        print(f"{args.atom} >= {result.threshold}: {verdict} (degree {result.degree})")
    return EXIT_OK if result.entailed else EXIT_NOT_ENTAILED


def cmd_check(args) -> int:
    engine = _open(args)
    witness = engine.witness
    payload: dict = {
        "weakly_acyclic": witness is None,
        "witness": str(witness) if witness else None,
        "satisfiable": None,
        "stats": None,
    }
    text = [
        f"weakly acyclic (variable expansion): {'yes' if witness is None else 'no'}",
    ]
    if witness:
        text.append(f"witness cycle: {witness}")
    try:
        engine.chase  # the reported chase: refused or cut short here, also where `degrees` needs none
        engine.degrees
        payload["satisfiable"] = True
    except UnboundedChase:  # refused: the witness is the report
        pass
    except NoObliviousBaseModel:  # Unsatisfiable included
        payload["satisfiable"] = False
    except TruncatedChase:
        _emit(payload, args.format == "json", text)
        raise
    if payload["satisfiable"] is not None:
        atoms, rules = len(engine.chase.keys), len(engine.chase.ground)
        payload["stats"] = {"olim": atoms, "gamma": rules}
        text.append(f"chase atoms: {atoms}, ground rules: {rules}")
        text.append(f"satisfiable at K={engine.instance.K}: {'yes' if payload['satisfiable'] else 'no'}")
    _emit(payload, args.format == "json", text)
    return EXIT_OK


def _lower_bounds(lp) -> list[tuple[str, Fraction]]:
    """The columns bounded below and not fixed: under --mode relaxed, tau's
    atoms; none in strict mode, where tau's atoms are fixed."""
    return sorted((v, lo) for v, (lo, _) in lp.bounds.items() if lo)


def _lp_as_json(lp, secondary: dict) -> dict:
    lower = _lower_bounds(lp)
    return {
        **({"lower_bounds": {v: str(lo) for v, lo in lower}} if lower else {}),
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


def _lp_as_text(lp, secondary: dict) -> list[str]:
    def total(coeffs: dict) -> str:
        # an empty sum is 0: a rule whose coefficients all cancel, as in p(X) :- p(X), or an LP with no atom
        return " + ".join(f"{c} {v}" for v, c in sorted(coeffs.items())) or "0"

    lines = ["minimize", "  " + total(lp.objective)]
    if secondary:
        lines += ["then minimize", "  " + total(secondary)]
    lines.append("subject to")
    lines += [f"  {total(constraint.coeffs)} >= {constraint.rhs}" for constraint in lp.constraints]
    lines += [f"  {v} >= {lo}" for v, lo in _lower_bounds(lp)]
    lines += [f"  {v} = {d}" for v, d in sorted(lp.fixings.items())]
    lines.append("  0 <= x <= 1 for all variables")
    return lines


def cmd_ground(args) -> int:
    engine = _open(args)
    chase = engine.chase  # raises TruncatedChase
    columns = eoptk_columns(engine.instance, chase, engine.seeds_by_id, engine.pins_by_id)
    lp, secondary = columns.labelled()
    if args.format == "text":
        print("\n".join(_lp_as_text(lp, secondary)))
        return EXIT_OK
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
        "nulls": [  # in the order the chase made them: by null id
            {"rule": rid, "homomorphism": {var: str(term) for var, term in hom_key}, "nulls": [str(n) for n in made]}
            for rid, hom_key, made in chase.registry
        ],
        "lp": _lp_as_json(lp, secondary),
        "steps": chase.steps,
    }
    _emit(payload, True, [])
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3), not argparse's 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise CliError(EXIT_INPUT_ERROR, message)


def _step_count(text: str) -> int:
    digits = text.strip()
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mvdl",
        description="Many-valued Datalog(+-) reasoning under Lukasiewicz semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("files", nargs="+", help=".mvdl input files (merged in order)")
        p.add_argument("--K", default="1", help="satisfaction level, a rational in (0,1]")
        p.add_argument(
            "--mode",
            choices=["strict", "relaxed"],
            default="strict",
            help="relaxed makes tau's degrees lower bounds, not pins: models only need nu >= tau - (1 - K)",
        )
        p.add_argument("--max-chase-steps", type=_step_count, default=None, metavar="N")
        p.add_argument(
            "--no-fast-path",
            action="store_true",
            help="solve every program with the full reference LP, not the least fixpoint and the core LP; "
            "same model for plain programs, an equally preferred one for existential ones",
        )
        p.add_argument("--format", choices=["json", "text"], default="json")
        return p

    command("solve", cmd_solve, "compute the minimal / preferred model")
    p_query = command("query", cmd_query, "decide fuzzy fact entailment")
    p_query.add_argument("atom", help="ground atom, e.g. 'orca(i1)'")
    p_query.add_argument("--at-least", default="1", metavar="C", help="threshold in [0,1]")
    command("check", cmd_check, "weak acyclicity, satisfiability, statistics")
    command("ground", cmd_ground, "dump chase output and the LP model")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is left of the output goes to /dev/null, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(argv: Optional[list[str]]) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        return args.func(args)
    except Unsatisfiable:
        _emit({"status": "unsatisfiable"}, args.format == "json", ["unsatisfiable"])
        return EXIT_UNSAT
    except NoObliviousBaseModel:
        _emit({"status": "no-oblivious-base-model"}, args.format == "json", ["no obliviously-based model"])
        return EXIT_NO_OBLIVIOUS_BASE
    except UnboundedChase as exc:
        message = f"program is not weakly acyclic (variable expansion): cycle {exc.cycle}; "
        print(f"error: {message}supply --max-chase-steps to bound the chase", file=sys.stderr)
        return EXIT_CHASE_LIMIT
    except TruncatedChase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHASE_LIMIT
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, DomainError, ArityError, NonGroundQuery) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
