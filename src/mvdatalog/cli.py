"""Command-line front end.

Subcommands: solve, query, check, ground. All four run one pipeline,
`_open`: parse the files and build the Engine, relaxed under --mode
relaxed (tau's degrees become lower bounds; the program is unchanged).
Its chase gate chases an existential program only when it is weakly
acyclic or --max-chase-steps bounds it. `check` reports a refused chase
with the engine's witness cycle; the other commands exit 4 on it,
`query` before it parses its atom.

`solve`, `query` and `check` answer from `Engine.degrees`, by atom id,
and build no `core` atom, of the chase or of the database, also under
--no-fast-path: `solve` writes each atom from the chase's rank key and
its constants' names, in rank order. Input files are read as UTF-8, a
leading byte-order mark dropped; other bytes are an input error.

Results go to stdout as deterministic JSON (or plain text with
--format text); degrees are printed as reduced fractions, never floats.

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
from pathlib import Path
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
from .parser import NonGroundQuery, ParseError, SafetyError, parse_degree, parse_ground_atom, parse_many

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


_encode_string = json.encoder.encode_basestring_ascii


class _Laid(str):
    """JSON that is already laid out at its place in a payload: `_dumps` writes it as is."""


def _dumps(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for str-keyed payloads, byte for byte.
    json.dumps runs its pure-Python encoder whenever `indent` is set; this
    writes the layout itself and leaves each leaf to json's C encoders."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [  # a str value, the common case, is encoded without a call
            f"{_encode_string(k)}: {_encode_string(v) if type(v) is str else _dumps(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list) and value:
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + newline + "]"
    if type(value) is _Laid:
        return value
    return _encode_string(value) if type(value) is str else json.dumps(value)


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(_dumps(payload))
    elif text_lines:
        print("\n".join(text_lines))


def _read_files(paths: list[str]) -> list[str]:
    """Each file's text; a leading byte-order mark is dropped."""
    texts = []
    for p in paths:
        try:
            texts.append(Path(p).read_bytes().decode("utf-8-sig"))
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


# one model entry of `solve`'s JSON, as `_dumps` lays it out at its depth
_ROW = '{{\n      "atom": {},\n      "degree": "{}",\n      "source": "{}"\n    }}'


def cmd_solve(args) -> int:
    engine = _open(args)
    degrees, chase, K = engine.degrees, engine.chase, engine.instance.K
    tau = list(engine.instance.database.facts.values())  # fact i's degree, i < len(tau)
    pins = engine.pins_by_id  # a pinned fact's degree is tau's by construction
    certainty = K == 1 and not engine.is_existential  # a minimal model at K = 1: its degree-1 atoms are certain
    entries = []  # (atom, degree, source) in rank order, as `str(Atom)` and `str(Fraction)`
    certain = 0
    for i in chase.order:
        d = degrees.get(i)
        if d is None:
            continue
        one = certainty and d == 1
        certain += one
        source = "given" if i in pins or i < len(tau) and tau[i] == d else "certain" if one else "derived"
        entries.append((chase.text(i), str(d), source))
    if args.format == "text":
        _emit({}, False, [f"{a} = {d}  ({source})" for a, d, source in entries])
        return EXIT_OK
    rows = [_ROW.format(_encode_string(a), d, source) for a, d, source in entries]
    payload = {
        "status": "ok",
        "kind": (ModelKind.PREFERRED if engine.is_existential else ModelKind.MINIMAL).value,
        "K": str(K),
        "model": _Laid("[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"),
        "stats": {
            "ground_rules": len(chase.ground),
            "variables": len(chase.keys),
            "certain": certain,
        },
    }
    _emit(payload, True, [])
    return EXIT_OK


def cmd_query(args) -> int:
    engine = _open(args)
    engine.chase  # the chase gate precedes parsing the atom
    atom = parse_ground_atom(args.atom)
    threshold = as_degree(parse_degree(args.at_least))
    result = engine.query(atom, threshold)
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
    lines = ["minimize"]
    lines.append("  " + " + ".join(f"{c} {v}" for v, c in sorted(lp.objective.items())))
    if secondary:
        lines.append("then minimize")
        lines.append("  " + " + ".join(f"{c} {v}" for v, c in sorted(secondary.items())))
    lines.append("subject to")
    for constraint in lp.constraints:
        terms = " + ".join(f"{c} {v}" for v, c in sorted(constraint.coeffs.items()))
        lines.append(f"  {terms} >= {constraint.rhs}")
    for v, lo in _lower_bounds(lp):
        lines.append(f"  {v} >= {lo}")
    for v, d in sorted(lp.fixings.items()):
        lines.append(f"  {v} = {d}")
    lines.append("  0 <= x <= 1 for all variables")
    return lines


def cmd_ground(args) -> int:
    engine = _open(args)
    chase = engine.chase
    columns = eoptk_columns(engine.instance, chase, engine.seeds_by_id, engine.pins_by_id)  # raises TruncatedChase
    lp, secondary = columns.labelled()
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
    except (ParseError, DomainError, ArityError, SafetyError, NonGroundQuery) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
