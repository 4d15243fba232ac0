"""Self-tests of the benchmark: its oracles, its checker and its counters.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ONE = Fraction(1)

COUNTS = (
    "chase.atoms",
    "chase.ground_rules",
    "engine.lp_rows",
    "engine.lp_columns",
    "lp.solves",
    "lp.denominator_bits",
    "cli.output_bytes",
)


# --- the oracles reproduce the README's hand-computed answers ----------------


def test_orca_is_one_half():
    facts = {("label", ("i1", "whale")): Fraction(4, 5), ("polar", ("i1",)): Fraction(7, 10)}
    rules = [(("orca", ("X",)), (("label", ("X", "whale")), ("polar", ("X",))))]
    model = oracles.fuzzy_fixpoint(rules, facts, ONE, ["i1", "whale"])
    assert model[("orca", ("i1",))] == Fraction(1, 2)


def test_key_person_null_is_one_fifth():
    assert oracles.keyperson_null_degree([Fraction(4, 5)], ONE) == Fraction(1, 5)


def test_relaxed_and_lowered_k_repair_an_inconsistency():
    facts = {("r", ("a",)): ONE, ("s", ("a",)): Fraction(1, 2)}
    rules = [(("s", ("X",)), (("r", ("X",)),))]
    assert oracles.fuzzy_fixpoint(rules, facts, ONE, ["a"]) is None
    assert oracles.fuzzy_fixpoint(rules, facts, Fraction(1, 2), ["a"]) == facts
    relaxed = oracles.relaxed_fixpoint(rules, facts, ONE, ["a"])
    assert relaxed == {("r", ("a",)): ONE, ("s", ("a",)): ONE}


def test_chain_and_grid_closed_forms_by_hand():
    # each step costs (1 - 9/10) + (1 - 1/2) = 3/5
    assert oracles.chain_degrees([Fraction(9, 10)] * 2, Fraction(1, 2)) == [ONE, Fraction(2, 5), 0]
    half = Fraction(1, 2)
    right = {(0, 0): half, (1, 0): ONE}
    down = {(0, 0): ONE, (0, 1): ONE}
    r = oracles.grid_degrees(2, right, down)
    assert r[(1, 1)] == ONE  # down then right keeps full truth
    assert r[(0, 1)] == half


# --- the checker catches wrong answers ----------------------------------------


def test_check_flags_a_wrong_degree_and_a_wrong_exit_code():
    case = workloads.small(random.Random(0), pool=1)[0]
    model = {"p(a)": Fraction(1, 2)}
    case.query_atom = "p(a)"
    stdout = '{"degree": "1/2", "entailed": true}'
    argv = ["query", "f.mvdl", "p(a)", "--at-least", "1/2"]
    assert run.check(case, model, "query", argv, 0, stdout) is None
    assert run.check(case, {"p(a)": Fraction(2, 5)}, "query", argv, 0, stdout) is not None
    assert run.check(case, model, "query", argv, 1, stdout) is not None
    solved = '{"model": [{"atom": "p(a)", "degree": "1/3"}]}'
    assert run.check(case, model, "solve", ["solve"], 0, solved) is not None


def test_nulls_are_named_by_the_company_they_witness():
    entries = [
        {"atom": "kp(_:n7, co3)", "degree": "1/5"},
        {"atom": "person(_:n7)", "degree": "1/5"},
    ]
    assert run._canonical_nulls(entries) == {"kp(?co3, co3)": Fraction(1, 5), "person(?co3)": Fraction(1, 5)}


# --- inputs and counts repeat exactly -------------------------------------------


def test_generators_are_deterministic_per_seed():
    for name in workloads.GENERATORS:
        first = [c.text for c in workloads.generate(name, 7)]
        assert first == [c.text for c in workloads.generate(name, 7)]
        assert first != [c.text for c in workloads.generate(name, 8)]


SMALL_POOLS = {
    "chain": lambda rng: workloads.chain(rng, pool=2, nodes=30),
    "grid": lambda rng: workloads.grid(rng, pool=3, side=4),
    "keyperson": lambda rng: workloads.keyperson(rng, pool=2, companies=15),
    "small": lambda rng: workloads.small(rng, pool=30),
}


def _traced_counts(name: str, folder: Path) -> dict:
    cli = importlib.import_module("mvdatalog.cli")
    cases = SMALL_POOLS[name](random.Random(3))
    folder.mkdir(exist_ok=True)
    for case in cases:
        case.path = folder / f"{case.stem}.mvdl"
        case.path.write_text(case.text, encoding="utf-8")
    bench = run.Run(cli, cases, [c.oracle() for c in cases], Tracer())
    bench.loop(0)
    assert bench.failures == []
    metrics, _ = bench.layer_metrics()
    return {key: metrics[key][0] for key in COUNTS}


def test_every_untraced_call_is_read_in_gauges(tmp_path):
    cli = importlib.import_module("mvdatalog.cli")
    cases = SMALL_POOLS["small"](random.Random(5))
    for case in cases:
        case.path = tmp_path / f"{case.stem}.mvdl"
        case.path.write_text(case.text, encoding="utf-8")
    bench = run.Run(cli, cases, [c.oracle() for c in cases], None)
    bench.loop(0.3)
    assert bench.failures == [] and bench.pending == []
    for kind in ("solve", "query"):
        assert len(bench.gauged[kind]) == len(bench.times[kind]) > 0
        assert all(g > 0 for g in bench.gauged[kind])


@pytest.mark.parametrize("name", sorted(SMALL_POOLS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    assert first == _traced_counts(name, tmp_path / "b")
    assert first["chase.atoms"] > 0 and first["cli.output_bytes"] > 0
    if name == "keyperson":
        assert first["lp.solves"] == 2  # the two stages of the lexicographic solve


# --- the contract's bare-directory rule -------------------------------------------


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
