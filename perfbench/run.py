"""End-to-end and per-layer benchmark of the `mvdl` command.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

A single-threaded closed loop: one caller drives `mvdatalog.cli.main`
in-process with stdout captured, issuing the next `solve` or `query`
only after the previous one returns, on `.mvdl` files generated from
the seed. Every answer is checked against an oracle in `oracles.py` and
every repeated call against the first call's output digest.

Call times are reported in gauges: a call's wall time divided by the
wall time of a fixed pure-Python `Fraction` loop timed next to it. A
shared virtual machine can change speed by up to 2x for seconds at a
time, and the ratio cancels that where raw seconds cannot. Set-up time
is read the same way and reported in seconds at a fixed gauge reading.
Raw medians go to the summary line.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each
operation twice, untraced and then traced, and reports per-layer time
and counts (see `spans.py`) plus the tracing overhead. Both print a
one-line summary with sample counts, then the result as the last line.
Inputs and traces are written under `.perfbench/` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LAYER_OF, MAX_COUNTS, ROOT as ROOT_SPAN, Tracer  # noqa: E402

SETUP_REPEATS = 9
GAUGE_TERMS = 2000  # about 5-8 ms of Fraction arithmetic
GAUGE_EVERY_S = 0.05  # the gauge runs between calls once this much time has passed
# `setup_s` is set-up time in gauges times this: seconds at a fixed machine
# speed, about the gauge's reading in the faster state of a 2-vCPU Xeon VM.
REFERENCE_GAUGE_S = 0.005
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Per-layer metrics, each a mean per traced operation unless noted.
LAYER_TIMES = {
    "parser.parse_s": ("parse_many",),
    "chase.chase_s": ("oblivious_chase",),
    "engine.lp_build_s": ("build_optk", "build_eoptk"),
    "lp.solve_s": ("solve", "lexicographic_solve"),
    "cli.self_s": (ROOT_SPAN,),
}
# Layers that run on one or two workloads only; their times (0 elsewhere)
# go to the summary line, their call counts to the per-layer metrics.
SUMMARY_TIMES = {
    "termination.check_s": ("is_weakly_acyclic_ve",),
    "core.relax_s": ("relax_rewrite",),
}
LAYER_COUNTS = (
    "parser.statements",
    "termination.calls",
    "core.relax_calls",
    "chase.calls",
    "chase.atoms",
    "chase.ground_rules",
    "chase.nulls",
    "engine.certain_calls",
    "engine.certain_atoms",
    "engine.lp_rows",
    "engine.lp_columns",
    "engine.lp_fixed",
    "lp.solves",
    "lp.infeasible",
    "lp.denominator_bits",
    "cli.output_bytes",
)

COUNT_UNITS = {"lp.denominator_bits": "bits", "cli.output_bytes": "bytes"}

NULL = re.compile(r"_:n\d+")


def fraction_loop(terms: int = GAUGE_TERMS) -> float:
    """Seconds for a fixed pure-Python Fraction workload: a machine-speed gauge."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction(1, k * (k + 1))
    if total != Fraction(terms, terms + 1):
        raise RuntimeError("fraction loop miscounted")
    return perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and generate the inputs, timed as set-up; then write them.

    Repeated so its median is steady: each round drops the package from
    `sys.modules` and imports it afresh, and is read in gauges against
    the readings just before and after it. Returns the module, the cases,
    and each round's wall seconds and gauges. Writing the `.mvdl` files
    is not timed: creating 1,200 small files on a shared disk took from
    0.05 s to 0.9 s from one round to the next, a cost of the benchmark's
    own that no change to the program can move.
    """
    seconds, gauges = [], []
    reading = fraction_loop()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n.split(".")[0] == "mvdatalog"]:
            del sys.modules[name]
        start = perf_counter()
        cli = importlib.import_module("mvdatalog.cli")
        cases = workloads.generate(workload, seed)
        seconds.append(perf_counter() - start)
        previous, reading = reading, fraction_loop()
        gauges.append(seconds[-1] / ((previous + reading) / 2))
    workdir.mkdir(parents=True)
    for case in cases:
        case.path = workdir / f"{case.stem}.mvdl"
        case.path.write_text(case.text, encoding="utf-8")
    return cli, cases, seconds, gauges


def operations(cases, expected):
    """Each case's solve and query, cycling through the pool forever."""
    calls = []
    for i, (case, model) in enumerate(zip(cases, expected)):
        calls.append((i, "solve", ["solve", str(case.path), *case.options()]))
        threshold = case.threshold(model)
        calls.append(
            (i, "query", ["query", str(case.path), case.query_atom, "--at-least", str(threshold), *case.options()])
        )
    while True:
        yield from calls


def call(cli, argv, tracer=None):
    """One `mvdl` invocation: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        span = tracer.open(ROOT_SPAN) if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"raised {exc!r}"
        if tracer:
            tracer.close(span)
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _canonical_nulls(entries: list[dict]) -> dict[str, Fraction]:
    """The model with each labelled null named by the other arguments of its first atom."""
    names: dict[str, str] = {}
    for e in entries:
        for null in NULL.findall(e["atom"]):
            if null not in names:
                rest = NULL.sub("", e["atom"]).split("(", 1)[-1].strip(" ,)")
                names[null] = "?" + rest
    return {NULL.sub(lambda m: names[m.group()], e["atom"]): Fraction(e["degree"]) for e in entries}


def check(case, model, kind: str, argv, code, stdout: str) -> str | None:
    """Why the call's answer is wrong, or None when it matches the oracle."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"exit {code}, stdout is not JSON"
    if model is None:
        if code != 2 or payload.get("status") != "unsatisfiable":
            return f"expected unsatisfiable (exit 2), got exit {code}"
        return None
    if kind == "solve":
        if code != 0:
            return f"expected exit 0, got {code}"
        got = _canonical_nulls(payload["model"])
        if got != model:
            wrong = sorted(set(got.items()) ^ set(model.items()), key=str)[:3]
            return f"model differs from the oracle: {wrong}"
        return None
    degree = model.get(case.query_atom, Fraction(0))
    threshold = Fraction(argv[4])
    entailed = degree >= threshold
    if code != (0 if entailed else 1):
        return f"expected exit {0 if entailed else 1}, got {code}"
    if Fraction(payload["degree"]) != degree or payload["entailed"] is not entailed:
        return f"query answered {payload['degree']}/{payload['entailed']}, oracle {degree}/{entailed}"
    return None


def tail(samples: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100 - p) / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": ordered[n - beyond - 1], "samples": n}
    return None


class Run:
    """The measured loop and what it observed."""

    def __init__(self, cli, cases, expected, tracer: Tracer | None):
        self.cli = cli
        self.cases = cases
        self.expected = expected
        self.tracer = tracer
        self.times = {"solve": [], "query": [], "traced_solve": [], "traced_query": []}
        self.gauged = {kind: [] for kind in self.times}  # the same calls, in gauges
        self.pending: list[tuple[str, float]] = []  # calls since the last gauge reading
        self.digests: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.traced_ops = 0
        self.cycle_ops = 2 * len(cases)
        self.gauge: list[float] = []
        self.gauge_end = 0.0

    def _one(self, i, kind, argv, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer:
            tracer.op = self.traced_ops
            with tracer.installed():
                code, stdout, stderr, elapsed = call(self.cli, argv, tracer)
            tracer.add_counts({"cli.output_bytes": len(stdout.encode())})
            self.traced_ops += 1
        else:
            code, stdout, stderr, elapsed = call(self.cli, argv)
        self.attempted += 1
        key = ("traced_" if traced else "") + kind
        self.times[key].append(elapsed)
        self.pending.append((key, elapsed))
        case, model = self.cases[i], self.expected[i]
        try:
            problem = check(case, model, kind, argv, code, stdout)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = f"output of an unexpected shape: {exc!r}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.digests.setdefault((i, kind), digest)
        if problem is None and digest != first:
            problem = "stdout differs from the first identical call"
        if problem is not None:
            self.failures.append(f"{case.stem} {kind}{' traced' if traced else ''}: {problem} {stderr.strip()[:200]}")

    def read_gauge(self) -> None:
        """Time the gauge and express each call since the previous reading in gauges.

        A call is divided by the mean of the readings just before and just
        after it, so both see the same stretch of machine time as the call.
        """
        reading = fraction_loop()
        if self.gauge and self.pending:
            scale = (self.gauge[-1] + reading) / 2
            for kind, elapsed in self.pending:
                self.gauged[kind].append(elapsed / scale)
        self.pending = []
        self.gauge.append(reading)
        self.gauge_end = perf_counter()

    def loop(self, seconds: float) -> None:
        """Run until the window closes; a traced run also finishes one full pool cycle."""
        self.read_gauge()
        deadline = perf_counter() + seconds
        for n, (i, kind, argv) in enumerate(operations(self.cases, self.expected)):
            now = perf_counter()
            if now >= self.gauge_end + GAUGE_EVERY_S:
                self.read_gauge()
            if n >= (self.cycle_ops if self.tracer else 2) and now >= deadline:
                break
            if not self.tracer:
                self._one(i, kind, argv, traced=False)
                continue
            # Alternate which of the pair runs first, so that neither side
            # of the overhead estimate always follows the same call.
            for traced in (n % 2 == 1, n % 2 == 0):
                self._one(i, kind, argv, traced)
        if self.pending:
            self.read_gauge()

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics and a summary of every layer's share of the traced time."""
        tracer = self.tracer
        own = tracer.self_times()
        ops = max(self.traced_ops, 1)
        by_name: dict[str, float] = {}
        by_layer: dict[str, float] = {}
        certain_total = 0.0
        for span, self_time in zip(tracer.spans, own):
            name = span[1]
            by_name[name] = by_name.get(name, 0.0) + self_time
            layer = LAYER_OF.get(name, name)
            by_layer[layer] = by_layer.get(layer, 0.0) + self_time
            if name == "certain_closure":
                certain_total += span[3] - span[2]
        metrics = {
            metric: (sum(by_name.get(n, 0.0) for n in names) / ops, "s")
            for metric, names in LAYER_TIMES.items()
        }
        # Counts come from the first full pool cycle only, so that they
        # repeat exactly whatever the machine speed.
        counted = range(min(self.cycle_ops, self.traced_ops))
        for key in LAYER_COUNTS:
            values = [tracer.counts.get(op, {}).get(key, 0) for op in counted]
            value = max(values, default=0) if key in MAX_COUNTS else sum(values) / max(len(values), 1)
            metrics[key] = (value, COUNT_UNITS.get(key, "count"))
        # In gauges, then back to seconds at the run's median gauge reading,
        # so that a change of machine speed between the two sides cancels.
        untraced = statistics.median(self.gauged["solve"])
        traced = statistics.median(self.gauged["traced_solve"])
        metrics["trace.overhead_s"] = ((traced - untraced) * statistics.median(self.gauge), "s")
        total = sum(by_layer.values()) or 1.0
        summary = {
            "traced_ops": self.traced_ops,
            "counted_ops": len(counted),
            "self_time_share": {k: round(v / total, 4) for k, v in sorted(by_layer.items())},
            "engine.certain_s": certain_total / ops,
            **{m: sum(by_name.get(n, 0.0) for n in names) / ops for m, names in SUMMARY_TIMES.items()},
            "trace.overhead_share": (traced - untraced) / untraced,
        }
        return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mvdatalog" / "cli.py").is_file():
        print(f"error: no mvdatalog sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cli, cases, setup_seconds, setup_gauges = set_up(args.workload, args.seed, workdir)
        if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported mvdatalog from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        expected = [case.oracle() for case in cases]
        run = Run(cli, cases, expected, Tracer() if args.trace else None)
        run.loop(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": len(cases),
        "samples": {k: len(v) for k, v in run.times.items() if v},
        "setup_wall_s": statistics.median(setup_seconds),
        "solve_wall_s": statistics.median(run.times["solve"]),
        "query_wall_s": statistics.median(run.times["query"]),
        "error_rate": failed / run.attempted,
        "failures": run.failures[:5],
        "solve_tail_s": tail(run.times["solve"]),
        "machine.fraction_loop_s": statistics.median(run.gauge),
        "gauge_readings": len(run.gauge),
    }
    if args.trace:
        metrics, layer_summary = run.layer_metrics()
        metrics["machine.fraction_loop_s"] = (statistics.median(run.gauge), "s")
        summary.update(layer_summary)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "solve_gauges": (statistics.median(run.gauged["solve"]), "gauge"),
            "query_gauges": (statistics.median(run.gauged["query"]), "gauge"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (statistics.median(setup_gauges) * REFERENCE_GAUGE_S, "s"),
        }
    print(json.dumps({"summary": summary}))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
