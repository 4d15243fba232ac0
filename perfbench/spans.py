"""Spans around the package's layer functions, installed from outside.

No file of the package changes: while a traced call runs, each layer
function below is replaced by a wrapper in every `mvdatalog` module that
holds a reference to it (the modules bind names with `from .x import y`,
so patching the defining module alone would miss most calls). A name a
later version removes or renames is skipped: its layer then reports no
calls and its time falls into the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


def _count_parse(result) -> dict:
    program, database = result
    return {"parser.statements": len(program.rules) + len(database.entries)}


def _count_chase(result) -> dict:
    return {
        "chase.calls": 1,
        "chase.atoms": len(result.olim),
        "chase.ground_rules": len(result.gamma),
        "chase.nulls": len(result.registry.all_nulls()),
    }


def _count_lp_build(result) -> dict:
    lp = result[0] if isinstance(result, tuple) else result
    return {
        "engine.lp_rows": len(lp.constraints),
        "engine.lp_columns": len(lp.variables),
        "engine.lp_fixed": len(lp.fixings),
    }


def _count_solve(result) -> dict:
    bits = max((v.denominator.bit_length() for v in result.assignment.values()), default=0)
    return {"lp.solves": 1, "lp.infeasible": int(not result.optimal), "lp.denominator_bits": bits}


# (span name, defining module, counts taken from the return value)
LAYER_FUNCTIONS: list[tuple[str, str, Callable[[object], dict]]] = [
    ("parse_many", "mvdatalog.parser", _count_parse),
    ("is_weakly_acyclic_ve", "mvdatalog.termination", lambda r: {"termination.calls": 1}),
    ("relax_rewrite", "mvdatalog.core", lambda r: {"core.relax_calls": 1}),
    ("oblivious_chase", "mvdatalog.chase", _count_chase),
    ("certain_closure", "mvdatalog.engine", lambda r: {"engine.certain_calls": 1, "engine.certain_atoms": len(r)}),
    ("build_optk", "mvdatalog.engine", _count_lp_build),
    ("build_eoptk", "mvdatalog.engine", _count_lp_build),
    ("solve", "mvdatalog.lp", _count_solve),
    ("lexicographic_solve", "mvdatalog.lp", lambda r: {}),
]

ROOT = "main"  # the span the benchmark opens around each `mvdatalog.cli.main` call
COUNTING = "trace.count"  # time spent reading counts off results, kept out of every layer

# A span's layer is the module that defines its function.
LAYER_OF = {name: module.rsplit(".", 1)[-1] for name, module, _ in LAYER_FUNCTIONS}
LAYER_OF.update({ROOT: "cli", COUNTING: "trace"})

# Counts reported as the largest value seen; every other count is summed.
MAX_COUNTS = {"lp.denominator_bits"}


class Tracer:
    """Spans and counts of traced calls, kept in memory until written out."""

    def __init__(self) -> None:
        # [op, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def add_counts(self, counts: dict[str, int]) -> None:
        mine = self.counts.setdefault(self.op, {})
        for key, n in counts.items():
            if key in MAX_COUNTS:
                mine[key] = max(mine.get(key, 0), n)
            else:
                mine[key] = mine.get(key, 0) + n

    def _wrap(self, name: str, fn: Callable, count: Callable[[object], dict]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            idx = self.open(COUNTING)
            try:
                self.add_counts(count(result))
            except (AttributeError, TypeError, ValueError):
                pass  # a result of another shape: its counts are simply absent
            finally:
                self.close(idx)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every layer function through a span while the block runs."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mvdatalog"]
        patches = []
        try:
            for name, module_name, count in LAYER_FUNCTIONS:
                original = getattr(sys.modules.get(module_name), name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(name, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("op", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
