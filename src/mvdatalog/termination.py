"""Chase-finiteness test: weak acyclicity of the variable expansion.

The plain weak-acyclicity condition is tailored to the restricted chase;
for the oblivious chase the program is first rewritten so that every
existential rule carries all of its body variables through a fresh
starred predicate. A special edge lying on a cycle of the position
dependency graph of the expanded program then signals a potentially
infinite oblivious chase; the test searches for a path back from each
special edge's target to its source, and the first path found closes
the witness cycle.
"""

from __future__ import annotations

from typing import Optional

from .core import Atom, Program, Rule, Value, Variable, _set, make_rule


class PositionVertex(Value):
    _fields = ("predicate", "index")

    def __init__(self, predicate: str, index: int) -> None:  # index is 1-based
        _set(self, "predicate", predicate)
        _set(self, "index", index)

    def __str__(self) -> str:
        return f"{self.predicate}[{self.index}]"


Edge = tuple[PositionVertex, PositionVertex]


class DependencyGraph(Value):
    _fields = ("vertices", "normal_edges", "special_edges")

    def __init__(
        self, vertices: frozenset[PositionVertex], normal_edges: frozenset[Edge], special_edges: frozenset[Edge]
    ) -> None:
        _set(self, "vertices", vertices)
        _set(self, "normal_edges", normal_edges)
        _set(self, "special_edges", special_edges)


class WitnessCycle(Value):
    """A cycle through at least one special edge, as (src, dst, is_special) steps."""

    _fields = ("steps",)

    def __init__(self, steps: tuple[tuple[PositionVertex, PositionVertex, bool], ...]) -> None:
        _set(self, "steps", steps)

    def __str__(self) -> str:
        parts = []
        for src, dst, special in self.steps:
            arrow = "=>" if special else "->"
            parts.append(f"{src} {arrow} {dst}")
        return ", ".join(parts)


def variable_expansion(program: Program) -> Program:
    """Rewrite each existential rule to thread all body variables.

    body(x) -> exists y R(..) becomes body(x) -> exists y R*(head args, x*)
    plus R*(head args, x*) -> R(head args), where x* are the body-only
    variables. Non-existential rules pass through unchanged.
    """
    if not program.has_existential_rules:
        return program
    taken = set(program.signature)
    rules: list[Rule] = []
    for r in program.rules:
        if not r.is_existential:
            rules.append(make_rule(len(rules), r.body, r.head))
            continue
        starred = r.head.predicate + "*"
        while starred in taken:
            starred += "*"
        taken.add(starred)
        body_only = sorted(r.body_variables() - r.head.variables())
        star_args = r.head.args + tuple(Variable(v) for v in body_only)
        star_head = Atom(starred, star_args)
        rules.append(make_rule(len(rules), r.body, star_head))
        rules.append(make_rule(len(rules), [star_head], r.head))
    return Program.from_rules(rules)


def build_dependency_graph(program: Program) -> DependencyGraph:
    vertices = {
        PositionVertex(pred, i + 1)
        for pred, arity in program.signature.items()
        for i in range(arity)
    }
    normal: set[Edge] = set()
    special: set[Edge] = set()
    for r in program.rules:
        body_positions: dict[str, list[PositionVertex]] = {}
        for a in r.body:
            for i, t in enumerate(a.args):
                if isinstance(t, Variable):
                    body_positions.setdefault(t.name, []).append(PositionVertex(a.predicate, i + 1))
        head_vertices: dict[str, list[PositionVertex]] = {}
        existential_positions: list[PositionVertex] = []
        for j, t in enumerate(r.head.args):
            if isinstance(t, Variable):
                v = PositionVertex(r.head.predicate, j + 1)
                if t.name in r.existential_vars:
                    existential_positions.append(v)
                else:
                    head_vertices.setdefault(t.name, []).append(v)
        for var, sources in body_positions.items():
            targets = head_vertices.get(var)
            if not targets:
                continue
            for src in sources:
                for dst in targets:
                    normal.add((src, dst))
                # var occurs in body and head: its positions feed the
                # existentially generated positions via special edges
                for dst in existential_positions:
                    special.add((src, dst))
    return DependencyGraph(frozenset(vertices), frozenset(normal), frozenset(special))


def _shortest_path(
    start: PositionVertex,
    goal: PositionVertex,
    adjacency: dict[PositionVertex, list[PositionVertex]],
) -> Optional[list[PositionVertex]]:
    """Shortest vertex path start -> goal by breadth-first search, or None."""
    if start == goal:
        return [start]
    previous: dict[PositionVertex, PositionVertex] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency.get(v, []):
                if w in seen:
                    continue
                previous[w] = v
                if w == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(previous[path[-1]])
                    return list(reversed(path))
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return None


def is_weakly_acyclic_ve(program: Program) -> tuple[bool, Optional[WitnessCycle]]:
    """Test the expanded program's dependency graph for special-edge cycles.

    Returns (True, None) when the oblivious chase is guaranteed finite, or
    (False, witness) with a concrete cycle through a special edge. The test
    is sufficient, not necessary: a False result only means a step limit is
    required.
    """
    ve = variable_expansion(program)
    graph = build_dependency_graph(ve)
    adjacency: dict[PositionVertex, list[PositionVertex]] = {}
    for src, dst in sorted(graph.normal_edges | graph.special_edges, key=lambda e: (str(e[0]), str(e[1]))):
        adjacency.setdefault(src, []).append(dst)
    for src, dst in sorted(graph.special_edges, key=lambda e: (str(e[0]), str(e[1]))):
        back = _shortest_path(dst, src, adjacency)
        if back is None:
            continue
        steps: list[tuple[PositionVertex, PositionVertex, bool]] = [(src, dst, True)]
        for i in range(len(back) - 1):
            pair = (back[i], back[i + 1])
            steps.append((pair[0], pair[1], pair in graph.special_edges))
        return False, WitnessCycle(tuple(steps))
    return True, None
