"""Reference answers computed without the package under test.

Nothing here imports `mvdatalog`: every degree the benchmark checks the
CLI against comes from these functions alone, so a fault in the program
cannot hide behind a fault shared with its checker.

Atoms are `(predicate, args)` tuples with string arguments; an argument
starting with an uppercase letter is a variable. A model maps ground
atoms to positive `Fraction` degrees; `None` means unsatisfiable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)

Atom = tuple  # (predicate, tuple[str, ...])
Rule = tuple  # (head atom, tuple of body atoms)
Model = Optional[dict]


def atom_text(a: Atom) -> str:
    """The atom as the CLI prints it: `p(a, b)`."""
    predicate, args = a
    return f"{predicate}({', '.join(args)})" if args else predicate


def _is_var(term: str) -> bool:
    return term[:1].isupper()


def _ground(a: Atom, binding: dict) -> Atom:
    return (a[0], tuple(binding.get(t, t) for t in a[1]))


def fuzzy_fixpoint(
    rules: list[Rule], facts: dict[Atom, Fraction], K: Fraction, constants: list[str]
) -> Model:
    """The minimal K-fuzzy model of a plain program, by brute force.

    Every rule is grounded over every tuple of `constants`, and the
    consequence operator nu(H) >= max(0, sum nu(body) - (l - 1)) - 1 + K
    is iterated from the database to its least fixed point. A database
    atom pushed above its pinned degree makes the instance unsatisfiable.
    """
    groundings = []
    for head, body in rules:
        variables = sorted({t for b in body for t in b[1] if _is_var(t)})
        for combo in itertools.product(constants, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            groundings.append((_ground(head, binding), [_ground(b, binding) for b in body]))
    nu = dict(facts)
    atoms = set(nu) | {h for h, _ in groundings}
    for _ in range(10 * len(atoms) + 10):
        changed = False
        for head, body in groundings:
            value = sum((nu.get(b, ZERO) for b in body), ZERO) - len(body) + K
            if value > nu.get(head, ZERO):
                nu[head] = value
                changed = True
        if not changed:
            break
    else:
        raise RuntimeError("fuzzy fixpoint did not stabilise")
    if any(nu[a] > d for a, d in facts.items()):
        return None
    return {a: v for a, v in nu.items() if v > ZERO}


def relaxed_fixpoint(
    rules: list[Rule], facts: dict[Atom, Fraction], K: Fraction, constants: list[str]
) -> Model:
    """The minimal model in relaxed mode, as the CLI presents it.

    Each database predicate R gets a copy R* that every rule reads and
    writes instead of R, plus a bridge rule R*(x) :- R(x); database
    degrees then act as lower bounds up to K. The presented model shows
    R* under the name R and drops the pinned R atoms.
    """
    pinned = {a[0] for a in facts}
    arity = {a[0]: len(a[1]) for a in facts}

    def star(a: Atom) -> Atom:
        return ((a[0], "*"), a[1]) if a[0] in pinned else a

    bridges = []
    for p in sorted(pinned):
        args = tuple(f"X{i}" for i in range(arity[p]))
        bridges.append((((p, "*"), args), ((p, args),)))
    rewritten = bridges + [(star(h), tuple(star(b) for b in body)) for h, body in rules]
    model = fuzzy_fixpoint(rewritten, facts, K, constants)
    if model is None:
        return None
    presented = {}
    for (predicate, args), degree in model.items():
        if isinstance(predicate, tuple):
            presented[(predicate[0], args)] = degree
        elif predicate not in pinned:
            presented[(predicate, args)] = degree
    return presented


def chain_degrees(edge_degrees: list[Fraction], K: Fraction) -> list[Fraction]:
    """Degrees of reach(v0..vn) along a path whose source is fully true.

    Closed form: each step costs (1 - e_i) + (1 - K), and a degree that
    reaches 0 stays there, so r(v_i) = max(0, 1 - sum of the first i costs).
    """
    out = [ONE]
    spent = ZERO
    for e in edge_degrees:
        spent += (ONE - e) + (ONE - K)
        out.append(max(ZERO, ONE - spent))
    return out


def grid_degrees(side: int, right: dict, down: dict) -> dict[tuple[int, int], Fraction]:
    """Degrees of reach(i, j) on a grid DAG at K = 1, source (0, 0) fully true.

    Longest-path recurrence in topological (row-major) order:
    r(v) = max over edges u -> v of max(0, r(u) + e - 1).
    `right[(i, j)]` is the degree of the edge (i, j) -> (i, j + 1) and
    `down[(i, j)]` that of (i, j) -> (i + 1, j).
    """
    r = {(0, 0): ONE}
    for i in range(side):
        for j in range(side):
            if (i, j) == (0, 0):
                continue
            best = ZERO
            if j > 0:
                best = max(best, r[(i, j - 1)] + right[(i, j - 1)] - ONE)
            if i > 0:
                best = max(best, r[(i - 1, j)] + down[(i - 1, j)] - ONE)
            r[(i, j)] = best
    return r


def keyperson_null_degree(known: list[Fraction], K: Fraction) -> Fraction:
    """Degree of kp(null, c) in the preferred model: max(0, K - sum of known degrees).

    The existential head of `kp(Y, X) :- company(X)` is satisfied by the
    sum of every kp(_, c) atom; the known ones are pinned, so the invented
    one carries only what they leave uncovered, and no more.
    """
    return max(ZERO, K - sum(known, ZERO))
