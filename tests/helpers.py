"""Definitions that only the tests read, most moved out of the package
unchanged: the linear unraveling's node count, the multiset of branch
labels, a modal forest's branches split under copies of the root (the shape
``coreflect`` once gave), the check
that a forest's origin map is a homomorphism, the Gaifman distance, the
number of traces of one length, pre-order subformulas, the ready-trace
formula and a game witness flattened to records."""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from linspect.games import GameResult
from linspect.logic import FF, TT, Box, Dia, Formula, _children, conj
from linspect.structures import PointedStructure, Structure, UnknownElement, _distances_from
from linspect.traces import ReadyTrace, TraceAutomaton, _layers
from linspect.unravel import ForestObject, _modal_forest, _node_count


def ml_node_count(p: PointedStructure, k: int) -> int:
    """The linear unraveling's size: 1 + the total maximal-run length."""
    return _node_count(p, k, True)


def branch_label_multiset(x: ForestObject) -> Counter:
    """Multiset of maximal-branch label sequences (valuations and actions)."""
    leaves = [n for n in x.nodes if x.is_leaf(n)]
    out: Counter = Counter()
    for leaf in leaves:
        chain = x.path_to_root(leaf)
        labels = tuple(
            (tuple(sorted(x.valuation.get(n, frozenset()))), x.action_in.get(n))
            for n in chain
        )
        out[labels] += 1
    return out


def split_branches(x: ForestObject) -> ForestObject:
    """Each branch of a modal forest as its own chain, with its own copy of
    the root: a forest with one root per leaf.  Node i of branch b is
    ``b<b>.<i>``."""
    steps = []
    for b, leaf in enumerate(n for n in x.nodes if x.is_leaf(n)):
        steps += [
            (f"b{b}.{i}", f"b{b}.{i - 1}" if i else None, x.origin[n], x.valuation[n], x.action_in.get(n))
            for i, n in enumerate(x.path_to_root(leaf))
        ]
    return _modal_forest(x.signature, steps)


@dataclass(frozen=True)
class CounitReport:
    ok: bool
    violations: tuple[str, ...] = ()


def counit_check(x: ForestObject, origin: Structure) -> CounitReport:
    """Verify that the origin map is a homomorphism onto the source structure."""
    violations = []
    for name, rel in x.interp.items():
        for t in sorted(rel):
            image = tuple(x.origin[e] for e in t)
            if image not in origin.interp[name]:
                violations.append(f"{name}{t} maps to {name}{image} which does not hold")
    return CounitReport(ok=not violations, violations=tuple(violations))


def distance(s: Structure, a: str, b: str) -> float:
    """Shortest-path distance in the Gaifman graph; ``inf`` if disconnected."""
    for e in (a, b):
        if e not in s.universe:
            raise UnknownElement(e)
    return _distances_from(s, a).get(b, float("inf"))



def count_words(aut: TraceAutomaton, length: int) -> int:
    """Number of distinct traces of exactly this length."""
    for depth, layer in enumerate(_layers(aut, aut, operator.eq, both=False, counting=True)):
        if depth == length:
            return len(layer)
    return 0



def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, in pre-order, without recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))



def synth_ready_formula(rt: ReadyTrace, actions: Optional[Sequence[str]] = None) -> Formula:
    """A linear formula expressing the ready trace: enabled actions are
    witnessed by diamonds, disabled ones excluded by box-falsum clauses."""
    alphabet = tuple(actions) if actions is not None else tuple(
        sorted(set().union(*rt.ready_sets, set(rt.actions)))
    )

    # built from the last step back: each formula is the body of the next
    body = TT
    for i in range(len(rt.actions), -1, -1):
        ready = rt.ready_sets[i]
        items: list[Formula] = [Box(g, FF) for g in alphabet if g not in ready]
        if i < len(rt.actions):
            step = rt.actions[i]
            items += [Dia(b, TT) for b in sorted(ready) if b != step]
            items.append(Dia(step, body))
        else:
            items += [Dia(b, TT) for b in sorted(ready)]
        body = conj(items)
    return body



def witness_records(result: GameResult) -> list[tuple]:
    """Flatten a strategy witness into sorted (position, response) records,
    naming nodes by their forest ids."""
    if not isinstance(result.witness, dict):
        return []
    return sorted((repr(k), repr(v)) for k, v in result.witness.items())
