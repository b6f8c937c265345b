"""The forest builders as they were before they shared one run walk, kept
unchanged as reference oracles: ``ml_unravel`` chains every maximal run from
``maximal_runs``, ``tree_unravel`` finds each run's parent by its prefix's
states and actions, and ``pr_unravel`` rebuilds each sequence's chain and
relation tuples from scratch.  ``check_condition_p`` is the pebble check as
it was before it walked one branch per tuple: it scans every tuple on every
leaf's chain."""

from __future__ import annotations

from itertools import product

from linspect.structures import PointedStructure, Structure
from linspect.traces import NonModalSignature, Run, maximal_runs, runs_upto
from linspect.unravel import (
    PR_STEP_BUDGET,
    UNRAVEL_NODE_BUDGET,
    ForestObject,
    _modal_forest,
    _node_count,
)


def check_condition_p(f: ForestObject) -> list[str]:
    """Pebble discipline: if nodes a <= a' co-occur in a relation tuple, no node
    in the half-open segment (a, a'] may reuse a's pebble."""
    problems = []
    for leaf in (n for n in f.nodes if f.is_leaf(n)):
        chain = f.path_to_root(leaf)
        pos = {node: i for i, node in enumerate(chain)}
        chain_set = set(chain)
        for rel in f.interp.values():
            for t in rel:
                if not all(e in chain_set for e in t):
                    continue
                for a in t:
                    for a2 in t:
                        if pos[a] >= pos[a2]:
                            continue
                        for mid in chain[pos[a] + 1 : pos[a2] + 1]:
                            if f.pebble[mid] == f.pebble[a]:
                                problems.append(
                                    f"pebble {f.pebble[a]} reused at {mid!r} within ({a!r},{a2!r}]"
                                )
    return sorted(set(problems))


def _run_string(run: Run) -> str:
    steps = "".join(
        f">{act}:{state}" for act, state in zip(run.actions, run.states[1:])
    )
    return f"{run.states[0]}{steps}"


def ml_unravel(p: PointedStructure, k: int) -> tuple[ForestObject, dict[str, str]]:
    """Depth-k linear unraveling: a linear tree with one chain per maximal run.

    Returns the forest and the counit map from nodes to source elements.
    """
    if not p.signature.modal:
        raise NonModalSignature("ml_unravel requires a modal signature")
    _node_count(p, k, True, UNRAVEL_NODE_BUDGET)
    valuation = p.base.valuation

    def steps():
        yield p.point, None, p.point, valuation(p.point), None
        for run in maximal_runs(p, k):
            # the full run tags the chain: distinct runs get disjoint chains
            # even when they share a prefix
            tag = _run_string(run)
            prev = p.point
            for i in range(1, len(run) + 1):
                node = f"{tag}|{i}"
                state = run.states[i]
                yield node, prev, state, valuation(state), run.actions[i - 1]
                prev = node

    forest = _modal_forest(p.signature, steps())
    return forest, dict(forest.origin)


def tree_unravel(p: PointedStructure, k: int) -> ForestObject:
    """Depth-k synchronization tree: nodes are runs, children extend by a step."""
    if not p.signature.modal:
        raise NonModalSignature("tree_unravel requires a modal signature")
    _node_count(p, k, False, UNRAVEL_NODE_BUDGET)
    valuation = p.base.valuation

    def steps():
        # runs come shortest first, so a run's prefix is named before the run
        root = f"@{p.point}"
        ids = {((p.point,), ()): root}
        yield root, None, p.point, valuation(p.point), None
        for run in runs_upto(p, k)[1:]:
            par = ids[run.states[:-1], run.actions[:-1]]
            node = ids[run.states, run.actions] = f"{par}>{run.actions[-1]}:{run.last}"
            yield node, par, run.last, valuation(run.last), run.actions[-1]

    return _modal_forest(p.signature, steps())


def pr_unravel(
    s: Structure, k: int, n: int
) -> tuple[ForestObject, dict[str, str]]:
    """Linear forest of pebble-placement sequences of length <= n over k pebbles.

    A relation tuple holds at positions of one chain iff the relation holds on
    the placed elements in the source structure and every position is its
    pebble's latest placement up to the tuple's last position.  Each chain is
    walked once, keeping each pebble's latest position.  Above
    ``PR_STEP_BUDGET`` the forest is refused before it is built.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("len must be >= 0")
    arities = [arity for _, arity in s.signature.relations]
    steps, sequences = 0, 1
    for i in range(1, min(n, PR_STEP_BUDGET) + 1):  # each length adds at least i
        sequences *= k * len(s.universe)
        steps += sequences * (i + sum(i**arity for arity in arities))
        if steps > PR_STEP_BUDGET:
            raise ValueError(
                f"pr_unravel runs only within its budget of {PR_STEP_BUDGET} steps (nodes "
                f"and position tuples); k={k} and len={n} over {len(s.universe)} elements "
                "take more"
            )
    alphabet = [(pb, el) for pb in range(1, k + 1) for el in s.universe]
    nodes: list[str] = []
    parent: dict[str, str] = {}
    roots: list[str] = []
    origin: dict[str, str] = {}
    pebble: dict[str, int] = {}
    tuples: dict[str, set[tuple[str, ...]]] = {name: set() for name in s.signature.names}

    def add_chain(seq: tuple[tuple[int, str], ...]) -> None:
        tag = "".join(f"({pb}:{el})" for pb, el in seq)
        ids = [f"{tag}|{i}" for i in range(1, len(seq) + 1)]
        latest: dict[int, int] = {}  # pebble -> its latest position so far
        for i, (node, (pb, el)) in enumerate(zip(ids, seq)):
            nodes.append(node)
            origin[node] = el
            pebble[node] = pb
            if i == 0:
                roots.append(node)
            else:
                parent[node] = ids[i - 1]
            latest[pb] = i
            # the tuples whose last position is i
            for name, arity in s.signature.relations:
                for combo in product(latest.values(), repeat=arity):
                    if i in combo and tuple(seq[j][1] for j in combo) in s.interp[name]:
                        tuples[name].add(tuple(ids[j] for j in combo))

    # every sequence in pre-order: a sequence, then its extensions in
    # alphabet order
    stack: list[tuple[tuple[int, str], ...]] = [()]
    while stack:
        seq = stack.pop()
        if seq:
            add_chain(seq)
        if len(seq) < n:
            stack.extend(seq + (step,) for step in reversed(alphabet))
    forest = ForestObject(
        kind="pebbled",
        signature=s.signature,
        nodes=tuple(nodes),
        parent=parent,
        roots=tuple(roots),
        interp={name: frozenset(ts) for name, ts in tuples.items()},
        origin=origin,
        pebble=pebble,
    )
    return forest, dict(origin)
