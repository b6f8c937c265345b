"""Unraveling constructions: linear modal, branching tree, branch decomposition,
depth-bounded grafting, and the pebble-sequence forest over a general signature.

The linear modal unraveling at depth k has one chain per *maximal* run: a run
of length exactly k, or a shorter run ending in a terminal state.  Chains for
extendable shorter runs would dead-end and manufacture spurious complete
traces; with maximal runs only, the construction is idempotent and the grafted
variant is complete-trace equivalent to its source.  The node count is
therefore 1 + sum of the lengths of the maximal runs.

Both modal unravelings read one breadth-first walk over runs.  A TREE node is
``@`` and its run string (``point>act:state...``); an ML node is its maximal
run's TREE id without the ``@``, plus ``|i``.  The pebble-sequence forest PR
has one chain per pebble sequence of length <= len, maximal or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

from .structures import (
    FormatError,
    PointedStructure,
    Signature,
    Structure,
    _refuse_non_strings,
    induced,
    structure_from_dict,
    structure_to_dict,
)
from .traces import NonModalSignature


@dataclass
class ForestObject:
    """A forest-ordered structure: nodes, parent map, labels, optional pebbles.

    ``interp`` interprets the signature's relations over the nodes.  For modal
    forests the binary relations sit exactly on covering pairs, one action per
    pair; pebbled forests interpret relations by the pebble-reuse conditions
    and may relate non-covering nodes.
    """

    kind: str  # "modal" | "pebbled"
    signature: Signature
    nodes: tuple[str, ...]
    parent: dict[str, str]
    roots: tuple[str, ...]
    interp: dict[str, frozenset[tuple[str, ...]]]
    origin: dict[str, str] = field(default_factory=dict)
    valuation: dict[str, frozenset[str]] = field(default_factory=dict)
    action_in: dict[str, str] = field(default_factory=dict)
    pebble: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child, par in self.parent.items():
            self._children[par].append(child)
        # one walk down from the parentless nodes; a child it misses has a
        # parent cycle above it
        self._depth = {n: 0 for n in self.nodes if n not in self.parent}
        order = list(self._depth)
        for n in order:
            for c in self._children.get(n, ()):
                self._depth[c] = self._depth[n] + 1
                order.append(c)
        for n in self.parent:
            if n not in self._depth:
                raise ValueError(f"parent cycle through {n!r}")
        rootset = set(self.roots)
        for n in self.nodes:
            if (n in self.parent) == (n in rootset):
                raise ValueError(f"node {n!r} must be exactly one of root/child")

    def children(self, node: str) -> tuple[str, ...]:
        return tuple(self._children[node])

    def is_leaf(self, node: str) -> bool:
        return not self._children[node]

    def depth(self, node: str) -> int:
        return self._depth[node]

    def path_to_root(self, node: str) -> tuple[str, ...]:
        """The down-set of ``node`` as a root-first chain."""
        chain = [node]
        while node in self.parent:
            node = self.parent[node]
            chain.append(node)
        return tuple(reversed(chain))

    @property
    def linear(self) -> bool:
        """True iff every up-set of a non-root node is a chain."""
        roots = set(self.roots)
        return all(len(self._children[n]) <= 1 for n in self.nodes if n not in roots)

    def node_count(self) -> int:
        return len(self.nodes)


def check_modal_covering(f: ForestObject) -> list[str]:
    """Condition (M): each covering pair carries exactly one action, and no
    action relates any other pair."""
    problems = []
    for child, par in f.parent.items():
        actions = [
            act for act in f.signature.actions if (par, child) in f.interp[act]
        ]
        if len(actions) != 1:
            problems.append(f"covering pair ({par!r},{child!r}) carries {actions}")
    for act in f.signature.actions:
        for a, b in sorted(f.interp[act]):
            if f.parent.get(b) != a:
                problems.append(f"action {act!r} relates ({a!r},{b!r}), which is not a covering pair")
    return problems


def check_condition_p(f: ForestObject) -> list[str]:
    """Pebble discipline: if nodes a <= a' co-occur in a relation tuple, no node
    in the half-open segment (a, a'] may reuse a's pebble.  A tuple counts
    when its nodes lie on one branch, which is checked on the branch down to
    its deepest node."""
    problems = set()
    for rel in f.interp.values():
        for t in rel:
            branch = f.path_to_root(max(t, key=f.depth))
            pos = {node: i for i, node in enumerate(branch)}
            if not all(e in pos for e in t):
                continue
            for a in t:
                for a2 in t:
                    if pos[a] >= pos[a2]:
                        continue
                    for mid in branch[pos[a] + 1 : pos[a2] + 1]:
                        if f.pebble[mid] == f.pebble[a]:
                            problems.add(
                                f"pebble {f.pebble[a]} reused at {mid!r} within ({a!r},{a2!r}]"
                            )
    return sorted(problems)


# --- linear modal unraveling -------------------------------------------------


# the most nodes ``ml_unravel`` and ``tree_unravel`` may build, and the most
# elements ``ml_graft`` may build with its grafted copies: with two self-loops
# on one state, TREE at k 16 has 131,071 nodes and ML at k 13 has 106,497,
# which took 2.8 s and 1.5 s to build and about 200 MB each (2-vCPU VM,
# Python 3.11)
UNRAVEL_NODE_BUDGET = 100_000


def _node_count(
    p: PointedStructure, k: int, linear: bool, budget: float = math.inf, graft: bool = False
) -> int:
    """The node count of the depth-k linear (``linear``) or tree unraveling,
    refused as soon as it is known to pass ``budget``.

    Runs are counted, not built: one dict per length maps each state to the
    number of runs ending there.  The tree has a node per run, the linear
    unraveling 1 + the total length of the maximal runs.  The runs of length
    i extend to disjoint sets of maximal runs, none shorter, so the count is
    at least the shorter maximal runs' part plus i per run of length i.  With
    ``graft``, each run of length k also counts the elements that ``ml_graft``
    grafts onto its leaf: the part reachable from its end, less the end.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    level, count = {p.point: 1}, int(linear)
    for i in range(k + 1):
        following: dict[str, int] = {}
        ended = 0  # runs of length i that end in a terminal state
        for state, n in level.items():
            targets = [t for act in p.signature.actions for t in p.base.successors(state, act)]
            ended += 0 if targets else n
            for t in targets:
                following[t] = following.get(t, 0) + n
        if linear:
            bound = count + i * sum(level.values())
            count += i * ended
        else:
            bound = count = count + sum(level.values())
        if bound > budget:
            raise ValueError(
                f"{'ml' if linear else 'tree'}_unravel runs only within its budget of "
                f"{budget} nodes; k={k} from {p.point!r} builds more"
            )
        if graft and i == k:
            bound += sum(n * (len(_reachable(p.base, s)) - 1) for s, n in level.items())
            if bound > budget:
                raise ValueError(
                    f"ml_graft runs only within its budget of {budget} elements; k={k} "
                    f"from {p.point!r} builds more"
                )
        if not following:  # every run is maximal: the bound is exact
            break
        level = following
    return bound


def _modal_forest(signature: Signature, steps) -> ForestObject:
    """The modal forest listed by ``steps``.

    Each step is ``(node, parent, origin, valuation, action)``; a root has
    parent and action None.  Node and root order follow the steps, and each
    action relates exactly the covering pairs that it labels.
    """
    nodes: list[str] = []
    roots: list[str] = []
    parent: dict[str, str] = {}
    origin: dict[str, str] = {}
    valuation: dict[str, frozenset[str]] = {}
    action_in: dict[str, str] = {}
    binary: dict[str, set[tuple[str, str]]] = {a: set() for a in signature.actions}
    for node, par, orig, val, act in steps:
        nodes.append(node)
        origin[node] = orig
        valuation[node] = val
        if par is None:
            roots.append(node)
        else:
            parent[node] = par
            action_in[node] = act
            binary[act].add((par, node))
    interp: dict[str, frozenset[tuple[str, ...]]] = {
        prop: frozenset((n,) for n in nodes if prop in valuation[n])
        for prop in signature.propositions
    }
    for act in signature.actions:
        interp[act] = frozenset(binary[act])
    return ForestObject(
        kind="modal",
        signature=signature,
        nodes=tuple(nodes),
        parent=parent,
        roots=tuple(roots),
        interp=interp,
        origin=origin,
        valuation=valuation,
        action_in=action_in,
    )


def _run_layers(p: PointedStructure, k: int, head: str = ""):
    """The runs of length <= k, one list per length, in ``runs_upto``'s order.

    One breadth-first walk, and no ``Run``: each run is ``(text, prefix,
    state, valuation, action)``, where ``text`` is ``head`` followed by the
    run string ``point>act:state>act:state...``, ``prefix`` is the run it
    extends, ``state`` its end with that state's valuation, and ``action`` its
    last action; the point's run has prefix and action None.
    """
    successors, valuation = p.base.successors, p.base.valuation
    actions = p.signature.actions
    layer = [(head + p.point, None, p.point, valuation(p.point), None)]
    for _ in range(k):
        yield layer
        layer = [
            (f"{run[0]}>{act}:{t}", run, t, valuation(t), act)
            for run in layer
            for act in actions
            for t in successors(run[2], act)
        ]
    yield layer


def ml_unravel(p: PointedStructure, k: int) -> tuple[ForestObject, dict[str, str]]:
    """Depth-k linear unraveling: a linear tree with one chain per maximal run.

    The chain of a maximal run names its i-th node by the run string and
    ``|i``, so distinct runs get disjoint chains even when they share a
    prefix.  Returns the forest and the counit map from nodes to source
    elements.
    """
    if not p.signature.modal:
        raise NonModalSignature("ml_unravel requires a modal signature")
    _node_count(p, k, True, UNRAVEL_NODE_BUDGET)
    terminal = p.base.is_terminal

    def steps():
        for length, layer in enumerate(_run_layers(p, k)):
            for run in layer:
                if length == 0:  # the point's run is the root's step
                    yield run
                elif length == k or terminal(run[2]):
                    chain, step = [], run
                    while step[1] is not None:
                        chain.append(step)
                        step = step[1]
                    prev = p.point
                    for i, (_, _, state, val, act) in enumerate(reversed(chain), 1):
                        node = f"{run[0]}|{i}"
                        yield node, prev, state, val, act
                        prev = node

    forest = _modal_forest(p.signature, steps())
    return forest, dict(forest.origin)


def tree_unravel(p: PointedStructure, k: int) -> ForestObject:
    """Depth-k synchronization tree: nodes are runs, children extend by a step.

    A run's node is ``@`` followed by its run string.
    """
    if not p.signature.modal:
        raise NonModalSignature("tree_unravel requires a modal signature")
    _node_count(p, k, False, UNRAVEL_NODE_BUDGET)
    steps = (
        (text, prefix and prefix[0], state, val, act)
        for layer in _run_layers(p, k, "@")
        for text, prefix, state, val, act in layer
    )
    return _modal_forest(p.signature, steps)


def coreflect(x: ForestObject) -> ForestObject:
    """Branch decomposition: one disjoint chain per maximal node's down-set."""
    maximal = [n for n in x.nodes if x.is_leaf(n)]
    nodes: list[str] = []
    parent: dict[str, str] = {}
    roots: list[str] = []
    origin: dict[str, str] = {}
    valuation: dict[str, frozenset[str]] = {}
    action_in: dict[str, str] = {}
    pebble: dict[str, int] = {}
    tuples: dict[str, set[tuple[str, ...]]] = {name: set() for name in x.signature.names}
    for b, leaf in enumerate(maximal):
        chain = x.path_to_root(leaf)
        rename = {orig: f"b{b}.{i}" for i, orig in enumerate(chain)}
        for i, orig in enumerate(chain):
            node = rename[orig]
            nodes.append(node)
            if i == 0:
                roots.append(node)
            else:
                parent[node] = rename[chain[i - 1]]
                if orig in x.action_in:
                    action_in[node] = x.action_in[orig]
            if orig in x.origin:
                origin[node] = x.origin[orig]
            if orig in x.valuation:
                valuation[node] = x.valuation[orig]
            if orig in x.pebble:
                pebble[node] = x.pebble[orig]
        chain_set = set(chain)
        for name, rel in x.interp.items():
            for t in rel:
                if all(e in chain_set for e in t):
                    tuples[name].add(tuple(rename[e] for e in t))
    return ForestObject(
        kind=x.kind,
        signature=x.signature,
        nodes=tuple(nodes),
        parent=parent,
        roots=tuple(roots),
        interp={name: frozenset(ts) for name, ts in tuples.items()},
        origin=origin,
        valuation=valuation,
        action_in=action_in,
        pebble=pebble,
    )


def as_pointed(x: ForestObject) -> PointedStructure:
    """Re-read a single-rooted modal forest as a pointed structure."""
    if x.kind != "modal":
        raise ValueError("as_pointed requires a modal forest")
    if len(x.roots) != 1:
        raise ValueError("as_pointed requires a single root")
    return PointedStructure(
        Structure(x.signature, x.nodes, dict(x.interp)), x.roots[0]
    )


def _reachable(s: Structure, start: str) -> set[str]:
    """The elements reachable from ``start`` via actions."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for act in s.signature.actions:
                for t in s.successors(e, act):
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return seen


def reachable_part(s: Structure, start: str) -> Structure:
    """Induced substructure on elements reachable from ``start`` via actions."""
    return induced(s, _reachable(s, start))


def ml_graft(p: PointedStructure, k: int) -> PointedStructure:
    """Depth-k unraveling with a copy of the source grafted onto each depth-k leaf.

    The grafted copy at leaf (s,k) is the part of the source reachable from the
    leaf's origin; the copy's anchor element is identified with the leaf, so no
    explicit quotient classes are needed.  Grafted nodes are named
    ``leaf-id/element-id``.  Above ``UNRAVEL_NODE_BUDGET`` elements, counted
    with the copies, the structure is refused before it is built.
    """
    _node_count(p, k, True, UNRAVEL_NODE_BUDGET, graft=True)
    forest, counit = ml_unravel(p, k)
    base = as_pointed(forest)
    universe = list(base.base.universe)
    interp: dict[str, set[tuple[str, ...]]] = {
        name: set(base.base.interp[name]) for name in p.signature.names
    }
    depth_k_leaves = [
        n for n in forest.nodes if forest.is_leaf(n) and forest.depth(n) == k
    ]
    parts: dict[str, Structure] = {}  # anchor -> the part reachable from it
    for leaf in depth_k_leaves:
        anchor = counit[leaf]
        if anchor not in parts:
            parts[anchor] = reachable_part(p.base, anchor)
        part = parts[anchor]
        rename = {e: (leaf if e == anchor else f"{leaf}/{e}") for e in part.universe}
        for e in part.universe:
            if e != anchor:
                universe.append(rename[e])
        for name in p.signature.names:
            for t in part.interp[name]:
                interp[name].add(tuple(rename[e] for e in t))
    return PointedStructure(
        Structure(
            p.signature,
            tuple(universe),
            {name: frozenset(ts) for name, ts in interp.items()},
        ),
        forest.roots[0],
    )


# --- pebble-sequence forest ---------------------------------------------------


# the most steps ``pr_unravel`` may take: each of the (k |U|)^i pebble
# sequences of length i builds i nodes and at most i^arity position tuples per
# relation.  500,000 steps take about 2 s (2-vCPU VM, Python 3.11); verify's
# thm54 at size 3, k 2 and len 4 takes 34,650
PR_STEP_BUDGET = 500_000


def pr_unravel(
    s: Structure, k: int, n: int
) -> tuple[ForestObject, dict[str, str]]:
    """Linear forest of pebble-placement sequences of length <= n over k pebbles.

    Each sequence of length 1 to n gets its own chain, named by the sequence
    ``(pebble:element)...`` and ``|i``.  A relation tuple holds at positions of
    one chain iff the relation holds on the placed elements in the source
    structure and every position is its pebble's latest placement up to the
    tuple's last position.  A sequence inherits these tuples from its prefix.
    Above ``PR_STEP_BUDGET`` the forest is refused before it is built.
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
    # each placement with its text, last first, and each position's suffix
    backwards = [(pb, el, f"({pb}:{el})") for pb in range(k, 0, -1) for el in reversed(s.universe)]
    marks = [f"|{j}" for j in range(1, n + 1)]
    nodes: list[str] = []
    parent: dict[str, str] = {}
    roots: list[str] = []
    origin: dict[str, str] = {}
    pebble: dict[str, int] = {}
    tuples: dict[str, set[tuple[str, ...]]] = {name: set() for name in s.signature.names}
    relations = [(s.interp[name], tuples[name].add, arity) for name, arity in s.signature.relations]
    # A fact is a relation's adder and a tuple of positions.  The facts that
    # use a sequence's new position depend only on the latest positions (the
    # new one is the greatest) and the elements placed there, so they are
    # found once for each such pair.
    fresh: dict = {}

    # every sequence in pre-order: a sequence, then its extensions in
    # alphabet order.  A sequence is its prefix's (tag, pebbles, elements,
    # latest position of each pebble, facts) plus one placement and the facts
    # that use it
    stack = [(("", (), (), {}, ()), step) for step in backwards] if n else []
    while stack:
        (tag, pebbles, elements, latest, facts), (pb, el, text) = stack.pop()
        i = len(elements)
        tag += text
        pebbles += (pb,)
        elements += (el,)
        latest = {**latest, pb: i}
        positions = tuple(latest.values())
        key = (positions, tuple(map(elements.__getitem__, positions)))
        new = fresh.get(key)
        if new is None:
            placed = dict(zip(*key)).__getitem__
            new = fresh[key] = tuple(
                (add, combo)
                for rel, add, arity in relations
                for combo in product(positions, repeat=arity)
                if i in combo and tuple(map(placed, combo)) in rel
            )
        facts += new
        ids = [tag + mark for mark in marks[: i + 1]]
        nodes += ids
        origin.update(zip(ids, elements))
        pebble.update(zip(ids, pebbles))
        roots.append(ids[0])
        parent.update(zip(ids[1:], ids))
        named = ids.__getitem__
        for add, combo in facts:
            add(tuple(map(named, combo)))
        if i + 1 < n:
            state = (tag, pebbles, elements, latest, facts)
            stack += [(state, step) for step in backwards]
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


def forest_to_dict(x: ForestObject) -> dict:
    """Structure-file form with the added forest block."""

    data = structure_to_dict(
        Structure(x.signature, x.nodes, dict(x.interp)),
        x.roots[0] if len(x.roots) == 1 else None,
    )
    block: dict = {
        "parent": {c: p for c, p in sorted(x.parent.items())},
        "roots": list(x.roots),
    }
    if x.pebble:
        block["pebble"] = {n: x.pebble[n] for n in sorted(x.pebble)}
        # pebbled path comparisons need placement identity, which node names
        # alone do not carry
        block["origin"] = {n: x.origin[n] for n in sorted(x.origin)}
    data["forest"] = block
    return data


def _refuse_foreign(values: list, universe: frozenset[str], where: str) -> None:
    """Raise a FormatError naming the first value that is not a string, or
    not a node of the universe."""
    _refuse_non_strings(values, where)
    foreign = [v for v in values if v not in universe]
    if foreign:
        raise FormatError(f"{where}: {foreign[0]!r} is not in the universe")


def forest_from_dict(data: dict) -> ForestObject:
    """Decode a forest file: a structure file plus a forest block.

    The block is checked in one pass: node ids are strings of the universe,
    every ``parent`` entry and root among them, and each pebble a positive
    int.  Then a modal forest must meet condition (M) and a pebbled one, which
    gives every node a pebble, condition (P).  Each refusal is a
    ``FormatError`` naming the value.
    """
    s, point, block = structure_from_dict(data)
    if block is None:
        raise ValueError("missing forest block")
    parent, roots = block.get("parent"), block.get("roots")
    pebble, origin = block.get("pebble", {}), block.get("origin", {})
    if not (isinstance(parent, dict) and isinstance(roots, list)
            and isinstance(pebble, dict) and isinstance(origin, dict)):
        raise FormatError("a forest block has a parent object, a roots list, and "
                          "pebble and origin objects if any")
    universe = frozenset(s.universe)
    for where, ids in (("parent", [*parent, *parent.values()]), ("roots", roots),
                       ("pebble", list(pebble)), ("origin", list(origin))):
        _refuse_foreign(ids, universe, f"forest {where}")
    _refuse_non_strings(origin.values(), "forest origin")
    for v in pebble.values():
        if type(v) is not int or v < 1:
            raise FormatError(f"forest pebble: {v!r} is not a positive int")
    if pebble and len(pebble) < len(universe):
        bare = next(n for n in s.universe if n not in pebble)
        raise FormatError(f"forest pebble: node {bare!r} has none")
    kind = "pebbled" if pebble else "modal"
    modal = kind == "modal"
    forest = ForestObject(
        kind=kind,
        signature=s.signature,
        nodes=s.universe,
        parent=dict(parent),
        roots=tuple(roots),
        interp=dict(s.interp),
        origin=dict(origin) or {n: n for n in s.universe},
        valuation={n: s.valuation(n) for n in s.universe} if modal else {},
        action_in={b: act for act in s.signature.actions for _, b in s.interp[act]} if modal else {},
        pebble=dict(pebble),
    )
    problems = check_modal_covering(forest) if modal else check_condition_p(forest)
    if problems:
        raise FormatError(f"not a {kind} forest: {problems[0]}")
    return forest
