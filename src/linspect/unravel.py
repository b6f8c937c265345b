"""Unraveling constructions: linear modal, branching tree, the coreflection
onto linear forests, depth-bounded grafting, and the pebble-sequence forest
over a general signature.

The linear modal unraveling at depth k has one chain per *maximal* run: a run
of length exactly k, or a shorter run ending in a terminal state.  Chains for
extendable shorter runs would dead-end and manufacture spurious complete
traces; with maximal runs only, the construction is idempotent and the grafted
variant is complete-trace equivalent to its source.  The node count is
therefore 1 + sum of the lengths of the maximal runs.

A forest's linear shape is its coreflection (``coreflect``): each root is
kept, and every leaf below it gets its own chain under it, whose node at
depth i is named by the leaf and ``|i``.  A copy of the root per chain would
not be a coreflection, as a linear forest with one root could then map into
only one branch of a tree.  ML is the coreflection of TREE: a TREE node is
``@`` and its run string (``point>act:state...``), read in breadth-first
order, and an ML node its maximal run's TREE id without the ``@``, plus
``|i``.  The pebble-sequence forest PR is not yet the coreflection of a
branching pebble forest: it has one chain per pebble sequence of length <=
len, maximal or not.

Each comonad has one generator, a *view* (``MLView``, ``TreeView``,
``PRView``) that makes a node the first time ``children`` lists it.  A view
answers ``roots``, ``children(node)``, ``depth(node)``, ``labels`` (node ->
the label the back-and-forth game compares) and ``node_count()``, known
before any node is made; ``force()`` makes every node and returns the
``ForestObject``, which answers the same protocol.  ``ml_unravel``,
``tree_unravel`` and ``pr_unravel`` are the forced views.  The coreflection
is a view over any view or ``ForestObject``, and ``MLView`` is the
coreflection view of a ``TreeView``.  A modal node's
label is its valuation and incoming action (None at a root).  A pebbled
node's label is its pebble, the other pebbles whose latest placement on its
path holds its element, and its new facts: the relation tuples whose deepest
node it is, as (relation, offsets upward).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import product
from operator import itemgetter

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
    and may relate non-covering nodes.  It is a view with every node made.
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
    # a forced view's children and depth maps, which need no walk or check
    shape: InitVar[tuple | None] = None

    def __post_init__(self, shape) -> None:
        if shape is not None:
            self._children, self._depth = shape
            return
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

    def force(self) -> ForestObject:
        return self

    def _extend(self, spec: tuple) -> list[tuple]:
        """A node's children as a view's specs, from the node's spec."""
        node, depth, origin, labels = spec[0], spec[2] + 1, self.origin, self.labels
        kids = self.roots if node is None else self._children[node]
        return [(kid, node, depth, origin.get(kid), None, labels[kid]) for kid in kids]

    @cached_property
    def labels(self) -> dict:
        """Each node's label, as the module docstring defines it; a pebbled
        node's facts are read off ``interp``, ignoring tuples that leave one
        chain."""
        if self.kind == "modal":
            return {n: (self.valuation[n], self.action_in.get(n)) for n in self.nodes}
        facts: dict[str, list[tuple]] = {n: [] for n in self.nodes}
        for name, rel in self.interp.items():
            for t in rel:
                deepest = max(t, key=self.depth)
                up = [deepest]  # and its ancestors as high as t reaches
                while len(up) <= self.depth(deepest) - min(map(self.depth, t)):
                    up.append(self.parent[up[-1]])
                if set(t) <= set(up):
                    facts[deepest].append((name, tuple(up.index(e) for e in t)))
        # node -> each pebble's element at its latest placement on the node's path
        latest: dict = {None: {}}
        labels = {}
        for n in sorted(self.nodes, key=self.depth):
            above = latest[self.parent.get(n)]
            pb, el = self.pebble[n], self.origin[n]
            latest[n] = {**above, pb: el}
            same = frozenset(q for q, e in above.items() if q != pb and e == el)
            labels[n] = (pb, same, frozenset(facts[n]))
        return labels


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
    successors, actions = p.base.successors, p.signature.actions
    level, count = {p.point: 1}, int(linear)
    for i in range(k + 1):
        following: dict[str, int] = {}
        ended = 0  # runs of length i that end in a terminal state
        for state, n in level.items():
            terminal = True
            for act in actions:
                for t in successors(state, act):
                    following[t] = following.get(t, 0) + n
                    terminal = False
            ended += n if terminal else 0
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


def _modal_forest(signature: Signature, steps, shape: tuple | None = None) -> ForestObject:
    """The modal forest listed by ``steps``, of a view's ``shape`` if given.

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
        shape=shape,
    )


def _pebbled_forest(signature: Signature, steps, shape: tuple) -> ForestObject:
    """The pebbled forest listed by a view's ``steps``, in pre-order, each
    ``(node, parent, origin, pebble, same, facts)``: each node's facts,
    named along its chain, are the relations."""
    depth = shape[1]
    tuples: dict[str, set[tuple[str, ...]]] = {name: set() for name in signature.names}
    chain: list[str] = []
    for node, _, _, _, _, facts in steps:
        d = depth[node]
        del chain[d:]
        chain.append(node)
        for name, offsets in facts:
            tuples[name].add(tuple(chain[d - off] for off in offsets))
    return ForestObject(
        kind="pebbled",
        signature=signature,
        nodes=tuple(step[0] for step in steps),
        parent={node: par for node, par, *_ in steps if par is not None},
        roots=tuple(node for node, par, *_ in steps if par is None),
        interp={name: frozenset(ts) for name, ts in tuples.items()},
        origin={step[0]: step[2] for step in steps},
        pebble={step[0]: step[3] for step in steps},
        shape=shape,
    )


_EMPTY_PATH = (None, None, -1, None, None, ())  # the spec of the empty path


def _chain_step(spec: tuple, marks: list[str]) -> list[tuple]:
    """The one child of a chain node, if its chain goes on.  The node reads
    its chain's ``(tag, entries)``, one ``(origin, label)`` entry per depth,
    and the chain's node at depth d is named by the tag and ``marks[d]``."""
    tag, entries = spec[4]
    depth = spec[2] + 1
    if depth == len(entries):
        return []
    origin, label = entries[depth]
    return [(tag + marks[depth], spec[0], depth, origin, spec[4], label)]


class _View:
    """What the views share.  A node's spec is ``(node, parent, depth,
    origin, what _extend reads, label)``; ``_extend(spec)`` lists the specs
    of the node's children, and the roots are the children of the empty
    path, whose node is None.  ``children`` keeps the specs of the nodes it
    makes, once per node, and their labels in ``labels``; ``force`` walks
    ``_extend`` over every node."""

    depth_first = True  # the forced node order: pre-order, else by depth

    def __init__(self, kind: str, signature: Signature, count: int | None) -> None:
        self.kind, self.signature, self._count = kind, signature, count
        self.labels: dict = {}
        self._made: dict = {None: _EMPTY_PATH}
        self._kids: dict = {}
        self._forced: ForestObject | None = None

    @property
    def roots(self) -> tuple[str, ...]:
        return self.children(None)

    def children(self, node: str | None) -> tuple[str, ...]:
        kids = self._kids.get(node)
        if kids is None:
            made, labels, kids = self._made, self.labels, []
            for child in self._extend(made[node]):
                made[child[0]] = child
                labels[child[0]] = child[5]
                kids.append(child[0])
            kids = self._kids[node] = tuple(kids)
        return kids

    def depth(self, node: str) -> int:
        return self._made[node][2]

    def node_count(self) -> int:
        return self._count

    def force(self) -> ForestObject:
        """The forest with every node made, in the forced node order: one
        walk of ``_extend`` from the empty path, depth first (pre-order) or
        by depth, that keeps each node as a forest step ``(node, parent,
        origin, *label)`` rather than as a made node of the view."""
        if self._forced is None:
            steps, kids, depth, first, extend = [], {}, {}, itemgetter(0), self._extend
            pending = deque([_EMPTY_PATH])
            take, later = (pending.pop, reversed) if self.depth_first else (pending.popleft, iter)
            while pending:
                spec = take()
                listed = extend(spec)
                kids[spec[0]] = tuple(map(first, listed))
                depth[spec[0]] = spec[2]
                steps.append((spec[0], spec[1], spec[3]) + spec[5])
                pending.extend(later(listed))
            del kids[None], depth[None], steps[0]
            self._forced = self._forest(steps, (kids, depth))
        return self._forced

    def _forest(self, steps: list[tuple], shape: tuple) -> ForestObject:
        build = _modal_forest if self.kind == "modal" else _pebbled_forest
        return build(self.signature, steps, shape)


class _Coreflection(_View):
    """The linear forest of a forest view or ``ForestObject`` x, made on
    demand: its coreflection onto the linear forests.  Each root of x is
    kept, and every leaf of x below it gets its own chain under it, whose
    node at depth i is named ``<leaf>|i`` and carries the origin and label of
    the leaf's path node at depth i.  A root that is a leaf has no chain.
    ``count`` is the node count: x's roots and, per leaf below a root, the
    leaf's depth."""

    def __init__(self, x, count: int) -> None:
        super().__init__(x.kind, x.signature, count)
        self._x, self._marks = x, ["|0"]

    def _extend(self, spec: tuple) -> list[tuple]:
        """A root's spec is its spec in x, a chain node reads its chain."""
        if spec[0] is None:
            return self._x._extend(spec)
        if spec[2]:
            return _chain_step(spec, self._marks)
        # the chains' heads, by x's nodes below the root, one depth at a time;
        # an entry is (spec, (origin, label), the entry above), and a leaf's
        # chain is read once, up its links
        extend, marks, heads = self._x._extend, self._marks, []
        layer = [(spec, None, None)]
        while layer:
            below = []
            for entry in layer:
                kids = extend(entry[0])
                if kids:
                    below += [(kid, (kid[3], kid[5]), entry) for kid in kids]
                elif entry[2] is not None:
                    leaf, entries = entry[0][0], []
                    while entry[2] is not None:
                        entries.append(entry[1])
                        entry = entry[2]
                    entries.append(None)  # the root's own entry, never read
                    entries.reverse()
                    while len(marks) < len(entries):
                        marks.append(f"|{len(marks)}")
                    # the head follows the root, read as the chain's node at depth 0
                    heads += _chain_step((spec[0], None, 0, None, (leaf, entries)), marks)
            layer = below
        return heads


class MLView(_Coreflection):
    """Depth-k linear unraveling made on demand: the coreflection of the
    depth-k TREE with no ``@`` before its run strings, so the chain of a
    maximal run names its i-th node by the run string and ``|i``.  Its node
    count is counted, and refused above ``UNRAVEL_NODE_BUDGET``, before the
    TREE is made.  Every run lies on a maximal run, so the TREE has no more
    nodes than ML and is not counted again."""

    def __init__(self, p: PointedStructure, k: int) -> None:
        if not p.signature.modal:
            raise NonModalSignature("ml_unravel requires a modal signature")
        count = _node_count(p, k, True, UNRAVEL_NODE_BUDGET)
        super().__init__(TreeView(p, k, "", count), count)


class TreeView(_View):
    """Depth-k synchronization tree made on demand: nodes are runs, children
    extend by a step, per action, then successor.  A run is its node's spec
    ``(text, prefix's text, length, state, prefix, (valuation, action))``:
    ``text`` is ``head`` followed by the run string
    ``point>act:state>act:state...``, ``state`` its end, with that state's
    valuation and the last action as its label, and ``prefix`` the run it
    extends.  The node count is counted, and refused above
    ``UNRAVEL_NODE_BUDGET``, unless ``count`` is given: ``MLView`` gives its
    own, which has passed the budget and bounds the tree's, and never asks
    its TREE for a count."""

    depth_first = False

    def __init__(self, p: PointedStructure, k: int, head: str = "@", count: int | None = None) -> None:
        if not p.signature.modal:
            raise NonModalSignature("tree_unravel requires a modal signature")
        if count is None:
            count = _node_count(p, k, False, UNRAVEL_NODE_BUDGET)
        super().__init__("modal", p.signature, count)
        self._successors, self._valuation = p.base.successors, p.base.valuation
        self._actions, self._k = p.signature.actions, k
        # the run of length 0, with no prefix and no action
        self._root = (head + p.point, None, 0, p.point, None, (self._valuation(p.point), None))

    def _extend(self, run: tuple) -> list[tuple]:
        if run[0] is None:
            return [self._root]
        if run[2] >= self._k:
            return []
        successors, valuation, text = self._successors, self._valuation, run[0]
        return [
            (f"{text}>{act}:{t}", text, run[2] + 1, t, run, (valuation(t), act))
            for act in self._actions
            for t in successors(run[3], act)
        ]


def ml_unravel(p: PointedStructure, k: int) -> tuple[ForestObject, dict[str, str]]:
    """The forced ``MLView`` and its counit map from nodes to source elements."""
    forest = MLView(p, k).force()
    return forest, dict(forest.origin)


def tree_unravel(p: PointedStructure, k: int) -> ForestObject:
    """The forced ``TreeView``."""
    return TreeView(p, k).force()


def coreflect(x) -> ForestObject:
    """The forced coreflection of a forest view or ``ForestObject``."""
    x = x.force()
    count = len(x.roots) + sum(x.depth(n) for n in x.nodes if x.is_leaf(n))
    return _Coreflection(x, count).force()


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
    return _ml_graft(p, k)[0]


def _ml_graft(p: PointedStructure, k: int) -> tuple[PointedStructure, PointedStructure]:
    """``ml_graft``'s structure and the depth-k ML unraveling it grafts onto,
    read as a pointed structure."""
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
    frozen = {name: frozenset(ts) for name, ts in interp.items()}
    grafted = Structure(p.signature, tuple(universe), frozen)
    return PointedStructure(grafted, base.point), base


# --- pebble-sequence forest ---------------------------------------------------


# the most steps ``pr_unravel`` may take: each of the (k |U|)^i pebble
# sequences of length i builds i nodes and at most i^arity position tuples per
# relation.  500,000 steps take about 2 s (2-vCPU VM, Python 3.11); verify's
# thm54 at size 3, k 2 and len 4 takes 34,650
PR_STEP_BUDGET = 500_000


class PRView(_View):
    """Linear forest of pebble-placement sequences of length <= n over k
    pebbles, made on demand.

    Each sequence of length 1 to n gets its own chain, named by the sequence
    ``(pebble:element)...`` and ``|i``.  A relation tuple holds at positions
    of one chain iff the relation holds on the placed elements in the source
    structure and every position is its pebble's latest placement up to the
    tuple's last position, so a node's label depends only on its sequence's
    prefix up to it.  Above ``PR_STEP_BUDGET`` the view is refused before it
    is made.
    """

    def __init__(self, s: Structure, k: int, n: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n < 0:
            raise ValueError("len must be >= 0")
        arities = [arity for _, arity in s.signature.relations]
        steps, sequences, count = 0, 1, 0
        for i in range(1, min(n, PR_STEP_BUDGET) + 1):  # each length adds at least i
            sequences *= k * len(s.universe)
            count += i * sequences
            steps += sequences * (i + sum(i**arity for arity in arities))
            if steps > PR_STEP_BUDGET:
                raise ValueError(
                    f"pr_unravel runs only within its budget of {PR_STEP_BUDGET} steps (nodes "
                    f"and position tuples); k={k} and len={n} over {len(s.universe)} elements "
                    "take more"
                )
        super().__init__("pebbled", s.signature, count)
        self._s, self._k, self._marks = s, k, [f"|{j}" for j in range(1, n + 1)]

    def _extend(self, spec: tuple) -> list[tuple]:
        """A node reads its sequence's ``(tag, (element, label) per position)``."""
        if spec[4] is not None:
            return _chain_step(spec, self._marks)
        s, k, n = self._s, self._k, len(self._marks)
        # each placement with its text, last first
        backwards = [
            (pb, el, f"({pb}:{el})") for pb in range(k, 0, -1) for el in reversed(s.universe)
        ]
        relations = [(s.interp[name], name, arity) for name, arity in s.signature.relations]
        known: dict = {}  # (latest placements, their elements) -> the new node's label
        roots = []
        # every sequence in pre-order: a sequence, then its extensions in
        # alphabet order.  A sequence is its prefix's (tag, elements, latest
        # position of each pebble, chain) plus one placement
        stack = [(("", (), {}, ()), step) for step in backwards] if n else []
        while stack:
            (tag, elements, latest, chain), (pb, el, text) = stack.pop()
            i = len(elements)
            tag += text
            elements += (el,)
            latest = {**latest, pb: i}
            key = (tuple(latest.items()), tuple(map(elements.__getitem__, latest.values())))
            label = known.get(key)
            if label is None:
                placed = dict(zip(latest.values(), key[1])).__getitem__
                facts = frozenset(
                    (name, tuple(i - j for j in combo))
                    for rel, name, arity in relations
                    for combo in product(latest.values(), repeat=arity)
                    if i in combo and tuple(map(placed, combo)) in rel
                )
                same = frozenset(q for q, j in latest.items() if j != i and elements[j] == el)
                label = known[key] = (pb, same, facts)
            chain += ((el, label),)
            roots.append((tag + "|1", None, 0, chain[0][0], (tag, chain), chain[0][1]))
            if i + 1 < n:
                stack += [((tag, elements, latest, chain), step) for step in backwards]
        return roots


def pr_unravel(s: Structure, k: int, n: int) -> tuple[ForestObject, dict[str, str]]:
    """The forced ``PRView`` and its counit map from nodes to placed elements."""
    forest = PRView(s, k, n).force()
    return forest, dict(forest.origin)


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
    if x.kind == "pebbled":
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
    int.  A block with a ``pebble`` object is pebbled, even an empty one, and
    must give every node a pebble.  Then a modal forest must meet condition
    (M) and a pebbled one condition (P).  Each refusal is a ``FormatError``
    naming the value.
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
    modal = "pebble" not in block
    kind = "modal" if modal else "pebbled"
    if not modal and len(pebble) < len(universe):
        bare = next(n for n in s.universe if n not in pebble)
        raise FormatError(f"forest pebble: node {bare!r} has none")
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
