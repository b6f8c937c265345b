"""Reference implementations (morphism / embedding / span / isomorphism
search over forest objects) and the executable verification suites.

Homomorphisms and pathwise embeddings of forests are read off the
existential(-positive) back-and-forth game, and spans of open pathwise
embeddings off the full game: the positions Duplicator's strategy reaches
are the mediator.  One bottom-up labelling,
``_canon_ids``, decides isomorphism of forests at any depth, and
``pointed_iso`` decides isomorphism with a tree-shaped pointed structure (an
unraveling read as one, in prop85's window check and the chain replay) by
the same labelling, with no search.

Every suite draws reproducible samples via the seed protocol
``seed + sample_index`` and evaluates each claim through independent code
paths, reporting agreements and the first counterexample found.  All but
cor74, which pools its draws into one universe, run their samples through
the one seeded loop ``_sampled``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

from .structures import (
    PointedStructure,
    Signature,
    Structure,
    ball,
    disjoint_union,
    pointed_sum,
    sum_many,
)
from .traces import check_trace_relation, runs_upto
from .unravel import (
    ForestObject,
    MLView,
    PRView,
    TreeView,
    _ml_graft,
    _modal_forest,
    as_pointed,
    ml_graft,
    ml_unravel,
)
from .games import (
    _START,
    _after,
    solve_back_and_forth,
    solve_bisim,
    solve_ef,
    solve_ppeb,
)
from .logic import (
    DEADLOCK,
    Dia,
    Formula,
    NegProp,
    Or,
    Prop,
    UnionModel,
    _Plan,
    conj,
    modal_depth,
    render_formula,
    synth_characteristic,
    truth_vectors,
)


# --- morphism search ----------------------------------------------------------


@dataclass(frozen=True)
class MorphismWitness:
    kind: str
    mapping: dict  # node -> node (for spans: mediator-node -> node, per side)
    mapping2: Optional[dict] = None
    mediator: Optional[ForestObject] = None


def _canon_ids(roots, children, label) -> tuple[dict[str, int], tuple]:
    """Tree-isomorphism labelling (Aho, Hopcroft and Ullman, 1974): each node
    below ``roots`` gets an int id naming its subtree, up to isomorphism, among
    the nodes at its depth.  Deepest level first, each level's distinct (label,
    sorted child ids) keys are sorted and numbered on, so no name or order
    enters.  Also returns the flat canon: the keys in id order and the sorted
    root ids."""
    levels = [list(roots)]
    while levels[-1]:
        levels.append([c for n in levels[-1] for c in children(n)])
    ids: dict[str, int] = {}
    table: list[tuple] = []
    for level in reversed(levels):
        keys = [(label(n), tuple(sorted([ids[c] for c in children(n)]))) for n in level]
        distinct = sorted(set(keys))
        number = {key: i for i, key in enumerate(distinct, len(table))}
        table += distinct
        ids.update(zip(level, map(number.__getitem__, keys)))
    return ids, (tuple(table), tuple(sorted([ids[r] for r in roots])))


def _forest_ids(f) -> tuple[dict[str, int], tuple]:
    """``_canon_ids`` of a forest or a view, which it makes whole.  A modal
    node's key is its sorted valuation and incoming action, "" at a root.  A
    pebbled node's key is its pebble and its facts, the relation tuples whose
    deepest element it is, as offsets upward; tuples that leave one chain are
    ignored."""
    labels = f.labels
    if f.kind == "modal":
        return _canon_ids(
            f.roots, f.children, lambda n: (tuple(sorted(labels[n][0])), labels[n][1] or "")
        )
    return _canon_ids(f.roots, f.children, lambda n: (labels[n][0], tuple(sorted(labels[n][2]))))


def forest_canon(f: ForestObject) -> tuple:
    """A flat value, equal for two forests exactly when they are isomorphic."""
    return _forest_ids(f)[1]


def check_open_embedding(
    z: ForestObject, target: ForestObject, mapping: dict
) -> bool:
    """Is the mapping an open pathwise embedding (labels exact, roots onto
    roots, child covers lifted)?"""
    if {mapping[r] for r in z.roots} != set(target.roots):
        return False
    for node in z.nodes:
        img = mapping[node]
        if z.valuation.get(node) != target.valuation.get(img):
            return False
        if z.action_in.get(node) != target.action_in.get(img):
            return False
        par = z.parent.get(node)
        if par is not None and mapping[par] != target.parent.get(img):
            return False
        covered = {mapping[c] for c in z.children(node)}
        if not set(target.children(img)) <= covered:
            return False
    return True


def find_morphism(x, y, kind: str) -> Optional[MorphismWitness]:
    """Search for the requested morphism kind; None is an answer.

    A homomorphism (pathwise embedding) is Duplicator's strategy in the
    existential-positive (existential) back-and-forth game from x to y:
    Duplicator's answers to Spoiler's moves map x's nodes.  A span of open
    pathwise embeddings of modal forests is Duplicator's strategy in the full
    game: the positions it reaches are the mediator's nodes, under the
    positions they were reached from, and the two projections are its legs.
    ``x`` and ``y`` may be views (``unravel``); an isomorphism search makes
    them whole only when their node counts, known beforehand, are equal.
    """
    if x.kind != y.kind:
        raise ValueError("find_morphism needs same-category forests")
    if kind in ("homomorphism", "pathwise_embedding"):
        variant = "existential_positive" if kind == "homomorphism" else "existential"
        result = solve_back_and_forth(x, y, variant)
        if not result.duplicator_wins:
            return None
        return MorphismWitness(kind, {u: w for ((_, (_, u)), (_, w)) in result.witness.items()})
    if kind == "isomorphism":
        if x.node_count() != y.node_count():
            return None
        (xids, xcanon), (yids, ycanon) = _forest_ids(x), _forest_ids(y)
        if xcanon != ycanon:
            return None

        def ranked(ids: dict[str, int], nodes) -> list[str]:
            return sorted(nodes, key=lambda n: (ids[n], n))

        # equal ids pair up, top down; ties go by name
        pairs = list(zip(ranked(xids, x.roots), ranked(yids, y.roots)))
        for u, v in pairs:
            pairs.extend(zip(ranked(xids, x.children(u)), ranked(yids, y.children(v))))
        return MorphismWitness(kind, dict(pairs))
    if kind == "open_span":
        if x.kind != "modal":
            raise ValueError("open_span search is implemented for modal forests")
        result = solve_back_and_forth(x, y, "full")
        if not result.duplicator_wins:
            return None
        parent = {_after(move, w): pos for (pos, move), (_, w) in result.witness.items()}

        def pair_id(z: tuple) -> str:
            return f"<{z[0]};{z[1]}>"

        def steps():
            for z in sorted(parent, key=lambda z: (x.depth(z[0]), z)):
                par = None if parent[z] == _START else pair_id(parent[z])
                yield pair_id(z), par, z[0], *x.labels[z[0]]

        mediator = _modal_forest(x.signature, steps())
        map1 = {pair_id(z): z[0] for z in parent}
        map2 = {pair_id(z): z[1] for z in parent}
        return MorphismWitness(kind, map1, map2, mediator)
    raise ValueError(f"unknown morphism kind {kind!r}")


# --- random structures --------------------------------------------------------


def suite_signature(n_props: int = 1, n_actions: int = 2, modal: bool = True) -> Signature:
    props = [("p", 1), ("q", 1)][:n_props]
    actions = [("a", 2), ("b", 2)][:n_actions]
    return Signature(tuple(props + actions), modal=modal)


def gen_structure(
    sig: Signature,
    size: int,
    rng: random.Random,
    edge_density: float = 0.3,
    prop_density: float = 0.5,
) -> Structure:
    """Random structure: each ordered pair of distinct elements carries each
    binary relation independently (no self-loops); unary relations are
    sampled per element."""
    m = rng.randint(1, size)
    universe = tuple(f"e{i}" for i in range(m))
    interp: dict[str, frozenset] = {}
    for name, arity in sig.relations:
        tuples = set()
        if arity == 1:
            for e in universe:
                if rng.random() < prop_density:
                    tuples.add((e,))
        elif arity == 2:
            for s in universe:
                for t in universe:
                    if s != t and rng.random() < edge_density:
                        tuples.add((s, t))
        else:
            # reversed so that the first argument varies fastest, the order
            # in which seeded draws have always been made
            for combo in (t[::-1] for t in product(universe, repeat=arity)):
                if len(set(combo)) == len(combo) and rng.random() < edge_density:
                    tuples.add(combo)
        interp[name] = frozenset(tuples)
    return Structure(sig, universe, interp)


def gen_pointed(sig: Signature, size: int, rng: random.Random, **kw) -> PointedStructure:
    s = gen_structure(sig, size, rng, **kw)
    return PointedStructure(s, s.universe[0])


# --- the verification suites ----------------------------------------------------


@dataclass
class SuiteReport:
    name: str
    samples: int
    agree: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def fail(self) -> int:
        return len(self.failures)

    def record(self, index: int, problem: Optional[str]) -> None:
        if problem is None:
            self.agree += 1
        else:
            self.failures.append(f"sample {index}: {problem}")

    def render(self) -> str:
        lines = [f"SUITE {self.name} SAMPLES {self.samples} AGREE {self.agree} FAIL {self.fail}"]
        lines.extend(self.failures)
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return 0 if self.fail == 0 else 1


def _transfer(plan: _Plan, i: int, k: int, fragment: str) -> bool:
    """Does the other structure of the two in ``plan`` satisfy the fragment's
    trace formula of every run of structure ``i`` up to length k?  A formula
    deeper than k (a deadlock mark at depth k) falls back to the Diamond one."""
    there = plan.model.points[1 - i]
    for run in runs_upto(plan.structures[i], k):
        f = plan.trace(i, run, fragment)
        if plan.depth[f] > k:
            f = plan.trace(i, run, "Diamond")
        if not plan.mask[f] >> there & 1:
            return False
    return True


def _sampled(name: str, samples: int, seed: int, problem: Callable) -> SuiteReport:
    """The seed protocol that every suite but cor74 shares: sample i is
    ``problem(random.Random(seed + i))``, the sample's first counterexample
    or None, so a run's sample i is the one-sample run at ``seed + i``."""
    report = SuiteReport(name, samples)
    for i in range(samples):
        report.record(i, problem(random.Random(seed + i)))
    return report


# Theorem 6.1's items: the morphism kind between the ML unravelings, the trace
# relation and the fragment whose trace formulas transfer, which must agree.
# tr and ltr are directed, checked both ways, transferring one way each;
# cltr and gltr are checked once, transferring both ways.
THM61_ITEMS = (
    ("item1", "homomorphism", "tr", "DiamondPos"),
    ("item2", "pathwise_embedding", "ltr", "Diamond"),
    ("item3", "open_span", "cltr", "DeadlockDiamond"),
    ("item4", "isomorphism", "gltr", "Graded"),
)


def _suite_thm61(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = suite_signature(n_props=1, n_actions=2)

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        b = gen_pointed(sig, size, rng)
        ua, ub = MLView(a, k), MLView(b, k)
        plan = _Plan([a, b])  # the trace formulas of both, shared by every item
        for label, kind, relation, fragment in THM61_ITEMS:
            directed = relation in ("tr", "ltr")
            sides = [(label, a, b, ua, ub, 0)]
            if directed:
                sides.append((f"{label}-rev", b, a, ub, ua, 1))
            for name, p, q, up, uq, i in sides:
                categorical = find_morphism(up, uq, kind) is not None
                behavioural = check_trace_relation(relation, p, q, k).holds
                logical = _transfer(plan, i, k, fragment)
                if not directed:
                    logical = logical and _transfer(plan, 1 - i, k, fragment)
                if not categorical == behavioural == logical:
                    return (
                        f"{name}: categorical={categorical} behavioural={behavioural} "
                        f"logical={logical}"
                    )
        return None

    return _sampled("thm61", samples, seed, problem)


def _suite_thm48(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = suite_signature(n_props=1, n_actions=2)

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        b = gen_pointed(sig, size, rng)
        ta, tb = TreeView(a, k), TreeView(b, k)
        implications = [
            (
                "morphism->tr",
                find_morphism(ta, tb, "homomorphism") is not None,
                check_trace_relation("tr", a, b, k).holds,
            ),
            (
                "embeddings->ltr",
                find_morphism(ta, tb, "pathwise_embedding") is not None
                and find_morphism(tb, ta, "pathwise_embedding") is not None,
                check_trace_relation("ltr", a, b, k).holds
                and check_trace_relation("ltr", b, a, k).holds,
            ),
            (
                "bisim->cltr",
                solve_bisim(a, b, k).duplicator_wins,
                check_trace_relation("cltr", a, b, k).holds,
            ),
            (
                "tree-iso->gltr",
                find_morphism(ta, tb, "isomorphism") is not None,
                check_trace_relation("gltr", a, b, k).holds,
            ),
        ]
        for label, branching, linear in implications:
            if branching and not linear:
                return f"{label}: branching holds but linear fails"
        return None

    return _sampled("thm48", samples, seed, problem)


def _suite_thm54(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = Signature((("P", 1), ("R", 2)))

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_structure(sig, size, rng)
        b = gen_structure(sig, size, rng)
        direct = solve_ppeb(a, b, k, length).duplicator_wins
        fa, fb = PRView(a, k, length), PRView(b, k, length)
        game = solve_back_and_forth(fa, fb, "full").duplicator_wins
        return None if direct == game else f"all-in-one={direct} back-and-forth={game}"

    return _sampled("thm54", samples, seed, problem)


def _suite_prop84(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = suite_signature(n_props=1, n_actions=2)

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        verdict = check_trace_relation("cltr", a, ml_graft(a, k), "exact")
        return None if verdict.holds else f"cltr fails: {verdict.render_witness()}"

    return _sampled("prop84", samples, seed, problem)


def _pointed_tree_canon(p: PointedStructure) -> Optional[tuple]:
    """Canonical form when the structure is a tree rooted at the point: every
    non-point element has exactly one incoming transition, the point has none,
    and everything hangs below the point.  None when that shape fails."""
    if any(arity > 2 for _, arity in p.signature.relations):
        return None
    incoming: dict[str, list[tuple[str, str]]] = {e: [] for e in p.base.universe}
    for act in p.signature.actions:
        for (src, dst) in p.base.interp[act]:
            incoming[dst].append((act, src))
    if incoming.pop(p.point) or any(len(edges) != 1 for edges in incoming.values()):
        return None
    children: dict[str, list[str]] = {e: [] for e in p.base.universe}
    action_in: dict[str, str] = {}
    for e, [(act, par)] in incoming.items():
        action_in[e] = act
        children[par].append(e)
    # unique incoming edges leave cycles, self-loops too, out of the point's tree
    ids, canon = _canon_ids(
        (p.point,),
        children.__getitem__,
        lambda e: (tuple(sorted(p.base.valuation(e))), action_in.get(e, "")),
    )
    if len(ids) != len(p.base.universe):
        return None
    return canon


def pointed_iso(p: PointedStructure, q: PointedStructure) -> bool:
    """Isomorphism with a tree-shaped pointed structure, by canonical
    labelling: the signatures and the ``_pointed_tree_canon`` forms are
    equal.  A structure that is not a tree is isomorphic to no tree, so one
    tree side decides; two structures that are both not trees are refused
    with a ``ValueError``."""
    cp, cq = _pointed_tree_canon(p), _pointed_tree_canon(q)
    if cp is None and cq is None:
        raise ValueError("pointed_iso needs a tree-shaped structure on one side")
    return p.signature == q.signature and cp == cq


def _suite_prop85(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = suite_signature(n_props=1, n_actions=2)

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        grafted, rhs = _ml_graft(a, k)
        lhs = ball(grafted, k)
        return None if pointed_iso(lhs, rhs) else (
            f"no isomorphism: ball has {len(lhs.base.universe)} elements, "
            f"unraveling has {len(rhs.base.universe)}"
        )

    return _sampled("prop85", samples, seed, problem)


def workspace(a: PointedStructure, r: int, k: int) -> Structure:
    """2r disjoint copies of (source + its radius-k ball), the extra room that
    lets the survivor dodge non-local moves."""
    block = disjoint_union(a.base, ball(a, k).base)
    return sum_many([block] * (2 * r), a.signature)


def _suite_lemma83(size: int, r: int, samples: int, seed: int, length: int) -> SuiteReport:
    # a sample's rank-r types take at most about 3 ms at size 6 and rank 2, and
    # up to about 0.2 s at rank 3 (2-vCPU VM, Python 3.11)
    if size > 6 or r > 2:
        raise ValueError(
            "lemma83 runs only within its documented budget (size <= 6, rank k <= 2)"
        )
    sig = suite_signature(n_props=1, n_actions=1)
    k = 2**r

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        b = workspace(a, r, k)
        lhs = pointed_sum(a, b)
        rhs = pointed_sum(ball(a, k), b)
        res = solve_ef(lhs.base, rhs.base, r, (lhs.point,), (rhs.point,))
        return None if res.duplicator_wins else "spoiler wins the rank-r game"

    return _sampled("lemma83", samples, seed, problem)


def _suite_lemma313(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    sig = suite_signature(n_props=1, n_actions=2)

    def problem(rng: random.Random) -> Optional[str]:
        a = gen_pointed(sig, size, rng)
        b = gen_pointed(sig, size, rng)
        for maker in (TreeView, MLView):
            x, y = maker(a, k), maker(b, k)
            if solve_back_and_forth(x, y, "full").duplicator_wins:
                exist_lr = solve_back_and_forth(x, y, "existential").duplicator_wins
                exist_rl = solve_back_and_forth(y, x, "existential").duplicator_wins
                hom_lr = find_morphism(x, y, "homomorphism") is not None
                hom_rl = find_morphism(y, x, "homomorphism") is not None
                if not (exist_lr and exist_rl and hom_lr and hom_rl):
                    return (
                        f"full win but existential=({exist_lr},{exist_rl}) "
                        f"homomorphisms=({hom_lr},{hom_rl})"
                    )
        return None

    return _sampled("lemma313", samples, seed, problem)


def _enumerate_deadlock_formulas(k: int, props: Sequence[str], actions: Sequence[str]):
    """All restricted-conjunction formulas of the deadlock-diamond fragment up
    to depth k, built one depth at a time: a literal set (none, p or not p for
    each proposition), optional deadlock, and no diamond or one diamond over a
    formula of the level below.  No two of them are equal, so level d has
    3^|P| * 2 * (1 + |A| * n(d-1)) formulas, n(-1) = 0."""
    literal_sets: list[list[Formula]] = [[]]
    for p in props:
        literal_sets = [
            base + extra
            for base in literal_sets
            for extra in ([], [Prop(p)], [NegProp(p)])
        ]
    level: list[Formula] = []
    for depth in range(k + 1):
        extras: list[list[Formula]] = [[]]
        extras += [[Dia(act, body)] for act in actions for body in level]
        level = [
            conj(list(lits) + ([DEADLOCK] if dead else []) + extra)
            for lits in literal_sets
            for dead in (False, True)
            for extra in extras
        ]
    return level


def _deadlock_masks(
    k: int, props: Sequence[str], actions: Sequence[str], model: UnionModel
) -> list[int]:
    """The extension in ``model`` of each formula of
    ``_enumerate_deadlock_formulas(k, props, actions)``, in its order, built
    the same way one level at a time: each formula's mask is one AND of its
    literal set's, its deadlock's and its diamond's masks."""
    every = model.every
    literal_sets = [every]
    for p in props:
        holds = model.holds.get(p, 0)
        literal_sets = [m & extra for m in literal_sets for extra in (every, holds, every & ~holds)]
    level: list[int] = []
    for _ in range(k + 1):
        extras = [every] + [model.at_least(act, body, 1) for act in actions for body in level]
        level = [
            lits & dead & extra
            for lits in literal_sets
            for dead in (every, model.deadlock)
            for extra in extras
        ]
    return level


def _suite_cor74(size: int, k: int, samples: int, seed: int, length: int) -> SuiteReport:
    """Rossman preservation on the deadlock-diamond fragment: every formula of
    ``_enumerate_deadlock_formulas`` whose truth vector over the sampled
    universe is closed under tr must agree with its positive rewriting, the
    disjunction of the DiamondPos characteristic formulas of its tr-minimal
    models.

    The formulas are decided by their ``_deadlock_masks``, and each distinct
    vector is checked once; formula nodes are built only to name a failure.
    """
    if size > 3 or k > 2:
        raise ValueError(
            "cor74 runs only within its documented budget (size <= 3, k <= 2, "
            "at most 2 propositions and 2 actions)"
        )
    sig = suite_signature(n_props=2, n_actions=2)
    universe: list[PointedStructure] = []
    seen_keys = set()
    for i in range(samples):
        rng = random.Random(seed + i)
        cand = gen_pointed(sig, size, rng)
        key = (cand.base.universe, tuple(sorted((n, tuple(sorted(t))) for n, t in cand.base.interp.items())))
        if key not in seen_keys:
            seen_keys.add(key)
            universe.append(cand)
    model = UnionModel(universe)
    vectors = model.vectors(_deadlock_masks(k, sig.propositions, sig.actions, model))
    report = SuiteReport("cor74", len(vectors))

    tr_matrix = {
        (i, j): check_trace_relation("tr", x, y, k).holds
        for i, x in enumerate(universe)
        for j, y in enumerate(universe)
    }
    char_cache = {
        i: synth_characteristic(x, k, "DiamondPos") for i, x in enumerate(universe)
    }

    # each distinct invariant vector, with its positive rewriting
    rewritings: dict[tuple[bool, ...], Formula] = {}
    for vec in dict.fromkeys(vectors):
        invariant = all(
            not (vec[i] and tr_matrix[(i, j)]) or vec[j]
            for i in range(len(universe))
            for j in range(len(universe))
        )
        if invariant:
            models = [i for i, v in enumerate(vec) if v]
            minimal = [
                i
                for i in models
                if not any(
                    j != i and tr_matrix[(j, i)] and not tr_matrix[(i, j)]
                    for j in models
                )
            ]
            # with no models the rewriting is the empty disjunction, false everywhere
            rewritings[vec] = Or(tuple(char_cache[i] for i in minimal))
    revecs = dict(zip(rewritings, truth_vectors(list(rewritings.values()), universe)))

    formulas: Optional[list[Formula]] = None  # enumerated to name the first failure
    checked_vectors: dict[tuple[bool, ...], Optional[str]] = {}
    for fi, vec in enumerate(vectors):
        if vec not in checked_vectors:
            problem = None
            if revecs.get(vec, vec) != vec:
                if formulas is None:
                    formulas = _enumerate_deadlock_formulas(k, sig.propositions, sig.actions)
                problem = (
                    f"invariant formula {render_formula(formulas[fi])} "
                    "disagrees with its positive rewriting"
                )
            checked_vectors[vec] = problem
        report.record(fi, checked_vectors[vec])
    return report


SUITES = {
    "thm61": _suite_thm61,
    "thm48": _suite_thm48,
    "thm54": _suite_thm54,
    "prop84": _suite_prop84,
    "prop85": _suite_prop85,
    "lemma83": _suite_lemma83,
    "cor74": _suite_cor74,
    "lemma313": _suite_lemma313,
}


def run_suite(
    name: str, size: int, k: int, samples: int, seed: int, length: int = 4
) -> SuiteReport:
    """Run one verification suite; ``k`` doubles as the rank for lemma83."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    return SUITES[name](size, k, samples, seed, length)


# --- the preservation chain replay ---------------------------------------------


@dataclass(frozen=True)
class ChainReplay:
    """Truth values of one formula at the twelve stations of the preservation
    argument, plus the decidable side conditions that justify each hop."""

    stations: tuple[tuple[str, bool], ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def constant(self) -> bool:
        values = {v for _, v in self.stations}
        return len(values) == 1

    @property
    def sound(self) -> bool:
        return all(ok for _, ok in self.checks)


def replay_prop86(
    a: PointedStructure,
    b: PointedStructure,
    r: int,
    phi: Formula,
    _graft: Callable[[PointedStructure, int], PointedStructure] = ml_graft,
) -> ChainReplay:
    """Evaluate a formula at the twelve stations of the preservation argument:
    source, grafted unraveling, workspace sums, balls, plain unravelings, and
    back down on the other side.  ``_graft`` is a fault-injection hook for
    negative controls; swapping in a gluing-free variant makes the companion
    check at the graft station fail."""
    k = 2**r
    if modal_depth(phi) > k:
        raise ValueError(f"formula depth {modal_depth(phi)} exceeds bound {k}")
    ga, gb = _graft(a, k), _graft(b, k)
    ca, cb = workspace(ga, r, k), workspace(gb, r, k)
    ua = as_pointed(ml_unravel(a, k)[0])
    ub = as_pointed(ml_unravel(b, k)[0])
    stations = [
        ("source-left", a),
        ("graft-left", ga),
        ("graft-left+workspace", pointed_sum(ga, ca)),
        ("ball-left+workspace", pointed_sum(ball(ga, k), ca)),
        ("ball-left", ball(ga, k)),
        ("unravel-left", ua),
        ("unravel-right", ub),
        ("ball-right", ball(gb, k)),
        ("ball-right+workspace", pointed_sum(ball(gb, k), cb)),
        ("graft-right+workspace", pointed_sum(gb, cb)),
        ("graft-right", gb),
        ("source-right", b),
    ]
    checks = [
        ("hypothesis: sources cltr-equivalent at bound k",
         check_trace_relation("cltr", a, b, k).holds),
        ("companion-left: source cltr graft, exact",
         check_trace_relation("cltr", a, ga, "exact").holds),
        ("companion-right: source cltr graft, exact",
         check_trace_relation("cltr", b, gb, "exact").holds),
        ("window-left: ball of graft isomorphic to unraveling",
         pointed_iso(ball(ga, k), ua)),
        ("window-right: ball of graft isomorphic to unraveling",
         pointed_iso(ball(gb, k), ub)),
    ]
    (values,) = truth_vectors([phi], [p for _, p in stations])
    return ChainReplay(
        stations=tuple(zip((name for name, _ in stations), values)),
        checks=tuple(checks),
    )
