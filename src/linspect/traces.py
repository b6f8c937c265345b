"""Runs, labelled/complete/ready traces, and the trace-relation deciders.

Bounded relations are graded by a length bound k.  Exact (unbounded) decisions
for tr/ltr/cltr run a subset construction over the letter alphabet
(action, target valuation) on trace automata; the bounded deciders share the
same engine with a depth cutoff, so the two modes coincide whenever the bound
covers the shortest counterexample (at desk scale, the product of the state
counts is ample).

Grading notes, pinned here because every downstream module relies on them:

* ``tr``/``ltr`` compare labelled traces of length <= k, valuations included
  at every index (the root included).
* ``cltr`` at bound k compares labelled traces to length k and complete
  traces to length k-1.  A completeness mark at depth j costs one extra
  level of observation (the deadlock modality has depth 1), so depth-k
  observers only see terminality strictly below k.  Exact mode compares the
  unbounded sets.
* ``gltr`` at bound k holds iff the root valuations agree and, for every
  trace, the number of maximal runs (length k, or ending terminal) realizing
  it is the same on both sides.  This is the relation decided by isomorphism
  of the depth-k linear unravelings; it is intentionally insensitive to how
  multiplicities distribute over individual states.
* ``rt`` compares ready-trace sets (action-enabledness annotations, no
  valuations) up to length k.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Union

from .structures import PointedStructure, SignatureMismatch


Relation = Literal["tr", "ltr", "cltr", "gltr", "rt"]
Bound = Union[int, Literal["exact"]]


class NonModalSignature(ValueError):
    """Raised when a trace operation is applied over a non-modal signature."""


def _require_modal(p: PointedStructure) -> None:
    if not p.signature.modal:
        raise NonModalSignature("operation requires a modal signature")


@dataclass(frozen=True)
class Run:
    """An alternating state/action sequence rooted at the point."""

    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.states) - 1:
            raise ValueError("a run needs exactly one more state than actions")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def last(self) -> str:
        return self.states[-1]


@dataclass(frozen=True)
class LabelledTrace:
    """The valuation/action shadow of a run."""

    valuations: tuple[frozenset[str], ...]
    actions: tuple[str, ...]
    complete: bool = False

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.valuations) - 1:
            raise ValueError("a trace needs exactly one more valuation than actions")

    def __len__(self) -> int:
        return len(self.actions)

    def dropped(self) -> "LabelledTrace":
        return LabelledTrace(self.valuations, self.actions, complete=False)


@dataclass(frozen=True)
class ReadyTrace:
    """Action sequence annotated with the enabled-action set at every state."""

    ready_sets: tuple[frozenset[str], ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.ready_sets) - 1:
            raise ValueError("a ready trace needs one more ready set than actions")

    def __len__(self) -> int:
        return len(self.actions)


def render_valuation(v: frozenset[str]) -> str:
    return "{" + ",".join(sorted(v)) + "}"


def render_trace(t: Union[LabelledTrace, ReadyTrace]) -> str:
    sets = t.valuations if isinstance(t, LabelledTrace) else t.ready_sets
    parts = [render_valuation(sets[0])]
    for action, v in zip(t.actions, sets[1:]):
        parts.append(f"-{action}->")
        parts.append(render_valuation(v))
    text = " ".join(parts)
    if isinstance(t, LabelledTrace) and t.complete:
        text += " !"
    return text


def _trace_key(t: LabelledTrace) -> tuple:
    return (len(t), t.actions, tuple(tuple(sorted(v)) for v in t.valuations), t.complete)


def enumerate_runs(p: PointedStructure, n: int) -> tuple[Run, ...]:
    """All runs of length exactly n from the point, in deterministic order."""
    _require_modal(p)
    runs: list[Run] = []

    def extend(states: list[str], actions: list[str]) -> None:
        if len(actions) == n:
            runs.append(Run(tuple(states), tuple(actions)))
            return
        here = states[-1]
        for action in p.signature.actions:
            for target in p.base.successors(here, action):
                extend(states + [target], actions + [action])

    extend([p.point], [])
    return tuple(runs)


def runs_upto(p: PointedStructure, k: int) -> tuple[Run, ...]:
    """All runs of length <= k, shortest first."""
    out: list[Run] = []
    for n in range(k + 1):
        out.extend(enumerate_runs(p, n))
    return tuple(out)


def maximal_runs(p: PointedStructure, k: int) -> tuple[Run, ...]:
    """Nonempty runs that exhaust the budget: length k, or ending terminal."""
    _require_modal(p)
    return tuple(
        r
        for r in runs_upto(p, k)
        if len(r) >= 1 and (len(r) == k or p.base.is_terminal(r.last))
    )


def trace_of(p: PointedStructure, run: Run) -> LabelledTrace:
    return LabelledTrace(
        valuations=tuple(p.base.valuation(s) for s in run.states),
        actions=run.actions,
        complete=p.base.is_terminal(run.last),
    )


def ready_trace_of(p: PointedStructure, run: Run) -> ReadyTrace:
    return ReadyTrace(
        ready_sets=tuple(p.base.enabled_actions(s) for s in run.states),
        actions=run.actions,
    )


TraceKind = Literal["labelled", "complete", "ready"]


def traces_upto(
    p: PointedStructure, k: int, kind: TraceKind = "labelled"
) -> frozenset[Union[LabelledTrace, ReadyTrace]]:
    """The trace set of the given kind, restricted to length <= k."""
    _require_modal(p)
    runs = runs_upto(p, k)
    if kind == "labelled":
        return frozenset(trace_of(p, r).dropped() for r in runs)
    if kind == "complete":
        return frozenset(
            trace_of(p, r) for r in runs if p.base.is_terminal(r.last)
        )
    if kind == "ready":
        return frozenset(ready_trace_of(p, r) for r in runs)
    raise ValueError(f"unknown trace kind {kind!r}")


# --- trace automaton --------------------------------------------------------


@dataclass(frozen=True)
class TraceAutomaton:
    """Finite acceptor for the labelled-trace language of a pointed structure.

    Letters are (action, target valuation) pairs; every state accepts, and the
    terminal-marked states additionally accept the complete-trace language.
    The valuation of the initial state is carried separately as the automaton's
    output, since a trace starts with a valuation rather than a letter.
    """

    states: tuple[str, ...]
    initial: str
    output_valuation: frozenset[str]
    transitions: tuple[tuple[str, str, frozenset[str], str], ...]  # (src, action, valuation, dst)
    terminal: frozenset[str]

    def step(self, sources: frozenset[str], action: str, cond: Callable) -> frozenset[str]:
        return frozenset(
            dst
            for (src, act, val, dst) in self.transitions
            if src in sources and act == action and cond(val)
        )

    def letters_from(self, sources: frozenset[str]) -> list[tuple[str, frozenset[str]]]:
        seen = {
            (act, val)
            for (src, act, val, _) in self.transitions
            if src in sources
        }
        return sorted(seen, key=lambda l: (l[0], tuple(sorted(l[1]))))

    def count_words(self, length: int) -> int:
        """Number of distinct labelled traces of exactly this length."""
        prefixes: dict[tuple, frozenset[str]] = {(): frozenset([self.initial])}
        for _ in range(length):
            nxt: dict[tuple, frozenset[str]] = {}
            for word, subset in prefixes.items():
                for action, val in self.letters_from(subset):
                    target = self.step(subset, action, lambda v, val=val: v == val)
                    if target:
                        nxt[word + ((action, tuple(sorted(val))),)] = target
            prefixes = nxt
        return len(prefixes)


def build_trace_automaton(p: PointedStructure) -> TraceAutomaton:
    _require_modal(p)
    transitions = []
    for action in p.signature.actions:
        for src in p.base.universe:
            for dst in p.base.successors(src, action):
                transitions.append((src, action, p.base.valuation(dst), dst))
    return TraceAutomaton(
        states=p.base.universe,
        initial=p.point,
        output_valuation=p.base.valuation(p.point),
        transitions=tuple(transitions),
        terminal=frozenset(s for s in p.base.universe if p.base.is_terminal(s)),
    )


# --- inclusion engine -------------------------------------------------------


def _inclusion_witness(
    left: TraceAutomaton,
    right: TraceAutomaton,
    val_cond: Callable[[frozenset[str], frozenset[str]], bool],
    max_len: Optional[int],
    complete_max: Optional[int],
) -> Optional[LabelledTrace]:
    """Shortest-first search for a left-trace not matched on the right.

    ``val_cond(vl, vr)`` is the per-index valuation condition.  ``max_len``
    bounds trace length (None = unbounded); ``complete_max`` enables the
    complete-trace check up to that length (None = no completeness check).
    Returns a minimal failing trace (shortlex in (action, valuation) letters),
    or None if the inclusion holds.
    """
    left_succ: dict[str, list[tuple[str, frozenset[str], str]]] = {s: [] for s in left.states}
    for (src, act, val, dst) in left.transitions:
        left_succ[src].append((act, val, dst))
    for entries in left_succ.values():
        entries.sort(key=lambda e: (e[0], tuple(sorted(e[1])), e[2]))

    def trace_back(node) -> LabelledTrace:
        vals: list[frozenset[str]] = []
        acts: list[str] = []
        while node is not None:
            state, _, parent, act = node
            vals.append(_left_val[state] if act is not None else left.output_valuation)
            if act is not None:
                acts.append(act)
            node = parent
        vals.reverse()
        acts.reverse()
        return LabelledTrace(tuple(vals), tuple(acts))

    _left_val: dict[str, frozenset[str]] = {left.initial: left.output_valuation}
    for (src, act, val, dst) in left.transitions:
        _left_val[dst] = val

    start_set = (
        frozenset([right.initial])
        if val_cond(left.output_valuation, right.output_valuation)
        else frozenset()
    )
    root = (left.initial, start_set, None, None)
    if not start_set:
        return trace_back(root)

    seen: set[tuple[str, frozenset[str]]] = {(left.initial, start_set)}
    queue: deque = deque([(root, 0)])
    while queue:
        node, depth = queue.popleft()
        state, matched, _, _ = node
        if (
            complete_max is not None
            and depth <= complete_max
            and state in left.terminal
            and not (matched & right.terminal)
        ):
            t = trace_back(node)
            return LabelledTrace(t.valuations, t.actions, complete=True)
        if max_len is not None and depth >= max_len:
            continue
        for act, val, dst in left_succ[state]:
            target = right.step(matched, act, lambda v, val=val: val_cond(val, v))
            if not target:
                return trace_back((dst, target, node, act))
            key = (dst, target)
            if key not in seen:
                seen.add(key)
                queue.append(((dst, target, node, act), depth + 1))
    return None


def _vc_subset(vl: frozenset[str], vr: frozenset[str]) -> bool:
    return vl <= vr


def _vc_equal(vl: frozenset[str], vr: frozenset[str]) -> bool:
    return vl == vr


# --- relation verdicts ------------------------------------------------------


@dataclass(frozen=True)
class RelationVerdict:
    relation: str
    bound: Bound
    holds: bool
    witness: Optional[Union[LabelledTrace, ReadyTrace]] = None
    witness_side: Optional[Literal["left", "right"]] = None

    def render_witness(self) -> Optional[str]:
        if self.witness is None:
            return None
        side = {"left": "only left", "right": "only right"}[self.witness_side]
        return f"{render_trace(self.witness)}  ({side})"


def _check_inclusion(
    a: PointedStructure,
    b: PointedStructure,
    val_cond,
    max_len: Optional[int],
    complete_max: Optional[int],
) -> Optional[LabelledTrace]:
    return _inclusion_witness(
        build_trace_automaton(a), build_trace_automaton(b), val_cond, max_len, complete_max
    )


def _gltr_multisets(p: PointedStructure, k: int) -> Counter:
    counts: Counter = Counter()
    for run in maximal_runs(p, k):
        counts[_trace_key(trace_of(p, run).dropped())] += 1
    return counts


def check_trace_relation(
    rel: Relation, a: PointedStructure, b: PointedStructure, bound: Bound
) -> RelationVerdict:
    """Decide one of the behavioural relations at the given bound.

    tr/ltr are directed (left included in right); cltr/gltr/rt are symmetric.
    ``bound`` is a length bound, or ``"exact"`` for the unbounded decision
    (tr/ltr/cltr only).
    """
    _require_modal(a)
    _require_modal(b)
    if a.signature != b.signature:
        raise SignatureMismatch("trace relations require matching signatures")
    exact = bound == "exact"
    if exact and rel in ("gltr", "rt"):
        raise ValueError(f"exact mode is not supported for {rel}")
    if not exact and (not isinstance(bound, int) or bound < 0):
        raise ValueError("bound must be a natural number or 'exact'")
    k: Optional[int] = None if exact else int(bound)

    if rel == "tr":
        w = _check_inclusion(a, b, _vc_subset, k, None)
        return RelationVerdict(rel, bound, w is None, w, "left" if w is not None else None)

    if rel == "ltr":
        w = _check_inclusion(a, b, _vc_equal, k, None)
        return RelationVerdict(rel, bound, w is None, w, "left" if w is not None else None)

    if rel == "cltr":
        complete_max = 10**9 if exact else max(k - 1, -1)
        for (x, y, side) in ((a, b, "left"), (b, a, "right")):
            w = _inclusion_witness(
                build_trace_automaton(x),
                build_trace_automaton(y),
                _vc_equal,
                k,
                complete_max,
            )
            if w is not None:
                return RelationVerdict(rel, bound, False, w, side)
        return RelationVerdict(rel, bound, True)

    if rel == "gltr":
        assert k is not None
        if a.base.valuation(a.point) != b.base.valuation(b.point):
            w = LabelledTrace((a.base.valuation(a.point),), ())
            return RelationVerdict(rel, bound, False, w, "left")
        ca, cb = _gltr_multisets(a, k), _gltr_multisets(b, k)
        if ca == cb:
            return RelationVerdict(rel, bound, True)
        diff = sorted(key for key in set(ca) | set(cb) if ca[key] != cb[key])
        key = diff[0]
        side = "left" if ca[key] > cb[key] else "right"
        witness = LabelledTrace(
            tuple(frozenset(v) for v in key[2]), key[1], complete=key[3]
        )
        return RelationVerdict(rel, bound, False, witness, side)

    if rel == "rt":
        assert k is not None
        ra = traces_upto(a, k, "ready")
        rb = traces_upto(b, k, "ready")
        if ra == rb:
            return RelationVerdict(rel, bound, True)
        only = sorted(
            ra.symmetric_difference(rb),
            key=lambda t: (len(t), t.actions, tuple(tuple(sorted(x)) for x in t.ready_sets)),
        )
        w = only[0]
        return RelationVerdict(rel, bound, False, w, "left" if w in ra else "right")

    raise ValueError(f"unknown relation {rel!r}")
