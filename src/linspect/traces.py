"""Runs, labelled/complete/ready traces, and the trace-relation deciders.

All five relations are decided by one breadth-first search over trace words
on trace automata (``_inclusion_witness``); the relations differ only in the
label (valuation, or ready set for rt), the label condition (inclusion for
tr, equality otherwise), the sides that spell words (both for gltr and rt)
and whether runs are counted (gltr).  Exact mode is the same search without a
depth cutoff.  The witness is the shortest word on which the sides disagree;
ties go to the least word by (actions, labels as sorted tuples).

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

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Mapping, Optional, Union

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


def runs_upto(p: PointedStructure, k: int) -> tuple[Run, ...]:
    """All runs of length <= k, shortest first; each run extends its prefix by
    action in signature order, then by successor in universe order."""
    _require_modal(p)
    layer: tuple[Run, ...] = (Run((p.point,), ()),) if k >= 0 else ()
    runs = list(layer)
    for _ in range(k):
        layer = tuple(
            Run(run.states + (target,), run.actions + (action,))
            for run in layer
            for action in p.signature.actions
            for target in p.base.successors(run.last, action)
        )
        runs.extend(layer)
    return tuple(runs)


def enumerate_runs(p: PointedStructure, n: int) -> tuple[Run, ...]:
    """All runs of length exactly n from the point, in deterministic order."""
    return tuple(run for run in runs_upto(p, n) if len(run) == n)


def maximal_runs(p: PointedStructure, k: int) -> tuple[Run, ...]:
    """Nonempty runs that exhaust the budget: length k, or ending terminal."""
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

Label = tuple[str, ...]  # a valuation or a ready set, as a sorted tuple
Letter = tuple[Optional[str], Label]  # (action, label of the target)


@dataclass(frozen=True)
class TraceAutomaton:
    """Finite acceptor for the trace language of a pointed structure: every
    state accepts, the terminal ones also accept the complete traces.
    ``moves`` indexes the transitions by source and letter; a trace starts
    with a label, so the pseudo-state None moves to the point by the letter
    (None, label of the point)."""

    states: tuple[str, ...]
    moves: Mapping[Optional[str], Mapping[Letter, list[str]]]
    terminal: frozenset[str]


def _automaton(p: PointedStructure, ready: bool) -> TraceAutomaton:
    """Letters carry the target's ready set if ``ready``, else its valuation."""
    _require_modal(p)
    base = p.base
    edges: dict[str, list[tuple[str, str]]] = {s: [] for s in base.universe}
    for action in p.signature.actions:
        for src, dst in base.interp[action]:
            edges[src].append((action, dst))
    label = {
        s: tuple(sorted({a for a, _ in edges[s]} if ready else base.valuation(s)))
        for s in base.universe
    }
    moves: dict = {None: {(None, label[p.point]): [p.point]}}
    for s, out in edges.items():
        moves[s] = {}
        for action, dst in out:
            moves[s].setdefault((action, label[dst]), []).append(dst)
    terminal = frozenset(s for s, out in edges.items() if not out)
    return TraceAutomaton(base.universe, moves, terminal)


def build_trace_automaton(p: PointedStructure) -> TraceAutomaton:
    return _automaton(p, ready=False)


# --- the word search --------------------------------------------------------

# A word is a parent-linked node (parent, letter, left ends, right ends); the
# ends map the end states of the word's runs to their number of runs (1
# without counting).  The empty pre-word is the parent of the length-0 words.
Ends = dict[Optional[str], int]
Word = tuple[Optional[tuple], Optional[Letter], Ends, Ends]
Condition = Callable[[Label, Label], bool]


def _after(aut: TraceAutomaton, ends: Ends, letters: list[Letter], counting: bool) -> Ends:
    """Ends of the runs that extend ``ends`` by a move on one of ``letters``."""
    out: Ends = {}
    for src, n in ends.items():
        for letter in letters:
            for dst in aut.moves[src].get(letter, ()):
                out[dst] = (out.get(dst, 0) + n) if counting else 1
    return out


def _spelling(word: Word) -> tuple[tuple[str, ...], tuple[Label, ...]]:
    """The word's (actions, labels), which is its key in the witness order."""
    letters = []
    while word[1] is not None:
        letters.append(word[1])
        word = word[0]
    letters.reverse()
    return tuple(a for a, _ in letters[1:]), tuple(lab for _, lab in letters)


def _layers(left: TraceAutomaton, right: TraceAutomaton, cond: Condition,
            both: bool, counting: bool) -> Iterator[list[Word]]:
    """The words of each length, spelled by ``left`` (and ``right`` if ``both``).

    Without counting, a word whose pair of end sets was seen at a shorter
    length is dropped, and of two words of one length with the same pair the
    lesser is kept: each extension of a dropped word has a shorter or lesser
    counterpart with the same ends."""
    alphabet = {letter for moves in right.moves.values() for letter in moves}
    matching: dict[Letter, list[Letter]] = {}  # letter -> right letters matching it
    seen: set[tuple[frozenset, frozenset]] = set()
    layer: list[Word] = [(None, None, {None: 1}, {None: 1})]
    while True:
        nxt: list[Word] = []
        slot: dict[tuple[frozenset, frozenset], int] = {}
        for word in layer:
            _, _, ends_l, ends_r = word
            letters = {letter for s in ends_l for letter in left.moves[s]}
            if both:
                letters.update(letter for s in ends_r for letter in right.moves[s])
            for letter in sorted(letters):
                if letter not in matching:
                    matching[letter] = [
                        m for m in alphabet if m[0] == letter[0] and cond(letter[1], m[1])
                    ]
                child = (word, letter, _after(left, ends_l, [letter], counting),
                         _after(right, ends_r, matching[letter], counting))
                if counting:
                    nxt.append(child)
                    continue
                pair = (frozenset(child[2]), frozenset(child[3]))
                if pair in seen:
                    continue
                if pair not in slot:
                    slot[pair] = len(nxt)
                    nxt.append(child)
                elif _spelling(child) < _spelling(nxt[slot[pair]]):
                    nxt[slot[pair]] = child
        if not nxt:
            return
        seen.update(slot)
        layer = nxt
        yield layer


def _inclusion_witness(
    left: TraceAutomaton, right: TraceAutomaton, cond: Condition, both: bool,
    counting: bool, complete: bool, max_len: Optional[int],
) -> Optional[tuple[tuple[frozenset[str], ...], tuple[str, ...], bool, str]]:
    """The least shortest word of length <= ``max_len`` (None = unbounded) on
    which the sides disagree, as (labels, actions, complete, side), or None.

    The sides disagree on a word one has and the other lacks; if ``complete``,
    also on a word shorter than ``max_len`` with a terminal end on the left
    only.  With counting, they disagree on a nonempty word whose number of
    maximal runs (of length ``max_len``, or ending terminal) differs.
    """

    def maximal(aut: TraceAutomaton, ends: Ends, depth: int) -> int:
        return sum(n for s, n in ends.items() if depth == max_len or s in aut.terminal)

    def disagreement(ends_l: Ends, ends_r: Ends, depth: int) -> Optional[tuple[str, bool]]:
        if counting:
            n_l, n_r = maximal(left, ends_l, depth), maximal(right, ends_r, depth)
            if depth == 0 or n_l == n_r:
                return None
            return ("left" if n_l > n_r else "right"), False
        if bool(ends_l) != bool(ends_r):
            return "left" if ends_l else "right", False
        if (complete and (max_len is None or depth < max_len)
                and not left.terminal.isdisjoint(ends_l)
                and right.terminal.isdisjoint(ends_r)):
            return "left", True
        return None

    for depth, layer in enumerate(_layers(left, right, cond, both, counting)):
        failures = []
        for word in layer:
            found = disagreement(word[2], word[3], depth)
            if found is not None:
                failures.append((_spelling(word), found))
        if failures:
            (actions, labels), (side, terminal) = min(failures)
            return tuple(frozenset(lab) for lab in labels), actions, terminal, side
        if depth == max_len:
            return None
    return None


def _vc_subset(vl: Label, vr: Label) -> bool:
    return set(vl).issubset(vr)


# relation: (label condition, words spelled by both sides, runs counted,
# terminal ends compared)
_SEARCHES: dict[str, tuple[Condition, bool, bool, bool]] = {
    "tr": (_vc_subset, False, False, False),
    "ltr": (operator.eq, False, False, False),
    "cltr": (operator.eq, False, False, True),
    "gltr": (operator.eq, True, True, False),
    "rt": (operator.eq, True, False, False),
}


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


def check_trace_relation(
    rel: Relation, a: PointedStructure, b: PointedStructure, bound: Bound
) -> RelationVerdict:
    """Decide one of the behavioural relations at the given bound.

    tr/ltr are directed (left included in right); cltr/gltr/rt are symmetric.
    ``bound`` is a length bound, or ``"exact"`` for the unbounded decision
    (tr/ltr/cltr only).  cltr searches left to right, then right to left.
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
    if rel not in _SEARCHES:
        raise ValueError(f"unknown relation {rel!r}")
    k: Optional[int] = None if exact else int(bound)

    if rel == "gltr" and a.base.valuation(a.point) != b.base.valuation(b.point):
        w = LabelledTrace((a.base.valuation(a.point),), ())
        return RelationVerdict(rel, bound, False, w, "left")
    ta, tb = (_automaton(p, True) if rel == "rt" else build_trace_automaton(p) for p in (a, b))
    for x, y in [(ta, tb)] + ([(tb, ta)] if rel == "cltr" else []):
        found = _inclusion_witness(x, y, *_SEARCHES[rel], k)
        if found is None:
            continue
        labels, actions, terminal, side = found
        if x is tb:  # the second cltr pass spells the right's words
            side = "right"
        witness = (ReadyTrace(labels, actions) if rel == "rt"
                   else LabelledTrace(labels, actions, terminal))
        return RelationVerdict(rel, bound, False, witness, side)
    return RelationVerdict(rel, bound, True)
