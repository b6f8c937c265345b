"""Modal formula AST, s-expression grammar, Kripke evaluation, fragment
classification, and formula synthesis from runs, ready traces, and failed
relation checks.

Grammar (s-expressions):

    tt | ff | <name> | (not <name>) | (and f ...) | (or f ...)
    | (dia <act> f) | (box <act> f) | (gdia (>=|<=) <nat> <act> f)
    | (deadlock)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .structures import PointedStructure
from .traces import Run, check_trace_relation, enumerate_runs, runs_upto, trace_of, ReadyTrace


class Formula:
    """Base class; concrete nodes are frozen, slotted dataclasses.

    Each node keeps its rendered text in ``_text``, filled on the first
    ``render_formula`` call; the hash is that text's, which Python caches.
    Equality stays field equality, so ``Prop("tt")`` and ``TT`` differ.
    """

    __slots__ = ("_text",)

    def __str__(self) -> str:  # pragma: no cover - delegated
        return render_formula(self)

    def __hash__(self) -> int:
        return hash(render_formula(self))


def _node(cls):
    """Make ``cls`` a frozen, slotted formula node hashed by its text."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Verum(Formula):
    pass


@_node
class Falsum(Formula):
    pass


@_node
class Prop(Formula):
    name: str


@_node
class NegProp(Formula):
    name: str


@_node
class And(Formula):
    items: tuple[Formula, ...]


@_node
class Or(Formula):
    items: tuple[Formula, ...]


@_node
class Dia(Formula):
    action: str
    body: Formula


@_node
class Box(Formula):
    action: str
    body: Formula


@_node
class GDia(Formula):
    """Graded diamond: at least / at most ``count`` successors satisfy the body."""

    cmp: str  # ">=" or "<="
    count: int
    action: str
    body: Formula

    def __post_init__(self) -> None:
        if self.cmp not in (">=", "<="):
            raise ValueError("graded comparator must be >= or <=")
        if self.count < 0:
            raise ValueError("graded bound must be >= 0")


@_node
class Deadlock(Formula):
    pass


TT = Verum()
FF = Falsum()
DEADLOCK = Deadlock()


def conj(items: Sequence[Formula]) -> Formula:
    """Conjunction, normalized: unit dropped, deduplicated, sorted, flattened
    at width 0/1."""
    uniq = sorted({f for f in items if not isinstance(f, Verum)}, key=render_formula)
    if not uniq:
        return TT
    if len(uniq) == 1:
        return uniq[0]
    return And(tuple(uniq))


def exact_count(action: str, count: int, body: Formula) -> Formula:
    """Exactly ``count`` successors satisfy the body: a >= and <= pair."""
    return conj([GDia(">=", count, action, body), GDia("<=", count, action, body)])


# --- grammar ----------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at token {position})")
        self.position = position


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError("unexpected end of input", pos)
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", pos)
        pos += 1
        return tok

    def parse() -> Formula:
        nonlocal pos
        tok = take()
        if tok == "tt":
            return TT
        if tok == "ff":
            return FF
        if tok != "(":
            if tok == ")":
                raise FormulaSyntaxError("unexpected ')'", pos - 1)
            return Prop(tok)
        head = take()
        if head == "not":
            name = take()
            take(")")
            return NegProp(name)
        if head in ("and", "or"):
            items = []
            while peek() != ")":
                items.append(parse())
            take(")")
            return (And if head == "and" else Or)(tuple(items))
        if head in ("dia", "box"):
            action = take()
            body = parse()
            take(")")
            return (Dia if head == "dia" else Box)(action, body)
        if head == "gdia":
            cmp = take()
            count = take()
            if not count.isdigit():
                raise FormulaSyntaxError("graded bound must be a natural", pos - 1)
            action = take()
            body = parse()
            take(")")
            return GDia(cmp, int(count), action, body)
        if head == "deadlock":
            take(")")
            return DEADLOCK
        raise FormulaSyntaxError(f"unknown operator {head!r}", pos - 1)

    result = parse()
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input", pos)
    return result


def render_formula(f: Formula) -> str:
    """The s-expression text of ``f``, rendered once per node and cached."""
    try:
        return f._text
    except AttributeError:
        pass
    # children first, stopping at nodes already rendered
    stack = [f]
    while stack:
        g = stack[-1]
        try:
            text = _render_node(g)
        except AttributeError:  # a child has no text yet
            stack.extend(c for c in _children(g) if not hasattr(c, "_text"))
            continue
        object.__setattr__(g, "_text", text)
        stack.pop()
    return f._text


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, (Dia, Box, GDia)):
        return (f.body,)
    return ()


def _render_node(f: Formula) -> str:
    """The text of ``f`` from the cached text of its children."""
    if isinstance(f, Verum):
        return "tt"
    if isinstance(f, Falsum):
        return "ff"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, NegProp):
        return f"(not {f.name})"
    if isinstance(f, And):
        return "(and " + " ".join(g._text for g in f.items) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(g._text for g in f.items) + ")"
    if isinstance(f, Dia):
        return f"(dia {f.action} {f.body._text})"
    if isinstance(f, Box):
        return f"(box {f.action} {f.body._text})"
    if isinstance(f, GDia):
        return f"(gdia {f.cmp} {f.count} {f.action} {f.body._text})"
    if isinstance(f, Deadlock):
        return "(deadlock)"
    raise TypeError(f"not a formula: {f!r}")


# --- evaluation ---------------------------------------------------------------


class UnknownSymbol(KeyError):
    pass


def _check_symbols(f: Formula, p: PointedStructure) -> None:
    props = set(p.signature.propositions)
    actions = set(p.signature.actions)
    for g in iter_subformulas(f):
        if isinstance(g, (Prop, NegProp)) and g.name not in props:
            raise UnknownSymbol(f"unknown proposition {g.name!r}")
        if isinstance(g, (Dia, Box, GDia)) and g.action not in actions:
            raise UnknownSymbol(f"unknown action {g.action!r}")


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, in pre-order, without recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or)):
            stack.extend(reversed(g.items))
        elif isinstance(g, (Dia, Box, GDia)):
            stack.append(g.body)


def eval_formula(f: Formula, p: PointedStructure) -> bool:
    """Standard Kripke satisfaction at the distinguished point."""
    _check_symbols(f, p)
    return _eval_at(f, p, p.point)


def _eval_at(f: Formula, p: PointedStructure, w: str) -> bool:
    if isinstance(f, Verum):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Prop):
        return f.name in p.base.valuation(w)
    if isinstance(f, NegProp):
        return f.name not in p.base.valuation(w)
    if isinstance(f, And):
        return all(_eval_at(g, p, w) for g in f.items)
    if isinstance(f, Or):
        return any(_eval_at(g, p, w) for g in f.items)
    if isinstance(f, Dia):
        return any(_eval_at(f.body, p, v) for v in p.base.successors(w, f.action))
    if isinstance(f, Box):
        return all(_eval_at(f.body, p, v) for v in p.base.successors(w, f.action))
    if isinstance(f, GDia):
        hits = sum(1 for v in p.base.successors(w, f.action) if _eval_at(f.body, p, v))
        return hits >= f.count if f.cmp == ">=" else hits <= f.count
    if isinstance(f, Deadlock):
        return p.base.is_terminal(w)
    raise TypeError(f"not a formula: {f!r}")


# --- classification -----------------------------------------------------------


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Verum, Falsum, Prop, NegProp)):
        return 0
    if isinstance(f, (And, Or)):
        return max((modal_depth(g) for g in f.items), default=0)
    if isinstance(f, (Dia, Box, GDia)):
        return 1 + modal_depth(f.body)
    if isinstance(f, Deadlock):
        return 1
    raise TypeError(f"not a formula: {f!r}")


def _node_heavy(g: Formula) -> bool:
    if isinstance(g, (Dia, GDia)):
        return not isinstance(g.body, Verum)
    if isinstance(g, Box):
        return not isinstance(g.body, (Verum, Falsum))
    return False


def _is_heavy(f: Formula) -> bool:
    """Does the formula explore at all: any modal operator applied to more
    than verum (boxes also tolerate falsum, the deadlock pattern)."""
    return any(_node_heavy(g) for g in iter_subformulas(f))


def _is_linear(f: Formula) -> bool:
    if isinstance(f, (Verum, Falsum, Prop, NegProp, Deadlock)):
        return True
    if isinstance(f, And):
        return (
            all(_is_linear(g) for g in f.items)
            and sum(1 for g in f.items if _is_heavy(g)) <= 1
        )
    if isinstance(f, Or):
        return all(_is_linear(g) for g in f.items)
    if isinstance(f, (Dia, GDia)):
        return _is_linear(f.body)
    if isinstance(f, Box):
        return _is_linear(f.body) and not _is_heavy(f.body)
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class ClassifyResult:
    tags: frozenset[str]
    depth: int

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def classify(f: Formula) -> ClassifyResult:
    """Fragment membership (syntactic) plus modal depth."""
    has_neg = any(isinstance(g, NegProp) for g in iter_subformulas(f))
    has_box = any(isinstance(g, Box) for g in iter_subformulas(f))
    has_graded = any(isinstance(g, GDia) for g in iter_subformulas(f))
    has_deadlock = any(isinstance(g, Deadlock) for g in iter_subformulas(f))
    tags = {"ML"}
    if not (has_neg or has_box or has_graded or has_deadlock):
        tags.add("DiamondPos")
    if not (has_box or has_graded or has_deadlock):
        tags.add("Diamond")
    if not (has_box or has_graded):
        tags.add("DeadlockDiamond")
    if not (has_box or has_deadlock):
        tags.add("Graded")
    if _is_linear(f):
        tags.add("Linear")
    return ClassifyResult(frozenset(tags), modal_depth(f))


# --- synthesis ----------------------------------------------------------------

SYNTH_FRAGMENTS = ("DiamondPos", "Diamond", "DeadlockDiamond", "Graded")


def _literals(p: PointedStructure, element: str, negated: bool) -> list[Formula]:
    val = p.base.valuation(element)
    lits: list[Formula] = [Prop(x) for x in sorted(val)]
    if negated:
        lits += [NegProp(x) for x in sorted(set(p.signature.propositions) - val)]
    return lits


def synth_trace_formula(
    p: PointedStructure, run: Run, fragment: str
) -> Formula:
    """A formula of the requested fragment pinning the given run's trace.

    The formula reads the run forward: literals at the start state, then one
    modality per transition.  The graded variant demands the exact successor
    count observed at each step; the deadlock variant marks terminal endpoints.
    """
    if fragment not in SYNTH_FRAGMENTS:
        raise ValueError(f"fragment {fragment!r} is not a synthesis target")
    negated = fragment != "DiamondPos"

    def build(i: int) -> Formula:
        items = _literals(p, run.states[i], negated)
        if i == len(run):
            if fragment == "DeadlockDiamond" and p.base.is_terminal(run.states[i]):
                items.append(DEADLOCK)
        else:
            action = run.actions[i]
            body = build(i + 1)
            if fragment == "Graded":
                # the exact number of successors that continue this way; raw
                # successor counts would not be satisfied by the source itself
                m = sum(
                    1
                    for v in p.base.successors(run.states[i], action)
                    if _eval_at(body, p, v)
                )
                items.append(exact_count(action, m, body))
            else:
                items.append(Dia(action, body))
        return conj(items)

    return build(0)


def synth_characteristic(p: PointedStructure, k: int, fragment: str) -> Formula:
    """Conjunction of per-run formulas over all runs of length <= k."""
    if fragment not in SYNTH_FRAGMENTS:
        raise ValueError(f"fragment {fragment!r} is not a synthesis target")
    return conj([synth_trace_formula(p, run, fragment) for run in runs_upto(p, k)])


def synth_ready_formula(rt: ReadyTrace, actions: Optional[Sequence[str]] = None) -> Formula:
    """A linear formula expressing the ready trace: enabled actions are
    witnessed by diamonds, disabled ones excluded by box-falsum clauses."""
    alphabet = tuple(actions) if actions is not None else tuple(
        sorted(set().union(*rt.ready_sets, set(rt.actions)))
    )

    def build(i: int) -> Formula:
        ready = rt.ready_sets[i]
        items: list[Formula] = [Box(g, FF) for g in alphabet if g not in ready]
        if i < len(rt.actions):
            step = rt.actions[i]
            items += [Dia(b, TT) for b in sorted(ready) if b != step]
            items.append(Dia(step, build(i + 1)))
        else:
            items += [Dia(b, TT) for b in sorted(ready)]
        return conj(items)

    return build(0)


_FRAGMENT_RELATION = {
    "DiamondPos": "tr",
    "Diamond": "ltr",
    "DeadlockDiamond": "cltr",
    "Graded": "gltr",
}


def _runs_of_trace(p: PointedStructure, trace) -> list[Run]:
    return [
        r for r in enumerate_runs(p, len(trace)) if trace_of(p, r).dropped() == trace.dropped()
    ]


def _graded_candidates(
    p: PointedStructure, runs: Sequence[Run], k: int
) -> Iterator[Formula]:
    """Graded-fragment candidates derived from runs: per-level modality
    variants plus terminal-profile detectors at the endpoint."""
    actions = p.signature.actions
    for run in runs:
        yield synth_trace_formula(p, run, "Graded")
        yield synth_trace_formula(p, run, "Diamond")
        ends = run.states[-1]
        end_profiles: list[list[Formula]] = [[]]
        if len(run) < k:
            profile = [
                exact_count(g, len(p.base.successors(ends, g)), TT) for g in actions
            ]
            end_profiles.append(profile)
        for extra in end_profiles:
            for graded_levels in range(len(run) + 1):
                for mode in ("=", ">=", "<="):
                    # grade the first `graded_levels` transitions, plain after
                    def build(i: int) -> Formula:
                        items = _literals(p, run.states[i], True)
                        if i == len(run):
                            items.extend(extra)
                        else:
                            body = build(i + 1)
                            if i < graded_levels:
                                m = len(p.base.successors(run.states[i], run.actions[i]))
                                if mode == "=":
                                    items.append(exact_count(run.actions[i], m, body))
                                else:
                                    items.append(GDia(mode, m, run.actions[i], body))
                            else:
                                items.append(Dia(run.actions[i], body))
                        return conj(items)

                    yield build(0)


def synth_distinguishing(
    a: PointedStructure, b: PointedStructure, k: int, fragment: str
) -> Optional[Formula]:
    """A formula of the fragment true on exactly one side, or None when the
    fragment's behavioural relation holds (both directions for the directed
    relations)."""
    if fragment not in SYNTH_FRAGMENTS:
        raise ValueError(f"fragment {fragment!r} is not a synthesis target")
    rel = _FRAGMENT_RELATION[fragment]
    if rel in ("tr", "ltr"):
        verdicts = [
            ("left", check_trace_relation(rel, a, b, k)),
            ("right", check_trace_relation(rel, b, a, k)),
        ]
        failing = [(side, v) for side, v in verdicts if not v.holds]
        if not failing:
            return None
        side, verdict = failing[0]
    else:
        verdict = check_trace_relation(rel, a, b, k)
        if verdict.holds:
            return None
        side = verdict.witness_side

    holder = a if side == "left" else b
    other = b if side == "left" else a
    witness = verdict.witness

    candidates: list[Formula] = []
    if fragment in ("DiamondPos", "Diamond", "DeadlockDiamond"):
        for run in _runs_of_trace(holder, witness):
            if witness.complete and not holder.base.is_terminal(run.last):
                continue
            if fragment == "DeadlockDiamond" and not witness.complete:
                # a labelled-trace failure: the terminal marker is not needed
                # and may not fit the depth budget
                candidates.append(synth_trace_formula(holder, run, "Diamond"))
            else:
                candidates.append(synth_trace_formula(holder, run, fragment))
    else:
        candidates.extend(_graded_candidates(holder, _runs_of_trace(holder, witness), k))
        # widen to formulas derived from every run of either structure
        candidates.extend(_graded_candidates(holder, runs_upto(holder, k), k))
        candidates.extend(_graded_candidates(other, runs_upto(other, k), k))

    seen = set()
    ordered = []
    for f in candidates:
        key = render_formula(f)
        if key not in seen:
            seen.add(key)
            ordered.append(f)
    ordered.sort(key=lambda f: (len(render_formula(f)), render_formula(f)))
    fallback = None
    for f in ordered:
        if modal_depth(f) > k:
            continue
        va, vb = eval_formula(f, a), eval_formula(f, b)
        if va != vb:
            holder_value = va if side == "left" else vb
            if holder_value:
                return f
            if fallback is None:
                fallback = f
    if fallback is not None:
        return fallback
    raise LookupError(
        f"{rel} fails at bound {k} but no {fragment} candidate separates the pair"
    )
