"""Modal formula AST, s-expression grammar, Kripke evaluation, fragment
classification, and formula synthesis from runs, ready traces, and failed
relation checks.

Formulas are hash-consed: a node constructor returns the live node with equal
fields when there is one, so equality is identity and a formula is a DAG of
shared nodes.  Two evaluators read that DAG:

- ``truth_vectors`` evaluates a list of formulas over many structures at once,
  in one bottom-up pass over the distinct nodes, each extension an int bitmask
  over the disjoint union of the structures, a ``UnionModel`` (global model
  checking), which the cor74 suite also reads directly;
- ``eval_formula`` evaluates one formula locally from the point, with an
  explicit stack memoised by (node, state), so a deep formula on a long chain
  visits only the states it reaches.

Every formula read off runs, in every synthesis fragment, is first an
interned integer id of a ``_Plan``, with its extension on the structures'
``UnionModel``, its modal depth and the length of its text, all computed as
the id is made.  ``synth_trace_formula`` and ``synth_characteristic`` build
the nodes of their ids; ``synth_distinguishing`` selects among candidate ids
by these values and builds formulas only for the separating candidates of
the least length.  Graded candidates are made under a running bound, the
least length of a candidate made so far that separates the pair and holds
on the holder; a candidate is skipped only when it is longer than that
bound, so it cannot change the printed formula, the least text among the
least-length holder-separating candidates.

Grammar (s-expressions):

    tt | ff | <name> | (not <name>) | (and f ...) | (or f ...)
    | (dia <act> f) | (box <act> f) | (gdia (>=|<=) <nat> <act> f)
    | (deadlock)
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence

from .structures import PointedStructure, Signature, Structure
from .traces import Run, check_trace_relation, enumerate_runs, runs_upto, trace_of


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's table key."""

    __slots__ = ("key",)


# (class, *fields) -> weak reference to the one live node with those fields
_NODES: dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    # a node built again after this one died may already hold the key
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


_set = object.__setattr__


class Formula:
    """Base class of the immutable, hash-consed formula nodes.

    Constructing a node returns the live node with equal fields if there is
    one (Filliâtre and Conchon, "Type-safe modular hash-consing", 2006), so
    equal formulas are one object: equality is identity and the hash is the
    identity hash.  ``Prop("tt")`` and ``TT`` are different nodes.  The table
    holds nodes weakly, so a formula no longer referenced is dropped from it.
    ``_text`` keeps the rendered text once ``render_formula`` has made it.
    ``truth_vectors`` evaluates formulas in batch, ``eval_formula`` locally
    from the point.

    Each shape of node has its own constructor, written out for speed: parsing
    and synthesis build many nodes.
    """

    __slots__ = ("_text", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __new__(cls):
        key = (cls,)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        # the constructor-call text, written out from an explicit stack, so
        # that any depth prints and the work is linear in the output
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            pieces: list = [f"{type(item).__name__}("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                pieces.append(f"{', ' if i else ''}{name}=")
                if isinstance(value, Formula):
                    pieces.append(value)
                elif isinstance(value, tuple):
                    pieces.append("(")
                    for j, g in enumerate(value):
                        pieces += [", ", g] if j else [g]
                    pieces.append(",)" if len(value) == 1 else ")")
                else:
                    pieces.append(repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)

    def __str__(self) -> str:  # pragma: no cover - delegated
        return render_formula(self)


class _Named(Formula):
    """A literal: a proposition or its negation."""

    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _set(node, "name", name)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class _Junction(Formula):
    """A conjunction or disjunction of a tuple of formulas."""

    __slots__ = _fields = ("items",)

    def __new__(cls, items: tuple[Formula, ...]):
        key = (cls, items)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _set(node, "items", items)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class _Modal(Formula):
    """A diamond or box over one action."""

    __slots__ = _fields = ("action", "body")

    def __new__(cls, action: str, body: Formula):
        key = (cls, action, body)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _set(node, "action", action)
            _set(node, "body", body)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class Verum(Formula):
    __slots__ = ()


class Falsum(Formula):
    __slots__ = ()


class Prop(_Named):
    __slots__ = ()


class NegProp(_Named):
    __slots__ = ()


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


class Dia(_Modal):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


class GDia(Formula):
    """Graded diamond: at least / at most ``count`` successors satisfy the body."""

    __slots__ = _fields = ("cmp", "count", "action", "body")

    def __new__(cls, cmp: str, count: int, action: str, body: Formula):
        key = (cls, cmp, count, action, body)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            # checked before the node can enter the table
            if cmp not in (">=", "<="):
                raise ValueError("graded comparator must be >= or <=")
            if count < 0:
                raise ValueError("graded bound must be >= 0")
            node = object.__new__(cls)
            _set(node, "cmp", cmp)
            _set(node, "count", count)
            _set(node, "action", action)
            _set(node, "body", body)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


class Deadlock(Formula):
    __slots__ = ()


TT = Verum()
FF = Falsum()
DEADLOCK = Deadlock()


def conj(items: Sequence[Formula]) -> Formula:
    """Conjunction, normalized: unit dropped, deduplicated, sorted, flattened
    at width 0/1.  ``_Plan.step`` computes this normal form's text length by
    arithmetic for the formulas of every synthesis fragment, so a change here
    must change it too."""
    # first occurrences in order, so nodes with equal text keep a fixed order
    uniq = sorted(dict.fromkeys(f for f in items if f is not TT), key=render_formula)
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
    """Recursive descent over the tokens; errors name the index of the token
    at fault."""
    tokens = _tokenize(text)
    stream = enumerate(tokens)

    def take(expected: str) -> None:
        i, tok = next(stream)
        if tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", i)

    def name(what: str) -> str:
        """The next token, which names an action or a proposition, so it may
        not be a parenthesis."""
        i, tok = next(stream)
        if tok == "(" or tok == ")":
            raise FormulaSyntaxError(f"expected {what}, found {tok!r}", i)
        return tok

    def parse(i: int, tok: str) -> Formula:
        if tok != "(":
            if tok == "tt":
                return TT
            if tok == "ff":
                return FF
            if tok == ")":
                raise FormulaSyntaxError("unexpected ')'", i)
            return Prop(tok)
        i, head = next(stream)
        if head == "dia" or head == "box":
            action = name("an action")
            i, tok = next(stream)
            body = parse(i, tok)
            take(")")
            return (Dia if head == "dia" else Box)(action, body)
        if head == "and" or head == "or":
            items = []
            i, tok = next(stream)
            while tok != ")":
                items.append(parse(i, tok))
                i, tok = next(stream)
            return (And if head == "and" else Or)(tuple(items))
        if head == "not":
            prop = name("a proposition")
            take(")")
            return NegProp(prop)
        if head == "gdia":
            i, cmp = next(stream)
            if cmp != ">=" and cmp != "<=":
                raise FormulaSyntaxError(f"expected a comparator, found {cmp!r}", i)
            i, count = next(stream)
            if not count.isdigit():
                raise FormulaSyntaxError("graded bound must be a natural", i)
            action = name("an action")
            i, tok = next(stream)
            body = parse(i, tok)
            take(")")
            return GDia(cmp, int(count), action, body)
        if head == "deadlock":
            take(")")
            return DEADLOCK
        raise FormulaSyntaxError(f"unknown operator {head!r}", i)

    try:
        i, tok = next(stream)
        result = parse(i, tok)
    except StopIteration:  # a token was due after the last one
        raise FormulaSyntaxError("unexpected end of input", len(tokens)) from None
    for i, _ in stream:
        raise FormulaSyntaxError("trailing input", i)
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


def _render_node(f: Formula) -> str:
    """The text of ``f`` from the cached text of its children.  ``_Plan``
    computes the lengths of the layouts that synthesis uses (literals,
    conjunctions, diamonds, graded diamonds and the deadlock marker) by
    arithmetic, so a change here must change it too."""
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


# --- traversal ----------------------------------------------------------------


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or)):
        return f.items
    if isinstance(f, (Dia, Box, GDia)):
        return (f.body,)
    return ()


def _post_order(roots: Sequence[Formula]) -> list[Formula]:
    """Every distinct node reachable from the roots, once, children before
    parents, without recursion."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(_children(root)))]
        while stack:
            node, kids = stack[-1]
            for kid in kids:
                if kid not in seen:
                    seen.add(kid)
                    stack.append((kid, iter(_children(kid))))
                    break
            else:
                order.append(node)
                stack.pop()
    return order


# --- evaluation ---------------------------------------------------------------


class UnknownSymbol(KeyError):
    pass


def _check_symbols(formulas: Sequence[Formula], signatures: Sequence[Signature]) -> None:
    """Raise the ``UnknownSymbol`` that evaluating each formula on each
    signature's structures in turn would meet first: the first node in
    pre-order of the first failing (formula, signature) pair.  Each distinct
    node is visited once per distinct signature."""
    checks = [
        (frozenset(sig.propositions), frozenset(sig.actions), set())
        for sig in dict.fromkeys(signatures)
    ]
    for f in formulas:
        for props, actions, seen in checks:
            stack = [f]
            while stack:
                g = stack.pop()
                if g in seen:
                    continue
                seen.add(g)
                kind = type(g)
                if kind is Dia or kind is Box or kind is GDia:
                    if g.action not in actions:
                        raise UnknownSymbol(f"unknown action {g.action!r}")
                    stack.append(g.body)
                elif kind is And or kind is Or:
                    stack.extend(reversed(g.items))
                elif (kind is Prop or kind is NegProp) and g.name not in props:
                    raise UnknownSymbol(f"unknown proposition {g.name!r}")


def eval_formula(f: Formula, p: PointedStructure) -> bool:
    """Standard Kripke satisfaction at the distinguished point."""
    _check_symbols((f,), (p.signature,))
    return _holds_at(f, p.base, p.point)


def _literal(g: Formula, s: Structure, w: str) -> bool:
    """The value at ``w`` of a node with no subformulas."""
    kind = type(g)
    if kind is Prop:
        return g.name in s.valuation(w)
    if kind is NegProp:
        return g.name not in s.valuation(w)
    if kind is Verum:
        return True
    if kind is Falsum:
        return False
    if kind is Deadlock:
        return s.is_terminal(w)
    raise TypeError(f"not a formula: {g!r}")


_COMPOSITE = frozenset({And, Or, Dia, Box, GDia})

# how a node folds the values of its (subformula, state) queries: (the value
# it counts, how many of those decide it, its value once decided); graded
# diamonds depend on their bound
_FOLDS = {
    And: (False, 1, False),
    Or: (True, 1, True),
    Dia: (True, 1, True),
    Box: (False, 1, False),
}


def _holds_at(f: Formula, s: Structure, w: str) -> bool:
    """Does ``f`` hold at ``w``: evaluated locally from ``w`` with an explicit
    stack, each (node, state) with subformulas decided once.

    A frame is [query, its (subformula, state) queries, the value it counts,
    how many of those decide it, its value once decided]; it takes the
    opposite value when its queries run out first, so it stops at the first
    value that decides it.  The bottom frame asks (f, w) alone.
    """
    memo: dict[tuple[Formula, str], bool] = {}
    stack = [[None, iter(((f, w),)), True, 1, True]]
    done: Optional[bool] = None  # the value of the frame closed last
    while True:
        frame = stack[-1]
        if done is frame[2]:
            frame[3] -= 1
        if frame[3] <= 0:
            done = frame[4]
        else:
            done = None
            for g, v in frame[1]:
                kind = type(g)
                if kind in _COMPOSITE:
                    value = memo.get((g, v))
                    if value is None:
                        if kind is And or kind is Or:
                            queries = zip(g.items, repeat(v))
                        else:
                            queries = zip(repeat(g.body), s.successors(v, g.action))
                        fold = _FOLDS.get(kind) or (
                            (True, g.count, True) if g.cmp == ">=" else (True, g.count + 1, False)
                        )
                        stack.append([(g, v), queries, *fold])
                        break
                else:
                    value = _literal(g, s, v)
                if value is frame[2]:
                    frame[3] -= 1
                    if frame[3] <= 0:
                        done = frame[4]
                        break
            else:
                done = not frame[4]
            if done is None:
                continue
        stack.pop()
        if not stack:
            return done
        memo[frame[0]] = done


class UnionModel:
    """The disjoint union of some pointed structures' bases as int bitmasks:
    element i of the base at offset o is bit o + i of every mask, each base
    counted once.  ``truth_vectors`` computes formula extensions on it, and
    the cor74 suite computes its fragment's extensions on it directly."""

    def __init__(self, structures: Sequence[PointedStructure]) -> None:
        offset: dict[int, int] = {}  # id(structure) -> its offset
        self.holds: dict[str, int] = {}  # proposition -> where it holds
        self._targets: dict[str, int] = {}  # action -> where it leads
        self._sources: dict[str, dict[int, int]] = {}  # action -> target bit -> its sources
        moving = 0  # where some action leads away
        size = 0
        for base in (p.base for p in structures):
            if id(base) in offset:
                continue
            offset[id(base)] = size
            bit = {e: size + i for i, e in enumerate(base.universe)}
            size += len(base.universe)
            for name in base.signature.propositions:
                for (e,) in base.interp[name]:
                    self.holds[name] = self.holds.get(name, 0) | 1 << bit[e]
            for act in base.signature.actions:
                into = self._sources.setdefault(act, {})
                for e, t in base.interp[act]:
                    into[bit[t]] = into.get(bit[t], 0) | 1 << bit[e]
                    self._targets[act] = self._targets.get(act, 0) | 1 << bit[t]
                    moving |= 1 << bit[e]
        self.every = (1 << size) - 1
        self.deadlock = self.every & ~moving
        # each structure's base offset and point bit, in order
        self.offsets = [offset[id(p.base)] for p in structures]
        self.points = [o + p.base.universe.index(p.point) for o, p in zip(self.offsets, structures)]
        self._at_points = sum(1 << b for b in set(self.points))
        self._vectors: dict[int, tuple[bool, ...]] = {}  # masks share few vectors

    def at_least(self, action: str, body: int, n: int) -> int:
        """Where at least n ``action``-successors lie in ``body``: level[j]
        gathers the states with at least j of them, one successor at a time."""
        level = [self.every] + [0] * n
        into = self._sources.get(action, {})
        todo = body & self._targets.get(action, 0)
        while todo:
            low = todo & -todo
            todo ^= low
            pre = into[low.bit_length() - 1]
            for j in range(n, 0, -1):
                level[j] |= level[j - 1] & pre
        return level[n]

    def vectors(self, masks: Iterable[int]) -> list[tuple[bool, ...]]:
        """Each mask's truth value at the point of each structure, in order;
        equal vectors are one object."""
        out = []
        for mask in masks:
            key = mask & self._at_points
            vec = self._vectors.get(key)
            if vec is None:
                vec = self._vectors[key] = tuple(bool(key >> b & 1) for b in self.points)
            out.append(vec)
        return out


def truth_vectors(
    formulas: Sequence[Formula], structures: Sequence[PointedStructure]
) -> list[tuple[bool, ...]]:
    """For each formula, its truth value at the point of each structure.

    One pass over the distinct nodes reachable from the formulas computes each
    node's extension bottom up, as one ``UnionModel`` bitmask (global model
    checking: Clarke, Emerson and Sistla, TOPLAS 1986).  Symbols are checked
    first, once per distinct node, with the error ``eval_formula`` gives on
    the first failing (formula, structure) pair.
    """
    _check_symbols(formulas, [p.signature for p in structures])
    model = UnionModel(structures)
    every, at_least = model.every, model.at_least
    ext: dict[Formula, int] = {}
    for g in _post_order(formulas):
        kind = type(g)
        if kind is And:
            mask = every
            for h in g.items:
                mask &= ext[h]
        elif kind is Or:
            mask = 0
            for h in g.items:
                mask |= ext[h]
        elif kind is Dia:
            mask = at_least(g.action, ext[g.body], 1)
        elif kind is Box:
            mask = every & ~at_least(g.action, every & ~ext[g.body], 1)
        elif kind is GDia and g.cmp == ">=":
            mask = at_least(g.action, ext[g.body], g.count)
        elif kind is GDia:
            mask = every & ~at_least(g.action, ext[g.body], g.count + 1)
        elif kind is Prop:
            mask = model.holds.get(g.name, 0)
        elif kind is NegProp:
            mask = every & ~model.holds.get(g.name, 0)
        elif kind is Verum:
            mask = every
        elif kind is Falsum:
            mask = 0
        elif kind is Deadlock:
            mask = model.deadlock
        else:
            raise TypeError(f"not a formula: {g!r}")
        ext[g] = mask
    return model.vectors(ext[f] for f in formulas)


# --- classification -----------------------------------------------------------


def modal_depth(f: Formula) -> int:
    depth: dict[Formula, int] = {}
    for g in _post_order((f,)):
        if isinstance(g, (Verum, Falsum, Prop, NegProp)):
            depth[g] = 0
        elif isinstance(g, (And, Or)):
            depth[g] = max((depth[h] for h in g.items), default=0)
        elif isinstance(g, (Dia, Box, GDia)):
            depth[g] = 1 + depth[g.body]
        elif isinstance(g, Deadlock):
            depth[g] = 1
        else:
            raise TypeError(f"not a formula: {g!r}")
    return depth[f]


def _node_heavy(g: Formula) -> bool:
    if isinstance(g, (Dia, GDia)):
        return not isinstance(g.body, Verum)
    if isinstance(g, Box):
        return not isinstance(g.body, (Verum, Falsum))
    return False


def _is_linear(f: Formula) -> bool:
    """At most one heavy conjunct per conjunction and nothing heavy under a
    box, where a formula is heavy when it explores at all: any modal operator
    applied to more than verum (boxes also tolerate falsum, the deadlock
    pattern)."""
    heavy: dict[Formula, bool] = {}
    linear: dict[Formula, bool] = {}
    for g in _post_order((f,)):
        heavy[g] = _node_heavy(g) or any(heavy[h] for h in _children(g))
        if isinstance(g, (Verum, Falsum, Prop, NegProp, Deadlock)):
            linear[g] = True
        elif isinstance(g, And):
            linear[g] = (
                all(linear[h] for h in g.items)
                and sum(1 for h in g.items if heavy[h]) <= 1
            )
        elif isinstance(g, Or):
            linear[g] = all(linear[h] for h in g.items)
        elif isinstance(g, (Dia, GDia)):
            linear[g] = linear[g.body]
        elif isinstance(g, Box):
            linear[g] = linear[g.body] and not heavy[g.body]
        else:
            raise TypeError(f"not a formula: {g!r}")
    return linear[f]


@dataclass(frozen=True)
class ClassifyResult:
    tags: frozenset[str]
    depth: int

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def classify(f: Formula) -> ClassifyResult:
    """Fragment membership (syntactic) plus modal depth."""
    kinds = {type(g) for g in _post_order((f,))}
    has_neg = NegProp in kinds
    has_box = Box in kinds
    has_graded = GDia in kinds
    has_deadlock = Deadlock in kinds
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
    plan = _Plan([p])
    return plan.node(plan.trace(0, run, fragment))


def synth_characteristic(p: PointedStructure, k: int, fragment: str) -> Formula:
    """Conjunction of per-run formulas over all runs of length <= k."""
    if fragment not in SYNTH_FRAGMENTS:
        raise ValueError(f"fragment {fragment!r} is not a synthesis target")
    plan = _Plan([p])
    return conj([plan.node(plan.trace(0, run, fragment)) for run in runs_upto(p, k)])


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


class _Plan:
    """Formulas read off the runs of some structures, as interned integer ids
    decided without building them.

    An id names a recipe over child ids, interned by the recipe: ``("tt",)``
    and ``("deadlock",)``; ``("step", literals, items)``, the conjunction of
    a state's literal set with the items, where a literal set is interned by
    the state's (valuation, positive) and leaves out negated literals when
    positive; ``("dia", action, body)`` and ``("gdia", cmp, count, action,
    body)``, the diamonds; and ``("exact", action, count, body)``,
    ``exact_count``.  Each id carries, computed as it is made, its extension
    as a bitmask of ``model``, the structures' ``UnionModel``, its modal
    depth and the length of its rendered text.  ``node`` builds the formula
    of an id, literals through ``conj`` and the rest through ``Dia``,
    ``GDia`` and ``exact_count``, so it is the node the recipe names.
    """

    def __init__(self, structures: Sequence[PointedStructure]) -> None:
        self.structures = structures
        self.model = model = UnionModel(structures)
        self.ids: dict[tuple, int] = {}
        self.recipe: list[tuple] = []
        self.mask: list[int] = []
        self.depth: list[int] = []
        self.length: list[int] = []
        # literal sets, interned by (valuation, positive): each one's (mask,
        # text length, count, valuation, positive, propositions)
        self.literal_ids: dict[tuple[frozenset[str], bool], int] = {}
        self.literal: list[tuple] = []
        self.state_literals: dict[tuple[int, bool], dict[str, int]] = {}
        self.succ: list[Optional[dict[tuple[str, str], int]]] = [None] * len(structures)
        self.built: dict[int, Formula] = {}
        self.counted: dict[tuple[str, int, int], int] = {}  # at_least by its arguments
        self.tt = self._add(("tt",), model.every, 0, 2)
        self.deadlock = self._add(("deadlock",), model.deadlock, 1, 10)

    def _add(self, key: tuple, mask: int, depth: int, length: int) -> int:
        i = self.ids[key] = len(self.recipe)
        self.recipe.append(key)
        self.mask.append(mask)
        self.depth.append(depth)
        self.length.append(length)
        return i

    def at_least(self, action: str, body: int, n: int) -> int:
        # bodies of different ids share few extensions
        key = (action, self.mask[body], n)
        mask = self.counted.get(key)
        if mask is None:
            mask = self.counted[key] = self.model.at_least(*key)
        return mask

    def successors(self, i: int) -> dict[tuple[str, str], int]:
        """The successor masks of structure ``i``, by (state, action)."""
        succ = self.succ[i]
        if succ is None:
            p, offset = self.structures[i], self.model.offsets[i]
            bit = {e: offset + n for n, e in enumerate(p.base.universe)}
            succ = self.succ[i] = {
                (w, g): sum(1 << bit[v] for v in p.base.successors(w, g))
                for w in p.base.universe
                for g in p.signature.actions
            }
        return succ

    def literals(self, i: int, positive: bool) -> dict[str, int]:
        """Each state of structure ``i`` -> its literal set, negated literals
        left out when ``positive``."""
        lits = self.state_literals.get((i, positive))
        if lits is None:
            p, holds = self.structures[i], self.model.holds
            lits = self.state_literals[i, positive] = {}
            for w in p.base.universe:
                key = (p.base.valuation(w), positive)
                if key not in self.literal_ids:
                    val, props = key[0], p.signature.propositions
                    mask, length, count = self.model.every, 0, 0
                    for x in props:
                        if x in val:
                            mask &= holds.get(x, 0)
                            length += len(x)
                        elif positive:
                            continue
                        else:
                            mask &= ~holds.get(x, 0)
                            length += len(x) + 6  # "(not x)"
                        count += 1
                    self.literal_ids[key] = len(self.literal)
                    self.literal.append((mask, length, count, val, positive, props))
                lits[w] = self.literal_ids[key]
        return lits

    def step(self, lits: int, items: tuple[int, ...]) -> int:
        key = ("step", lits, items)
        i = self.ids.get(key)
        if i is None:
            mask, total, parts = self.literal[lits][:3]
            depth = 0
            for j in items:
                mask &= self.mask[j]
                total += self.length[j]
                depth = max(depth, self.depth[j])
            parts += len(items)
            # "tt", the one part, or "(and " + the parts spaced + ")"
            length = 2 if parts == 0 else total if parts == 1 else total + parts + 5
            i = self._add(key, mask, depth, length)
        return i

    def dia(self, action: str, body: int) -> int:
        key = ("dia", action, body)
        i = self.ids.get(key)
        if i is None:
            mask = self.at_least(action, body, 1)
            i = self._add(key, mask, 1 + self.depth[body], 7 + len(action) + self.length[body])
        return i

    def gdia(self, cmp: str, count: int, action: str, body: int) -> int:
        key = ("gdia", cmp, count, action, body)
        i = self.ids.get(key)
        if i is None:
            if cmp == ">=":
                mask = self.at_least(action, body, count)
            else:
                mask = self.model.every & ~self.at_least(action, body, count + 1)
            length = 12 + len(str(count)) + len(action) + self.length[body]
            i = self._add(key, mask, 1 + self.depth[body], length)
        return i

    def exact(self, action: str, count: int, body: int) -> int:
        key = ("exact", action, count, body)
        i = self.ids.get(key)
        if i is None:
            ge, le = self.gdia(">=", count, action, body), self.gdia("<=", count, action, body)
            length = self.length[ge] + self.length[le] + 7
            i = self._add(key, self.mask[ge] & self.mask[le], self.depth[ge], length)
        return i

    def trace(self, i: int, run: Run, fragment: str) -> int:
        """The id of ``synth_trace_formula`` of a run of structure ``i``, read
        from the last state back.  A graded count is the number of successors
        in the body's extension; raw successor counts would not be satisfied
        by the source itself."""
        lits = self.literals(i, fragment == "DiamondPos")
        end: tuple[int, ...] = ()
        if fragment == "DeadlockDiamond" and self.structures[i].base.is_terminal(run.last):
            end = (self.deadlock,)
        body = self.step(lits[run.last], end)
        succ = self.successors(i) if fragment == "Graded" else None
        for j in range(len(run) - 1, -1, -1):
            w, action = run.states[j], run.actions[j]
            if succ is None:
                item = self.dia(action, body)
            else:
                item = self.exact(action, (succ[w, action] & self.mask[body]).bit_count(), body)
            body = self.step(lits[w], (item,))
        return body

    def node(self, i: int) -> Formula:
        """The formula of id ``i``, children built first, without recursion."""
        built, stack = self.built, [i]
        while stack:
            j = stack[-1]
            if j in built:
                stack.pop()
                continue
            kind, *args = self.recipe[j]
            kids = args[1] if kind == "step" else args[-1:]
            missing = [c for c in kids if c not in built]
            if missing:
                stack.extend(missing)
                continue
            if kind == "tt":
                built[j] = TT
            elif kind == "deadlock":
                built[j] = DEADLOCK
            elif kind == "step":
                val, positive, props = self.literal[args[0]][3:]
                lits = [Prop(x) for x in sorted(val)]
                if not positive:
                    lits += [NegProp(x) for x in sorted(set(props) - val)]
                built[j] = conj(lits + [built[c] for c in kids])
            elif kind == "dia":
                built[j] = Dia(args[0], built[args[1]])
            elif kind == "gdia":
                built[j] = GDia(*args[:3], built[args[3]])
            else:
                built[j] = exact_count(args[0], args[1], built[args[2]])
            stack.pop()
        return built[i]


def _graded_candidates(
    structures: Sequence[PointedStructure], k: int
) -> tuple[_Plan, list[int]]:
    """The plan of the graded-fragment candidates read off every run up to
    length k of each structure in turn, and the distinct candidate ids in
    order of first appearance.  Per run and end: the run's plain-diamond
    chain with the first 0 to len(run) transitions graded (=, >= or <= the
    raw successor count), ending in the endpoint's literals alone or, below
    length k, together with the endpoint's exact successor profile; with the
    bare end, also the run's graded trace formula.

    ``structures[0]`` is the holder.  ``bound`` is the least text length of
    the candidates made so far that hold there, fail at ``structures[1]``
    and are no deeper than k (branch and bound: Land and Doig, Econometrica
    1960).  Every graded candidate of a (run, end), the graded trace formula
    included, is longer than the plain chain ``chain[0]``, since a ``gdia``
    or ``exact`` node's text is longer than a ``dia`` node's over the same
    body, and the tails ``chain[i]``, i >= 1, are shorter than ``chain[0]``.
    So each chain is built from the end and its (run, end) dropped once a
    tail reaches ``bound``; a completed ``chain[0]`` is kept even at length
    ``bound``, and its graded candidates are skipped when it reaches
    ``bound``.  A candidate is skipped only when it is longer than some
    holder-separating one, so it cannot change the printed formula, the
    least text among the least-length holder-separating candidates."""
    plan = _Plan(structures)
    mask, length = plan.mask, plan.length
    at_holder, at_other = plan.model.points
    candidates: list[int] = []
    bound = float("inf")

    def offer(i: int) -> None:
        nonlocal bound
        candidates.append(i)
        if (
            length[i] < bound
            and mask[i] >> at_holder & 1
            and not mask[i] >> at_other & 1
            and plan.depth[i] <= k
        ):
            bound = length[i]

    for j, p in enumerate(structures):
        actions, succ, val = p.signature.actions, plan.successors(j), plan.literals(j, False)
        for run in runs_upto(p, k):
            n, states, acts = len(run), run.states, run.actions
            ends: list[tuple[int, ...]] = [()]
            if n < k:
                profile = (plan.exact(g, succ[(run.last, g)].bit_count(), plan.tt) for g in actions)
                ends.append(tuple(profile))
            for extra in ends:
                # chain[i] reads the run from state i on with plain diamonds,
                # built from the end while its tails stay shorter than bound
                chain = [plan.step(val[run.last], extra)]
                while len(chain) <= n and length[chain[-1]] < bound:
                    i = n - len(chain)
                    chain.append(plan.step(val[states[i]], (plan.dia(acts[i], chain[-1]),)))
                if len(chain) <= n:
                    continue
                chain.reverse()
                offer(chain[0])
                if length[chain[0]] >= bound:
                    continue
                if not extra:
                    offer(plan.trace(j, run, "Graded"))
                # grade the first `levels` transitions on top of the chain
                counts = [succ[(states[i], acts[i])].bit_count() for i in range(n)]
                for mode in ("=", ">=", "<="):
                    for levels in range(1, n + 1):
                        body = chain[levels]
                        for i in range(levels - 1, -1, -1):
                            if mode == "=":
                                node = plan.exact(acts[i], counts[i], body)
                            else:
                                node = plan.gdia(mode, counts[i], acts[i], body)
                            body = plan.step(val[states[i]], (node,))
                        offer(body)
    return plan, list(dict.fromkeys(candidates))


def synth_distinguishing(
    a: PointedStructure, b: PointedStructure, k: int, fragment: str
) -> Optional[Formula]:
    """A formula of the fragment true on exactly one side, or None when the
    fragment's behavioural relation holds (both directions for the directed
    relations).

    The side with the failing relation's witness is the holder.  Candidates
    are the trace formulas of the holder's runs of the witness trace, or for
    Graded the ``_graded_candidates`` of both sides, all as ids of one
    ``_Plan`` over the holder and the other side.  Of the distinct candidates
    no deeper than k, ordered by ``(len(text), text)``, the first that
    separates the pair and holds on the holder wins, else the first that
    separates it.  Each id's extension mask gives its values at the two
    points and its text length is known by arithmetic, so only the winning
    pool's candidates of the least length are built, and the least text
    among them is returned.  ``_graded_candidates`` skips only candidates
    longer than a holder-separating one that it made before them, so it
    cannot change the printed formula: the least-length holder-separating
    candidates, ties included, are all made, and when there is none nothing
    is skipped.
    """
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

    holder, other = (a, b) if side == "left" else (b, a)
    witness = verdict.witness
    if fragment == "Graded":
        # formulas derived from every run of either structure; the runs of
        # the witness (no longer than k) are among the holder's
        plan, ids = _graded_candidates([holder, other], k)
    else:
        # a labelled-trace failure needs no terminal marker, which may not
        # fit the depth budget
        partial = fragment == "DeadlockDiamond" and not witness.complete
        plan, ids = _Plan([holder, other]), []
        for run in _runs_of_trace(holder, witness):
            if witness.complete and not holder.base.is_terminal(run.last):
                continue
            ids.append(plan.trace(0, run, "Diamond" if partial else fragment))
    at_holder, at_other = plan.model.points
    mask, length = plan.mask, plan.length
    separating = [
        i for i in ids if (mask[i] >> at_holder ^ mask[i] >> at_other) & 1 and plan.depth[i] <= k
    ]
    pool = [i for i in separating if mask[i] >> at_holder & 1] or separating
    if pool:
        least = min(length[i] for i in pool)
        return min((plan.node(i) for i in pool if length[i] == least), key=render_formula)
    raise LookupError(
        f"{rel} fails at bound {k} but no {fragment} candidate separates the pair"
    )
