"""Solvers for the back-and-forth game on forest objects, depth-bounded
bisimulation, the all-in-one two-sided pebble game, and the round-bounded
spoiler/duplicator game for first-order equivalence.

All solvers are deterministic: move enumeration follows universe order, and
verdicts come with machine-checkable witnesses (a response table for the
surviving player, or a winning attack for the other).

``_solve`` is memoised backward induction with an explicit stack.  The
back-and-forth, bisimulation and pebble games and the three replays give it a
winning condition and the game's moves, each with Duplicator's answers.  The
element game is not played: ``solve_ef`` compares rank-r types, each side's
fresh extensions typed once under an exact budget.  ``solve_bisim`` plays the
rounds below the root at depth at most |A| + |B|: partition refinement on the
disjoint union is stable from round |A| + |B| - 1 on (Kanellakis and Smolka
1990), so the cap changes neither the verdict nor the root's Spoiler move.

Every back-and-forth game starts at the empty paths, whose one-step
extensions are the roots: a root comparison is Spoiler's first move, and
forests may have several roots.  ``oracle.find_morphism`` reads homomorphisms
and pathwise embeddings off the existential-positive and existential games,
and spans of open pathwise embeddings off the full game: the positions that
Duplicator's table reaches, each under the one it was reached from, form the
mediator.

Solvers and replays share one implementation of each job.  ``_partial_iso``
is the partial-isomorphism check behind ``_pairs_partial_iso`` (the pebble
game), ``_pebbled_compatible`` (pebbled paths) and the solver's
pebbled step; ``_path_condition`` is the path condition behind ``path_iso``
and ``path_hom_compatible``.  ``_bf_moves`` is the one source of
back-and-forth moves and ``_pebble_game`` that of pebble placements: the
solvers, the strategy walk ``_strategy_walk`` and the replays all read them.
A replay is ``_solve`` on the solver's own game with one player held to the
table's choice among the legal ones, so a table that names an illegal move
or answer loses.  Its independence lies in its winning condition: the solver
checks only a position's newest pair, against each pebble's latest
placement, while the replays check the full path condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Literal, Optional

from .structures import PointedStructure, SignatureMismatch, Structure
from .unravel import ForestObject


Variant = Literal["full", "existential", "existential_positive"]

DUPLICATOR = "Duplicator"
SPOILER = "Spoiler"


@dataclass(frozen=True)
class PathHandle:
    """A path of a forest object: the down-set of ``node`` (None = empty path)."""

    owner: ForestObject
    node: Optional[str]

    def chain(self) -> tuple[str, ...]:
        if self.node is None:
            return ()
        return self.owner.path_to_root(self.node)


@dataclass(frozen=True)
class GameResult:
    winner: str
    witness: Optional[object] = None

    @property
    def duplicator_wins(self) -> bool:
        return self.winner == DUPLICATOR


class CategoryMismatch(ValueError):
    pass


# --- path comparisons --------------------------------------------------------


def _partial_iso(
    pairs,
    image: dict[str, str],
    left: Structure | ForestObject,
    right: Structure | ForestObject,
    reflect: bool,
) -> bool:
    """Is the pairing a partial isomorphism (a partial homomorphism unless
    ``reflect``)?

    The (left, right) element ``pairs`` must be functional, and injective when
    ``reflect``.  Every relation tuple over the keys of ``image`` that holds
    in ``left`` must hold in ``right`` once mapped through ``image``, and
    conversely when ``reflect``.
    """
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    for a, b in pairs:
        if fwd.setdefault(a, b) != b:
            return False
        if reflect and bwd.setdefault(b, a) != a:
            return False
    to_right = image.__getitem__
    for name, arity in left.signature.relations:
        rel_left, rel_right = left.interp[name], right.interp[name]
        for combo in product(image, repeat=arity):
            holds_l = combo in rel_left
            holds_r = tuple(map(to_right, combo)) in rel_right
            if holds_l and not holds_r:
                return False
            if reflect and holds_r and not holds_l:
                return False
    return True


def _pairs_partial_iso(
    pairs: list[tuple[str, str]],
    left: Structure,
    right: Structure,
    reflect: bool,
) -> bool:
    """Functional + injective + relation preservation (and reflection when
    ``reflect``) over the listed (left, right) element pairs."""
    return _partial_iso(pairs, dict(pairs), left, right, reflect)


def _pebbled_compatible(
    x: ForestObject,
    cx: tuple[str, ...],
    y: ForestObject,
    cy: tuple[str, ...],
    reflect: bool,
) -> bool:
    """Equal pebble sequences, and at every index the pairing of last
    placements is a partial isomorphism.

    Identity of placed elements comes from the origin labels; the relational
    part is read off the forests' own interpretations, which is sound because
    a tuple of last placements never reuses a pebble before the tuple's
    maximal index, exactly the freshness condition under which a forest tuple
    matches the source.
    """
    if len(cx) != len(cy):
        return False
    if any(x.pebble[cx[j]] != y.pebble[cy[j]] for j in range(len(cx))):
        return False
    last: dict[int, tuple[str, str]] = {}  # pebble -> its last placement pair
    for u, v in zip(cx, cy):
        last[x.pebble[u]] = (u, v)
        placed = [(x.origin[u2], y.origin[v2]) for u2, v2 in last.values()]
        if not _partial_iso(placed, dict(last.values()), x, y, reflect):
            return False
    return True


def _path_condition(a: PathHandle, b: PathHandle, reflect: bool) -> bool:
    """Path isomorphism when ``reflect``, else a componentwise morphism."""
    if a.owner.kind != b.owner.kind:
        raise CategoryMismatch(f"cannot compare {a.owner.kind} with {b.owner.kind}")
    ca, cb = a.chain(), b.chain()
    if a.owner.kind != "modal":
        return _pebbled_compatible(a.owner, ca, b.owner, cb, reflect)
    x, y = a.owner, b.owner
    return len(ca) == len(cb) and all(
        x.action_in.get(u) == y.action_in.get(v)
        and (x.valuation[u] == y.valuation[v] if reflect else x.valuation[u] <= y.valuation[v])
        for u, v in zip(ca, cb)
    )


def path_iso(a: PathHandle, b: PathHandle) -> bool:
    """Are the two paths isomorphic?

    Modal case: equal root-to-node label sequences (valuation, incoming
    action).  Pebbled case: equal pebble sequences and, at every index, the
    induced pairing of last placements is a partial isomorphism between the
    origin structures.
    """
    return _path_condition(a, b, True)


def path_hom_compatible(a: PathHandle, b: PathHandle) -> bool:
    """Is there a label-componentwise morphism from a's path to b's path?"""
    return _path_condition(a, b, False)


# --- the one solver -------------------------------------------------------------


_DECIDED = object()  # what a finished frame of ``_solve`` yields


def _solve(start, ok, moves) -> tuple[dict, dict, dict]:
    """Memoised backward induction with an explicit stack, for a finite game
    in which no play revisits a position.

    Duplicator wins a position when ``ok(pos)`` holds and every Spoiler move
    has an answer leading to a won position.  ``moves(pos)`` yields Spoiler's
    moves in order, each as ``(move, iterable of (answer, next position))``.
    Returns ``value`` per decided position, Duplicator's first winning
    ``answer`` per ``(pos, move)``, and Spoiler's first winning move, in
    ``refute``, per losing position that passed ``ok``.
    """
    value: dict = {}
    answer: dict = {}
    refute: dict = {}

    def decide(pos):
        # the recursive definition, for a position that passed ``ok``; the
        # loop below decides each position yielded before this one resumes
        for move, answers in moves(pos):
            for reply, nxt in answers:
                if nxt not in value:
                    if ok(nxt):
                        yield nxt
                    else:
                        value[nxt] = False
                if value[nxt]:
                    answer[pos, move] = reply
                    break
            else:
                refute[pos] = move
                value[pos] = False
                return
        value[pos] = True

    stack = [decide(start)] if ok(start) else []
    while stack:
        nxt = next(stack[-1], _DECIDED)
        if nxt is _DECIDED:
            stack.pop()
        else:
            stack.append(decide(nxt))
    value.setdefault(start, False)
    return value, answer, refute


def _held_to(moves, table: dict):
    """``moves`` for ``_solve`` with Duplicator held to a table: the only
    answer to a move is the legal one equal to ``table[pos, move]``, and there
    is none where the table names an illegal answer or no answer."""

    def held(pos):
        for move, answers in moves(pos):
            yield move, [a for a in answers if a[0] == table.get((pos, move))]

    return held


# --- the back-and-forth game ---------------------------------------------------

# A position is a pair (u, v) of path ends, None standing for the empty path;
# a Spoiler move is ("left", u2) or ("right", v2), extending one path by a
# covering step, and Duplicator answers with a node on the other side.

_START = (None, None)


def _covers(forest: ForestObject, node: Optional[str]) -> tuple[str, ...]:
    """The one-step extensions of the path ending at ``node``."""
    return forest.roots if node is None else forest.children(node)


def _after(move: tuple, answer: Optional[str]) -> tuple:
    """The position after ``move`` and its answer."""
    return (move[1], answer) if move[0] == "left" else (answer, move[1])


def _bf_moves(x: ForestObject, y: ForestObject, variant: Variant):
    """The back-and-forth game's moves for ``_solve``, its one source of moves:
    at ``(u, v)`` Spoiler extends the left path by each covering step, then,
    in the full game only, the right one, and Duplicator answers ``(side,
    node)`` with a covering step on the other side.  The solver,
    ``_strategy_walk`` and both replays read them, so the replays'
    independence lies in the full path condition; the tests' recursive
    reference ``ref_back_and_forth`` lists its moves on its own."""

    def answered(move: tuple, side: str, candidates: tuple[str, ...]):
        for w in candidates:
            yield (side, w), _after(move, w)

    def moves(pos: tuple):
        u, v = pos
        left, right = _covers(x, u), _covers(y, v)
        for u2 in left:
            move = ("left", u2)
            yield move, answered(move, "right", right)
        if variant == "full":
            for v2 in right:
                move = ("right", v2)
                yield move, answered(move, "left", left)

    return moves


def _strategy_walk(moves, table: dict):
    """Yield ``(position, move, response)`` for every move of ``moves`` at
    every position that the Duplicator table reaches from the initial
    position, depth first; ``response`` is None where the table has no entry,
    and the walk does not continue past it."""
    stack, seen = [_START], {_START}
    while stack:
        pos = stack.pop()
        for move, _ in moves(pos):
            response = table.get((pos, move))
            yield pos, move, response
            if response is None:
                continue
            nxt = _after(move, response[1])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)


def solve_back_and_forth(
    x: ForestObject, y: ForestObject, variant: Variant = "full"
) -> GameResult:
    """Solve the safety game on path pairs by memoized backward induction.

    Positions are pairs of paths, starting at the empty paths.  Spoiler
    extends a path by one covering step; Duplicator must answer on the other
    side and keep the pair inside the winning condition (path isomorphism, or
    a componentwise morphism for the existential-positive variant).
    """
    if x.kind != y.kind:
        raise CategoryMismatch(f"cannot play {x.kind} against {y.kind}")
    if x.signature != y.signature:
        raise SignatureMismatch("the back-and-forth game requires matching signatures")
    reflect = variant != "existential_positive"
    if x.kind == "modal":

        def pair_ok(u: str, v: str) -> bool:
            vu, vv = x.valuation[u], y.valuation[v]
            vals_ok = vu == vv if reflect else vu <= vv
            return vals_ok and x.action_in.get(u) == y.action_in.get(v)

    else:
        # per side, node -> each pebble's latest placement on the node's path:
        # the parent's map, which ``_solve`` made when it checked the parent
        # pair, plus the node's own placement
        latest_x: dict = {None: {}}
        latest_y: dict = {None: {}}

        def pair_ok(u: str, v: str) -> bool:
            if x.pebble[u] != y.pebble[v]:
                return False
            for f, latest, node in ((x, latest_x, u), (y, latest_y, v)):
                if node not in latest:
                    latest[node] = {**latest[f.parent.get(node)], f.pebble[node]: node}
            # equal pebble sequences, so both maps have the same pebbles
            lu, lv = latest_x[u], latest_y[v]
            placed = [(x.origin[lu[pb]], y.origin[lv[pb]]) for pb in lu]
            return _partial_iso(placed, {lu[pb]: lv[pb] for pb in lu}, x, y, reflect)

    def step_ok(pos: tuple) -> bool:
        """The winning condition, checked on the freshly extended pair only:
        ``_solve`` reaches a position through the one before it."""
        return pos == _START or pair_ok(*pos)

    moves = _bf_moves(x, y, variant)
    value, answer, refute = _solve(_START, step_ok, moves)
    if not value[_START]:
        return GameResult(SPOILER, refute)
    walk = _strategy_walk(moves, answer)
    return GameResult(DUPLICATOR, {(pos, m): r for pos, m, r in walk if r is not None})


def _replay_condition(x: ForestObject, y: ForestObject, variant: Variant):
    """The full path condition on a position, as the replays check it."""
    reflect = variant != "existential_positive"

    def ok(pos: tuple) -> bool:
        return _path_condition(PathHandle(x, pos[0]), PathHandle(y, pos[1]), reflect)

    return ok


def replay_duplicator(
    x: ForestObject, y: ForestObject, variant: Variant, table: dict
) -> bool:
    """Check a Duplicator table: the solver's game from ``_bf_moves``, with
    Duplicator's only answer the legal one equal to ``table[pos, move]``,
    must stay inside the full path condition against every Spoiler move."""
    moves = _held_to(_bf_moves(x, y, variant), table)
    return _solve(_START, _replay_condition(x, y, variant), moves)[0][_START]


def replay_spoiler(
    x: ForestObject, y: ForestObject, variant: Variant, table: dict
) -> bool:
    """Check a Spoiler table: the solver's game from ``_bf_moves``, with
    Spoiler's only move the legal one equal to ``table[pos]``, must leave the
    full path condition or strand Duplicator on every line; where the table
    has no legal move, Duplicator wins."""
    bf = _bf_moves(x, y, variant)

    def moves(pos: tuple):
        return ((move, answers) for move, answers in bf(pos) if move == table.get(pos))

    return not _solve(_START, _replay_condition(x, y, variant), moves)[0][_START]


# --- depth-bounded bisimulation -------------------------------------------------


def solve_bisim(a: PointedStructure, b: PointedStructure, k: int) -> GameResult:
    """Depth-k bisimulation by backward induction on positions ``(x, y,
    rounds left)``, the rounds below the root capped at |A| + |B| as the
    module docstring explains.  Spoiler's witness maps each lost position to
    its first winning move, or to ``("labels", x, y)`` where labels differ.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("bisimulation requires matching signatures")
    cap = len(a.base.universe) + len(b.base.universe)

    def labels_agree(pos: tuple) -> bool:
        return a.base.valuation(pos[0]) == b.base.valuation(pos[1])

    def moves(pos: tuple):
        """Spoiler's steps with Duplicator's answers: per action, left first."""
        x, y, depth = pos
        if depth <= 0:
            return
        rest = min(depth - 1, cap)
        for act in a.signature.actions:
            xs, ys = a.base.successors(x, act), b.base.successors(y, act)
            for x2 in xs:
                yield ("left", act, x2), ((y2, (x2, y2, rest)) for y2 in ys)
            for y2 in ys:
                yield ("right", act, y2), ((x2, (x2, y2, rest)) for x2 in xs)

    root = (a.point, b.point, k)
    value, _, refute = _solve(root, labels_agree, moves)
    if value[root]:
        return GameResult(DUPLICATOR, frozenset(pos for pos, won in value.items() if won))
    return GameResult(SPOILER, {
        pos: refute.get(pos, ("labels", pos[0], pos[1]))
        for pos, won in value.items()
        if not won
    })


# --- all-in-one two-sided pebble game -------------------------------------------

# A position is (assignment, placements left); the assignment is the sorted
# tuple of (pebble, (a-element, b-element)) pairs.


def _placements(a: Structure, b: Structure, k: int):
    """Spoiler's placements (side, pebble, element): side A first, then by
    pebble, then in universe order."""
    for side, source in (("A", a), ("B", b)):
        for p in range(1, k + 1):
            for elt in source.universe:
                yield side, p, elt


def _place(gamma: tuple, move: tuple, answer: str) -> tuple:
    """The assignment after a placement and Duplicator's answer to it."""
    side, p, elt = move
    g2 = dict(gamma)
    g2[p] = (elt, answer) if side == "A" else (answer, elt)
    return tuple(sorted(g2.items()))


def _pebble_game(a: Structure, b: Structure, k: int):
    """The pebble game's winning condition and moves for ``_solve``, the one
    source of them: Duplicator answers a placement with an element of the
    other structure."""

    def ok(pos: tuple) -> bool:
        return _pairs_partial_iso([pair for _, pair in pos[0]], a, b, True)

    def moves(pos: tuple):
        gamma, remaining = pos
        if remaining > 0:
            for move in _placements(a, b, k):
                other = b if move[0] == "A" else a
                yield move, (
                    (w, (_place(gamma, move, w), remaining - 1)) for w in other.universe
                )

    return ok, moves


# the most positions ``solve_ppeb`` may visit, counted with repeats: games on
# cycles estimated at 3,000,000 take about 0.5 s (2-vCPU VM, Python 3.11);
# verify's thm54 at size 3, k 2 and len 4 estimates 7,884
PPEB_VISIT_BUDGET = 5_000_000


def solve_ppeb(a: Structure, b: Structure, k: int, n: int) -> GameResult:
    """Duplicator's winning strategy in the two-sided all-in-one k-pebble game,
    with Spoiler's placement sequences bounded by length n.

    The winning condition is prefix-closed, so the one-shot exchange is decided
    by backward induction over placement prefixes; the memo key is the current
    pebble-to-pair assignment.  An upper bound on the positions visited is
    estimated first, and above ``PPEB_VISIT_BUDGET`` the game is refused.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("the pebble game requires matching signatures")
    if k < 1:
        raise ValueError("k must be >= 1")
    # after i placements there are at most (k m)^i placement sequences and
    # (m + 1)^k assignments, m = |A| |B|; expanding a position visits 2 k m
    m = len(a.universe) * len(b.universe)
    assignments = 1
    for _ in range(min(k, 64)):  # for m > 0, (m + 1)^64 is past the budget already
        assignments *= m + 1
    visits, level = 0, 1
    for _ in range(min(n, PPEB_VISIT_BUDGET)):  # each round adds at least two
        visits += 2 * k * m * level
        if visits > PPEB_VISIT_BUDGET:
            raise ValueError(
                f"solve_ppeb runs only within its budget of {PPEB_VISIT_BUDGET} position "
                f"visits; k={k} and len={n} over {len(a.universe)} x {len(b.universe)} "
                "elements may take more"
            )
        level = min(level * k * m, assignments)
    ok, moves = _pebble_game(a, b, k)
    start = ((), n)
    value, answer, refute = _solve(start, ok, moves)
    return GameResult(DUPLICATOR, answer) if value[start] else GameResult(SPOILER, refute)


def replay_ppeb_duplicator(
    a: Structure, b: Structure, k: int, n: int, table: dict
) -> bool:
    """Check a pebble-game response table: the solver's game from
    ``_pebble_game``, with Duplicator's only answer the table's element, and
    that only when it belongs to the other structure, must keep the pairing a
    partial isomorphism along every placement sequence."""
    ok, moves = _pebble_game(a, b, k)
    start = ((), n)
    return _solve(start, ok, _held_to(moves, table))[0][start]


# --- rounds-bounded first-order game --------------------------------------------


# the most tuples ``solve_ef`` may type over both structures.  About 200,000
# take 0.5 s with one proposition and one action at r 2 (316 elements a side),
# 0.9 s with two actions at r 3 (47 elements) and 2.0 s with a ternary
# relation at r 3, whose tuples check 37 facts each (2-vCPU VM, Python 3.11);
# verify's lemma83 at size 6 and rank 2 types at most about 5,600
EF_TUPLE_BUDGET = 200_000


def _rank_type(s: Structure, start: tuple, fresh: list, depth: int, rounds: int, table: dict):
    """The rank-``rounds`` type id of the distinct-element tuple ``start``,
    interned in ``table``.

    The tuples are built top-down to ``depth``, one list per level, each
    tuple's extensions contiguous, and typed bottom-up.  A tuple's atomic type
    is its parent's atomic id with the facts that use its last position.
    """
    relations = [
        ({e for (e,) in s.interp[name]} if arity == 1 else s.interp[name], arity)
        for name, arity in s.signature.relations
    ]

    def extend(parents: list, tuples: list, width: int) -> list:
        """The atomic ids of ``tuples``, ``width`` consecutive ones per parent
        id, from the facts that use their last position: the facts and the
        getter of each relation's position tuples that contain it."""
        n = len(tuples[0])
        new = [
            (facts, itemgetter(*combo))
            for facts, arity in relations
            for combo in product(range(n), repeat=arity)
            if n - 1 in combo
        ]
        return [
            table.setdefault((parents[j // width], tuple([g(t) in f for f, g in new])), len(table))
            for j, t in enumerate(tuples)
        ]

    tuples, atoms = [start], [None]
    for n in range(1, len(start) + 1):
        atoms = extend(atoms, [start[:n]], 1)
    levels = [atoms]
    for i in range(depth):
        tuples = [t + (x,) for t in tuples for x in fresh if x not in t]
        atoms = extend(atoms, tuples, len(fresh) - i)
        levels.append(atoms)
    if depth == rounds:
        types = levels[depth]
    else:  # no fresh element is left for the remaining rounds; a bare atomic
        # id could equal a type id of the other side's tuples at this level
        types = [table.setdefault((at, frozenset()), len(table)) for at in levels[depth]]
    for i in range(depth - 1, -1, -1):
        width = len(fresh) - i
        types = [
            table.setdefault((at, frozenset(types[j * width : (j + 1) * width])), len(table))
            for j, at in enumerate(levels[i])
        ]
    return types[0]


def solve_ef(
    a: Structure,
    b: Structure,
    r: int,
    tuple_a: tuple[str, ...] = (),
    tuple_b: tuple[str, ...] = (),
) -> GameResult:
    """The classic r-round element game, decided by rank-r types.

    A tuple's rank-0 type is its atomic type, and its rank-j type is its
    atomic type with the set of rank-(j-1) types of its one-element
    extensions (Ebbinghaus and Flum, *Finite Model Theory*; Libkin,
    *Elements of Finite Model Theory*, ch. 3); both structures intern them in
    one table.  Duplicator wins r rounds iff the start tuples have the same
    equality pattern and their distinct-element prefixes get the same
    rank-r type.  Only elements a tuple does not contain extend it:
    Duplicator answers a repeated element with its partner, and a rank-j
    type determines the rank-(j-1) one.  So for n elements and d distinct
    start elements the depth is at most min(r, n - d), and depth i holds
    (n - d)(n - d - 1)... (i factors) tuples.  That count, over both sides,
    is known before any work; above ``EF_TUPLE_BUDGET`` the game is refused.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("the element game requires matching signatures")
    if len(tuple_a) != len(tuple_b):
        raise ValueError("distinguished tuples must have equal length")
    if r < 0:
        raise ValueError("r must be >= 0")
    if list(map(tuple_a.index, tuple_a)) != list(map(tuple_b.index, tuple_b)):
        return GameResult(SPOILER)  # the equality patterns differ
    sides, count = [], 0
    for s, t in ((a, tuple_a), (b, tuple_b)):
        start = tuple(dict.fromkeys(t))
        fresh = [e for e in s.universe if e not in start]
        depth, level = min(r, len(fresh)), 1
        count += 1
        for i in range(depth):
            level *= len(fresh) - i
            count += level
            if count > EF_TUPLE_BUDGET:
                raise ValueError(
                    f"solve_ef runs only within its budget of {EF_TUPLE_BUDGET} typed "
                    f"tuples; r={r} over {len(a.universe)} x {len(b.universe)} elements "
                    "types more"
                )
        sides.append((s, start, fresh, depth))
    table: dict = {}
    ids = [_rank_type(*side, r, table) for side in sides]
    return GameResult(DUPLICATOR if ids[0] == ids[1] else SPOILER)


def witness_records(result: GameResult) -> list[tuple]:
    """Flatten a strategy witness into sorted (position, response) records,
    naming nodes by their forest ids."""
    if not isinstance(result.witness, dict):
        return []
    return sorted((repr(k), repr(v)) for k, v in result.witness.items())
