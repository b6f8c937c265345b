import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import chain2, chain3, fix1, fix2, fix4
from linspect.cli import main
from linspect.games import (
    CategoryMismatch,
    DUPLICATOR,
    EF_TUPLE_BUDGET,
    SPOILER,
    GameResult,
    PathHandle,
    _pairs_partial_iso,
    _pebbled_compatible,
    _place,
    _placements,
    _solve,
    path_hom_compatible,
    path_iso,
    replay_duplicator,
    replay_spoiler,
    solve_back_and_forth,
    solve_bisim,
    solve_ef,
    solve_ppeb,
)
from linspect.oracle import (
    _forest_ids,
    find_morphism,
    gen_pointed,
    gen_structure,
    suite_signature,
    workspace,
)
from linspect.structures import Signature, Structure, ball, load_pointed, pointed_sum
from linspect.unravel import (
    MLView,
    PRView,
    TreeView,
    _node_count,
    coreflect,
    ml_unravel,
    pr_unravel,
    tree_unravel,
)

from conftest import (
    line,
    modal_signatures,
    modal_structures,
    plain_structures,
    pointed_pairs,
    three_arity_structures,
)
from helpers import split_branches


def cycle(n: int) -> Structure:
    sig = Signature((("R", 2),))
    edges = {(f"v{i}", f"v{(i + 1) % n}") for i in range(n)}
    return Structure(sig, tuple(f"v{i}" for i in range(n)), {"R": frozenset(edges)})


class TestPathIso:
    def test_reflexive(self):
        forest, _ = ml_unravel(fix2(), 2)
        for node in forest.nodes:
            h = PathHandle(forest, node)
            assert path_iso(h, h)

    def test_modal_valuation_difference(self):
        from linspect.fixtures import fix5
        from linspect.structures import PointedStructure

        rich = fix5()
        poor = PointedStructure(
            Structure(rich.signature, ("u0", "u1"), {"a": frozenset({("u0", "u1")})}),
            "u0",
        )
        fr, _ = ml_unravel(rich, 1)
        fp, _ = ml_unravel(poor, 1)
        leaf_r = next(n for n in fr.nodes if fr.is_leaf(n))
        leaf_p = next(n for n in fp.nodes if fp.is_leaf(n))
        assert not path_iso(PathHandle(fr, leaf_r), PathHandle(fp, leaf_p))
        assert path_hom_compatible(PathHandle(fp, leaf_p), PathHandle(fr, leaf_r))

    def test_category_mismatch(self):
        modal, _ = ml_unravel(fix4(), 1)
        pebbled, _ = pr_unravel(chain2(), 1, 1)
        with pytest.raises(CategoryMismatch):
            path_iso(PathHandle(modal, modal.nodes[0]), PathHandle(pebbled, pebbled.nodes[0]))

    def test_pebbled_gamma_break(self):
        # a self-loop walk against a 2-cycle walk: the pairing breaks as soon
        # as the loop element must match two distinct cycle elements
        loop1 = Structure(Signature((("R", 2),)), ("x",), {"R": frozenset({("x", "x")})})
        two = cycle(2)
        fl, _ = pr_unravel(loop1, 2, 3)
        fc, _ = pr_unravel(two, 2, 3)

        def node_for(forest, seq):
            body = "".join(f"({p}:{e})" for p, e in seq)
            return f"{body}|{len(seq)}"

        sl = node_for(fl, [(1, "x"), (2, "x"), (1, "x")])
        tl = node_for(fc, [(1, "v0"), (2, "v1"), (1, "v0")])
        assert not path_iso(PathHandle(fl, sl), PathHandle(fc, tl))

    def test_pebbled_walks_on_cycles(self):
        # walking a 2-cycle against a 3-cycle: fine after one placement, but
        # the wrap-around edge of the 2-cycle breaks the pairing at step two
        f2, _ = pr_unravel(cycle(2), 2, 3)
        f3, _ = pr_unravel(cycle(3), 2, 3)

        def node_for(seq):
            body = "".join(f"({p}:{e})" for p, e in seq)
            return f"{body}|{len(seq)}"

        s = node_for([(1, "v0"), (2, "v1"), (1, "v0")])
        t = node_for([(1, "v0"), (2, "v1"), (1, "v2")])
        assert not path_iso(PathHandle(f2, s), PathHandle(f3, t))
        one_s = f2.parent[f2.parent[s]]
        one_t = f3.parent[f3.parent[t]]
        assert path_iso(PathHandle(f2, one_s), PathHandle(f3, one_t))


class TestBackAndForth:
    def test_copycat(self):
        forest, _ = ml_unravel(fix2(), 2)
        res = solve_back_and_forth(forest, forest, "full")
        assert res.winner == DUPLICATOR
        assert replay_duplicator(forest, forest, "full", res.witness)

    def test_ml_fix1_fix2_duplicator(self):
        x, _ = ml_unravel(fix1(), 3)
        y, _ = ml_unravel(fix2(), 3)
        res = solve_back_and_forth(x, y, "full")
        assert res.winner == DUPLICATOR
        assert replay_duplicator(x, y, "full", res.witness)

    def test_tree_fix1_fix2_spoiler(self):
        x = tree_unravel(fix1(), 2)
        y = tree_unravel(fix2(), 2)
        assert solve_back_and_forth(x, y, "full").winner == SPOILER

    def test_root_label_mismatch(self):
        from linspect.fixtures import fix5
        from linspect.structures import PointedStructure

        rich, _ = ml_unravel(fix5(), 1)
        poor, _ = ml_unravel(
            PointedStructure(
                Structure(fix5().signature, ("u",), {}), "u"
            ),
            1,
        )
        res = solve_back_and_forth(rich, poor, "full")
        assert res.winner == SPOILER
        # Spoiler's first move, from the empty paths, picks the root
        assert res.witness == {(None, None): ("left", rich.roots[0])}
        assert replay_spoiler(rich, poor, "full", res.witness)

    def test_multi_rooted_modal_forests(self):
        # the roots are Spoiler's first moves from the empty paths
        x = split_branches(tree_unravel(fix2(), 2))
        y = tree_unravel(fix2(), 2)
        assert len(x.roots) > 1
        res = solve_back_and_forth(x, x, "full")
        assert res.duplicator_wins
        assert replay_duplicator(x, x, "full", res.witness)
        assert solve_back_and_forth(x, y, "existential_positive").duplicator_wins
        assert find_morphism(x, y, "homomorphism") is not None
        assert find_morphism(x, x, "pathwise_embedding") is not None

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_variant_ladder(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        full = solve_back_and_forth(x, y, "full").duplicator_wins
        exist = solve_back_and_forth(x, y, "existential").duplicator_wins
        expos = solve_back_and_forth(x, y, "existential_positive").duplicator_wins
        if full:
            assert exist
        if exist:
            assert expos

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_duplicator_tables_replay(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        for variant in ("full", "existential", "existential_positive"):
            res = solve_back_and_forth(x, y, variant)
            if res.duplicator_wins:
                assert replay_duplicator(x, y, variant, res.witness)


class TestBisim:
    def test_reflexive(self):
        assert solve_bisim(fix1(), fix1(), 3).winner == DUPLICATOR

    def test_fix1_fix2_depth_two(self):
        assert solve_bisim(fix1(), fix2(), 2).winner == SPOILER

    def test_fix1_fix2_depth_one(self):
        assert solve_bisim(fix1(), fix2(), 1).winner == DUPLICATOR

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_tree_game(self, pair, k):
        a, b = pair
        direct = solve_bisim(a, b, k).duplicator_wins
        game = solve_back_and_forth(
            tree_unravel(a, k), tree_unravel(b, k), "full"
        ).duplicator_wins
        assert direct == game

    def test_duplicator_witness_is_closed(self):
        a, b, k = fix1(), fix2(), 1
        res = solve_bisim(a, b, k)
        winning = res.witness
        assert (a.point, b.point, k) in winning
        for (x, y, d) in winning:
            assert a.base.valuation(x) == b.base.valuation(y)
            if d > 0:
                for act in a.signature.actions:
                    for x2 in a.base.successors(x, act):
                        assert any(
                            (x2, y2, d - 1) in winning
                            for y2 in b.base.successors(y, act)
                        )
                    for y2 in b.base.successors(y, act):
                        assert any(
                            (x2, y2, d - 1) in winning
                            for x2 in a.base.successors(x, act)
                        )


class TestPpeb:
    def test_copycat(self):
        s = chain3()
        assert solve_ppeb(s, s, 2, 3).winner == DUPLICATOR

    def test_edge_versus_edgeless(self):
        edge = chain2()
        bare = Structure(edge.signature, ("m0", "m1"), {})
        assert solve_ppeb(edge, bare, 2, 2).winner == SPOILER

    def test_triangle_versus_square(self):
        # every distinct pair in a 3-cycle is adjacent one way or the other,
        # so two pebbles on a non-adjacent 4-cycle pair defeat it immediately
        assert solve_ppeb(cycle(3), cycle(4), 2, 2).winner == SPOILER

    def test_larger_cycles_survive_two_pebbles(self):
        assert solve_ppeb(cycle(4), cycle(5), 2, 4).winner == DUPLICATOR

    def test_requires_a_pebble(self):
        with pytest.raises(ValueError):
            solve_ppeb(chain2(), chain2(), 0, 1)

    def test_budget_refuses_before_playing(self):
        with pytest.raises(ValueError, match="budget of 5000000 position visits"):
            solve_ppeb(cycle(60), cycle(60), 2, 3)

    @given(plain_structures(), plain_structures(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_back_and_forth_on_sequence_forests(self, a, b, n):
        k = 2
        direct = solve_ppeb(a, b, k, n).duplicator_wins
        fa, _ = pr_unravel(a, k, n)
        fb, _ = pr_unravel(b, k, n)
        game = solve_back_and_forth(fa, fb, "full").duplicator_wins
        assert direct == game


class TestEf:
    def test_isomorphic_structures(self):
        assert solve_ef(chain3(), chain3(), 3).winner == DUPLICATOR

    def test_chains_rank_one(self):
        assert solve_ef(chain2(), chain3(), 1).winner == DUPLICATOR

    def test_chains_rank_two(self):
        assert solve_ef(chain2(), chain3(), 2).winner == SPOILER

    def test_tuple_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_ef(chain2(), chain3(), 1, ("n0",), ())

    def test_negative_rounds(self):
        with pytest.raises(ValueError, match="r must be >= 0"):
            solve_ef(chain2(), chain3(), -1)

    @given(plain_structures(), plain_structures(), st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_rounds(self, a, b, r):
        if solve_ef(a, b, r).duplicator_wins:
            assert solve_ef(a, b, r - 1).duplicator_wins

    def test_equality_patterns_must_match(self):
        # both distinct-element prefixes are (n0, n1): only the patterns differ
        args = (chain3(), chain3(), 0, ("n0", "n0", "n1"), ("n0", "n1", "n1"))
        assert solve_ef(*args) == ref_ef_game(*args) == GameResult(SPOILER)
        assert solve_ef(chain3(), chain3(), 2, ("n0", "n0"), ("n0", "n0")).duplicator_wins

    @pytest.mark.parametrize("size", [1, 2])
    def test_ten_thousand_rounds_on_tiny_structures(self, size):
        """Only fresh elements extend a tuple, so the depth stops at |U|."""
        sig = Signature((("P", 1), ("R", 2)))
        rng = random.Random(size)
        for _ in range(10):
            a, b = (Structure(sig, tuple(f"e{i}" for i in range(n)), {
                "P": {(f"e{i}",) for i in range(n) if rng.random() < 0.5},
                "R": {(f"e{i}", f"e{j}") for i in range(n) for j in range(n) if rng.random() < 0.5},
            }) for n in (size, rng.randint(1, size)))
            start = time.perf_counter()
            deep = solve_ef(a, b, 10_000)
            assert time.perf_counter() - start < 1.0
            assert deep == solve_ef(a, b, size) == ref_ef_game(a, b, size)

    def test_budget_refuses_before_any_work(self):
        # 1 + 5,000 + 5,000 * 4,999 tuples per side at rank 2
        sig = Signature((("R", 2),))
        big = Structure(sig, tuple(f"v{i}" for i in range(5000)), {})
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"budget of {EF_TUPLE_BUDGET} typed tuples"):
            solve_ef(big, big, 2)
        assert time.perf_counter() - start < 0.1
        assert solve_ef(big, big, 1).duplicator_wins  # 2 x 5,001 tuples

    @pytest.mark.parametrize("size", [2, 3])
    def test_lemma83_instances_against_the_game(self, size):
        """The workspace sums of verify's lemma83 suite at rank 2."""
        sig = suite_signature(n_props=1, n_actions=1)
        for seed in range(3):
            a = gen_pointed(sig, size, random.Random(seed))
            b = workspace(a, 2, 4)
            lhs, rhs = pointed_sum(a, b), pointed_sum(ball(a, 4), b)
            args = (lhs.base, rhs.base, 2, (lhs.point,), (rhs.point,))
            assert solve_ef(*args) == ref_ef_game(*args) == GameResult(DUPLICATOR)
            # a point moved onto a workspace copy keeps the verdicts equal
            moved = (lhs.base, rhs.base, 2, (lhs.point,), (rhs.base.universe[-1],))
            assert solve_ef(*moved) == ref_ef_game(*moved)


class TestWitnessSerialization:
    def test_records_are_sorted_pairs(self):
        from helpers import witness_records

        x, _ = ml_unravel(fix1(), 2)
        res = solve_back_and_forth(x, x, "full")
        records = witness_records(res)
        assert records == sorted(records)
        assert all(len(r) == 2 for r in records)

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_spoiler_tables_replay(self, pair, k):
        from linspect.games import replay_spoiler

        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        for variant in ("full", "existential"):
            res = solve_back_and_forth(x, y, variant)
            if not res.duplicator_wins:
                assert replay_spoiler(x, y, variant, res.witness)


class TestPpebReplay:
    @given(plain_structures(max_size=2), plain_structures(max_size=2))
    @settings(max_examples=10, deadline=None)
    def test_duplicator_tables_replay(self, a, b):
        from linspect.games import replay_ppeb_duplicator, solve_ppeb

        res = solve_ppeb(a, b, 2, 2)
        if res.duplicator_wins:
            assert replay_ppeb_duplicator(a, b, 2, 2, res.witness)


class TestReplayNegativeControls:
    """Each replay must reject a table that no longer wins."""

    @staticmethod
    def forked():
        # u0 -a-> u1 [p] and u0 -a-> u2 [q]: the two a-steps differ in label
        from linspect.fixtures import PROP_SIG
        from linspect.structures import PointedStructure

        interp = {
            "a": frozenset({("u0", "u1"), ("u0", "u2")}),
            "p": frozenset({("u1",)}),
            "q": frozenset({("u2",)}),
        }
        return PointedStructure(Structure(PROP_SIG, ("u0", "u1", "u2"), interp), "u0")

    def test_duplicator_table_missing_a_response(self):
        x, _ = ml_unravel(fix1(), 3)
        y, _ = ml_unravel(fix2(), 3)
        table = solve_back_and_forth(x, y, "full").witness
        assert replay_duplicator(x, y, "full", table)
        for entry in table:
            cut = {k: v for k, v in table.items() if k != entry}
            assert not replay_duplicator(x, y, "full", cut), entry

    def test_duplicator_table_redirected_to_a_losing_answer(self):
        x, _ = ml_unravel(self.forked(), 1)
        root, (to_p, to_q) = x.roots[0], x.children(x.roots[0])
        table = solve_back_and_forth(x, x, "full").witness
        entry = ((root, root), ("left", to_p))
        assert table[entry] == ("right", to_p)
        assert replay_duplicator(x, x, "full", table)
        assert not replay_duplicator(x, x, "full", {**table, entry: ("right", to_q)})

    def test_spoiler_table_with_its_first_move_replaced(self):
        from linspect.fixtures import fix3
        from linspect.games import replay_spoiler

        # fix3 has a terminal a-step and an a,b chain; fix4 only the a,b chain
        x, _ = ml_unravel(fix3(), 2)
        y, _ = ml_unravel(fix4(), 2)
        res = solve_back_and_forth(x, y, "full")
        assert res.winner == SPOILER
        bottom = (x.roots[0], y.roots[0])
        terminal_step, chain_step = x.children(x.roots[0])
        assert res.witness[bottom] == ("left", terminal_step)
        assert replay_spoiler(x, y, "full", res.witness)
        replaced = {**res.witness, bottom: ("left", chain_step)}
        assert not replay_spoiler(x, y, "full", replaced)

    def test_pebble_table_with_an_answer_breaking_the_partial_iso(self):
        from linspect.games import replay_ppeb_duplicator

        s = chain3()
        table = solve_ppeb(s, s, 2, 2).witness
        assert replay_ppeb_duplicator(s, s, 2, 2, table)
        # pebble 1 on (n0, n0); Spoiler puts pebble 2 on n1, the copycat
        # answer is n1, and n2 would break the edge n0 -> n1
        entry = ((((1, ("n0", "n0")),), 1), ("A", 2, "n1"))
        assert table[entry] == "n1"
        assert not replay_ppeb_duplicator(s, s, 2, 2, {**table, entry: "n2"})


class TestReplaysRejectIllegalTables:
    """A replay plays the solver's game with one player held to the table, so
    a table that names an illegal move or answer loses, even where the moves
    it names would keep the paths isomorphic."""

    def test_spoiler_table_opening_below_the_roots(self):
        x, y = ml_unravel(fix1(), 3)[0], ml_unravel(fix2(), 3)[0]
        assert solve_back_and_forth(x, y, "full").duplicator_wins
        deep = next(n for n in x.nodes if x.depth(n) == 2)
        assert not replay_spoiler(x, y, "full", {(None, None): ("left", deep)})

    def test_spoiler_table_playing_right_in_the_existential_game(self):
        from linspect.fixtures import fix3

        x, y = ml_unravel(fix4(), 2)[0], ml_unravel(fix3(), 2)[0]
        res = solve_back_and_forth(x, y, "full")
        assert res.winner == SPOILER
        assert any(move[0] == "right" for move in res.witness.values())
        assert solve_back_and_forth(x, y, "existential").duplicator_wins
        assert replay_spoiler(x, y, "full", res.witness)
        assert not replay_spoiler(x, y, "existential", res.witness)

    def test_duplicator_answer_off_the_position(self):
        from linspect.fixtures import MODAL_SIG
        from linspect.structures import PointedStructure

        # r -a-> u -b-> u2 and r -a-> v -b-> v2
        interp = {
            "a": frozenset({("r", "u"), ("r", "v")}),
            "b": frozenset({("u", "u2"), ("v", "v2")}),
        }
        s = PointedStructure(Structure(MODAL_SIG, ("r", "u", "v", "u2", "v2"), interp), "r")
        x = tree_unravel(s, 2)
        table = solve_back_and_forth(x, x, "full").witness
        entry = (("@r>a:u", "@r>a:v"), ("left", "@r>a:u>b:u2"))
        assert table[entry] == ("right", "@r>a:v>b:v2")
        assert replay_duplicator(x, x, "full", table)
        # the same labels, but not a child of @r>a:v
        assert not replay_duplicator(x, x, "full", {**table, entry: ("right", "@r>a:u>b:u2")})

    def test_pebble_answer_outside_the_structure(self):
        from linspect.games import replay_ppeb_duplicator

        s = Structure(Signature((("R", 2),)), ("e",), {"R": frozenset()})
        table = solve_ppeb(s, s, 1, 1).witness
        assert replay_ppeb_duplicator(s, s, 1, 1, table)
        assert not replay_ppeb_duplicator(s, s, 1, 1, {entry: "ghost" for entry in table})


class TestSerializedPebbledGames:
    def test_round_tripped_forests_play_identically(self):
        from linspect.unravel import forest_from_dict, forest_to_dict, pr_unravel

        sig = Signature((("R", 2),))
        loop1 = Structure(sig, ("x",), {"R": frozenset({("x", "x")})})
        two = cycle(2)
        # the edgeless pair is decided purely by placement identity: dropping
        # origins on deserialization would flip it
        bare1 = Structure(sig, ("x",), {})
        bare2 = Structure(sig, ("u", "v"), {})
        for a, b in ((loop1, two), (two, cycle(3)), (cycle(3), cycle(3)), (bare1, bare2)):
            fa, _ = pr_unravel(a, 2, 3)
            fb, _ = pr_unravel(b, 2, 3)
            direct = solve_back_and_forth(fa, fb, "full").winner
            ra = forest_from_dict(forest_to_dict(fa))
            rb = forest_from_dict(forest_to_dict(fb))
            assert solve_back_and_forth(ra, rb, "full").winner == direct


# --- reference oracles: the recursive solvers that ``games._solve`` replaced --


def ref_back_and_forth(x, y, variant):
    modal = x.kind == "modal"
    reflect = variant != "existential_positive"
    bottom = (None, None)

    def covers(forest, node):
        return list(forest.roots) if node is None else list(forest.children(node))

    def moves(pos):
        """Spoiler's moves with Duplicator's side and candidate positions."""
        u, v = pos
        listed = [
            (("left", u2), "right", [(u2, w) for w in covers(y, v)]) for u2 in covers(x, u)
        ]
        if variant == "full":
            listed += [
                (("right", v2), "left", [(w, v2) for w in covers(x, u)]) for v2 in covers(y, v)
            ]
        return listed

    def step_ok(u, v):
        if modal:
            vu, vv = x.valuation[u], y.valuation[v]
            vals_ok = vu == vv if reflect else vu <= vv
            return vals_ok and x.action_in.get(u) == y.action_in.get(v)
        cu = x.path_to_root(u) if u is not None else ()
        cv = y.path_to_root(v) if v is not None else ()
        return _pebbled_compatible(x, cu, y, cv, reflect)

    duplicator_table, spoiler_table, memo = {}, {}, {}

    def win(pos):
        if pos in memo:
            return memo[pos]
        result = True
        for move, side, nexts in moves(pos):
            nxt = next((n for n in nexts if step_ok(*n) and win(n)), None)
            if nxt is None:
                result = False
                spoiler_table[pos] = move
                break
            duplicator_table[(pos, move)] = (side, nxt[0] if side == "left" else nxt[1])
        memo[pos] = result
        return result

    if not win(bottom):
        return GameResult(SPOILER, dict(spoiler_table))
    # the entries at the positions the table reaches, depth first
    reachable, stack, seen = {}, [bottom], {bottom}
    while stack:
        pos = stack.pop()
        for move, side, nexts in moves(pos):
            if (pos, move) in duplicator_table:
                response = reachable[(pos, move)] = duplicator_table[(pos, move)]
                nxt = (move[1], response[1]) if side == "right" else (response[1], move[1])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return GameResult(DUPLICATOR, reachable)


def ref_bisim(a, b, k):
    memo, spoiler_line = {}, {}

    def moves(x, y):
        for act in a.signature.actions:
            xs, ys = a.base.successors(x, act), b.base.successors(y, act)
            for x2 in xs:
                yield ("left", act, x2), [(x2, y2) for y2 in ys]
            for y2 in ys:
                yield ("right", act, y2), [(x2, y2) for x2 in xs]

    def win(x, y, depth):
        key = (x, y, depth)
        if key in memo:
            return memo[key]
        result = a.base.valuation(x) == b.base.valuation(y)
        if not result:
            spoiler_line[key] = ("labels", x, y)
        elif depth > 0:
            for move, answers in moves(x, y):
                if not any(win(x2, y2, depth - 1) for x2, y2 in answers):
                    result = False
                    spoiler_line[key] = move
                    break
        memo[key] = result
        return result

    if win(a.point, b.point, k):
        return GameResult(DUPLICATOR, frozenset(key for key, value in memo.items() if value))
    return GameResult(SPOILER, dict(spoiler_line))


def ref_ppeb(a, b, k, n):
    duplicator_table, spoiler_table, memo = {}, {}, {}

    def survives(gamma, remaining):
        return _pairs_partial_iso([pair for _, pair in gamma], a, b, True) and win(gamma, remaining)

    def win(gamma, remaining):
        key = (gamma, remaining)
        if key in memo:
            return memo[key]
        result = True
        if remaining > 0:
            for move in _placements(a, b, k):
                target = b if move[0] == "A" else a
                answer = next(
                    (
                        w
                        for w in target.universe
                        if survives(_place(gamma, move, w), remaining - 1)
                    ),
                    None,
                )
                if answer is None:
                    result = False
                    spoiler_table[key] = move
                    break
                duplicator_table[(key, move)] = answer
        memo[key] = result
        return result

    if win((), n):
        return GameResult(DUPLICATOR, dict(duplicator_table))
    return GameResult(SPOILER, dict(spoiler_table))


def ref_ef(a, b, r, tuple_a=(), tuple_b=()):
    memo = {}

    def win(pairs, rounds):
        key = (pairs, rounds)
        if key in memo:
            return memo[key]
        result = _pairs_partial_iso(pairs, a, b, True) and (
            rounds == 0
            or all(any(win(pairs | {(x, y)}, rounds - 1) for y in b.universe) for x in a.universe)
            and all(any(win(pairs | {(x, y)}, rounds - 1) for x in a.universe) for y in b.universe)
        )
        memo[key] = result
        return result

    return GameResult(DUPLICATOR if win(frozenset(zip(tuple_a, tuple_b)), r) else SPOILER)


def ref_ef_game(a, b, r, tuple_a=(), tuple_b=()):
    """The element game played on pair sets by ``games._solve``."""

    def ok(pos):
        return _pairs_partial_iso(pos[0], a, b, True)

    def moves(pos):
        pairs, rounds = pos
        if rounds > 0:
            for x in a.universe:
                yield ("A", x), ((y, (pairs | {(x, y)}, rounds - 1)) for y in b.universe)
            for y in b.universe:
                yield ("B", y), ((x, (pairs | {(x, y)}, rounds - 1)) for x in a.universe)

    start = (frozenset(zip(tuple_a, tuple_b)), r)
    return GameResult(DUPLICATOR if _solve(start, ok, moves)[0][start] else SPOILER)


@st.composite
def ternary_structures(draw, max_size: int = 3):
    """Structures with a unary, a binary and a ternary relation whose tuples
    may repeat an element."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    universe = tuple(f"e{i}" for i in range(n))
    elements = st.sampled_from(universe)
    sig = Signature((("P", 1), ("R", 2), ("T", 3)))
    return Structure(sig, universe, {
        "P": draw(st.sets(st.tuples(elements))),
        "R": draw(st.sets(st.tuples(elements, elements))),
        "T": draw(st.sets(st.tuples(elements, elements, elements), max_size=6)),
    })


def _modal_step_cond(x, y, kind):
    def cond(u, v):
        if x.action_in.get(u) != y.action_in.get(v):
            return False
        if kind == "homomorphism":
            return x.valuation[u] <= y.valuation[v]
        return x.valuation[u] == y.valuation[v]

    return cond


def ref_modal_mapping(x, y, kind):
    cond = _modal_step_cond(x, y, kind)
    memo = {}

    def win(u, v):
        key = (u, v)
        if key in memo:
            return memo[key]
        result = cond(u, v) and all(
            any(win(u2, v2) for v2 in y.children(v)) for u2 in x.children(u)
        )
        memo[key] = result
        return result

    start = {}
    for ru in x.roots:
        rv = next((r for r in y.roots if win(ru, r)), None)
        if rv is None:
            return None
        start[ru] = rv
    mapping = {}
    stack = list(start.items())
    while stack:
        u, v = stack.pop()
        mapping[u] = v
        for u2 in x.children(u):
            stack.append((u2, next(v2 for v2 in y.children(v) if win(u2, v2))))
    return mapping


VARIANTS = ("full", "existential", "existential_positive")


class TestAgainstRecursiveReferences:
    """The one solver reproduces the recursive solvers' verdicts and tables."""

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_back_and_forth_on_modal_unravelings(self, pair, k):
        a, b = pair
        for x, y in ((ml_unravel(a, k)[0], ml_unravel(b, k)[0]), (tree_unravel(a, k), tree_unravel(b, k))):
            for variant in VARIANTS:
                assert solve_back_and_forth(x, y, variant) == ref_back_and_forth(x, y, variant)

    @given(plain_structures(max_size=2), plain_structures(max_size=2),
           st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_back_and_forth_on_pr_unravelings(self, s, t, k, n):
        x, y = pr_unravel(s, k, n)[0], pr_unravel(t, k, n)[0]
        for variant in VARIANTS:
            assert solve_back_and_forth(x, y, variant) == ref_back_and_forth(x, y, variant)

    @given(pointed_pairs(max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_bisim_past_the_depth_cap(self, pair):
        a, b = pair
        cap = len(a.base.universe) + len(b.base.universe)
        root = (a.point, b.point)
        for k in range(cap + 4):
            got, want = solve_bisim(a, b, k), ref_bisim(a, b, k)
            assert got.winner == want.winner, k
            if k <= cap:
                assert got.witness == want.witness, k
            elif not got.duplicator_wins:
                assert got.witness[(*root, k)] == want.witness[(*root, k)], k

    @given(plain_structures(max_size=3), plain_structures(max_size=3),
           st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_ppeb_tables(self, a, b, k, n):
        assert solve_ppeb(a, b, k, n) == ref_ppeb(a, b, k, n)

    @given(plain_structures(), plain_structures(), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_ef_verdicts(self, a, b, r, pinned):
        ta, tb = a.universe[:pinned], b.universe[:pinned]
        assert solve_ef(a, b, r, ta, tb) == ref_ef(a, b, r, ta, tb)

    @given(ternary_structures(), ternary_structures(), st.integers(min_value=0, max_value=3),
           st.lists(st.integers(min_value=0, max_value=2), max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ef_verdicts_with_a_ternary_relation(self, a, b, r, positions, data):
        # pinned tuples may repeat an element; b's follows a's pattern or not
        ta = tuple(a.universe[i % len(a.universe)] for i in positions)
        if data.draw(st.booleans()):
            tb = tuple(b.universe[i % len(b.universe)] for i in positions)
        else:
            tb = tuple(data.draw(st.sampled_from(b.universe)) for _ in positions)
        want = ref_ef(a, b, r, ta, tb)
        assert solve_ef(a, b, r, ta, tb) == want == ref_ef_game(a, b, r, ta, tb)

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_morphism_mappings(self, pair, k):
        a, b = pair
        ta, tb = tree_unravel(a, k), tree_unravel(b, k)
        for x, y in (
            (ml_unravel(a, k)[0], ml_unravel(b, k)[0]),
            (ta, tb),
            (coreflect(ta), coreflect(tb)),
            (split_branches(ta), split_branches(tb)),
        ):
            for kind in ("homomorphism", "pathwise_embedding"):
                found = find_morphism(x, y, kind)
                assert (found and found.mapping) == ref_modal_mapping(x, y, kind)


class TestDeepBisim:
    """Bisimulation at k = 2000 answers; the rounds below the root are capped
    at |A| + |B|."""

    def test_cycles_at_k_2000(self, capsys, tmp_path):
        (tmp_path / "c150.json").write_text(line(150, True))
        (tmp_path / "c300.json").write_text(line(300, True))
        code = main(["check", "--rel", "bisim", "-k", "2000",
                     str(tmp_path / "c150.json"), str(tmp_path / "c300.json")])
        assert (code, capsys.readouterr().out) == (0, "TRUE\n")
        # one state pair per level: the root and the 451 capped levels below it
        a, b = load_pointed(str(tmp_path / "c150.json")), load_pointed(str(tmp_path / "c300.json"))
        assert len(solve_bisim(a, b, 2000).witness) == 452

    def test_chain_at_k_2000(self, capsys, tmp_path):
        (tmp_path / "long.json").write_text(line(5000, False))
        (tmp_path / "short.json").write_text(line(1500, False))
        long, short = str(tmp_path / "long.json"), str(tmp_path / "short.json")
        assert main(["check", "--rel", "bisim", "-k", "2000", long, long]) == 0
        assert capsys.readouterr().out == "TRUE\n"
        # the short line ends 1499 steps down, and Spoiler walks there
        assert main(["check", "--rel", "bisim", "-k", "2000", long, short]) == 1
        assert capsys.readouterr().out == (
            "FALSE\nspoiler: (('s0', 's0', 2000), ('left', 'a', 's1'))\n"
        )


# --- views made on demand against their forced forests -----------------------

MORPHISMS = ("homomorphism", "pathwise_embedding", "open_span", "isomorphism")


def read_alike(make, a, b):
    """Fresh views of ``a`` and ``b`` from ``make`` and their forced forests
    give equal game results in every variant, equal to the recursive
    reference's, equal morphism searches and equal canonical ids."""
    forced = make(a).force(), make(b).force()
    for variant in VARIANTS:
        want = ref_back_and_forth(*forced, variant)
        played = make(a), make(b)
        assert solve_back_and_forth(*played, variant) == want
        assert solve_back_and_forth(*forced, variant) == want
        # forcing after a game gives the same forest
        assert (played[0].force(), played[1].force()) == forced
    for kind in MORPHISMS:
        if forced[0].kind == "pebbled" and kind == "open_span":
            for x, y in ((make(a), make(b)), forced):
                with pytest.raises(ValueError, match="modal forests"):
                    find_morphism(x, y, kind)
            continue
        assert find_morphism(make(a), make(b), kind) == find_morphism(*forced, kind)
    for s, forest in zip((a, b), forced):
        assert _forest_ids(make(s)) == _forest_ids(forest)
        assert make(s).node_count() == forest.node_count()


def capped(p, k, linear):
    """The greatest depth up to k whose unraveling has at most 300 nodes, so
    that the recursive reference stays fast."""
    while k and _node_count(p, k, linear) > 300:
        k -= 1
    return k


class TestViewsAgainstForcedForests:
    @given(modal_signatures().flatmap(lambda sig: st.tuples(modal_structures(sig), modal_structures(sig))),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_ml_and_tree(self, pair, k):
        a, b = pair
        for view, linear in ((MLView, True), (TreeView, False)):
            depth = min(capped(a, k, linear), capped(b, k, linear))
            read_alike(lambda p: view(p, depth), a, b)
            for p in pair:
                # the isomorphism search refuses on the count alone
                assert _node_count(p, k, linear) == len(view(p, k).force().nodes)

    @given(three_arity_structures(max_size=2), three_arity_structures(max_size=2),
           st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_pr(self, a, b, k, n):
        read_alike(lambda s: PRView(s, k, n), a, b)


# Pairs on which ``solve_ppeb`` and the game on PR forests disagree (ROADMAP
# item 1), over (P/1, R/2) at k 2, with the verdict of a brute-force
# comparison of the pebble-trace sets.  The views must not change it.
PEBBLE_TRACE_SIG = Signature((("P", 1), ("R", 2)))
ISOLATED = Structure(PEBBLE_TRACE_SIG, ("e0", "e1", "e2"), {"R": {("e0", "e1"), ("e1", "e0")}})
STAR = Structure(PEBBLE_TRACE_SIG, ("e0", "e1", "e2"),
                 {"R": {("e0", "e1"), ("e1", "e0"), ("e0", "e2"), ("e2", "e0")}})
SEED_20, SEED_37 = (gen_structure(PEBBLE_TRACE_SIG, 3, random.Random(seed)) for seed in (20, 37))
PINNED = [
    pytest.param(ISOLATED, STAR, 2, DUPLICATOR, id="isolated-star-len2"),
    pytest.param(ISOLATED, STAR, 3, DUPLICATOR, id="isolated-star-len3"),
    pytest.param(SEED_20, SEED_37, 2, DUPLICATOR, id="seeds-20-37-len2"),
    pytest.param(SEED_20, SEED_37, 3, SPOILER, id="seeds-20-37-len3"),
]


def pebble_traces(s, k, n):
    """Every placement sequence's trace: per placement, the pebble and the
    type of the configuration after it (which pebbles share an element, and
    the facts among the pebbled elements)."""
    traces = set()
    for m in range(1, n + 1):
        for seq in product([(pb, e) for pb in range(1, k + 1) for e in s.universe], repeat=m):
            placed, trace = {}, []
            for pb, e in seq:
                placed[pb] = e
                pebbles = sorted(placed)
                shared = frozenset((p, q) for p in pebbles for q in pebbles if placed[p] == placed[q])
                facts = frozenset(
                    (name, combo)
                    for name, arity in s.signature.relations
                    for combo in product(pebbles, repeat=arity)
                    if tuple(placed[q] for q in combo) in s.interp[name]
                )
                trace.append((pb, shared, facts))
            traces.add(tuple(trace))
    return traces


class TestPinnedPebbleTracePairs:
    @pytest.mark.parametrize("a, b, n, winner", PINNED)
    def test_forest_game_verdict(self, a, b, n, winner):
        for x, y in ((PRView(a, 2, n), PRView(b, 2, n)), (pr_unravel(a, 2, n)[0], pr_unravel(b, 2, n)[0])):
            assert solve_back_and_forth(x, y, "full").winner == winner

    @pytest.mark.parametrize("a, b, n, winner", PINNED)
    def test_verdict_is_the_trace_comparison(self, a, b, n, winner):
        assert (pebble_traces(a, 2, n) == pebble_traces(b, 2, n)) == (winner == DUPLICATOR)
