import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix2, fix3, fix4, loop
from linspect.games import solve_back_and_forth, solve_bisim
from linspect.logic import parse_formula
from linspect.oracle import (
    check_open_embedding,
    find_morphism,
    forest_canon,
    pointed_iso,
    replay_prop86,
    run_suite,
    workspace,
)
from linspect.structures import ball, pointed_sum
from linspect.traces import check_trace_relation
from linspect.unravel import as_pointed, ml_unravel, tree_unravel

from conftest import pointed_pairs, seeded_pair


class TestFindMorphism:
    def test_identity_witnesses(self):
        forest, _ = ml_unravel(fix2(), 2)
        for kind in ("homomorphism", "pathwise_embedding", "isomorphism"):
            witness = find_morphism(forest, forest, kind)
            assert witness is not None
            assert witness.mapping == {n: n for n in forest.nodes}

    def test_fix1_into_fix2(self):
        x, _ = ml_unravel(fix1(), 2)
        y, _ = ml_unravel(fix2(), 2)
        assert find_morphism(x, y, "homomorphism") is not None

    def test_branch_count_blocks_isomorphism(self):
        x, _ = ml_unravel(fix2(), 1)
        y, _ = ml_unravel(fix1(), 1)
        assert find_morphism(x, y, "isomorphism") is None

    def test_mapping_preserves_structure(self):
        x, _ = ml_unravel(fix1(), 3)
        y, _ = ml_unravel(fix2(), 3)
        witness = find_morphism(x, y, "homomorphism")
        mapping = witness.mapping
        assert mapping[x.roots[0]] == y.roots[0]
        for node, par in x.parent.items():
            assert y.parent[mapping[node]] == mapping[par]
            assert x.action_in[node] == y.action_in[mapping[node]]
            assert x.valuation[node] <= y.valuation[mapping[node]]

    def test_open_span_on_equivalent_pair(self):
        x, _ = ml_unravel(fix1(), 3)
        y, _ = ml_unravel(fix2(), 3)
        witness = find_morphism(x, y, "open_span")
        assert witness is not None
        assert check_open_embedding(witness.mediator, x, witness.mapping)
        assert check_open_embedding(witness.mediator, y, witness.mapping2)

    @pytest.mark.parametrize("left, right", [(fix1, fix2), (fix2, fix1)])
    def test_open_span_mediator_golden(self, left, right):
        # the mediator's node ids, their order and its parent map, as recorded
        golden = json.loads(
            (Path(__file__).parent / "golden" / "open_span_mediator_ml_k3.json").read_text()
        )[f"{left.__name__},{right.__name__}"]
        x, _ = ml_unravel(left(), 3)
        y, _ = ml_unravel(right(), 3)
        mediator = find_morphism(x, y, "open_span").mediator
        assert list(mediator.nodes) == golden["nodes"]
        assert mediator.parent == golden["parent"]

    def test_open_span_absent_on_cltr_failure(self):
        x, _ = ml_unravel(fix3(), 2)
        y, _ = ml_unravel(fix4(), 2)
        assert find_morphism(x, y, "open_span") is None

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_span_matches_full_game(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        span = find_morphism(x, y, "open_span")
        game = solve_back_and_forth(x, y, "full")
        assert (span is not None) == game.duplicator_wins

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_span_matches_game_on_trees(self, pair, k):
        a, b = pair
        x, y = tree_unravel(a, k), tree_unravel(b, k)
        span = find_morphism(x, y, "open_span")
        assert (span is not None) == solve_bisim(a, b, k).duplicator_wins

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_iso_agrees_with_direct_gltr(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        assert (find_morphism(x, y, "isomorphism") is not None) == (
            check_trace_relation("gltr", a, b, k).holds
        )

    def test_canon_is_order_insensitive(self):
        x, _ = ml_unravel(fix1(), 3)
        assert forest_canon(x) == forest_canon(ml_unravel(fix1(), 3)[0])


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", 3, 2, 5, 0)

    @pytest.mark.parametrize(
        "name,size,k",
        [
            ("thm61", 3, 2),
            ("thm48", 3, 2),
            ("thm54", 2, 2),
            ("prop84", 3, 2),
            ("prop85", 3, 2),
            ("lemma83", 2, 1),
            ("lemma313", 3, 2),
        ],
    )
    def test_smoke(self, name, size, k):
        report = run_suite(name, size, k, 5, 123, length=3)
        assert report.fail == 0, report.render()
        assert report.render().startswith(f"SUITE {name} ")
        assert report.exit_code == 0

    def test_cor74_budget_refusal(self):
        with pytest.raises(ValueError):
            run_suite("cor74", 4, 2, 5, 0)
        with pytest.raises(ValueError):
            run_suite("cor74", 3, 3, 5, 0)

    def test_cor74_small(self):
        report = run_suite("cor74", 2, 1, 10, 3)
        assert report.fail == 0, report.render()

    def test_reports_are_reproducible(self):
        a = run_suite("prop85", 3, 2, 8, 42).render()
        b = run_suite("prop85", 3, 2, 8, 42).render()
        assert a == b


class TestWorkspace:
    def test_size_budget(self):
        a = fix4()
        b = workspace(a, 2, 4)
        assert len(b.universe) <= 2 * 2 * 2 * len(a.base.universe)

    def test_disjoint_extension_preserves_traces(self):
        a = fix4()
        extended = pointed_sum(a, workspace(a, 1, 2))
        assert check_trace_relation("cltr", a, extended, "exact").holds


class TestReplay:
    def test_verum_constant(self):
        rep = replay_prop86(fix1(), fix2(), 1, parse_formula("tt"))
        assert rep.constant and rep.sound
        assert len(rep.stations) == 12

    def test_diamond_constant_on_equivalent_pair(self):
        rep = replay_prop86(fix1(), fix2(), 1, parse_formula("(dia a tt)"))
        assert rep.constant and rep.sound

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            replay_prop86(fix1(), fix2(), 1, parse_formula("(dia a (dia a (dia a tt)))"))

    def test_fault_injection_breaks_companion_check(self):
        def unglued(p, k):
            return as_pointed(ml_unravel(p, k)[0])

        rep = replay_prop86(loop(), loop(), 1, parse_formula("(dia a tt)"), _graft=unglued)
        assert not rep.sound
        broken = [name for name, ok in rep.checks if not ok]
        assert any("companion" in name for name in broken)

    @given(pointed_pairs(max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_constant_whenever_hypotheses_hold(self, pair):
        a, b = pair
        r = 1
        phi = parse_formula("(dia a (dia a tt))")
        rep = replay_prop86(a, b, r, phi)
        assert rep.sound or not check_trace_relation("cltr", a, b, 2**r).holds
        if check_trace_relation("cltr", a, b, 2**r).holds:
            assert rep.constant


class TestPointedIso:
    def test_reflexive(self):
        assert pointed_iso(fix1(), fix1())

    def test_rejects_different_shapes(self):
        assert not pointed_iso(fix1(), fix2())

    def test_relabelled_copy(self):
        from linspect.structures import PointedStructure, Structure

        relabelled = PointedStructure(
            Structure(
                fix4().signature,
                ("u2", "u0", "u1"),
                {"a": frozenset({("u0", "u1")}), "b": frozenset({("u1", "u2")})},
            ),
            "u0",
        )
        assert pointed_iso(fix4(), relabelled)

    def test_ball_window(self):
        a = seeded_pair(5, size=3)[0]
        g = ball(as_pointed(ml_unravel(a, 2)[0]), 2)
        assert pointed_iso(g, as_pointed(ml_unravel(a, 2)[0]))


class TestPebbledMorphisms:
    def test_identity(self):
        from linspect.fixtures import chain2
        from linspect.unravel import pr_unravel

        forest, _ = pr_unravel(chain2(), 2, 2)
        for kind in ("homomorphism", "pathwise_embedding", "isomorphism"):
            assert find_morphism(forest, forest, kind) is not None

    def test_edge_has_no_morphism_into_edgeless(self):
        from linspect.fixtures import chain2
        from linspect.structures import Structure
        from linspect.unravel import pr_unravel

        edge = chain2()
        bare = Structure(edge.signature, ("m0", "m1"), {})
        x, _ = pr_unravel(edge, 2, 2)
        y, _ = pr_unravel(bare, 2, 2)
        assert find_morphism(x, y, "homomorphism") is None
        # the other direction only has to preserve, never reflect
        assert find_morphism(y, x, "homomorphism") is not None
        assert find_morphism(y, x, "pathwise_embedding") is None

    def test_mapping_preserves_pebbles(self):
        from linspect.fixtures import chain2, chain3
        from linspect.unravel import pr_unravel

        x, _ = pr_unravel(chain2(), 2, 2)
        y, _ = pr_unravel(chain3(), 2, 2)
        witness = find_morphism(x, y, "homomorphism")
        assert witness is not None
        for node, image in witness.mapping.items():
            assert x.pebble[node] == y.pebble[image]
            assert x.depth(node) == y.depth(image)


class TestUnravelingMorphismsMatchTraceRelations:
    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism_iff_trace_inclusion(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        assert (find_morphism(x, y, "homomorphism") is not None) == (
            check_trace_relation("tr", a, b, k).holds
        )

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_embedding_iff_labelled_inclusion(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        assert (find_morphism(x, y, "pathwise_embedding") is not None) == (
            check_trace_relation("ltr", a, b, k).holds
        )

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_span_iff_complete_trace_equivalence(self, pair, k):
        a, b = pair
        x, _ = ml_unravel(a, k)
        y, _ = ml_unravel(b, k)
        assert (find_morphism(x, y, "open_span") is not None) == (
            check_trace_relation("cltr", a, b, k).holds
        )


class TestPointedIsoPaths:
    @given(pointed_pairs(max_size=3), st.integers(min_value=1, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_tree_canon_decides_unraveling_isomorphism(self, pair, k):
        from linspect.oracle import _pointed_tree_canon

        a, b = pair
        ua = as_pointed(ml_unravel(a, k)[0])
        ub = as_pointed(ml_unravel(b, k)[0])
        assert _pointed_tree_canon(ua) is not None
        assert pointed_iso(ua, ub) == check_trace_relation("gltr", a, b, k).holds

    def test_loop_falls_back_to_backtracking(self):
        from linspect.fixtures import loop
        from linspect.oracle import _pointed_tree_canon

        assert _pointed_tree_canon(loop()) is None
        assert pointed_iso(loop(), loop())

    def test_higher_arity_guard(self):
        from linspect.oracle import _pointed_tree_canon
        from linspect.structures import PointedStructure, Signature, Structure

        sig = Signature((("T", 3), ("a", 2)))
        s = PointedStructure(
            Structure(sig, ("x", "y"), {"a": frozenset({("x", "y")})}), "x"
        )
        assert _pointed_tree_canon(s) is None
