from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix2, fix4, loop
from linspect.structures import PointedStructure, Signature, Structure, ball, validate
from linspect.traces import check_trace_relation, maximal_runs
from linspect.unravel import (
    ForestObject,
    MLView,
    _node_count,
    as_pointed,
    check_condition_p,
    check_modal_covering,
    coreflect,
    forest_from_dict,
    forest_to_dict,
    ml_graft,
    ml_unravel,
    pr_unravel,
    tree_unravel,
)
from linspect.oracle import find_morphism, pointed_iso

from conftest import (
    modal_structures,
    plain_structures,
    pointed_pairs,
    pointed_structures,
    three_arity_structures,
)
from helpers import branch_label_multiset, counit_check, ml_node_count
import unravel_reference as reference


def isolated_point():
    return PointedStructure(Structure(fix1().signature, ("z",), {}), "z")


class TestMlUnravel:
    def test_isolated_point(self):
        forest, counit = ml_unravel(isolated_point(), 3)
        assert forest.nodes == ("z",)
        assert counit == {"z": "z"}

    def test_fix4_depth_two(self):
        forest, _ = ml_unravel(fix4(), 2)
        # the only budget-exhausting run is a,b: a single 3-node chain
        assert forest.node_count() == 3 == ml_node_count(fix4(), 2)
        assert forest.linear

    def test_loop_counts(self):
        forest, _ = ml_unravel(loop(), 2)
        assert forest.node_count() == 3 == ml_node_count(loop(), 2)

    def test_fix2_chains(self):
        forest, _ = ml_unravel(fix2(), 2)
        assert forest.node_count() == 5  # root plus two 2-chains
        assert len(forest.children(forest.roots[0])) == 2

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_node_count_law(self, p, k):
        forest, _ = ml_unravel(p, k)
        assert forest.node_count() == 1 + sum(len(r) for r in maximal_runs(p, k))
        assert forest.node_count() == ml_node_count(p, k)

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_output_is_a_valid_linear_tree(self, p, k):
        forest, _ = ml_unravel(p, k)
        assert forest.linear
        assert len(forest.roots) == 1
        assert check_modal_covering(forest) == []
        assert validate(as_pointed(forest).base).ok

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_counit_is_a_homomorphism(self, p, k):
        forest, _ = ml_unravel(p, k)
        assert counit_check(forest, p.base).ok

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, p, k):
        once, _ = ml_unravel(p, k)
        twice, _ = ml_unravel(as_pointed(once), k)
        assert branch_label_multiset(once) == branch_label_multiset(twice)
        assert pointed_iso(as_pointed(once), as_pointed(twice))


class TestTreeUnravel:
    def test_fix4(self):
        assert tree_unravel(fix4(), 2).node_count() == 3

    def test_fix2(self):
        tree = tree_unravel(fix2(), 2)
        assert tree.node_count() == 5
        # fix2 branches only at the root, so its tree is already linear;
        # fix1 forks below the root and is not
        assert tree.linear
        assert not tree_unravel(fix1(), 2).linear

    def test_depth_zero(self):
        assert tree_unravel(fix2(), 0).node_count() == 1

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_counit(self, p, k):
        tree = tree_unravel(p, k)
        assert counit_check(tree, p.base).ok
        assert check_modal_covering(tree) == []


class TestCoreflect:
    def test_chain_fixed(self):
        forest, _ = ml_unravel(fix4(), 2)
        again = coreflect(forest)
        assert branch_label_multiset(again) == branch_label_multiset(forest)
        assert again.node_count() == forest.node_count()

    def test_fix2_tree_decomposes(self):
        got = coreflect(tree_unravel(fix2(), 2))
        assert got.node_count() == 5  # the root kept, with two 2-chains below it
        assert len(got.roots) == 1
        assert got.linear

    def test_single_root(self):
        got = coreflect(tree_unravel(isolated_point(), 2))
        assert got.node_count() == 1

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_branch_preserving(self, p, k):
        tree = tree_unravel(p, k)
        once = coreflect(tree)
        twice = coreflect(once)
        assert branch_label_multiset(once) == branch_label_multiset(tree)
        assert branch_label_multiset(twice) == branch_label_multiset(once)
        assert once.linear

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_linear_unraveling_after_root_gluing(self, p, k):
        # branch decomposition of the tree = chains of the linear unraveling
        tree_branches = branch_label_multiset(tree_unravel(p, k))
        linear_branches = branch_label_multiset(ml_unravel(p, k)[0])
        assert tree_branches == linear_branches


def assert_universal(a, b, k):
    """A linear forest maps into the tree exactly when it maps into the
    tree's coreflection."""
    tree = tree_unravel(b, k)
    for kind in ("homomorphism", "pathwise_embedding"):
        into_tree = find_morphism(MLView(a, k), tree, kind) is not None
        assert (find_morphism(MLView(a, k), coreflect(tree), kind) is not None) == into_tree, kind


class TestCoreflectIsUniversal:
    def test_fix2_at_two(self):
        # ML(fix2, 2) maps into TREE(fix2, 2); a copy of the root per chain
        # would leave it no image in the coreflection
        assert find_morphism(MLView(fix2(), 2), tree_unravel(fix2(), 2), "homomorphism")
        assert_universal(fix2(), fix2(), 2)

    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_linear_forests_map_into_the_coreflection(self, pair, k):
        assert_universal(*pair, k)


class TestMlGraft:
    def test_no_deep_runs_means_no_graft(self):
        # depth < k: nothing reaches the budget, so nothing is grafted
        g = ml_graft(fix4(), 5)
        forest, _ = ml_unravel(fix4(), 5)
        assert set(g.base.universe) == set(forest.nodes)

    def test_loop_becomes_lasso(self):
        g = ml_graft(loop(), 1)
        assert len(g.base.universe) == 2
        leaf = next(e for e in g.base.universe if e != g.point)
        assert (leaf, leaf) in g.base.interp["a"]
        assert (g.point, leaf) in g.base.interp["a"]

    def test_fix4_graft_at_one(self):
        g = ml_graft(fix4(), 1)
        assert sorted(g.base.universe) == sorted(
            ["d0", "d0>a:d1|1", "d0>a:d1|1/d2"]
        )

    @given(pointed_structures(max_size=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_size_bound(self, p, k):
        g = ml_graft(p, k)
        runs_k = [r for r in maximal_runs(p, k) if len(r) == k]
        assert len(g.base.universe) <= ml_node_count(p, k) + len(runs_k) * len(
            p.base.universe
        )

    @given(pointed_structures(max_size=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_counted_before_it_is_built(self, p, k):
        assert len(ml_graft(p, k).base.universe) == _node_count(p, k, True, graft=True)

    @given(pointed_structures(max_size=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_complete_trace_companion(self, p, k):
        assert check_trace_relation("cltr", p, ml_graft(p, k), "exact").holds

    @given(pointed_structures(max_size=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_window_isomorphism(self, p, k):
        window = ball(ml_graft(p, k), k)
        assert pointed_iso(window, as_pointed(ml_unravel(p, k)[0]))


class TestPrUnravel:
    def test_single_element_no_relations(self):
        s = Structure(Signature((("R", 2),)), ("x",), {})
        forest, counit = pr_unravel(s, 1, 1)
        assert forest.node_count() == 1
        assert counit[forest.nodes[0]] == "x"

    def test_loop_reuse_blocks_relation(self):
        s = Structure(Signature((("R", 2),)), ("x",), {"R": frozenset({("x", "x")})})
        forest, _ = pr_unravel(s, 1, 2)
        two = [n for n in forest.nodes if forest.depth(n) == 1 and n in forest.parent]
        (second,) = two
        first = forest.parent[second]
        assert (second, second) in forest.interp["R"]
        assert (first, second) not in forest.interp["R"]

    def test_two_pebbles_allow_relation(self):
        s = Structure(Signature((("R", 2),)), ("x",), {"R": frozenset({("x", "x")})})
        forest, _ = pr_unravel(s, 2, 2)
        chains = {}
        for n in forest.nodes:
            chain = forest.path_to_root(n)
            key = tuple(forest.pebble[m] for m in chain)
            if len(chain) == 2:
                chains[key] = chain
        first, second = chains[(1, 2)]
        assert (first, second) in forest.interp["R"]

    def test_requires_a_pebble(self):
        s = Structure(Signature((("R", 2),)), ("x",), {})
        with pytest.raises(ValueError):
            pr_unravel(s, 0, 1)

    def test_budget_counts_nodes_and_tuples(self):
        """One sequence per length, but len 200 means 20,100 nodes and 2.7
        million position pairs: refused before anything is built."""
        s = Structure(Signature((("R", 2),)), ("x",), {"R": frozenset({("x", "x")})})
        assert pr_unravel(s, 1, 40)[0].node_count() == 40 * 41 // 2
        with pytest.raises(ValueError, match="budget of 500000 steps"):
            pr_unravel(s, 1, 200)

    def test_counit_and_condition_p(self):
        s = Structure(
            Signature((("P", 1), ("R", 2))),
            ("x", "y"),
            {"P": frozenset({("x",)}), "R": frozenset({("x", "y")})},
        )
        forest, _ = pr_unravel(s, 2, 2)
        assert counit_check(forest, s).ok
        assert check_condition_p(forest) == []
        assert forest.linear

    def test_chain_count(self):
        s = Structure(Signature((("R", 2),)), ("x", "y"), {})
        forest, _ = pr_unravel(s, 2, 2)
        # (k*|A|)^1 + (k*|A|)^2 sequences, one chain each
        assert len(forest.roots) == 4 + 16
        assert forest.node_count() == 4 * 1 + 16 * 2


class TestCounitCheck:
    def test_mutated_label_detected(self):
        forest, _ = ml_unravel(fix4(), 2)
        bad = dict(forest.origin)
        node = next(n for n in forest.nodes if n != forest.roots[0])
        bad[node] = "d0"
        broken = ForestObject(
            kind=forest.kind,
            signature=forest.signature,
            nodes=forest.nodes,
            parent=forest.parent,
            roots=forest.roots,
            interp=forest.interp,
            origin=bad,
            valuation=forest.valuation,
            action_in=forest.action_in,
        )
        report = counit_check(broken, fix4().base)
        assert not report.ok
        assert report.violations


class TestForestSerialization:
    @given(pointed_structures(max_size=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_modal_round_trip(self, p, k):
        forest, _ = ml_unravel(p, k)
        data = forest_to_dict(forest)
        back = forest_from_dict(data)
        assert back.nodes == forest.nodes
        assert back.parent == forest.parent
        assert back.interp == forest.interp

    def test_pebbled_round_trip(self):
        s = Structure(Signature((("R", 2),)), ("x", "y"), {"R": frozenset({("x", "y")})})
        forest, _ = pr_unravel(s, 2, 2)
        back = forest_from_dict(forest_to_dict(forest))
        assert back.pebble == forest.pebble
        assert back.roots == forest.roots


class TestPrUnravelProperties:
    @given(plain_structures(max_size=3), st.integers(min_value=1, max_value=2),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_counit_and_pebble_discipline(self, s, k, n):
        forest, _ = pr_unravel(s, k, n)
        assert counit_check(forest, s).ok
        assert check_condition_p(forest) == []
        assert forest.linear

    def test_ternary_relation(self):
        sig = Signature((("T", 3),))
        s = Structure(sig, ("x",), {"T": frozenset({("x", "x", "x")})})
        forest, _ = pr_unravel(s, 3, 3)
        by_pebbles = {}
        for node in forest.nodes:
            chain = forest.path_to_root(node)
            if len(chain) == 3:
                by_pebbles[tuple(forest.pebble[m] for m in chain)] = chain
        distinct = by_pebbles[(1, 2, 3)]
        assert tuple(distinct) in forest.interp["T"]
        reused = by_pebbles[(1, 1, 1)]
        assert tuple(reused) not in forest.interp["T"]
        # the final position alone is always fresh
        assert (reused[2], reused[2], reused[2]) in forest.interp["T"]


def ref_pr_interp(forest, s):
    """The relation tuples of a pebble-sequence forest, position tuple by
    position tuple over each chain: a tuple holds iff no pebble of its
    positions is placed again before the tuple's last position, and the
    relation holds on the placed elements."""
    tuples = {name: set() for name in s.signature.names}
    for leaf in (n for n in forest.nodes if forest.is_leaf(n)):
        ids = forest.path_to_root(leaf)
        seq = [(forest.pebble[n], forest.origin[n]) for n in ids]
        for name, arity in s.signature.relations:
            for combo in product(range(1, len(seq) + 1), repeat=arity):
                top = max(combo)
                if any(
                    seq[j][0] == seq[idx - 1][0] for idx in combo for j in range(idx, top)
                ):
                    continue
                if tuple(seq[idx - 1][1] for idx in combo) in s.interp[name]:
                    tuples[name].add(tuple(ids[idx - 1] for idx in combo))
    return {name: frozenset(ts) for name, ts in tuples.items()}


@st.composite
def relational_structures(draw):
    """One or two relations of arity 1 to 3, self-loops allowed, over one or
    two elements."""
    universe = ("x", "y")[: draw(st.integers(min_value=1, max_value=2))]
    arities = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2))
    sig = Signature(tuple((f"R{i}", arity) for i, arity in enumerate(arities)))
    interp = {
        f"R{i}": frozenset(draw(st.sets(st.sampled_from(list(product(universe, repeat=arity))))))
        for i, arity in enumerate(arities)
    }
    return Structure(sig, universe, interp)


class TestPrUnravelAgainstTheScan:
    @given(relational_structures(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_same_forest(self, s, k, n):
        forest, _ = pr_unravel(s, k, n)
        ref = ForestObject(
            "pebbled", s.signature, forest.nodes, forest.parent, forest.roots,
            ref_pr_interp(forest, s), forest.origin, pebble=forest.pebble,
        )
        assert forest_to_dict(forest) == forest_to_dict(ref)


class TestCoreflectPebbled:
    def test_already_linear_forests_are_preserved(self):
        s = Structure(
            Signature((("R", 2),)), ("x", "y"), {"R": frozenset({("x", "y")})}
        )
        forest, _ = pr_unravel(s, 2, 2)
        again = coreflect(forest)
        assert len(again.roots) == len(forest.roots)
        assert again.node_count() == forest.node_count()
        # chain contents survive: same pebble sequences and relation patterns
        from linspect.oracle import forest_canon

        assert forest_canon(again) == forest_canon(forest)


class TestForestValidation:
    def forest(self, nodes, parent, roots):
        sig = Signature((("a", 2),))
        return ForestObject("modal", sig, nodes, parent, roots, {"a": frozenset()})

    def test_parent_cycle(self):
        # the first child on or below a cycle is named, in parent-map order
        with pytest.raises(ValueError, match=r"^parent cycle through 'c'$"):
            self.forest(("r", "b", "c", "d"), {"c": "d", "d": "b", "b": "d"}, ("r",))

    def test_cycle_through_a_listed_root(self):
        with pytest.raises(ValueError, match=r"^parent cycle through 'r'$"):
            self.forest(("r", "b"), {"r": "b", "b": "r"}, ("r",))

    def test_root_that_is_a_child(self):
        with pytest.raises(ValueError, match=r"^node 'b' must be exactly one of root/child$"):
            self.forest(("r", "b"), {"b": "r"}, ("r", "b"))

    def test_node_that_is_neither(self):
        with pytest.raises(ValueError, match=r"^node 'b' must be exactly one of root/child$"):
            self.forest(("r", "b"), {}, ("r",))

    def test_depths_from_one_walk(self):
        f = self.forest(("c", "r", "b"), {"c": "b", "b": "r"}, ("r",))
        assert [f.depth(n) for n in ("r", "b", "c")] == [0, 1, 2]


def forest_fields(forest):
    """Every field of a forest, each mapping as its list of items, so that
    the order of nodes, roots and mapping entries counts; relations are
    compared as sets."""
    return {
        f.name: list(value.items()) if isinstance(value, dict) and f.name != "interp" else value
        for f in fields(forest)
        for value in [getattr(forest, f.name)]
    }


class TestBuildersMatchTheReference:
    """The forced views against the builders they replaced
    (``tests/unravel_reference.py``): every field, in order, and the counit."""

    @given(modal_structures(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_ml_and_tree(self, p, k):
        forest, counit = ml_unravel(p, k)
        ref, ref_counit = reference.ml_unravel(p, k)
        assert forest_fields(forest) == forest_fields(ref)
        assert list(counit.items()) == list(ref_counit.items())
        assert forest_fields(tree_unravel(p, k)) == forest_fields(reference.tree_unravel(p, k))

    @given(three_arity_structures(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_pr(self, s, k, n):
        forest, counit = pr_unravel(s, k, n)
        ref, ref_counit = reference.pr_unravel(s, k, n)
        assert forest_fields(forest) == forest_fields(ref)
        assert list(counit.items()) == list(ref_counit.items())

    def test_budget_refusals_keep_their_messages(self):
        sig = Signature((("a", 2), ("b", 2)), modal=True)
        loops = PointedStructure(Structure(sig, ("s",), {"a": {("s", "s")}, "b": {("s", "s")}}), "s")
        relation = Structure(Signature((("R", 2),)), ("x",), {"R": {("x", "x")}})
        for build, ref, args in (
            (ml_unravel, reference.ml_unravel, (loops, 14)),
            (tree_unravel, reference.tree_unravel, (loops, 17)),
            (pr_unravel, reference.pr_unravel, (relation, 1, 200)),
        ):
            with pytest.raises(ValueError, match="budget") as got:
                build(*args)
            with pytest.raises(ValueError, match="budget") as want:
                ref(*args)
            assert str(got.value) == str(want.value)


@st.composite
def pebbled_forests(draw):
    """A branching forest of up to seven nodes, each parent drawn among the
    nodes before it, with one or two pebbles and a binary and a ternary
    relation on any nodes."""
    size = draw(st.integers(min_value=1, max_value=7))
    nodes = tuple(f"n{i}" for i in range(size))
    parent = {}
    for i in range(1, size):
        j = draw(st.integers(min_value=-1, max_value=i - 1))
        if j >= 0:
            parent[nodes[i]] = nodes[j]
    sig = Signature((("R", 2), ("T", 3)))
    interp = {
        name: frozenset(draw(st.sets(st.sampled_from(list(product(nodes, repeat=arity))), max_size=6)))
        for name, arity in sig.relations
    }
    pebble = {n: draw(st.integers(min_value=1, max_value=2)) for n in nodes}
    roots = tuple(n for n in nodes if n not in parent)
    return ForestObject("pebbled", sig, nodes, parent, roots, interp, pebble=pebble)


class TestConditionPMatchesTheLeafScan:
    @given(pebbled_forests())
    @settings(max_examples=80, deadline=None)
    def test_same_problems(self, forest):
        assert check_condition_p(forest) == reference.check_condition_p(forest)
