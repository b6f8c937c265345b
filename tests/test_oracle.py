import functools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix2, fix3, fix4, loop
from linspect.games import (
    PathHandle,
    path_hom_compatible,
    path_iso,
    solve_bisim,
)
from linspect import oracle
from linspect.logic import FF, Or, UnionModel, parse_formula, render_formula, truth_vectors
from linspect.oracle import (
    SuiteReport,
    _deadlock_masks,
    _enumerate_deadlock_formulas,
    _pointed_tree_canon,
    check_open_embedding,
    find_morphism,
    forest_canon,
    gen_pointed,
    pointed_iso,
    replay_prop86,
    run_suite,
    suite_signature,
    workspace,
)
from linspect.structures import PointedStructure, Signature, Structure, ball, pointed_sum
from linspect.traces import check_trace_relation
from linspect.unravel import (
    ForestObject,
    _modal_forest,
    as_pointed,
    ml_unravel,
    pr_unravel,
    tree_unravel,
)

from conftest import plain_structures, pointed_pairs, pointed_structures, seeded_pair
from helpers import split_branches


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

    def test_open_span_compares_every_root(self):
        # roots r1 {p} and r2 {} against the one root s1 {p}: Spoiler picks r2
        sig = suite_signature(n_props=1, n_actions=1)
        p, none = frozenset({"p"}), frozenset()
        x = _modal_forest(sig, [("r1", None, "r1", p, None), ("r2", None, "r2", none, None)])
        y = _modal_forest(sig, [("s1", None, "s1", p, None)])
        assert find_morphism(x, y, "open_span") is None
        assert find_morphism(y, x, "open_span") is None
        # the one-node span <r1;s1> misses the root r2
        z = _modal_forest(sig, [("<r1;s1>", None, "r1", p, None)])
        assert not check_open_embedding(z, x, {"<r1;s1>": "r1"})
        assert check_open_embedding(z, y, {"<r1;s1>": "s1"})

    def test_open_span_of_a_coreflected_tree(self):
        # the tree's branches split apart, each under its own copy of the root
        x = split_branches(tree_unravel(fix2(), 2))
        assert len(x.roots) > 1
        witness = find_morphism(x, x, "open_span")
        assert witness is not None
        assert check_open_embedding(witness.mediator, x, witness.mapping)
        assert check_open_embedding(witness.mediator, x, witness.mapping2)

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

    def test_lemma83_budget_refusal(self, capsys):
        from linspect.cli import main

        with pytest.raises(ValueError, match="budget"):
            run_suite("lemma83", 7, 2, 5, 0)
        assert main(["verify", "--suite", "lemma83", "--size", "4", "-k", "3"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_cor74_small(self):
        report = run_suite("cor74", 2, 1, 10, 3)
        assert report.fail == 0, report.render()

    def test_reports_are_reproducible(self):
        a = run_suite("prop85", 3, 2, 8, 42).render()
        b = run_suite("prop85", 3, 2, 8, 42).render()
        assert a == b


class NegatedVerdict:
    def __init__(self, holds: bool) -> None:
        self.holds = holds


def negate_relation(relation: str, reversed_only: bool = False):
    """``check_trace_relation`` with one relation's verdicts negated; with
    ``reversed_only``, only on a call whose arguments swap the previous one's
    for that relation."""
    real, previous = oracle.check_trace_relation, []

    def patched(rel, a, b, k):
        verdict = real(rel, a, b, k)
        if rel != relation:
            return verdict
        swapped = bool(previous) and a is previous[0][1] and b is previous[0][0]
        previous[:] = [(a, b)]
        return verdict if reversed_only and not swapped else NegatedVerdict(not verdict.holds)

    return patched


def flip_kind(kind: str):
    """``find_morphism`` with one morphism kind's answers flipped."""
    real = oracle.find_morphism

    def patched(x, y, k):
        found = real(x, y, k)
        if k != kind:
            return found
        return None if found is not None else object()

    return patched


FORCED_FAILURES = {
    **{f"negate {rel}": ("check_trace_relation", rel, False) for rel in ("tr", "ltr", "cltr", "gltr")},
    "negate reversed tr": ("check_trace_relation", "tr", True),
    **{f"flip {kind}": ("find_morphism", kind, None)
       for kind in ("homomorphism", "pathwise_embedding", "open_span", "isomorphism")},
}


def force(monkeypatch, failure: str) -> None:
    name, what, reversed_only = FORCED_FAILURES[failure]
    patched = flip_kind(what) if name == "find_morphism" else negate_relation(what, reversed_only)
    monkeypatch.setattr(oracle, name, patched)


# ``run_suite(suite, 2, 2, 6, 3)`` under each forced failure, as the suites
# reported it when each wrote out its own sample loop and thm61 its six checks
FORCED_REPORTS = {
    ('negate tr', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item1: categorical=True behavioural=False logical=True',
        'sample 1: item1: categorical=True behavioural=False logical=True',
        'sample 2: item1: categorical=True behavioural=False logical=True',
        'sample 3: item1: categorical=True behavioural=False logical=True',
        'sample 4: item1: categorical=False behavioural=True logical=False',
        'sample 5: item1: categorical=True behavioural=False logical=True',
    ],
    ('negate tr', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 1 FAIL 5',
        'sample 0: morphism->tr: branching holds but linear fails',
        'sample 1: morphism->tr: branching holds but linear fails',
        'sample 2: morphism->tr: branching holds but linear fails',
        'sample 3: morphism->tr: branching holds but linear fails',
        'sample 5: morphism->tr: branching holds but linear fails',
    ],
    ('negate tr', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('negate ltr', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item2: categorical=False behavioural=True logical=False',
        'sample 1: item2: categorical=True behavioural=False logical=True',
        'sample 2: item2: categorical=True behavioural=False logical=True',
        'sample 3: item2: categorical=True behavioural=False logical=True',
        'sample 4: item2: categorical=False behavioural=True logical=False',
        'sample 5: item2: categorical=True behavioural=False logical=True',
    ],
    ('negate ltr', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 5 FAIL 1',
        'sample 3: embeddings->ltr: branching holds but linear fails',
    ],
    ('negate ltr', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('negate cltr', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item3: categorical=False behavioural=True logical=False',
        'sample 1: item3: categorical=False behavioural=True logical=False',
        'sample 2: item3: categorical=False behavioural=True logical=False',
        'sample 3: item3: categorical=True behavioural=False logical=True',
        'sample 4: item3: categorical=False behavioural=True logical=False',
        'sample 5: item3: categorical=False behavioural=True logical=False',
    ],
    ('negate cltr', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 5 FAIL 1',
        'sample 3: bisim->cltr: branching holds but linear fails',
    ],
    ('negate cltr', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('negate gltr', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item4: categorical=False behavioural=True logical=False',
        'sample 1: item4: categorical=False behavioural=True logical=False',
        'sample 2: item4: categorical=False behavioural=True logical=False',
        'sample 3: item4: categorical=True behavioural=False logical=True',
        'sample 4: item4: categorical=False behavioural=True logical=False',
        'sample 5: item4: categorical=False behavioural=True logical=False',
    ],
    ('negate gltr', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 5 FAIL 1',
        'sample 3: tree-iso->gltr: branching holds but linear fails',
    ],
    ('negate gltr', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('negate reversed tr', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item1-rev: categorical=False behavioural=True logical=False',
        'sample 1: item1-rev: categorical=False behavioural=True logical=False',
        'sample 2: item1-rev: categorical=False behavioural=True logical=False',
        'sample 3: item1-rev: categorical=True behavioural=False logical=True',
        'sample 4: item1-rev: categorical=False behavioural=True logical=False',
        'sample 5: item1-rev: categorical=False behavioural=True logical=False',
    ],
    ('negate reversed tr', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('negate reversed tr', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('flip homomorphism', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item1: categorical=False behavioural=True logical=True',
        'sample 1: item1: categorical=False behavioural=True logical=True',
        'sample 2: item1: categorical=False behavioural=True logical=True',
        'sample 3: item1: categorical=False behavioural=True logical=True',
        'sample 4: item1: categorical=True behavioural=False logical=False',
        'sample 5: item1: categorical=False behavioural=True logical=True',
    ],
    ('flip homomorphism', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 5 FAIL 1',
        'sample 4: morphism->tr: branching holds but linear fails',
    ],
    ('flip homomorphism', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 5 FAIL 1',
        'sample 3: full win but existential=(True,True) homomorphisms=(False,False)',
    ],
    ('flip pathwise_embedding', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item2: categorical=True behavioural=False logical=False',
        'sample 1: item2: categorical=False behavioural=True logical=True',
        'sample 2: item2: categorical=False behavioural=True logical=True',
        'sample 3: item2: categorical=False behavioural=True logical=True',
        'sample 4: item2: categorical=True behavioural=False logical=False',
        'sample 5: item2: categorical=False behavioural=True logical=True',
    ],
    ('flip pathwise_embedding', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 4 FAIL 2',
        'sample 0: embeddings->ltr: branching holds but linear fails',
        'sample 4: embeddings->ltr: branching holds but linear fails',
    ],
    ('flip pathwise_embedding', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('flip open_span', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item3: categorical=True behavioural=False logical=False',
        'sample 1: item3: categorical=True behavioural=False logical=False',
        'sample 2: item3: categorical=True behavioural=False logical=False',
        'sample 3: item3: categorical=False behavioural=True logical=True',
        'sample 4: item3: categorical=True behavioural=False logical=False',
        'sample 5: item3: categorical=True behavioural=False logical=False',
    ],
    ('flip open_span', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('flip open_span', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
    ('flip isomorphism', 'thm61'): [
        'SUITE thm61 SAMPLES 6 AGREE 0 FAIL 6',
        'sample 0: item4: categorical=True behavioural=False logical=False',
        'sample 1: item4: categorical=True behavioural=False logical=False',
        'sample 2: item4: categorical=True behavioural=False logical=False',
        'sample 3: item4: categorical=False behavioural=True logical=True',
        'sample 4: item4: categorical=True behavioural=False logical=False',
        'sample 5: item4: categorical=True behavioural=False logical=False',
    ],
    ('flip isomorphism', 'thm48'): [
        'SUITE thm48 SAMPLES 6 AGREE 1 FAIL 5',
        'sample 0: tree-iso->gltr: branching holds but linear fails',
        'sample 1: tree-iso->gltr: branching holds but linear fails',
        'sample 2: tree-iso->gltr: branching holds but linear fails',
        'sample 4: tree-iso->gltr: branching holds but linear fails',
        'sample 5: tree-iso->gltr: branching holds but linear fails',
    ],
    ('flip isomorphism', 'lemma313'): [
        'SUITE lemma313 SAMPLES 6 AGREE 6 FAIL 0',
    ],
}


class TestSuitesUnderForcedFailures:
    """The reports pin each suite's checks, their order and their failure
    lines; thm61 stops at its first failing check."""

    @pytest.mark.parametrize("failure, suite", list(FORCED_REPORTS))
    def test_report_text(self, monkeypatch, failure, suite):
        force(monkeypatch, failure)
        assert run_suite(suite, 2, 2, 6, 3).render().splitlines() == FORCED_REPORTS[failure, suite]


class TestSeedProtocol:
    """Sample i of a run at ``seed`` is the one-sample run at ``seed + i``."""

    @pytest.mark.parametrize(
        "name, size, k, length",
        [
            ("thm61", 3, 2, 4),
            ("thm48", 3, 2, 4),
            ("thm54", 2, 2, 3),
            ("prop84", 3, 2, 4),
            ("prop85", 3, 2, 4),
            ("lemma83", 3, 1, 4),
            ("lemma313", 2, 2, 4),
        ],
    )
    @pytest.mark.parametrize("failure", [None, "flip homomorphism"])
    def test_samples_are_one_sample_runs(self, monkeypatch, name, size, k, length, failure):
        if failure is not None:
            force(monkeypatch, failure)
        seed, n = 17, 5
        report = run_suite(name, size, k, n, seed, length)
        singles = [run_suite(name, size, k, 1, seed + i, length) for i in range(n)]
        assert report.samples == n
        assert report.agree == sum(single.agree for single in singles)
        assert report.failures == [
            line.replace("sample 0:", f"sample {i}:", 1)
            for i, single in enumerate(singles)
            for line in single.failures
        ]


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


class TestPointedIsoSearchOrder:
    @given(pointed_pairs(max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_agree_with_reference(self, pair):
        a, b = pair
        copy = renamed(a.base)
        a2 = PointedStructure(copy, copy.universe[a.base.universe.index(a.point)])
        for p, q in ((a, b), (a, a2), (a2, b), (b, b)):
            assert_iso_agrees(p, q)


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

    def test_branching_forest_keeps_a_shared_parent(self):
        """Each leaf of x has a matching chain in y, but not both under one
        root: the mapping of x's root must serve both children."""
        sig = Signature((("R", 2),))

        def forest(parent, placements):
            nodes = tuple(placements)
            return ForestObject(
                "pebbled", sig, nodes, parent, tuple(n for n in nodes if n not in parent),
                {"R": frozenset()},
                origin={n: el for n, (_, el) in placements.items()},
                pebble={n: pb for n, (pb, _) in placements.items()},
            )

        x = forest({"c1": "r", "c2": "r"}, {"r": (1, "e0"), "c1": (1, "e0"), "c2": (2, "e1")})
        y = forest(
            {"d1": "r1", "d2": "r2"},
            {"r1": (1, "e0"), "d1": (1, "e0"), "r2": (1, "e0"), "d2": (2, "e1")},
        )
        for kind in ("homomorphism", "pathwise_embedding"):
            assert find_morphism(x, y, kind) is None


def ref_pebbled_mapping(x, y, kind):
    """Each chain of a linear pebbled forest maps on its own to a chain
    prefix of y: the first node at the leaf's depth whose path matches."""
    compatible = path_iso if kind == "pathwise_embedding" else path_hom_compatible
    y_by_depth = {}
    for node in y.nodes:
        y_by_depth.setdefault(y.depth(node), []).append(node)
    mapping = {}
    for leaf in (n for n in x.nodes if x.is_leaf(n)):
        chain = x.path_to_root(leaf)
        target = next(
            (
                v
                for v in y_by_depth.get(len(chain) - 1, [])
                if compatible(PathHandle(x, leaf), PathHandle(y, v))
            ),
            None,
        )
        if target is None:
            return None
        mapping.update(zip(chain, y.path_to_root(target)))
    return mapping


class TestPebbledMappingsMatchTheChainReference:
    @given(plain_structures(max_size=2), plain_structures(max_size=2),
           st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_pr_unravelings(self, s, t, k, n):
        x, y = pr_unravel(s, k, n)[0], pr_unravel(t, k, n)[0]
        for a, b in ((x, y), (y, x), (x, x)):
            for kind in ("homomorphism", "pathwise_embedding"):
                found = find_morphism(a, b, kind)
                assert (found and found.mapping) == ref_pebbled_mapping(a, b, kind)


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


def ref_open_span(x, y):
    """Greatest sub-forest of the synchronized pair-forest whose projections
    satisfy the path-lifting condition on every node, both sides; only the
    first root of each forest is compared."""

    def label_equal(u, v):
        return x.action_in.get(u) == y.action_in.get(v) and x.valuation[u] == y.valuation[v]

    # the synchronized pair-forest on label-equal pairs, as each pair's children
    root = (x.roots[0], y.roots[0])
    children = {}
    if x.valuation[root[0]] == y.valuation[root[1]]:
        stack = [root]
        seen = {root}
        while stack:
            u, v = stack.pop()
            kids = [
                (u2, v2) for u2 in x.children(u) for v2 in y.children(v) if label_equal(u2, v2)
            ]
            children[(u, v)] = kids
            for kid in kids:
                if kid not in seen:
                    seen.add(kid)
                    stack.append(kid)
    if root not in children:
        return None
    kept = set(children)

    def survives(z):
        u, v = z
        kept_kids = [w for w in children[z] if w in kept]
        lifted_u = {w[0] for w in kept_kids}
        lifted_v = {w[1] for w in kept_kids}
        return lifted_u.issuperset(x.children(u)) and lifted_v.issuperset(y.children(v))

    # worklist fixpoint: a removal can only invalidate the pair's parent
    pending = sorted(kept)
    while pending:
        batch, pending = pending, []
        for z in batch:
            if z in kept and not survives(z):
                kept.discard(z)
                u, v = z
                if z != root:
                    pending.append((x.parent[u], y.parent[v]))
    if root not in kept:
        return None
    # drop nodes whose ancestors were pruned
    reachable = set()
    stack = [root]
    while stack:
        z = stack.pop()
        reachable.add(z)
        stack.extend(w for w in children[z] if w in kept and w not in reachable)

    def pair_id(z):
        return f"<{z[0]};{z[1]}>"

    def steps():
        for z in sorted(reachable, key=lambda z: (x.depth(z[0]), z)):
            u, v = z
            par = None if z == root else pair_id((x.parent[u], y.parent[v]))
            yield pair_id(z), par, u, x.valuation[u], x.action_in.get(u)

    mediator = _modal_forest(x.signature, steps())
    map1 = {pair_id(z): z[0] for z in reachable}
    map2 = {pair_id(z): z[1] for z in reachable}
    return oracle.MorphismWitness("open_span", map1, map2, mediator)


class TestOpenSpanMatchesThePairForestReference:
    """On single-rooted forests the game's span exists exactly when the
    greatest pair-forest span does, and is a sub-forest of it."""

    @given(pointed_pairs(max_size=4), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_ml_and_tree_unravelings(self, pair, k):
        a, b = pair
        for x, y in ((ml_unravel(a, k)[0], ml_unravel(b, k)[0]), (tree_unravel(a, k), tree_unravel(b, k))):
            for left, right in ((x, y), (y, x), (x, x)):
                span, ref = find_morphism(left, right, "open_span"), ref_open_span(left, right)
                assert (span is None) == (ref is None)
                if span is None:
                    continue
                assert check_open_embedding(span.mediator, left, span.mapping)
                assert check_open_embedding(span.mediator, right, span.mapping2)
                med = span.mediator
                assert set(med.nodes) <= set(ref.mediator.nodes)
                assert set(med.roots) <= set(ref.mediator.roots)
                assert all(ref.mediator.parent.get(n) == p for n, p in med.parent.items())


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

    def test_two_non_trees_are_refused(self):
        assert _pointed_tree_canon(loop()) is None
        with pytest.raises(ValueError, match="tree-shaped"):
            pointed_iso(loop(), loop())

    def test_loop_is_not_its_unraveling(self):
        """One tree side decides: the self-loop is not its ML unraveling."""
        unraveling = as_pointed(ml_unravel(loop(), 2)[0])
        assert _pointed_tree_canon(unraveling) is not None
        assert not pointed_iso(loop(), unraveling)
        assert not pointed_iso(unraveling, loop())

    def test_higher_arity_guard(self):
        from linspect.oracle import _pointed_tree_canon
        from linspect.structures import PointedStructure, Signature, Structure

        sig = Signature((("T", 3), ("a", 2)))
        s = PointedStructure(
            Structure(sig, ("x", "y"), {"a": frozenset({("x", "y")})}), "x"
        )
        assert _pointed_tree_canon(s) is None


# --- reference oracles ----------------------------------------------------------
# The recursive per-node canons that the bottom-up labelling replaced.  They
# are exact at small depth; the one labelling must agree with them there.


def ref_modal_canon(f, node):
    return (
        tuple(sorted(f.valuation[node])),
        f.action_in.get(node),
        tuple(sorted(ref_modal_canon(f, c) for c in f.children(node))),
    )


def ref_pebbled_chain_canon(f, leaf):
    chain = f.path_to_root(leaf)
    pos = {n: i for i, n in enumerate(chain)}
    rels = []
    for name in sorted(f.interp):
        for t in f.interp[name]:
            if all(e in pos for e in t):
                rels.append((name, tuple(pos[e] for e in t)))
    return (tuple(f.pebble[n] for n in chain), tuple(sorted(rels)))


def ref_forest_canon(f):
    if f.kind == "modal":
        return tuple(sorted(ref_modal_canon(f, r) for r in f.roots))
    return tuple(sorted(ref_pebbled_chain_canon(f, n) for n in f.nodes if f.is_leaf(n)))


def ref_iso_mapping(x, y):
    """Children paired by recursive canon for modal forests, whole chains
    paired by chain canon for pebbled ones."""
    if ref_forest_canon(x) != ref_forest_canon(y):
        return None
    mapping = {}
    if x.kind == "modal":

        def pair(u, v):
            mapping[u] = v
            xs = sorted(x.children(u), key=lambda c: (ref_modal_canon(x, c), c))
            ys = sorted(y.children(v), key=lambda c: (ref_modal_canon(y, c), c))
            for cu, cv in zip(xs, ys):
                pair(cu, cv)

        xr = sorted(x.roots, key=lambda r: (ref_modal_canon(x, r), r))
        yr = sorted(y.roots, key=lambda r: (ref_modal_canon(y, r), r))
        for ru, rv in zip(xr, yr):
            pair(ru, rv)
        return mapping

    def chains(f):
        return sorted(
            (f.path_to_root(n) for n in f.nodes if f.is_leaf(n)),
            key=lambda c: (ref_pebbled_chain_canon(f, c[-1]), c),
        )

    for cx, cy in zip(chains(x), chains(y)):
        mapping.update(dict(zip(cx, cy)))
    return mapping


def ref_pointed_tree_canon(p):
    if any(arity > 2 for _, arity in p.signature.relations):
        return None
    incoming = {e: [] for e in p.base.universe}
    for act in p.signature.actions:
        for (src, dst) in p.base.interp[act]:
            incoming[dst].append((act, src))
    if incoming[p.point]:
        return None
    children = {e: [] for e in p.base.universe}
    for e in p.base.universe:
        if e == p.point:
            continue
        if len(incoming[e]) != 1:
            return None
        act, par = incoming[e][0]
        if par == e:
            return None
        children[par].append((act, e))
    seen = set()

    def canon(e):
        seen.add(e)
        kids = sorted((act, canon(c)) for act, c in children[e])
        return (tuple(sorted(p.base.valuation(e))), tuple(kids))

    result = canon(p.point)
    return result if len(seen) == len(p.base.universe) else None


def ref_pointed_iso(p, q):
    """Isomorphism with a tree: equal signatures and equal recursive canons,
    of which at least one is not None."""
    return p.signature == q.signature and ref_pointed_tree_canon(p) == ref_pointed_tree_canon(q)


def assert_iso_agrees(p, q):
    """``pointed_iso`` answers like the reference when one side is a tree,
    and refuses two structures that are both not trees."""
    if ref_pointed_tree_canon(p) is None and ref_pointed_tree_canon(q) is None:
        with pytest.raises(ValueError, match="tree-shaped"):
            pointed_iso(p, q)
    else:
        assert pointed_iso(p, q) == ref_pointed_iso(p, q)


def renamed(s: Structure) -> Structure:
    """An isomorphic copy whose element names sort in the reverse order."""
    ren = {e: f"x{len(s.universe) - i}" for i, e in enumerate(s.universe)}
    interp = {name: {tuple(ren[e] for e in t) for t in ts} for name, ts in s.interp.items()}
    return Structure(s.signature, tuple(ren[e] for e in s.universe), interp)


def assert_canon_and_mapping_agree(x, y):
    assert (forest_canon(x) == forest_canon(y)) == (ref_forest_canon(x) == ref_forest_canon(y))
    witness = find_morphism(x, y, "isomorphism")
    assert (None if witness is None else witness.mapping) == ref_iso_mapping(x, y)


class TestOneLabellingAgreesWithReferences:
    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_modal_unravelings(self, pair, k):
        a, b = pair
        copy = renamed(a.base)
        a2 = PointedStructure(copy, copy.universe[0])
        interp = a.base.interp
        swapped = {**interp, "a": interp["b"], "b": interp["a"]}
        a3 = PointedStructure(Structure(a.signature, a.base.universe, swapped), a.point)
        for unravel in (lambda p: ml_unravel(p, k)[0], lambda p: tree_unravel(p, k)):
            x, y, x2, x3 = unravel(a), unravel(b), unravel(a2), unravel(a3)
            for left, right in ((x, y), (y, x), (x, x2), (x2, y), (x, x3)):
                assert_canon_and_mapping_agree(left, right)
            for p in (a, b, a2, as_pointed(x), as_pointed(y), as_pointed(x2)):
                assert (_pointed_tree_canon(p) is None) == (ref_pointed_tree_canon(p) is None)
            ux, uy, ux2, ux3 = (as_pointed(f) for f in (x, y, x2, x3))
            for p, q in ((ux, uy), (ux, ux2), (ux, ux3), (a, b), (a, a2), (a, a3), (a2, b)):
                assert_iso_agrees(p, q)

    @given(
        plain_structures(max_size=2),
        plain_structures(max_size=2),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_pebbled_unravelings(self, s, t, k, n):
        reversed_r = {**s.interp, "R": {edge[::-1] for edge in s.interp["R"]}}
        sources = (s, t, renamed(s), Structure(s.signature, s.universe, reversed_r))
        x, y, x2, x3 = (pr_unravel(u, k, n)[0] for u in sources)
        for left, right in ((x, y), (y, x), (x, x2), (x2, y), (x, x3)):
            assert_canon_and_mapping_agree(left, right)


class TestPebbledIsomorphismIsABijection:
    def test_branching_root_against_two_chains(self):
        """Two chains root-to-leaf that share their root are not two chains."""
        sig = Signature((("R", 2),))

        def forest(parent, roots):
            nodes = tuple(roots) + tuple(parent)
            pebble = {n: 1 if n in roots else 2 for n in nodes}
            return ForestObject(
                "pebbled", sig, nodes, parent, roots, {"R": frozenset()},
                origin={n: "e" for n in nodes}, pebble=pebble,
            )

        x = forest({"c1": "r", "c2": "r"}, ("r",))
        y = forest({"c1": "r", "c2": "r2"}, ("r", "r2"))
        assert find_morphism(x, y, "isomorphism") is None
        assert find_morphism(y, x, "isomorphism") is None
        assert forest_canon(x) != forest_canon(y)


DEEP = 5000


def deep_chain(prefix: str, leaf_has_p: bool = True) -> ForestObject:
    """A 5,001-state a-chain with ``p`` everywhere (but maybe at the leaf)."""

    def steps():
        yield f"{prefix}0", None, "s0", frozenset({"p"}), None
        for i in range(1, DEEP + 1):
            val = frozenset({"p"}) if i < DEEP or leaf_has_p else frozenset()
            yield f"{prefix}{i}", f"{prefix}{i - 1}", f"s{i}", val, "a"

    return _modal_forest(suite_signature(n_props=1, n_actions=1), steps())


class TestDepthFiveThousand:
    def test_isomorphic_chains(self):
        x, y = deep_chain("n"), deep_chain("m")
        witness = find_morphism(x, y, "isomorphism")
        assert witness is not None
        assert witness.mapping == {f"n{i}": f"m{i}" for i in range(DEEP + 1)}
        assert forest_canon(x) == forest_canon(y)
        assert pointed_iso(as_pointed(x), as_pointed(y))
        assert x.depth(f"n{DEEP}") == DEEP
        span = find_morphism(x, y, "open_span")
        assert span.mapping2 == {f"<n{i};m{i}>": f"m{i}" for i in range(DEEP + 1)}
        assert span.mediator.depth(f"<n{DEEP};m{DEEP}>") == DEEP

    def test_leaf_without_p(self):
        x, y = deep_chain("n"), deep_chain("m", leaf_has_p=False)
        assert find_morphism(x, y, "isomorphism") is None
        assert find_morphism(x, y, "homomorphism") is None
        assert find_morphism(y, x, "pathwise_embedding") is None
        assert find_morphism(x, y, "open_span") is None
        witness = find_morphism(y, x, "homomorphism")
        assert witness.mapping == {f"m{i}": f"n{i}" for i in range(DEEP + 1)}
        assert forest_canon(x) != forest_canon(y)
        assert not pointed_iso(as_pointed(x), as_pointed(y))


# --- cor74 by masks -------------------------------------------------------------


@functools.cache
def deadlock_formulas(k: int) -> list:
    sig = suite_signature(n_props=2, n_actions=2)
    return _enumerate_deadlock_formulas(k, sig.propositions, sig.actions)


def ref_cor74(size: int, k: int, samples: int, seed: int) -> str:
    """Reference cor74 report: every enumerated formula is built and decided
    by ``truth_vectors``, each distinct vector checked once and named by its
    first formula.  It reads ``synth_characteristic`` from the oracle module,
    so a patch there reaches both sides."""
    sig = suite_signature(n_props=2, n_actions=2)
    universe, seen_keys = [], set()
    for i in range(samples):
        cand = gen_pointed(sig, size, random.Random(seed + i))
        key = (cand.base.universe, tuple(sorted((n, tuple(sorted(t))) for n, t in cand.base.interp.items())))
        if key not in seen_keys:
            seen_keys.add(key)
            universe.append(cand)
    formulas = deadlock_formulas(k)
    report = SuiteReport("cor74", len(formulas))
    tr_matrix = {
        (i, j): check_trace_relation("tr", x, y, k).holds
        for i, x in enumerate(universe)
        for j, y in enumerate(universe)
    }
    char_cache = {i: oracle.synth_characteristic(x, k, "DiamondPos") for i, x in enumerate(universe)}
    vector_cache = dict(zip(formulas, truth_vectors(formulas, universe)))
    rewritings = {}
    for vec in dict.fromkeys(vector_cache.values()):
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
                if not any(j != i and tr_matrix[(j, i)] and not tr_matrix[(i, j)] for j in models)
            ]
            rewritings[vec] = Or(tuple(char_cache[i] for i in minimal))
    revecs = dict(zip(rewritings, truth_vectors(list(rewritings.values()), universe)))
    checked_vectors = {}
    for fi, f in enumerate(formulas):
        vec = vector_cache[f]
        if vec not in checked_vectors:
            problem = None
            if revecs.get(vec, vec) != vec:
                problem = f"invariant formula {render_formula(f)} disagrees with its positive rewriting"
            checked_vectors[vec] = problem
        report.record(fi, checked_vectors[vec])
    return report.render()


class TestCor74ByMasks:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_reports_match_reference(self, size, k):
        for samples in range(1, 11):
            seed = 97 * samples + size
            got = run_suite("cor74", size, k, samples, seed).render()
            assert got == ref_cor74(size, k, samples, seed), (samples, seed)

    @pytest.mark.parametrize(
        "k, props, actions",
        [(0, ("p",), ("a",)), (1, ("p", "q"), ("a",)), (2, ("p",), ("a", "b")), (1, (), ("a", "b", "c"))],
    )
    def test_enumeration_has_no_duplicates(self, k, props, actions):
        fs = _enumerate_deadlock_formulas(k, props, actions)
        n = 0
        for _ in range(k + 1):
            n = 3 ** len(props) * 2 * (1 + len(actions) * n)
        assert len(fs) == len(set(fs)) == n

    @given(st.lists(pointed_structures(max_size=3, n_props=2), min_size=1, max_size=8),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_level_masks_match_truth_vectors(self, universe, k):
        sig = suite_signature(n_props=2, n_actions=2)
        model = UnionModel(universe)
        masks = _deadlock_masks(k, sig.propositions, sig.actions, model)
        assert model.vectors(masks) == truth_vectors(deadlock_formulas(k), universe)

    @pytest.mark.parametrize("size, k, samples, seed", [(2, 1, 4, 3), (3, 2, 2, 8), (1, 0, 3, 0)])
    def test_failures_are_named_like_the_reference(self, monkeypatch, size, k, samples, seed):
        """With every rewriting false, each satisfiable invariant vector fails:
        the failure lines name formulas built only for them."""
        monkeypatch.setattr(oracle, "synth_characteristic", lambda *args: FF)
        got = run_suite("cor74", size, k, samples, seed)
        assert got.fail > 0
        assert got.render() == ref_cor74(size, k, samples, seed)
