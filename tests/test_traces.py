from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix2, fix3, fix4, loop
from linspect.structures import PointedStructure, Signature, Structure
from linspect.traces import (
    LabelledTrace,
    NonModalSignature,
    ReadyTrace,
    Run,
    build_trace_automaton,
    check_trace_relation,
    enumerate_runs,
    maximal_runs,
    render_trace,
    runs_upto,
    trace_of,
    traces_upto,
)

from conftest import pointed_pairs, pointed_structures
from helpers import count_words


def pointed(actions: dict, point: str, p: tuple = ()) -> PointedStructure:
    """A structure from {action: [(src, dst), ...]}, with proposition p true
    at the states listed in ``p``."""
    sig = Signature((("p", 1),) + tuple((a, 2) for a in actions), modal=True)
    states = {point, *p} | {s for pairs in actions.values() for pair in pairs for s in pair}
    interp = dict(actions, p=[(s,) for s in p])
    return PointedStructure(Structure(sig, tuple(sorted(states)), interp), point)


# --- reference deciders: trace sets from run enumeration ---------------------


def reference_runs(p: PointedStructure, k: int) -> list[Run]:
    """Runs of length <= k, shortest first, each length in depth-first order."""
    out: list[Run] = []
    for n in range(k + 1):
        def extend(states, actions):
            if len(actions) == n:
                out.append(Run(tuple(states), tuple(actions)))
                return
            for action in p.signature.actions:
                for target in p.base.successors(states[-1], action):
                    extend(states + [target], actions + [action])
        extend([p.point], [])
    return out


def trace_key(t) -> tuple:
    """Shortest first, then by actions, then by labels as sorted tuples."""
    sets = t.ready_sets if isinstance(t, ReadyTrace) else t.valuations
    return (len(t), t.actions, tuple(tuple(sorted(s)) for s in sets),
            getattr(t, "complete", False))


def gltr_difference(a, b, k) -> dict:
    """Traces whose number of maximal runs differs, with the side having more;
    the left root valuation alone if the roots' valuations differ."""
    if a.base.valuation(a.point) != b.base.valuation(b.point):
        return {LabelledTrace((a.base.valuation(a.point),), ()): "left"}
    ca, cb = (Counter(trace_of(p, r).dropped() for r in maximal_runs(p, k)) for p in (a, b))
    return {
        t: "left" if ca[t] > cb[t] else "right" for t in ca.keys() | cb.keys() if ca[t] != cb[t]
    }


def rt_difference(a, b, k) -> dict:
    ra, rb = traces_upto(a, k, "ready"), traces_upto(b, k, "ready")
    return {t: "left" if t in ra else "right" for t in ra ^ rb}


def cltr_difference(a, b, k) -> dict:
    """The left's labelled traces (length <= k) and complete traces (length
    < k) that the right lacks; if there are none, the right's that the left
    lacks.  cltr searches left to right first."""

    def lacking(x, y) -> set:
        labelled = traces_upto(x, k, "labelled") - traces_upto(y, k, "labelled")
        complete = traces_upto(x, k - 1, "complete") - traces_upto(y, k - 1, "complete")
        return labelled | complete

    left = lacking(a, b)
    return dict.fromkeys(left, "left") if left else dict.fromkeys(lacking(b, a), "right")


def ltr_difference(a, b, k) -> dict:
    return dict.fromkeys(traces_upto(a, k, "labelled") - traces_upto(b, k, "labelled"), "left")


def tr_difference(a, b, k) -> dict:
    theirs = traces_upto(b, k, "labelled")
    return {
        t: "left"
        for t in traces_upto(a, k, "labelled")
        if not any(
            u.actions == t.actions and all(x <= y for x, y in zip(t.valuations, u.valuations))
            for u in theirs
        )
    }


@st.composite
def near_copies(draw):
    """A structure and its copy without one edge: they differ only at depth."""
    a = draw(pointed_structures(max_size=5))
    edges = sorted((name, pair) for name in a.signature.actions for pair in a.base.interp[name])
    if not edges:
        return a, a
    name, pair = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
    interp = dict(a.base.interp, **{name: a.base.interp[name] - {pair}})
    b = PointedStructure(Structure(a.signature, a.base.universe, interp), a.point)
    return draw(st.sampled_from([(a, b), (b, a)]))


REFERENCES = {
    "tr": tr_difference,
    "ltr": ltr_difference,
    "cltr": cltr_difference,
    "gltr": gltr_difference,
    "rt": rt_difference,
}


def strip_props(p: PointedStructure) -> PointedStructure:
    sig = Signature(
        tuple((n, a) for n, a in p.signature.relations if a == 2), modal=True
    )
    interp = {n: p.base.interp[n] for n in sig.names}
    return PointedStructure(Structure(sig, p.base.universe, interp), p.point)


class TestRuns:
    def test_zero_length(self):
        runs = enumerate_runs(fix1(), 0)
        assert runs == (Run(("a0",), ()),)

    def test_self_loop(self):
        runs = enumerate_runs(loop(), 2)
        assert runs == (Run(("x", "x", "x"), ("a", "a")),)

    def test_fix2_depth_two(self):
        actions = sorted(r.actions for r in enumerate_runs(fix2(), 2))
        assert actions == [("a", "b"), ("a", "c")]

    def test_non_modal_rejected(self):
        sig = Signature((("T", 3),))
        s = PointedStructure(Structure(sig, ("x",), {}), "x")
        with pytest.raises(NonModalSignature):
            enumerate_runs(s, 1)

    def test_long_self_loop_without_recursion(self):
        assert enumerate_runs(loop(), 1500) == (Run(("x",) * 1501, ("a",) * 1500),)

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_run_order_matches_depth_first_reference(self, p, k):
        assert list(runs_upto(p, k)) == reference_runs(p, k)
        assert enumerate_runs(p, k) == tuple(r for r in reference_runs(p, k) if len(r) == k)

    def test_maximal_runs(self):
        # budget-exhausting runs only: full-depth or ending terminal
        assert sorted(r.actions for r in maximal_runs(fix4(), 2)) == [("a", "b")]
        assert sorted(r.actions for r in maximal_runs(fix4(), 1)) == [("a",)]
        assert sorted(r.actions for r in maximal_runs(fix3(), 2)) == [("a",), ("a", "b")]


class TestTraceSets:
    def test_terminal_root_complete(self):
        p = PointedStructure(Structure(fix1().signature, ("z",), {}), "z")
        ts = traces_upto(p, 3, "complete")
        assert len(ts) == 1
        (t,) = ts
        assert t.complete and len(t) == 0

    def test_fix3_complete_traces(self):
        ts = traces_upto(fix3(), 2, "complete")
        assert sorted(t.actions for t in ts) == [("a",), ("a", "b")]

    def test_fix4_complete_traces(self):
        ts = traces_upto(fix4(), 2, "complete")
        assert [t.actions for t in ts] == [("a", "b")]

    def test_ready_traces(self):
        rt = traces_upto(fix4(), 2, "ready")
        keyed = {t.actions: t.ready_sets for t in rt}
        assert keyed[()] == (frozenset({"a"}),)
        assert keyed[("a", "b")] == (frozenset({"a"}), frozenset({"b"}), frozenset())

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_complete_subset_of_labelled(self, p, k):
        complete = traces_upto(p, k, "complete")
        labelled = traces_upto(p, k, "labelled")
        assert {t.dropped() for t in complete} <= labelled

    def test_render(self):
        t = trace_of(fix4(), Run(("d0", "d1", "d2"), ("a", "b")))
        assert render_trace(t) == "{} -a-> {} -b-> {} !"


class TestAutomaton:
    def test_fix4_shape(self):
        aut = build_trace_automaton(fix4())
        assert len(aut.states) == 3
        assert aut.terminal == frozenset({"d2"})

    def test_language_matches_traces(self):
        for p in (fix1(), fix2(), fix3(), fix4(), loop()):
            aut = build_trace_automaton(p)
            for k in range(4):
                expected = {
                    t.actions + tuple(tuple(sorted(v)) for v in t.valuations)
                    for t in traces_upto(p, k, "labelled")
                    if len(t) == k
                }
                assert count_words(aut, k) == len(expected)

    def test_self_loop_counts(self):
        aut = build_trace_automaton(loop())
        assert [count_words(aut, n) for n in range(5)] == [1, 1, 1, 1, 1]

    def test_empty_transition_structure(self):
        p = PointedStructure(Structure(fix4().signature, ("z",), {}), "z")
        aut = build_trace_automaton(p)
        assert [count_words(aut, n) for n in range(3)] == [1, 0, 0]


class TestRelations:
    def test_reflexive(self):
        for p in (fix1(), fix2(), fix3(), fix4(), loop()):
            assert check_trace_relation("cltr", p, p, 3).holds
            assert check_trace_relation("cltr", p, p, "exact").holds

    def test_fix1_fix2_cltr(self):
        assert check_trace_relation("cltr", fix1(), fix2(), 3).holds

    def test_fix3_fix4_ltr_but_not_cltr(self):
        assert check_trace_relation("ltr", fix3(), fix4(), 3).holds
        assert check_trace_relation("ltr", fix4(), fix3(), 3).holds
        verdict = check_trace_relation("cltr", fix3(), fix4(), 3)
        assert not verdict.holds
        assert verdict.witness.complete
        assert verdict.witness.actions == ("a",)
        assert render_trace(verdict.witness) == "{} -a-> {} !"

    def test_fix2_fix1_gltr_false_at_one(self):
        verdict = check_trace_relation("gltr", fix2(), fix1(), 1)
        assert not verdict.holds
        assert verdict.witness.actions == ("a",)

    def test_exact_mode_unsupported(self):
        with pytest.raises(ValueError):
            check_trace_relation("gltr", fix1(), fix2(), "exact")
        with pytest.raises(ValueError):
            check_trace_relation("rt", fix1(), fix2(), "exact")

    def test_rt_distinguishes_fix3_fix4(self):
        # fix3's a-step can land in a state with an empty ready set
        verdict = check_trace_relation("rt", fix3(), fix4(), 2)
        assert not verdict.holds

    @given(pointed_pairs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_relation_ladder(self, pair, k):
        a, b = pair
        if check_trace_relation("gltr", a, b, k).holds:
            assert check_trace_relation("cltr", a, b, k).holds
        if check_trace_relation("cltr", a, b, k).holds:
            assert check_trace_relation("ltr", a, b, k).holds
            assert check_trace_relation("ltr", b, a, k).holds
        if check_trace_relation("ltr", a, b, k).holds:
            assert check_trace_relation("tr", a, b, k).holds

    @given(pointed_pairs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ready_implies_complete_on_transition_systems(self, pair, k):
        a, b = strip_props(pair[0]), strip_props(pair[1])
        if check_trace_relation("rt", a, b, k).holds:
            assert check_trace_relation("cltr", a, b, k).holds

    @given(pointed_pairs(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, pair, k):
        a, b = pair
        for rel in ("tr", "ltr", "cltr", "rt"):
            if check_trace_relation(rel, a, b, k + 1).holds:
                assert check_trace_relation(rel, a, b, k).holds

    @given(pointed_pairs(max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_bounded_matches_exact_at_product_bound(self, pair):
        a, b = pair
        bound = len(a.base.universe) * len(b.base.universe)
        for rel in ("tr", "ltr"):
            assert (
                check_trace_relation(rel, a, b, bound).holds
                == check_trace_relation(rel, a, b, "exact").holds
            )
        assert (
            check_trace_relation("cltr", a, b, bound).holds
            == check_trace_relation("cltr", a, b, "exact").holds
        )

    @given(pointed_pairs(n_props=0), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_tr_equals_ltr_without_propositions(self, pair, k):
        a, b = pair
        assert (
            check_trace_relation("tr", a, b, k).holds
            == check_trace_relation("ltr", a, b, k).holds
        )

    def test_tr_weaker_than_ltr_with_propositions(self):
        sig = Signature((("p", 1), ("a", 2)), modal=True)
        rich = PointedStructure(
            Structure(sig, ("x",), {"p": frozenset({("x",)})}), "x"
        )
        poor = PointedStructure(Structure(sig, ("y",), {}), "y")
        assert check_trace_relation("tr", poor, rich, 2).holds
        assert not check_trace_relation("ltr", poor, rich, 2).holds


class TestAgainstReferences:
    """The word search against trace sets built from run enumeration."""

    @pytest.mark.parametrize("rel", sorted(REFERENCES))
    @given(st.one_of(pointed_pairs(), near_copies()), st.integers(min_value=0, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_verdict_and_least_shortest_witness(self, rel, pair, k):
        a, b = pair
        verdict = check_trace_relation(rel, a, b, k)
        difference = REFERENCES[rel](a, b, k)
        assert verdict.holds == (not difference)
        if difference:
            least = min(difference, key=trace_key)
            assert (verdict.witness, verdict.witness_side) == (least, difference[least])

    # each case reaches a rule that small random pairs seldom do
    @pytest.mark.parametrize(
        "rel, left, right, k, expected",
        [
            pytest.param(
                # "a a" is missing on the right at length 2, but "b" ends
                # terminal on the left only at length 1
                "cltr",
                pointed({"a": [("x0", "x1"), ("x1", "x3")], "b": [("x0", "x2")]}, "x0"),
                pointed({"a": [("y0", "y1"), ("y2", "y1")], "b": [("y0", "y2")]}, "y0"),
                2,
                "{} -b-> {} !  (only left)",
                id="cltr-shortest-across-kinds",
            ),
            pytest.param(
                # two failing words of length 2, built in the other order
                "ltr",
                pointed({"a": [("r", "s"), ("r", "t"), ("t", "v")], "b": [("s", "u")]},
                        "r", p=("t",)),
                pointed({"a": [("q", "x"), ("q", "y")], "b": []}, "q", p=("y",)),
                2,
                "{} -a-> {p} -a-> {}  (only left)",
                id="least-of-one-length",
            ),
            pytest.param(
                # "a b" and "a {p} a" end in the same states on both sides;
                # the lesser must be kept for the failing "c" after it
                "ltr",
                pointed({"a": [("r", "s"), ("r", "t"), ("t", "u")], "b": [("s", "u")],
                         "c": [("u", "v")]}, "r", p=("t",)),
                pointed({"a": [("q", "x"), ("q", "y"), ("y", "w")], "b": [("x", "w")],
                         "c": []}, "q", p=("y",)),
                3,
                "{} -a-> {p} -a-> {} -c-> {}  (only left)",
                id="lesser-of-same-ends",
            ),
            pytest.param(
                # terminality at depth k is not observed at bound k
                "cltr", fix3(), fix4(), 1, None, id="cltr-terminal-at-bound",
            ),
            pytest.param(
                # two runs into one state count twice
                "gltr",
                pointed({"a": [("r", "x"), ("r", "y"), ("x", "z"), ("y", "z")]}, "r"),
                pointed({"a": [("q", "x"), ("q", "y"), ("x", "z"), ("y", "w")]}, "q"),
                2,
                None,
                id="gltr-merged-runs",
            ),
        ],
    )
    def test_fixed_case(self, rel, left, right, k, expected):
        assert check_trace_relation(rel, left, right, k).render_witness() == expected
