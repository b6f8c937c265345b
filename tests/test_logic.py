import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linspect.fixtures import fix1, fix2, fix3, fix4, fix5
from linspect.logic import (
    DEADLOCK,
    And,
    Box,
    Deadlock,
    Dia,
    FF,
    Falsum,
    FormulaSyntaxError,
    GDia,
    NegProp,
    Or,
    Prop,
    SYNTH_FRAGMENTS,
    TT,
    Verum,
    UnknownSymbol,
    classify,
    conj,
    eval_formula,
    exact_count,
    modal_depth,
    parse_formula,
    render_formula,
    synth_characteristic,
    synth_distinguishing,
    synth_trace_formula,
    truth_vectors,
    _NODES,
    _graded_candidates,
)
from linspect.oracle import _enumerate_deadlock_formulas, gen_pointed, suite_signature
from linspect.structures import PointedStructure, Signature, Structure
from linspect.traces import (
    Run, ReadyTrace, check_trace_relation, enumerate_runs, maximal_runs, runs_upto, trace_of
)
from linspect.unravel import as_pointed, ml_unravel

from conftest import pointed_pairs, pointed_structures
from helpers import iter_subformulas, synth_ready_formula


formulas = st.deferred(
    lambda: st.one_of(
        st.just(TT),
        st.just(FF),
        st.just(DEADLOCK),
        st.sampled_from([Prop("p"), Prop("q"), NegProp("p"), NegProp("q")]),
        st.builds(Dia, st.sampled_from(["a", "b"]), formulas),
        st.builds(Box, st.sampled_from(["a", "b"]), formulas),
        st.builds(
            GDia,
            st.sampled_from([">=", "<="]),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["a", "b"]),
            formulas,
        ),
        st.lists(formulas, min_size=2, max_size=3).map(lambda fs: And(tuple(fs))),
        st.lists(formulas, min_size=2, max_size=3).map(lambda fs: Or(tuple(fs))),
    )
)


class TestGrammar:
    def test_examples(self):
        assert parse_formula("(dia a tt)") == Dia("a", TT)
        assert parse_formula("(and p (not q))") == And((Prop("p"), NegProp("q")))
        assert parse_formula("(gdia >= 2 a (deadlock))") == GDia(">=", 2, "a", DEADLOCK)

    def test_syntax_error_has_location(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(dia a")
        assert "token" in str(err.value)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(frob x)")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("tt tt")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(box ( p)", "expected an action, found '(' (at token 2)"),
            ("(dia ) tt)", "expected an action, found ')' (at token 2)"),
            ("(not ()", "expected a proposition, found '(' (at token 2)"),
            ("(not ))", "expected a proposition, found ')' (at token 2)"),
            ("(gdia ( 1 a tt)", "expected a comparator, found '(' (at token 2)"),
            ("(gdia >= 1 ) tt)", "expected an action, found ')' (at token 4)"),
        ],
        ids=["box-action", "dia-action", "not-open", "not-close", "gdia-comparator", "gdia-action"],
    )
    def test_parenthesis_is_no_name(self, text, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(gdia > 1 a tt)", "expected a comparator, found '>' (at token 2)"),
            ("(gdia = 1 a tt)", "expected a comparator, found '=' (at token 2)"),
            ("(and p (gdia 1 1 a tt))", "expected a comparator, found '1' (at token 5)"),
        ],
        ids=["greater", "equal", "nested-count"],
    )
    def test_graded_comparator_is_checked(self, text, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert str(err.value) == message

    @given(formulas)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, f):
        assert parse_formula(render_formula(f)) == f


class TestFormulaNodes:
    @given(formulas)
    @settings(max_examples=150, deadline=None)
    def test_equal_formulas_hash_equal(self, f):
        # f has its text cached, the copy is hashed before it is rendered
        g = parse_formula(render_formula(f))
        assert g == f and hash(g) == hash(f) and {f, g} == {f}

    def test_equal_text_distinct_nodes(self):
        assert render_formula(Prop("tt")) == render_formula(TT)
        assert Prop("tt") != TT and len({Prop("tt"), TT}) == 2
        assert len({Prop("ff"), FF, Dia("a", Prop("tt")), Dia("a", TT)}) == 4

    def test_deadlock_fragment_round_trip(self):
        fs = _enumerate_deadlock_formulas(2, ("p", "q"), ("a", "b"))
        assert len(fs) == len(set(fs)) == 23994
        for f in fs:
            assert parse_formula(render_formula(f)) == f

    def test_subformulas_of_deep_chain(self):
        chain = Prop("p")
        for _ in range(5000):
            chain = Dia("a", chain)
        nodes = list(iter_subformulas(chain))
        assert len(nodes) == 5001
        assert all(g.body is h for g, h in zip(nodes, nodes[1:]))

    def test_render_deeper_than_recursion_limit(self):
        # every node keeps its text, so a chain costs quadratic memory: keep it short
        chain = Prop("p")
        for _ in range(1500):
            chain = Dia("a", chain)
        assert render_formula(chain) == "(dia a " * 1500 + "p" + ")" * 1500
        assert render_formula(chain.body.body).startswith("(dia a " * 1498 + "p)")

    def test_subformulas_in_pre_order(self):
        f = parse_formula("(and p (dia a (or q (not p))) (gdia >= 2 b tt))")
        assert [render_formula(g) for g in iter_subformulas(f)] == [
            render_formula(f), "p", "(dia a (or q (not p)))", "(or q (not p))",
            "q", "(not p)", "(gdia >= 2 b tt)", "tt",
        ]


def _eval_at(f, p, w):
    """Reference evaluator: the Kripke clauses read literally, by recursion."""
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


def _first_unknown(f, signature):
    """Reference symbol check: the first unknown symbol in pre-order, reached
    or not, as the message evaluation must raise; None when all are known."""
    for g in iter_subformulas(f):
        if isinstance(g, (Prop, NegProp)) and g.name not in signature.propositions:
            return f"unknown proposition {g.name!r}"
        if isinstance(g, (Dia, Box, GDia)) and g.action not in signature.actions:
            return f"unknown action {g.action!r}"
    return None


def _every_point(ps):
    """Each structure pointed at each of its elements, bases shared."""
    return [PointedStructure(p.base, e) for p in ps for e in p.base.universe]


def _chain(n):
    """s0 -a-> s1 -a-> ... -a-> sn, with p at sn only."""
    sig = Signature((("p", 1), ("a", 2)), modal=True)
    states = tuple(f"s{i}" for i in range(n + 1))
    edges = {(states[i], states[i + 1]) for i in range(n)}
    return Structure(sig, states, {"p": {(states[-1],)}, "a": edges})


class TestInterning:
    def test_equal_formulas_are_one_node(self):
        f = And((Prop("p"), Dia("a", GDia(">=", 2, "b", DEADLOCK))))
        g = And((Prop("p"), Dia("a", GDia(">=", 2, "b", DEADLOCK))))
        assert f is g
        assert parse_formula(render_formula(f)) is f

    def test_constants_are_not_propositions(self):
        assert Prop("tt") is not TT and Prop("ff") is not FF
        assert Verum() is TT and Falsum() is FF and Deadlock() is DEADLOCK

    def test_invalid_graded_diamond_is_not_stored(self):
        for cmp, count in ((">", 1), (">=", -1)):
            with pytest.raises(ValueError):
                GDia(cmp, count, "a", TT)
            assert (GDia, cmp, count, "a", TT) not in _NODES

    def test_unreferenced_nodes_leave_the_table(self):
        f = Dia("a", Prop("interning-probe"))
        ref = weakref.ref(f)
        assert (Prop, "interning-probe") in _NODES
        del f
        gc.collect()
        # the Dia entry's key holds the Prop, so the Prop going shows both went
        assert ref() is None and (Prop, "interning-probe") not in _NODES

    def test_hashing_a_deep_chain_renders_nothing(self):
        # a fresh name: interned nodes other tests rendered keep their text
        chain = Prop("hash-probe")
        for _ in range(5000):
            chain = Dia("a", chain)
        assert {chain: 1}[Dia("a", chain.body)] == 1
        assert not any(hasattr(g, "_text") for g in iter_subformulas(chain))

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Prop("p").name = "q"


class TestEvaluators:
    @given(
        st.lists(formulas, min_size=1, max_size=4),
        st.lists(pointed_structures(max_size=4, n_props=2), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_and_local_agree_with_reference(self, fs, ps, k):
        structures = _every_point(ps + [as_pointed(ml_unravel(p, k)[0]) for p in ps])
        for f, vector in zip(fs, truth_vectors(fs, structures)):
            want = tuple(_eval_at(f, p, p.point) for p in structures)
            assert vector == want
            assert tuple(eval_formula(f, p) for p in structures) == want

    @given(
        st.lists(formulas, min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
                lambda n: pointed_structures(max_size=3, n_props=n[0], n_actions=n[1])
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_unknown_symbols_raise_the_reference_message(self, fs, ps):
        # the formulas use p, q, a and b; some signatures lack q or b
        want = next(
            (msg for f in fs for p in ps if (msg := _first_unknown(f, p.signature))),
            None,
        )
        if want is None:
            truth_vectors(fs, ps)
            return
        with pytest.raises(UnknownSymbol) as batch:
            truth_vectors(fs, ps)
        assert batch.value.args == (want,)
        f, p = next((f, p) for f in fs for p in ps if _first_unknown(f, p.signature))
        with pytest.raises(UnknownSymbol) as local:
            eval_formula(f, p)
        assert local.value.args == (want,)

    def test_unknown_symbol_under_unreachable_diamond(self):
        terminal = PointedStructure(Structure(fix4().signature, ("z",), {}), "z")
        for bad, msg in ((Prop("zz"), "unknown proposition 'zz'"), (Dia("zz", TT), "unknown action 'zz'")):
            f = Or((TT, Dia("a", And((FF, bad)))))
            for run in (lambda: eval_formula(f, terminal), lambda: truth_vectors([TT, f], [terminal])):
                with pytest.raises(UnknownSymbol) as err:
                    run()
                assert err.value.args == (msg,)

    def test_deep_chain_without_recursion(self):
        s = _chain(3000)
        chain = Prop("p")
        for _ in range(3000):
            chain = Dia("a", chain)
        boxes = Prop("p")
        for _ in range(3000):
            boxes = Box("a", boxes)
        start, next_ = PointedStructure(s, "s0"), PointedStructure(s, "s1")
        assert eval_formula(chain, start) and not eval_formula(chain, next_)
        # from s1 the boxes run past the terminal state and hold vacuously
        assert eval_formula(boxes, start) and eval_formula(boxes, next_)
        assert not eval_formula(boxes.body, start) and eval_formula(boxes.body, next_)
        # the batch pass computes every state, which for the boxes costs depth x states
        assert truth_vectors([chain, chain.body], [start, next_]) == [(True, False), (False, True)]


    def test_repr_of_a_deep_chain(self):
        boxes = Prop("p")
        for _ in range(3000):
            boxes = Box("a", boxes)
        assert repr(boxes) == "Box(action='a', body=" * 3000 + "Prop(name='p')" + ")" * 3000
        f = And((Or((NegProp("q"),)), GDia(">=", 2, "b", TT), Or(())))
        assert repr(f) == (
            "And(items=(Or(items=(NegProp(name='q'),)), "
            "GDia(cmp='>=', count=2, action='b', body=Verum()), Or(items=())))"
        )


class TestEval:
    def test_deadlock_on_terminal(self):
        p = PointedStructure(Structure(fix4().signature, ("z",), {}), "z")
        assert eval_formula(DEADLOCK, p)
        assert not eval_formula(DEADLOCK, fix4())

    def test_one_step(self):
        assert eval_formula(parse_formula("(dia a q)"), fix5())
        assert not eval_formula(parse_formula("(dia a p)"), fix5())

    def test_deadlock_witness_pair(self):
        f = parse_formula("(dia a (deadlock))")
        assert eval_formula(f, fix3())
        assert not eval_formula(f, fix4())

    def test_graded(self):
        assert eval_formula(parse_formula("(gdia >= 2 a tt)"), fix2())
        assert not eval_formula(parse_formula("(gdia >= 2 a tt)"), fix1())
        assert eval_formula(parse_formula("(gdia <= 1 a tt)"), fix1())

    def test_box(self):
        assert eval_formula(parse_formula("(box a (dia b tt))"), fix4())
        assert not eval_formula(parse_formula("(box a (deadlock))"), fix3())

    def test_unknown_symbols(self):
        with pytest.raises(UnknownSymbol):
            eval_formula(parse_formula("(dia zz tt)"), fix4())
        with pytest.raises(UnknownSymbol):
            eval_formula(Prop("nope"), fix5())


class TestClassify:
    def test_diamond_pos(self):
        run = runs_upto(fix5(), 1)[-1]
        f = synth_trace_formula(fix5(), run, "DiamondPos")
        assert "DiamondPos" in classify(f).tags

    def test_nested_box_not_linear(self):
        f = parse_formula("(dia a (box a (dia a p)))")
        result = classify(f)
        assert "Linear" not in result.tags
        assert result.depth == 3

    def test_ready_translation_linear(self):
        rt = ReadyTrace(
            (frozenset({"a"}), frozenset({"b", "c"}), frozenset()), ("a", "b")
        )
        f = synth_ready_formula(rt, actions=("a", "b", "c"))
        assert "Linear" in classify(f).tags

    def test_deadlock_depth_one(self):
        assert classify(DEADLOCK).depth == 1
        assert modal_depth(parse_formula("(dia a (deadlock))")) == 2

    def test_fragment_tags(self):
        assert "Diamond" in classify(parse_formula("(and p (not q))")).tags
        assert "Diamond" not in classify(parse_formula("(box a p)")).tags
        assert "Graded" in classify(parse_formula("(gdia <= 1 a p)")).tags
        assert "DeadlockDiamond" in classify(parse_formula("(deadlock)")).tags
        assert "DiamondPos" not in classify(parse_formula("(not p)")).tags

    def test_verum_bodied_conjuncts_stay_linear(self):
        f = parse_formula("(and (dia a tt) (dia b tt) (dia a (dia b tt)))")
        assert "Linear" in classify(f).tags
        g = parse_formula("(and (dia a p) (dia b tt) (dia a (dia b tt)))")
        assert "Linear" not in classify(g).tags


class TestSynthTrace:
    def test_base_case_literals(self):
        run = Run(("e0",), ())
        assert synth_trace_formula(fix5(), run, "DiamondPos") == Prop("p")

    def test_diamond_forward_orientation(self):
        run = Run(("e0", "e1"), ("a",))
        f = synth_trace_formula(fix5(), run, "Diamond")
        expected = conj(
            [Prop("p"), NegProp("q"), Dia("a", conj([Prop("q"), NegProp("p")]))]
        )
        assert f == expected
        assert eval_formula(f, fix5())

    def test_complete_run_deadlock(self):
        run = Run(("d0", "d1", "d2"), ("a", "b"))
        f = synth_trace_formula(fix4(), run, "DeadlockDiamond")
        assert f == Dia("a", Dia("b", DEADLOCK))
        assert eval_formula(f, fix4())
        assert eval_formula(f, fix3())

    def test_bad_fragment(self):
        with pytest.raises(ValueError):
            synth_trace_formula(fix4(), Run(("d0",), ()), "ML")

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_self_satisfaction(self, p, k):
        for run in runs_upto(p, k):
            for fragment in ("DiamondPos", "Diamond", "DeadlockDiamond", "Graded"):
                assert eval_formula(synth_trace_formula(p, run, fragment), p)

    @given(pointed_structures(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_depth_equals_run_length(self, p, k):
        for run in runs_upto(p, k):
            for fragment in ("DiamondPos", "Diamond", "Graded"):
                f = synth_trace_formula(p, run, fragment)
                assert modal_depth(f) == len(run)
            f = synth_trace_formula(p, run, "DeadlockDiamond")
            # a terminal endpoint carries the depth-1 deadlock marker
            expected = len(run) + (1 if p.base.is_terminal(run.last) else 0)
            assert modal_depth(f) == expected


class TestSynthCharacteristic:
    def test_isolated_point(self):
        p = PointedStructure(Structure(fix4().signature, ("z",), {}), "z")
        assert synth_characteristic(p, 2, "DeadlockDiamond") == DEADLOCK

    def test_fix4(self):
        f = synth_characteristic(fix4(), 2, "DeadlockDiamond")
        assert f == conj([Dia("a", TT), Dia("a", Dia("b", DEADLOCK))])

    @given(pointed_structures(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_self_satisfaction(self, p, k):
        for fragment in ("DiamondPos", "Diamond", "DeadlockDiamond", "Graded"):
            assert eval_formula(synth_characteristic(p, k, fragment), p)


class TestSynthReady:
    def test_singleton_ready_set(self):
        sig = Signature((("a", 2), ("b", 2)), modal=True)
        two = PointedStructure(
            Structure(sig, ("x", "y"), {"a": frozenset({("x", "y")})}), "x"
        )
        rt = ReadyTrace((frozenset({"a"}),), ())
        f = synth_ready_formula(rt, actions=("a", "b"))
        assert f == conj([Dia("a", TT), Box("b", FF)])
        assert eval_formula(f, two)

    def test_fix1_run(self):
        rt = ReadyTrace(
            (frozenset({"a"}), frozenset({"b", "c"}), frozenset()), ("a", "b")
        )
        f = synth_ready_formula(rt, actions=("a", "b", "c"))
        assert eval_formula(f, fix1())
        assert not eval_formula(f, fix4())

    def test_empty_tail_is_deadlock_clause(self):
        rt = ReadyTrace((frozenset(),), ())
        f = synth_ready_formula(rt, actions=("a", "b"))
        assert f == conj([Box("a", FF), Box("b", FF)])
        terminal = PointedStructure(Structure(fix4().signature, ("z",), {}), "z")
        assert eval_formula(
            synth_ready_formula(rt, actions=fix4().signature.actions), terminal
        )


class TestSynthDistinguishing:
    def test_equivalent(self):
        assert synth_distinguishing(fix4(), fix4(), 3, "DeadlockDiamond") is None

    def test_fix3_fix4_deadlock(self):
        f = synth_distinguishing(fix3(), fix4(), 2, "DeadlockDiamond")
        assert f == Dia("a", DEADLOCK)
        assert eval_formula(f, fix3()) and not eval_formula(f, fix4())

    def test_fix2_fix1_graded(self):
        f = synth_distinguishing(fix2(), fix1(), 1, "Graded")
        assert f == GDia(">=", 2, "a", TT)
        assert eval_formula(f, fix2()) and not eval_formula(f, fix1())

    @given(pointed_pairs(max_size=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_soundness(self, pair, k):
        a, b = pair
        for fragment, rel in (
            ("DiamondPos", "tr"),
            ("Diamond", "ltr"),
            ("DeadlockDiamond", "cltr"),
            ("Graded", "gltr"),
        ):
            f = synth_distinguishing(a, b, k, fragment)
            if rel in ("tr", "ltr"):
                fails = not (
                    check_trace_relation(rel, a, b, k).holds
                    and check_trace_relation(rel, b, a, k).holds
                )
            else:
                fails = not check_trace_relation(rel, a, b, k).holds
            assert (f is not None) == fails
            if f is not None:
                assert fragment in classify(f).tags
                assert modal_depth(f) <= k
                assert eval_formula(f, a) != eval_formula(f, b)


def _ref_trace_formula(p, run, fragment):
    """Reference trace formula: literals, then one modality per transition,
    graded counts by the reference evaluator at each successor."""
    negated = fragment != "DiamondPos"
    body = TT
    for i in range(len(run), -1, -1):
        w = run.states[i]
        val = p.base.valuation(w)
        items = [Prop(x) for x in sorted(val)]
        if negated:
            items += [NegProp(x) for x in sorted(set(p.signature.propositions) - val)]
        if i == len(run):
            if fragment == "DeadlockDiamond" and p.base.is_terminal(w):
                items.append(DEADLOCK)
        elif fragment == "Graded":
            m = sum(1 for v in p.base.successors(w, run.actions[i]) if _eval_at(body, p, v))
            items.append(exact_count(run.actions[i], m, body))
        else:
            items.append(Dia(run.actions[i], body))
        body = conj(items)
    return body


def _ref_graded_candidates(p, runs, k):
    """Reference graded candidates: every variant of every run built anew."""
    for run in runs:
        yield _ref_trace_formula(p, run, "Graded")
        yield _ref_trace_formula(p, run, "Diamond")
        end = run.states[-1]
        end_profiles = [[]]
        if len(run) < k:
            end_profiles.append(
                [exact_count(g, len(p.base.successors(end, g)), TT) for g in p.signature.actions]
            )
        for extra in end_profiles:
            for graded_levels in range(len(run) + 1):
                for mode in ("=", ">=", "<="):
                    body = TT
                    for i in range(len(run), -1, -1):
                        w = run.states[i]
                        val = p.base.valuation(w)
                        items = [Prop(x) for x in sorted(val)]
                        items += [NegProp(x) for x in sorted(set(p.signature.propositions) - val)]
                        if i == len(run):
                            items.extend(extra)
                        elif i < graded_levels:
                            m = len(p.base.successors(w, run.actions[i]))
                            if mode == "=":
                                items.append(exact_count(run.actions[i], m, body))
                            else:
                                items.append(GDia(mode, m, run.actions[i], body))
                        else:
                            items.append(Dia(run.actions[i], body))
                        body = conj(items)
                    yield body


def _ref_synth_distinguishing(a, b, k, fragment):
    """Reference selection: candidates from the witness's runs (and, for
    Graded, from every run of either side up to k), deduplicated by text,
    sorted by (length, text), cut to depth k and evaluated one at a time;
    the first that separates the pair and holds on the witness side wins,
    else the first that separates it."""
    rel = {"DiamondPos": "tr", "Diamond": "ltr", "DeadlockDiamond": "cltr", "Graded": "gltr"}[fragment]
    if rel in ("tr", "ltr"):
        failing = [
            (side, v)
            for side, v in (
                ("left", check_trace_relation(rel, a, b, k)),
                ("right", check_trace_relation(rel, b, a, k)),
            )
            if not v.holds
        ]
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
    witness_runs = [
        r for r in enumerate_runs(holder, len(witness))
        if trace_of(holder, r).dropped() == witness.dropped()
    ]
    candidates = []
    if fragment == "Graded":
        candidates.extend(_ref_graded_candidates(holder, witness_runs, k))
        candidates.extend(_ref_graded_candidates(holder, runs_upto(holder, k), k))
        candidates.extend(_ref_graded_candidates(other, runs_upto(other, k), k))
    else:
        for run in witness_runs:
            if witness.complete and not holder.base.is_terminal(run.last):
                continue
            if fragment == "DeadlockDiamond" and not witness.complete:
                candidates.append(_ref_trace_formula(holder, run, "Diamond"))
            else:
                candidates.append(_ref_trace_formula(holder, run, fragment))
    by_text = {}
    for f in candidates:
        by_text.setdefault(render_formula(f), f)
    fallback = None
    for text in sorted(by_text, key=lambda t: (len(t), t)):
        f = by_text[text]
        if modal_depth(f) > k:
            continue
        va, vb = _eval_at(f, a, a.point), _eval_at(f, b, b.point)
        if va != vb:
            if (va if side == "left" else vb):
                return f
            if fallback is None:
                fallback = f
    assert fallback is not None, "a failed relation always has a separating candidate"
    return fallback


@st.composite
def synthesis_pairs(draw):
    """Pairs of sizes 2-5 with 1-2 propositions: two independent draws, or a
    structure and a copy with one proposition or edge toggled, so that pairs
    far apart and pairs that differ late are both drawn."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    size = draw(st.integers(min_value=2, max_value=5))
    sig = suite_signature(n_props=draw(st.integers(min_value=1, max_value=2)))
    rng = random.Random(seed)
    a = gen_pointed(sig, size, rng)
    if draw(st.booleans()):
        return a, gen_pointed(sig, size, rng)
    interp = {name: set(tuples) for name, tuples in a.base.interp.items()}
    name, arity = rng.choice(sig.relations)
    interp[name] ^= {tuple(rng.choice(a.base.universe) for _ in range(arity))}
    return a, PointedStructure(Structure(sig, a.base.universe, interp), a.point)


class TestSynthDistinguishingAgreesWithReference:
    @given(synthesis_pairs())
    @settings(max_examples=60, deadline=None)
    def test_same_node_for_every_fragment(self, pair):
        a, b = pair
        for fragment in ("DiamondPos", "Diamond", "DeadlockDiamond", "Graded"):
            for k in (0, 1, 2, 3):
                for x, y in ((a, b), (b, a)):
                    assert synth_distinguishing(x, y, k, fragment) is _ref_synth_distinguishing(
                        x, y, k, fragment
                    ), (fragment, k)

    def test_two_points_of_one_structure(self):
        # the union model counts the shared base once, at one offset
        sig = suite_signature(n_props=2)
        s = gen_pointed(sig, 5, random.Random(7)).base
        pairs = [(PointedStructure(s, x), PointedStructure(s, y)) for x in s.universe for y in s.universe]
        separated = 0
        for fragment in ("DiamondPos", "Diamond", "DeadlockDiamond", "Graded"):
            for k in (0, 1, 2, 3):
                for a, b in pairs:
                    f = synth_distinguishing(a, b, k, fragment)
                    assert f is _ref_synth_distinguishing(a, b, k, fragment), (fragment, k, a.point, b.point)
                    separated += f is not None
        assert separated > 0


def explain_pair(rng: random.Random, n: int) -> tuple[PointedStructure, PointedStructure]:
    """A pair the size of the benchmark's ``explain`` pairs, drawn until gltr
    fails at k 2: n states, two propositions, each state with 0, 1, 1 or 2
    successors per action and 14-18 maximal runs at k 3, and a copy with one
    proposition or edge toggled."""
    sig = suite_signature(n_props=2)
    universe = tuple(f"e{i}" for i in range(n))
    while True:
        interp = {x: {(e,) for e in universe if rng.random() < 0.5} for x in ("p", "q")}
        for act in ("a", "b"):
            interp[act] = {
                (e, t) for e in universe
                for t in rng.sample([u for u in universe if u != e], rng.choice((0, 1, 1, 2)))
            }
        name, arity = rng.choice(sig.relations)
        x = rng.choice(universe)
        toggled = (x,) if arity == 1 else (x, rng.choice([u for u in universe if u != x]))
        a = PointedStructure(Structure(sig, universe, interp), universe[0])
        b = PointedStructure(Structure(sig, universe, {**interp, name: interp[name] ^ {toggled}}), universe[0])
        if 14 <= len(maximal_runs(a, 3)) <= 18 and not check_trace_relation("gltr", a, b, 2).holds:
            return a, b


class TestGradedBound:
    """Graded synthesis skips the candidates longer than a holder-separating
    one found before them; the printed formula is the reference's."""

    def test_tie_found_after_the_bound_is_kept(self):
        # b's runs e0 -a-> e1 and e0 -a-> e2 give two separating chains of
        # one length; the second, visited after the first has set the bound,
        # has the lesser text and must be printed
        sig = suite_signature(n_props=2)
        a = PointedStructure(Structure(sig, ("e0",), {"p": set(), "q": set(), "a": set(), "b": set()}), "e0")
        b = PointedStructure(
            Structure(sig, ("e0", "e1", "e2"),
                      {"p": {("e1",)}, "q": {("e2",)}, "a": {("e0", "e1"), ("e0", "e2")}, "b": set()}),
            "e0",
        )
        first = "(and (dia a (and (not q) p)) (not p) (not q))"
        for x, y in ((a, b), (b, a)):
            for k in (1, 2):
                f = synth_distinguishing(x, y, k, "Graded")
                assert f is _ref_synth_distinguishing(x, y, k, "Graded")
                assert render_formula(f) == "(and (dia a (and (not p) q)) (not p) (not q))"
                assert len(render_formula(f)) == len(first) and render_formula(f) < first

    def test_explain_sized_pairs_agree_with_reference(self):
        rng = random.Random(25)
        for i in range(10):
            a, b = explain_pair(rng, 5 + i % 4)
            for k in (2, 3):
                for x, y in ((a, b), (b, a)):
                    f = synth_distinguishing(x, y, k, "Graded")
                    assert f is not None
                    assert f is _ref_synth_distinguishing(x, y, k, "Graded"), (i, k)


class TestTraceFormulasAgreeWithReference:
    """``synth_trace_formula`` and ``synth_characteristic`` return the very
    nodes that the reference builds, for every fragment."""

    @given(synthesis_pairs())
    @settings(max_examples=40, deadline=None)
    def test_same_node_for_every_fragment(self, pair):
        for p in pair:
            runs = runs_upto(p, 3)
            for fragment in SYNTH_FRAGMENTS:
                expected = [_ref_trace_formula(p, run, fragment) for run in runs]
                for run, f in zip(runs, expected):
                    assert synth_trace_formula(p, run, fragment) is f, (fragment, run)
                for k in (0, 1, 2, 3):
                    upto = [f for run, f in zip(runs, expected) if len(run) <= k]
                    assert synth_characteristic(p, k, fragment) is conj(upto), (fragment, k)


class TestPlan:
    """Each id of a formula plan names the node it builds: the node's text
    length, modal depth and values at the two points are the ones the plan
    computed without it.  The plan holds the graded candidates and then the
    trace ids of every fragment, which bring in positive-only literals and
    the deadlock recipe."""

    @given(synthesis_pairs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_every_id_matches_its_node(self, pair, k):
        a, b = pair
        plan, roots = _graded_candidates([a, b], k)
        assert set(roots) <= set(range(len(plan.recipe)))
        for j, p in enumerate(pair):
            for run in runs_upto(p, k):
                for fragment in SYNTH_FRAGMENTS:
                    plan.trace(j, run, fragment)
        nodes = [plan.node(i) for i in range(len(plan.recipe))]
        at_a, at_b = plan.model.points
        for i, (node, values) in enumerate(zip(nodes, truth_vectors(nodes, [a, b]))):
            assert len(render_formula(node)) == plan.length[i], plan.recipe[i]
            assert modal_depth(node) == plan.depth[i], plan.recipe[i]
            assert values == (bool(plan.mask[i] >> at_a & 1), bool(plan.mask[i] >> at_b & 1)), plan.recipe[i]


class TestPreservation:
    @given(pointed_pairs(max_size=3), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_trace_inclusion_preserves_positive_spines(self, pair, k):
        a, b = pair
        if check_trace_relation("tr", a, b, k).holds:
            for run in runs_upto(a, k):
                assert eval_formula(synth_trace_formula(a, run, "DiamondPos"), b)

    @given(pointed_pairs(max_size=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_complete_trace_equivalence_preserves_deadlock_spines(self, pair, k):
        a, b = pair
        if check_trace_relation("cltr", a, b, k).holds:
            for x, y in ((a, b), (b, a)):
                for run in runs_upto(x, k):
                    f = synth_trace_formula(x, run, "DeadlockDiamond")
                    if modal_depth(f) <= k:
                        assert eval_formula(f, y)
