"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them) and
asserts the criterion at its stated tolerance.  Every tolerance is exact
(counts of agreeing samples out of the stated totals); the runtime budgets are
asserted where stated.
"""

import random
import time

from linspect.fixtures import fix1, fix2
from linspect.games import solve_bisim
from linspect.logic import classify, eval_formula, synth_distinguishing
from linspect.oracle import (
    gen_pointed,
    pointed_iso,
    run_suite,
    suite_signature,
)
from linspect.traces import check_trace_relation
from linspect.unravel import as_pointed, ml_unravel

from helpers import branch_label_multiset


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} ({label}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_triple_agreement():
    started = time.time()
    rep = run_suite("thm61", size=4, k=3, samples=200, seed=1)
    elapsed = time.time() - started
    ok = rep.fail == 0 and rep.agree == 200 and elapsed < 300
    report(1, "three-way agreement on all four relation levels", ok,
           f"agree {rep.agree}/200 in {elapsed:.1f}s")


def test_criterion_2_branching_implies_linear():
    total_agree = 0
    total = 0
    for k, samples in ((1, 167), (2, 167), (3, 167)):
        rep = run_suite("thm48", size=4, k=k, samples=samples, seed=100 + k)
        total_agree += rep.agree
        total += rep.samples
    nonvacuous = (
        not solve_bisim(fix1(), fix2(), 2).duplicator_wins
        and check_trace_relation("cltr", fix1(), fix2(), 2).holds
    )
    ok = total_agree == total == 501 and nonvacuous
    report(2, "branching relations imply linear relations", ok,
           f"agree {total_agree}/{total}, fixture pair non-vacuous={nonvacuous}")


def test_criterion_3_pebble_game_equivalence():
    started = time.time()
    rep = run_suite("thm54", size=3, k=2, samples=50, seed=2, length=4)
    elapsed = time.time() - started
    ok = rep.fail == 0 and rep.agree == 50 and elapsed < 600
    report(3, "all-in-one pebble game equals the back-and-forth game", ok,
           f"agree {rep.agree}/50 in {elapsed:.1f}s")


def test_criterion_4_window_isomorphism():
    agree = 0
    for k, samples, seed in ((1, 34, 400), (2, 34, 500), (3, 34, 600)):
        rep = run_suite("prop85", size=3, k=k, samples=samples, seed=seed)
        agree += rep.agree
    ok = agree == 102
    report(4, "radius-k window of the graft is the unraveling", ok, f"{agree}/102")


def test_criterion_5_graft_companion():
    agree = 0
    for k, samples, seed in ((1, 34, 700), (2, 34, 800), (3, 34, 900)):
        rep = run_suite("prop84", size=3, k=k, samples=samples, seed=seed)
        agree += rep.agree
    ok = agree == 102
    report(5, "graft is complete-trace equivalent to its source (exact)", ok,
           f"{agree}/102")


def test_criterion_6_workspace_games():
    started = time.time()
    agree = 0
    for r, samples, seed in ((1, 10, 20), (2, 10, 30)):
        rep = run_suite("lemma83", size=3, k=r, samples=samples, seed=seed)
        agree += rep.agree
    elapsed = time.time() - started
    ok = agree == 20 and elapsed < 900
    report(6, "workspace padding wins the rank-r element game", ok,
           f"{agree}/20 in {elapsed:.1f}s")


FRAGMENT_RELATIONS = (
    ("DiamondPos", "tr"),
    ("Diamond", "ltr"),
    ("DeadlockDiamond", "cltr"),
    ("Graded", "gltr"),
)


def relation_fails(rel, a, b, k) -> bool:
    if rel in ("tr", "ltr"):
        return not (
            check_trace_relation(rel, a, b, k).holds
            and check_trace_relation(rel, b, a, k).holds
        )
    return not check_trace_relation(rel, a, b, k).holds


def test_criterion_7_distinguishing_soundness():
    sig = suite_signature(n_props=1, n_actions=2)
    checked = failures = 0
    for i in range(500):
        rng = random.Random(1000 + i)
        a = gen_pointed(sig, 3, rng)
        b = gen_pointed(sig, 3, rng)
        k = 1 + i % 3
        for fragment, rel in FRAGMENT_RELATIONS:
            checked += 1
            formula = synth_distinguishing(a, b, k, fragment)
            fails = relation_fails(rel, a, b, k)
            if (formula is not None) != fails:
                failures += 1
                continue
            if formula is not None:
                va, vb = eval_formula(formula, a), eval_formula(formula, b)
                if va == vb or fragment not in classify(formula).tags:
                    failures += 1
    ok = failures == 0 and checked == 2000
    report(7, "relation failure iff a fragment formula separates the pair", ok,
           f"{checked - failures}/{checked} pair-fragment checks")


def test_criterion_8_idempotence():
    sig = suite_signature(n_props=1, n_actions=2)
    agree = 0
    for i in range(100):
        rng = random.Random(2000 + i)
        p = gen_pointed(sig, 4, rng)
        k = 1 + i % 3
        once, _ = ml_unravel(p, k)
        twice, _ = ml_unravel(as_pointed(once), k)
        if branch_label_multiset(once) == branch_label_multiset(twice) and pointed_iso(
            as_pointed(once), as_pointed(twice)
        ):
            agree += 1
    ok = agree == 100
    report(8, "unraveling the unraveling is the unraveling", ok, f"{agree}/100")


def test_criterion_9_bounded_exact_coherence():
    sig = suite_signature(n_props=1, n_actions=2)
    agree = 0
    for i in range(100):
        rng = random.Random(3000 + i)
        a = gen_pointed(sig, 3, rng)
        b = gen_pointed(sig, 3, rng)
        bound = len(a.base.universe) * len(b.base.universe)
        bounded = check_trace_relation("cltr", a, b, bound).holds
        exact = check_trace_relation("cltr", a, b, "exact").holds
        agree += bounded == exact
    ok = agree == 100
    report(9, "bounded verdict at the product bound equals the exact verdict", ok,
           f"{agree}/100")


def test_criterion_10_positive_rewriting():
    rep = run_suite("cor74", size=3, k=2, samples=60, seed=4)
    refused = False
    try:
        run_suite("cor74", size=4, k=2, samples=5, seed=4)
    except ValueError:
        refused = True
    ok = rep.fail == 0 and refused
    report(10, "inclusion-invariant deadlock sentences rewrite positively", ok,
           f"agree {rep.agree}/{rep.samples}, refusal outside budget={refused}")
