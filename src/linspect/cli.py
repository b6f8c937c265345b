"""Command-line front end.

Exit-code contract: 0 = true/ok, 1 = false, 2 = error.  Every command is
deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .games import solve_back_and_forth, solve_bisim, solve_ef, solve_ppeb
from .logic import eval_formula, parse_formula, render_formula, synth_distinguishing
from .oracle import SUITES, run_suite
from .structures import dump_structure, load_pointed, load_structure
from .traces import check_trace_relation
from .unravel import (
    forest_to_dict,
    forest_from_dict,
    ml_graft,
    ml_unravel,
    pr_unravel,
    tree_unravel,
)

TRUE, FALSE, ERROR = 0, 1, 2

FRAGMENTS = {
    "pos": "DiamondPos",
    "diamondpos": "DiamondPos",
    "diamond": "Diamond",
    "neg": "Diamond",
    "bot": "DeadlockDiamond",
    "deadlock": "DeadlockDiamond",
    "graded": "Graded",
}


def _cmd_check(args) -> int:
    a = load_pointed(args.fileA)
    b = load_pointed(args.fileB)
    if args.rel == "bisim":
        if args.exact:
            raise ValueError("bisim supports bounded mode only")
        result = solve_bisim(a, b, args.k)
        print("TRUE" if result.duplicator_wins else "FALSE")
        if not result.duplicator_wins:
            root = (a.point, b.point, args.k)
            print(f"spoiler: {(root, result.witness[root])}")
        return TRUE if result.duplicator_wins else FALSE
    bound = "exact" if args.exact else args.k
    verdict = check_trace_relation(args.rel, a, b, bound)
    print("TRUE" if verdict.holds else "FALSE")
    if not verdict.holds and verdict.witness is not None:
        print(verdict.render_witness())
    return TRUE if verdict.holds else FALSE


def _cmd_distinguish(args) -> int:
    a = load_pointed(args.fileA)
    b = load_pointed(args.fileB)
    fragment = FRAGMENTS[args.fragment.lower()]
    formula = synth_distinguishing(a, b, args.k, fragment)
    if formula is None:
        print("equivalent")
        return TRUE
    print(render_formula(formula))
    return FALSE


def _cmd_unravel(args) -> int:
    comonad = args.comonad.upper()
    if comonad == "PR":
        s, _ = load_structure(args.file)
        forest, _ = pr_unravel(s, args.k, args.len)
        print(json.dumps(forest_to_dict(forest), indent=2, sort_keys=True))
        return TRUE
    p = load_pointed(args.file)
    if comonad == "ML":
        forest, _ = ml_unravel(p, args.k)
        print(json.dumps(forest_to_dict(forest), indent=2, sort_keys=True))
    elif comonad == "TREE":
        print(json.dumps(forest_to_dict(tree_unravel(p, args.k)), indent=2, sort_keys=True))
    elif comonad == "GRAFT":
        grafted = ml_graft(p, args.k)
        print(dump_structure(grafted.base, grafted.point))
    else:
        raise ValueError(f"unknown comonad {args.comonad!r}")
    return TRUE


def _cmd_game(args) -> int:
    kind = args.type.lower()
    if kind == "bisim":
        a, b = load_pointed(args.fileA), load_pointed(args.fileB)
        result = solve_bisim(a, b, args.k)
    elif kind == "ef":
        a, pa = load_structure(args.fileA)
        b, pb = load_structure(args.fileB)
        ta = (pa,) if pa is not None else ()
        tb = (pb,) if pb is not None else ()
        result = solve_ef(a, b, args.r, ta, tb)
    elif kind == "ppeb":
        a, _ = load_structure(args.fileA)
        b, _ = load_structure(args.fileB)
        result = solve_ppeb(a, b, args.k, args.len)
    elif kind == "bf":
        data_a = json.load(open(args.fileA, encoding="utf-8"))
        data_b = json.load(open(args.fileB, encoding="utf-8"))
        result = solve_back_and_forth(
            forest_from_dict(data_a), forest_from_dict(data_b), args.variant
        )
    else:
        raise ValueError(f"unknown game type {args.type!r}")
    print(result.winner.upper())
    return TRUE if result.duplicator_wins else FALSE


def _cmd_eval(args) -> int:
    if args.formula_file:
        text = open(args.formula_file, encoding="utf-8").read()
    else:
        text = args.formula
    formula = parse_formula(text)
    p = load_pointed(args.file)
    value = eval_formula(formula, p)
    print("TRUE" if value else "FALSE")
    return TRUE if value else FALSE


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.size, args.k, args.samples, args.seed, args.len)
    print(report.render())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linspect",
        description="Decide behavioural relations between finite pointed structures "
        "and synthesize witnessing modal formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a behavioural relation between two files")
    p.add_argument("--rel", required=True,
                   choices=["tr", "ltr", "cltr", "gltr", "rt", "bisim"])
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--exact", action="store_true")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distinguish", help="synthesize a distinguishing formula")
    p.add_argument("--fragment", required=True, choices=sorted(FRAGMENTS))
    p.add_argument("-k", type=int, default=3)
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("unravel", help="emit an unraveling of a structure file")
    p.add_argument("--comonad", required=True, choices=["ML", "TREE", "PR", "GRAFT"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--len", type=int, default=4, help="play-length bound for PR")
    p.add_argument("file")
    p.set_defaults(func=_cmd_unravel)

    p = sub.add_parser("game", help="solve a game between two files")
    p.add_argument("--type", required=True, choices=["bf", "bisim", "ef", "ppeb"])
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--len", type=int, default=4)
    p.add_argument("--variant", default="full",
                   choices=["full", "existential", "existential_positive"])
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("eval", help="evaluate a formula on a pointed structure")
    p.add_argument("--formula")
    p.add_argument("--formula-file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--size", type=int, default=3)
    p.add_argument("-k", "--k", type=int, default=2)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--len", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing leaves no state
    in it, so every ``main`` call shares it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the contract maps errors to exit 2
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
