"""Correctness checks, run after the timed phase.

Each workload's outputs are judged by deciders that do not share code with
the command that produced them: the structural deciders on unravelings for
``check`` and ``distinguish`` verdicts, a formula evaluator of this file for
the formulas ``distinguish`` prints, the ``FAIL 0`` line for ``verify``, and
closed forms for the ``deep`` families.  ``judge`` returns None for a right
output and a one-line reason for a wrong one.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from workloads import Op, Workload

# structural decider of each relation on depth-k linear unravelings
MORPHISM = {
    "tr": "homomorphism",
    "ltr": "pathwise_embedding",
    "cltr": "open_span",
    "gltr": "isomorphism",
}
# relation each fragment's formulas capture, and its fragment tag
FRAGMENT_REL = {"pos": "tr", "diamond": "ltr", "bot": "cltr", "graded": "gltr"}
FRAGMENT_TAG = {"pos": "DiamondPos", "diamond": "Diamond", "bot": "DeadlockDiamond", "graded": "Graded"}


def verdict_of(rc: int, out: str) -> Optional[bool]:
    """TRUE/FALSE on the first line with the matching exit code, else None."""
    first = out.split("\n", 1)[0].strip()
    if (rc, first) == (0, "TRUE"):
        return True
    if (rc, first) == (1, "FALSE"):
        return False
    return None


# --- an independent formula evaluator ---------------------------------------------


def parse_sexpr(text: str):
    """Formula text to nested tuples; raises ValueError on malformed input."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            item = tuple(stack.pop())
            stack[-1].append(item)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("not a single formula")
    return stack[0][0]


def sexpr_depth(f) -> int:
    if isinstance(f, str) or f[0] in ("not",):
        return 0
    if f[0] in ("and", "or"):
        return max((sexpr_depth(g) for g in f[1:]), default=0)
    if f[0] == "deadlock":
        return 1
    return 1 + sexpr_depth(f[-1])


def satisfying(f, data: dict) -> set:
    """The set of elements of a structure file where formula ``f`` holds."""
    universe = set(data["universe"])
    succ: dict[tuple, list] = {}
    for name, tuples in data["interp"].items():
        for t in tuples:
            if len(t) == 2:
                succ.setdefault((t[0], name), []).append(t[1])
    holds = {name: {t[0] for t in tuples if len(t) == 1} for name, tuples in data["interp"].items()}
    actions = [r["name"] for r in data["signature"]["relations"] if r["arity"] == 2]

    def sat(g) -> set:
        if g == "tt":
            return set(universe)
        if g == "ff":
            return set()
        if isinstance(g, str):
            return set(holds[g])
        op = g[0]
        if op == "not":
            return universe - holds[g[1]]
        if op == "and":
            out = set(universe)
            for h in g[1:]:
                out &= sat(h)
            return out
        if op == "or":
            out = set()
            for h in g[1:]:
                out |= sat(h)
            return out
        if op == "deadlock":
            return {e for e in universe if not any((e, a) in succ for a in actions)}
        body = sat(g[-1])
        act = g[-2]
        if op == "dia":
            return {e for e in universe if any(t in body for t in succ.get((e, act), ()))}
        if op == "box":
            return {e for e in universe if all(t in body for t in succ.get((e, act), ()))}
        if op == "gdia":
            cmp, count = g[1], int(g[2])
            hits = {e: sum(t in body for t in succ.get((e, act), ())) for e in universe}
            return {e for e, n in hits.items() if (n >= count if cmp == ">=" else n <= count)}
        raise ValueError(f"unknown operator {op!r}")

    return sat(f)


def formula_holds(text: str, data: dict) -> bool:
    return data["point"] in satisfying(parse_sexpr(text), data)


# --- per-workload judges ----------------------------------------------------------


class Judge:
    """Judges the outputs of one workload; caches the deciders' work per input."""

    def __init__(self, workload: Workload, linspect) -> None:
        self.wl = workload
        self.ls = linspect
        self.cache: dict = {}

    def pointed(self, name: str):
        key = ("pointed", name)
        if key not in self.cache:
            s, point, _ = self.ls.structures.structure_from_dict(self.wl.files[name])
            self.cache[key] = self.ls.structures.PointedStructure(s, point)
        return self.cache[key]

    def ml(self, name: str, k: int):
        key = ("ml", name, k)
        if key not in self.cache:
            self.cache[key] = self.ls.unravel.ml_unravel(self.pointed(name), k)[0]
        return self.cache[key]

    def morphism(self, kind: str, fa: str, fb: str, k: int) -> bool:
        key = ("morphism", kind, fa, fb, k)
        if key not in self.cache:
            found = self.ls.oracle.find_morphism(self.ml(fa, k), self.ml(fb, k), kind)
            self.cache[key] = found is not None
        return self.cache[key]

    def judge(self, op: Op, rc: int, out: str, source_out: Optional[str]) -> Optional[str]:
        return getattr(self, "_" + self.wl.name)(op, rc, out, source_out)

    # decide: structural deciders on unravelings, and the witness it prints

    def reference(self, rel: str, k, fa: str, fb: str) -> bool:
        a, b = self.pointed(fa), self.pointed(fb)
        if k == "exact":
            # criterion 9: exact equals bounded at the product of the state counts
            product = len(a.base.universe) * len(b.base.universe)
            return self.ls.traces.check_trace_relation(rel, a, b, product).holds
        if rel == "bisim":
            ta, tb = self.ls.unravel.tree_unravel(a, k), self.ls.unravel.tree_unravel(b, k)
            return self.ls.games.solve_back_and_forth(ta, tb, "full").duplicator_wins
        if rel == "rt":
            traces_upto = self.ls.traces.traces_upto
            return traces_upto(a, k, "ready") == traces_upto(b, k, "ready")
        return self.morphism(MORPHISM[rel], fa, fb, k)

    def witness_problem(self, rel: str, line: str, fa: str, fb: str) -> Optional[str]:
        """The printed witness must be a trace of the side it names and, for
        the relations compared by equality, not a trace of the other side."""
        m = re.fullmatch(r"(.*)  \(only (left|right)\)", line)
        if m is None:
            return f"unreadable witness {line!r}"
        text, side = m.groups()
        holder, other = (fa, fb) if side == "left" else (fb, fa)
        if rel in ("tr", "ltr") and side != "left":
            return "tr/ltr witness must come from the left"
        kind = "ready" if rel == "rt" else ("complete" if text.endswith(" !") else "labelled")
        length = text.count("->")
        traces = self.ls.traces
        render = traces.render_trace
        mine = {render(t): t for t in traces.traces_upto(self.pointed(holder), length, kind)}
        if text not in mine:
            return f"witness {text!r} is not a {kind} trace of the {side} side"
        theirs = traces.traces_upto(self.pointed(other), length, kind)
        if rel == "tr":
            w = mine[text]
            if any(
                t.actions == w.actions and all(x <= y for x, y in zip(w.valuations, t.valuations))
                for t in theirs
            ):
                return f"witness {text!r} is matched on the other side"
        elif rel != "gltr" and text in {render(t) for t in theirs}:
            return f"witness {text!r} is also a trace of the other side"
        return None

    def _decide(self, op: Op, rc: int, out: str, _src) -> Optional[str]:
        e = op.expect
        got = verdict_of(rc, out)
        if got is None:
            return f"unreadable verdict (exit {rc}) {out[:60]!r}"
        want = self.reference(e["rel"], e["k"], *e["files"])
        if got != want:
            return f"verdict {got}, the reference decider says {want}"
        lines = out.rstrip("\n").split("\n")
        if not got and e["rel"] != "bisim":
            if len(lines) < 2:
                return "FALSE without a witness"
            return self.witness_problem(e["rel"], lines[1], *e["files"])
        return None

    # explain: "equivalent" iff the relation holds both ways; else a separating
    # formula of the fragment within the depth bound

    def _explain(self, op: Op, rc: int, out: str, source_out: Optional[str]) -> Optional[str]:
        e = op.expect
        if op.source is not None:
            text = source_out.strip()
            got = verdict_of(rc, out)
            want = formula_holds(text, self.wl.files[e["file"]])
            return None if got == want else f"eval says {got}, the formula holds: {want}"
        fa, fb = e["files"]
        frag, k = e["fragment"], e["k"]
        rel = FRAGMENT_REL[frag]
        if rel in ("tr", "ltr"):
            kind = MORPHISM[rel]
            equivalent = self.morphism(kind, fa, fb, k) and self.morphism(kind, fb, fa, k)
        else:
            equivalent = self.morphism(MORPHISM[rel], fa, fb, k)
        text = out.strip()
        if text == "equivalent":
            if rc != 0:
                return f"'equivalent' with exit {rc}"
            return None if equivalent else f"'equivalent' but {rel} fails one way"
        if rc != 1:
            return f"formula with exit {rc}"
        if equivalent:
            return f"formula printed but {rel} holds both ways"
        return self.formula_problem(text, frag, k, fa, fb)

    def formula_problem(self, text: str, frag: str, k: int, fa: str, fb: str) -> Optional[str]:
        try:
            f = parse_sexpr(text)
        except ValueError as exc:
            return f"unparsable formula {text!r}: {exc}"
        if sexpr_depth(f) > k:
            return f"formula depth {sexpr_depth(f)} exceeds {k}"
        if formula_holds(text, self.wl.files[fa]) == formula_holds(text, self.wl.files[fb]):
            return f"formula {text!r} does not separate the pair"
        logic = self.ls.logic
        if FRAGMENT_TAG[frag] not in logic.classify(logic.parse_formula(text)):
            return f"formula {text!r} lacks the tag {FRAGMENT_TAG[frag]}"
        return None

    # crosscheck: every report has FAIL 0

    def _crosscheck(self, op: Op, rc: int, out: str, _src) -> Optional[str]:
        first = out.split("\n", 1)[0]
        m = re.fullmatch(r"SUITE (\S+) SAMPLES (\d+) AGREE (\d+) FAIL (\d+)", first)
        if rc != 0 or m is None:
            return f"exit {rc}: {first!r}"
        suite, samples, agree, fail = m.groups()
        if suite != op.expect["suite"] or fail != "0" or agree != samples:
            return f"report {first!r}"
        return None

    # deep: closed forms for lines with a proposition every third state

    def _deep(self, op: Op, rc: int, out: str, _src) -> Optional[str]:
        e = op.expect
        if "verdict" in e:
            got = verdict_of(rc, out)
            return None if got == e["verdict"] else f"verdict {got}, closed form {e['verdict']}"
        if rc != 0:
            return f"unravel exit {rc}"
        data = json.loads(out)
        nodes, p_nodes = len(data["universe"]), len(data["interp"]["p"])
        if (nodes, p_nodes) != (e["nodes"], e["p_nodes"]):
            return f"unraveling has {nodes} nodes ({p_nodes} with p), closed form {e['nodes']} ({e['p_nodes']})"
        return None
