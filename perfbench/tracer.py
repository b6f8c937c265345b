"""Per-layer tracing for the traced run, from outside the program.

The public entry point of each layer is wrapped at every module attribute
that binds it: ``cli``, ``logic`` and ``oracle`` import names directly, so
wrapping the defining module alone would miss their calls.  A span wrapper
adds its self time (duration minus that of the spans it encloses) to
``<layer>.busy_s``; the hot ``Structure`` queries get count-only wrappers,
because timing them would distort the run.  Spans are aggregated by name as
they close rather than stored.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function, metric prefix) of each timed entry point; two entry points
# may share a prefix, their self times then add up
SPANS = (
    ("structures", "load_structure", "structures.load"),
    ("structures", "load_pointed", "structures.load"),
    ("traces", "check_trace_relation", "traces.check"),
    ("traces", "_inclusion_witness", "traces.inclusion"),
    ("traces", "runs_upto", "traces.runs"),
    ("traces", "build_trace_automaton", "traces.automaton"),
    ("unravel", "ml_unravel", "unravel.ml"),
    ("unravel", "tree_unravel", "unravel.tree"),
    ("unravel", "pr_unravel", "unravel.pr"),
    ("unravel", "ml_graft", "unravel.graft"),
    ("games", "solve_bisim", "games.bisim"),
    ("games", "solve_back_and_forth", "games.bf"),
    ("games", "solve_ppeb", "games.ppeb"),
    ("games", "solve_ef", "games.ef"),
    ("logic", "parse_formula", "logic.parse"),
    ("logic", "eval_formula", "logic.eval"),
    ("logic", "synth_distinguishing", "logic.synth"),
    ("oracle", "find_morphism", "oracle.morphism"),
    ("oracle", "pointed_iso", "oracle.iso"),
    ("oracle", "run_suite", "oracle.suite"),
)
COUNTED_FUNCTIONS = (("games", "_pebbled_compatible", "games.pebbled_compat"),)
COUNTED_METHODS = ("successors", "valuation", "enabled_actions")


def _forest(result):
    return result[0] if isinstance(result, tuple) else result


# result sizes recorded per prefix, beyond calls and busy time
SIZES = {
    "traces.runs": ("returned", len),
    "unravel.ml": ("nodes", lambda r: len(_forest(r).nodes)),
    "unravel.tree": ("nodes", lambda r: len(_forest(r).nodes)),
    "unravel.pr": ("nodes", lambda r: len(_forest(r).nodes)),
    "logic.synth": ("formulas", lambda r: int(r is not None)),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.sizes: Counter = Counter()
        self.open: Counter = Counter()  # spans of each prefix now running
        self.stack: list[list[float]] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        # an op cut by the time limit may leave spans open
        self.stack.clear()
        self.open.clear()

    def span(self, prefix: str, fn):
        size = SIZES.get(prefix)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            self.open[prefix] += 1
            if prefix == "logic.eval" and self.open["logic.synth"]:
                self.sizes["logic.synth.evals"] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                self.open[prefix] -= 1
                if self.stack and self.stack[-1] is frame:
                    self.stack.pop()
                    if self.stack:
                        self.stack[-1][0] += elapsed
                self.busy[prefix] += elapsed - frame[0]
                self.calls[prefix] += 1
            if size is not None:
                self.sizes[f"{prefix}.{size[0]}"] += size[1](result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Point every ``linspect`` module attribute bound to ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "linspect" or modname.startswith("linspect.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod, fn, prefix in SPANS:
            original = getattr(sys.modules[f"linspect.{mod}"], fn)
            self._rebind(original, self.span(prefix, original))
        for mod, fn, name in COUNTED_FUNCTIONS:
            original = getattr(sys.modules[f"linspect.{mod}"], fn)
            self._rebind(original, self.counter(name, original))
        structure = sys.modules["linspect.structures"].Structure
        for method in COUNTED_METHODS:
            original = getattr(structure, method)
            self._patches.append((structure, method, original))
            setattr(structure, method, self.counter(f"structures.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of the named per-layer metrics."""
        out: dict[str, float] = {}
        for name in COUNTED_METHODS:
            out[f"structures.{name}.calls"] = self.calls[f"structures.{name}"] / passes
        prefixes = dict.fromkeys(prefix for _, _, prefix in SPANS)
        for prefix in prefixes:
            out[f"{prefix}.calls"] = self.calls[prefix] / passes
            out[f"{prefix}.busy_s"] = self.busy[prefix] / passes
        for prefix, (what, _) in SIZES.items():
            out[f"{prefix}.{what}"] = self.sizes[f"{prefix}.{what}"] / passes
        for _, _, name in COUNTED_FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name] / passes
        evals = self.sizes["logic.synth.evals"]
        out["logic.synth.evals"] = evals / passes
        out["logic.synth.yield"] = self.sizes["logic.synth.formulas"] / evals if evals else 0.0
        return out
