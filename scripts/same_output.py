#!/usr/bin/env python3
"""Check that two linspect source trees print the same thing.

    python scripts/same_output.py OLD_SRC NEW_SRC

Runs one fixed command list through ``linspect.cli.main``, once per tree,
each in its own subprocess that imports ``linspect`` from that tree, and
compares every command's stdout, stderr and exit code.  The list is
``distinguish`` on every ordered pair of the files under ``fixtures/``, under
each of the four fragments at k 0-4, then ``unravel`` of every fixture with
``--comonad`` ML, TREE and GRAFT at k 0-4 and PR at k 1-2 and len 0-3, then
every operation of the benchmark's ``explain``, ``decide``, ``deep`` and
``crosscheck`` workloads at seeds 1-3, in order, each ``eval`` given the
formula that its ``distinguish`` printed on the same tree, with
``distinguish --fragment graded`` at k 0-4 in both orders on every pair of
the ``explain`` workload after that workload's operations, then the
``verify`` reports of the suites that read synthesized formulas
(thm61 at size 5, k 4; cor74 at size 3, k 1 and 2) and of the suites that
play on forests (thm48, lemma313, prop85 and thm54 at the ``crosscheck``
workload's size, k and len, 20 samples each) and of prop85's window
isomorphism at size 3, k 2 and at size 6, k 3 (20 samples each), at seeds
1-3, then ``game --type bf`` in all three variants on every ordered pair of
the fixtures' ``unravel`` files (ML and TREE at k 3, PR at k 1 and len 2),
each tree playing on the files that it wrote, then ``check`` on malformed copies of
``fixtures/fix1.json`` (a duplicate element, an unknown relation, an arity
mismatch, an unknown element, a point outside the universe, a missing
field), whose error text must not change.  Prints the first difference and
exits 1, or the number of commands compared and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRAGMENTS = ("pos", "diamond", "bot", "graded")
BOUNDS = range(5)
SEEDS = (1, 2, 3)
WORKLOAD_NAMES = ("explain", "decide", "deep", "crosscheck")
# (suite, size, k, len, samples) of each verify report compared
SUITES = (
    ("thm61", 5, 4, 4, 50), ("cor74", 3, 1, 4, 50), ("cor74", 3, 2, 4, 50),
    ("thm48", 5, 4, 4, 20), ("lemma313", 6, 4, 4, 20), ("prop85", 5, 4, 4, 20),
    ("thm54", 2, 2, 3, 20), ("prop85", 3, 2, 4, 20), ("prop85", 6, 3, 4, 20),
)
# the unravel command line of each forest file that ``game --type bf`` plays
FORESTS = (("ML", "-k", "3"), ("TREE", "-k", "3"), ("PR", "-k", "1", "--len", "2"))
VARIANTS = ("full", "existential", "existential_positive")


def malformed(data: dict) -> dict[str, dict]:
    """Copies of a structure file that each break one rule of the format."""
    first = data["universe"][0]
    out = {name: json.loads(json.dumps(data)) for name in
           ("duplicate", "unknown-relation", "arity", "unknown-element", "point", "missing")}
    out["duplicate"]["universe"].append(first)
    out["unknown-relation"]["interp"]["zz"] = [[first]]
    out["arity"]["interp"]["a"].append([first])
    out["unknown-element"]["interp"]["a"].append([first, "nowhere"])
    out["point"]["point"] = "nowhere"
    del out["missing"]["universe"]
    return out


def commands(workdir: Path) -> list[dict]:
    """The command list; writes the workloads' and the malformed structure
    files to ``workdir``.  An entry with a ``source`` evaluates the formula
    that the entry at that index printed, and is skipped when it printed none."""
    sys.dont_write_bytecode = True  # leave no cache next to the benchmark's sources
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import FORMULA, WORKLOADS

    fixtures = sorted(str(f) for f in (ROOT / "fixtures").glob("*.json"))
    out = [
        {"argv": ["distinguish", "--fragment", frag, "-k", str(k), left, right], "source": None}
        for left in fixtures
        for right in fixtures
        for frag in FRAGMENTS
        for k in BOUNDS
    ]
    out += [
        {"argv": ["unravel", "--comonad", comonad, "-k", str(k), path], "source": None}
        for path in fixtures
        for comonad in ("ML", "TREE", "GRAFT")
        for k in BOUNDS
    ]
    out += [
        {"argv": ["unravel", "--comonad", "PR", "-k", str(k), "--len", str(n), path], "source": None}
        for path in fixtures
        for k in (1, 2)
        for n in range(4)
    ]
    for workload in WORKLOAD_NAMES:
        for seed in SEEDS:
            wl = WORKLOADS[workload](seed)
            for name, data in wl.files.items():
                (workdir / f"{seed}-{name}").write_text(json.dumps(data))
            base = len(out)
            for op in wl.ops:
                argv = [str(workdir / f"{seed}-{a}") if a in wl.files else a for a in op.argv]
                source = None if op.source is None else base + op.source
                out.append({"argv": argv, "source": source, "formula": FORMULA})
            if workload == "explain":
                pairs = dict.fromkeys(op.expect["files"] for op in wl.ops if "files" in op.expect)
                out += [
                    {"argv": ["distinguish", "--fragment", "graded", "-k", str(k),
                              str(workdir / f"{seed}-{x}"), str(workdir / f"{seed}-{y}")], "source": None}
                    for left, right in pairs
                    for k in BOUNDS
                    for x, y in ((left, right), (right, left))
                ]
    out += [
        {"argv": ["verify", "--suite", suite, "--size", str(size), "-k", str(k), "--len", str(n),
                  "--samples", str(samples), "--seed", str(seed)], "source": None}
        for suite, size, k, n, samples in SUITES
        for seed in SEEDS
    ]
    for comonad, *bound in FORESTS:
        files = []
        for path in fixtures:
            files.append(str(workdir / f"{comonad}-{Path(path).name}"))
            out.append({"argv": ["unravel", "--comonad", comonad, *bound, path], "source": None,
                        "save": files[-1]})
        out += [
            {"argv": ["game", "--type", "bf", "--variant", variant, left, right], "source": None}
            for left in files
            for right in files
            for variant in VARIANTS
        ]
    fix1 = ROOT / "fixtures" / "fix1.json"
    for name, data in malformed(json.loads(fix1.read_text())).items():
        path = workdir / f"malformed-{name}.json"
        path.write_text(json.dumps(data))
        out.append({"argv": ["check", "--rel", "tr", "-k", "2", str(path), str(fix1)], "source": None})
    return out


def work(cmds: list[dict]) -> list:
    """Run the commands in this process; one [exit code, stdout, stderr] each,
    or None for a skipped one.  An entry with a ``save`` path writes its
    stdout there."""
    import linspect
    from linspect.cli import main

    if Path(linspect.__file__).resolve().parents[1] != Path(os.environ["PYTHONPATH"]):
        raise SystemExit(f"imported {linspect.__file__}, not the tree under test")
    results: list = []
    for cmd in cmds:
        argv = cmd["argv"]
        if cmd["source"] is not None:
            src = results[cmd["source"]]
            if src is None or src[0] != 1:  # "equivalent", or an error
                results.append(None)
                continue
            argv = [src[1].strip() if a == cmd["formula"] else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        results.append([rc, out.getvalue(), err.getvalue()])
        if "save" in cmd:
            Path(cmd["save"]).write_text(out.getvalue())
    return results


def run_tree(src: Path, cmds: list[dict]) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
        input=json.dumps(cmds),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--worker"]:
        print(json.dumps(work(json.load(sys.stdin))))
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("old", type=Path, help="the src/ directory of the old tree")
    parser.add_argument("new", type=Path, help="the src/ directory of the new tree")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "linspect" / "cli.py").is_file():
            parser.error(f"{src} holds no linspect package")

    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        old, new = (run_tree(src.resolve(), cmds) for src in (args.old, args.new))
    for cmd, x, y in zip(cmds, old, new):
        if x == y:
            continue
        print("differs: linspect " + " ".join(cmd["argv"]))
        if x is None or y is None:
            print(f"  skipped on {'old' if x is None else 'new'} only")
            return 1
        for what, u, v in zip(("exit code", "stdout", "stderr"), x, y):
            if u != v:
                print(f"  {what}:\n    old {u!r}\n    new {v!r}")
        return 1
    print(f"same output on {len(cmds)} commands ({sum(r is None for r in old)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
