import json
import re
import time
from pathlib import Path

import pytest

from linspect import cli
from linspect.cli import main
from linspect.fixtures import ALL_PLAIN, ALL_POINTED, write_fixture_files
from linspect.games import solve_bisim
from linspect.structures import (
    Signature,
    Structure,
    dump_structure,
    load_pointed,
    load_structure,
    structure_from_dict,
)
from linspect.traces import check_trace_relation
from linspect.unravel import forest_to_dict, ml_node_count, ml_unravel

from conftest import line

REPO = Path(__file__).resolve().parents[1]
FIXDIR = REPO / "fixtures"


def fx(name: str) -> str:
    return str(FIXDIR / f"{name}.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFixtureFiles:
    def test_shipped_files_match_builders(self, tmp_path):
        fresh = write_fixture_files(str(tmp_path))
        for path in fresh:
            name = Path(path).stem
            shipped = (FIXDIR / f"{name}.json").read_text()
            assert shipped == Path(path).read_text(), name

    def test_all_fixtures_parse(self):
        for name in list(ALL_POINTED) + list(ALL_PLAIN):
            s, _ = load_structure(fx(name))
            assert s.universe


class TestCheck:
    def test_cltr_true(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--rel", "cltr", "-k", "3", fx("fix1"), fx("fix2"))
        assert code == 0 and out.startswith("TRUE")

    def test_bisim_false_with_spoiler_line(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--rel", "bisim", "-k", "2", fx("fix1"), fx("fix2"))
        assert code == 1
        assert out.startswith("FALSE")
        assert "spoiler" in out

    def test_bisim_spoiler_line_starts_at_root(self, capsys, tmp_path):
        # with c0 renamed to z0 the root pair no longer sorts first
        renamed = tmp_path / "fix3_z0.json"
        renamed.write_text((FIXDIR / "fix3.json").read_text().replace('"c0"', '"z0"'))
        code, out, _ = run_cli(capsys, "check", "--rel", "bisim", "-k", "2", str(renamed), fx("fix4"))
        assert (code, out) == (1, "FALSE\nspoiler: (('z0', 'd0', 2), ('left', 'a', 'c1'))\n")

    def test_exact_cltr_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--rel", "cltr", "--exact", fx("fix3"), fx("fix4"))
        assert code == 1
        assert "{} -a-> {} !" in out

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"universe": []}')
        code, _, err = run_cli(capsys, "check", "--rel", "tr", "-k", "1", str(bad), fx("fix1"))
        assert code == 2
        assert "error:" in err

    def test_missing_point_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "--rel", "tr", "-k", "1", fx("chain2"), fx("fix1"))
        assert code == 2

    @pytest.mark.parametrize("rel", ["tr", "ltr"])
    def test_root_valuation_witness(self, capsys, tmp_path, rel):
        # the witness is the root valuation alone, a trace of length 0
        data = json.loads((FIXDIR / "fix5.json").read_text())
        data["interp"]["p"] = []
        bare = tmp_path / "fix5_without_p.json"
        bare.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check", "--rel", rel, "-k", "2", fx("fix5"), str(bare))
        assert (code, out, err) == (1, "FALSE\n{p}  (only left)\n", "")


class TestDistinguish:
    def test_deadlock_pair(self, capsys):
        code, out, _ = run_cli(capsys, "distinguish", "--fragment", "bot", "-k", "2", fx("fix3"), fx("fix4"))
        assert code == 1
        assert out.strip() == "(dia a (deadlock))"

    def test_equivalent(self, capsys):
        code, out, _ = run_cli(capsys, "distinguish", "--fragment", "bot", "-k", "3", fx("fix1"), fx("fix1"))
        assert code == 0 and out.strip() == "equivalent"

    def test_graded(self, capsys):
        code, out, _ = run_cli(capsys, "distinguish", "--fragment", "graded", "-k", "1", fx("fix2"), fx("fix1"))
        assert code == 1
        assert out.strip() == "(gdia >= 2 a tt)"


class TestUnravel:
    def test_ml_fix4(self, capsys):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "ML", "-k", "2", fx("fix4"))
        assert code == 0
        data = json.loads(out)
        # one budget-exhausting run: a single 3-node chain
        assert len(data["universe"]) == 3
        s, point, forest = structure_from_dict(data)
        assert point is not None and forest is not None

    def test_pr_loop(self, capsys):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "PR", "-k", "1", "--len", "2", fx("loop"))
        data = json.loads(out)
        roots = data["forest"]["roots"]
        assert len(roots) == 2
        depths = sorted(len(data["universe"]) - len(roots) + 1 for _ in [0])
        assert len(data["universe"]) == 3  # chains of length 1 and 2

    def test_graft_loop(self, capsys):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "GRAFT", "-k", "1", fx("loop"))
        data = json.loads(out)
        assert len(data["universe"]) == 2

    def test_tree(self, capsys):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "TREE", "-k", "2", fx("fix2"))
        assert len(json.loads(out)["universe"]) == 5

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("ML", "-k", "3", "fix1"), "unravel_ml_k3_fix1.json"),
            (("TREE", "-k", "2", "fix2"), "unravel_tree_k2_fix2.json"),
            (("PR", "-k", "1", "--len", "2", "loop"), "unravel_pr_k1_len2_loop.json"),
        ],
    )
    def test_golden_stdout(self, capsys, argv, golden):
        # node ids and their order are output, not only the node count
        *opts, name = argv
        code, out, _ = run_cli(capsys, "unravel", "--comonad", *opts, fx(name))
        assert code == 0
        assert out == (REPO / "tests" / "golden" / golden).read_text()


class TestUnravelNodeBudget:
    """One state with an a- and a b-loop has 2^i runs of length i: ML and
    TREE (and GRAFT, built on ML) answer at k 8 and refuse at k 20 before
    building anything."""

    @pytest.fixture
    def two_loops(self, tmp_path):
        sig = Signature((("a", 2), ("b", 2)), modal=True)
        loops = {"a": frozenset({("x", "x")}), "b": frozenset({("x", "x")})}
        path = tmp_path / "two_loops.json"
        path.write_text(dump_structure(Structure(sig, ("x",), loops), "x"))
        return str(path)

    @pytest.mark.parametrize("comonad", ["ML", "TREE", "GRAFT"])
    def test_answers_at_8_refuses_at_20(self, capsys, two_loops, comonad):
        assert run_cli(capsys, "unravel", "--comonad", comonad, "-k", "8", two_loops)[0] == 0
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "unravel", "--comonad", comonad, "-k", "20", two_loops)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        unraveling = "tree_unravel" if comonad == "TREE" else "ml_unravel"
        assert err == (
            f"error: {unraveling} runs only within its budget of 100000 nodes; "
            "k=20 from 'x' builds more\n"
        )


class TestGraftBudget:
    """A state with an a- and a b-loop and an a-edge into a 100-state a-chain:
    every run of length k ending on the chain grafts the rest of the chain, so
    GRAFT counts its copies along with the ML nodes."""

    @pytest.fixture
    def lasso(self, tmp_path):
        sig = Signature((("a", 2), ("b", 2)), modal=True)
        chain = [f"c{i}" for i in range(100)]
        edges = {("s", "s"), ("s", "c0"), *zip(chain, chain[1:])}
        path = tmp_path / "lasso.json"
        path.write_text(dump_structure(
            Structure(sig, ("s", *chain), {"a": edges, "b": {("s", "s")}}), "s"
        ))
        return str(path)

    def test_answers_at_8_refuses_at_12(self, capsys, lasso):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "GRAFT", "-k", "8", lasso)
        assert code == 0
        assert len(json.loads(out)["universe"]) == 54_687  # 4,089 of them ML nodes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "unravel", "--comonad", "GRAFT", "-k", "12", lasso)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: ml_graft runs only within its budget of 100000 elements; "
            "k=12 from 's' builds more\n"
        )
        # the ML unraveling alone is within the budget
        assert ml_node_count(load_pointed(lasso), 12) == 98_293


class TestDistinguishGolden:
    def test_every_fixture_pair(self, capsys):
        """Every fragment at k 0..3 on every ordered pair of pointed fixtures
        with one signature prints the recorded formula and exit code."""
        golden = json.loads((REPO / "tests" / "golden" / "distinguish_fixtures.json").read_text())
        assert len(golden) == 288
        changed = []
        for key, expected in golden.items():
            fragment, _, k, left, right = key.split()
            got = list(run_cli(capsys, "distinguish", "--fragment", fragment, "-k", k, fx(left), fx(right))[:2])
            if got != expected:
                changed.append((key, expected, got))
        assert changed == []


class TestGameAndEval:
    def test_ef_chains(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--type", "ef", "-r", "2", fx("chain2"), fx("chain3"))
        assert code == 1 and out.strip() == "SPOILER"
        code, out, _ = run_cli(capsys, "game", "--type", "ef", "-r", "1", fx("chain2"), fx("chain3"))
        assert code == 0 and out.strip() == "DUPLICATOR"

    def test_ppeb(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--type", "ppeb", "-k", "2", "--len", "2", fx("chain2"), fx("chain3"))
        assert out.strip() in ("DUPLICATOR", "SPOILER")

    def test_bisim(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--type", "bisim", "-k", "2", fx("fix1"), fx("fix2"))
        assert code == 1 and out.strip() == "SPOILER"

    def test_bf_on_unravel_output(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "ML", "-k", "3", fx("fix1"))
        (tmp_path / "a.json").write_text(out)
        code, out, _ = run_cli(capsys, "unravel", "--comonad", "ML", "-k", "3", fx("fix2"))
        (tmp_path / "b.json").write_text(out)
        code, out, _ = run_cli(
            capsys, "game", "--type", "bf", str(tmp_path / "a.json"), str(tmp_path / "b.json")
        )
        assert code == 0 and out.strip() == "DUPLICATOR"

    def test_bf_signature_mismatch(self, capsys, tmp_path):
        for name in ("chain2", "loop"):
            code, out, _ = run_cli(capsys, "unravel", "--comonad", "PR", "-k", "1", "--len", "2", fx(name))
            (tmp_path / f"{name}.json").write_text(out)
        code, out, err = run_cli(
            capsys, "game", "--type", "bf", str(tmp_path / "chain2.json"), str(tmp_path / "loop.json")
        )
        assert (code, out) == (2, "")
        assert err == "error: the back-and-forth game requires matching signatures\n"

    def test_eval(self, capsys, tmp_path):
        terminal = tmp_path / "terminal.json"
        terminal.write_text(
            json.dumps(
                {
                    "signature": {"modal": True, "relations": [{"name": "a", "arity": 2}]},
                    "universe": ["t"],
                    "point": "t",
                    "interp": {"a": []},
                }
            )
        )
        code, out, _ = run_cli(capsys, "eval", "--formula", "(deadlock)", str(terminal))
        assert code == 0 and out.strip() == "TRUE"
        code, out, _ = run_cli(capsys, "eval", "--formula", "(deadlock)", fx("fix4"))
        assert code == 1 and out.strip() == "FALSE"

    def test_eval_formula_file(self, capsys, tmp_path):
        ff = tmp_path / "f.sexp"
        ff.write_text("(dia a (dia b (deadlock)))")
        code, out, _ = run_cli(capsys, "eval", "--formula-file", str(ff), fx("fix4"))
        assert code == 0


class TestVerify:
    def test_report_shape_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "prop85", "--size", "3", "-k", "2",
            "--samples", "10", "--seed", "7",
        )
        assert code == 0
        assert out.splitlines()[0] == "SUITE prop85 SAMPLES 10 AGREE 10 FAIL 0"

    def test_unknown_suite_is_cli_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--rel", "cltr", "-k", "3", "fix1", "fix2"),
            ("distinguish", "--fragment", "graded", "-k", "2", "fix2", "fix1"),
            ("unravel", "--comonad", "ML", "-k", "3", "fix2"),
            ("verify", "--suite", "prop84", "--size", "3", "-k", "2", "--samples", "5", "--seed", "3"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        argv = [a if not a.startswith("fix") else fx(a) for a in argv]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestReadmeGoldenTable:
    def test_verdict_table_matches_implementation(self):
        readme = (REPO / "README.md").read_text()
        block = re.search(r"\| left \| right \|.*?\n\n", readme, re.S)
        assert block, "README must carry the fixture verdict table"
        rows = [
            line.strip().strip("|").split("|")
            for line in block.group(0).strip().splitlines()[2:]
        ]
        from linspect.fixtures import ALL_POINTED

        k = 3
        assert len(rows) == 12
        for cells in rows:
            la, lb, *verdicts = [c.strip() for c in cells]
            a, b = ALL_POINTED[la](), ALL_POINTED[lb]()
            expected = []
            for rel in ("tr", "ltr", "cltr", "gltr", "rt"):
                expected.append("T" if check_trace_relation(rel, a, b, k).holds else "F")
            expected.append("T" if solve_bisim(a, b, k).duplicator_wins else "F")
            assert verdicts == expected, (la, lb)


class TestErrorPaths:
    def test_signature_mismatch_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "--rel", "tr", "-k", "2", fx("fix4"), fx("fix5"))
        assert code == 2 and "error:" in err

    def test_exact_mode_rejected_for_gltr(self, capsys):
        code, _, err = run_cli(capsys, "check", "--rel", "gltr", "--exact", fx("fix1"), fx("fix2"))
        assert code == 2 and "exact" in err

    def test_bad_formula_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--formula", "(dia a", fx("fix4"))
        assert code == 2

    def test_unknown_action_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--formula", "(dia zz tt)", fx("fix4"))
        assert code == 2

    def test_eval_needs_a_formula_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", fx("fix1")])
        assert exc.value.code == 2
        assert "one of the arguments --formula --formula-file is required" in capsys.readouterr().err

    def test_eval_takes_one_formula_flag_only(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("tt")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--formula", "tt", "--formula-file", str(path), fx("fix1")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_scripts_run(self, capsys):
        import subprocess, sys

        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "spectrum_report.py"),
             fx("fix3"), fx("fix4"), "--max-k", "2"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "cltr" in out.stdout
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "chain_replay.py"),
             fx("fix1"), fx("fix2"), "--rank", "1", "--formula", "(dia a tt)"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "constant across stations: True" in out.stdout


class TestReadyTraceCommand:
    def test_rt_detects_ready_set_mismatch(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--rel", "rt", "-k", "2", fx("fix1"), fx("fix2"))
        assert code == 1
        assert out.startswith("FALSE")
        assert "{" in out

    def test_rt_reflexive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--rel", "rt", "-k", "3", fx("fix1"), fx("fix1"))
        assert code == 0 and out.startswith("TRUE")


class TestParserReuse:
    """``main`` parses with one parser per process; its answers must equal
    those of a parser built for each call."""

    SEQUENCE = (
        ("check", "--rel", "cltr", "--exact", fx("fix3"), fx("fix4")),
        ("check", "--rel", "cltr", "-k", "0", fx("fix3"), fx("fix4")),
        ("verify", "--suite", "nope"),
        ("check", "--rel", "tr", "-k", "2", fx("fix1"), fx("fix2")),
    )

    def outputs(self, capsys):
        results = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    def test_shared_parser_answers_like_fresh_ones(self, capsys, monkeypatch):
        shared = self.outputs(capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == self.outputs(capsys)
        assert shared[2][0] == ("exit", 2) and "invalid choice: 'nope'" in shared[2][2]
        assert [code for code, _, _ in shared] == [1, 0, ("exit", 2), 0]

    def test_main_builds_no_parser_per_call(self, capsys, monkeypatch):
        main(["check", "--rel", "tr", "-k", "1", fx("fix1"), fx("fix2")])
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
        for k in ("0", "1", "2"):
            main(["check", "--rel", "tr", "-k", k, fx("fix1"), fx("fix2")])
        capsys.readouterr()
        assert built == []


class TestFiveThousandStates:
    """Every subcommand on a 5,000-state a-chain and a-cycle, p at every third
    state: each answers (exit 0 or 1) or refuses (exit 2) within seconds."""

    COMMANDS = [
        *(("check", "--rel", rel, *bound, "{chain}", "{cycle}")
          for rel in ("tr", "ltr", "cltr", "gltr", "rt", "bisim")
          for bound in ((), ("--exact",))),
        *(("distinguish", "--fragment", fragment, "{chain}", "{cycle}")
          for fragment in ("pos", "diamond", "bot", "graded")),
        ("eval", "--formula", "(dia a (dia a (dia a p)))", "{cycle}"),
        *(("unravel", "--comonad", comonad, "-k", "2", "{chain}")
          for comonad in ("ML", "TREE", "GRAFT")),
        ("unravel", "--comonad", "PR", "-k", "1", "--len", "2", "{chain}"),
        ("game", "--type", "bisim", "{chain}", "{cycle}"),
        ("game", "--type", "ef", "-r", "1", "{chain}", "{cycle}"),
        ("game", "--type", "ppeb", "-k", "1", "--len", "2", "{chain}", "{cycle}"),
        ("game", "--type", "bf", "{chain_ml}", "{cycle_ml}"),
    ]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("five_thousand")
        paths = {}
        for name, cycle in (("chain", False), ("cycle", True)):
            paths[name] = root / f"{name}.json"
            paths[name].write_text(line(5000, cycle))
            paths[f"{name}_ml"] = root / f"{name}_ml.json"
            forest, _ = ml_unravel(load_pointed(str(paths[name])), 3)
            paths[f"{name}_ml"].write_text(json.dumps(forest_to_dict(forest)))
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=lambda argv: " ".join(a for a in argv if "{" not in a)
    )
    def test_answers_or_refuses(self, capsys, files, argv):
        start = time.perf_counter()
        code = main([arg.format(**files) for arg in argv])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert elapsed < 5.0
        if code == 2:
            assert err.startswith("error: ")

    def test_pr_and_ppeb_refuse_with_their_budgets(self, capsys, files):
        assert main(["unravel", "--comonad", "PR", "-k", "1", "--len", "2", files["chain"]]) == 2
        assert "budget of 500000 steps" in capsys.readouterr().err
        assert main(["game", "--type", "ppeb", "-k", "1", "--len", "2",
                     files["chain"], files["cycle"]]) == 2
        assert "budget of 5000000 position visits" in capsys.readouterr().err

    def test_ef_answers_at_rank_one_and_refuses_at_rank_two(self, capsys, files):
        # 2 x 5,001 typed tuples at rank 1; 2 x (1 + 5,000 + 5,000 x 4,999) at rank 2
        argv = ["game", "--type", "ef", files["chain"], files["cycle"]]
        # the cycle's s4999 has an edge into the point, no chain state has one
        assert run_cli(capsys, *argv, "-r", "1") == (1, "SPOILER\n", "")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "-r", "2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: solve_ef runs only within its budget of 200000 typed tuples; "
            "r=2 over 5000 x 5000 elements types more\n"
        )
