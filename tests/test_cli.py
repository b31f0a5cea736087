import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivgraph
from derivgraph.cli import main
from test_enumeration import SKELETONS


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestTrees:
    def test_ode_order_four(self, run):
        code, out, err = run("trees", "--regime", "ode", "--order", "4")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "*{*{*{*{}}}}",
            "*{*{*{},*{}}}",
            "*{*{},*{*{}}}",
            "*{*{},*{},*{}}",
        ]

    def test_ode_order_one(self, run):
        code, out, _ = run("trees", "--regime", "ode", "--order", "1")
        assert code == 0 and out == "*{}\n"

    def test_inverse_order_two(self, run):
        code, out, _ = run("trees", "--regime", "inverse", "--order", "2")
        assert code == 0 and out == "*{*{},*{}}\n"

    def test_composite_needs_skeleton(self, run):
        code, out, err = run("trees", "--regime", "composite", "--order", "2")
        assert code == 1 and out == "" and "--skeleton" in err

    def test_bad_skeleton_reports_position(self, run):
        code, _, err = run(
            "trees", "--regime", "composite", "--order", "2", "--skeleton", "f(g(x)"
        )
        assert code == 1 and "position" in err

    def test_order_limit_message(self, run):
        code, _, err = run("trees", "--regime", "ode", "--order", "11")
        assert code == 1 and "--max-order" in err
        code, out, _ = run(
            "trees", "--regime", "ode", "--order", "11", "--max-order", "11"
        )
        assert code == 0 and len(out.splitlines()) == 1842

    def test_machine_style_is_json(self, run):
        code, out, _ = run("trees", "--regime", "ode", "--order", "3", "--style", "machine")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "regime": "ode",
            "order": 3,
            "trees": ["*{*{*{}}}", "*{*{},*{}}"],
        }

    def test_byte_identical_reruns(self, run):
        first = run("trees", "--regime", "ode", "--order", "6")
        second = run("trees", "--regime", "ode", "--order", "6")
        assert first == second


class TestTable:
    def test_ode_order_four_columns(self, run):
        code, out, _ = run("table", "--regime", "ode", "--order", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["tree", "S", "tau", "sign", "weight"]
        rows = [line.split() for line in lines[1:]]
        assert [(r[1], r[2], r[4]) for r in rows] == [
            ("1", "6", "1"),
            ("2", "3", "1"),
            ("1", "2", "3"),
            ("6", "1", "1"),
        ]

    def test_inverse_order_three_signed_weights(self, run):
        code, out, _ = run("table", "--regime", "inverse", "--order", "3")
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [(r[3], r[4]) for r in rows] == [("+1", "3"), ("-1", "1")]
        # tau column is reported as 1 outside the ode regime
        assert {r[2] for r in rows} == {"1"}

    def test_composite_simple_map_weight(self, run):
        code, out, _ = run(
            "table",
            "--regime",
            "composite",
            "--order",
            "3",
            "--skeleton",
            "f(x)",
        )
        rows = [line.split() for line in out.splitlines()[1:]]
        assert rows == [["f{x{},x{},x{}}", "6", "1", "+1", "1"]]


# The tables whose text layout is checked: ode 1-9, inverse 2-8, each test skeleton at 1-4.
TABLES = [
    *(("ode", None, n) for n in range(1, 10)),
    *(("inverse", None, n) for n in range(2, 9)),
    *(("composite", sk, n) for sk in SKELETONS for n in range(1, 5)),
]


class TestTableLayout:
    @pytest.mark.parametrize("regime,skeleton,order", TABLES)
    def test_text_layout_matches_the_machine_rows(self, run, regime, skeleton, order):
        argv = ["table", "--regime", regime, "--order", str(order)]
        if skeleton:
            argv += ["--skeleton", skeleton]
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        _, machine, _ = run(*argv, "--style", "machine")
        rows = json.loads(machine)["rows"]
        assert {r["sign"] for r in rows} <= {1, -1}  # printed +1 or -1
        cells = [("tree", "S", "tau", "sign", "weight")]
        cells += [
            (r["tree"], str(r["S"]), str(r["tau"]), "%+d" % r["sign"], r["weight"]) for r in rows
        ]
        # Every column but the last is as wide as its widest cell or header,
        # and columns are two spaces apart; the weight is not padded.
        widths = [max(len(line[i]) for line in cells) for i in range(4)]
        expected = [
            "  ".join(c.ljust(w) for c, w in zip(line, widths)) + "  " + line[4]
            for line in cells
        ]
        assert out == "".join(line + "\n" for line in expected)
        assert not any(line.endswith(" ") for line in out.splitlines())

    def test_a_table_with_no_graph_is_its_header(self, run):
        argv = ("table", "--regime", "composite", "--skeleton", "F()", "--order", "2")
        assert run(*argv) == (0, "tree  S  tau  sign  weight\n", "")


class TestFormula:
    def test_ode_order_two(self, run):
        code, out, _ = run("formula", "--regime", "ode", "--order", "2")
        assert code == 0 and out == "f(y)·Df(y)\n"

    def test_inverse_order_one_closed_form(self, run):
        code, out, _ = run("formula", "--regime", "inverse", "--order", "1")
        assert code == 0 and out == "(Df(g(y)))⁻¹\n"

    def test_composite_chain_rule(self, run):
        code, out, _ = run(
            "formula",
            "--regime",
            "composite",
            "--order",
            "1",
            "--skeleton",
            "f(g(x))",
        )
        assert code == 0 and out == "f′(g(x))·g′(x)\n"

    @pytest.mark.parametrize("style", ["text", "latex"])
    def test_constant_derivative_prints_zero(self, run, style):
        argv = ("formula", "--regime", "composite", "--skeleton", "F()", "--order", "2")
        assert run(*argv, "--style", style) == (0, "0\n", "")
        code, out, err = run(*argv, "--style", "machine")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"regime": "composite", "order": 2, "terms": []}

    def test_machine_terms_round_trip(self, run):
        code, out, _ = run(
            "formula", "--regime", "ode", "--order", "4", "--style", "machine"
        )
        from derivgraph.formulas import parse_machine_term

        payload = json.loads(out)
        weights = [parse_machine_term(t["machine"]).weight for t in payload["terms"]]
        assert weights == [1, 1, 3, 1]


class TestVerify:
    def test_pass_exit_status(self, run):
        code, out, _ = run(
            "verify",
            "--regime",
            "composite",
            "--order",
            "5",
            "--skeleton",
            "f(g(x))",
            "--trials",
            "20",
            "--seed",
            "1",
        )
        assert code == 0 and "PASS" in out

    def test_machine_report(self, run):
        code, out, _ = run(
            "verify", "--regime", "ode", "--order", "4", "--seed", "2", "--style", "machine"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["graphs"] == 4

    def test_seed_determinism(self, run):
        a = run("verify", "--regime", "inverse", "--order", "5", "--seed", "9")
        b = run("verify", "--regime", "inverse", "--order", "5", "--seed", "9")
        assert a == b

    def test_zero_trials_is_a_one_line_error(self, run):
        code, out, err = run("verify", "--regime", "ode", "--order", "3", "--trials", "0")
        assert (code, out, err) == (1, "", "derivgraph: error: trials must be >= 1\n")

    def test_repeated_slots_pass(self, run):
        code, out, _ = run(
            "verify", "--regime", "composite", "--skeleton", "F(x,x)", "--order", "2"
        )
        assert code == 0 and out.endswith("PASS\n")


class TestInverseOrderOne:
    # The rule: graph listings have no graph to list and point to `formula`;
    # the closed form is a formula, so `formula` prints it and `verify`
    # checks it.
    NO_GRAPH = (
        "derivgraph: error: inverse order 1 has no graph to list; "
        "`formula --regime inverse --order 1` prints its closed form\n"
    )

    @pytest.mark.parametrize(
        "command, code, out, err",
        [
            ("trees", 1, "", NO_GRAPH),
            ("table", 1, "", NO_GRAPH),
            ("formula", 0, "(Df(g(y)))⁻¹\n", ""),
            ("verify", 0, "verify regime=inverse order=1 trials=20 seed=0 graphs=0: PASS\n", ""),
        ],
    )
    def test_each_subcommand(self, run, command, code, out, err):
        assert run(command, "--regime", "inverse", "--order", "1") == (code, out, err)


class TestOutputFile:
    def test_writes_file_instead_of_stdout(self, run, tmp_path):
        target = tmp_path / "trees.txt"
        code, out, _ = run(
            "trees", "--regime", "ode", "--order", "3", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == "*{*{*{}}}\n*{*{},*{}}\n"

    def test_unwritable_output_is_a_one_line_error(self, run, tmp_path):
        target = tmp_path / "missing" / "trees.txt"
        code, out, err = run(
            "trees", "--regime", "ode", "--order", "3", "--output", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith("derivgraph: error: cannot write output:")
        assert err.count("\n") == 1

    def test_skeleton_from_file(self, run, tmp_path):
        sk = tmp_path / "skeleton.txt"
        sk.write_text("f(g(x))\n")
        code, out, _ = run(
            "formula",
            "--regime",
            "composite",
            "--order",
            "1",
            "--skeleton",
            f"@{sk}",
        )
        assert code == 0 and out == "f′(g(x))·g′(x)\n"

    def test_files_are_utf8_under_an_ascii_locale(self, run, tmp_path):
        # The C locale without UTF-8 mode or coercion: the locale's encoding is ASCII.
        src = str(Path(derivgraph.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0"}
        env["PYTHONCOERCECLOCALE"] = "0"

        def cli(*argv: str) -> subprocess.CompletedProcess:
            command = [sys.executable, "-X", "utf8=0", "-m", "derivgraph.cli", *argv]
            return subprocess.run(command, env=env, capture_output=True)

        target, skeleton, garbled = tmp_path / "f.txt", tmp_path / "s.txt", tmp_path / "bad.txt"
        skeleton.write_text("f(g(x))\n", encoding="utf-8")
        garbled.write_bytes(b"f(\xff)")
        for argv in (
            ("formula", "--regime", "ode", "--order", "3"),
            ("formula", "--regime", "composite", "--order", "2", "--skeleton", f"@{skeleton}"),
        ):
            done = cli(*argv, "--output", str(target))
            assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
            code, out, _ = run(*argv)
            assert code == 0 and target.read_bytes() == out.encode("utf-8")
            assert not out.isascii()
        done = cli("trees", "--regime", "composite", "--order", "1", "--skeleton", f"@{garbled}")
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.startswith(b"derivgraph: error: cannot read skeleton file: ")
        assert done.stderr.count(b"\n") == 1


class TestNesting:
    """Skeletons have no nesting limit: the 10,000-deep chain f0(f1(...f9999(x)...))."""

    DEPTH = 10_000
    CHAIN = "".join(f"f{i}(" for i in range(DEPTH)) + "x" + ")" * DEPTH

    @pytest.mark.parametrize(
        "command,source",
        [
            ("trees", "inline"),
            ("trees", "file"),
            ("table", "inline"),
            ("table", "file"),
            ("verify", "file"),
        ],
    )
    def test_deep_chain_at_order_one(self, run, tmp_path, command, source):
        skeleton = self.CHAIN
        if source == "file":
            (tmp_path / "chain.txt").write_text(self.CHAIN + "\n")
            skeleton = f"@{tmp_path / 'chain.txt'}"
        extra = ["--trials", "2"] if command == "verify" else []
        argv = [command, "--regime", "composite", "--order", "1", "--skeleton", skeleton, *extra]
        code, out, err = run(*argv)
        assert code == 0 and err == ""
        tree = "".join(f"f{i}{{" for i in range(self.DEPTH)) + "x{}" + "}" * self.DEPTH
        if command == "trees":
            assert out == tree + "\n"
        elif command == "table":
            assert out.splitlines()[1].split() == [tree, "1", "1", "+1", "1"]
        else:
            assert out == "verify regime=composite order=1 trials=2 seed=0 graphs=1: PASS\n"


class TestUnexpectedError:
    def test_unexpected_exception_is_a_one_line_error(self, run, monkeypatch):
        import derivgraph.cli as cli

        def broken(args):
            raise RuntimeError("internal\nfault")

        monkeypatch.setitem(cli._COMMANDS, "trees", broken)
        code, out, err = run("trees", "--regime", "ode", "--order", "3")
        assert code == 1 and out == ""
        assert err == "derivgraph: error: RuntimeError: internal fault\n"
        assert "Traceback" not in err


class TestCollector:
    """``main`` pauses the cyclic collector and hands back the caller's setting."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller(self, request):
        was = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if was else gc.disable()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["trees", "--regime", "ode", "--order", "3"], 0),
            (["trees", "--regime", "composite", "--order", "2"], 1),  # _CliError
            (["verify", "--regime", "ode", "--order", "3", "--trials", "0"], 1),  # ValueError
        ],
        ids=["exit-0", "cli-error", "value-error"],
    )
    def test_restored_after_each_exit(self, run, caller, argv, code):
        returned, _, err = run(*argv)
        assert returned == code
        assert err.startswith("derivgraph: error:") if code else err == ""
        assert gc.isenabled() is caller

    def test_restored_after_an_unexpected_exception(self, run, caller, monkeypatch):
        import derivgraph.cli as cli

        seen = []

        def broken(args):
            seen.append(gc.isenabled())
            raise RuntimeError("fault")

        monkeypatch.setitem(cli._COMMANDS, "trees", broken)
        code, _, err = run("trees", "--regime", "ode", "--order", "3")
        assert (code, err) == (1, "derivgraph: error: RuntimeError: fault\n")
        assert seen == [False]  # paused while the command ran
        assert gc.isenabled() is caller

    def test_restored_after_an_argparse_exit(self, caller, capsys):
        with pytest.raises(SystemExit):
            main(["trees", "--regime", "ode", "--order", "three"])
        assert "invalid int value" in capsys.readouterr().err
        assert gc.isenabled() is caller


# Skeleton text: a few well-formed skeletons, or anything over a small alphabet.
SKELETON_TEXT = st.one_of(
    st.sampled_from(["f(x)", "F(f(x),g(x))", "F(x,x)", "f(g(x),y)"]),
    st.text(alphabet="fgxy(), ", max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_argv_never_prints_a_traceback(data):
    command = data.draw(st.sampled_from(["trees", "table", "formula", "verify"]))
    styles = ["text", "latex", "machine"] if command == "formula" else ["text", "machine"]
    argv = [
        command,
        "--regime",
        data.draw(st.sampled_from(["ode", "inverse", "composite"])),
        "--order",
        str(data.draw(st.integers(-1, 4))),
        "--style",
        data.draw(st.sampled_from(styles)),
    ]
    if data.draw(st.booleans()):
        argv.append("--skeleton=" + data.draw(SKELETON_TEXT))
    if command == "verify":
        trials, seed = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        argv += ["--trials", str(trials), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code:
        assert code == 1 and err.getvalue().startswith("derivgraph: error:")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue()


def test_start_up_imports_no_dataclasses_inspect_or_json():
    # A fresh interpreter: the modules that importing the CLI and one
    # text-style run add to those the interpreter started with.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import derivgraph.cli\n"
        "assert derivgraph.cli.main(['table', '--regime', 'ode', '--order', '3']) == 0\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(derivgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("tree  ")
    added = set(done.stderr.split())
    assert "derivgraph.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)
