import ast
import builtins
import errno
import gc
import importlib
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
from derivgraph import enumerate_graphs, format_trees, parse_skeleton, weigh
from derivgraph.cli import main
from test_enumeration import SKELETONS


SRC = str(Path(derivgraph.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    """This environment with ``SRC`` importable and stdout buffered as by default."""
    env = {**os.environ, **extra}
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def cli_process(*argv: str, flags=(), stdout=subprocess.PIPE, **env: str):
    """``python -m derivgraph.cli argv...`` in a fresh interpreter."""
    command = [sys.executable, *flags, "-m", "derivgraph.cli", *argv]
    return subprocess.run(command, env=child_env(**env), stdout=stdout, stderr=subprocess.PIPE)


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


# The tables whose rows are checked against the library: ode 1-10, inverse
# 1-9, each test skeleton at 1-5.
LIBRARY_TABLES = [
    *(("ode", None, n) for n in range(1, 11)),
    *(("inverse", None, n) for n in range(1, 10)),
    *(("composite", sk, n) for sk in SKELETONS for n in range(1, 6)),
]


class TestTableRows:
    @pytest.mark.parametrize("regime,skeleton,order", LIBRARY_TABLES)
    def test_rows_are_the_weighed_graphs(self, run, regime, skeleton, order):
        graphs = enumerate_graphs(regime, order, skeleton and parse_skeleton(skeleton))
        texts = format_trees(g.tree for g in graphs)
        expected = [
            (text, g.tree.symmetry, g.tree.complexity if regime == "ode" else 1, wg.sign, wg.weight)
            for text, g, wg in zip(texts, graphs, map(weigh, graphs))
        ]
        argv = ["table", "--regime", regime, "--order", str(order)]
        if skeleton:
            argv += ["--skeleton", skeleton]
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert [line.split() for line in out.splitlines()[1:]] == [
            [text, str(s), str(tau), "%+d" % sign, str(weight)]
            for text, s, tau, sign, weight in expected
        ]
        code, out, err = run(*argv, "--style", "machine")
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"] == [
            {"tree": text, "S": s, "tau": tau, "sign": sign, "weight": str(weight)}
            for text, s, tau, sign, weight in expected
        ]


def listing_cases(command: str) -> list[list[str]]:
    """``command`` in each regime case, in both styles."""
    return [
        [command, "--regime", regime, "--order", str(order), "--style", style, *skeleton]
        for regime, order, skeleton in [
            ("ode", 7, []),
            ("inverse", 1, []),
            ("inverse", 7, []),
            ("composite", 4, ["--skeleton", "F(f(x),g(h(x),x))"]),
        ]
        for style in ("text", "machine")
    ]


def test_only_enumeration_reads_the_coefficients_and_the_roots():
    # One request path: enumeration._request lists a request's runs and rows;
    # only it and _Family.trees call .roots(, and no other module names
    # _COEFFICIENTS.
    callers, named = set(), set()
    for path in sorted(Path(derivgraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "roots"
                for call in ast.walk(node)
            ):
                callers.add((path.name, node.name))
            # A name read, an attribute or an imported name.
            if "_COEFFICIENTS" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
                isinstance(node, ast.alias) and node.name == "_COEFFICIENTS"
            ):
                named.add(path.name)
    assert callers == {("enumeration.py", "trees"), ("enumeration.py", "_request")}
    assert named == {"enumeration.py"}


def test_trees_never_reads_the_coefficient_rows(run, monkeypatch):
    # The request's rows are a lazy stream: trees never reads them, so a
    # fault in them is the table's alone.
    from derivgraph import enumeration

    trees, tables = listing_cases("trees"), listing_cases("table")
    expected = [run(*argv) for argv in trees]
    assert {code for code, _, _ in expected} == {0}

    def broken(children):
        raise RuntimeError("no numbers")

    monkeypatch.setattr(enumeration, "numbers", broken)
    assert [run(*argv) for argv in trees] == expected
    for argv in tables:
        assert run(*argv) == (1, "", "derivgraph: error: RuntimeError: no numbers\n"), argv


@pytest.mark.parametrize("command", ["trees", "table"])
def test_trees_and_table_build_no_graph_record(run, monkeypatch, command):
    # Both read the trees alone: a row's S, tau, sign and weight come from
    # its tree, so neither enumerates graphs, weighs one or builds a record.
    import derivgraph.cli as cli
    from derivgraph import enumeration

    cases = listing_cases(command)
    expected = [run(*argv) for argv in cases]
    assert {code for code, _, _ in expected} == {0}

    def refuse(*args, **kwargs):
        raise AssertionError("a graph record was built")

    for name in ("enumerate_graphs", "weigh", "DerivativeGraph", "WeightedGraph"):
        monkeypatch.setattr(enumeration, name, refuse)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, refuse)
    assert [run(*argv) for argv in cases] == expected


@pytest.mark.parametrize("command", ["trees", "table"])
def test_trees_and_table_build_no_root(run, monkeypatch, command):
    # A row is written from its root's children: neither listing calls
    # _Family.trees or builds a tree of the root's colour and the order.
    from derivgraph import enumeration
    from derivgraph.trees import Tree

    cases = listing_cases(command)
    expected = [run(*argv) for argv in cases]
    assert {code for code, _, _ in expected} == {0}
    roots = []
    for argv in cases:
        skeleton = argv[argv.index("--skeleton") + 1] if "--skeleton" in argv else None
        family = enumeration.family_of(argv[2], skeleton and parse_skeleton(skeleton))
        roots.append((family.palette[family.root], family.measure, int(argv[4])))

    def refuse(*args, **kwargs):
        raise AssertionError("_Family.trees was called")

    built = []
    new = Tree.__new__

    def watch(cls, *args):
        node = new(cls, *args)
        if cls is Tree:
            built.append(node)
        return node

    monkeypatch.setattr(Tree, "__new__", watch)
    # The watch sees the roots that the library's enumeration builds.
    assert len(enumeration.enumerate_graphs(enumeration.Regime.ODE, 3)) == 2
    assert [t for t in built if t.vertices == 3]
    monkeypatch.setattr(enumeration._Family, "trees", refuse)
    for argv, result, (colour, measure, order) in zip(cases, expected, roots):
        built.clear()
        assert run(*argv) == result
        assert built or order == 1, argv  # the pool is built while it is watched
        assert not [t for t in built if t.colour == colour and getattr(t, measure) == order]


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

    def test_machine_formula_formats_each_tree_once(self, run, monkeypatch):
        # The JSON "tree" field is the tree the machine term was built around,
        # not a second formatting of the same trees.
        import derivgraph.cli as cli
        from derivgraph import formulas
        from derivgraph.trees import format_roots

        formatted = []

        def counting(colour, runs):
            runs = list(runs)
            formatted.extend(runs)
            return format_roots(colour, runs)

        def refuse(*args):
            raise AssertionError("cli formatted the terms' trees again")

        monkeypatch.setattr(formulas, "format_roots", counting)
        # cli's one writer is for listings, which formula does not run.
        monkeypatch.setattr(cli, "format_roots", refuse)
        for regime, order, skeleton in [
            ("ode", 8, []),
            ("inverse", 6, []),
            ("composite", 4, ["--skeleton", "F(f(x),g(x))"]),
        ]:
            formatted.clear()
            argv = ["formula", "--regime", regime, "--order", str(order), *skeleton]
            code, out, _ = run(*argv, "--style", "machine")
            terms = json.loads(out)["terms"]
            assert code == 0 and terms
            assert len(formatted) == len(terms)


# The formula cases whose bytes are pinned while every root and record is refused.
NO_ROOT_FORMULAS = [
    ("ode", 1, []),
    ("ode", 5, []),
    ("inverse", 1, []),
    ("inverse", 7, []),
    ("composite", 6, ["--skeleton", "f(g(h(k(x))))"]),
    ("composite", 4, ["--skeleton", "F(f(x),g(h(x),x))"]),
]


def test_formula_builds_no_root_and_no_record(run, monkeypatch):
    # A term is written from its root's children, and its sign and weight
    # come from them too: formula lists no tree and builds no root, no graph
    # record and no formula record, in any style.
    import derivgraph.cli as cli
    from derivgraph import enumeration, formulas
    from derivgraph.trees import Tree

    cases, roots = [], []
    for regime, order, skeleton in NO_ROOT_FORMULAS:
        family = enumeration.family_of(regime, skeleton and parse_skeleton(skeleton[1]))
        for style in ("text", "latex", "machine"):
            argv = ["formula", "--regime", regime, "--order", str(order), "--style", style]
            cases.append(argv + skeleton)
            roots.append((family.palette[family.root], family.measure, order))
    expected = [run(*argv) for argv in cases]
    assert {code for code, _, _ in expected} == {0}

    def refuse(*args, **kwargs):
        raise AssertionError("a root or a record was built")

    monkeypatch.setattr(enumeration._Family, "trees", refuse)
    records = ("enumerate_graphs", "weigh", "DerivativeGraph", "WeightedGraph", "FormulaTerm")
    for module in (enumeration, formulas, cli):
        for name in (*records, "Formula", "render_derivative"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    built = []
    new = Tree.__new__

    def watch(cls, *args):
        node = new(cls, *args)
        if cls is Tree:
            built.append(node)
        return node

    monkeypatch.setattr(Tree, "__new__", watch)
    for argv, result, (colour, measure, order) in zip(cases, expected, roots):
        built.clear()
        assert run(*argv) == result, argv
        assert built or order == 1, argv  # the pool is built while it is watched
        assert not [t for t in built if t.colour == colour and getattr(t, measure) == order]


# The verify cases whose bytes are pinned while every root and record is refused.
NO_ROOT_VERIFIES = [
    ("ode", 1, []),
    ("ode", 6, []),
    ("inverse", 1, []),
    ("inverse", 8, []),
    ("composite", 4, ["--skeleton", "f(g(h(k(x))))"]),
    ("composite", 4, ["--skeleton", "F(f(x),g(h(x),x))"]),
]


@pytest.mark.parametrize("crooked", [False, True], ids=["passing", "crooked"])
def test_verify_builds_no_root_and_no_record(run, monkeypatch, crooked):
    # The oracle's rows come from the roots' children and the coefficient
    # rule: verify lists no tree and builds no root and no graph record,
    # whether it passes or fails and prints every term.
    from fractions import Fraction

    import derivgraph.cli as cli
    from derivgraph import enumeration, oracle
    from derivgraph.trees import Tree

    def heavier(rule):
        return lambda *fields: rule(*fields)[:3] + (rule(*fields)[3] + Fraction(1, 7),)

    if crooked:  # every weight 1/7 too heavy: each run fails and prints its terms
        for regime, rule in list(enumeration._COEFFICIENTS.items()):
            monkeypatch.setitem(enumeration._COEFFICIENTS, regime, heavier(rule))
    cases, roots = [], []
    for regime, order, skeleton in NO_ROOT_VERIFIES:
        family = enumeration.family_of(regime, skeleton and parse_skeleton(skeleton[1]))
        for style in ("text", "machine"):
            argv = ["verify", "--regime", regime, "--order", str(order), "--style", style]
            cases.append(argv + ["--trials", "4"] + skeleton)
            roots.append((family.palette[family.root], family.measure, order))
    expected = [run(*argv) for argv in cases]
    assert {code for code, _, _ in expected} == {int(crooked)}

    def refuse(*args, **kwargs):
        raise AssertionError("a root or a record was built")

    monkeypatch.setattr(enumeration._Family, "trees", refuse)
    for module in (enumeration, oracle, cli):
        for name in ("enumerate_graphs", "weigh", "DerivativeGraph", "WeightedGraph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    built = []
    new = Tree.__new__

    def watch(cls, *args):
        node = new(cls, *args)
        if cls is Tree:
            built.append(node)
        return node

    monkeypatch.setattr(Tree, "__new__", watch)
    for argv, result, (colour, measure, order) in zip(cases, expected, roots):
        built.clear()
        assert run(*argv) == result, argv
        assert built or order == 1, argv  # the pool is built while it is watched
        assert not [t for t in built if t.colour == colour and getattr(t, measure) == order]


# The render_derivative cases: ode 1-8, inverse 1-8, each test skeleton at 1-5.
RENDERED = [
    ("ode", None, range(1, 9)),
    ("inverse", None, range(1, 9)),
    *(("composite", sk, range(1, 6)) for sk in SKELETONS),
]


@pytest.mark.parametrize(
    "regime,skeleton,orders", RENDERED, ids=[f"{r}-{sk}" if sk else r for r, sk, _ in RENDERED]
)
def test_render_derivative_builds_its_records_on_the_formula_terms(run, regime, skeleton, orders):
    # The library adds each term's graph record to the terms that the
    # formula command prints: the weighed graphs, in enumeration order.
    from derivgraph.formulas import render_derivative

    parsed = skeleton and parse_skeleton(skeleton)
    for order in orders:
        weighed = list(map(weigh, enumerate_graphs(regime, order, parsed)))
        argv = ["formula", "--regime", regime, "--order", str(order)]
        argv += ["--skeleton", skeleton] if skeleton else []
        for style in ("text", "latex", "machine"):
            formula = render_derivative(regime, order, style, parsed)
            assert [term.graph for term in formula.terms] == weighed
            assert [term[:2] for term in formula.terms] == [wg[1:] for wg in weighed]
            code, out, err = run(*argv, "--style", style)
            assert (code, err) == (0, "")
            if style == "machine":
                terms = json.loads(out)["terms"]
                assert str(formula) == "\n".join(term["machine"] for term in terms)
            else:
                assert str(formula) + "\n" == out


def test_formula_reports_the_first_error_first(run, capsys):
    # A bad style is argparse's, before anything runs; then order 0, then
    # the missing skeleton.
    argv = ("formula", "--regime", "composite", "--order", "0")
    with pytest.raises(SystemExit) as stopped:
        main([*argv, "--style", "bogus"])
    assert stopped.value.code == 2
    assert "argument --style: invalid choice: 'bogus'" in capsys.readouterr().err
    assert run(*argv) == (1, "", "derivgraph: error: order must be >= 1\n")
    argv = ("formula", "--regime", "composite", "--order", "2")
    assert run(*argv) == (1, "", "derivgraph: error: the composite regime requires --skeleton\n")


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
    # Dg = (Df(g))^-1 is the lone leaf: `trees` and `table` list it, `verify`
    # checks it, and `formula` prints it as its closed form.
    @pytest.mark.parametrize(
        "command, code, out, err",
        [
            ("trees", 0, "*{}\n", ""),
            ("table", 0, "tree  S  tau  sign  weight\n*{}   1  1    +1    1\n", ""),
            ("formula", 0, "(Df(g(y)))⁻¹\n", ""),
            ("verify", 0, "verify regime=inverse order=1 trials=20 seed=0 graphs=1: PASS\n", ""),
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

    def test_file_errors_are_the_whole_line(self, run, tmp_path):
        missing = tmp_path / "missing"
        skeleton, target = str(missing / "skeleton.txt"), str(missing / "trees.txt")
        reason = "[Errno 2] No such file or directory"
        argv = ("trees", "--order", "3", "--regime")
        assert run(*argv, "composite", "--skeleton", f"@{skeleton}") == (
            1,
            "",
            f"derivgraph: error: cannot read skeleton file: {reason}: {skeleton!r}\n",
        )
        assert run(*argv, "ode", "--output", target) == (
            1,
            "",
            f"derivgraph: error: cannot write output: {reason}: {target!r}\n",
        )

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
        env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

        def cli(*argv: str) -> subprocess.CompletedProcess:
            return cli_process(*argv, flags=("-X", "utf8=0"), **env)

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

    @pytest.mark.parametrize(
        "content",
        [
            b"\xef\xbb\xbff(g(x))\n",
            b"f(g(x))\r\n",
            b"\xef\xbb\xbff(g(x))\r\n",
            b"\xef\xbb\xbff(g(x))",
        ],
        ids=["bom", "crlf", "bom-crlf", "bom-no-newline"],
    )
    def test_a_skeleton_file_may_carry_a_bom(self, run, tmp_path, content):
        # Editors on some systems start a UTF-8 file with a byte-order mark and
        # end its lines in CRLF; neither is part of the skeleton.
        sk = tmp_path / "skeleton.txt"
        sk.write_bytes(content)
        argv = ("trees", "--regime", "composite", "--order", "2", "--skeleton")
        expected = run(*argv, "f(g(x))")
        assert expected[0] == 0 and expected[1]
        assert run(*argv, f"@{sk}") == expected


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

        def broken(args, regime, skeleton):
            raise RuntimeError("internal\nfault")

        monkeypatch.setitem(cli._COMMANDS, "trees", (broken, *cli._COMMANDS["trees"][1:]))
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
            (["trees", "--regime", "composite", "--order", "2"], 1),  # the CLI's own check
            (["verify", "--regime", "ode", "--order", "3", "--trials", "0"], 1),  # the library's
        ],
        ids=["exit-0", "cli-error", "value-error"],
    )
    def test_restored_after_each_exit(self, run, caller, argv, code):
        frozen = gc.get_freeze_count()
        returned, _, err = run(*argv)
        assert returned == code
        assert err.startswith("derivgraph: error:") if code else err == ""
        assert gc.isenabled() is caller
        assert gc.get_freeze_count() == frozen  # only the process entry freezes

    def test_restored_after_an_unexpected_exception(self, run, caller, monkeypatch):
        import derivgraph.cli as cli

        seen = []

        def broken(args, regime, skeleton):
            seen.append(gc.isenabled())
            raise RuntimeError("fault")

        monkeypatch.setitem(cli._COMMANDS, "trees", (broken, *cli._COMMANDS["trees"][1:]))
        code, _, err = run("trees", "--regime", "ode", "--order", "3")
        assert (code, err) == (1, "derivgraph: error: RuntimeError: fault\n")
        assert seen == [False]  # paused while the command ran
        assert gc.isenabled() is caller

    def test_restored_after_an_argparse_exit(self, caller, capsys):
        with pytest.raises(SystemExit):
            main(["trees", "--regime", "ode", "--order", "three"])
        assert "invalid int value" in capsys.readouterr().err
        assert gc.isenabled() is caller

    def test_restored_after_an_interrupt(self, caller, monkeypatch, capsys):
        # An interrupt passes through main, to the process entry, which reports it.
        import derivgraph.cli as cli

        def interrupted(args, regime, skeleton):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "trees", (interrupted, *cli._COMMANDS["trees"][1:]))
        with pytest.raises(KeyboardInterrupt):
            main(["trees", "--regime", "ode", "--order", "3"])
        assert capsys.readouterr() == ("", "")
        assert gc.isenabled() is caller


class TestProcessEntry:
    """``python -m derivgraph.cli`` starts at ``run``: what ``main`` prints and returns."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("trees", "--regime", "ode", "--order", "4", "--style", "machine"),
            ("table", "--regime", "inverse", "--order", "5"),
            ("formula", "--regime", "composite", "--skeleton", "F(f(x),g(x))", "--order", "3"),
            ("verify", "--regime", "ode", "--order", "5", "--trials", "3", "--seed", "4"),
            ("table", "--regime", "composite", "--order", "2"),
        ],
        ids=["trees", "table", "formula", "verify", "error"],
    )
    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    def test_prints_and_exits_as_main_returns(self, run, argv, flags):
        done = cli_process(*argv, flags=flags, PYTHONUTF8="1")
        code, out, err = run(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
        assert code or out

    def test_writes_the_output_file_of_main(self, run, tmp_path):
        argv = ("formula", "--regime", "ode", "--order", "5", "--style", "latex", "--output")
        done = cli_process(*argv, str(tmp_path / "process.tex"))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert run(*argv, str(tmp_path / "main.tex")) == (0, "", "")
        assert (tmp_path / "process.tex").read_bytes() == (tmp_path / "main.tex").read_bytes()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["trees", "--regime", "ode", "--order", "3"], 0),
            (["trees", "--regime", "composite", "--order", "2"], 1),
            (["trees", "--regime", "ode", "--order", "three"], 2),  # argparse exits
        ],
        ids=["exit-0", "cli-error", "usage-error"],
    )
    def test_the_process_exits_frozen(self, argv, code):
        # The interpreter's shutdown collections pass over frozen objects.
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv = ['derivgraph', *{argv!r}]\n"
            "runpy.run_module('derivgraph.cli', run_name='__main__')\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True)
        assert done.returncode == code, done.stderr
        assert done.stdout == (b"" if code else b"*{*{*{}}}\n*{*{},*{}}\n")
        name, count = done.stderr.splitlines()[-1].split()
        assert name == b"frozen" and int(count) > 0

    def test_an_interrupt_is_one_line_and_status_130(self, monkeypatch, capsys):
        # Ctrl-C ends the process as the shell reports SIGINT, without a traceback.
        import derivgraph.cli as cli

        def interrupted(argv=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", interrupted)
        frozen = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as stopped:
                cli.run()
            assert gc.get_freeze_count() > frozen  # the usual step after main ran
        finally:
            gc.unfreeze()
        assert stopped.value.code == 130
        assert capsys.readouterr() == ("", "derivgraph: error: interrupted\n")


def unwritable(number: int) -> str:
    """The one stderr line for output refused with errno ``number``."""
    return f"derivgraph: error: cannot write output: [Errno {number}] {os.strerror(number)}\n"


class TestUnwritableStdout:
    """A stdout that takes no more bytes is reported as an unwritable ``--output`` is."""

    # Trees fit in the stdout buffer and fail at the flush; the table fails in the write.
    # Argparse writes its help inside ``main`` and exits, so ``run`` reports it.
    ARGV = {
        "small": ("trees", "--regime", "ode", "--order", "3"),
        "large": ("table", "--regime", "ode", "--order", "10"),
        "help": ("--help",),
    }

    @pytest.fixture(params=["closed-pipe", "full-device"])
    def stdout(self, request):
        """A file descriptor that refuses every write, and the errno it refuses with."""
        if request.param == "full-device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            with open("/dev/full", "wb") as full:
                yield full.fileno(), errno.ENOSPC
        else:
            read, write = os.pipe()
            os.close(read)  # the reader is gone before the writer starts
            try:
                yield write, errno.EPIPE
            finally:
                os.close(write)

    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("size", sorted(ARGV))
    def test_one_line_error(self, stdout, size, flags):
        fd, number = stdout
        done = cli_process(*self.ARGV[size], flags=flags, stdout=fd)
        # One line, and no second report from the interpreter's final flush.
        assert (done.returncode, done.stderr) == (1, unwritable(number).encode())

    def test_main_reports_what_it_cannot_flush(self):
        # In process too: ``main`` flushes what it writes, so ``run`` after it
        # has only argparse's help left to report.
        class Gone(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        with redirect_stdout(Gone()), redirect_stderr(err):
            code = main(list(self.ARGV["small"]))
        assert (code, err.getvalue()) == (1, unwritable(errno.EPIPE))

    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    def test_a_usage_error_keeps_its_status(self, stdout, flags):
        argv = ("trees", "--regime", "ode", "--order", "three")
        done = cli_process(*argv, flags=flags, stdout=stdout[0])
        assert done.returncode == 2
        assert done.stderr.endswith(b"invalid int value: 'three'\n")
        assert b"cannot write output" not in done.stderr

    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    def test_a_reader_that_leaves_mid_write(self, flags):
        # The ode-12 table (375,824 bytes) is larger than a pipe's buffer, so
        # the child is still writing when its reader leaves after 100 bytes.
        argv = ("table", "--regime", "ode", "--order", "12", "--max-order", "12")
        command = [sys.executable, *flags, "-m", "derivgraph.cli", *argv]
        read, write = os.pipe()
        child = subprocess.Popen(command, env=child_env(), stdout=write, stderr=subprocess.PIPE)
        os.close(write)
        with open(read, "rb") as reader:
            assert len(reader.read(100)) == 100
        _, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (1, unwritable(errno.EPIPE).encode())

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
    def test_no_stdout_is_one_line(self, tmp_path, output):
        # Started with file descriptor 1 closed, the interpreter has no sys.stdout.
        file = tmp_path / "trees.txt"
        argv = [*self.ARGV["small"], *(["--output", str(file)] if output else [])]
        command = [sys.executable, "-m", "derivgraph.cli", *argv]
        done = subprocess.run(
            command, env=child_env(), stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1)
        )
        if output:  # only data for stdout needs one
            assert (done.returncode, done.stderr) == (0, b"")
            assert file.read_text(encoding="utf-8") == "*{*{*{}}}\n*{*{},*{}}\n"
        else:
            assert (done.returncode, done.stderr) == (1, unwritable(errno.EBADF).encode())


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
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("tree  ")
    added = set(done.stderr.split())
    assert "derivgraph.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}, sorted(added)


@pytest.mark.parametrize(
    "command, own",
    [
        ("trees", set()),
        ("table", set()),
        ("formula", {"formulas"}),
        # Every regime's trials run on ints: no Fraction jets.
        ("verify", {"oracle"}),
        ("verify --regime inverse", {"oracle"}),
        ("verify --regime composite --skeleton f(g(x))", {"oracle", "composite_draw", "skeletons"}),
    ],
)
def test_each_subcommand_imports_only_its_modules(command, own):
    # The regime is ode unless the command names another: the last --regime wins.
    subcommand, *options = command.split()
    shared = {"enumeration", "trees"}
    assert derivgraph_imports(subcommand, "--regime", "ode", *options) == shared | own


def test_a_passing_ode_or_inverse_verify_imports_no_fractions_or_jets():
    # A fresh interpreter: the trials of every regime compare ints, so
    # neither fractions (nor decimal, which it imports) nor derivgraph.jets
    # is loaded, and only the composite regime loads its draw.
    code = (
        "import sys\n"
        "import derivgraph.cli\n"
        "for regime in ('inverse', 'ode'):\n"
        "    argv = ['verify', '--regime', regime, '--order', '8', '--seed', '5']\n"
        "    assert derivgraph.cli.main(argv) == 0, argv\n"
        "    assert 'derivgraph.composite_draw' not in sys.modules, argv\n"
        "argv = ['verify', '--regime', 'composite', '--skeleton', 'F(f(x),g(h(x),x))']\n"
        "assert derivgraph.cli.main(argv + ['--order', '5']) == 0, argv\n"
        "sys.stderr.write(' '.join(sorted(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("PASS") == 3, done.stdout
    loaded = set(done.stderr.split())
    assert {"derivgraph.oracle", "derivgraph.composite_draw"} <= loaded
    assert not loaded & {"fractions", "decimal", "derivgraph.jets"}, sorted(loaded)


@pytest.mark.parametrize("named", [True, False], ids=["pythonpath", "checkout"])
def test_conftest_puts_the_checkout_after_pythonpath(tmp_path, named):
    # PYTHONPATH=<other checkout>/src tests the package it names: here a
    # marked stand-in.  Without PYTHONPATH the suite tests this checkout.
    copy = tmp_path / "src" / "derivgraph" / "__init__.py"
    copy.parent.mkdir(parents=True)
    copy.write_text("")
    tests = Path(__file__).resolve().parent
    code = f"import sys; sys.path.insert(0, {str(tests)!r}); import conftest, derivgraph; "
    code += "print(derivgraph.__file__)"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if named:
        env["PYTHONPATH"] = str(copy.parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    checkout = tests.parent / "src" / "derivgraph" / "__init__.py"
    assert Path(done.stdout.strip()).resolve() == (copy if named else checkout).resolve()


def derivgraph_imports(*argv: str) -> set[str]:
    """The derivgraph submodules that ``argv --order 3`` imports in a fresh process."""
    # ``-X importtime`` names on stderr every module the child imports after
    # the interpreter has started.
    done = cli_process(*argv, "--order", "3", flags=("-X", "importtime"))
    assert done.returncode == 0 and done.stdout, done.stderr
    lines = done.stderr.decode().splitlines()
    added = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "derivgraph" in added
    return {m.removeprefix("derivgraph.") for m in added if m.startswith("derivgraph.")}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("trees", "--regime", "composite", "--skeleton", "f(x)"), True),
        (("formula", "--regime", "composite", "--skeleton", "f(g(x))"), True),
        # Another regime ignores --skeleton without parsing it.
        (("table", "--regime", "ode", "--skeleton", "f(x)"), False),
        (("verify", "--regime", "inverse", "--trials", "2"), False),
        (("formula", "--regime", "inverse"), False),
    ],
)
def test_only_the_composite_regime_imports_skeletons(argv, loads):
    assert ("skeletons" in derivgraph_imports(*argv)) is loads


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(derivgraph.__all__) <= set(dir(derivgraph))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        derivgraph.no_such_name
    assert not hasattr(derivgraph, "no_such_name")


PUBLIC_NAMES = """
    Colour DEFAULT_COLOUR DerivativeGraph Formula FormulaTerm Regime Report
    Skeleton SkeletonSyntaxError Tree TreeSyntaxError WeightedGraph canonicalize
    compare_trees enumerate_composite enumerate_graphs enumerate_inverse
    enumerate_ode format_trees make_palette parse_machine_term parse_skeleton
    parse_tree render_derivative verify weigh
""".split()

# Deleted names, each with the module that defined it (for the deleted modules
# ``weights`` and ``jets``, the module that took their code or holds the
# kernels they wrapped): no lookup may find one.
REMOVED_NAMES = [
    ("composite_draw", "compose"),
    ("composite_draw", "identity_jet"),
    ("enumeration", "totally_asymmetric"),
    ("enumeration", "totally_symmetric"),
    ("formulas", "render_term"),
    ("oracle", "Jet"),
    ("oracle", "jet_ode_flow"),
    ("oracle", "jet_reverse"),
    ("trees", "LEAF"),
    ("trees", "format_tree"),
    ("trees", "tree_from_dict"),
    ("trees", "tree_to_dict"),
]


def test_public_surface_is_pinned():
    assert sorted(derivgraph.__all__) == sorted(PUBLIC_NAMES) and len(PUBLIC_NAMES) == 26
    for name in PUBLIC_NAMES:
        getattr(derivgraph, name)
    for module, name in REMOVED_NAMES:
        with pytest.raises(AttributeError):
            getattr(derivgraph, name)
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(f"derivgraph.{module}"), name)


def test_the_brute_force_references_take_only_tree_from_the_package():
    # tests/brute.py cross-checks the package: it may build trees with its
    # Tree, and must share no algorithm or series class with it.
    source = (Path(__file__).resolve().parent / "brute.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.name, None) for a in node.names}
    assert {(m, n) for m, n in imported if m.split(".")[0] == "derivgraph"} == {
        ("derivgraph.trees", "Tree")
    }


def annotation_names(node: ast.AST):
    """Every name an annotation reads; a string annotation is parsed first."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from annotation_names(ast.parse(sub.value, mode="eval"))
        elif isinstance(sub, ast.Name):
            yield sub.id


@pytest.mark.parametrize(
    "path", sorted(Path(derivgraph.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_annotated_name_is_bound_in_its_module(path):
    # A type checker resolves each annotation in its module: every name it
    # reads is a builtin or bound at module level, by an import, assignment
    # or definition, directly or under ``if TYPE_CHECKING:``.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            body += node.body
    bound = set(dir(builtins))
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    read = {name for a in annotations if a is not None for name in annotation_names(a)}
    assert read - bound == set()


@pytest.mark.parametrize(
    "first",
    [
        "",
        "import derivgraph.oracle",
        "importlib.import_module('derivgraph.oracle')",
        "derivgraph.cli.main(['verify', '--regime', 'ode', '--order', '3'])",
        "from derivgraph import *",
    ],
)
def test_verify_is_the_function_in_every_import_order(first):
    # The function lives in ``derivgraph.oracle``; no submodule is named after it.
    script = (
        "import importlib, types\n"
        "import derivgraph, derivgraph.cli\n"
        f"{first}\n"
        "from derivgraph import verify\n"
        "assert isinstance(verify, types.FunctionType), verify\n"
        "assert verify.__module__ == 'derivgraph.oracle' and derivgraph.verify is verify\n"
        "try:\n"
        "    import derivgraph.verify\n"
        "except ModuleNotFoundError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('derivgraph.verify imported as a module')\n"
        "assert derivgraph.verify is verify, derivgraph.verify\n"
        "assert importlib.import_module('derivgraph.oracle').verify is verify\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
