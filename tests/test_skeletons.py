import copy
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivgraph import skeletons, trees
from derivgraph.cli import main
from derivgraph.enumeration import Regime, enumerate_composite, family_of, weigh
from derivgraph.formulas import parse_machine_term, render_derivative
from derivgraph.oracle import verify
from derivgraph.skeletons import (
    Skeleton,
    SkeletonSyntaxError,
    parse_skeleton,
    positions,
)
from derivgraph.trees import Colour, Tree, TreeSyntaxError, make_palette, parse_tree

DEPTH = 10_000


def palette_names(skeleton: Skeleton) -> list[str]:
    """The composite palette's labels in colour order: variables first."""
    return [c.name for c in family_of(Regime.COMPOSITE, skeleton).palette]


def deep_chain() -> tuple[str, Skeleton]:
    """The chain f0(f1(...f9999(x)...)) as text and as built with Skeleton(...)."""
    built = Skeleton("x")
    for i in reversed(range(DEPTH)):
        built = Skeleton(f"f{i}", (built,), function=True)
    return "".join(f"f{i}(" for i in range(DEPTH)) + "x" + ")" * DEPTH, built


class TestParse:
    def test_nested_application(self):
        s = parse_skeleton("f(g(x),h(x,y))")
        assert str(s) == "f(g(x),h(x,y))"
        assert s.arity == 2
        assert s.children[1].children[1].is_variable

    def test_base_variable_order(self):
        assert palette_names(parse_skeleton("f(g(x),h(x,y))")) == ["x", "y", "f", "g", "h"]

    def test_whitespace_tolerated(self):
        assert str(parse_skeleton(" f( g( x ) ) ")) == "f(g(x))"

    def test_nullary_function_versus_variable(self):
        s = parse_skeleton("f(c(),x)")
        assert s.children[0].function and s.children[0].arity == 0
        assert s.children[1].is_variable

    def test_error_position(self):
        with pytest.raises(SkeletonSyntaxError) as err:
            parse_skeleton("f(g(x)")
        assert err.value.position == 6

    def test_nesting_limit(self):
        # There is none: a skeleton nests as deep as its text, and no walk recurses.
        text, built = deep_chain()
        s = parse_skeleton(text)
        assert s is built and str(s) == text and hash(s) == hash(built)
        assert pickle.loads(pickle.dumps(s)) is s and copy.deepcopy(s) is s
        assert palette_names(s) == ["x"] + [f"f{i}" for i in range(DEPTH)]
        graphs = enumerate_composite(s, 1)
        assert len(graphs) == 1 and graphs[0].tree.vertices == DEPTH + 1
        assert verify(Regime.COMPOSITE, 1, trials=2, skeleton=s).passed

    def test_root_must_be_function(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("x")

    def test_variable_with_children_rejected(self):
        with pytest.raises(ValueError):
            Skeleton("x", (Skeleton("y"),), function=False)

    @pytest.mark.parametrize("name", ["a,b", "a b", "", "1f", "f()"])
    def test_names_are_identifiers(self, name):
        # F(a,b) would print text that parses back to another skeleton, and a
        # space would print machine terms that do not parse.
        with pytest.raises(ValueError, match="is not an identifier"):
            Skeleton(name)
        with pytest.raises(ValueError, match="is not an identifier"):
            Skeleton(name, (Skeleton("x"),), function=True)


class TestInterning:
    def test_equal_skeletons_are_the_same_node(self):
        s = parse_skeleton("F(f(x),f(x))")
        assert s is Skeleton("F", (Skeleton("f", (Skeleton("x"),), True),) * 2, True)
        assert s.children[0] is s.children[1]

    def test_copies_return_the_node(self):
        for text in ("f(g(x))", "F(f(x),f(x))", "F(c(),x,y)"):
            s = parse_skeleton(text)
            assert pickle.loads(pickle.dumps(s)) is s
            assert copy.deepcopy(s) is s and copy.copy(s) is s

    def test_apart_from_trees_of_the_same_colours(self):
        s = Skeleton("f", (Skeleton("x"),), function=True)
        t = Tree(Colour(1, "f"), (Tree(Colour(0, "x")),))
        assert s is not t and s.children[0] is not t.children[0]
        assert str(s) == "f(x)" and str(t) == "f{x{}}"
        # The composite graph f{x{}} of the skeleton f(x) is a tree.
        (graph,) = enumerate_composite(s, 1)
        assert type(graph.tree) is Tree and graph.tree is t
        (term,) = render_derivative(Regime.COMPOSITE, 1, "machine", s).terms
        assert parse_machine_term(term.text, s) == weigh(graph)


# Malformed skeletons: (text, message, position).
MALFORMED_SKELETONS = [
    ("", "expected an identifier", 0),
    ("  ", "expected an identifier", 2),
    ("(x)", "expected an identifier", 0),
    ("1f(x)", "expected an identifier", 0),
    ("f(x", "expected ',' or ')'", 3),
    ("f(g(x)", "expected ',' or ')'", 6),
    ("f(x;y)", "expected ',' or ')'", 3),
    ("f(x,)", "expected an identifier", 4),
    ("f(,x)", "expected an identifier", 2),
    ("f(x) g", "trailing input after skeleton", 5),
    ("f(x))", "trailing input after skeleton", 4),
    ("x", "skeleton root must be a function", 0),
    ("x y", "trailing input after skeleton", 2),
]


@pytest.mark.parametrize("text,message,position", MALFORMED_SKELETONS)
def test_parse_skeleton_error_is_pinned(text, message, position):
    with pytest.raises(SkeletonSyntaxError) as err:
        parse_skeleton(text)
    assert type(err.value) is SkeletonSyntaxError
    assert isinstance(err.value, TreeSyntaxError)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text,message,position", [c for c in MALFORMED_SKELETONS if c[0]])
def test_cli_reports_skeleton_error_in_one_line(text, message, position, capsys):
    argv = ["formula", "--regime", "composite", "--order", "2", "--skeleton", text]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"derivgraph: error: bad skeleton syntax: {message} (at position {position})\n"


class TestContext:
    def test_variables_rank_before_functions(self):
        assert palette_names(parse_skeleton("F(f(x),g(x))")) == ["x", "F", "f", "g"]

    def test_repeated_function_names_disambiguated(self):
        assert {"f", "f.2"} <= set(palette_names(parse_skeleton("F(f(x),f(x))")))

    def test_evaluation_points(self):
        # Each function is evaluated at its undifferentiated arguments.
        formula = render_derivative(Regime.COMPOSITE, 1, skeleton=parse_skeleton("f(g(x))"))
        assert str(formula) == "f′(g(x))·g′(x)"


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


def applications(args):
    """A named function over up to three arguments drawn from ``args``."""
    return st.builds(
        lambda name, kids: Skeleton(name, tuple(kids), function=True),
        NAMES,
        st.lists(args, max_size=3),
    )


SKELETONS = applications(st.recursive(NAMES.map(Skeleton), applications, max_leaves=8))


# Text near both grammars: their brackets, separators, names and spaces.
NEAR_SYNTAX = st.text(alphabet="fgx*_.1(){},; \t", max_size=30)


class TestParserProperties:
    @settings(max_examples=300, deadline=None)
    @given(SKELETONS)
    def test_str_round_trips(self, s):
        assert parse_skeleton(str(s)) is s

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(NEAR_SYNTAX, st.text(max_size=30)))
    def test_fuzzed_input_raises_only_syntax_errors(self, text):
        try:
            parse_skeleton(text)
        except SkeletonSyntaxError:
            pass
        for palette in (None, make_palette("*", "f", "x")):
            try:
                parse_tree(text, palette)
            except TreeSyntaxError:
                pass


# Parses the d-deep chain f0(f1(...f{d-1}(x)...)) and prints the peak RSS of
# its own address space in KiB.  VmHWM, not ru_maxrss: a child started from a
# large parent inherits the parent's peak in ru_maxrss at exec.
_PEAK_RSS = """
import sys
from derivgraph.skeletons import parse_skeleton
d = int(sys.argv[1])
s = parse_skeleton("".join(f"f{i}(" for i in range(d)) + "x" + ")" * d)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class TestMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_rss_of_parse_skeleton_grows_linearly(self):
        # A skeleton node keeps its colour and children, no counts, S or tau:
        # a tau per node, k! at depth k, made this quadratic (368 MiB at 20,000).
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}

        def peak_kib(depth: int) -> int:
            command = [sys.executable, "-c", _PEAK_RSS, str(depth)]
            return int(subprocess.run(command, env=env, capture_output=True, check=True).stdout)

        peaks = [peak_kib(d) for d in (10_000, 20_000, 40_000)]
        assert all(b <= 2.2 * a for a, b in zip(peaks, peaks[1:])), peaks
        assert peaks[1] < 64 * 1024, peaks

    def test_dropped_skeletons_leave_at_most_the_latest_interned(self):
        # The composite family cache holds one skeleton, the latest: the ones
        # before it, their families and their graphs leave the intern table.
        skeletons._composite_family.cache_clear()
        gc.collect()
        baseline = set(trees._INTERNED)
        for i in range(200):
            s = parse_skeleton(f"F{i}(f{i}(x{i}),g(x{i},y),h{i}())")
            graphs = enumerate_composite(s, 3)
            assert graphs and len(trees._INTERNED) > len(baseline)
        latest = {(type(n), str(n)) for _, n in positions(s)}
        del s, graphs
        gc.collect()
        left = [ref() for ident, ref in trees._INTERNED.items() if ident not in baseline]
        assert len(left) <= len(latest) and {(type(n), str(n)) for n in left} <= latest
        del left  # the nodes themselves
        skeletons._composite_family.cache_clear()
        gc.collect()
        assert set(trees._INTERNED) == baseline
