import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivgraph.cli import main
from derivgraph.enumeration import composite_context
from derivgraph.skeletons import (
    MAX_NESTING,
    Skeleton,
    SkeletonSyntaxError,
    base_variables,
    parse_skeleton,
)
from derivgraph.trees import TreeSyntaxError, make_palette, parse_tree


class TestParse:
    def test_nested_application(self):
        s = parse_skeleton("f(g(x),h(x,y))")
        assert str(s) == "f(g(x),h(x,y))"
        assert s.arity == 2
        assert s.children[1].children[1].is_variable

    def test_base_variable_order(self):
        assert base_variables(parse_skeleton("f(g(x),h(x,y))")) == ["x", "y"]

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
        deepest = parse_skeleton("f(" * MAX_NESTING + "x" + ")" * MAX_NESTING)
        assert deepest.children[0].name == "f"
        with pytest.raises(SkeletonSyntaxError) as err:
            parse_skeleton("f(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
        assert err.value.position == 2 * MAX_NESTING + 1

    def test_root_must_be_function(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("x")

    def test_variable_with_children_rejected(self):
        with pytest.raises(ValueError):
            Skeleton("x", (Skeleton("y"),), function=False)


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
    ("f(" * (MAX_NESTING + 1) + "x", f"nesting deeper than {MAX_NESTING}", 2 * MAX_NESTING + 1),
]


@pytest.mark.parametrize("text,message,position", MALFORMED_SKELETONS)
def test_parse_skeleton_error_is_pinned(text, message, position):
    with pytest.raises(SkeletonSyntaxError) as err:
        parse_skeleton(text)
    assert type(err.value) is SkeletonSyntaxError
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
        ctx = composite_context(parse_skeleton("F(f(x),g(x))"))
        names = sorted(ctx.palette, key=lambda n: ctx.palette[n].index)
        assert names == ["x", "F", "f", "g"]

    def test_repeated_function_names_disambiguated(self):
        ctx = composite_context(parse_skeleton("F(f(x),f(x))"))
        assert {"f", "f.2"} <= set(ctx.palette)

    def test_evaluation_points(self):
        ctx = composite_context(parse_skeleton("f(g(x))"))
        assert ctx.point[ctx.palette["f"].index] == "g(x)"
        assert ctx.point[ctx.palette["g"].index] == "x"


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
        assert parse_skeleton(str(s)) == s

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
