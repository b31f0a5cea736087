"""Command-line front end: tree listings, weight tables, formulas, oracle runs.

Data goes to stdout, or to ``--output`` in UTF-8; diagnostics go to stderr.
The ``machine`` style emits JSON, with formula terms additionally carrying
the stable parenthesized term grammar.  Output is byte-identical for
identical arguments and seed.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .enumeration import DerivativeGraph, Regime, enumerate_graphs
from .formulas import render_derivative
from .skeletons import Skeleton, SkeletonSyntaxError, parse_skeleton
from .trees import format_trees
from .verify import verify
from .weights import weigh

DEFAULT_MAX_ORDER = 10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivgraph",
        description="Virtual-graph calculus for higher derivatives of "
        "composed, inverse and ODE-flow functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--regime", required=True, choices=[r.value for r in Regime]
        )
        p.add_argument("--order", "-n", required=True, type=int)
        p.add_argument(
            "--skeleton",
            help="composite-regime skeleton, inline like 'f(g(x))' or @file",
        )
        p.add_argument("--output", help="write data here instead of stdout")
        p.add_argument(
            "--max-order",
            type=int,
            default=DEFAULT_MAX_ORDER,
            help=f"enumeration guard, default {DEFAULT_MAX_ORDER}",
        )

    p_trees = sub.add_parser("trees", help="list canonical trees in natural order")
    common(p_trees)
    p_trees.add_argument("--style", choices=["text", "machine"], default="text")

    p_table = sub.add_parser("table", help="tree, S, tau, sign and weight columns")
    common(p_table)
    p_table.add_argument("--style", choices=["text", "machine"], default="text")

    p_formula = sub.add_parser("formula", help="emit the symbolic derivative")
    common(p_formula)
    p_formula.add_argument("--style", choices=["text", "latex", "machine"], default="text")

    p_verify = sub.add_parser("verify", help="compare graphs against the jet oracle")
    common(p_verify)
    p_verify.add_argument("--style", choices=["text", "machine"], default="text")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


class _CliError(Exception):
    pass


def _load_skeleton(args: argparse.Namespace, regime: Regime) -> Skeleton | None:
    if regime is not Regime.COMPOSITE:
        return None
    if not args.skeleton:
        raise _CliError("the composite regime requires --skeleton")
    text = args.skeleton
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8").strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read skeleton file: {exc}") from exc
    try:
        return parse_skeleton(text)
    except SkeletonSyntaxError as exc:
        raise _CliError(f"bad skeleton syntax: {exc}") from exc


def _check_order(args: argparse.Namespace) -> None:
    if args.order < 1:
        raise _CliError("order must be >= 1")
    if args.order > args.max_order:
        raise _CliError(
            f"order {args.order} exceeds the supported limit {args.max_order}; "
            "raise it explicitly with --max-order"
        )


def _emit(args: argparse.Namespace, data: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(data, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(data)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    import json  # only the machine style needs it: kept off start-up

    _emit(args, json.dumps(payload, indent=2) + "\n")


def _listed_graphs(args: argparse.Namespace, regime: Regime) -> list[DerivativeGraph]:
    """The graphs that ``trees`` and ``table`` list.

    Inverse order 1 has no graph: its derivative is the closed form
    (Df(g(y)))⁻¹, which ``formula`` prints and ``verify`` checks.
    """
    if regime is Regime.INVERSE and args.order == 1:
        raise _CliError(
            "inverse order 1 has no graph to list; "
            "`formula --regime inverse --order 1` prints its closed form"
        )
    return enumerate_graphs(regime, args.order, _load_skeleton(args, regime))


def _cmd_trees(args: argparse.Namespace) -> int:
    regime = Regime(args.regime)
    lines = format_trees(g.tree for g in _listed_graphs(args, regime))
    if args.style == "machine":
        payload = {"regime": regime.value, "order": args.order, "trees": lines}
        _emit_json(args, payload)
    else:
        _emit(args, "".join(line + "\n" for line in lines))
    return 0


_COLUMNS = ("tree", "S", "tau", "sign", "weight")


def _table_rows(graphs: list[DerivativeGraph], regime: Regime) -> list[tuple]:
    """One (tree text, S, tau, sign, weight text) tuple per graph."""
    ode = regime is Regime.ODE
    return [
        (text, g.tree.symmetry, g.tree.complexity if ode else 1, wg.sign, str(wg.weight))
        for text, g, wg in zip(format_trees(g.tree for g in graphs), graphs, map(weigh, graphs))
    ]


def _cmd_table(args: argparse.Namespace) -> int:
    regime = Regime(args.regime)
    # The graphs, and with them the interned trees, are released before the
    # layout: holding them through it raises the peak memory.
    rows = _table_rows(_listed_graphs(args, regime), regime)
    if args.style == "machine":
        rows = [dict(zip(_COLUMNS, row)) for row in rows]
        payload = {"regime": regime.value, "order": args.order, "rows": rows}
        _emit_json(args, payload)
        return 0
    # Left-aligned columns two spaces apart.  The last is not padded, so no
    # line ends in a blank, and a sign (+1 or -1) is narrower than its header.
    # S and tau are positive ints: the widest is the largest.
    texts, symmetries, taus = list(zip(*rows))[:3] or [()] * 3
    widths = (
        max(len("tree"), max(map(len, texts), default=0)),
        max(len("S"), len(str(max(symmetries, default=0)))),
        max(len("tau"), len(str(max(taus, default=0)))),
    )
    header = "".join(h.ljust(w) + "  " for h, w in zip(_COLUMNS, widths)) + "sign  weight\n"
    line = "%%-%ds  %%-%dd  %%-%dd  %%+-4d  %%s\n" % widths
    _emit(args, header + "".join(map(line.__mod__, rows)))
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    regime = Regime(args.regime)
    skeleton = _load_skeleton(args, regime)
    formula = render_derivative(regime, args.order, args.style, skeleton)
    if args.style == "machine":
        trees = iter(format_trees(t.graph.graph.tree for t in formula.terms if t.graph))
        payload = {
            "regime": regime.value,
            "order": args.order,
            "terms": [
                {
                    "sign": term.sign,
                    "weight": str(term.weight),
                    "tree": next(trees) if term.graph else None,
                    "machine": term.text,
                }
                for term in formula.terms
            ],
        }
        _emit_json(args, payload)
    else:
        _emit(args, str(formula) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    regime = Regime(args.regime)
    skeleton = _load_skeleton(args, regime)
    report = verify(regime, args.order, args.trials, args.seed, skeleton)
    if args.style == "machine":
        _emit_json(args, report.to_dict())
    else:
        _emit(args, report.to_text() + "\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "trees": _cmd_trees,
    "table": _cmd_table,
    "formula": _cmd_formula,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    # The interned trees, their tuples and their weights never form a cycle,
    # yet the cyclic collector would walk them again and again as they pile
    # up.  So the command runs with it paused, and the caller gets back the
    # state it had.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            _check_order(args)
            return _COMMANDS[args.command](args)
        except (_CliError, ValueError) as exc:
            print(f"derivgraph: error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            # Anything else is a defect, but it still ends in one line, not a
            # traceback; the type name says which defect.
            detail = " ".join(str(exc).split())
            print(f"derivgraph: error: {type(exc).__name__}: {detail}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
