"""Command-line front end: tree listings, weight tables, formulas, oracle runs.

Data goes to stdout, or to ``--output`` in UTF-8; diagnostics go to stderr.
The ``machine`` style emits JSON, with formula terms additionally carrying
the stable parenthesized term grammar.  Output is byte-identical for
identical arguments and seed.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from operator import itemgetter
from typing import TYPE_CHECKING

from .enumeration import Regime, _request
from .trees import format_roots

if TYPE_CHECKING:
    from .skeletons import Skeleton

DEFAULT_MAX_ORDER = 10


def _load_skeleton(args: argparse.Namespace, regime: Regime) -> Skeleton | None:
    if regime is not Regime.COMPOSITE:
        return None
    if not args.skeleton:
        raise ValueError("the composite regime requires --skeleton")
    text = args.skeleton
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8-sig") as file:  # a BOM is not the skeleton's
                text = file.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read skeleton file: {exc}") from exc
    from .skeletons import SkeletonSyntaxError, parse_skeleton  # only composite reads one

    try:
        return parse_skeleton(text)
    except SkeletonSyntaxError as exc:
        raise ValueError(f"bad skeleton syntax: {exc}") from exc


def _check_order(args: argparse.Namespace) -> None:
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if args.order > args.max_order:
        raise ValueError(
            f"order {args.order} exceeds the supported limit {args.max_order}; "
            "raise it explicitly with --max-order"
        )


# A command returns its exit code and its document: the text to write, or for
# ``--style machine`` the object that ``main`` writes as JSON.  ``formula`` and
# ``verify`` import their modules when they run, so the other commands start
# without them.  No command builds a graph record or an order-n root: a
# row, a term or an oracle row, its S, tau, sign and weight too, comes from
# its root's children.


def _listing(args: argparse.Namespace, regime: Regime, skeleton: Skeleton | None):
    """Each order-n root's text, and lazily its (S, tau column, sign, weight)."""
    family, runs, coefficients = _request(regime, args.order, skeleton)
    return format_roots(family.palette[family.root], runs), coefficients


def _cmd_trees(args: argparse.Namespace, regime: Regime, skeleton: Skeleton | None):
    lines = _listing(args, regime, skeleton)[0]
    if args.style == "machine":
        return 0, {"regime": regime.value, "order": args.order, "trees": lines}
    return 0, "".join(line + "\n" for line in lines)


_COLUMNS = ("tree", "S", "tau", "sign", "weight")


def _cmd_table(args: argparse.Namespace, regime: Regime, skeleton: Skeleton | None):
    # One (tree text, S, tau, sign, weight) tuple per root.  The runs, and the
    # interned trees they hold, are released before the layout: holding them
    # through it raises the peak memory.
    rows = [(text,) + row for text, row in zip(*_listing(args, regime, skeleton))]
    if args.style == "machine":
        rows = [dict(zip(_COLUMNS, row[:4]), weight=str(row[4])) for row in rows]
        return 0, {"regime": regime.value, "order": args.order, "rows": rows}
    # Left-aligned columns two spaces apart.  The last is not padded, so no
    # line ends in a blank, and a sign (+1 or -1) is narrower than its header.
    # S and tau are positive ints: the widest is the largest.
    widths = (
        max(len("tree"), max(map(len, map(itemgetter(0), rows)), default=0)),
        max(len("S"), len(str(max(map(itemgetter(1), rows), default=0)))),
        max(len("tau"), len(str(max(map(itemgetter(2), rows), default=0)))),
    )
    header = "".join(h.ljust(w) + "  " for h, w in zip(_COLUMNS, widths)) + "sign  weight\n"
    line = "%%-%ds  %%-%dd  %%-%dd  %%+-4d  %%s\n" % widths
    return 0, header + "".join(map(line.__mod__, rows))


def _cmd_formula(args: argparse.Namespace, regime: Regime, skeleton: Skeleton | None):
    from .formulas import _join, _terms

    rows = _terms(regime, args.order, args.style, skeleton)[2]
    if args.style != "machine":
        return 0, _join(args.style, rows) + "\n"
    # A machine term ends "(tree T))", and T has no space: each tree is formatted once.
    trees = [text[text.rindex(" ") + 1 : -2] for _, _, text in rows]
    terms = [
        {"sign": sign, "weight": str(weight), "tree": tree, "machine": text}
        for (sign, weight, text), tree in zip(rows, trees)
    ]
    return 0, {"regime": regime.value, "order": args.order, "terms": terms}


def _cmd_verify(args: argparse.Namespace, regime: Regime, skeleton: Skeleton | None):
    from .oracle import verify

    report = verify(regime, args.order, args.trials, args.seed, skeleton)
    document = report.to_dict() if args.style == "machine" else report.to_text() + "\n"
    return 0 if report.passed else 1, document


# Each subcommand: its command, its help line, its styles (the default first)
# and its own integer options with their defaults.
_COMMANDS = {
    "trees": (_cmd_trees, "list canonical trees in natural order", ("text", "machine"), ()),
    "table": (_cmd_table, "tree, S, tau, sign and weight columns", ("text", "machine"), ()),
    "formula": (_cmd_formula, "emit the symbolic derivative", ("text", "latex", "machine"), ()),
    "verify": (
        _cmd_verify,
        "compare graphs against the jet oracle",
        ("text", "machine"),
        (("--trials", 20), ("--seed", 0)),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivgraph",
        description="Virtual-graph calculus for higher derivatives of "
        "composed, inverse and ODE-flow functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, styles, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--regime", required=True, choices=[r.value for r in Regime])
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
        p.add_argument("--style", choices=styles, default=styles[0])
        for option, default in options:
            p.add_argument(option, type=int, default=default)
    return parser


def _write(path: str | None, text: str) -> None:
    """Write data: to the file ``path`` in UTF-8, or to stdout, flushed.

    The flush is here, so that a stdout whose reader has gone or whose device
    is full is reported like an unwritable file.
    """
    try:
        if path:
            with open(path, "w", encoding="utf-8") as file:
                file.write(text)
        elif sys.stdout is None:  # the process started without file descriptor 1
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc


def _fail(message: object) -> int:
    print(f"derivgraph: error: {message}", file=sys.stderr)
    return 1


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
            regime = Regime(args.regime)
            command = _COMMANDS[args.command][0]
            code, document = command(args, regime, _load_skeleton(args, regime))
            if args.style == "machine":
                import json  # only the machine style needs it: kept off start-up

                document = json.dumps(document, indent=2) + "\n"
            _write(args.output, document)
            return code
        except ValueError as exc:
            return _fail(exc)
        except Exception as exc:
            # Anything else is a defect, but it still ends in one line, not a
            # traceback; the type name says which defect.
            detail = " ".join(str(exc).split())
            return _fail(f"{type(exc).__name__}: {detail}")
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    """The process entry: ``main`` on the command line, then the one step after it.

    Both ``derivgraph`` and ``python -m derivgraph.cli`` start here.  Callers
    in the same process call ``main``, which leaves the process as it was.
    """
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Under ``python -u`` the text layer writes to the raw file and drops
        # the rest of a short write, so a reader that left mid-write would
        # truncate the output unreported.  A buffered writer raises instead.
        buffered = io.BufferedWriter(stdout.buffer)
        sys.stdout = io.TextIOWrapper(buffered, stdout.encoding, stdout.errors, write_through=True)
    try:
        code = main()
    except SystemExit as exc:  # argparse has printed help or a usage error
        code = exc.code
    except KeyboardInterrupt:  # one line, then the shell's status for SIGINT
        _fail("interrupted")
        code = 130
    finally:
        # The process is about to end, so nothing it leaves needs collecting,
        # and frozen objects are outside the full collections that the
        # interpreter's shutdown runs.
        gc.freeze()
    try:
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except OSError as exc:
        # ``main`` has flushed what it wrote, or reported why it could not:
        # only argparse's help is still unreported here.
        if code == 0:
            code = _fail(f"cannot write output: {exc}")
        # The bytes still buffered would fail again at the interpreter's
        # final flush, with a second report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
