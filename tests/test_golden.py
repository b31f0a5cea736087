"""Byte-for-byte golden outputs of ``table --style machine`` and ``formula``.

The files under ``tests/golden/`` were written by the command in each case's
argv, e.g. ``python -m derivgraph.cli table --style machine --regime ode
--order 8 > tests/golden/table-ode-8.json`` or ``python -m derivgraph.cli
formula --style latex --regime ode --order 7 >
tests/golden/formula-ode-7-latex.tex``.  Any change to enumeration order,
canonical form, S, tau, sign, weight or the printed formulas shows up here
as a diff.  ``verify-*.json`` holds a failing ``verify`` report, pinned by
``tests/test_verify.py``.  Outputs too large to keep as files are pinned by
their sha256.
"""

import hashlib
from pathlib import Path

import pytest

from derivgraph.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "table-ode-8.json": ["--regime", "ode"],
    "table-inverse-8.json": ["--regime", "inverse"],
    "table-composite-f_g_h_k_x-8.json": ["--regime", "composite", "--skeleton", "f(g(h(k(x))))"],
    "table-composite-F_f_x_g_x-8.json": ["--regime", "composite", "--skeleton", "F(f(x),g(x))"],
}

FORMULAS = {
    "ode-7": ["--regime", "ode", "--order", "7"],
    "inverse-7": ["--regime", "inverse", "--order", "7"],
    "composite-f_g_h_k_x-6": ["--regime", "composite", "--skeleton", "f(g(h(k(x))))", "--order", "6"],
    "composite-F_f_x_g_x-6": ["--regime", "composite", "--skeleton", "F(f(x),g(x))", "--order", "6"],
}
EXTENSIONS = {"text": "txt", "latex": "tex", "machine": "json"}
FORMULA_CASES = {
    f"formula-{name}-{style}.{ext}": ["--style", style, *argv]
    for name, argv in FORMULAS.items()
    for style, ext in EXTENSIONS.items()
}


def _matches_golden(name: str, argv: list[str], capsys) -> None:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_golden(name, capsys):
    _matches_golden(name, ["table", "--style", "machine", "--order", "8", *CASES[name]], capsys)


@pytest.mark.parametrize("name", sorted(FORMULA_CASES))
def test_formula_matches_golden(name, capsys):
    _matches_golden(name, ["formula", *FORMULA_CASES[name]], capsys)


# sha256 of stdout.  The ode table and the composite formula are the
# benchmark's full workload orders, the digests its output checks compare
# against; the order-8 inverse and composite tables pin the text layout,
# which the golden files above, all --style machine, do not.
DIGESTS = {
    ("table", "--regime", "ode", "--order", "12", "--max-order", "12"):
        "084adf65260cdd1fc0f55e41dd9bd7ca1cbbc6f7fd667e8da14bc73b685d6537",
    ("formula", "--regime", "composite", "--skeleton", "f(g(h(k(x))))", "--order", "8"):
        "6c146f25e7afe6ba23c8fcf92c43c3515b4cf8a9b908c03d19de7329284fdaf6",
    ("table", "--regime", "inverse", "--order", "8"):
        "792732ceb466cae1c429d0d5512927ddc8d822be53e6914d5b18e2082c8ceb27",
    ("table", "--regime", "composite", "--skeleton", "F(f(x),g(x))", "--order", "8"):
        "dbff6cd409c51c85f14fea4cd095086c5fe3ef1c73226f0bc6942796c141ed95",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_stdout_digest(argv, capsys):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == DIGESTS[argv]
