"""Byte-for-byte golden outputs of ``table --style machine`` and ``formula``.

The files under ``tests/golden/`` were written by the command in each case's
argv, e.g. ``python -m derivgraph.cli table --style machine --regime ode
--order 8 > tests/golden/table-ode-8.json`` or ``python -m derivgraph.cli
formula --style latex --regime ode --order 7 >
tests/golden/formula-ode-7-latex.tex``.  Any change to enumeration order,
canonical form, S, tau, sign, weight or the printed formulas shows up here
as a diff.
"""

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
