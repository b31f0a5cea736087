"""Byte-for-byte golden outputs of ``table --style machine`` at order 8.

The files under ``tests/golden/`` were written by the command in each case's
argv, e.g. ``python -m derivgraph.cli table --style machine --regime ode
--order 8 > tests/golden/table-ode-8.json``.  Any change to enumeration
order, canonical form, S, tau, sign or weight shows up here as a diff.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_golden(name, capsys):
    assert main(["table", "--style", "machine", "--order", "8", *CASES[name]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()
