"""Fast tests of the benchmark itself: span arithmetic, output checks, smoke runs.

    python -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from math import factorial

import pytest

import run
from tracing import Tracer, request_metrics, self_times
from workloads import (
    WORKLOADS,
    chain_terms,
    chain_weight_sum,
    check_composite_formula,
    check_inverse_verify,
    check_ode_table,
    rooted_trees,
    series_reduced_trees,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_ORDER = {"ode-table": 6, "composite-formula": 4, "inverse-verify": 4}


def span(name, start, end, parent=-1, size=None, raised=False):
    return (name, start, end, parent, size, raised)


# ---------------------------------------------------------------------------
# Span arithmetic.


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.main", 0, 100),
        span("enumeration.enumerate_graphs", 10, 30, 0),
        span("weights.weigh", 40, 70, 0),
        span("trees.symmetry_number", 50, 60, 2),
    ]
    assert self_times(spans) == [50, 20, 20, 10]
    assert sum(self_times(spans)) == 100


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [span("a", 0, 100), span("b", 10, 40, 0), span("c", 20, 50, 0), span("d", 90, 120, 0)]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_request_metrics_account_for_the_wall_time():
    spans = [
        span("import", 0, 200_000_000),
        span("cli.main", 200_000_000, 900_000_000),
        span("enumeration.enumerate_graphs", 250_000_000, 450_000_000, 1, size=10),
        span("trees.canonicalize", 260_000_000, 270_000_000, 2),
        span("trees.canonicalize", 300_000_000, 310_000_000, 2, raised=True),
        span("weights.weigh", 500_000_000, 600_000_000, 1),
    ]
    m = request_metrics(spans, wall_s=1.25)
    assert m["import.s"] == pytest.approx(0.2)
    assert m["cli.self_s"] == pytest.approx(0.7 - 0.2 - 0.1)
    assert m["enumeration.graphs"] == 10
    assert m["enumeration.candidates_per_graph"] == pytest.approx(0.2)
    assert m["enumeration.us_per_graph"] == pytest.approx(0.2e6 / 10)
    assert m["trees.errors"] == 1 and m["weights.errors"] == 0
    assert m["process.other_s"] == pytest.approx(0.35)
    total_self = sum(self_times(spans)) / 1e9
    assert total_self + m["process.other_s"] == pytest.approx(1.25)


def test_absent_boundary_is_recorded_not_raised():
    sys.path.insert(0, str(run.SRC))
    import derivgraph.enumeration

    tracer = Tracer()
    absent = tracer.install([("derivgraph.enumeration", "no_such_function", "trees.x")])
    assert absent == ["derivgraph.enumeration.no_such_function"]
    assert not hasattr(derivgraph.enumeration, "no_such_function")


# ---------------------------------------------------------------------------
# Independent oracles and output checks.


def test_counts_match_known_sequences():
    assert [rooted_trees(n) for n in range(1, 13)][-4:] == [286, 719, 1842, 4766]
    assert [series_reduced_trees(n) for n in range(1, 9)] == [1, 1, 2, 5, 12, 33, 90, 261]
    assert [chain_terms(2, n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]  # partitions
    assert chain_terms(4, 8) == 1344
    assert [chain_weight_sum(2, n) for n in range(1, 6)] == [1, 2, 5, 15, 52]  # Bell numbers
    assert chain_weight_sum(4, 8) == 1855570


@pytest.fixture(scope="module")
def genuine():
    """Real CLI stdout for every workload at its smoke order."""
    env = run.request_env()
    out = {}
    for name, order in SMOKE_ORDER.items():
        w = WORKLOADS[name]
        _, code, _, stdout, stderr = run.spawn(["-m", "derivgraph.cli", *w.argv(order, 7)], env)
        assert code == 0 and not stderr
        out[name] = stdout
    return out


def test_checks_accept_genuine_output(genuine):
    for name, order in SMOKE_ORDER.items():
        assert WORKLOADS[name].check(genuine[name], order, 7) is None


def test_ode_table_check_rejects_dropped_row_and_wrong_weight(genuine):
    lines = genuine["ode-table"].decode().splitlines(keepends=True)
    assert check_ode_table("".join(lines[:-1]).encode(), 6, 7) is not None
    head, weight = lines[3].rstrip("\n").rsplit(" ", 1)
    lines[3] = f"{head} {int(weight) + 1}\n"
    assert "weights sum" in check_ode_table("".join(lines).encode(), 6, 7)


def test_ode_table_check_rejects_changed_bytes_at_full_order():
    # Right row count and weight sum, wrong bytes.
    lines = ["tree S tau sign weight"] + ["x 1 1 +1 1"] * 4765 + [f"x 1 1 +1 {factorial(11) - 4765}"]
    assert check_ode_table(("\n".join(lines) + "\n").encode(), 12, 0) == (
        "stdout differs from the recorded sha256"
    )


def test_composite_check_rejects_dropped_term_and_wrong_weight(genuine):
    terms = genuine["composite-formula"].decode().rstrip("\n").split(" + ")
    assert check_composite_formula((" + ".join(terms[1:]) + "\n").encode(), 4, 7) is not None
    weight = re.match(r"\d*", terms[1]).group()
    terms[1] = str(int(weight or 1) + 1) + terms[1][len(weight):]
    assert "weights sum" in check_composite_formula((" + ".join(terms) + "\n").encode(), 4, 7)


def test_verify_check_rejects_fail_line_and_wrong_seed(genuine):
    line = genuine["inverse-verify"].decode()
    assert check_inverse_verify(line.replace("PASS", "FAIL (1 mismatching trials)").encode(), 4, 7)
    assert check_inverse_verify(line.encode(), 4, 8) is not None


# ---------------------------------------------------------------------------
# Smoke runs through the benchmark's own entry point.


def shrink(monkeypatch, name, order):
    """Make workload ``name`` run at ``order``, so a smoke run takes seconds."""
    monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], order=order))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace, capsys, monkeypatch):
    shrink(monkeypatch, name, SMOKE_ORDER[name])
    cpus = os.sched_getaffinity(0)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    assert os.sched_getaffinity(0) == cpus
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["trace.samples"] >= 1 and values["trace.absent"] == 0
        assert values["error_rate"] == 0
        assert values["cli.main.s"] > 0 and values["import.s"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_traced_run_counts_the_called_layers(capsys, monkeypatch):
    shrink(monkeypatch, "inverse-verify", 5)
    argv = ["--workload", "inverse-verify", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    values = {
        k: v["value"]
        for k, v in json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"].items()
    }
    assert values["enumeration.graphs"] == series_reduced_trees(5)
    assert values["jets.jet_reverse.calls"] == 20
    assert values["trees.format_tree.calls"] == 20 * series_reduced_trees(5)
    assert values["jets.bivariate_compose.calls"] == 0
    assert values["verify.verify.self_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks")
    argv = [sys.executable, "benchmarks/run.py", "--workload", "ode-table", "--seed", "1"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
