"""Closed-loop benchmark of the derivgraph CLI: one client, cold processes.

    python3 benchmarks/run.py --workload ode-table --seed 1 --seconds 30 --trace 0

Every request is a fresh ``python -m derivgraph.cli ...`` process, so it
starts with the empty caches a CLI user gets; in-process repeats would time
cache hits.  Each request's stdout is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced requests with traced ones served by tracing.py and
reports the per-layer metrics: medians over the traced requests, plus
``trace_overhead_s``, the traced median minus the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import median_metrics, request_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21  # timed interpreter starts; one more runs first, untimed
REQUEST_TIMEOUT_S = 60

# A fixed pure-Python job: interpreter start-up, then tuple hashing, dict
# updates and Fraction arithmetic, the operations derivgraph spends its time
# on.  It takes REFERENCE_CAL_S on the reference host.
CALIBRATION = """
from fractions import Fraction
acc, seen = Fraction(0), {}
for i in range(12000):
    key = (i % 97, i * 7 % 13, (i % 5,))
    seen[key] = seen.get(key, 0) + 1
    acc += Fraction(i % 7 + 1, i % 11 + 1)
"""
REFERENCE_CAL_S = 0.1


@dataclass
class Outcome:
    wall_s: float
    maxrss_kib: int
    problem: str | None  # None when the request succeeded and its output checked
    scaled_s: float = 0.0  # wall_s at the reference host speed


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(args: list[str], env: dict[str, str]) -> tuple[float, int, int, bytes, bytes]:
    """Run ``python args...`` to completion: wall s, exit code, ru_maxrss KiB, stdout, stderr.

    Output goes to in-memory files, so nothing is written to disk and the
    parent need not drain pipes while it waits.  The wall time runs from
    spawn to exit as seen by ``wait4``.
    """
    out, err = os.memfd_create("stdout"), os.memfd_create("stderr")
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            start = perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, _read(out), _read(err)
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        os.close(out)
        os.close(err)


def _read(fd: int) -> bytes:
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def request(
    workload: Workload,
    order: int,
    seed: int,
    env: dict[str, str],
    spans_path: Path | None = None,
    request_id: int = 0,
) -> tuple[Outcome, dict | None]:
    """One request, untraced or (with ``spans_path``) traced, checked.

    Returns the outcome and, for a traced request, its spans record.
    """
    cli_args = workload.argv(order, seed)
    if spans_path is None:
        args = ["-m", "derivgraph.cli", *cli_args]
    else:
        args = [str(Path(__file__).with_name("tracing.py")), str(spans_path), str(request_id), "--", *cli_args]
    try:
        wall, code, maxrss, stdout, stderr = spawn(args, env)
    except _Timeout:
        return Outcome(REQUEST_TIMEOUT_S, 0, f"no exit within {REQUEST_TIMEOUT_S} s"), None
    if code != 0:
        problem = f"exit code {code}"
    elif stderr:
        problem = "stderr: " + stderr.decode("utf-8", "replace").strip()[-200:]
    else:
        try:
            problem = workload.check(stdout, order, seed)
        except UnicodeDecodeError:
            problem = "stdout is not UTF-8"
    spans = None
    if spans_path is not None and problem is None:
        spans = json.loads(spans_path.read_text())
    return Outcome(wall, maxrss, problem), spans


class HostSpeed:
    """Scales wall times to a reference host speed.

    On a shared 2-vCPU virtual machine the host's speed drifted by up to 1.6x
    over minutes, which no number of requests in one run averages out.  So a fixed job, CALIBRATION, runs in a
    fresh interpreter before the first measurement and after every one, and
    each measurement is scaled by REFERENCE_CAL_S over the mean of the two
    calibrations around it.  The job runs in isolated mode on the standard
    library alone, so no change to the checkout can move it.
    """

    def __init__(self) -> None:
        self.samples = [self._calibrate()]

    def _calibrate(self) -> float:
        wall, code, _, _, _ = spawn(["-I", "-c", CALIBRATION], os.environ)
        if code != 0:
            raise SystemExit("the calibration job failed")
        return wall

    def scale(self, wall_s: float) -> float:
        """``wall_s``, measured just now, at the reference speed."""
        self.samples.append(self._calibrate())
        return wall_s * 2 * REFERENCE_CAL_S / (self.samples[-2] + self.samples[-1])


def setup_times(env: dict[str, str], host: HostSpeed) -> list[float]:
    """Scaled wall times of fresh interpreters that import derivgraph.cli and exit.

    The first start, untimed, compiles the bytecode cache and warms the page
    cache; a CLI user who has run the tool once has both.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, code, _, _, stderr = spawn(["-c", "import derivgraph.cli"], env)
        if code != 0 or stderr:
            raise SystemExit("derivgraph.cli does not import:\n" + stderr.decode("utf-8", "replace"))
        scaled = host.scale(wall)
        if i:
            times.append(scaled)
    return times


def request_env() -> dict[str, str]:
    """This process's environment with the checkout's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "derivgraph" / "cli.py").is_file():
        print(f"benchmark: no derivgraph source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    order = workload.order
    env = request_env()
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}.json"

    # Calibrations and requests share one CPU (children inherit the
    # affinity), so each calibration sees the speed of the requests around it.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        host = HostSpeed()
        setup = setup_times(env, host)
        # Request seeds come from --seed; ode-table and composite-formula have no
        # random input and ignore them.
        rng = random.Random(args.seed)
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        layer_samples: list[dict[str, float]] = []
        absent: set[str] = set()
        failures: list[str] = []
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or not plain or (args.trace and not traced):
            trace_this = bool(args.trace) and len(traced) < len(plain)
            seed = rng.randrange(2**31)
            outcome, spans = request(
                workload,
                order,
                seed,
                env,
                spans_path if trace_this else None,
                len(plain) + len(traced),
            )
            outcome.scaled_s = host.scale(outcome.wall_s)
            (traced if trace_this else plain).append(outcome)
            if outcome.problem is not None:
                failures.append(f"seed {seed}: {outcome.problem}")
            elif spans is not None:
                layer_samples.append(request_metrics(spans["spans"], outcome.wall_s))
                absent.update(spans["absent"])
    finally:
        os.sched_setaffinity(0, cpus)

    attempted = len(plain) + len(traced)
    ok_plain = [o for o in plain if o.problem is None]
    plain_p50 = median(o.scaled_s for o in plain)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = median_metrics(layer_samples, names) if layer_samples else dict.fromkeys(names, 0.0)
        traced_p50 = median(o.scaled_s for o in traced)
        values.update(
            {
                "error_rate": len(failures) / attempted,
                "trace_overhead_s": traced_p50 - plain_p50,
                "trace.request_s_p50": traced_p50,
                "trace.samples": len(layer_samples),
                "trace.absent": len(absent),
                "host.calibration_s": median(host.samples),
            }
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "request_s_p50": plain_p50,
            "graphs_per_s": workload.graphs(order) * len(ok_plain) / sum(o.scaled_s for o in plain),
            "peak_rss_mb": max(o.maxrss_kib for o in plain) / 1024,
            "setup_s": median(setup),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(
        f"workload {workload.name} (order {order}, seed {args.seed}): {attempted} requests, "
        f"{len(plain)} untraced, {len(traced)} traced, {len(failures)} failed; "
        f"setup from {len(setup)} interpreter starts"
    )
    print(
        f"  unscaled: request p50 {median(o.wall_s for o in plain):.4f} s; calibration p50 "
        f"{median(host.samples):.4f} s against {REFERENCE_CAL_S} s at the reference speed"
    )
    for failure in failures[:10]:
        print(f"  failed: {failure}")
    if absent:
        print("  absent boundaries: " + ", ".join(sorted(absent)))
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
