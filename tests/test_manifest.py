"""Byte identity of the command line as a test: the stdout manifest.

``tests/golden/stdout-manifest.json`` maps each argv below to the sha256 of
the stdout and of the stderr that ``cli.main`` writes for it, and to its exit
code.  The argvs run ``trees``, ``table``, ``formula`` and ``verify`` in every
style: ode and inverse at orders -1 to 8, and every skeleton of
``tests/test_enumeration.py`` at orders 1 to 4, with the error cases among
them.  A change that alters any of those outputs fails the test, which names
each argv that changed.

A change that alters output on purpose re-records the manifest with
``PYTHONPATH=src python tests/test_manifest.py --record`` and keeps only the
entries it means to change.
"""

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from derivgraph.cli import main
from test_enumeration import SKELETONS

MANIFEST = Path(__file__).resolve().parent / "golden" / "stdout-manifest.json"

STYLES = {
    "trees": ("text", "machine"),
    "table": ("text", "machine"),
    "formula": ("text", "latex", "machine"),
    "verify": ("text", "machine"),
}

SUBJECTS = [
    *(
        ("--regime", regime, "--order", str(n))
        for regime in ("ode", "inverse")
        for n in range(-1, 9)
    ),
    *(
        ("--regime", "composite", "--skeleton", skeleton, "--order", str(n))
        for skeleton in SKELETONS
        for n in range(1, 5)
    ),
    # Errors the package reports itself; argparse's own wording varies by Python.
    ("--regime", "composite", "--order", "2"),
    ("--regime", "composite", "--skeleton", "f(g(x)", "--order", "2"),
    ("--regime", "composite", "--skeleton", "x", "--order", "2"),
    ("--regime", "ode", "--order", "11"),
]

# verify runs 5 trials, not the default 20, to keep the replay within seconds.
ARGVS = [
    (command, *subject, "--style", style, *(("--trials", "5") if command == "verify" else ()))
    for command, styles in STYLES.items()
    for style in styles
    for subject in SUBJECTS
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue()), "exit": code}


def test_every_output_matches_the_manifest():
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    keys = {shlex.join(argv): argv for argv in ARGVS}
    assert sorted(recorded) == sorted(keys), "the manifest's argvs are not the argvs above"
    changed = [key for key, argv in keys.items() if replay(argv) != recorded[key]]
    assert not changed, "output changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_manifest.py --record")
    entries = {shlex.join(argv): replay(argv) for argv in ARGVS}
    MANIFEST.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
