import os
import sys
from pathlib import Path

# The checkout's src goes after the PYTHONPATH entries, not before them, so
# that ``PYTHONPATH=<other checkout>/src python -m pytest tests`` tests the
# package it names; without PYTHONPATH it goes first.
_NAMED = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
_AFTER = [i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _NAMED]
sys.path.insert(max(_AFTER, default=0), str(Path(__file__).resolve().parent.parent / "src"))
