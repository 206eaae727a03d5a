"""Import omcontrol from ``PYTHONPATH`` when a checkout is named there, else from this one.

This checkout's ``src`` goes into ``sys.path`` right after the ``PYTHONPATH``
entries, so ``PYTHONPATH=<other checkout>/src python -m pytest`` tests the
other checkout's package and a bare ``python -m pytest`` tests this one.
"""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_NAMED = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
_AFTER = max((i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _NAMED),
             default=0)
sys.path.insert(_AFTER, _SRC)
