"""Byte-identity check of the pipeline's five output files.

    python3 tools/golden.py            # compare with tools/golden.json
    python3 tools/golden.py --update   # rewrite tools/golden.json

Runs ``solve -> rollout -> verify`` through ``omcontrol.cli.main`` on
``example1.cfg`` (with each policy), ``shift-dense.cfg`` and the CLI-default
shift, each in a temporary directory, and compares the sha256 of every
output file with the manifest.  It prints ``same`` or ``DIFF`` per file and
exits 1 on any ``DIFF``.  BLAS/OpenMP thread counts are pinned to one before
numpy is imported, as ``perfbench/child.py`` pins them.  The bytes can still
follow the BLAS build, so this check stays out of the test suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from omcontrol import cli  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden.json"
FILES = ("solution.json", "summary.txt", "trajectory.csv", "trajectory.svg", "report.txt")
EXAMPLE1 = ["--config", str(ROOT / "perfbench" / "workloads" / "example1.cfg")]
RUNS = {
    "example1": EXAMPLE1,
    "example1-heuristic": [*EXAMPLE1, "--policy", "heuristic"],
    "shift-dense": ["--config", str(ROOT / "perfbench" / "workloads" / "shift-dense.cfg")],
    "shift": ["--problem", "shift"],
}


def digests(flags, out: Path) -> dict:
    """sha256 per output file after one pipeline into ``out``; None for a missing file."""
    for stage in ("solve", "rollout", "verify"):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([stage, *flags, "--out", str(out)])
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            if (out / name).exists() else None for name in FILES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = {run: digests(flags, Path(tmp) / run) for run, flags in RUNS.items()}
    if args.update:
        MANIFEST.write_text(json.dumps(found, indent=2) + "\n")
        print(f"wrote {MANIFEST}")
        return 0
    expected = json.loads(MANIFEST.read_text())
    diffs = 0
    for run, files in found.items():
        for name, digest in files.items():
            same = expected.get(run, {}).get(name) == digest
            diffs += not same
            print(f"{'same' if same else 'DIFF'} {run}/{name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
