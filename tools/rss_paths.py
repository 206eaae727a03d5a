"""Peak RSS of the benchmark pipeline over checkout paths of several lengths.

    python3 tools/rss_paths.py                     # this checkout
    python3 tools/rss_paths.py --against OTHER     # this checkout and OTHER

A process's peak RSS follows glibc's heap layout, and that layout moves
with the length of the path the package is imported from, so one reading
of ``peak_rss_mb`` cannot tell two checkouts apart.  This copies ``src/``
and ``perfbench/`` of each checkout into temporary directories whose paths
have ``PATHS`` different lengths, runs one ``perfbench/child.py pipeline``
per workload in each copy, one after the other, and prints the min, median
and max ``peak_rss_mb`` per workload.  It uses the standard library only
and is not part of the test suite; a checkout takes about 35 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("example1", "shift-dense")
PATHS = 16
PAD = 7  # characters added to the copy's path per step


def copy_checkout(checkout: Path, dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part, ignore=skip)


def peak_rss(copy: Path, workload: str, scratch: Path) -> float:
    """peak_rss_mb of one pipeline of ``workload`` run from ``copy``."""
    result = scratch / f"{workload}.json"
    cmd = [sys.executable, str(copy / "perfbench" / "child.py"), "pipeline",
           "--config", str(copy / "perfbench" / "workloads" / f"{workload}.cfg"),
           "--out", str(scratch / workload), "--result", str(result)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    doc = json.loads(result.read_text())
    failed = [s for s, rec in doc["stages"].items() if rec["exit"] != 0]
    if failed:
        raise RuntimeError(f"{workload} from {copy}: stages {failed} failed")
    return doc["peak_rss_mb"]


def readings(checkout: Path) -> dict:
    """peak_rss_mb per workload, one reading per path length."""
    found = {w: [] for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(PATHS):
            copy = Path(tmp) / ("c" + "p" * (PAD * k))
            copy_checkout(checkout, copy)
            scratch = Path(tmp) / f"out{k}"
            scratch.mkdir()
            for w in WORKLOADS:
                found[w].append(peak_rss(copy, w, scratch))
            shutil.rmtree(copy)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a second checkout to measure")
    args = parser.parse_args(argv)
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    for checkout in checkouts:
        for w, mb in readings(checkout).items():
            print(f"{checkout} {w}: min {min(mb):.1f} median {statistics.median(mb):.1f} "
                  f"max {max(mb):.1f} MB over {len(mb)} paths "
                  f"({', '.join(f'{v:.1f}' for v in mb)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
