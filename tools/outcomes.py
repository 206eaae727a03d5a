"""Solve outcomes over a fixed census of configs, and the kappa re-solve of each.

    python3 tools/outcomes.py                  # this checkout
    python3 tools/outcomes.py --against OTHER  # this checkout and OTHER, compared

The census is 49 configs at the workloads' settings (tol 1e-6, pivot_tol
1e-9, batch 8, 80 rounds):

- shift (alpha 0.5) at degrees 4, 6, 8 and 9, on base grids of 41, 201 and
  401 points, candidates 2g - 1, from y0 0.2, 0.4 and 0.7;
- shift-dense.cfg (degree 8, y0 0.4, candidates 801) on base grids of 101,
  41 and 21 points, where warm rounds of the simplex have stalled;
- example1 at degrees 6 and 7 on example1.cfg's grids (9 x 9 base, 33 x 33
  states and 9 x 9 controls as candidates), from five y0.

For each it prints the rounds, atoms and mu/(1-alpha) to 12 digits of
``silp.solve_refined``, or its error, and the kappa re-solve: the degree + 1
base-grid LP of ``verify.estimate_kappa`` under the solve's certificate,
given mu/(1-alpha) as the oracle value, so that it reads |mu' - mu|.  Its
error, when it fails, and its time are printed too.  With ``--against``,
each checkout runs in its own interpreter, one after the other, and the
tool prints the configs whose outcomes differ, then the counts; it exits 1
when a solve outcome differs.  BLAS/OpenMP are pinned to one thread, as
``perfbench/child.py`` pins them.  It uses the standard library and the
package, takes a few minutes per checkout on 2 vCPUs and is not part of the
test suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE1_Y0 = ((0.5, 0.25), (0.0, 0.0), (-0.5, 0.5), (0.3, -0.7), (0.9, 0.1))


def configs():
    """(name, problem, y0, degree, base grid points, candidate states, candidate controls)."""
    for degree in (4, 6, 8, 9):
        for grid in (41, 201, 401):
            for y0 in (0.2, 0.4, 0.7):
                yield (f"shift d{degree} g{grid} y0={y0}", "shift", (y0,), degree, (grid,),
                       (2 * grid - 1,), (2 * grid - 1,))
    for grid in (101, 41, 21):
        yield (f"shift d8 g{grid} c801 y0=0.4", "shift", (0.4,), 8, (grid,), (801,), (801,))
    for degree in (6, 7):
        for y0 in EXAMPLE1_Y0:
            yield (f"example1 d{degree} y0={y0[0]},{y0[1]}", "example1", y0, degree, (9, 9),
                   (33, 33), (9, 9))


def outcome(problem_name, y0, degree, grid, cand_state, cand_control) -> dict:
    """The solve's outcome and the kappa re-solve's, as printable strings."""
    from omcontrol import silp
    from omcontrol.basis import MonomialBasis
    from omcontrol.errors import NonConverged, SolverError
    from omcontrol.model import builtin_problem
    from omcontrol.verify import estimate_kappa

    problem = builtin_problem(problem_name, alpha=0.5 if problem_name == "shift" else 0.9,
                              y0=y0)
    basis = MonomialBasis(problem.state_dim, degree)
    grid_spec = silp.GridSpec(state=grid, control=grid)
    scale = 1.0 - problem.discount
    try:
        measure, certificate, rounds = silp.solve_refined(
            problem, basis, grid_spec,
            silp.CandidateSpec(state=cand_state, control=cand_control, max_new_columns=8),
            tol=1e-6, max_rounds=80, pivot_tol=1e-9)
        solved = ""
    except NonConverged as exc:
        measure, certificate, rounds = exc.measure, exc.certificate, exc.rounds
        solved = f"NonConverged ({exc}) "
    except SolverError as exc:
        return {"solve": f"{type(exc).__name__}: {exc}", "kappa": "-", "kappa_s": 0.0}
    solved += (f"rounds {rounds} atoms {len(measure)} "
               f"mu/(1-alpha) {certificate.mu / scale:.12f}")
    start = time.perf_counter()
    try:
        kappa = estimate_kappa(problem, basis, grid_spec, certificate, certificate.mu / scale)
        kappa = f"{kappa:.3e}"
    except SolverError as exc:
        kappa = f"n/a ({type(exc).__name__}: {exc})"
    return {"solve": solved, "kappa": kappa, "kappa_s": time.perf_counter() - start}


def census(checkout: Path) -> dict:
    """Every config's outcome, computed in a fresh interpreter that imports ``checkout``'s
    package."""
    proc = subprocess.run([sys.executable, __file__, "--package", str(checkout / "src")],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def kappa_failed(record: dict) -> bool:
    return record["kappa"].startswith("n/a")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="a second checkout to compare with")
    parser.add_argument("--package", help=argparse.SUPPRESS)  # a census child's import path
    args = parser.parse_args(argv)
    if args.package:
        sys.path.insert(0, args.package)
        json.dump({name: outcome(*rest) for name, *rest in configs()}, sys.stdout)
        return 0

    ours = census(ROOT)
    if args.against is None:
        for name, rec in ours.items():
            print(f"{name:32s} {rec['solve']} | kappa {rec['kappa']} ({rec['kappa_s']:.2f} s)")
        print(f"{len(ours)} configs, {sum(map(kappa_failed, ours.values()))} kappa failures")
        return 0
    theirs = census(args.against.resolve())
    solves = kappas = 0
    for name, rec in ours.items():
        other = theirs[name]
        if rec["solve"] != other["solve"] or rec["kappa"] != other["kappa"]:
            solves += rec["solve"] != other["solve"]
            kappas += rec["kappa"] != other["kappa"]
            print(f"{name}\n  this:    {rec['solve']} | kappa {rec['kappa']}\n"
                  f"  against: {other['solve']} | kappa {other['kappa']}")
    for label, found in (("this", ours), ("against", theirs)):
        print(f"{label}: {sum(map(kappa_failed, found.values()))} kappa failures, "
              f"kappa re-solves {sum(r['kappa_s'] for r in found.values()):.1f} s")
    print(f"{len(ours)} configs: {solves} solve outcomes and {kappas} kappa values differ")
    return 1 if solves else 0


if __name__ == "__main__":
    sys.exit(main())
