"""The benchmark's span tracer must find every name it patches in the package."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from omcontrol import (DualCertificate, MonomialBasis, basis, builtin_problem, cli,
                       model, silp, synthesis, verify)

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the thread variables perfbench/child.py pins when it is imported
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def test_install_and_restore_against_the_package():
    modules = (basis, model, silp, synthesis, verify)
    before = [dict(vars(mod)) for mod in modules]
    evaluate = MonomialBasis.__dict__["evaluate"]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        p = builtin_problem("shift")
        b = MonomialBasis(1, 1)
        synthesis.minimizer_control(p, b, DualCertificate(lam=np.zeros(2), mu=0.0),
                                    [0.4], (5,))
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert "synthesis.minimizer" in names and "model.admissible_mask" in names
    assert [dict(vars(mod)) for mod in modules] == before
    assert MonomialBasis.__dict__["evaluate"] is evaluate


def test_pair_scans_record_a_nested_admissible_mask_span():
    # every pair scan asks model.admissible_mask through model's global, where the tracer
    # wraps it; a module that bypasses it would leave its scan without the nested span
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        p = builtin_problem("shift")
        verify.value_iteration(p, (5,), (5,), tol=1e-6)
        silp.assemble(p, MonomialBasis(1, 1), silp.GridSpec(state=(5,), control=(5,)))
    finally:
        tracer.restore()
    spans = tracer.spans
    for scan in ("verify.value_iteration", "silp.assemble"):
        sid = next(i for i, s in enumerate(spans) if s[0] == scan)
        assert any(s[0] == "model.admissible_mask" and s[1] == sid for s in spans), scan


def test_traced_verify_records_the_benchmark_layers(tmp_path):
    # perfbench/selftest.py requires these spans below cli.verify on the shift defaults
    base = ["--problem", "shift", "--out", str(tmp_path / "run")]
    assert cli.main(["solve"] + base) == 0
    assert cli.main(["rollout"] + base) == 0
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["verify"] + base) == 0
    finally:
        tracer.restore()
    spans = tracer.spans
    assert {"verify.value_iteration", "verify.optimality", "verify.hamiltonian_min",
            "verify.shifted_inequality", "verify.kappa", "simplex"} <= {s[0] for s in spans}
    sid = next(i for i, s in enumerate(spans) if s[0] == "verify.value_iteration")
    assert any(s[0] == "model.admissible_mask" and s[1] == sid for s in spans)
    # simplex.kappa_pivots counts the pivots of simplex spans below verify.kappa
    ancestors = load_tracer().ancestors
    assert any(s[0] == "simplex" and s[4]["pivots"] > 0 and "verify.kappa" in ancestors(spans, i)
               for i, s in enumerate(spans))


def test_extend_counter_counts_the_appended_columns():
    # the tracer reads FiniteLP.extended's states at argument position 3; its counter must
    # sum to the columns the refinement rounds appended
    p = builtin_problem("shift")
    history = []
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        silp.solve_refined(p, MonomialBasis(1, 3), silp.GridSpec(state=(5,), control=(5,)),
                           silp.CandidateSpec(state=(41,), control=(41,)), history=history)
    finally:
        tracer.restore()
    appended = history[-1]["columns"] - history[0]["columns"]
    assert len(history) > 1 and appended > 0
    layers = tracer_module.aggregate(tracer.spans)
    assert layers["silp.extend"]["calls"] == len(history) - 1
    assert layers["silp.extend"]["counters"]["columns"] == appended


def test_benchmark_reads_the_pipeline_outputs(tmp_path, monkeypatch):
    # perfbench/child.py's inspect_outputs reads solution.json's fields and what
    # synthesis.read_trajectory_csv returns; if it could not, every benchmark run would
    # report its outputs incorrect.  Its import-time writes are undone after the test.
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    child = load("child")
    assert set(child.THREAD_VARS) <= set(_THREAD_VARS)
    out = tmp_path / "run"
    for stage in child.STAGES:
        assert cli.main([stage, "--problem", "shift", "--out", str(out)]) == 0
    found = child.inspect_outputs(out)
    assert {"mu", "rollout_value"} <= found.keys()
    assert found["duality_gap"] <= 1e-6
    assert found["checks_failed"] == 0
