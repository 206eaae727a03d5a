"""Out-of-package span tracer for the omcontrol pipeline.

``Tracer.install`` replaces the package's public functions with timing
wrappers at the names their callers look them up by (a module global for
a ``from x import f`` caller, the class attribute for a method), and
``Tracer.restore`` puts the originals back.  Each call records one span
``[name, parent, start, end, counters]`` in memory; the caller writes the
list out once the pipeline ends.  ``aggregate`` turns a span list into
per-layer totals: call counts, summed counters and self time (a span's
duration minus the durations of its direct children).

This module imports neither numpy nor omcontrol at import time, so the
parent process can aggregate spans without loading either.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter


def _rows(a) -> int:
    """Number of points in a (K, m) batch, 1 for a single point."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) <= 1 else int(shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, _clock(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[3] = _clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(args, kwargs, result)`` returns the span's counters; it runs
        after the span has closed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, _clock(), 0.0, None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[3] = _clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced public function of the package."""
        from omcontrol import basis, model, silp, synthesis, verify

        def lp_count(a, k, res):
            return {"pivots": int(res.pivots), "columns": int(_arg(a, k, 0, "A").shape[1])}

        self.wrap(silp, "solve_equality_lp", "simplex", lp_count)

        for mod in (silp, verify):
            self.wrap(mod, "solve", "silp.solve",
                      lambda a, k, res: {"columns": int(_arg(a, k, 0, "lp").n_columns)})
            self.wrap(mod, "assemble", "silp.assemble",
                      lambda a, k, res: {"columns": int(res.n_columns)})
        self.wrap(silp, "solve_refined", "silp.solve_refined",
                  lambda a, k, res: {"rounds": int(res[2])})
        self.wrap(silp, "scan_candidates", "silp.scan")
        self.wrap(silp, "reduced_costs", "silp.reduced_costs",
                  lambda a, k, res: {"points": int(res.shape[0])})
        self.wrap(silp.FiniteLP, "extended", "silp.extend",
                  lambda a, k, res: {"columns": _rows(_arg(a, k, 3, "states"))})

        self.wrap(basis.MonomialBasis, "evaluate", "basis.evaluate",
                  lambda a, k, res: {"points": _rows(res)})
        for mod in (basis, silp, verify):
            self.wrap(mod, "constraint_columns", "basis.constraint_columns",
                      lambda a, k, res: {"points": int(res.shape[1])})

        self.wrap(synthesis, "minimizer_control", "synthesis.minimizer",
                  lambda a, k, res: {"controls": _rows(_arg(a, k, 4, "control_grid"))})
        self.wrap(synthesis, "rollout", "synthesis.rollout",
                  lambda a, k, res: {"steps": int(res.horizon)})

        def vi_count(a, k, res):
            problem, control_grid = a[0], _arg(a, k, 2, "control_grid")
            sweeps = len(res.sweep_diffs)
            pairs = res.values.size * len(model.control_grid_points(problem, control_grid))
            return {"sweeps": sweeps, "backups": sweeps * pairs}

        self.wrap(verify, "value_iteration", "verify.value_iteration", vi_count)
        self.wrap(verify, "check_optimality_conditions", "verify.optimality")
        self.wrap(verify, "hamiltonian_min", "verify.hamiltonian_min")
        self.wrap(verify, "check_psi_bound", "verify.psi_bound")
        self.wrap(verify, "check_shifted_inequality", "verify.shifted_inequality")
        self.wrap(verify, "measure_residuals", "verify.residuals")
        self.wrap(verify, "estimate_kappa", "verify.kappa")

        for mod in (model, silp, synthesis, verify):
            self.wrap(mod, "admissible_mask", "model.admissible_mask",
                      lambda a, k, res: {"points": int(res.shape[0])})

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrapped_calls(self) -> int:
        """Spans recorded by wrappers, as opposed to ``span`` blocks."""
        return sum(1 for s in self.spans if not s[0].startswith("cli."))


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured in-process."""

    class Probe:
        @staticmethod
        def f(x):
            return x

    direct = Probe.f
    t0 = _clock()
    for i in range(calls):
        direct(i)
    t_direct = _clock() - t0

    tracer = Tracer()
    tracer.wrap(Probe, "f", "probe", lambda a, k, res: {"points": 1})
    traced = Probe.f
    with tracer.span("cli.probe"):
        t0 = _clock()
        for i in range(calls):
            traced(i)
        t_traced = _clock() - t0
    tracer.restore()
    return max(t_traced - t_direct, 0.0) / calls


def ancestors(spans, sid):
    parent = spans[sid][1]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][1]


def self_times(spans) -> list:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def aggregate(spans) -> dict:
    """Per-name totals: calls, inclusive and self seconds, summed counters."""
    selfs = self_times(spans)
    layers: dict = {}
    for s, own in zip(spans, selfs):
        rec = layers.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": {}})
        rec["calls"] += 1
        rec["self_s"] += own
        rec["total_s"] += s[3] - s[2]
        for key, val in (s[4] or {}).items():
            rec["counters"][key] = rec["counters"].get(key, 0) + val
    return layers
