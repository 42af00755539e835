"""Per-layer tracing of the liemaxwell package, applied from outside the package.

``Tracer.install`` replaces each function named in ``TARGETS`` with a wrapper
at every module attribute that binds it (``maxwell.em_residual`` and the copy
that ``solver`` imported, ``solver.residual_jacobian`` as ``_levmar`` looks it
up, ...), and methods on their class.  Each call becomes a span with a name,
start, end, parent span and request id, kept in memory and written out by
``write_spans`` when the run ends.  A target that no longer exists is
recorded in ``absent`` instead of raising.

Self time is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Per-layer name -> (module under ``liemaxwell``, attribute path).
TARGETS: dict[str, tuple[str, str]] = {
    "solver.residual": ("solver", "ResidualContext.residual"),
    "solver.residual_jacobian": ("solver", "residual_jacobian"),
    "solver.feasible": ("solver", "ResidualContext.feasible"),
    "solver.ResidualContext.__init__": ("solver", "ResidualContext.__init__"),
    "solver.sample_metric_params": ("solver", "sample_metric_params"),
    "solver.sample_algebra_params": ("solver", "sample_algebra_params"),
    "solver.multistart_search": ("solver", "multistart_search"),
    "solver.classify_algebra": ("solver", "classify_algebra"),
    "lie_algebra.instantiate": ("lie_algebra", "instantiate"),
    "lie_algebra.closedness_constraints": ("lie_algebra", "closedness_constraints"),
    "lie_algebra.metric_from_params": ("lie_algebra", "metric_from_params"),
    "lie_algebra.entry_by_name": ("lie_algebra", "entry_by_name"),
    "lie_algebra.load_catalog": ("lie_algebra", "load_catalog"),
    "lie_algebra.catalog_checksum": ("lie_algebra", "catalog_checksum"),
    "maxwell.em_residual": ("maxwell", "em_residual"),
    "maxwell.stress_energy": ("maxwell", "stress_energy"),
    "metric_geometry.curvature_summary": ("metric_geometry", "curvature_summary"),
    "metric_geometry.validate_metric": ("metric_geometry", "validate_metric"),
    "forms.hodge_star": ("forms", "hodge_star"),
    "kahler.hermitian_diagnostics": ("kahler", "hermitian_diagnostics"),
    "_expr.eval_expr": ("_expr", "eval_expr"),
    "cli.main": ("cli", "main"),
}

_SOLVER_CORE = {"solver.residual", "solver.residual_jacobian", "solver.feasible",
                "solver.ResidualContext.__init__", "solver.sample_metric_params",
                "solver.sample_algebra_params", "solver.multistart_search",
                "lie_algebra.instantiate", "lie_algebra.closedness_constraints",
                "lie_algebra.metric_from_params", "lie_algebra.entry_by_name",
                "lie_algebra.load_catalog", "maxwell.em_residual", "maxwell.stress_energy",
                "metric_geometry.curvature_summary", "forms.hodge_star", "_expr.eval_expr"}

#: Targets that must show calls on each workload; zero calls there means a
#: binding was missed.  ``load_catalog`` runs in the traced set-up request.
EXPECTED_CALLS: dict[str, set[str]] = {
    "sweep": _SOLVER_CORE,
    "classify": _SOLVER_CORE | {"solver.classify_algebra", "lie_algebra.catalog_checksum",
                                "cli.main"},
    "verify": {"cli.main", "lie_algebra.entry_by_name", "lie_algebra.instantiate",
               "lie_algebra.metric_from_params", "lie_algebra.load_catalog",
               "lie_algebra.catalog_checksum", "metric_geometry.validate_metric",
               "maxwell.em_residual", "maxwell.stress_energy",
               "metric_geometry.curvature_summary", "forms.hodge_star",
               "kahler.hermitian_diagnostics", "_expr.eval_expr"},
}

#: Values per span in ``Tracer.spans``.
SPAN_FIELDS = 6


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, value) or None."""
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        # Flat [id, parent, request, name, start_ns, end_ns, id, ...]: ints and
        # strings only, so recording a span allocates nothing the garbage
        # collector has to scan.
        self.spans: list = []
        self.requests: list[str] = []
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # Outcome counters behind the ratio metrics.
        self.feasible_rejects = 0
        self.sampler_draws = 0
        self.seed_reports = 0
        self.seed_solutions = 0
        self.free_passes = 0
        self._request: int | None = None
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "liemaxwell" or n.startswith("liemaxwell."))]
        for name, (module, path) in TARGETS.items():
            found = _resolve(sys.modules.get(f"liemaxwell.{module}"), path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, args, kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, result)

        return traced

    # -- spans ------------------------------------------------------------

    @contextmanager
    def request(self, label: str):
        """Spans opened inside share one request id (an entry search or one CLI call)."""
        self.requests.append(label)
        self._request = len(self.requests) - 1
        try:
            yield
        finally:
            self._request = None

    def _enter(self, name: str, args, kwargs) -> list:
        if name == "lie_algebra.metric_from_params" and self._active["solver.sample_metric_params"]:
            self.sampler_draws += 1
        elif name == "solver.multistart_search":
            mode = kwargs.get("mode", args[3] if len(args) > 3 else "unit_F")
            self.free_passes += mode == "free_F"
        self._active[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, 0, time.perf_counter_ns()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, result) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, parent, name, child_ns, start = frame
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        self.spans += (span_id, parent, self._request, name, start, end)
        if name == "solver.feasible" and result is False:
            self.feasible_rejects += 1
        elif name == "maxwell.em_residual" and self._active["solver.multistart_search"]:
            self.seed_reports += 1
            self.seed_solutions += bool(getattr(result, "is_solution", False))

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); absent targets read 0."""
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            calls = self.calls[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
            out[f"{name}.us_per_call"] = (self.total_ns[name] / 1e3 / calls if calls else 0.0, "us")

        def ratio(num: float, base: float) -> float:
            return num / base if base else 0.0

        c = self.calls
        out["solver.residual.per_lm_iter"] = (
            ratio(c["solver.residual"], c["solver.residual_jacobian"]), "ratio")
        out["solver.feasible.reject_frac"] = (
            ratio(self.feasible_rejects, c["solver.feasible"]), "ratio")
        out["solver.sample_metric_params.draws_per_sample"] = (
            ratio(self.sampler_draws, c["solver.sample_metric_params"]), "ratio")
        out["solver.seed_reports"] = (self.seed_reports, "count")
        out["solver.seed_solution_frac"] = (ratio(self.seed_solutions, self.seed_reports), "ratio")
        out["solver.free_pass_frac"] = (ratio(self.free_passes, c["solver.classify_algebra"]),
                                        "ratio")
        return out

    def missed(self, workload: str) -> list[str]:
        """Present targets predicted to run on this workload that recorded no call."""
        return sorted(n for n in EXPECTED_CALLS[workload]
                      if n not in self.absent and not self.calls[n])

    def write_spans(self, path: Path) -> None:
        """One JSON header line (request labels), then one line per span:
        [id, parent, request, name, start_ns, end_ns]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"requests": self.requests,
                                 "fields": ["id", "parent", "request", "name",
                                            "start_ns", "end_ns"]}) + "\n")
            for k in range(0, len(self.spans), SPAN_FIELDS):
                span = self.spans[k:k + SPAN_FIELDS]
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
