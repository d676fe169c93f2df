"""Span tracing of the ``sketchls`` layers from outside the package.

:func:`install` replaces the public functions of each module (and the
``scipy.linalg`` kernels they call) with wrappers that record a span per
call: name, start, end and parent.  Every name is patched where its caller
looks it up at call time: ``cli`` binds ``lsqr``, ``lsmr``,
``solve_ls_oracle`` and ``synthesize_problem`` at import, ``diagnostics``
binds ``qr_ls_solve``, and methods (``MatrixHandle.matvec``,
``MetricsObserver.__call__``, ...) are patched on their class.
:meth:`Tracer.uninstall` puts every original object back.

:func:`layer_metrics` turns the spans and counters of one traced run into
the per-layer metrics named in ``BENCHMARK.json``.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

KINDS = ("gaussian", "srht", "sparse")


class Tracer:
    """In-memory span recorder with the patch bookkeeping to undo itself."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # each span is [name, start, end, index of the parent span or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.solve_iterations: List[int] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: Optional[str], fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if name is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, self.clock(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive time ``s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(totals)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is a span name, or a function of ``(args, kwargs)`` that
        returns one (``None`` runs the call without a span).  ``after`` is
        called as ``after(tracer, args, kwargs, result)`` once the call
        returns, to update counters.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            result = tracer.call(name_of(args, kwargs), fn, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)


# -- counters updated after a wrapped call returns ---------------------------

def _count(key: str, amount: Callable) -> Callable:
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)
    return after


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _after_apply(tracer, args, kwargs, result):
    S, X = args[0], args[1]
    if hasattr(X, "cols"):  # a MatrixHandle
        cols = X.cols
    else:
        cols = X.shape[1] if X.ndim == 2 else 1
    tracer.counts[f"apply.{S.kind.value}.cols"] += cols


def _after_solve(solver: str) -> Callable:
    from sketchls.solvers import Termination

    stabilized = (Termination.STABILIZED_NORMAL_RATIO, Termination.STABILIZED_RESIDUAL)

    def after(tracer, args, kwargs, result):
        tracer.solve_iterations.append(result.iterations)
        tracer.counts[f"{solver}.iters"] += result.iterations
        tracer.counts["solves"] += 1
        tracer.counts["solves.stabilized"] += result.termination in stabilized
    return after


def _after_from_matrix(tracer, args, kwargs, view):
    forward, adjoint = view.forward, view.adjoint

    def counted_forward(v):
        tracer.counts["SA_matvecs"] += 1
        return forward(v)

    def counted_adjoint(u):
        tracer.counts["SA_matvecs"] += 1
        return adjoint(u)

    view.forward, view.adjoint = counted_forward, counted_adjoint


def _densify_name(args, kwargs):
    return "matio.densify" if args[0].is_sparse else None


def _after_dense(tracer, args, kwargs, result):
    if args[0].is_sparse:
        tracer.counts["densify.bytes"] += result.nbytes


def _kind_value(kind) -> str:
    from sketchls.embed import SketchKind

    return SketchKind(kind).value


def install(tracer: Tracer) -> Tracer:
    """Patch every traced name in ``sketchls`` and ``scipy.linalg``."""
    import scipy.linalg

    from sketchls import cli, diagnostics, embed, matio, solvers, stopping

    for kernel in ("svd", "qr", "solve_triangular"):
        tracer.wrap(scipy.linalg, kernel, f"linalg.{kernel}")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_single", "cli.run_single")
    tracer.wrap(cli, "write_trace", "cli.write", _count("write.bytes", _file_bytes))
    tracer.wrap(diagnostics, "write_bound_reports", "cli.write",
                _count("write.bytes", _file_bytes))

    tracer.wrap(cli.MatrixSource, "load", "matio.load")
    tracer.wrap(cli, "synthesize_problem", "matio.synthesize_problem")
    tracer.wrap(cli, "solve_ls_oracle", "matio.solve_ls_oracle")
    tracer.wrap(matio, "qr_ls_solve", "matio.qr_ls_solve")
    tracer.wrap(diagnostics, "qr_ls_solve", "matio.qr_ls_solve")
    tracer.wrap(matio, "spectral_norms", "matio.spectral_norms",
                _count("power_iters", lambda a, k, info: info.power_iterations))
    tracer.wrap(matio.MatrixHandle, "matvec", "matio.A_matvec")
    tracer.wrap(matio.MatrixHandle, "rmatvec", "matio.A_matvec")
    tracer.wrap(matio.MatrixHandle, "dense", _densify_name, _after_dense)

    tracer.wrap(embed, "build_sketch",
                lambda a, k: f"embed.build_sketch.{_kind_value(a[0])}")
    tracer.wrap(embed, "apply", lambda a, k: f"embed.apply.{a[0].kind.value}",
                _after_apply)
    tracer.wrap(embed, "apply_adjoint", "embed.apply_adjoint")
    tracer.wrap(embed, "fwht", "embed.fwht",
                _count("fwht.rows", lambda a, k, r: a[0].shape[0]))
    tracer.wrap(embed, "exact_distortion", "embed.exact_distortion")
    tracer.wrap(embed, "subspace_basis", "embed.subspace_basis")

    for fn in ("run_bound_suite", "solve_sketched", "check_geometric_preservation",
               "check_residual_bounds", "check_explicit_perturbations",
               "check_solution_error", "check_acute_criterion"):
        tracer.wrap(diagnostics, fn, f"diagnostics.{fn}")

    for solver in ("lsqr", "lsmr"):
        tracer.wrap(cli, solver, f"solvers.{solver}", _after_solve(solver))
    tracer.wrap(solvers.MetricsObserver, "__call__", "solvers.observer",
                _count("observer.fresh", lambda a, k, rec: int(not rec.stale)))
    tracer.wrap(solvers.LinearOperatorView, "from_matrix", None, _after_from_matrix)

    tracer.wrap(stopping.StoppingController, "feed", "stopping.feed")
    return tracer


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric this tracer can derive, keyed by metric name.

    Layers that did not run report zero calls and zero time.
    """
    totals = tracer.span_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    out: Dict[str, float] = {}
    for name in ("linalg.svd", "linalg.qr", "diagnostics.run_bound_suite",
                 "embed.exact_distortion", "embed.subspace_basis",
                 "matio.solve_ls_oracle", "matio.qr_ls_solve", "matio.spectral_norms",
                 "matio.densify", "cli.run_single", "solvers.observer"):
        out[f"{name}.calls"] = calls(name)
    for name in ("linalg.svd", "linalg.qr", "diagnostics.run_bound_suite",
                 "diagnostics.solve_sketched", "diagnostics.check_residual_bounds",
                 "diagnostics.check_acute_criterion",
                 "diagnostics.check_geometric_preservation", "embed.exact_distortion",
                 "embed.subspace_basis", "embed.apply_adjoint", "embed.fwht",
                 "stopping.feed", "matio.load", "matio.synthesize_problem",
                 "matio.solve_ls_oracle", "matio.spectral_norms", "matio.A_matvec",
                 "cli.run_single", "cli.write"):
        out[f"{name}.self_s"] = self_s(name)
    for kind in KINDS:
        out[f"embed.build_sketch.{kind}.self_s"] = self_s(f"embed.build_sketch.{kind}")
        out[f"embed.apply.{kind}.calls"] = calls(f"embed.apply.{kind}")
        out[f"embed.apply.{kind}.self_s"] = self_s(f"embed.apply.{kind}")
        out[f"embed.apply.{kind}.cols"] = counts[f"apply.{kind}.cols"]
    out["embed.fwht.rows"] = counts["fwht.rows"]

    iters = counts["lsqr.iters"] + counts["lsmr.iters"]
    solver_self = self_s("solvers.lsqr") + self_s("solvers.lsmr")
    out["solvers.lsqr.iters"] = counts["lsqr.iters"]
    out["solvers.lsmr.iters"] = counts["lsmr.iters"]
    out["solvers.iter_ms"] = 1000.0 * solver_self / iters if iters else 0.0
    out["solvers.SA_matvecs"] = counts["SA_matvecs"]
    out["solvers.observer.fresh"] = counts["observer.fresh"]
    out["solvers.observer.s"] = totals.get("solvers.observer", {}).get("s", 0.0)

    solves = counts["solves"]
    out["stopping.stabilized_frac"] = counts["solves.stabilized"] / solves if solves else 0.0
    out["stopping.iters_per_solve_med"] = (
        float(statistics.median(tracer.solve_iterations)) if solves else 0.0)

    out["matio.spectral_norms.power_iters"] = counts["power_iters"]
    out["matio.A_matvecs"] = calls("matio.A_matvec")
    out["matio.densify.bytes"] = counts["densify.bytes"]
    out["cli.write.bytes"] = counts["write.bytes"]
    return out
