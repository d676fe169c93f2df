"""Batch experiment harness.

Loads or synthesizes problems, builds sketches, runs LSQR/LSMR under a chosen
stopping policy, and writes per-run trace CSVs, bound-report CSVs, and an
aggregate summary.  Re-running the same configuration at the same BLAS thread
count reproduces every output byte for byte; across thread counts the last
digits can move, because a Gaussian sketch is applied in 64-row blocks whose
products depend on it.  ``sweep-d`` also runs slower under two BLAS threads
than under one (``OPENBLAS_NUM_THREADS=1``).

Config files are flat ``key=value`` text; repeated keys accumulate into lists::

    matrix = data/illc1033.mtx
    synthetic = 400,40,50
    kind = gaussian
    kind = srht
    d_mult = 2.0
    solver = both
    stop = stab-ne
    seeds = 0,1,2
    rho = 1e-3
    output_dir = out

An unknown key is a config error.  Each ``run`` override (``--seeds`` ...
``--band-hi``) is the config key of its name (``seeds`` ... ``band_hi``): it
replaces the file's value before any parse, under the same rules.  ``check``
and ``sweep-d`` values are parsed by the same code, so a malformed value from
a file or a flag is a config error.

Exit codes: 0 all runs clean, 1 configuration error, 2 at least one run
errored, 3 at least one bound failed.  An argparse usage error (an unknown
flag, a missing ``--config``) also exits 2, before any run starts.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics, embed
from .matio import (LsOracle, MatrixHandle, load_matrix_market, solve_ls_oracle,
                    synthesize_matrix, synthesize_problem)
from .solvers import (LinearOperatorView, MetricsObserver, Termination,
                      lsmr, lsqr, write_trace)
from .stopping import StopMode, StoppingController, StoppingPolicy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_ERROR = 2
EXIT_BOUND_FAILED = 3

# The largest n of a source, checked by _load for every command: each
# densely factors A, and the QR keeps an m-by-n Q
DESK_SCALE_COLS = 5000

# The largest d * m of a Gaussian sketch: its dense d-by-m G is drawn whole.
GAUSSIAN_PAYLOAD_GUARD = 200_000_000


class ConfigError(ValueError):
    pass


@dataclass
class MatrixSource:
    name: str
    path: Optional[str] = None
    synthetic: Optional[Tuple[int, int, float]] = None  # (m, n, cond)

    def load(self) -> MatrixHandle:
        if self.path is not None:
            return load_matrix_market(self.path)
        m, n, cond = self.synthetic
        return synthesize_matrix(m, n, cond, seed=0xC0FFEE)


@dataclass
class ExperimentConfig:
    sources: List[MatrixSource]
    kinds: List[embed.SketchKind]
    d_mults: List[float] = field(default_factory=lambda: [2.0])
    solver: str = "lsmr"
    stop: StopMode = StopMode.STABILIZE_NORMAL_RATIO
    tol: float = 0.0
    window: int = 5
    band: Tuple[float, float] = (0.99, 1.01)
    seeds: List[int] = field(default_factory=lambda: [0])
    rho: float = 1e-3
    output_dir: str = "out"
    stride: int = 1

    def validate(self):
        if not self.sources:
            raise ConfigError("no matrix sources configured")
        if not self.kinds:
            raise ConfigError("no embedding kinds configured")
        if self.solver not in ("lsqr", "lsmr", "both"):
            raise ConfigError(f"unknown solver '{self.solver}'")
        if self.rho <= 0:
            raise ConfigError("rho must be positive")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if any(mult <= 0 for mult in self.d_mults):
            raise ConfigError("d multipliers must be positive")
        try:
            self.policy()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def policy(self) -> StoppingPolicy:
        return StoppingPolicy(mode=self.stop, tol=self.tol, window=self.window,
                              band=self.band)


def _number(text: str, kind: type, what: str):
    """``text`` as a finite ``kind`` (``int`` or ``float``); :class:`ConfigError`
    when it does not parse or is not finite."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got '{text.strip()}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got '{text.strip()}'")
    return value


def _words(items: List[str]) -> List[str]:
    """The nonblank comma-separated words of list values."""
    return [word.strip() for item in items for word in item.split(",") if word.strip()]


def _kind(word: str) -> embed.SketchKind:
    try:
        return embed.SketchKind(word)
    except ValueError:
        raise ConfigError(f"unknown embedding kind '{word}'") from None


def _parse_synthetic(spec: str) -> Tuple[int, int, float]:
    """``(m, n, cond)`` from a synthetic source spec ``m,n,cond``, checked
    here so that a bad spec is a config error, not a failed load or run."""
    what = f"synthetic spec '{spec}' must be m,n,cond"
    fields = spec.split(",")
    if len(fields) != 3:
        raise ConfigError(what)
    m, n = (_number(text, int, f"{what}: {name}") for text, name in zip(fields, "mn"))
    cond = _number(fields[2], float, f"{what}: cond")
    if n < 1 or m < n:
        raise ConfigError(f"{what} with m >= n >= 1")
    if cond < 1:
        raise ConfigError(f"{what} with cond >= 1")
    return m, n, cond


def _parse_kv(text: str) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def parse_config(text: str) -> ExperimentConfig:
    return _config_from_kv(_parse_kv(text))


CONFIG_KEYS = ("matrix", "synthetic", "kind", "d_mult", "solver", "stop", "tol", "window",
               "band_lo", "band_hi", "seeds", "rho", "output_dir", "stride")


def _config_from_kv(kv: Dict[str, List[str]]) -> ExperimentConfig:
    """The validated config of a key -> values map; every value a user gives,
    from a config file or a ``run`` override, is parsed and checked here."""
    for key in kv:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")

    def single(key: str, default=None) -> Optional[str]:
        values = kv.get(key)
        if not values:
            return default
        if len(values) > 1:
            raise ConfigError(f"config key '{key}' given more than once")
        return values[0]

    sources: List[MatrixSource] = []
    for path in kv.get("matrix", []):
        sources.append(MatrixSource(name=Path(path).stem, path=path))
    for spec in kv.get("synthetic", []):
        m, n, cond = _parse_synthetic(spec)
        sources.append(MatrixSource(name=f"synth{m}x{n}c{cond:g}",
                                    synthetic=(m, n, cond)))

    def numbers(key: str, kind: type, default: list) -> list:
        """The list value of ``key``; ``default`` only when the key is absent."""
        if key not in kv:
            return default
        words = _words(kv[key])
        if not words:
            raise ConfigError(f"{key} is empty")
        return [_number(word, kind, key) for word in words]

    kinds = [_kind(word) for word in _words(kv.get("kind", []))]
    d_mults = numbers("d_mult", float, [2.0])
    seeds = numbers("seeds", int, [0])

    def number(key: str, kind: type, default: str):
        return _number(single(key, default), kind, key)

    try:
        stop = StopMode(single("stop", "stab-ne"))
    except ValueError:
        raise ConfigError(f"unknown stop mode '{single('stop')}'") from None

    output_dir = single("output_dir", "out")
    if not output_dir:
        raise ConfigError("output_dir is empty")

    config = ExperimentConfig(
        sources=sources,
        kinds=kinds,
        d_mults=d_mults,
        solver=single("solver", "lsmr"),
        stop=stop,
        tol=number("tol", float, "0"),
        window=number("window", int, "5"),
        band=(number("band_lo", float, "0.99"), number("band_hi", float, "1.01")),
        seeds=seeds,
        rho=number("rho", float, "1e-3"),
        output_dir=output_dir,
        stride=number("stride", int, "1"),
    )
    config.validate()
    return config


def _scaled_d(mult: float, n: int) -> int:
    """ceil(mult * n); infinite when the product overflows."""
    product = mult * n
    return math.ceil(product) if math.isfinite(product) else math.inf


def _compute_d(mult: float, n: int, m: int) -> int:
    d = _scaled_d(mult, n)
    if not (n <= d < m):
        raise ConfigError(f"d = ceil({mult} * {n}) = {d} violates n <= d < m = {m}")
    return d


class SeedProblem:
    """Problem-level quantities of one (matrix, seed), shared by every
    (kind, d) cell of that seed.

    Each is computed on first use, so a cell that does not need one does not
    pay for it.  One that raises is not stored: every cell that needs it
    raises the same error and records it as its own.
    """

    def __init__(self, A: MatrixHandle, seed: int, rho: float):
        self.A = A
        self.seed = seed
        self.rho = rho

    @cached_property
    def b(self) -> np.ndarray:
        return synthesize_problem(self.A, self.seed, self.rho)

    @cached_property
    def oracle(self) -> LsOracle:
        return solve_ls_oracle(self.A, self.b)

    @cached_property
    def basis(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Orthonormal basis ``(Q, q)`` of span([A b]) for the distortion of
        each cell's sketch (:func:`_sketch_cell`): the Q of A's cached
        pivoted QR, which every seed of the matrix shares, and the unit
        component of b orthogonal to it (see :func:`embed.subspace_basis`).
        Only q, one m-vector, belongs to the seed."""
        return embed.subspace_basis(self.A, self.b)


@dataclass
class RunOutcome:
    label: str
    error: Optional[str] = None
    bounds_failed: int = 0
    rows: List[dict] = field(default_factory=list)


def _load(source: MatrixSource) -> Tuple[Optional[MatrixHandle], Optional[RunOutcome]]:
    """``(A, None)`` for a usable source, ``(None, its error)`` otherwise; n
    above ``DESK_SCALE_COLS`` is an error too."""
    try:
        A = source.load()
    except Exception as exc:  # noqa: BLE001 - batch harness records and continues
        return None, RunOutcome(label=source.name, error=f"load failed: {exc}")
    if A.cols > DESK_SCALE_COLS:
        return None, RunOutcome(label=source.name, error=(
            f"n = {A.cols} exceeds the desk-scale limit {DESK_SCALE_COLS}, "
            "the largest n with a dense factorization"))
    return A, None


def _print_errors(outcomes: List[RunOutcome]) -> None:
    for o in outcomes:
        print(f"error: {o.label}: {o.error}", file=sys.stderr)


SUMMARY_COLUMNS = ["matrix", "kind", "d", "seed", "solver", "iterations",
                   "termination", "epsilon", "kappa", "final_rnorm",
                   "final_ne_ratio", "r_ls_norm", "bounds_passed", "bounds_failed"]


def _solvers_for(config: ExperimentConfig):
    if config.solver == "both":
        return [("lsqr", lsqr), ("lsmr", lsmr)]
    return [(config.solver, lsqr if config.solver == "lsqr" else lsmr)]


def _sketch_cell(problem: SeedProblem, kind: embed.SketchKind, d: int
                 ) -> Tuple[diagnostics.SketchedProblem, float]:
    """The sketched problem of one (seed, kind, d) cell and the distortion
    eps of its sketch over span([A b]).

    One pass of :func:`embed.sketch_operands` sketches the basis ``(Q, q)``,
    A and b together, so a Gaussian G is drawn while its finished row blocks
    are applied.  A Gaussian sketch with d * m above
    ``GAUSSIAN_PAYLOAD_GUARD`` raises before any draw.
    """
    A, b = problem.A, problem.b
    if kind is embed.SketchKind.GAUSSIAN and d * A.rows > GAUSSIAN_PAYLOAD_GUARD:
        raise ValueError(f"Gaussian sketch d * m = {d * A.rows} exceeds the "
                         f"payload guard {GAUSSIAN_PAYLOAD_GUARD}")
    Q, q = problem.basis
    S, (SQ, Sq, SA, Sb) = embed.sketch_operands(kind, d, A.rows, problem.seed,
                                                [Q, q, A, b])
    eps = embed.basis_distortion(SQ, Sq).epsilon
    return diagnostics.SketchedProblem(A, b, S, SA=SA, Sb=Sb), eps


def _bound_suite(problem: SeedProblem, kind: embed.SketchKind, d: int
                 ) -> Tuple[diagnostics.SketchedProblem, float, List[diagnostics.BoundReport]]:
    """The sketched problem of one (seed, kind, d) cell, the distortion eps
    of its sketch and its bound reports."""
    oracle = problem.oracle
    P, eps = _sketch_cell(problem, kind, d)
    return P, eps, diagnostics.run_bound_suite(P, oracle, eps)


def run_single(name: str, kind: embed.SketchKind, d: int, problem: SeedProblem,
               config: ExperimentConfig, out_dir: Path) -> RunOutcome:
    A, seed = problem.A, problem.seed
    label = f"{name}_{kind.value}_d{d}_s{seed}"
    P, eps, bound_reports = _bound_suite(problem, kind, d)
    b, oracle = problem.b, problem.oracle
    op = LinearOperatorView.from_matrix(P.SA)
    bounds_path = out_dir / f"{label}_bounds.csv"
    diagnostics.write_bound_reports(bounds_path, bound_reports, seed=seed,
                                    kind=kind.value, matrix=name, d=d)
    failed = sum(1 for r in bound_reports if not r.passed)

    summaries = []
    for solver_name, solver_fn in _solvers_for(config):
        controller = StoppingController(config.policy(), op_norm=P.norm_SA, epsilon=eps)
        observer = MetricsObserver(A, b, stride=config.stride, oracle=oracle)
        result = solver_fn(op, P.Sb, observer=observer, stop=controller)
        write_trace(out_dir / f"{label}_{solver_name}_trace.csv", result.trace)
        last = result.trace[-1] if result.trace else None
        summaries.append({
            "matrix": name, "kind": kind.value, "d": d, "seed": seed,
            "solver": solver_name, "iterations": result.iterations,
            "termination": result.termination.value,
            "epsilon": eps, "kappa": A.condition_number(),
            "final_rnorm": last.unsketched_residual_norm if last else math.nan,
            "final_ne_ratio": last.unsketched_normal_ratio if last else math.nan,
            "r_ls_norm": oracle.r_ls_norm,
            "bounds_passed": len(bound_reports) - failed,
            "bounds_failed": failed,
        })
    return RunOutcome(label=label, bounds_failed=failed, rows=summaries)


def _run_source(A: MatrixHandle, name: str, config: ExperimentConfig,
                out_dir: Path) -> List[RunOutcome]:
    """Every (kind, d, seed) run on one matrix, in kind -> d -> seed order.

    The runs go seed by seed, so that the runs of one seed share its
    :class:`SeedProblem` and only one seed's problem is held at a time.
    """
    cells: List[Tuple[embed.SketchKind, Optional[int], List[RunOutcome]]] = []
    for kind in config.kinds:
        for mult in config.d_mults:
            try:
                cells.append((kind, _compute_d(mult, A.cols, A.rows), []))
            except ConfigError as exc:
                cells.append((kind, None, [RunOutcome(label=f"{name}_{kind.value}",
                                                      error=str(exc))]))
    for seed in config.seeds:
        problem = SeedProblem(A, seed, config.rho)
        for kind, d, outcomes in cells:
            if d is None:
                continue
            try:
                outcome = run_single(name, kind, d, problem, config, out_dir)
            except Exception as exc:  # noqa: BLE001 - batch harness records and continues
                outcome = RunOutcome(label=f"{name}_{kind.value}_d{d}_s{seed}",
                                     error=str(exc))
            outcomes.append(outcome)
    return [outcome for _, _, outcomes in cells for outcome in outcomes]


def run_experiment(config: ExperimentConfig) -> int:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes: List[RunOutcome] = []
    for source in config.sources:
        A, failed = _load(source)
        if failed is not None:
            outcomes.append(failed)
            continue
        outcomes.extend(_run_source(A, source.name, config, out_dir))
    summary_rows = [row for o in outcomes for row in o.rows]

    with open(out_dir / "summary.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary_rows:
            formatted = dict(row)
            for key in ("epsilon", "kappa", "final_rnorm", "final_ne_ratio", "r_ls_norm"):
                formatted[key] = f"{row[key]:.17g}"
            writer.writerow(formatted)

    errors = [o for o in outcomes if o.error]
    _print_errors(errors)
    failed_bounds = sum(o.bounds_failed for o in outcomes)
    print(f"runs: {len(outcomes)}  errors: {len(errors)}  bound failures: {failed_bounds}")
    if errors:
        return EXIT_RUN_ERROR
    if failed_bounds:
        return EXIT_BOUND_FAILED
    return EXIT_OK


def plateau_value(ne_ratios: List[float], tail: int = 5) -> float:
    """Median of the trailing fresh normal-ratio values; the stabilized level."""
    values = ne_ratios[-tail:] if len(ne_ratios) >= tail else ne_ratios
    return float(np.median(values))


def _sweep_cell(problem: SeedProblem, kind: embed.SketchKind, d: int,
                stride: int) -> Tuple[float, float]:
    """Distortion and plateau of one (kind, d) sketch of one seed's problem."""
    P, eps = _sketch_cell(problem, kind, d)
    observer = MetricsObserver(problem.A, problem.b, stride=stride, oracle=problem.oracle)
    result = lsmr(LinearOperatorView.from_matrix(P.SA), P.Sb, observer=observer)
    return eps, plateau_value([r.unsketched_normal_ratio for r in result.trace
                               if not r.stale])


def _sweep_source(A: MatrixHandle, name: str, config: ExperimentConfig,
                  d_values: List[int]) -> Tuple[List[list], List[RunOutcome]]:
    """``sweep_d.csv`` rows and failed cells of one matrix, in kind -> d order.

    Seed by seed, like :func:`_run_source`; a cell that raises skips its
    remaining seeds.
    """
    cells = [(kind, d) for kind in config.kinds for d in d_values]
    eps_values: List[List[float]] = [[] for _ in cells]
    plateaus: List[List[float]] = [[] for _ in cells]
    failures: List[Optional[RunOutcome]] = [None] * len(cells)
    for seed in config.seeds:
        problem = SeedProblem(A, seed, config.rho)
        for i, (kind, d) in enumerate(cells):
            if failures[i] is not None:
                continue
            try:
                eps, plateau = _sweep_cell(problem, kind, d, config.stride)
            except Exception as exc:  # noqa: BLE001
                failures[i] = RunOutcome(label=f"{name}_{kind.value}_d{d}",
                                         error=f"seed {seed}: {exc}")
                continue
            eps_values[i].append(eps)
            plateaus[i].append(plateau)
    rows = []
    for (kind, d), cell_eps, cell_plateaus, failure in zip(cells, eps_values, plateaus,
                                                            failures):
        if failure is not None:
            continue
        q1e, q2e, q3e = np.percentile(cell_eps, [25, 50, 75])
        q1p, q2p, q3p = np.percentile(cell_plateaus, [25, 50, 75])
        rows.append([name, kind.value, d,
                     f"{q2e:.17g}", f"{q1e:.17g}", f"{q3e:.17g}",
                     f"{q2p:.17g}", f"{q1p:.17g}", f"{q3p:.17g}"])
    return rows, [f for f in failures if f is not None]


def sweep_d(config: ExperimentConfig, d_list: str) -> int:
    """Aggregate distortion and plateau statistics across sketch sizes.

    ``d_list`` is the ``--d-list`` text: comma-separated d values, where a
    suffix ``n`` multiplies the column count of the single source.  A source
    that fails to load is reported and the sweep goes on with the others.
    Every d is checked against every loaded source before any work starts.
    A (kind, d) cell that raises is recorded and reported as an ``error:``
    line, like a run of :func:`run_experiment`, and the sweep goes on.
    """
    loaded = [(source.name, *_load(source)) for source in config.sources]
    matrices = [(name, A) for name, A, _ in loaded if A is not None]
    errors = [failure for _, _, failure in loaded if failure is not None]
    if not matrices:
        _print_errors(errors)
        return EXIT_RUN_ERROR
    d_values = _parse_d_list(d_list, [A.cols for _, A in matrices])
    if len(d_values) < 2:
        raise ConfigError("sweep-d needs at least two d values")
    for name, A in matrices:
        for d in d_values:
            if not (A.cols <= d < A.rows):
                raise ConfigError(f"d={d} violates n <= d < m for {name}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, A in matrices:
        source_rows, source_errors = _sweep_source(A, name, config, d_values)
        rows.extend(source_rows)
        errors.extend(source_errors)
    path = out_dir / "sweep_d.csv"
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "kind", "d", "eps_median", "eps_q1", "eps_q3",
                         "plateau_median", "plateau_q1", "plateau_q3"])
        writer.writerows(rows)
    print(f"wrote {path}")
    _print_errors(errors)
    return EXIT_RUN_ERROR if errors else EXIT_OK


def emit_figure_data(output_dir) -> List[Path]:
    """Bundle per-run traces into per-(style, kind, solver) CSVs.

    Styles: ``ratio`` (unsketched normal ratio vs k) and ``residual``
    (unsketched residual norm vs k); one column per run.
    """
    out_dir = Path(output_dir)
    traces = sorted(out_dir.glob("*_trace.csv"))
    if not traces:
        print(f"warning: no trace files in {out_dir}", file=sys.stderr)
        return []
    groups: Dict[Tuple[str, str, str], Dict[str, List[str]]] = {}
    for path in traces:
        stem = path.name[: -len("_trace.csv")]
        parts = stem.split("_")
        if len(parts) < 4:
            print(f"warning: skipping unrecognized trace {path.name}", file=sys.stderr)
            continue
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        for style, column in (("ratio", "ne_ratio"), ("residual", "rnorm")):
            groups.setdefault((style, parts[-4], parts[-1]), {})[stem] = \
                [row[column] for row in rows]
    written = []
    for (style, kind, solver), series in sorted(groups.items()):
        path = out_dir / f"figure_{style}_{kind}_{solver}.csv"
        names = sorted(series)
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + names)
            for i in range(max(len(values) for values in series.values())):
                writer.writerow([i + 1] + [series[n][i] if i < len(series[n]) else ""
                                           for n in names])
        written.append(path)
        print(f"wrote {path}")
    return written


def check_single(matrix_path: Optional[str], synthetic: Optional[str], kind: str,
                 seed: str, d_mult: str, rho: str, output: Optional[str]) -> int:
    """One bound-report batch, printed and optionally written to CSV."""
    sketch_kind = _kind(kind)
    seed = _number(seed, int, "--seed")
    d_mult = _number(d_mult, float, "--d-mult")
    rho = _number(rho, float, "--rho")
    if rho <= 0:
        raise ConfigError("--rho must be positive")
    if matrix_path:
        source = MatrixSource(name=Path(matrix_path).stem, path=matrix_path)
    elif synthetic:
        source = MatrixSource(name="synthetic", synthetic=_parse_synthetic(synthetic))
    else:
        raise ConfigError("check needs --matrix or --synthetic")
    A, failure = _load(source)
    if failure is not None:
        _print_errors([failure])
        return EXIT_RUN_ERROR
    d = _compute_d(d_mult, A.cols, A.rows)
    try:
        _, eps, reports = _bound_suite(SeedProblem(A, seed, rho), sketch_kind, d)
    except Exception as exc:  # noqa: BLE001 - reported like a run of run_experiment
        _print_errors([RunOutcome(label=f"{source.name}_{sketch_kind.value}_d{d}_s{seed}",
                                  error=str(exc))])
        return EXIT_RUN_ERROR
    print(f"matrix={source.name} kind={kind} d={d} seed={seed} eps={eps:.6g} "
          f"kappa={A.condition_number():.6g}")
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        note = f"  [{rep.note}]" if rep.note else ""
        print(f"  {rep.bound_id.value:22s} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} {status}{note}")
    failed = sum(1 for rep in reports if not rep.passed)
    if output:
        diagnostics.write_bound_reports(output, reports, seed=seed, kind=kind,
                                        matrix=source.name, d=d)
    return EXIT_BOUND_FAILED if failed else EXIT_OK


RUN_OVERRIDES = ("seeds", "stride", "stop", "tol", "window", "band_lo", "band_hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchls",
                                     description="sketch-and-solve least squares harness")
    sub = parser.add_subparsers(dest="command", required=True)
    stop_modes = ", ".join(m.value for m in StopMode)
    kinds = ", ".join(k.value for k in embed.SketchKind)

    p_run = sub.add_parser("run", help="run the configured experiment batch")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="override: comma-separated seed list")
    p_run.add_argument("--stride", help="override observer stride")
    p_run.add_argument("--stop", help=f"override stopping policy: {stop_modes}")
    p_run.add_argument("--tol", help="override stopping tolerance")
    p_run.add_argument("--window", help="override stabilization window")
    p_run.add_argument("--band-lo", help="override stabilization band floor")
    p_run.add_argument("--band-hi", help="override stabilization band ceiling")

    p_sweep = sub.add_parser("sweep-d", help="distortion/plateau statistics vs d")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--d-list", required=True,
                         help="comma-separated d values; suffix n multiplies cols, e.g. 1.2n,2.4n")

    p_check = sub.add_parser("check", help="single bound-report batch")
    p_check.add_argument("--matrix")
    p_check.add_argument("--synthetic", help="m,n,cond")
    p_check.add_argument("--kind", required=True, help=f"embedding kind: {kinds}")
    p_check.add_argument("--seed", default="0")
    p_check.add_argument("--d-mult", default="2.0")
    p_check.add_argument("--rho", default="1e-3")
    p_check.add_argument("--output")

    p_fig = sub.add_parser("figures", help="bundle trace CSVs into figure data")
    p_fig.add_argument("--output-dir", required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file ``args.config`` with the ``run`` overrides in ``args``."""
    try:
        text = Path(args.config).read_text(encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    kv = _parse_kv(text)
    for key in RUN_OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            kv[key] = [value]
    return _config_from_kv(kv)


def _parse_d_list(spec: str, cols_by_source: List[int]) -> List[int]:
    words = _words([spec])
    if len(cols_by_source) != 1 and any(w.endswith("n") for w in words):
        raise ConfigError("multiplier d values need a single matrix source")
    return [_scaled_d(_number(w[:-1], float, "--d-list multiplier"), cols_by_source[0])
            if w.endswith("n") else _number(w, int, "--d-list") for w in words]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(_load_config(args))
        if args.command == "sweep-d":
            return sweep_d(_load_config(args), args.d_list)
        if args.command == "check":
            return check_single(args.matrix, args.synthetic, args.kind, args.seed,
                                args.d_mult, args.rho, args.output)
        if args.command == "figures":
            emit_figure_data(args.output_dir)
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
