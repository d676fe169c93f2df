"""Batch experiment harness.

Loads or synthesizes problems, builds sketches, runs LSQR/LSMR under a chosen
stopping policy, and writes per-run trace CSVs, bound-report CSVs, and an
aggregate summary.  Re-running the same configuration reproduces every output
byte for byte.

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

Exit codes: 0 all runs clean, 1 configuration error, 2 at least one run
errored, 3 at least one bound failed.
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
    skip_large: bool = False

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
        for mult in self.d_mults:
            if mult <= 0:
                raise ConfigError("d multipliers must be positive")
        try:
            StoppingPolicy(mode=self.stop, tol=self.tol, window=self.window,
                           band=self.band)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_synthetic(spec: str) -> Tuple[int, int, float]:
    """``(m, n, cond)`` from a synthetic source spec ``m,n,cond``."""
    try:
        m, n, cond = spec.split(",")
        return int(m), int(n), float(cond)
    except ValueError:
        raise ConfigError(f"synthetic spec '{spec}' must be m,n,cond") from None


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
    kv = _parse_kv(text)

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

    kinds = []
    for item in kv.get("kind", []):
        for word in item.split(","):
            word = word.strip()
            if word:
                try:
                    kinds.append(embed.SketchKind(word))
                except ValueError:
                    raise ConfigError(f"unknown embedding kind '{word}'") from None

    d_mults = []
    for item in kv.get("d_mult", []):
        for word in item.split(","):
            if word.strip():
                d_mults.append(float(word))
    if not d_mults:
        d_mults = [2.0]

    seeds = []
    for item in kv.get("seeds", []):
        for word in item.split(","):
            if word.strip():
                seeds.append(int(word))
    if not seeds:
        seeds = [0]

    band_lo = float(single("band_lo", "0.99"))
    band_hi = float(single("band_hi", "1.01"))
    try:
        stop = StopMode(single("stop", "stab-ne"))
    except ValueError:
        raise ConfigError(f"unknown stop mode '{single('stop')}'") from None

    config = ExperimentConfig(
        sources=sources,
        kinds=kinds,
        d_mults=d_mults,
        solver=single("solver", "lsmr"),
        stop=stop,
        tol=float(single("tol", "0")),
        window=int(single("window", "5")),
        band=(band_lo, band_hi),
        seeds=seeds,
        rho=float(single("rho", "1e-3")),
        output_dir=single("output_dir", "out"),
        stride=int(single("stride", "1")),
        skip_large=single("skip_large", "0") in ("1", "true", "yes"),
    )
    config.validate()
    return config


def _compute_d(mult: float, n: int, m: int) -> int:
    d = math.ceil(mult * n)
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
        return synthesize_problem(self.A, self.seed, self.rho).b

    @cached_property
    def oracle(self) -> LsOracle:
        return solve_ls_oracle(self.A, self.b)

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis of span([A b]) for :func:`embed.exact_distortion`."""
        return embed.subspace_basis(self.A, self.b)


@dataclass
class RunOutcome:
    label: str
    error: Optional[str] = None
    bounds_failed: int = 0
    summary: Optional[dict] = None


SUMMARY_COLUMNS = ["matrix", "kind", "d", "seed", "solver", "iterations",
                   "termination", "epsilon", "kappa", "final_rnorm",
                   "final_ne_ratio", "r_ls_norm", "bounds_passed", "bounds_failed"]


def _solvers_for(config: ExperimentConfig):
    if config.solver == "both":
        return [("lsqr", lsqr), ("lsmr", lsmr)]
    return [(config.solver, lsqr if config.solver == "lsqr" else lsmr)]


def _make_controller(config: ExperimentConfig, norm_SA: float, eps: float) -> StoppingController:
    policy = StoppingPolicy(mode=config.stop, tol=config.tol,
                            window=config.window, band=config.band)
    return StoppingController(policy, op_norm=norm_SA, epsilon=eps)


def run_single(name: str, kind: embed.SketchKind, d: int, problem: SeedProblem,
               config: ExperimentConfig, out_dir: Path) -> RunOutcome:
    A, seed = problem.A, problem.seed
    label = f"{name}_{kind.value}_d{d}_s{seed}"
    if config.skip_large and kind is embed.SketchKind.GAUSSIAN \
            and d * A.rows > GAUSSIAN_PAYLOAD_GUARD:
        return RunOutcome(label=label, error=None,
                          summary={"skipped": "gaussian payload exceeds guard"})
    b, oracle = problem.b, problem.oracle
    # A's spectral data (one cached QR of A) before the sketch is built, so
    # that the QR's working copy of A is not held together with the sketch
    # and the basis: on a tall A that would set the peak memory
    A.spectral()
    S = embed.build_sketch(kind, d, A.rows, seed)
    report = embed.exact_distortion(S, A, b, problem.basis)
    P = diagnostics.SketchedProblem(A, b, S)
    op = LinearOperatorView.from_matrix(P.SA)

    bound_reports = diagnostics.run_bound_suite(P, oracle, include_acute=True,
                                                eps=report.epsilon)
    bounds_path = out_dir / f"{label}_bounds.csv"
    diagnostics.write_bound_reports(bounds_path, bound_reports, seed=seed,
                                    kind=kind.value, matrix=name, d=d)
    failed = sum(1 for r in bound_reports if not r.passed
                 and "sufficient-not-necessary" not in r.note)

    summaries = []
    for solver_name, solver_fn in _solvers_for(config):
        controller = _make_controller(config, P.norm_SA, report.epsilon)
        observer = MetricsObserver(A, b, stride=config.stride, oracle=oracle)
        result = solver_fn(op, P.Sb, observer=observer, stop=controller)
        write_trace(out_dir / f"{label}_{solver_name}_trace.csv", result.trace)
        last = result.trace[-1] if result.trace else None
        summaries.append({
            "matrix": name, "kind": kind.value, "d": d, "seed": seed,
            "solver": solver_name, "iterations": result.iterations,
            "termination": result.termination.value,
            "epsilon": report.epsilon, "kappa": A.condition_number(),
            "final_rnorm": last.unsketched_residual_norm if last else math.nan,
            "final_ne_ratio": last.unsketched_normal_ratio if last else math.nan,
            "r_ls_norm": oracle.r_ls_norm,
            "bounds_passed": len(bound_reports) - failed,
            "bounds_failed": failed,
        })
    return RunOutcome(label=label, bounds_failed=failed, summary={"rows": summaries})


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
        try:
            A = source.load()
        except Exception as exc:  # noqa: BLE001 - batch harness records and continues
            outcomes.append(RunOutcome(label=source.name, error=f"load failed: {exc}"))
            continue
        outcomes.extend(_run_source(A, source.name, config, out_dir))
    summary_rows = [row for o in outcomes if o.summary and "rows" in o.summary
                    for row in o.summary["rows"]]

    with open(out_dir / "summary.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary_rows:
            formatted = dict(row)
            for key in ("epsilon", "kappa", "final_rnorm", "final_ne_ratio", "r_ls_norm"):
                formatted[key] = f"{row[key]:.17g}"
            writer.writerow(formatted)

    errors = [o for o in outcomes if o.error]
    for o in errors:
        print(f"error: {o.label}: {o.error}", file=sys.stderr)
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
    A = problem.A
    S = embed.build_sketch(kind, d, A.rows, problem.seed)
    eps = embed.exact_distortion(S, A, problem.b, problem.basis).epsilon
    P = diagnostics.SketchedProblem(A, problem.b, S)
    observer = MetricsObserver(A, problem.b, stride=stride)
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


def sweep_d(config: ExperimentConfig, d_values: List[int],
            matrices: Optional[List[MatrixHandle]] = None) -> int:
    """Aggregate distortion and plateau statistics across sketch sizes.

    ``matrices`` are the loaded sources in config order; they are loaded here
    when not given.  Every d is checked against every source before any
    work starts.  A (kind, d) cell that raises is recorded and reported as an
    ``error:`` line, like a run of :func:`run_experiment`, and the sweep goes
    on.
    """
    if len(d_values) < 2:
        raise ConfigError("sweep-d needs at least two d values")
    if matrices is None:
        matrices = [source.load() for source in config.sources]
    for source, A in zip(config.sources, matrices):
        for d in d_values:
            if not (A.cols <= d < A.rows):
                raise ConfigError(f"d={d} violates n <= d < m for {source.name}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    errors: List[RunOutcome] = []
    for source, A in zip(config.sources, matrices):
        source_rows, source_errors = _sweep_source(A, source.name, config, d_values)
        rows.extend(source_rows)
        errors.extend(source_errors)
    path = out_dir / "sweep_d.csv"
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "kind", "d", "eps_median", "eps_q1", "eps_q3",
                         "plateau_median", "plateau_q1", "plateau_q3"])
        writer.writerows(rows)
    print(f"wrote {path}")
    for o in errors:
        print(f"error: {o.label}: {o.error}", file=sys.stderr)
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
    lengths: Dict[Tuple[str, str, str], int] = {}
    for path in traces:
        stem = path.name[: -len("_trace.csv")]
        parts = stem.split("_")
        if len(parts) < 4:
            print(f"warning: skipping unrecognized trace {path.name}", file=sys.stderr)
            continue
        solver = parts[-1]
        kind = parts[-4]
        series_name = stem
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        for style, column in (("ratio", "ne_ratio"), ("residual", "rnorm")):
            key = (style, kind, solver)
            groups.setdefault(key, {})[series_name] = [row[column] for row in rows]
            lengths[key] = max(lengths.get(key, 0), len(rows))
    written = []
    for (style, kind, solver), series in sorted(groups.items()):
        path = out_dir / f"figure_{style}_{kind}_{solver}.csv"
        names = sorted(series)
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + names)
            for i in range(lengths[(style, kind, solver)]):
                writer.writerow([i + 1] + [series[n][i] if i < len(series[n]) else ""
                                           for n in names])
        written.append(path)
        print(f"wrote {path}")
    return written


def check_single(matrix_path: Optional[str], synthetic: Optional[str], kind: str,
                 seed: int, d_mult: float, rho: float,
                 output: Optional[str]) -> int:
    """One bound-report batch, printed and optionally written to CSV."""
    if matrix_path:
        source = MatrixSource(name=Path(matrix_path).stem, path=matrix_path)
    elif synthetic:
        source = MatrixSource(name="synthetic", synthetic=_parse_synthetic(synthetic))
    else:
        raise ConfigError("check needs --matrix or --synthetic")
    A = source.load()
    d = _compute_d(d_mult, A.cols, A.rows)
    problem = synthesize_problem(A, seed, rho)
    oracle = solve_ls_oracle(A, problem.b)
    S = embed.build_sketch(kind, d, A.rows, seed)
    eps = embed.exact_distortion(S, A, problem.b).epsilon
    reports = diagnostics.run_bound_suite(diagnostics.SketchedProblem(A, problem.b, S),
                                          oracle, include_acute=True, eps=eps)
    print(f"matrix={source.name} kind={kind} d={d} seed={seed} eps={eps:.6g} "
          f"kappa={A.condition_number():.6g}")
    failed = 0
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        note = f"  [{rep.note}]" if rep.note else ""
        print(f"  {rep.bound_id.value:22s} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} {status}{note}")
        if not rep.passed and "sufficient-not-necessary" not in rep.note:
            failed += 1
    if output:
        diagnostics.write_bound_reports(output, reports, seed=seed, kind=kind,
                                        matrix=source.name, d=d)
    return EXIT_BOUND_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchls",
                                     description="sketch-and-solve least squares harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment batch")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="override: comma-separated seed list")
    p_run.add_argument("--stride", type=int, help="override observer stride")
    p_run.add_argument("--skip-large", action="store_true",
                       help="skip Gaussian runs whose payload exceeds the memory guard")
    p_run.add_argument("--stop", choices=[m.value for m in StopMode],
                       help="override stopping policy")
    p_run.add_argument("--tol", type=float, help="override stopping tolerance")
    p_run.add_argument("--window", type=int, help="override stabilization window")
    p_run.add_argument("--band-lo", type=float, help="override stabilization band floor")
    p_run.add_argument("--band-hi", type=float, help="override stabilization band ceiling")

    p_sweep = sub.add_parser("sweep-d", help="distortion/plateau statistics vs d")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--d-list", required=True,
                         help="comma-separated d values; suffix n multiplies cols, e.g. 1.2n,2.4n")

    p_check = sub.add_parser("check", help="single bound-report batch")
    p_check.add_argument("--matrix")
    p_check.add_argument("--synthetic", help="m,n,cond")
    p_check.add_argument("--kind", required=True,
                         choices=[k.value for k in embed.SketchKind])
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--d-mult", type=float, default=2.0)
    p_check.add_argument("--rho", type=float, default=1e-3)
    p_check.add_argument("--output")

    p_fig = sub.add_parser("figures", help="bundle trace CSVs into figure data")
    p_fig.add_argument("--output-dir", required=True)
    return parser


def _load_config(path: str, args) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    config = parse_config(text)
    if getattr(args, "seeds", None):
        config.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if getattr(args, "stride", None) is not None:
        config.stride = args.stride
    if getattr(args, "skip_large", False):
        config.skip_large = True
    if getattr(args, "stop", None):
        config.stop = StopMode(args.stop)
    if getattr(args, "tol", None) is not None:
        config.tol = args.tol
    if getattr(args, "window", None) is not None:
        config.window = args.window
    band_lo = getattr(args, "band_lo", None)
    band_hi = getattr(args, "band_hi", None)
    if band_lo is not None or band_hi is not None:
        lo, hi = config.band
        config.band = (band_lo if band_lo is not None else lo,
                       band_hi if band_hi is not None else hi)
    config.validate()
    return config


def _parse_d_list(spec: str, cols_by_source: List[int]) -> List[int]:
    values = []
    for word in spec.split(","):
        word = word.strip()
        if not word:
            continue
        if word.endswith("n"):
            mult = float(word[:-1])
            values.append(("mult", mult))
        else:
            values.append(("abs", int(word)))
    if len(cols_by_source) != 1 and any(tag == "mult" for tag, _ in values):
        raise ConfigError("multiplier d values need a single matrix source")
    n = cols_by_source[0]
    return [math.ceil(val * n) if tag == "mult" else int(val) for tag, val in values]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(_load_config(args.config, args))
        if args.command == "sweep-d":
            config = _load_config(args.config, args)
            matrices = [s.load() for s in config.sources]
            d_values = _parse_d_list(args.d_list, [A.cols for A in matrices])
            return sweep_d(config, d_values, matrices)
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
