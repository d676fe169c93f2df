"""Batch experiment harness.

Loads or synthesizes problems, builds sketches, runs LSQR/LSMR under a chosen
stopping policy, and writes per-run trace CSVs, bound-report CSVs, and an
aggregate summary.  ``sweep-d`` runs LSMR only, under the same policy; its
plateau is ||A^T r_s|| / (||A|| ||r_s||) at the sketched minimizer x_s, and
its stop columns are LSMR's iterations and last fresh ratio over the plateau.

``run``, ``sweep-d`` and ``check`` drive their cells alike
(:func:`_source_runs`): the sources go one by one, each loaded and its d
values fitted before its cells run; its seeds go one by one, and within a
seed the (kind, d) cells run in d -> kind order.  The outputs and the
``error:`` lines list the cells in kind -> d order, then seed.  The cells
run one after another on the calling thread.  A seed's shared work is b
and its LS oracle, which holds W = [Q u], Q the Q of A's pivoted QR and u
the unit part of b orthogonal to it.  Each cell sketches only W, factors
SW = Q_s T with T the Cholesky factor of SW^T SW (a Householder R when SW
is ill-conditioned), and reads eps, x_s, the bounds and both solves from
the (n + 1) x n pair (M, T W^T b) with SA = Q_s M
(:class:`sketchls.diagnostics.SketchedProblem`, the cell; no
command forms the d-row SA).  A Gaussian cell's SW is a d x (n + 1) draw
with the law of G W for a full Gaussian G, so it keeps the full-Gaussian
law with no m-row work (:mod:`sketchls.embed`).

Re-running the same configuration at the same BLAS thread count reproduces
every output byte for byte.  Across thread counts the last digits can move
for every kind, because multithreaded BLAS sums products such as
M = T R and the solvers' in another order; over 200 unconverged
iterations that can reach the leading digits of a trace.  The commands
also run slower at the default BLAS thread count than under one
(``OPENBLAS_NUM_THREADS=1``): on a two-core Xeon a 16000 x 100 ``run``
took 2.0 to 3.3 times as long, pair by pair over three alternating pairs.

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

An unknown key is a config error, and so is a synthetic spec ``m,n,cond``
without m > n >= 1 and cond >= 1: a square matrix fits no d.  A ``run`` or
``check`` flag is the config key of its name (``--band-hi`` is ``band_hi``,
``--seed`` is ``seeds``): it replaces the file's values before any parse,
under the same rules, so a malformed value from a file or a flag is a config
error.  ``check`` runs one cell of a config with no file, so more than one
source, kind, seed or d multiplier is a config error.  A source has one name
in every command: its file's stem, or ``synth<m>x<n>c<cond>``.  Its output
files and summary rows carry that name, so two sources of one name are a
config error, and so is one value given twice in a list key (``kind``,
``d_mult``, ``seeds``).

Exit codes: 0 all runs clean, 1 configuration error, 2 at least one run
errored, 3 at least one bound failed.  An argparse usage error (an unknown
flag, a missing ``--config``) also exits 2, before any run starts.

Run errors are the same in every command.  A source that fails to load,
that a d does not fit (n <= d < m), or on which two d values give one d,
runs no cell; each such error is one ``error: <source>: <message>`` line,
and the other sources still run.  A cell that raises at a seed is one
``error: <source>_<kind>_d<d>_s<seed>: <message>`` line; its other seeds
and the other cells still run, and in ``sweep-d`` a cell with a failed
seed has no row.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics, embed
from .matio import (LsOracle, MatrixHandle, load_matrix_market, solve_ls_oracle,
                    synthesize_matrix, synthesize_problem, write_csv)
from .solvers import (LinearOperatorView, MetricsObserver, SolveResult, lsmr, lsqr,
                      write_trace)
from .stopping import StopMode, StoppingController, StoppingPolicy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_ERROR = 2
EXIT_BOUND_FAILED = 3

# The largest n of a source, checked by _load for every command: each
# densely factors A, and the QR keeps an m-by-n Q
DESK_SCALE_COLS = 5000
SOLVERS = ("lsqr", "lsmr")  # in run order; a trace's name ends in its solver


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


def _number(what: str, text: str, kind: type = float):
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


def _positive(key: str, text: str, kind: type = float):
    value = _number(key, text, kind)
    if value <= 0:
        raise ConfigError(f"{key} must be positive")
    return value


def _member(choices, what: str, key: str, text: str):
    """The one of ``choices``, the members of an enum or plain strings, whose
    value is ``text``."""
    for choice in choices:
        if text == getattr(choice, "value", choice):
            return choice
    raise ConfigError(f"unknown {what} '{text}'")


def _synthetic(key: str, spec: str) -> MatrixSource:
    """The source of a synthetic spec ``m,n,cond``, checked here so that a
    bad spec is a config error, not a failed load or run."""
    what = f"synthetic spec '{spec}' must be m,n,cond"
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(what)
    m, n = (_number(f"{what}: {name}", text, int) for text, name in zip(parts, "mn"))
    cond = _number(f"{what}: cond", parts[2])
    if n < 1 or m <= n:
        raise ConfigError(f"{what} with m > n >= 1")
    if cond < 1:
        raise ConfigError(f"{what} with cond >= 1")
    return MatrixSource(name=f"synth{m}x{n}c{cond:g}", synthetic=(m, n, cond))


def _matrix(key: str, path: str) -> MatrixSource:
    """The source of a Matrix Market path, named by its stem; a stem that is
    not ASCII is a config error, since every output is ASCII and carries it."""
    if not Path(path).stem.isascii():
        raise ConfigError(f"matrix {path}: its name, the file's stem, is not ASCII")
    return MatrixSource(name=Path(path).stem, path=path)


def _key(how: str, parse: Callable, default: Optional[str] = None):
    """The field of a config key: how the key is given ("one" value, or a
    list of "lines", each one value, or of comma-separated "words"), the
    parser of one value, ``parse(key, text)``, and the text of its default,
    parsed like a user's.  A list key without a default is empty when absent."""
    return field(metadata={"config": (how, parse, default)})


@dataclass
class ExperimentConfig:
    """A parsed config (:func:`parse_config`): one field per config key, the
    ``sources`` of its two source keys, and ``policy``, the one stopping
    policy of every solve."""
    matrix: List[MatrixSource] = _key("lines", _matrix)
    synthetic: List[MatrixSource] = _key("lines", _synthetic)
    kind: List[embed.SketchKind] = _key("words", partial(_member, embed.SketchKind,
                                                         "embedding kind"))
    d_mult: List[float] = _key("words", _positive, "2.0")
    solver: str = _key("one", partial(_member, (*SOLVERS, "both"), "solver"), "lsmr")
    stop: StopMode = _key("one", partial(_member, StopMode, "stop mode"), "stab-ne")
    tol: float = _key("one", _number, "0")
    window: int = _key("one", partial(_number, kind=int), "5")
    band_lo: float = _key("one", _number, "0.99")
    band_hi: float = _key("one", _number, "1.01")
    seeds: List[int] = _key("words", partial(_number, kind=int), "0")
    rho: float = _key("one", _positive, "1e-3")
    output_dir: str = _key("one", lambda key, text: text, "out")
    stride: int = _key("one", partial(_positive, kind=int), "1")

    def __post_init__(self):
        if not self.sources:
            raise ConfigError("no matrix sources configured")
        if not self.kind:
            raise ConfigError("no embedding kinds configured")
        names = [source.name for source in self.sources]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"two sources are named '{name}', the name of their outputs")
        try:
            self.policy = StoppingPolicy(mode=self.stop, tol=self.tol, window=self.window,
                                         band=(self.band_lo, self.band_hi))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def sources(self) -> List[MatrixSource]:
        return self.matrix + self.synthetic


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


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


def _config_from_kv(kv: Dict[str, List[str]]) -> ExperimentConfig:
    """The validated config of a key -> values map; every value a user gives,
    from a config file or a flag, is parsed and checked here."""
    for key in kv:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    value = {}
    for key_field in fields(ExperimentConfig):
        key, (how, parse, default) = key_field.name, key_field.metadata["config"]
        texts = kv.get(key, [] if default is None else [default])
        if how == "words":
            texts = _words(texts)
        elif how == "one" and len(texts) > 1:
            raise ConfigError(f"config key '{key}' given more than once")
        if key in kv and not (texts and all(texts)):
            raise ConfigError(f"{key} is empty")
        parsed = [parse(key, text) for text in texts]
        again = _repeat(parsed) if how == "words" else None
        if again is not None:
            first = texts[parsed.index(parsed[again])]
            raise ConfigError(f"{key} gives one value twice, '{first}' and '{texts[again]}', "
                              "so its cells would run twice")
        value[key] = parsed[0] if how == "one" else parsed
    return ExperimentConfig(**value)


def _repeat(items: list) -> Optional[int]:
    """The index of the first of ``items`` equal to an earlier one, or None."""
    return next((i for i, item in enumerate(items) if item in items[:i]), None)


def _repeated_d(fits: List[Tuple[Optional[int], str]]) -> Optional[str]:
    """The run error of two d values that :func:`_fit_d` fits to one d on a
    source, whose cells would run twice, or None."""
    ds = [d for d, _ in fits if d is not None]
    again = _repeat(ds)
    if again is None:
        return None
    return f"two d values give d = {ds[again]}, so its cells would run twice"


def _ceil_times(value: float, n: int) -> int:
    """ceil(value * n), exact for the shortest decimal form of ``value``, its
    ``repr``: 55 for 1.1 * 50, where the double product 55.00000000000001
    has ceiling 56.  Integer arithmetic, so no ``fractions``/``decimal``
    import joins every run."""
    digits, _, exp = repr(value).partition("e")
    whole, _, frac = digits.partition(".")
    scale = int(exp or 0) - len(frac)
    num = int(whole + frac) * n
    return num * 10 ** scale if scale >= 0 else -(-num // 10 ** -scale)


def _fit_d(value: float, per_col: bool, A: MatrixHandle) -> Tuple[Optional[int], str]:
    """``(d, "")`` for d = ceil(value * n) (``per_col``, :func:`_ceil_times`;
    inf when the double product overflows) or d = value on A, or ``(None,
    the error)`` when d breaks n <= d < m: a run error of the source in every
    command, since it depends on the loaded shape."""
    n, m = A.cols, A.rows
    if per_col:
        d = _ceil_times(value, n) if math.isfinite(value * n) else math.inf
        how = f"ceil({value} * {n}) = "
    else:
        d, how = value, ""
    if n <= d < m:
        return d, ""
    return None, f"d = {how}{d} violates n <= d < m = {m}"


class SeedProblem:
    """Problem-level quantities of one (matrix, seed), shared by every
    (kind, d) cell of that seed: b and its LS oracle, with span([A b]).

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


@dataclass
class RunOutcome:
    label: str
    error: Optional[str] = None
    bounds_failed: int = 0
    rows: List[list] = field(default_factory=list)  # summary rows, or a sweep seed's row


def _load(source: MatrixSource) -> Tuple[Optional[MatrixHandle], Optional[str]]:
    """``(A, None)`` for a usable source, ``(None, its error)`` otherwise; n
    above ``DESK_SCALE_COLS`` is an error too, read from a synthetic spec
    before anything is drawn."""
    A = None
    n = source.synthetic[1] if source.synthetic is not None else 0  # 0: A's, once loaded
    if n <= DESK_SCALE_COLS:
        try:
            A = source.load()
        except Exception as exc:  # noqa: BLE001 - batch harness records and continues
            return None, f"load failed: {exc}"
        n = A.cols
    if n > DESK_SCALE_COLS:
        return None, (f"n = {n} exceeds the desk-scale limit {DESK_SCALE_COLS}, "
                      "the largest n with a dense factorization")
    return A, None


def _source_runs(source: MatrixSource, config: ExperimentConfig,
                 d_words: List[Tuple[float, bool]],
                 cell: Callable[..., RunOutcome]) -> List[List[RunOutcome]]:
    """The outcomes of every (kind, d) cell of one source, each a list of
    one per seed, in kind -> d order; ``cell(name, kind, d, problem)`` runs
    one cell at one seed.

    The source loads here, so that one A is held at a time, and each
    ``(value, per column)`` of ``d_words`` is fitted to it (:func:`_fit_d`).
    A failed load, a d that does not fit, or two d values that give one d
    are errors of the source, labelled with its name: it runs no cell and
    gives one list, of those errors.  The seeds go one by one, so that the
    cells of a seed share its :class:`SeedProblem` and only one seed's
    problem is held at a time; within a seed the cells run in d -> kind
    order.  A cell that raises is the error of that cell at that seed.
    """
    A, error = _load(source)
    fits = [] if A is None else [_fit_d(value, per_col, A) for value, per_col in d_words]
    errors = [e for e in [error, *(e for _, e in fits), _repeated_d(fits)] if e]
    if errors:
        return [[RunOutcome(label=source.name, error=e) for e in errors]]
    d_values = [d for d, _ in fits]
    cells: Dict[Tuple[embed.SketchKind, int], List[RunOutcome]] = {
        (kind, d): [] for kind in config.kind for d in d_values}
    for seed in config.seeds:
        problem = SeedProblem(A, seed, config.rho)
        for d in d_values:
            for kind in config.kind:
                try:
                    outcome = cell(source.name, kind, d, problem)
                except Exception as exc:  # noqa: BLE001 - batch harness records and continues
                    outcome = RunOutcome(label=_label(source.name, kind, d, seed),
                                         error=str(exc))
                cells[kind, d].append(outcome)
    return list(cells.values())


def _exit_code(outcomes: List[RunOutcome]) -> int:
    """Print the ``error:`` line of each failed outcome and return the exit
    code of them all: a run error before a failed bound."""
    errors = [o for o in outcomes if o.error]
    for o in errors:
        print(f"error: {o.label}: {o.error}", file=sys.stderr)
    if errors:
        return EXIT_RUN_ERROR
    return EXIT_BOUND_FAILED if any(o.bounds_failed for o in outcomes) else EXIT_OK


SUMMARY_COLUMNS = ["matrix", "kind", "d", "seed", "solver", "iterations",
                   "termination", "epsilon", "kappa", "final_rnorm",
                   "final_ne_ratio", "r_ls_norm", "bounds_passed", "bounds_failed"]


def _sketch_cell(problem: SeedProblem, kind: embed.SketchKind, d: int
                 ) -> diagnostics.SketchedProblem:
    """The sketched problem of one (seed, kind, d) cell in the coordinates of
    W = [Q u] (``problem.oracle.span``), with the distortion ``eps`` of its sketch.

    SW = S W is :func:`embed.gaussian_span_sketch`'s draw, or S Q and S u
    for S from :func:`embed.build_sketch`, applied straight into the
    columns of a C-ordered SW whose Gram BLAS reads in place.  Q is
    untrimmed, so SA keeps all n columns of A.
    """
    A, span = problem.A, problem.oracle.span
    k = span.c_b.size
    if kind is embed.SketchKind.GAUSSIAN:
        SW = embed.gaussian_span_sketch(d, A.rows, k, problem.seed)
    else:
        S = embed.build_sketch(kind, d, A.rows, problem.seed)
        SW = np.empty((d, k))
        embed.apply(S, A.qr_factor()[0], out=SW[:, : A.cols])
        if span.u is not None:
            embed.apply(S, span.u, out=SW[:, A.cols])
    return diagnostics.SketchedProblem(problem.oracle, SW)


def _solve_cell(solver_fn: Callable, P: diagnostics.SketchedProblem,
                config: ExperimentConfig) -> Tuple[SolveResult, MetricsObserver]:
    """``solver_fn`` on a cell's sketched problem under ``config.policy``, and
    the oracle-path observer that watched it; only the traditional stop reads
    ||SA||.  max_iter is min(2n, d), set by the d-row problem, not the pair."""
    op_norm = P.norm_SA if config.policy.mode is StopMode.TRADITIONAL else math.nan
    controller = StoppingController(config.policy, op_norm=op_norm, epsilon=P.eps)
    observer = MetricsObserver(P.A, P.b, stride=config.stride, oracle=P.oracle)
    result = solver_fn(LinearOperatorView.from_matrix(P.SA), P.Sb, observer=observer,
                       stop=controller, max_iter=min(2 * P.A.cols, P.d))
    return result, observer


def _label(name: str, kind: embed.SketchKind, d: int, seed: int) -> str:
    return f"{name}_{kind.value}_d{d}_s{seed}"


def _output_dir(config: ExperimentConfig) -> Path:
    """``config.output_dir``, made when missing; a config error when it
    cannot be, so that no source loads for outputs that cannot be written."""
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output_dir: {exc}") from None
    return out_dir


def _cell_bounds(name: str, kind: embed.SketchKind, d: int, problem: SeedProblem,
                 path: Optional[Path]) -> Tuple[diagnostics.SketchedProblem, list]:
    """The bound step of ``run`` and ``check``: one cell sketched and its
    bound suite, whose reports go to the bound file ``path`` when there is
    one."""
    P = _sketch_cell(problem, kind, d)
    reports = diagnostics.run_bound_suite(P)
    if path is not None:
        diagnostics.write_bound_reports(path, reports, seed=problem.seed, kind=kind.value,
                                        matrix=name, d=d)
    return P, reports


def run_single(name: str, kind: embed.SketchKind, d: int, problem: SeedProblem,
               config: ExperimentConfig, out_dir: Path) -> RunOutcome:
    A, seed = problem.A, problem.seed
    label = _label(name, kind, d, seed)
    P, bound_reports = _cell_bounds(name, kind, d, problem, out_dir / f"{label}_bounds.csv")
    failed = sum(1 for r in bound_reports if not r.passed)

    summaries = []
    for solver_name in SOLVERS if config.solver == "both" else (config.solver,):
        result, observer = _solve_cell(lsqr if solver_name == "lsqr" else lsmr, P, config)
        write_trace(out_dir / f"{label}_{solver_name}_trace.csv", result.trace)
        # of the iterate the solve returns, which a stale last record does not hold
        final = observer.metrics(result.x) if result.trace else (math.nan, math.nan)
        summaries.append([
            name, kind.value, d, seed, solver_name, result.iterations,
            result.termination.value, P.eps, A.condition_number(), *final,
            P.oracle.r_ls_norm, len(bound_reports) - failed, failed])
    return RunOutcome(label=label, bounds_failed=failed, rows=summaries)


def run_experiment(config: ExperimentConfig) -> int:
    out_dir = _output_dir(config)
    d_words = [(mult, True) for mult in config.d_mult]
    cell = partial(run_single, config=config, out_dir=out_dir)
    outcomes = [o for source in config.sources
                for runs in _source_runs(source, config, d_words, cell) for o in runs]
    write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, (row for o in outcomes for row in o.rows))
    code = _exit_code(outcomes)
    print(f"runs: {len(outcomes)}  errors: {sum(1 for o in outcomes if o.error)}  "
          f"bound failures: {sum(o.bounds_failed for o in outcomes)}")
    return code


def _sweep_cell(name: str, kind: embed.SketchKind, d: int, problem: SeedProblem,
                config: ExperimentConfig) -> RunOutcome:
    """One seed of a sweep cell, as its one row: the cell's matrix, kind
    and d, then eps, the plateau (the normal ratio at x_s, from the oracle's
    evaluator, so bit for bit the cell's NormalRatioSketched lhs), LSMR's
    stop iteration under ``config.policy`` and its last fresh normal ratio
    over the plateau."""
    P = _sketch_cell(problem, kind, d)
    result, observer = _solve_cell(lsmr, P, config)
    _, plateau = observer.metrics(P.x_s)
    ratio = result.trace[-1].unsketched_normal_ratio if result.trace else math.nan
    return RunOutcome(label=_label(name, kind, d, problem.seed), rows=[
        [name, kind.value, d, P.eps, plateau, result.iterations, ratio / plateau]])


SWEEP_COLUMNS = ["matrix", "kind", "d"] + [f"{stat}_{q}" for stat in (
    "eps", "plateau", "stop_iters", "stop_ratio_rel") for q in ("median", "q1", "q3")]


def _sweep_row(runs: List[RunOutcome]) -> list:
    """The ``sweep_d.csv`` row of a cell whose every seed ran: its matrix,
    kind and d, then the median and quartiles of each value over the seeds."""
    values = [run.rows[0] for run in runs]
    quartiles = np.percentile([v[3:] for v in values], [50, 25, 75], axis=0).T
    return values[0][:3] + quartiles.ravel().tolist()


def _parse_d_list(spec: str) -> List[Tuple[float, bool]]:
    """``(value, per column)`` of each ``--d-list`` word: a word with the
    suffix n is a multiplier of the column count, any other a d; each
    must be positive."""
    return [(_positive("--d-list multiplier", w[:-1]), True) if w.endswith("n")
            else (_positive("--d-list", w, int), False) for w in _words([spec])]


def sweep_d(config: ExperimentConfig, d_list: str) -> int:
    """Distortion, plateau and stop statistics across sketch sizes
    (:func:`_sweep_cell`), as the ``SWEEP_COLUMNS`` of ``sweep_d.csv``.

    ``d_list`` is the ``--d-list`` text: comma-separated d values, where a
    suffix ``n`` multiplies the column count of the single source.  It is
    parsed and counted, and a multiplier with two or more configured
    sources is a config error, before any source loads, so the error holds
    even when all but one of them would fail to load.  The cells run as
    :func:`_source_runs` runs them, so a cell with a failed seed has no row,
    and ``sweep_d.csv`` is written when some source runs its cells.
    """
    d_words = _parse_d_list(d_list)
    if len(d_words) < 2:
        raise ConfigError("sweep-d needs at least two d values")
    if len(config.sources) > 1 and any(per_col for _, per_col in d_words):
        raise ConfigError("multiplier d values need a single matrix source")
    out_dir = _output_dir(config)
    cell = partial(_sweep_cell, config=config)
    runs = {source.name: _source_runs(source, config, d_words, cell)
            for source in config.sources}
    # a source that runs no cell gives one list, of its errors under its name
    swept = [cells for name, cells in runs.items() if cells[0][0].label != name]
    if swept:
        path = out_dir / "sweep_d.csv"
        write_csv(path, SWEEP_COLUMNS, (_sweep_row(seeds) for cells in swept for seeds in cells
                                        if not any(o.error for o in seeds)))
        print(f"wrote {path}")
    return _exit_code([o for cells in runs.values() for seeds in cells for o in seeds])


def emit_figure_data(output_dir) -> List[Path]:
    """Bundle per-run traces into per-(style, kind, solver) CSVs.

    Styles: ``ratio`` (unsketched normal ratio vs k) and ``residual``
    (unsketched residual norm vs k); one column per run.  ``output_dir``
    that is not a directory is a config error; a trace that cannot be read,
    is not ASCII, lacks a column, or whose name does not end as ``run``
    names a trace (``<kind>_d<d>_s<seed>_<solver>``, d and seed integers) is
    skipped with a warning.
    """
    out_dir = Path(output_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"--output-dir {output_dir}: no such directory")
    traces = sorted(out_dir.glob("*_trace.csv"))
    if not traces:
        print(f"warning: no trace files in {out_dir}", file=sys.stderr)
        return []
    groups: Dict[Tuple[str, str, str], Dict[str, List[str]]] = {}
    for path in traces:
        stem = path.name[: -len("_trace.csv")]
        parts = stem.split("_")
        if len(parts) < 4 or parts[-4] not in {k.value for k in embed.SketchKind} \
                or not re.fullmatch("d[0-9]+", parts[-3]) \
                or not re.fullmatch("s[0-9]+", parts[-2]) or parts[-1] not in SOLVERS:
            print(f"warning: skipping unrecognized trace {path.name}", file=sys.stderr)
            continue
        try:
            with open(path, newline="", encoding="ascii") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            missing = [c for c in ("ne_ratio", "rnorm") if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"no {missing[0]} column")
        except (OSError, ValueError, csv.Error) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        for style, column in (("ratio", "ne_ratio"), ("residual", "rnorm")):
            groups.setdefault((style, parts[-4], parts[-1]), {})[stem] = \
                [row[column] for row in rows]
    written = []
    for (style, kind, solver), series in sorted(groups.items()):
        path = out_dir / f"figure_{style}_{kind}_{solver}.csv"
        names = sorted(series)
        rows = zip_longest(*(series[name] for name in names), fillvalue="")
        write_csv(path, ["k"] + names, ([k, *row] for k, row in enumerate(rows, start=1)))
        written.append(path)
        print(f"wrote {path}")
    return written


def check_single(config: ExperimentConfig, output: Optional[str]) -> int:
    """The bound suite of the one cell of ``config``, printed and, with
    ``output``, written as the bound file ``run`` writes for that cell."""
    for what, values in (("source", config.sources), ("kind", config.kind),
                         ("seed", config.seeds), ("d multiplier", config.d_mult)):
        if len(values) > 1:
            raise ConfigError(f"check runs one cell, so one {what}; got {len(values)}")
    path = None if output is None else Path(output)
    if path is not None and not path.parent.is_dir():
        raise ConfigError(f"--output {output}: its directory does not exist")
    if path is not None and path.is_dir():
        raise ConfigError(f"--output {output}: is a directory, not a file")

    def cell(name, kind, d, problem) -> RunOutcome:
        P, reports = _cell_bounds(name, kind, d, problem, path)
        print(f"matrix={name} kind={kind.value} d={d} seed={problem.seed} "
              f"eps={P.eps:.6g} kappa={problem.A.condition_number():.6g}")
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            note = f"  [{rep.note}]" if rep.note else ""
            print(f"  {rep.bound_id.value:22s} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
                  f"{status}{note}")
        return RunOutcome(label=_label(name, kind, d, problem.seed),
                          bounds_failed=sum(1 for rep in reports if not rep.passed))

    cells = _source_runs(config.sources[0], config, [(config.d_mult[0], True)], cell)
    return _exit_code([o for seeds in cells for o in seeds])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchls",
                                     description="sketch-and-solve least squares harness")
    sub = parser.add_subparsers(dest="command", required=True)
    stop_modes = ", ".join(m.value for m in StopMode)
    kinds = ", ".join(k.value for k in embed.SketchKind)

    # A flag whose dest is a config key sets that key (_load_config)
    p_run = sub.add_parser("run", help="run the configured experiment batch")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="override: comma-separated seed list")
    p_run.add_argument("--stride", help="override observer stride")
    p_run.add_argument("--stop", help=f"override stopping policy: {stop_modes}")
    p_run.add_argument("--tol", help="override stopping tolerance")
    p_run.add_argument("--window", help="override stabilization window")
    p_run.add_argument("--band-lo", help="override stabilization band floor")
    p_run.add_argument("--band-hi", help="override stabilization band ceiling")

    p_sweep = sub.add_parser("sweep-d", help="eps, plateau and LSMR stop statistics vs d",
                             description="per (kind, d), over the seeds: eps, the plateau "
                             "(the normal ratio at the sketched minimizer x_s), LSMR's "
                             "iterations under the config's stop and its ratio over the plateau")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--d-list", required=True,
                         help="comma-separated d values; suffix n multiplies cols, e.g. 1.2n,2.4n")

    p_check = sub.add_parser("check", help="the bound suite of one cell of a config",
                             description="the bound suite of one cell of a config whose keys "
                             "are the flags (--seed is seeds); a source has the name it has "
                             "in run and sweep-d, so --output is run's bound file of the cell")
    p_check.add_argument("--matrix", help="Matrix Market file, named by its stem")
    p_check.add_argument("--synthetic", help="m,n,cond, named synth<m>x<n>c<cond>")
    p_check.add_argument("--kind", required=True, help=f"embedding kind: {kinds}")
    p_check.add_argument("--seed", dest="seeds", metavar="SEED")
    p_check.add_argument("--d-mult")
    p_check.add_argument("--rho")
    p_check.add_argument("--output", help="bound CSV to write")

    p_fig = sub.add_parser("figures", help="bundle trace CSVs into figure data")
    p_fig.add_argument("--output-dir", required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config of a command: its ``--config`` file, if it takes one, with
    the value of each flag whose dest is a config key in place of the file's
    values of that key."""
    try:
        text = Path(args.config).read_text(encoding="ascii") if "config" in args else ""
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    kv = _parse_kv(text)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            kv[key] = [value]
    return _config_from_kv(kv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(_load_config(args))
        if args.command == "sweep-d":
            return sweep_d(_load_config(args), args.d_list)
        if args.command == "check":
            return check_single(_load_config(args), args.output)
        if args.command == "figures":
            emit_figure_data(args.output_dir)
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
