"""End-to-end and per-layer benchmark of the ``sketchls`` CLI.

Usage::

    python3 bench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Generates the workload's inputs (configs and a Matrix Market file) from
``--seed`` in a fresh directory under ``.bench_work/``, then runs the CLI
command (``run`` or ``sweep-d``) in fresh processes, one after another,
until ``--seconds`` have passed.  Each process is one sample: its set-up
time, batch time and peak memory.  Every sample's outputs are checked
(exit code, row count, finite metrics, and a sha256 fingerprint that must
agree across samples).  Without tracing, each sample is followed by a few
set-up-only processes, so that ``setup_s`` is a median over many set-ups.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the samples.  With ``--trace 1`` untraced and traced samples alternate;
the last line reports the per-layer metrics from the traced samples and the
tracing overhead (median traced minus median untraced ``batch_s``).  The
metric names and units are read from ``BENCHMARK.json``; ``bench/README.md``
defines them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# the whole run, set-up included, must end well inside 180 s
DEADLINE_S = 165.0
# One BLAS thread: on a small shared machine a second thread makes batch_s
# spread about three times wider, and the output bytes would depend on the
# machine's core count.
BLAS_THREADS = 1
TIME_UNITS = ("s", "ms")
# Set-up-only processes after each untraced sample.  One set-up is mostly
# the import of numpy and scipy, whose time spreads about 15% between
# processes of one run; a median over four times as many set-ups as
# samples keeps setup_s about as steady as batch_s.
SETUP_PROBES = 3
# per-layer metrics that run.py derives from the output CSVs
OUTPUT_METRICS = ("stopping.resid_excess_med", "diagnostics.bound_fail_frac")


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload and what its outputs must hold."""
    cli_args: List[str]
    config: Path
    table: str        # the CSV whose rows are counted
    rows: int         # expected data rows in ``table``
    runs: int         # runs one CLI call attempts


def _write_config(path: Path, entries) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries),
                    encoding="ascii")
    return path


def desk_inputs(seed: int, where: Path) -> Inputs:
    seeds = [8 * seed + i for i in range(8)]
    config = _write_config(where / "desk.cfg", [
        ("synthetic", "2000,100,100"), ("kind", "gaussian,srht,sparse"),
        ("d_mult", "2"), ("solver", "both"), ("stop", "stab-ne"),
        ("seeds", ",".join(map(str, seeds))), ("stride", "1"), ("output_dir", "out")])
    return Inputs(["run", "--config", str(config)], config, "summary.csv",
                  rows=3 * 8 * 2, runs=3 * 8)


def tall_inputs(seed: int, where: Path) -> Inputs:
    config = _write_config(where / "tall.cfg", [
        ("synthetic", "16000,100,1e4"), ("kind", "gaussian,srht,sparse"),
        ("d_mult", "2.5"), ("solver", "both"), ("stop", "traditional"),
        ("tol", "1e-10"), ("seeds", str(seed)), ("stride", "1"), ("output_dir", "out")])
    return Inputs(["run", "--config", str(config)], config, "summary.csv",
                  rows=3 * 2, runs=3)


def write_sparse_mtx(path: Path, seed: int, m: int = 8000, n: int = 200,
                     per_row: int = 8) -> None:
    """Random m x n matrix with ``per_row`` nonzeros in distinct columns of each row.

    Written here rather than with ``sketchls.matio.save_matrix_market`` so
    that the input bytes do not change when the program under test does.
    """
    gen = np.random.default_rng(seed)
    cols = np.sort(gen.random((m, n)).argsort(axis=1)[:, :per_row], axis=1)
    vals = gen.standard_normal((m, per_row))
    lines = [f"{i + 1} {j + 1} {v!r}" for i in range(m)
             for j, v in zip(cols[i].tolist(), vals[i].tolist())]
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"{m} {n} {m * per_row}\n" + "\n".join(lines) + "\n",
                    encoding="ascii")


def sweep_sparse_inputs(seed: int, where: Path) -> Inputs:
    mtx = where / "sparse8000x200.mtx"
    write_sparse_mtx(mtx, seed)
    config = _write_config(where / "sweep.cfg", [
        ("matrix", str(mtx)), ("kind", "sparse,gaussian"),
        ("seeds", f"{2 * seed},{2 * seed + 1}"), ("stride", "10"), ("output_dir", "out")])
    d_list = "2n,4n,8n"
    cells = 2 * len(d_list.split(","))
    return Inputs(["sweep-d", "--config", str(config), "--d-list", d_list], config,
                  "sweep_d.csv", rows=cells, runs=cells)


WORKLOADS = {
    "desk": desk_inputs,
    "tall": tall_inputs,
    "sweep-sparse": sweep_sparse_inputs,
}

FINITE_COLUMNS = {
    "summary.csv": ("epsilon", "kappa", "final_rnorm", "final_ne_ratio", "r_ls_norm"),
    "sweep_d.csv": ("eps_median", "eps_q1", "eps_q3",
                    "plateau_median", "plateau_q1", "plateau_q3"),
}


def _read_rows(path: Path) -> List[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def fingerprint(out_dir: Path) -> str:
    """sha256 over the names and bytes of every CSV the CLI wrote."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@dataclass
class Sample:
    traced: bool
    record: dict
    problems: List[str]
    attempted: int
    failed: int
    fingerprint: str = ""
    # OUTPUT_METRICS read from the output CSVs; zero where a layer is absent
    outputs: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(OUTPUT_METRICS, 0.0))


def check_outputs(inputs: Inputs, record: dict, out_dir: Path, traced: bool) -> Sample:
    """Validate one sample's exit code and CSVs and derive its output metrics."""
    code = record["exit_code"]
    errors = sum(line.startswith("error:") for line in record["stderr"].splitlines())
    problems = []
    if code not in (0, 3):
        problems.append(f"exit code {code}: {record['stderr'].strip()[:300]}")
    failed = inputs.runs if code not in (0, 3) else min(errors, inputs.runs)
    sample = Sample(traced, record, problems, inputs.runs, failed)
    table = out_dir / inputs.table
    if not table.is_file():
        problems.append(f"{inputs.table} missing")
        return sample
    rows = _read_rows(table)
    if len(rows) != inputs.rows:
        problems.append(f"{inputs.table}: {len(rows)} rows, expected {inputs.rows}")
    for row in rows:
        for col in FINITE_COLUMNS[inputs.table]:
            if not math.isfinite(float(row[col])):
                problems.append(f"{inputs.table}: non-finite {col} = {row[col]}")
    excess = [float(r["final_rnorm"]) / float(r["r_ls_norm"]) - 1.0
              for r in rows if "final_rnorm" in r]
    bound_rows = [r for path in out_dir.glob("*_bounds.csv") for r in _read_rows(path)]
    bound_failures = sum(r["passed"] == "0" and "sufficient-not-necessary" not in r["note"]
                         for r in bound_rows)
    sample.outputs = {
        "stopping.resid_excess_med": statistics.median(excess) if excess else 0.0,
        "diagnostics.bound_fail_frac": bound_failures / len(bound_rows) if bound_rows else 0.0,
    }
    sample.fingerprint = fingerprint(out_dir)
    if traced and not record.get("restored", False):
        problems.append("tracer left a patched name behind")
    return sample


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn_child(inputs: Inputs, sample_dir: Path, mode: str,
                deadline: float) -> Tuple[Optional[dict], str]:
    """Run ``child.py`` once in a fresh ``sample_dir``: its record, or None and why."""
    sample_dir.mkdir()
    result = sample_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(inputs.config),
           mode, str(result), "--", *inputs.cli_args]
    try:
        proc = subprocess.run(cmd, cwd=sample_dir, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not result.is_file():
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(result.read_text(encoding="ascii")), ""


def run_sample(inputs: Inputs, run_dir: Path, index: int, traced: bool,
               deadline: float) -> Sample:
    """One fresh process: set-up, one CLI call, output check."""
    sample_dir = run_dir / f"p{index}"
    try:
        record, why = spawn_child(inputs, sample_dir, "1" if traced else "0", deadline)
        if record is None:
            return Sample(traced, {}, [why], inputs.runs, inputs.runs)
        return check_outputs(inputs, record, sample_dir / "out", traced)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def run_setup(inputs: Inputs, run_dir: Path, index: int,
              deadline: float) -> Tuple[Optional[float], str]:
    """One fresh process that only sets up: its ``setup_s``, or None and why."""
    sample_dir = run_dir / f"s{index}"
    try:
        record, why = spawn_child(inputs, sample_dir, "setup", deadline)
        return (record["setup_s"], "") if record is not None else (None, why)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def run_samples(inputs: Inputs, run_dir: Path, seconds: float, trace: bool,
                deadline: float) -> Tuple[List[Sample], List[float], List[str]]:
    """Fresh processes back to back until ``seconds`` have passed.

    Returns the samples, the set-up times of the set-up-only processes and
    their problems.  Under tracing, untraced and traced samples alternate, so
    the overhead compares samples taken under the same machine load, and no
    set-up-only process runs.
    """
    modes = (False, True) if trace else (False,)
    probes = 0 if trace else SETUP_PROBES
    start = time.monotonic()
    samples: List[Sample] = []
    setups: List[float] = []
    problems: List[str] = []
    while True:
        samples.append(run_sample(inputs, run_dir, len(samples),
                                  modes[len(samples) % len(modes)], deadline))
        if samples[-1].problems and not samples[-1].record:
            break
        for _ in range(probes):
            setup_s, why = run_setup(inputs, run_dir, len(setups), deadline)
            if setup_s is None:
                problems.append(f"set-up process {len(setups)}: {why}")
                return samples, setups, problems
            setups.append(setup_s)
        enough = len(samples) >= len(modes) and time.monotonic() - start >= seconds
        if enough or time.monotonic() >= deadline:
            break
    return samples, setups, problems


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Machine, library and source versions that go with every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": src_digest.hexdigest(),
    }


def declared_units(section: str) -> Dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def end_to_end(samples: List[Sample], setups: List[float]) -> Dict[str, float]:
    """Medians over the samples; ``setup_s`` also over the set-up-only processes."""
    return {
        "batch_s": statistics.median(s.record["batch_s"] for s in samples),
        "setup_s": statistics.median([s.record["setup_s"] for s in samples] + setups),
        "peak_rss_mb": statistics.median(s.record["peak_rss_mb"] for s in samples),
    }


def per_layer(samples: List[Sample], units: Dict[str, str], problems: List[str]):
    """Per-layer metrics: medians of times, exact counts across traced samples."""
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    layers = [s.record["layers"] for s in traced]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            out[name] = (statistics.median(s.record["batch_s"] for s in traced)
                         - statistics.median(s.record["batch_s"] for s in plain))
        elif name in OUTPUT_METRICS:
            out[name] = traced[0].outputs[name]
        elif unit in TIME_UNITS:
            out[name] = statistics.median(layer[name] for layer in layers)
        else:
            out[name] = layers[0][name]
            if any(layer[name] != out[name] for layer in layers):
                problems.append(f"{name} differs between traced samples")
    return out


def print_span_table(samples: List[Sample]) -> None:
    spans = next(s.record["spans"] for s in samples if s.traced)
    print(f"{'span':42s} {'calls':>8s} {'self_s':>10s} {'incl_s':>10s}")
    for name, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:42s} {entry['calls']:8d} {entry['self_s']:10.4f} {entry['s']:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "sketchls" / "cli.py").is_file():
        print(f"error: no sketchls sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    # compile the package and warm the file cache before any timed sample
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                           " import sketchls.cli", str(SRC)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"error: cannot import sketchls: {warm.stderr.strip()}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        inputs = WORKLOADS[args.workload](args.seed, run_dir)
        samples, setups, setup_problems = run_samples(inputs, run_dir, args.seconds,
                                                      bool(args.trace), deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [f"sample {i}: {p}" for i, s in enumerate(samples) for p in s.problems]
    problems += setup_problems
    good = [s for s in samples if s.record]
    prints = {s.fingerprint for s in good}
    if len(prints) > 1:
        problems.append(f"output fingerprints differ between samples: {sorted(prints)}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} cli_args={inputs.cli_args[:1]} "
          f"samples={len(samples)} fingerprint={sorted(prints)}")
    for i, s in enumerate(good):
        print(f"sample {i}: traced={int(s.traced)} setup_s={s.record['setup_s']:.4f} "
              f"batch_s={s.record['batch_s']:.4f} peak_rss_mb={s.record['peak_rss_mb']:.1f}")
    if setups:
        print(f"set-up-only processes: {len(setups)} setup_s="
              + " ".join(f"{v:.4f}" for v in setups))

    metrics = {}
    if len(good) == len(samples) and (not args.trace or any(s.traced for s in good)):
        if args.trace:
            print_span_table(good)
            values = per_layer(good, units, problems)
        else:
            values = end_to_end(good, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
