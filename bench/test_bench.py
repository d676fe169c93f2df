"""Tests of the benchmark's own code.

Run with ``python -m pytest -q bench``; they stay out of the tier-1 suite.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

# computed by run.py from sample timings and output CSVs, not by the tracer
PARENT_METRICS = {"trace.overhead_s", "diagnostics.bound_fail_frac",
                  "stopping.resid_excess_med"}


def _tiny_runs(where: Path):
    """A small ``run`` and ``sweep-d`` through the CLI entry point."""
    from sketchls import cli

    where.mkdir(parents=True, exist_ok=True)
    run.write_sparse_mtx(where / "tiny.mtx", seed=3, m=300, n=20, per_row=4)
    (where / "run.cfg").write_text(
        "synthetic = 300,20,10\nkind = gaussian,srht,sparse\nsolver = both\n"
        f"seeds = 0,1\noutput_dir = {where / 'run_out'}\n", encoding="ascii")
    (where / "sweep.cfg").write_text(
        f"matrix = {where / 'tiny.mtx'}\nkind = sparse,gaussian\nseeds = 0,1\n"
        f"stride = 10\noutput_dir = {where / 'sweep_out'}\n", encoding="ascii")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(where / "run.cfg")]) in (0, 3)
        assert cli.main(["sweep-d", "--config", str(where / "sweep.cfg"),
                         "--d-list", "2n,4n"]) == 0


def test_self_time_subtracts_direct_children():
    fake = types.ModuleType("fake")

    def leaf():
        return "leaf"

    def inner(deep):
        return fake.leaf() if deep else None

    def outer():
        fake.inner(False)
        fake.inner(True)
        return "done"

    fake.leaf, fake.inner, fake.outer = leaf, inner, outer
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]; the second holds leaf [5, 6]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    for name in ("outer", "inner", "leaf"):
        tr.wrap(fake, name, f"fake.{name}")
    assert fake.outer() == "done"
    tr.uninstall()

    totals = tr.span_totals()
    assert totals["fake.outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert totals["fake.inner"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert totals["fake.leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert [span[3] for span in tr.spans] == [-1, 0, 0, 2]
    assert (fake.outer, fake.inner, fake.leaf) == (outer, inner, leaf)


def test_uninstall_restores_every_patched_name(tmp_path):
    import scipy.linalg

    from sketchls import cli, diagnostics, embed, matio, solvers, stopping

    owners = (scipy.linalg, cli, diagnostics, embed, matio, solvers, stopping,
              cli.MatrixSource, matio.MatrixHandle, solvers.MetricsObserver,
              solvers.LinearOperatorView, stopping.StoppingController)
    before = [dict(vars(owner)) for owner in owners]
    tr = tracing.install(tracing.Tracer())
    patched = tr.patched
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in patched)
        _tiny_runs(tmp_path)
    finally:
        tr.uninstall()

    assert {owner for owner, _, _ in patched} <= set(owners)
    assert tr.patched == []
    for owner, saved in zip(owners, before):
        changed = [k for k, v in saved.items() if vars(owner).get(k) is not v]
        assert changed == [], f"{owner.__name__}: {changed}"
    assert cli.lsqr is solvers.lsqr and diagnostics.qr_ls_solve is matio.qr_ls_solve


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    units = run.declared_units("per_layer")
    counts = []
    for i in range(2):
        tr = tracing.install(tracing.Tracer())
        try:
            _tiny_runs(tmp_path / f"r{i}")
        finally:
            tr.uninstall()
        layers = tracing.layer_metrics(tr)
        assert set(units) - PARENT_METRICS <= set(layers)
        counts.append({name: layers[name] for name, unit in units.items()
                       if name not in PARENT_METRICS and unit not in run.TIME_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["solvers.lsqr.iters"] > 0 and counts[0]["matio.densify.calls"] > 0
    assert counts[0]["embed.fwht.rows"] > 0 and counts[0]["cli.write.bytes"] > 0


def test_per_layer_reports_a_sample_whose_table_is_missing(tmp_path):
    # cli.main returned EXIT_CONFIG before writing any CSV
    inputs = run.Inputs(["run"], tmp_path / "x.cfg", "summary.csv", rows=6, runs=3)
    record = {"exit_code": 1, "stderr": "error: bad config\n", "batch_s": 0.5,
              "setup_s": 0.1, "peak_rss_mb": 50.0, "restored": True,
              "layers": tracing.layer_metrics(tracing.Tracer())}
    plain = run.check_outputs(inputs, dict(record, layers=None), tmp_path / "out", False)
    traced = run.check_outputs(inputs, record, tmp_path / "out", True)
    assert traced.failed == 3 and any("summary.csv missing" in p for p in traced.problems)

    problems = []
    values = run.per_layer([plain, traced], run.declared_units("per_layer"), problems)
    assert set(values) == set(run.declared_units("per_layer"))
    assert values["diagnostics.bound_fail_frac"] == 0.0
    assert values["stopping.resid_excess_med"] == 0.0
