import csv
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sketchls import cli, diagnostics, embed, matio
from sketchls.cli import (ConfigError, EXIT_BOUND_FAILED, EXIT_CONFIG, EXIT_OK,
                          EXIT_RUN_ERROR, ExperimentConfig, MatrixSource,
                          emit_figure_data, main, parse_config, plateau_value,
                          run_experiment, sweep_d)
from sketchls.matio import MatrixHandle, synthesize_matrix, synthesize_problem
from sketchls.stopping import StopMode

TWO_KINDS_CONFIG = """
synthetic = 120,6,20
kind = gaussian,sparse
d_mult = 4,8
solver = both
seeds = 0,1
output_dir = {out}
"""

BASE_CONFIG = """
synthetic = 120,6,20
kind = gaussian
d_mult = 4.0
solver = both
stop = stab-ne
seeds = 0,1
rho = 1e-3
output_dir = {out}
"""


class TestConfigParsing:
    def test_full_roundtrip(self):
        text = ("matrix = data/a.mtx\n"
                "synthetic = 400,40,50\n"
                "kind = gaussian\nkind = srht\n"
                "d_mult = 1.2,2.4\n"
                "solver = lsqr\n"
                "stop = stab-res\n"
                "seeds = 0,1,2\n"
                "band_lo = 0.98\nband_hi = 1.02\n"
                "stride = 2\n")
        config = parse_config(text)
        assert [s.name for s in config.sources] == ["a", "synth400x40c50"]
        assert config.kinds == [embed.SketchKind.GAUSSIAN, embed.SketchKind.SRHT]
        assert config.d_mults == [1.2, 2.4]
        assert config.stop is StopMode.STABILIZE_RESIDUAL
        assert config.seeds == [0, 1, 2]
        assert config.band == (0.98, 1.02)
        assert config.stride == 2

    def test_comments_and_blanks(self):
        config = parse_config("# hello\n\nsynthetic = 50,4,3\nkind = sparse\n")
        assert len(config.sources) == 1

    @pytest.mark.parametrize("text,match", [
        ("kind = gaussian\n", "no matrix"),
        ("synthetic = 50,4,3\n", "no embedding"),
        ("synthetic = 50,4,3\nkind = fourier\n", "unknown embedding"),
        ("synthetic = 50,4,3\nkind = gaussian\nsolver = cg\n", "unknown solver"),
        ("synthetic = 50,4\nkind = gaussian\n", "m,n,cond"),
        ("synthetic = 50,x,3\nkind = gaussian\n", "m,n,cond"),
        ("synthetic = 50,4,3\nkind = gaussian\nstop = never\n", "unknown stop"),
        ("synthetic = 50,4,3\nkind = gaussian\nbad line\n", "key=value"),
        ("synthetic = 50,4,3\nkind = gaussian\nrho = -1\n", "rho"),
        ("synthetic = 50,4,3\nkind = gaussian\nseeds = 0,x\n", "seeds must be an integer"),
        ("synthetic = 50,4,3\nkind = gaussian\nwindow = 2.5\n", "window must be an integer"),
        ("synthetic = 50,4,3\nkind = gaussian\nstride = two\n", "stride must be an integer"),
        ("synthetic = 50,4,3\nkind = gaussian\nrho = abc\n", "rho must be a number"),
        ("synthetic = 50,4,3\nkind = gaussian\nrho = nan\n", "rho must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\nrho = inf\n", "rho must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\ntol = nan\n", "tol must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\nband_hi = inf\n", "band_hi must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\nd_mult = 2,y\n", "d_mult must be a number"),
        ("synthetic = 50,4,3\nkind = gaussian\nd_mult = nan\n", "d_mult must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\nd_mult = inf\n", "d_mult must be finite"),
        ("synthetic = 50,4,3\nkind = gaussian\nskip_large = ture\n",
         "unknown config key 'skip_large'"),
        ("synthetic = 50,4,3\nkind = gaussian\nseed = 3\nsolvr = lsqr\n",
         "unknown config key 'seed'"),
        ("synthetic = 50,4,3\nkind = gaussian\nsolvr = lsqr\n", "unknown config key 'solvr'"),
        ("synthetic = 50,4,3\nkind = gaussian\nseeds =\n", "seeds is empty"),
        ("synthetic = 50,4,3\nkind = gaussian\nseeds = ,\n", "seeds is empty"),
        ("synthetic = 50,4,3\nkind = gaussian\nd_mult =\n", "d_mult is empty"),
        ("synthetic = 50,4,3\nkind = gaussian\noutput_dir =\n", "output_dir is empty"),
        ("synthetic = 100,5.5,10\nkind = gaussian\n", "n must be an integer"),
    ])
    def test_rejects(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize("line,match", [
        ("window = 0", "window"),
        ("band_lo = 1.5", "band"),
        ("band_hi = 0.5", "band"),
        ("tol = -1e-8", "tol"),
    ])
    def test_bad_stopping_rejected_before_any_run(self, tmp_path, capsys, line, match):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out") + line + "\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*_bounds.csv"))

    @pytest.mark.parametrize("override", [["--stride", "0"], ["--window", "0"],
                                          ["--band-lo", "1.5"], ["--tol", "-1"],
                                          ["--seeds", "1,y"], ["--tol", "nan"],
                                          ["--band-hi", "inf"], ["--window", "2.5"],
                                          ["--stride", "x"], ["--tol", "abc"],
                                          ["--band-lo", "q"], ["--stop", "never"],
                                          ["--seeds", ""]])
    def test_bad_override_rejected(self, tmp_path, capsys, override):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(cfg)] + override) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec,match", [
        ("100,5,nan", "cond must be finite"), ("100,5,inf", "cond must be finite"),
        ("100,5,0.5", "with cond >= 1"), ("5,100,10", "with m >= n >= 1"),
        ("100,0,10", "with m >= n >= 1"),
    ])
    @pytest.mark.parametrize("command", ["run", "sweep-d", "check"])
    def test_bad_synthetic_spec_is_config_error(self, tmp_path, capsys, command, spec, match):
        if command == "check":
            argv = ["check", "--synthetic", spec, "--kind", "gaussian"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"synthetic = {spec}\nkind = gaussian\n"
                           f"output_dir = {tmp_path / 'out'}\n")
            argv = [command, "--config", str(cfg)] + (
                ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: synthetic spec '{spec}' must be m,n,cond" in err
        assert match in err
        assert not (tmp_path / "out").exists()

    def test_override_replaces_file_value_before_checks(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out") + "window = 0\n")
        assert main(["run", "--config", str(cfg), "--window", "5"]) == EXIT_OK

    @pytest.mark.parametrize("command,words", [
        ("run", [m.value for m in StopMode]),
        ("check", [k.value for k in embed.SketchKind]),
    ])
    def test_help_lists_choices(self, monkeypatch, capsys, command, words):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside a word
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert all(word in out for word in words)

    @pytest.mark.parametrize("d_list,match", [
        ("2n,3x", "--d-list must be an integer, got '3x'"),
        ("2.5,40", "--d-list must be an integer, got '2.5'"),
        ("2n,nann", "--d-list multiplier must be finite"),
    ])
    def test_bad_d_list_rejected(self, tmp_path, capsys, d_list, match):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        assert main(["sweep-d", "--config", str(cfg), "--d-list", d_list]) == EXIT_CONFIG
        assert f"config error: {match}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [["--rho", "nan"], ["--rho", "-1"], ["--d-mult", "nan"],
                                       ["--seed", "x"], ["--d-mult", "y"], ["--rho", "z"],
                                       ["--kind", "fourier"]])
    def test_check_bad_number(self, capsys, extra):
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse"] + extra) \
            == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_d_rule_violation_is_run_error(self, tmp_path):
        # d = ceil(30 * 6) = 180 >= m = 120
        config = parse_config("synthetic = 120,6,20\nkind = gaussian\n"
                              f"d_mult = 30\noutput_dir = {tmp_path}\n")
        assert run_experiment(config) == EXIT_RUN_ERROR


def count_factorizations(monkeypatch) -> Counter:
    """Count ``scipy.linalg.qr`` calls by (pivoting, operand shape) and
    ``scipy.linalg.svd`` calls by operand shape, under keys ``("qr",
    pivoting, shape)`` and ``("svd", None, shape)``."""
    shapes = Counter()
    real_qr, real_svd = scipy.linalg.qr, scipy.linalg.svd

    def counting_qr(a, *args, pivoting=False, **kwargs):
        shapes["qr", pivoting, a.shape] += 1
        return real_qr(a, *args, pivoting=pivoting, **kwargs)

    def counting_svd(a, *args, **kwargs):
        shapes["svd", None, a.shape] += 1
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
    return shapes


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            config = parse_config(BASE_CONFIG.format(out=out))
            assert run_experiment(config) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert "summary.csv" in names
        assert "synth120x6c20_gaussian_d24_s0_bounds.csv" in names
        assert "synth120x6c20_gaussian_d24_s1_lsqr_trace.csv" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_consistent_with_bounds(self, tmp_path):
        out = tmp_path / "r"
        config = parse_config(BASE_CONFIG.format(out=out))
        run_experiment(config)
        with open(out / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 4  # 2 seeds x 2 solvers
        for row in summary:
            with open(out / f"{row['matrix']}_{row['kind']}_d{row['d']}_s{row['seed']}_bounds.csv") as fh:
                bounds = list(csv.DictReader(fh))
            passed = sum(1 for b in bounds
                         if b["passed"] == "1" or "sufficient-not-necessary" in b["note"])
            assert int(row["bounds_passed"]) == passed

    def test_missing_matrix_is_run_error(self, tmp_path):
        config = parse_config(f"matrix = {tmp_path}/nope.mtx\nkind = gaussian\n"
                              f"output_dir = {tmp_path}/out\n")
        assert run_experiment(config) == EXIT_RUN_ERROR

    def test_trace_columns(self, tmp_path):
        out = tmp_path / "r"
        run_experiment(parse_config(BASE_CONFIG.format(out=out)))
        with open(out / "synth120x6c20_gaussian_d24_s0_lsmr_trace.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["k", "srnorm", "snenorm", "rnorm", "ne_ratio", "stale_flag"]

    def test_distortion_once_per_pair(self, tmp_path, monkeypatch):
        sketched, distortions = [], []
        real_sketch, real_distortion = embed.sketch_operands, embed.basis_distortion

        def counting_sketch(*args):
            sketched.append(args)
            return real_sketch(*args)

        def counting_distortion(*args):
            distortions.append(args)
            return real_distortion(*args)

        monkeypatch.setattr(cli.embed, "sketch_operands", counting_sketch)
        monkeypatch.setattr(cli.embed, "basis_distortion", counting_distortion)
        assert run_experiment(parse_config(BASE_CONFIG.format(out=tmp_path))) == EXIT_OK
        # one (problem, sketch) pair per seed
        assert len(sketched) == len(distortions) == 2

    def test_sketched_problem_formed_once_per_pair(self, tmp_path, monkeypatch):
        # 3 kinds x 2 seeds, d = 24, n = 6: each pair sketches A once, takes
        # one SVD of the 24 x 6 SA and solves the sketched problem once
        applied, shapes = Counter(), Counter()
        real_sketch, real_apply, real_svd = embed.sketch_operands, embed.apply, scipy.linalg.svd
        in_pass = []

        def counting_sketch(kind, d, m, seed, operands):
            applied[embed.SketchKind(kind).value, seed] += sum(
                isinstance(X, MatrixHandle) for X in operands)
            in_pass.append(True)
            try:
                return real_sketch(kind, d, m, seed, operands)
            finally:
                in_pass.pop()

        def counting_apply(S, X):
            # a sketch of A outside the pass would be a second one
            if isinstance(X, MatrixHandle) and not in_pass:
                applied[S.kind.value, S.seed] += 1
            return real_apply(S, X)

        def counting_svd(a, *args, **kwargs):
            shapes["svd", a.shape] += 1
            return real_svd(a, *args, **kwargs)

        def counting_solve(real):
            def solve(M, rhs, *args, **kwargs):
                shapes["qr_ls_solve", M.shape] += 1
                return real(M, rhs, *args, **kwargs)
            return solve

        monkeypatch.setattr(embed, "sketch_operands", counting_sketch)
        monkeypatch.setattr(embed, "apply", counting_apply)
        monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
        for module in (diagnostics, matio):
            monkeypatch.setattr(module, "qr_ls_solve", counting_solve(module.qr_ls_solve))
        config = parse_config(BASE_CONFIG.format(out=tmp_path).replace(
            "kind = gaussian", "kind = gaussian,srht,sparse"))
        assert run_experiment(config) == EXIT_OK
        assert applied == {(kind, seed): 1 for kind in ("gaussian", "srht", "sparse")
                           for seed in (0, 1)}
        assert shapes["svd", (24, 6)] == 6
        assert shapes["qr_ls_solve", (24, 6)] == 6

    def test_basis_and_oracle_once_per_seed(self, tmp_path, monkeypatch):
        basis_calls, oracle_calls = [], []
        real_basis, real_oracle = embed.subspace_basis, cli.solve_ls_oracle

        def counting_basis(A, b):
            basis_calls.append(A.rows)
            return real_basis(A, b)

        def counting_oracle(A, b):
            oracle_calls.append(A.rows)
            return real_oracle(A, b)

        monkeypatch.setattr(cli.embed, "subspace_basis", counting_basis)
        monkeypatch.setattr(cli, "solve_ls_oracle", counting_oracle)
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path)
                              + "synthetic = 100,6,20\n")
        assert run_experiment(config) == EXIT_OK
        # 2 sources x 2 seeds, each shared by 2 kinds x 2 d
        assert basis_calls == oracle_calls == [120, 120, 100, 100]

    def test_one_pivoted_qr_of_A_and_no_m_row_svd(self, tmp_path, monkeypatch):
        # 3 kinds x 2 seeds share one pivoted QR of the 120 x 6 A (every
        # oracle, basis, spectral datum and observer factor comes from it);
        # no SVD sees an operand with m rows
        shapes = count_factorizations(monkeypatch)
        config = parse_config(BASE_CONFIG.format(out=tmp_path).replace(
            "kind = gaussian", "kind = gaussian,srht,sparse"))
        assert run_experiment(config) == EXIT_OK
        assert shapes["qr", True, (120, 6)] == 1
        assert shapes["qr", False, (120, 6)] == 0
        assert not [key for key in shapes if key[0] == "svd" and key[2][0] == 120]

    def test_row_order_kind_d_seed(self, tmp_path):
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path))
        assert run_experiment(config) == EXIT_OK
        with open(tmp_path / "summary.csv") as fh:
            got = [(r["kind"], r["d"], r["seed"], r["solver"]) for r in csv.DictReader(fh)]
        assert got == [(kind, d, seed, solver) for kind in ("gaussian", "sparse")
                       for d in ("24", "48") for seed in ("0", "1")
                       for solver in ("lsqr", "lsmr")]

    def test_error_order_kind_d_seed(self, tmp_path, monkeypatch, capsys):
        real = embed.build_sketch

        def flaky(kind, d, m, seed):
            if embed.SketchKind(kind) is embed.SketchKind.SPARSE and seed == 0:
                raise ValueError("boom")
            return real(kind, d, m, seed)

        monkeypatch.setattr(cli.embed, "build_sketch", flaky)
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path).replace(
            "d_mult = 4,8", "d_mult = 4,30"))
        assert run_experiment(config) == EXIT_RUN_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [
            "error: synth120x6c20_gaussian: d = ceil(30.0 * 6) = 180 violates n <= d < m = 120",
            "error: synth120x6c20_sparse_d24_s0: boom",
            "error: synth120x6c20_sparse: d = ceil(30.0 * 6) = 180 violates n <= d < m = 120",
        ]

    def test_failing_gaussian_draw_is_the_cells_error(self, tmp_path, monkeypatch, capsys):
        real_stream = embed.stream

        class FailingGenerator:
            def standard_normal(self, out):
                raise RuntimeError("draw failed")

        def stream(seed, *tags):
            return FailingGenerator() if tags[0] == "gaussian" and seed == 1 \
                else real_stream(seed, *tags)

        monkeypatch.setattr(embed, "stream", stream)
        threads = threading.active_count()
        assert run_experiment(parse_config(BASE_CONFIG.format(out=tmp_path))) == EXIT_RUN_ERROR
        assert threading.active_count() == threads
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: synth120x6c20_gaussian_d24_s1: draw failed"]
        assert (tmp_path / "synth120x6c20_gaussian_d24_s0_bounds.csv").is_file()

    def test_gaussian_payload_guard(self, tmp_path, monkeypatch, capsys):
        # d * m = 24 * 120 for run, 8 * 120 and 40 * 120 for sweep-d
        monkeypatch.setattr(cli, "GAUSSIAN_PAYLOAD_GUARD", 1000)
        out = tmp_path / "r"
        assert run_experiment(parse_config(BASE_CONFIG.format(out=out))) == EXIT_RUN_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: synth120x6c20_gaussian_d24_s{seed}: Gaussian sketch "
                          "d * m = 2880 exceeds the payload guard 1000" for seed in (0, 1)]
        assert not list(out.glob("*gaussian*"))

        config = parse_config("synthetic = 120,4,10\nkind = gaussian,sparse\nseeds = 0,1\n"
                              f"output_dir = {tmp_path / 's'}\n")
        assert sweep_d(config, "8,40") == EXIT_RUN_ERROR
        assert "error: synth120x4c10_gaussian_d40: seed 0: Gaussian sketch d * m = 4800 " \
            "exceeds the payload guard 1000" in capsys.readouterr().err
        with open(tmp_path / "s" / "sweep_d.csv") as fh:
            got = [(r["kind"], r["d"]) for r in csv.DictReader(fh)]
        assert got == [("gaussian", "8"), ("sparse", "8"), ("sparse", "40")]


class TestSweep:
    def test_requires_two_values(self, tmp_path):
        config = parse_config(f"synthetic = 120,6,20\nkind = gaussian\n"
                              f"output_dir = {tmp_path}\n")
        with pytest.raises(ConfigError):
            sweep_d(config, "24")

    def test_epsilon_decreases_with_d(self, tmp_path):
        config = parse_config(f"synthetic = 120,4,10\nkind = gaussian\nkind = srht\n"
                              f"seeds = 0,1,2,3,4\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40,119") == EXIT_OK
        with open(Path(tmp_path) / "sweep_d.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["kind"], []).append(float(row["eps_median"]))
        for kind, eps in by_kind.items():
            assert eps[0] > eps[1] > eps[2], kind
        # subsampling nearly all rows makes the SRHT sketch nearly lossless
        assert by_kind["srht"][2] < 0.5 * by_kind["srht"][1]


    def test_bad_d_rejected_before_any_cell(self, tmp_path, monkeypatch):
        built = []
        real = embed.sketch_operands

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(cli.embed, "sketch_operands", counting)
        # d = 70 fits the first source but not the second (m = 60)
        config = parse_config("synthetic = 120,4,10\nsynthetic = 60,4,10\n"
                              f"kind = gaussian\noutput_dir = {tmp_path}\n")
        with pytest.raises(ConfigError, match="d=70 violates n <= d < m for synth60x4c10"):
            sweep_d(config, "8,40,70")
        assert built == []
        assert not (tmp_path / "sweep_d.csv").exists()

    def test_basis_once_per_source_and_seed(self, tmp_path, monkeypatch):
        calls = []
        real = embed.subspace_basis

        def counting(A, b):
            calls.append(A.rows)
            return real(A, b)

        monkeypatch.setattr(cli.embed, "subspace_basis", counting)
        config = parse_config("synthetic = 120,4,10\nsynthetic = 100,4,10\n"
                              "kind = gaussian,sparse\nseeds = 0,1\n"
                              f"output_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_OK
        assert calls == [120, 120, 100, 100]
        with open(tmp_path / "sweep_d.csv") as fh:
            got = [(r["matrix"], r["kind"], r["d"]) for r in csv.DictReader(fh)]
        assert got == [(matrix, kind, d) for matrix in ("synth120x4c10", "synth100x4c10")
                       for kind in ("gaussian", "sparse") for d in ("8", "40")]

    def test_one_pivoted_qr_per_source(self, tmp_path, monkeypatch):
        shapes = count_factorizations(monkeypatch)
        config = parse_config("synthetic = 120,4,10\nsynthetic = 100,4,10\n"
                              "kind = gaussian,sparse\nseeds = 0,1\n"
                              f"output_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_OK
        assert {key: n for key, n in shapes.items() if key[:2] == ("qr", True)} == {
            ("qr", True, (120, 4)): 1, ("qr", True, (100, 4)): 1}
        assert shapes["qr", False, (120, 4)] == shapes["qr", False, (100, 4)] == 0
        assert not [key for key in shapes if key[0] == "svd" and key[2][0] in (100, 120)]

    def test_A_products_fixed_per_seed(self, tmp_path, monkeypatch):
        # b, the oracle's residual and A^T r_ls: the observer reads the
        # oracle and A's factor, so no iteration multiplies by A
        products, iterations = [], []
        real_matvec, real_rmatvec, real_lsmr = (MatrixHandle.matvec, MatrixHandle.rmatvec,
                                                cli.lsmr)

        def lsmr(*args, **kwargs):
            result = real_lsmr(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(MatrixHandle, "matvec",
                            lambda A, x: products.append(1) or real_matvec(A, x))
        monkeypatch.setattr(MatrixHandle, "rmatvec",
                            lambda A, y: products.append(1) or real_rmatvec(A, y))
        monkeypatch.setattr(cli, "lsmr", lsmr)
        config = parse_config("synthetic = 120,4,10\nkind = gaussian,sparse\n"
                              f"seeds = 0,1,2\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_OK
        assert len(products) == 3 * 3
        assert len(iterations) == 3 * 4 and sum(iterations) > len(products)

    def test_bad_cell_isolated(self, tmp_path, monkeypatch, capsys):
        real = embed.sketch_operands

        def flaky(kind, d, m, seed, operands):
            if d == 8 and seed == 1:
                raise ValueError("boom")
            return real(kind, d, m, seed, operands)

        monkeypatch.setattr(cli.embed, "sketch_operands", flaky)
        config = parse_config(f"synthetic = 120,4,10\nkind = gaussian\n"
                              f"seeds = 0,1\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_RUN_ERROR
        assert "error: synth120x4c10_gaussian_d8: seed 1: boom" in capsys.readouterr().err
        with open(Path(tmp_path) / "sweep_d.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["d"] for row in rows] == ["40"]


    def test_load_failure_reported_and_sweep_goes_on(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n3 2 1\n1 x 1.0\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"matrix = {bad}\nmatrix = {tmp_path / 'absent.mtx'}\n"
                       f"synthetic = 120,4,10\nkind = gaussian\nseeds = 0,1\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "8,40"]) == EXIT_RUN_ERROR
        err = capsys.readouterr().err
        assert "error: bad: load failed: line 3: malformed entry" in err
        assert "error: absent: load failed:" in err
        with open(tmp_path / "out" / "sweep_d.csv") as fh:
            got = [(r["matrix"], r["d"]) for r in csv.DictReader(fh)]
        assert got == [("synth120x4c10", "8"), ("synth120x4c10", "40")]

    def test_only_source_fails_to_load(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"matrix = {tmp_path / 'absent.mtx'}\nkind = gaussian\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "2n,4n"]) == EXIT_RUN_ERROR
        assert "error: absent: load failed:" in capsys.readouterr().err


def write_wide_sparse(path):
    """A 5002 x 5001 CSR matrix, one column above the desk-scale limit; it
    loads without densifying."""
    m, n = cli.DESK_SCALE_COLS + 2, cli.DESK_SCALE_COLS + 1
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real general\n{m} {n} {n + 1}\n")
        fh.writelines(f"{j + 1} {j + 1} 1.0\n" for j in range(n))
        fh.write(f"{m} 1 1.0\n")
    return path


class TestDeskScaleLimit:
    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_ls_oracle called")

        monkeypatch.setattr(cli, "solve_ls_oracle", refuse)

    def test_run_rejects_wide_source_after_load(self, tmp_path, capsys, no_oracle):
        wide = write_wide_sparse(tmp_path / "wide.mtx")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"matrix = {wide}\nkind = sparse\nd_mult = 1.0001\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_RUN_ERROR
        err = capsys.readouterr().err
        assert "error: wide: n = 5001 exceeds the desk-scale limit 5000" in err
        assert not list((tmp_path / "out").glob("*_bounds.csv"))

    def test_check_rejects_wide_source_after_load(self, tmp_path, capsys, no_oracle):
        wide = write_wide_sparse(tmp_path / "wide.mtx")
        assert main(["check", "--matrix", str(wide), "--kind", "sparse",
                     "--d-mult", "1.0001"]) == EXIT_RUN_ERROR
        assert "error: wide: n = 5001 exceeds the desk-scale limit 5000" in \
            capsys.readouterr().err

    def test_sweep_rejects_wide_source_after_load(self, tmp_path, capsys, monkeypatch,
                                                  no_oracle):
        def no_qr(*args, **kwargs):
            raise AssertionError("A factored")

        monkeypatch.setattr(scipy.linalg, "qr", no_qr)
        wide = write_wide_sparse(tmp_path / "wide.mtx")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"matrix = {wide}\nkind = sparse\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "5001,5001"]) == \
            EXIT_RUN_ERROR
        assert "error: wide: n = 5001 exceeds the desk-scale limit 5000" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep_d.csv").exists()


class TestFigures:
    def test_bundles(self, tmp_path):
        out = tmp_path / "r"
        run_experiment(parse_config(BASE_CONFIG.format(out=out)))
        written = emit_figure_data(out)
        names = {p.name for p in written}
        assert "figure_ratio_gaussian_lsmr.csv" in names
        assert "figure_residual_gaussian_lsqr.csv" in names
        with open(out / "figure_ratio_gaussian_lsmr.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k"
        assert len(rows[0]) == 3  # two seeds

    def test_empty_dir_warns(self, tmp_path, capsys):
        assert emit_figure_data(tmp_path) == []
        assert "warning" in capsys.readouterr().err


class TestMain:
    def test_config_error_exit(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG

    def test_run_and_check(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(cfg), "--seeds", "3"]) == EXIT_OK
        assert (tmp_path / "out" / "synth120x6c20_gaussian_d24_s3_bounds.csv").exists()
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse",
                     "--seed", "1", "--d-mult", "16"]) == EXIT_OK

    def test_check_one_pivoted_qr_of_A(self, monkeypatch):
        shapes = count_factorizations(monkeypatch)
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse",
                     "--seed", "1", "--d-mult", "16"]) == EXIT_OK
        assert shapes["qr", True, (200, 4)] == 1
        assert shapes["qr", False, (200, 4)] == 0

    @pytest.mark.parametrize("spec", ["200,10", "200,x,10"])
    def test_check_bad_synthetic_spec(self, capsys, spec):
        assert main(["check", "--synthetic", spec, "--kind", "sparse"]) == EXIT_CONFIG
        assert f"config error: synthetic spec '{spec}' must be m,n,cond" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("contents", [None, "%%MatrixMarket matrix array real general\n"])
    def test_check_load_failure(self, tmp_path, capsys, contents):
        path = tmp_path / "m.mtx"
        if contents is not None:
            path.write_text(contents)
        assert main(["check", "--matrix", str(path), "--kind", "sparse"]) == EXIT_RUN_ERROR
        assert "error: m: load failed:" in capsys.readouterr().err

    def test_check_cell_error(self, tmp_path, capsys):
        # the fifth column is the sum of the first two
        cols = np.random.default_rng(5).standard_normal((200, 4))
        A = np.column_stack([cols, cols[:, 0] + cols[:, 1]])
        path = tmp_path / "rd.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n200 5\n"
                        + "".join(f"{v:.17g}\n" for v in A.flatten(order="F")))
        assert main(["check", "--matrix", str(path), "--kind", "sparse"]) == EXIT_RUN_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: rd_sparse_d10_s0: rank deficiency")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_check_gaussian_payload_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GAUSSIAN_PAYLOAD_GUARD", 100)
        assert main(["check", "--synthetic", "200,4,10", "--kind", "gaussian"]) == \
            EXIT_RUN_ERROR
        assert capsys.readouterr().err == ("error: synthetic_gaussian_d8_s0: Gaussian sketch "
                                          "d * m = 1600 exceeds the payload guard 100\n")

    def test_sweep_main(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"synthetic = 120,4,10\nkind = gaussian\nseeds = 0,1\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "2n,4n"]) == EXIT_OK

    def test_sweep_main_loads_each_source_once(self, tmp_path, monkeypatch):
        loads = []
        real = MatrixSource.load

        def counting(self):
            loads.append(self.name)
            return real(self)

        monkeypatch.setattr(MatrixSource, "load", counting)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"synthetic = 120,4,10\nkind = sparse\nseeds = 0,1\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "2n,4n"]) == EXIT_OK
        assert loads == ["synth120x4c10"]


class TestExitCodeMapping:
    def test_bound_failure_exit(self, tmp_path, monkeypatch):
        # force a failed report to exercise the exit path honestly
        from sketchls.diagnostics import BoundId, BoundReport

        def fake_suite(*args, **kwargs):
            return [BoundReport(BoundId.GEOM_PRESERVE, lhs=2.0, rhs=1.0,
                                passed=False, margin=-1.0)]

        monkeypatch.setattr(cli.diagnostics, "run_bound_suite", fake_suite)
        out = tmp_path / "r"
        config = parse_config(BASE_CONFIG.format(out=out))
        assert run_experiment(config) == EXIT_BOUND_FAILED


def test_plateau_value():
    assert plateau_value([9.0, 5.0, 1.0, 1.1, 0.9, 1.0, 1.05]) == 1.0
