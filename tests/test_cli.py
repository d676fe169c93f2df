import csv
import math
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from sketchls import cli, diagnostics, embed, matio
from sketchls.cli import (ConfigError, EXIT_BOUND_FAILED, EXIT_CONFIG, EXIT_OK,
                          EXIT_RUN_ERROR, ExperimentConfig, MatrixSource,
                          emit_figure_data, main, parse_config,
                          run_experiment, sweep_d)
from sketchls.matio import MatrixHandle, synthesize_matrix, synthesize_problem
from sketchls.rng import stream
from sketchls.solvers import LinearOperatorView, MetricsObserver, Termination, lsmr
from sketchls.stopping import StopMode

from conftest import d_row_sketch, random_tall, span_matrix
from reference import DRowProblem, materialize, save_matrix_market

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
        assert config.kind == [embed.SketchKind.GAUSSIAN, embed.SketchKind.SRHT]
        assert config.d_mult == [1.2, 2.4]
        assert config.policy.mode is StopMode.STABILIZE_RESIDUAL
        assert config.seeds == [0, 1, 2]
        assert config.policy.band == (0.98, 1.02)
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
        ("100,5,0.5", "with cond >= 1"), ("5,100,10", "with m > n >= 1"),
        ("100,0,10", "with m > n >= 1"),
        # a square matrix fits no d (n <= d < m): refused before it is synthesized
        ("100,100,10", "with m > n >= 1"),
    ])
    @pytest.mark.parametrize("command", ["run", "sweep-d", "check"])
    def test_bad_synthetic_spec_is_config_error(self, tmp_path, capsys, monkeypatch, command,
                                                spec, match):
        loads = record_loads(monkeypatch)
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
        assert loads == []
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
        ("2n,-3n", "--d-list multiplier must be positive"),
        ("0,8", "--d-list must be positive"),
    ])
    def test_bad_d_list_rejected(self, tmp_path, capsys, monkeypatch, d_list, match):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        loads = record_loads(monkeypatch)
        assert main(["sweep-d", "--config", str(cfg), "--d-list", d_list]) == EXIT_CONFIG
        assert f"config error: {match}" in capsys.readouterr().err
        assert loads == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [["--rho", "nan"], ["--rho", "-1"], ["--d-mult", "nan"],
                                       ["--seed", "x"], ["--d-mult", "y"], ["--rho", "z"],
                                       ["--kind", "fourier"]])
    def test_check_bad_number(self, capsys, extra):
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse"] + extra) \
            == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,what", [
        (["--kind", "sparse,gaussian"], "kind"), (["--seed", "0,1"], "seed"),
        (["--d-mult", "2,4"], "d multiplier"), (["--matrix", "a.mtx"], "source"),
    ])
    def test_check_takes_one_cell(self, capsys, monkeypatch, extra, what):
        loads = record_loads(monkeypatch)
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse"] + extra) \
            == EXIT_CONFIG
        assert f"config error: check runs one cell, so one {what}; got 2" in \
            capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("command", ["run", "sweep-d"])
    def test_non_ascii_config_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# \u03ba\n" + BASE_CONFIG.format(out=tmp_path / "out"), encoding="utf-8")
        argv = [command, "--config", str(cfg)] + (
            ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config:")
        assert len(err.splitlines()) == 1

    def test_non_ascii_matrix_name_is_config_error(self, tmp_path, capsys):
        # the stem names every output, and every output is ASCII: the
        # name is refused before the load, and no output is written
        path = tmp_path / "m\u00e9.mtx"
        save_matrix_market(random_tall(40, 3, 0), path)
        out = tmp_path / "b.csv"
        assert main(["check", "--matrix", str(path), "--kind", "sparse",
                     "--output", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: matrix {path}: its name, the file's stem, is not ASCII\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep-d"])
    def test_output_dir_naming_a_file_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                      command):
        loads = record_loads(monkeypatch)
        (tmp_path / "out").write_text("")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        argv = [command, "--config", str(cfg)] + (
            ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot make output_dir:")
        assert len(err.splitlines()) == 1
        assert loads == []

    def test_check_output_into_missing_directory_is_config_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        loads = record_loads(monkeypatch)
        output = tmp_path / "absent" / "x.csv"
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse",
                     "--output", str(output)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: --output {output}: its directory does not exist\n"
        assert captured.out == ""
        assert loads == []

    def test_sweep_counts_d_values_before_any_load(self, tmp_path, capsys, monkeypatch):
        loads = record_loads(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "8"]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: sweep-d needs at least two d values\n"
        assert loads == []

    def test_sweep_multiplier_with_two_sources_before_any_load(self, tmp_path, capsys,
                                                              monkeypatch):
        loads = record_loads(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("synthetic = 120,4,10\nsynthetic = 3000,4,10\nkind = gaussian\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "2n,4n"]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: multiplier d values need a single matrix source\n"
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep-d"])
    @pytest.mark.parametrize("sources,name", [
        ("matrix = a/x.mtx\nmatrix = b/x.mtx\n", "x"),
        ("synthetic = 120,4,10\nsynthetic = 120,4,10\n", "synth120x4c10"),
    ], ids=["two-stems", "synthetic-twice"])
    def test_repeated_source_name_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                  command, sources, name):
        # a source's output files and summary rows carry its name, so the
        # second source of a name would overwrite the first's
        loads = record_loads(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(sources + f"kind = gaussian\noutput_dir = {tmp_path / 'out'}\n")
        argv = [command, "--config", str(cfg)] + (
            ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: two sources are named '{name}', the name of their outputs\n"
        assert loads == []
        assert not (tmp_path / "out").exists()

    def test_d_rule_violation_is_run_error(self, tmp_path):
        # d = ceil(30 * 6) = 180 >= m = 120
        config = parse_config("synthetic = 120,6,20\nkind = gaussian\n"
                              f"d_mult = 30\noutput_dir = {tmp_path}\n")
        assert run_experiment(config) == EXIT_RUN_ERROR

    @pytest.mark.parametrize("command", ["run", "check", "sweep-d"])
    def test_d_that_does_not_fit_is_a_run_error(self, tmp_path, capsys, command):
        # whether a d fits depends on the loaded shape, so a misfit is a
        # run error of the source in every command, with one message
        if command == "check":
            argv = ["check", "--synthetic", "120,6,20", "--kind", "sparse", "--d-mult", "30"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"synthetic = 120,6,20\nkind = sparse\nd_mult = 30\n"
                           f"output_dir = {tmp_path / 'out'}\n")
            argv = [command, "--config", str(cfg)] + (
                ["--d-list", "8,30n"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == \
            "error: synth120x6c20: d = ceil(30.0 * 6) = 180 violates n <= d < m = 120\n"
        assert not list(tmp_path.glob("out/*_bounds.csv")) + list(tmp_path.glob("out/sweep*"))

    @pytest.mark.parametrize("n,d", [(50, 55), (100, 110)])
    @pytest.mark.parametrize("command", ["run", "sweep-d"])
    def test_multiplier_d_is_the_exact_ceiling(self, tmp_path, capsys, monkeypatch, command,
                                               n, d):
        # 1.1 * n is the double just above d, whose ceiling is d + 1
        built = record_sketches(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        for m, code in [(d + 20, EXIT_OK), (d, EXIT_RUN_ERROR)]:
            cfg.write_text(f"synthetic = {m},{n},10\nkind = gaussian\nd_mult = 1.1\n"
                           f"output_dir = {out}\n")
            argv = [command, "--config", str(cfg)] + (
                ["--d-list", f"1.1n,{n + 2}"] if command == "sweep-d" else [])
            assert main(argv) == code
        assert [d for _, d, _ in built] == ([d, n + 2] if command == "sweep-d" else [d])
        if command == "run":
            assert (out / f"synth{d + 20}x{n}c10_gaussian_d{d}_s0_bounds.csv").exists()
        assert capsys.readouterr().err == \
            f"error: synth{d}x{n}c10: d = ceil(1.1 * {n}) = {d} violates n <= d < m = {d}\n"

    @pytest.mark.parametrize("command", ["run", "check", "sweep-d"])
    def test_symmetric_source_is_a_load_failure(self, tmp_path, capsys, command):
        # Matrix Market stores only a square matrix as symmetric, and a
        # square matrix fits no d, so the reader takes general storage only
        sym = tmp_path / "sym.mtx"
        sym.write_text("%%MatrixMarket matrix coordinate real symmetric\n6 6 2\n1 1 4.0\n2 1 1.0\n")
        if command == "check":
            argv = ["check", "--matrix", str(sym), "--kind", "sparse"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"matrix = {sym}\nkind = sparse\noutput_dir = {tmp_path / 'out'}\n")
            argv = [command, "--config", str(cfg)] + (
                ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == \
            "error: sym: load failed: line 1: unsupported symmetry 'symmetric'\n"

    def test_check_output_naming_a_directory_is_config_error(self, tmp_path, capsys,
                                                             monkeypatch):
        loads = record_loads(monkeypatch)
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse",
                     "--output", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: --output {tmp_path}: is a directory, not a file\n"
        assert captured.out == ""
        assert loads == []

    @pytest.mark.parametrize("command", ["run", "sweep-d"])
    @pytest.mark.parametrize("key,values,message", [
        ("kind", "gaussian,sparse,gaussian", "'gaussian' and 'gaussian'"),
        ("seeds", "0,1,0", "'0' and '0'"),
        ("d_mult", "4,4.0", "'4' and '4.0'"),
    ], ids=["kind", "seeds", "d_mult"])
    def test_repeated_list_value_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                 command, key, values, message):
        # each value of a list key is a set of cells, so a repeated one
        # would run them twice and write their rows twice
        loads = record_loads(monkeypatch)
        keys = {"synthetic": "120,6,20", "kind": "gaussian",
                "output_dir": str(tmp_path / "out"), key: values}
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv = [command, "--config", str(cfg)] + (
            ["--d-list", "8,16"] if command == "sweep-d" else [])
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {key} gives one value twice, "
                                           f"{message}, so its cells would run twice\n")
        assert loads == []
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_flag_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(cfg), "--seeds", "3,3"]) == EXIT_CONFIG
        assert "seeds gives one value twice, '3' and '3'" in capsys.readouterr().err

    def test_run_of_two_multipliers_of_one_d_is_a_run_error(self, tmp_path, capsys):
        # ceil(4 * 6) = ceil(3.9 * 6) = 24 on the first source; on the
        # second, 4 * 20 = 80 and 3.9 * 20 = 78, whose cells all run
        config = parse_config("synthetic = 120,6,20\nsynthetic = 400,20,10\nkind = sparse\n"
                              f"d_mult = 4,3.9\noutput_dir = {tmp_path}\n")
        assert run_experiment(config) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == (
            "error: synth120x6c20: two d values give d = 24, so its cells would run twice\n")
        assert sorted(path.name for path in tmp_path.glob("*_bounds.csv")) == [
            "synth400x20c10_sparse_d78_s0_bounds.csv", "synth400x20c10_sparse_d80_s0_bounds.csv"]
        with open(tmp_path / "summary.csv", newline="") as fh:
            assert [row["d"] for row in csv.DictReader(fh)] == ["80", "78"]

    def test_run_reports_a_misfit_d_besides_a_repeated_one(self, tmp_path, capsys):
        config = parse_config("synthetic = 120,6,20\nkind = sparse\n"
                              f"d_mult = 4,3.9,100\noutput_dir = {tmp_path}\n")
        assert run_experiment(config) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == (
            "error: synth120x6c20: d = ceil(100.0 * 6) = 600 violates n <= d < m = 120\n"
            "error: synth120x6c20: two d values give d = 24, so its cells would run twice\n")
        assert not list(tmp_path.glob("*_bounds.csv"))

    @pytest.mark.parametrize("d_list", ["24,24", "4n,24"])
    def test_sweep_of_two_d_values_of_one_d_is_a_run_error(self, tmp_path, capsys, d_list):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"synthetic = 120,6,20\nkind = sparse\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", d_list]) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == (
            "error: synth120x6c20: two d values give d = 24, so its cells would run twice\n")
        assert not (tmp_path / "out" / "sweep_d.csv").exists()


def count_factorizations(monkeypatch) -> Counter:
    """Count ``scipy.linalg.qr`` calls by (pivoting, operand shape),
    ``scipy.linalg.svd`` calls by operand shape, and the Gram and Cholesky
    kernels by the shape of X in C = X^T X and of C, under keys ``("qr",
    pivoting, shape)``, ``("svd", None, shape)``, ``("syrk", None, shape)``
    and ``("potrf", None, shape)``."""
    shapes = Counter()
    real_qr, real_svd = scipy.linalg.qr, scipy.linalg.svd
    real_syrk, real_potrf = scipy.linalg.blas.dsyrk, scipy.linalg.lapack.dpotrf

    def counting_qr(a, *args, pivoting=False, **kwargs):
        shapes["qr", pivoting, a.shape] += 1
        return real_qr(a, *args, pivoting=pivoting, **kwargs)

    def counting_svd(a, *args, **kwargs):
        shapes["svd", None, a.shape] += 1
        return real_svd(a, *args, **kwargs)

    def counting_syrk(alpha, a, *args, trans=0, **kwargs):
        shapes["syrk", None, a.shape if trans else a.shape[::-1]] += 1
        return real_syrk(alpha, a, *args, trans=trans, **kwargs)

    def counting_potrf(c, *args, **kwargs):
        shapes["potrf", None, c.shape] += 1
        return real_potrf(c, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
    monkeypatch.setattr(scipy.linalg.blas, "dsyrk", counting_syrk)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting_potrf)
    return shapes


def qr_counts(shapes: Counter, rows: int, cols: int) -> dict:
    """The m-row QR counts, pivoted and not, the n-by-n pivoted QR count and
    the m-row Gram count of an m-by-n A, from :func:`count_factorizations`."""
    return {"pivoted": shapes["qr", True, (rows, cols)],
            "unpivoted": shapes["qr", False, (rows, cols)],
            "n-by-n pivoted": shapes["qr", True, (cols, cols)],
            "m-row syrk": shapes["syrk", None, (rows, cols)]}


# A is factored once, by one pivoted QR of an n-by-n matrix and no QR of
# its m rows, from the CholeskyQR of an m-row matrix: at synthesis, of the
# draw that becomes U, whose kappa is below 2, so one pass and one m-row
# Gram; at the first use of a loaded A, of its densified copy, whose kappa
# of 10 or 20 is above 2, so two passes and two m-row Grams.
A_FACTOR_COUNTS = {
    loaded: {"pivoted": 0, "unpivoted": 0, "n-by-n pivoted": 1, "m-row syrk": 1 + loaded}
    for loaded in (False, True)}


def save_synthetic(tmp_path, m: int, n: int, cond: float) -> Path:
    """The matrix of ``synthetic = m,n,cond`` saved in Matrix Market form, so
    that it loads as a dense matrix, not as its factor."""
    path = tmp_path / f"a{m}x{n}.mtx"
    save_matrix_market(MatrixSource("s", synthetic=(m, n, cond)).load(), path)
    return path


def record_loads(monkeypatch) -> list:
    """The name of every source that ``MatrixSource.load`` is asked for;
    each load fails."""
    loads = []

    def load(source):
        loads.append(source.name)
        raise OSError("no load expected")

    monkeypatch.setattr(MatrixSource, "load", load)
    return loads


def record_sketches(monkeypatch, fail=lambda kind, d, seed: False) -> list:
    """(kind, d, seed) of every sketch made, by ``build_sketch`` or, for a
    Gaussian cell, ``gaussian_span_sketch``; one for which ``fail`` holds
    raises ``ValueError("boom")`` instead."""
    made = []
    real_build, real_span = embed.build_sketch, embed.gaussian_span_sketch

    def record(kind, d, seed):
        if fail(kind, d, seed):
            raise ValueError("boom")
        made.append((kind.value, d, seed))

    def build(kind, d, m, seed):
        record(embed.SketchKind(kind), d, seed)
        return real_build(kind, d, m, seed)

    def span(d, m, k, seed):
        record(embed.SketchKind.GAUSSIAN, d, seed)
        return real_span(d, m, k, seed)

    monkeypatch.setattr(embed, "build_sketch", build)
    monkeypatch.setattr(embed, "gaussian_span_sketch", span)
    return made


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

    def test_summary_final_values_of_a_stale_last_record(self, tmp_path):
        # LSQR runs to max_iter = 200, which is off the stride-7 grid
        # (fresh at k = 1, 8, ..., 197): the summary holds the metrics of
        # the returned iterate, as the stride-1 run's fresh last record does
        rows = {}
        for stride in (7, 1):
            out = tmp_path / f"s{stride}"
            config = parse_config("synthetic = 2000,100,100\nkind = gaussian\nsolver = lsqr\n"
                                  "stop = traditional\ntol = 1e-10\nseeds = 0\n"
                                  f"stride = {stride}\noutput_dir = {out}\n")
            assert run_experiment(config) == EXIT_OK
            with open(out / "summary.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            with open(out / "synth2000x100c100_gaussian_d200_s0_lsqr_trace.csv",
                      newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            rows[stride] = row, last
        (stale, stale_last), (fresh, fresh_last) = rows[7], rows[1]
        assert stale["iterations"] == stale_last["k"] == fresh_last["k"] == "200"
        assert (stale_last["stale_flag"], fresh_last["stale_flag"]) == ("1", "0")
        for key, column in (("final_rnorm", "rnorm"), ("final_ne_ratio", "ne_ratio")):
            assert stale[key] == fresh[key] == fresh_last[column] != stale_last[column]

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
        distortions = []
        real_distortion = embed.basis_distortion

        def counting_distortion(*args):
            distortions.append(args)
            return real_distortion(*args)

        sketched = record_sketches(monkeypatch)
        monkeypatch.setattr(cli.embed, "basis_distortion", counting_distortion)
        assert run_experiment(parse_config(BASE_CONFIG.format(out=tmp_path))) == EXIT_OK
        # one (problem, sketch) pair per seed
        assert len(sketched) == len(distortions) == 2

    def test_countsketch_matrix_built_once_per_cell(self, tmp_path, monkeypatch):
        # S Q and S u of a sparse cell take one CSR matrix of S, kept by S
        built = []
        real = embed._countsketch_matrix
        monkeypatch.setattr(embed, "_countsketch_matrix",
                            lambda S: built.append(S.seed) or real(S))
        config = parse_config(BASE_CONFIG.format(out=tmp_path).replace(
            "kind = gaussian", "kind = sparse"))
        assert run_experiment(config) == EXIT_OK
        assert built == [0, 1]

    def test_sketched_problem_formed_once_per_pair(self, tmp_path, monkeypatch):
        # 3 kinds x 2 seeds, d = 24, n = 6: each pair makes one sketch, never
        # sketches A, takes one Gram of its 24 x 7 SW (one T), and one SVD
        # and one triangular solve of the 7 x 6 M that stands for SA
        # (SA = Q_s M); no SVD, QR or solve sees 24 rows
        applied = Counter()
        real_apply = embed.apply

        def counting_apply(S, X, out=None):
            applied[S.kind.value, S.seed, isinstance(X, MatrixHandle)] += 1
            return real_apply(S, X, out=out)

        def counting_solve(name, real):
            def solve(*args):
                shapes[name, args[-1].shape] += 1
                return real(*args)
            return solve

        made = record_sketches(monkeypatch)
        shapes = count_factorizations(monkeypatch)
        monkeypatch.setattr(embed, "apply", counting_apply)
        for module in (diagnostics, matio):
            monkeypatch.setattr(module, "qr_ls_solve",
                                counting_solve("qr_ls_solve", module.qr_ls_solve))
        monkeypatch.setattr(diagnostics, "_qr_solve",
                            counting_solve("_qr_solve", diagnostics._qr_solve))
        config = parse_config(BASE_CONFIG.format(out=tmp_path).replace(
            "kind = gaussian", "kind = gaussian,srht,sparse"))
        assert run_experiment(config) == EXIT_OK
        pairs = [(kind, seed) for kind in ("gaussian", "srht", "sparse") for seed in (0, 1)]
        assert Counter((kind, seed) for kind, _, seed in made) == dict.fromkeys(pairs, 1)
        # S Q and S u for SRHT and sparse; a Gaussian cell applies nothing
        assert applied == {(kind, seed, False): 2 for kind, seed in pairs if kind != "gaussian"}
        assert shapes["syrk", None, (24, 7)] == 6
        assert shapes["svd", None, (7, 6)] == 6
        # x_s's solve, by the 7-entry T c_b
        assert shapes["_qr_solve", (7,)] == 6
        assert not [key for key in shapes if key[0] == "qr_ls_solve"]
        assert not [key for key in shapes if key[0] != "syrk" and key[-1][0] == 24]

    def test_basis_and_oracle_once_per_seed(self, tmp_path, monkeypatch):
        basis_calls, oracle_calls = [], []
        real_basis, real_oracle = matio.span_coordinates, cli.solve_ls_oracle

        def counting_basis(A, b):
            basis_calls.append(A.rows)
            return real_basis(A, b)

        def counting_oracle(A, b):
            oracle_calls.append(A.rows)
            return real_oracle(A, b)

        monkeypatch.setattr(matio, "span_coordinates", counting_basis)
        monkeypatch.setattr(cli, "solve_ls_oracle", counting_oracle)
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path)
                              + "synthetic = 100,6,20\n")
        assert run_experiment(config) == EXIT_OK
        # 2 sources x 2 seeds, each shared by 2 kinds x 2 d
        assert basis_calls == oracle_calls == [120, 120, 100, 100]

    def test_one_pivoted_qr_of_A_and_no_m_row_svd(self, tmp_path, monkeypatch):
        # 3 kinds x 2 seeds share one factorization of the 120 x 6 A (every
        # oracle, basis, spectral datum and observer factor comes from it);
        # no SVD sees an operand with m rows, and no QR a cell's operands
        self.check_factorizations(tmp_path, monkeypatch, loaded=False)

    def test_one_pivoted_qr_of_loaded_A_and_no_m_row_svd(self, tmp_path, monkeypatch):
        self.check_factorizations(tmp_path, monkeypatch, loaded=True)

    @staticmethod
    def check_factorizations(tmp_path, monkeypatch, loaded: bool):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "kind = gaussian", "kind = gaussian,srht,sparse")
        if loaded:
            text = text.replace("synthetic = 120,6,20",
                                f"matrix = {save_synthetic(tmp_path, 120, 6, 20)}")
        config = parse_config(text)
        shapes = count_factorizations(monkeypatch)
        assert run_experiment(config) == EXIT_OK
        assert qr_counts(shapes, 120, 6) == A_FACTOR_COUNTS[loaded]
        assert not [key for key in shapes if key[0] == "svd" and key[2][0] == 120]
        # each of the 6 cells takes one Gram of its 24 x 7 SW, and no QR of
        # SW or of its 7 x 6 M
        assert shapes["syrk", None, (24, 7)] == 6
        assert not [key for key in shapes if key[0] == "qr" and key[2] in ((24, 7), (7, 6))]

    def test_row_order_kind_d_seed(self, tmp_path):
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path))
        assert run_experiment(config) == EXIT_OK
        with open(tmp_path / "summary.csv") as fh:
            got = [(r["kind"], r["d"], r["seed"], r["solver"]) for r in csv.DictReader(fh)]
        assert got == [(kind, d, seed, solver) for kind in ("gaussian", "sparse")
                       for d in ("24", "48") for seed in ("0", "1")
                       for solver in ("lsqr", "lsmr")]

    def test_error_order_kind_d_seed(self, tmp_path, monkeypatch, capsys):
        # two failing cells, (gaussian, 48) at seed 1 and (sparse, 24) at
        # both seeds: they fail in seed -> d -> kind order, and are
        # reported in kind -> d -> seed order
        failing = {("gaussian", 48, 1), ("sparse", 24, 0), ("sparse", 24, 1)}
        record_sketches(monkeypatch, fail=lambda kind, d, seed: (kind.value, d, seed) in failing)
        config = parse_config(TWO_KINDS_CONFIG.format(out=tmp_path))
        assert run_experiment(config) == EXIT_RUN_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [
            "error: synth120x6c20_gaussian_d48_s1: boom",
            "error: synth120x6c20_sparse_d24_s0: boom",
            "error: synth120x6c20_sparse_d24_s1: boom",
        ]

    def test_misfit_d_blocks_only_its_own_source(self, tmp_path, monkeypatch, capsys):
        # d = ceil(12 * 20) = 240 does not fit the second source (m = 200):
        # it is a run error of that source, found before any of its cells,
        # and every cell of the first source runs
        built = record_sketches(monkeypatch)
        config = parse_config("synthetic = 120,6,20\nsynthetic = 200,20,10\nkind = sparse\n"
                              f"d_mult = 4,12\nsolver = lsmr\noutput_dir = {tmp_path}\n")
        assert run_experiment(config) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == \
            "error: synth200x20c10: d = ceil(12.0 * 20) = 240 violates n <= d < m = 200\n"
        assert [d for _, d, _ in built] == [24, 72]
        assert sorted(path.name for path in tmp_path.glob("*.csv")) == [
            "summary.csv", "synth120x6c20_sparse_d24_s0_bounds.csv",
            "synth120x6c20_sparse_d24_s0_lsmr_trace.csv",
            "synth120x6c20_sparse_d72_s0_bounds.csv",
            "synth120x6c20_sparse_d72_s0_lsmr_trace.csv"]
        with open(tmp_path / "summary.csv", newline="") as fh:
            assert [(row["matrix"], row["d"]) for row in csv.DictReader(fh)] == \
                [("synth120x6c20", "24"), ("synth120x6c20", "72")]

    def test_failing_gaussian_draw_is_the_cells_error(self, tmp_path, monkeypatch, capsys):
        real_stream = embed.stream

        class FailingGenerator:
            def standard_normal(self, size):
                raise RuntimeError("draw failed")

        def stream(seed, *tags):
            return FailingGenerator() if tags[0] == "gaussian-span" and seed == 1 \
                else real_stream(seed, *tags)

        monkeypatch.setattr(embed, "stream", stream)
        assert run_experiment(parse_config(BASE_CONFIG.format(out=tmp_path))) == EXIT_RUN_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: synth120x6c20_gaussian_d24_s1: draw failed"]
        assert (tmp_path / "synth120x6c20_gaussian_d24_s0_bounds.csv").is_file()


def rank_trimmed_matrix() -> MatrixHandle:
    """10000 x 3 with orthogonal columns of norms 1, 0.5 and 1.5e-12: its
    R_nn / R_11 is above ``matio.RANK_TOL``, so the oracle takes it, but
    below the basis floor max(m, n + 1) * u = 2.2e-12, so the basis drops
    the third column of Q."""
    U, _ = np.linalg.qr(stream(3, "trimmed", 10_000).standard_normal((10_000, 3)))
    return MatrixHandle(U * np.array([1.0, 0.5, 1.5e-12]))


def sketch_basis(P: diagnostics.SketchedProblem, SW: np.ndarray) -> np.ndarray:
    """Q_s = SW T^-1, the orthonormal factor of a cell's SW = Q_s T, from the
    reference SW = S W: the cell's SA stands for Q_s SA and its S r for
    Q_s P.sketch(r)."""
    return scipy.linalg.solve_triangular(P.T, SW.T, trans="T").T


def cell_sketch(problem, kind: embed.SketchKind, P: diagnostics.SketchedProblem) -> np.ndarray:
    """The SW = S W of the cell ``P``, as the cell forms it: the Gaussian
    draw Z, or [S Q, S u] for the cell's S from ``build_sketch``."""
    A, k = problem.A, problem.oracle.span.c_b.size
    if kind is embed.SketchKind.GAUSSIAN:
        return embed.gaussian_span_sketch(P.d, A.rows, k, problem.seed)
    S = embed.build_sketch(kind, P.d, A.rows, problem.seed)
    return np.column_stack([embed.apply(S, A.qr_factor()[0]), embed.apply(S, problem.oracle.span.u)])


def suite_noise_floor(bound_id, P) -> float:
    """The noise floor that ``diagnostics`` gives a row of the bound suite
    of ``P``: the lhs below which the row passes as rounding noise."""
    BoundId, norm_A = diagnostics.BoundId, P.A.spectral_norm()
    if bound_id is BoundId.ETA_F_UPPER:
        return math.sqrt(diagnostics.compute_eta_f(P.oracle, P.x_s).lambda_noise)
    scale = {BoundId.GEOM_PRESERVE: norm_A * P.norms_s[0],
             BoundId.RESIDUAL_SANDWICH: 0.0, BoundId.ACUTE_CRITERION: 0.0,
             BoundId.BACKWARD_E1: norm_A,
             BoundId.BACKWARD_E2: P.oracle.r_ls_norm / np.linalg.norm(P.x_s)}
    return diagnostics.NOISE_FLOOR_REL * scale.get(bound_id, 1.0)


SLOW_ORACLE_SOURCES = ["synthetic", "loaded", "rank-trimmed"]


def slow_oracle_cell(source: str, kind: embed.SketchKind):
    """(problem, the coordinate cell P, the d-row reference R of the same
    operator) on one of ``SLOW_ORACLE_SOURCES``."""
    if source == "rank-trimmed":
        A, d = rank_trimmed_matrix(), 30
    else:
        A, d = MatrixSource("s", synthetic=(300, 6, 20)).load(), 40
        if source == "loaded":
            A = MatrixHandle(A.dense())
    problem = cli.SeedProblem(A, 4, 1e-3)
    P = cli._sketch_cell(problem, kind, d)
    R = DRowProblem(problem.oracle, d_row_sketch(problem, kind, d), eps=P.eps)
    return problem, P, R


class TestSketchCell:
    """The cell in the coordinates of W = [Q u] against the slow oracles: the
    d-row ``DRowProblem(oracle, S)`` of the cell's operator S
    (``d_row_sketch``), S applied to A, and the explicit S times the dense A."""

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    @pytest.mark.parametrize("loaded", [False, True])
    def test_SA_matches_sketch_of_A(self, kind, loaded):
        A = MatrixSource("s", synthetic=(300, 6, 20)).load()
        if loaded:
            A = MatrixHandle(A.dense())
        problem = cli.SeedProblem(A, 4, 1e-3)
        P = cli._sketch_cell(problem, kind, 40)
        assert P.SA.shape == (7, 6) and P.SA.flags.c_contiguous and P.d == 40
        S = d_row_sketch(problem, kind, 40)
        Q_s = sketch_basis(P, embed.apply(S, span_matrix(problem)))
        scale = np.linalg.norm(P.SA, 2)
        for ref in (embed.apply(S, A.dense()), materialize(S) @ A.dense()):
            assert np.max(np.abs(Q_s @ P.SA - ref)) <= 1e-13 * scale
        assert np.array_equal(P.Sb, P.T @ problem.oracle.span.c_b)
        Sb = embed.apply(S, P.b)
        assert np.max(np.abs(Q_s @ P.Sb - Sb)) <= 1e-13 * np.linalg.norm(Sb)

    def test_gaussian_cell_does_not_depend_on_how_A_was_factored(self, monkeypatch):
        # a Gaussian cell's draw acts on W = [Q u], and Q is fixed by A and
        # piv once R's diagonal is positive; so CholeskyQR2 and the forced
        # m-row Householder fallback give one x_s and one plateau, to the
        # rounding of the two factors (seen: 1e-15 and 8e-13 relative;
        # with R's diagonal signs left as LAPACK gives them, 2e-3 and 8e-4)
        dense = MatrixSource("s", synthetic=(300, 6, 20)).load().dense()
        cells = []
        for limit in (matio.CHOLQR_COND_LIMIT, 0.0):
            monkeypatch.setattr(matio, "CHOLQR_COND_LIMIT", limit)
            problem = cli.SeedProblem(MatrixHandle(dense.copy()), 4, 1e-3)
            P = cli._sketch_cell(problem, embed.SketchKind.GAUSSIAN, 40)
            observer = MetricsObserver(problem.A, problem.b, oracle=problem.oracle)
            cells.append((problem.A.qr_factor()[0], P.x_s, observer.metrics(P.x_s)[1]))
        (Q_chol, x_chol, plateau_chol), (Q_hh, x_hh, plateau_hh) = cells
        assert not np.array_equal(Q_chol, Q_hh)  # two factorizations ran
        assert np.linalg.norm(x_chol - x_hh) <= 1e-12 * np.linalg.norm(x_hh)
        assert plateau_chol == pytest.approx(plateau_hh, rel=1e-10)

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    def test_rank_trimmed_basis_keeps_every_column_of_SA(self, kind):
        A = rank_trimmed_matrix()
        problem = cli.SeedProblem(A, 0, 1e-3)
        _, R, _ = A.qr_factor()
        assert 1e-12 < abs(R[2, 2] / R[0, 0]) < 2.2e-12
        # the basis keeps 2 of Q's 3 columns; W keeps all 3, and u
        span = problem.oracle.span
        assert span.rank == 2 and span.c_b.shape == (4,)
        P = cli._sketch_cell(problem, kind, 30)
        assert P.SA.shape == (4, 3)
        S = d_row_sketch(problem, kind, 30)
        ref = embed.apply(S, A.dense())
        Q_s = sketch_basis(P, embed.apply(S, span_matrix(problem)))
        assert np.max(np.abs(Q_s @ P.SA - ref)) <= 1e-13 * np.linalg.norm(ref, 2)
        # q keeps b's part along the dropped column, as subspace_basis's does
        assert P.eps == pytest.approx(embed.exact_distortion(S, A, problem.b), rel=1e-13)

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    @pytest.mark.parametrize("source", SLOW_ORACLE_SOURCES)
    def test_cell_matches_the_d_row_problem(self, source, kind):
        # every quantity the cell reads from its coordinates, and every row
        # of its bound suite, against the d-row problem of the same S.
        # Tolerances, relative: singular values 1e-14 of sigma_1 and ||Sb||
        # 1e-14 (rounding of a k x k product); eps 1e-13, the accuracy of
        # exact_distortion's basis; x_s 1e-13 on the full-rank sources
        # (kappa(SA) about 20) and 1e-10 on the rank-trimmed one (kappa(SA)
        # about 1e12, where b's part in the weak direction is itself 1e-12).
        # A row's lhs and rhs 1e-10, or the row's noise floor when that is
        # larger: the lhs of GeomPreserve, NormalRatioCross and the rows
        # that read ||A^T r_s|| are differences of O(1) terms that cancel
        # to about eps of them (seen: at most 7e-12, and 2e-12 for an rhs).
        # EtaFUpper's floor is sqrt(lambda_noise) of compute_eta_f; its
        # lhs agreed to 5e-12 and its rhs to 1.3e-11 on every kind and source
        problem, P, R = slow_oracle_cell(source, kind)
        assert P.d == R.d
        assert np.max(np.abs(P.sv - R.sv)) <= 1e-14 * R.sv[0]
        assert np.linalg.norm(P.Sb) == pytest.approx(np.linalg.norm(R.Sb), rel=1e-14)
        assert P.eps == pytest.approx(
            embed.exact_distortion(R.S, problem.A, problem.b), rel=1e-13)
        x_tol = 1e-10 if source == "rank-trimmed" else 1e-13
        assert np.linalg.norm(P.x_s - R.x_s) <= x_tol * np.linalg.norm(R.x_s)
        got, want = (diagnostics.run_bound_suite(X) for X in (P, R))
        assert len(got) == len(want) == len(diagnostics.SUITE_BOUND_IDS)
        for mine, ref in zip(got, want):
            # SA's rank floor in the acute row is max(d, n) on both, not
            # the k rows of M
            assert (mine.bound_id, mine.passed, mine.note) == (ref.bound_id, ref.passed, ref.note)
            floor = suite_noise_floor(mine.bound_id, R)
            for side in ("lhs", "rhs"):
                assert getattr(mine, side) == pytest.approx(getattr(ref, side), rel=1e-10,
                                                            abs=floor), (mine, ref)

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    @pytest.mark.parametrize("source", SLOW_ORACLE_SOURCES)
    def test_T_from_the_gram_is_the_householder_R(self, source, kind, monkeypatch):
        # T, the Cholesky factor of SW^T SW, against the R of SW's
        # Householder QR, the slow oracle: equal up to row signs, and so
        # are their singular values, to 10 u relative.  No cell here is
        # ill-conditioned enough for the fallback
        shapes = count_factorizations(monkeypatch)
        problem, P, _ = slow_oracle_cell(source, kind)
        assert not [key for key in shapes if key[0] == "qr" and key[2][0] == P.d]
        assert shapes["syrk", None, (P.d, P.T.shape[1])] == 1
        SW = cell_sketch(problem, kind, P)
        assert np.array_equal(diagnostics.sketch_factor(SW.copy()), P.T)
        R = scipy.linalg.qr(SW, mode="r")[0][: SW.shape[1]]
        assert np.all(np.diag(P.T) > 0)
        tol = 10 * np.finfo(np.float64).eps
        signs = np.sign(np.diag(R))
        assert np.linalg.norm(signs[:, None] * R - P.T) <= tol * np.linalg.norm(R)
        sv, sv_ref = (scipy.linalg.svd(X, compute_uv=False) for X in (P.T, R))
        assert np.max(np.abs(sv - sv_ref)) <= tol * sv_ref[0]

    @pytest.mark.parametrize("case", ["repeated column", "fewer rows than columns",
                                      "kappa about 1e5"])
    def test_ill_conditioned_sketch_takes_the_householder_R(self, case):
        # the first two fail the Cholesky; the third passes it, and its
        # condition estimate is above GRAM_COND_LIMIT
        SW = stream(0, "rank-losing", 40, 7).standard_normal((40, 7))
        if case == "repeated column":
            SW[:, 5] = SW[:, 2]
        elif case == "fewer rows than columns":
            SW = SW[:6]
        else:
            SW[:, 5] = SW[:, 2] + 1e-5 * SW[:, 5]
            assert matio.gram_cholesky(SW.T.copy()) is not None
        T = diagnostics.sketch_factor(SW.copy())
        assert np.array_equal(T, scipy.linalg.qr(SW, mode="r")[0][:7])

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    @pytest.mark.parametrize("source", SLOW_ORACLE_SOURCES)
    def test_triangular_x_s_is_the_qr_solve_of_the_pair(self, source, kind):
        # x_s from T11 R, the triangular top of M, against the slow oracle
        # qr_ls_solve(M, T c_b); tolerances as in
        # test_cell_matches_the_d_row_problem
        _, P, _ = slow_oracle_cell(source, kind)
        ref = matio.qr_ls_solve(P.SA, P.Sb)
        x_tol = 1e-10 if source == "rank-trimmed" else 1e-13
        assert np.linalg.norm(P.x_s - ref) <= x_tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["weak column of A", "near-repeated column of SW"])
    def test_near_singular_pair_raises(self, case):
        # M = [T11 R; 0] is near singular through R (A's columns have norms
        # 1 and 1e-13, below RANK_TOL) or through T (two columns of SW agree
        # to 1e-14, so T comes from the Householder fallback); the slow
        # oracle raises too.  x_s reads only A of the least-squares oracle,
        # whose own solve raises on the weak column, so a stand-in holds A
        U, _ = np.linalg.qr(stream(5, "near-singular", 200).standard_normal((200, 2)))
        A = MatrixHandle(U * np.array([1.0, 1e-13 if case == "weak column of A" else 0.5]))
        b = stream(5, "near-singular-b", 200).standard_normal(200)
        span = matio.span_coordinates(A, b)
        SW = stream(5, "near-singular-SW", 20, 3).standard_normal((20, 3))
        if case == "near-repeated column of SW":
            SW[:, 1] = SW[:, 0] + 1e-14 * SW[:, 2]
        P = diagnostics.SketchedProblem(SimpleNamespace(A=A, b=b, span=span), SW)
        for solve in (lambda: P.x_s, lambda: matio.qr_ls_solve(P.SA, P.Sb)):
            with pytest.raises(matio.RankDeficiencyError, match="rank deficiency"):
                solve()

    @pytest.mark.parametrize("rho", [1e-3, 1.0])
    def test_gaussian_cell_is_a_full_gaussian_on_the_span(self, rho):
        # SW is the draw Z (T is Z's triangular factor), and the full
        # Gaussian S~ = Z W^T + G (I - W W^T) (any G) has S~ W = Z: it
        # gives the cell's SA and Sb, and every product the bound suite
        # takes, S r_ls and A^T (S^T S - I) r_s, to rounding
        A = MatrixSource("s", synthetic=(300, 6, 20)).load()
        problem = cli.SeedProblem(A, 4, rho)
        P = cli._sketch_cell(problem, embed.SketchKind.GAUSSIAN, 40)
        Z = embed.gaussian_span_sketch(40, 300, 7, 4)
        assert np.array_equal(P.T, diagnostics.sketch_factor(Z))
        full = d_row_sketch(problem, embed.SketchKind.GAUSSIAN, 40).payload.matrix
        Q_s = sketch_basis(P, full @ span_matrix(problem))
        dense = A.dense()
        r_ls, r_s = (A.matvec(x) - P.b for x in (problem.oracle.x_ls, P.x_s))
        norm_S = np.linalg.norm(full, 2)
        for got, want, scale in (
                (Q_s @ P.SA, full @ dense, np.linalg.norm(full @ dense, 2)),
                (Q_s @ P.Sb, full @ P.b, np.linalg.norm(full @ P.b)),
                # r_ls = A x_ls - b carries rounding of size u ||b|| off
                # span(W), which only the full Gaussian sees
                (Q_s @ P.sketch_residual(problem.oracle.x_ls), full @ r_ls,
                 norm_S * np.linalg.norm(P.b)),
                # S r_s is orthogonal to range(SA), so A^T S^T S r_s is
                # rounding noise on the scale of ||A|| ||S||^2 ||r_s||
                (P.geometric_defect(P.x_s), dense.T @ (full.T @ (full @ r_s) - r_s),
                 np.linalg.norm(dense, 2) * norm_S ** 2 * np.linalg.norm(r_s))):
            assert np.linalg.norm(got - want) <= 1e-13 * scale

    def test_gaussian_eps_has_the_full_gaussian_law(self):
        # two-sample KS test of the cell's eps against build_sketch's full G
        # on the same problems; seeds 0-999 and alpha = 1e-3 fixed up front
        A = MatrixSource("s", synthetic=(300, 6, 20)).load()
        cell, full = [], []
        for seed in range(1000):
            problem = cli.SeedProblem(A, seed, 1e-3)
            cell.append(cli._sketch_cell(problem, embed.SketchKind.GAUSSIAN, 24).eps)
            S = embed.build_sketch("gaussian", 24, 300, seed)
            full.append(embed.exact_distortion(S, A, problem.b))
        assert scipy.stats.ks_2samp(cell, full).pvalue > 1e-3

    def test_gaussian_cell_makes_no_d_by_m_draw(self, monkeypatch):
        A = MatrixSource("s", synthetic=(5000, 4, 20)).load()
        problem = cli.SeedProblem(A, 0, 1e-3)
        # the seed's shared work (and A's QR), done before the cell
        problem.oracle
        sizes = []
        real_stream = embed.stream

        class Recorded:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size):
                sizes.append(int(np.prod(size)))
                return self.gen.standard_normal(size)

        monkeypatch.setattr(embed, "stream", lambda *tags: Recorded(real_stream(*tags)))
        tracemalloc.start()
        try:
            cli._sketch_cell(problem, embed.SketchKind.GAUSSIAN, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [40 * 5]
        # a d x m G alone would be 1.6 MB, and W = [Q u] 0.2 MB; the cell
        # forms no array of m rows, not even one m-vector (40 KB)
        assert peak < 5000 * 8


class TestReducedSolves:
    """LSQR and LSMR on a cell's (n + 1) x n pair (M, T W^T b) against the
    same solve on the d-row (SA, Sb) of the cell's operator, on the desk
    workload's problem (2000 x 100, kappa 100, d = 2n, rho = 1e-3, seed 0).

    The two take the same Krylov steps in exact arithmetic.  In floating
    point their unsketched residuals agree to 1e-8 relative through about
    iteration 18, and then rounding is amplified about tenfold per
    iteration, as it is between two d-row formations of one SA.  stab-ne
    stops at 10-22 iterations, before that, so its stop is the d-row stop.
    stab-res stops at 50-190, where the stop iteration is decided by
    rounding, so only the shared first 15 steps are compared for it.
    """

    @pytest.mark.parametrize("stop", ["stab-ne", "stab-res"])
    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    def test_same_krylov_steps_and_stab_ne_stop(self, kind, stop):
        config = parse_config(f"synthetic = 2000,100,100\nkind = {kind.value}\nstop = {stop}\n")
        A = config.sources[0].load()
        problem = cli.SeedProblem(A, 0, config.rho)
        P = cli._sketch_cell(problem, kind, 200)
        R = DRowProblem(problem.oracle, d_row_sketch(problem, kind, 200), eps=P.eps)
        for solver in (cli.lsqr, cli.lsmr):
            max_iters = []

            def recording(*args, max_iter=None, **kwargs):
                max_iters.append(max_iter)
                return solver(*args, max_iter=max_iter, **kwargs)

            reduced, _ = cli._solve_cell(recording, P, config)
            d_row = solver(LinearOperatorView.from_matrix(R.SA), R.Sb,
                           observer=MetricsObserver(A, problem.b, oracle=problem.oracle),
                           stop=cli.StoppingController(config.policy, op_norm=math.nan,
                                                       epsilon=P.eps),
                           max_iter=200)
            # min(2n, d), set by the d-row problem, not min(2n, n + 1)
            assert max_iters == [200]
            for mine, ref in zip(reduced.trace[:15], d_row.trace[:15]):
                assert mine.unsketched_residual_norm == pytest.approx(
                    ref.unsketched_residual_norm, rel=1e-8)
            if stop == "stab-ne":
                assert (reduced.iterations, reduced.termination) == \
                    (d_row.iterations, d_row.termination)


class TestCellLoop:
    """The cell loop of ``run`` and ``sweep-d``."""

    def test_run_order_seed_d_kind(self, tmp_path, monkeypatch):
        order = []
        real = cli.run_single

        def recording(name, kind, d, problem, *args, **kwargs):
            order.append((problem.seed, d, kind.value))
            return real(name, kind, d, problem, *args, **kwargs)

        monkeypatch.setattr(cli, "run_single", recording)
        assert run_experiment(parse_config(TWO_KINDS_CONFIG.format(out=tmp_path))) == EXIT_OK
        assert order == [(seed, d, kind) for seed in (0, 1) for d in (24, 48)
                         for kind in ("gaussian", "sparse")]

    def test_sweep_runs_the_other_seeds_of_a_failed_cell(self, tmp_path, monkeypatch):
        # the cell (gaussian, d = 8) fails at seed 0: it still runs at
        # seed 1, as in run, and has no row
        made = record_sketches(monkeypatch, fail=lambda kind, d, seed: d == 8 and seed == 0)
        config = parse_config("synthetic = 120,4,10\nkind = gaussian\nseeds = 0,1\n"
                              f"output_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_RUN_ERROR
        assert [(d, seed) for _, d, seed in made] == [(40, 0), (8, 1), (40, 1)]
        with open(tmp_path / "sweep_d.csv") as fh:
            assert [row["d"] for row in csv.DictReader(fh)] == ["40"]

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_no_product_with_A_after_the_sketch(self, tmp_path, monkeypatch, command):
        # a seed's b, oracle and span multiply by A, and they are formed by
        # the first sketch of the seed; once a cell is sketched, its bound
        # suite, solves and summary read the oracle's evaluator and A's R,
        # and none of them forms the dense A, eta_F's included
        after_sketch, products = [], []
        real_sketch = cli._sketch_cell

        def sketch(*args):
            after_sketch.clear()
            P = real_sketch(*args)
            after_sketch.append(True)
            return P

        monkeypatch.setattr(cli, "_sketch_cell", sketch)
        for name in ("matvec", "rmatvec", "dense"):
            def counting(A, *v, real=getattr(MatrixHandle, name)):
                products.append(bool(after_sketch))
                return real(A, *v)
            monkeypatch.setattr(MatrixHandle, name, counting)
        if command == "run":
            assert run_experiment(parse_config(TWO_KINDS_CONFIG.format(out=tmp_path))) == EXIT_OK
        else:
            config = parse_config("synthetic = 200,4,10\nkind = sparse\nseeds = 1\n"
                                  "d_mult = 16\n")
            assert cli.check_single(config, None) == EXIT_OK
        assert products and not any(products)

# n = 20 and kappa = 10: an unstopped LSMR converges well before its default
# max_iter 2n, so even at stride 3 its last 5 fresh records are at x_s
SWEEP_CONFIG = """
synthetic = 300,20,10
kind = gaussian,sparse
seeds = 0,1
output_dir = {out}
"""
SWEEP_DS = "40,80"

OLD_SWEEP_COLUMNS = ["matrix", "kind", "d", "eps_median", "eps_q1", "eps_q3",
                     "plateau_median", "plateau_q1", "plateau_q3"]


def run_sweep(out: Path, extra: str = ""):
    """The config of ``SWEEP_CONFIG`` plus ``extra`` and the rows of its
    ``sweep_d.csv`` over ``SWEEP_DS``."""
    config = parse_config(SWEEP_CONFIG.format(out=out) + extra)
    assert sweep_d(config, SWEEP_DS) == EXIT_OK
    with open(out / "sweep_d.csv") as fh:
        return config, list(csv.DictReader(fh))


def unstopped_solves(config) -> dict:
    """``{(kind, d): [one result per seed]}`` of LSMR with no stop, run to
    the cell's max_iter min(2n, d) on each sweep cell and observed as
    ``sweep-d`` observes it: the solve ``sweep-d`` ran before it took a stop."""
    A = config.sources[0].load()
    solves = {}
    for seed in config.seeds:
        problem = cli.SeedProblem(A, seed, config.rho)
        for kind in config.kind:
            for d in map(int, SWEEP_DS.split(",")):
                P = cli._sketch_cell(problem, kind, d)
                observer = MetricsObserver(A, problem.b, stride=config.stride,
                                           oracle=problem.oracle)
                # the cell's pair has n + 1 rows: max_iter is set by the d-row problem
                result = lsmr(LinearOperatorView.from_matrix(P.SA), P.Sb, observer=observer,
                              max_iter=min(2 * A.cols, d))
                assert result.termination is Termination.MAX_ITERATIONS
                assert result.iterations == min(2 * A.cols, d)
                solves.setdefault((kind.value, str(d)), []).append(result)
    return solves


def quartile_columns(row: dict, stat: str) -> list:
    return [float(row[f"{stat}_{q}"]) for q in ("median", "q1", "q3")]


class TestSweep:
    def test_columns(self, tmp_path):
        # the first nine are read by name elsewhere, so they keep their order
        _, rows = run_sweep(tmp_path)
        assert list(rows[0]) == OLD_SWEEP_COLUMNS + [
            "stop_iters_median", "stop_iters_q1", "stop_iters_q3",
            "stop_ratio_rel_median", "stop_ratio_rel_q1", "stop_ratio_rel_q3"]
        assert all(np.isfinite(float(v)) for row in rows for v in list(row.values())[3:])

    def test_deterministic(self, tmp_path):
        run_sweep(tmp_path / "a")
        run_sweep(tmp_path / "b")
        assert (tmp_path / "a" / "sweep_d.csv").read_bytes() == \
            (tmp_path / "b" / "sweep_d.csv").read_bytes()

    @pytest.mark.parametrize("stride", [1, 3])
    def test_plateau_matches_unstopped_lsmr(self, tmp_path, stride):
        # the slow oracle: the plateau sweep-d took before, the median of the
        # last 5 fresh normal ratios of an unstopped LSMR
        config, rows = run_sweep(tmp_path, f"stride = {stride}\n")
        solves = unstopped_solves(config)
        for row in rows:
            plateaus = [np.median([r.unsketched_normal_ratio for r in result.trace
                                   if not r.stale][-5:])
                        for result in solves[row["kind"], row["d"]]]
            assert quartile_columns(row, "plateau") == pytest.approx(
                np.percentile(plateaus, [50, 25, 75]), rel=1e-9)

    def test_traditional_tol_0_runs_as_unstopped(self, tmp_path):
        config, rows = run_sweep(tmp_path, "stop = traditional\ntol = 0\n")
        solves = unstopped_solves(config)
        for row in rows:
            iterations = [result.iterations for result in solves[row["kind"], row["d"]]]
            assert quartile_columns(row, "stop_iters") == list(
                np.percentile(iterations, [50, 25, 75]))

    def test_stab_ne_stops_sooner(self, tmp_path):
        config, rows = run_sweep(tmp_path)
        assert config.policy.mode is StopMode.STABILIZE_NORMAL_RATIO
        solves = unstopped_solves(config)
        for row in rows:
            unstopped = min(result.iterations for result in solves[row["kind"], row["d"]])
            assert max(quartile_columns(row, "stop_iters")) < unstopped

    def test_eps_stop_gets_the_cells_eps(self, tmp_path, monkeypatch):
        epsilons = []
        real = cli.StoppingController

        def recording(policy, op_norm, epsilon):
            epsilons.append(epsilon)
            return real(policy, op_norm=op_norm, epsilon=epsilon)

        monkeypatch.setattr(cli, "StoppingController", recording)
        config = parse_config(SWEEP_CONFIG.format(out=tmp_path).replace("seeds = 0,1", "seeds = 0")
                              + "stop = eps\n")
        assert sweep_d(config, SWEEP_DS) == EXIT_OK
        with open(tmp_path / "sweep_d.csv") as fh:
            cell_eps = [float(row["eps_median"]) for row in csv.DictReader(fh)]
        assert sorted(epsilons) == sorted(cell_eps) and len(epsilons) == 4

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


    def test_bad_d_rejected_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # d = 70 fits the first source but not the second (m = 60): the
        # second is a run error, found before any of its cells, and is not
        # swept
        built = record_sketches(monkeypatch)
        config = parse_config("synthetic = 120,4,10\nsynthetic = 60,4,10\n"
                              f"kind = gaussian\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40,70") == EXIT_RUN_ERROR
        assert capsys.readouterr().err == \
            "error: synth60x4c10: d = 70 violates n <= d < m = 60\n"
        assert [d for _, d, _ in built] == [8, 40, 70]
        with open(tmp_path / "sweep_d.csv") as fh:
            assert [(r["matrix"], r["d"]) for r in csv.DictReader(fh)] == \
                [("synth120x4c10", d) for d in ("8", "40", "70")]

    def test_basis_once_per_source_and_seed(self, tmp_path, monkeypatch):
        calls = []
        real = matio.span_coordinates

        def counting(A, b):
            calls.append(A.rows)
            return real(A, b)

        monkeypatch.setattr(matio, "span_coordinates", counting)
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
        # a synthesized and a loaded source, each factored once, by one
        # pivoted QR of an n-by-n matrix: diag(s) V^T, or the R of the
        # loaded A's CholeskyQR (kappa 10: two Grams of its m rows); and each cell
        # (2 sources x 2 kinds x 2 seeds) takes one Gram of its d-by-k SW
        # and its Cholesky, and no QR of SW or of its k-by-n M
        config = parse_config("synthetic = 120,4,10\n"
                              f"matrix = {save_synthetic(tmp_path, 100, 4, 10)}\n"
                              "kind = gaussian,sparse\nseeds = 0,1\n"
                              f"output_dir = {tmp_path / 'out'}\n")
        shapes = count_factorizations(monkeypatch)
        assert sweep_d(config, "8,40") == EXIT_OK
        assert {key: n for key, n in shapes.items() if key[0] == "qr"} == {
            ("qr", True, (4, 4)): 2}
        assert shapes["syrk", None, (8, 5)] == shapes["syrk", None, (40, 5)] == 8
        assert shapes["potrf", None, (5, 5)] == 16
        assert shapes["syrk", None, (100, 4)] == 2
        assert not [key for key in shapes if key[0] == "svd" and key[2][0] in (100, 120)]

    @pytest.mark.parametrize("kind", list(embed.SketchKind))
    def test_plateau_is_the_normal_ratio_sketched_lhs(self, tmp_path, kind):
        # both read ||A^T r_s|| / (||A|| ||r_s||) from the oracle's
        # evaluator at x_s, so one cell's sweep plateau is its check lhs
        # bit for bit; the CSVs' .17g reads back to the same double
        config = parse_config(f"synthetic = 300,20,10\nkind = {kind.value}\nseeds = 0\n"
                              f"d_mult = 2\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "2n,4n") == EXIT_OK
        assert cli.check_single(config, str(tmp_path / "bounds.csv")) == EXIT_OK
        with open(tmp_path / "sweep_d.csv") as fh:
            (row,) = [row for row in csv.DictReader(fh) if row["d"] == "40"]
        with open(tmp_path / "bounds.csv") as fh:
            (lhs,) = [rep["lhs"] for rep in csv.DictReader(fh)
                      if rep["bound_id"] == diagnostics.BoundId.NORMAL_RATIO_SKETCHED.value]
        assert float(lhs) > 0.0
        assert quartile_columns(row, "plateau") == [float(lhs)] * 3

    def test_A_products_fixed_per_seed(self, tmp_path, monkeypatch):
        # b, the oracle's refinement and residual, and A^T r_ls: the
        # observer reads the oracle and A's factor, so no iteration
        # multiplies by A
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
        assert len(products) == 3 * 4
        assert len(iterations) == 3 * 4 and sum(iterations) > len(products)

    def test_bad_cell_isolated(self, tmp_path, monkeypatch, capsys):
        record_sketches(monkeypatch, fail=lambda kind, d, seed: d == 8 and seed == 1)
        config = parse_config(f"synthetic = 120,4,10\nkind = gaussian\n"
                              f"seeds = 0,1\noutput_dir = {tmp_path}\n")
        assert sweep_d(config, "8,40") == EXIT_RUN_ERROR
        assert capsys.readouterr().err == "error: synth120x4c10_gaussian_d8_s1: boom\n"
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

    def test_errors_come_in_source_order(self, tmp_path, monkeypatch, capsys):
        # each source loads, is checked and is swept before the next loads
        record_sketches(monkeypatch, fail=lambda kind, d, seed: d == 8)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"matrix = {tmp_path / 'absent.mtx'}\nsynthetic = 120,4,10\n"
                       f"synthetic = 60,4,10\nkind = gaussian\noutput_dir = {tmp_path}\n")
        assert main(["sweep-d", "--config", str(cfg), "--d-list", "8,70"]) == EXIT_RUN_ERROR
        labels = [line.split(":")[1].strip() for line in capsys.readouterr().err.splitlines()]
        assert labels == ["absent", "synth120x4c10_gaussian_d8_s0", "synth60x4c10"]

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

    @pytest.mark.parametrize("command", ["run", "check", "sweep-d"])
    def test_wide_synthetic_spec_rejected_before_synthesis(self, tmp_path, capsys,
                                                          monkeypatch, command):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("A synthesized")

        monkeypatch.setattr(cli, "synthesize_matrix", no_synthesis)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("synthetic = 6000,5001,10\nkind = sparse\nd_mult = 1.0001\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        argv = {"run": ["run", "--config", str(cfg)],
                "check": ["check", "--synthetic", "6000,5001,10", "--kind", "sparse",
                          "--d-mult", "1.0001"],
                "sweep-d": ["sweep-d", "--config", str(cfg), "--d-list", "5001,5002"]}
        assert main(argv[command]) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == (
            "error: synth6000x5001c10: n = 5001 exceeds the desk-scale limit 5000, "
            "the largest n with a dense factorization\n")


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

    def test_unreadable_trace_skipped(self, tmp_path, capsys):
        # a trace without the figure columns, with a byte that is not ASCII
        # or that is not a file is skipped like an unrecognized name; the
        # others are bundled
        (tmp_path / "x_gaussian_d8_s0_lsmr_trace.csv").write_text(
            "k,rnorm,ne_ratio\n1,0.5,0.25\n")
        (tmp_path / "x_gaussian_d8_s1_lsmr_trace.csv").write_text("k,srnorm\n1,0.5\n")
        (tmp_path / "x_gaussian_d8_s2_lsmr_trace.csv").write_bytes(
            b"k,rnorm,ne_ratio\n1,0.5,\xe9\n")
        (tmp_path / "x_gaussian_d8_s3_lsmr_trace.csv").mkdir()
        assert main(["figures", "--output-dir", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "warning: skipping x_gaussian_d8_s1_lsmr_trace.csv: no ne_ratio column"
        assert err[1].startswith("warning: skipping x_gaussian_d8_s2_lsmr_trace.csv: "
                                 "'ascii' codec can't decode byte 0xe9")
        assert err[2].startswith("warning: skipping x_gaussian_d8_s3_lsmr_trace.csv: ")
        assert len(err) == 3
        for style, value in (("ratio", "0.25"), ("residual", "0.5")):
            with open(tmp_path / f"figure_{style}_gaussian_lsmr.csv", newline="") as fh:
                assert list(csv.reader(fh)) == [["k", "x_gaussian_d8_s0_lsmr"], ["1", value]]

    def test_name_without_kind_and_solver_skipped(self, tmp_path, capsys):
        # a name is bundled only when it ends in a sketch kind, d<int>,
        # s<int> and a solver, as run names a trace; other names of four or
        # more parts are skipped like short ones, not bundled by their kind
        # and last part
        trace = "k,rnorm,ne_ratio\n1,0.5,0.25\n"
        names = ["x_gaussian_d8_s0_lsmr", "my_notes_v2_final", "x_gauss_d8_s0_lsmr",
                 "x_sparse_d8_s0_cg", "short", "notes_gaussian_old_copy_lsmr",
                 "x_gaussian_dX_sY_lsmr"]
        for name in names:
            (tmp_path / f"{name}_trace.csv").write_text(trace)
        assert main(["figures", "--output-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"warning: skipping unrecognized trace {name}_trace.csv" for name in sorted(names[1:])]
        assert sorted(p.name for p in tmp_path.glob("figure_*")) == [
            "figure_ratio_gaussian_lsmr.csv", "figure_residual_gaussian_lsmr.csv"]

    def test_missing_dir_is_config_error(self, tmp_path, capsys):
        absent = tmp_path / "absent"
        assert main(["figures", "--output-dir", str(absent)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: --output-dir {absent}: no such directory\n"
        assert main(["figures", "--output-dir", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().err == f"warning: no trace files in {tmp_path}\n"


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

    @pytest.mark.parametrize("kind, seed, d_mult", [
        pytest.param("sparse", "2", "2", id="sparse-2"),
        pytest.param("gaussian", "0", "2", id="gaussian-0"),
        ("srht", "3", "4"), ("srht", "4", "4")])
    def test_check_passes_on_a_consistent_system(self, capsys, kind, seed, d_mult):
        # rho = 1e-20: x_s = x_ls to rounding, and every residual-scaled row
        # compares noise with noise; the sparse cell once failed BackwardE2
        # and the srht cells GeomPreserve
        assert main(["check", "--synthetic", "300,6,20", "--kind", kind, "--seed", seed,
                     "--d-mult", d_mult, "--rho", "1e-20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "BackwardE2             lhs=0 rhs=0 pass  [consistent system]" in out
        assert "GeomPreserve           lhs=0 rhs=0 pass  [consistent system]" in out

    def test_check_writes_the_bound_file_of_run(self, tmp_path, capsys):
        # one name per source: check's bound file of a cell is run's
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("synthetic = 200,4,10\nkind = sparse\nseeds = 1\nd_mult = 16\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert main(["check", "--synthetic", "200,4,10", "--kind", "sparse", "--seed", "1",
                     "--d-mult", "16", "--output", str(tmp_path / "x.csv")]) == EXIT_OK
        assert "matrix=synth200x4c10 kind=sparse d=64 seed=1 " in capsys.readouterr().out
        assert (tmp_path / "x.csv").read_bytes() == \
            (tmp_path / "out" / "synth200x4c10_sparse_d64_s1_bounds.csv").read_bytes()

    def test_check_one_pivoted_qr_of_A(self, monkeypatch):
        self.check_factorizations(monkeypatch, ["--synthetic", "200,4,10"], loaded=False)

    def test_check_one_pivoted_qr_of_loaded_A(self, tmp_path, monkeypatch):
        self.check_factorizations(monkeypatch,
                                  ["--matrix", str(save_synthetic(tmp_path, 200, 4, 10))],
                                  loaded=True)

    @staticmethod
    def check_factorizations(monkeypatch, source: list, loaded: bool):
        shapes = count_factorizations(monkeypatch)
        assert main(["check", *source, "--kind", "sparse", "--seed", "1",
                     "--d-mult", "16"]) == EXIT_OK
        assert qr_counts(shapes, 200, 4) == A_FACTOR_COUNTS[loaded]
        # the cell: one Gram of its 64 x 5 SW, and no QR of SW or of M
        assert shapes["syrk", None, (64, 5)] == 1
        assert not [key for key in shapes if key[0] == "qr" and key[2] in ((64, 5), (5, 4))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["check", "run"])
    def test_rhs_whose_squared_norm_overflows_is_a_run_error(self, tmp_path, capsys, command):
        # rho = 1e300 gives ||b||^2 = inf: the oracle rejects b before its
        # span, whose rank floor would be inf, and numpy warns of nothing
        if command == "check":
            argv = ["check", "--synthetic", "300,6,20", "--kind", "gaussian", "--rho", "1e300"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("synthetic = 300,6,20\nkind = gaussian\nrho = 1e300\n"
                           f"output_dir = {tmp_path / 'out'}\n")
            argv = ["run", "--config", str(cfg)]
        assert main(argv) == EXIT_RUN_ERROR
        assert capsys.readouterr().err == ("error: synth300x6c20_gaussian_d12_s0: right-hand "
                                           "side is too large: its squared norm overflows\n")

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


@pytest.mark.parametrize("command", ["run", "sweep-d"])
def test_one_source_held_at_a_time(tmp_path, command):
    # each source loads, runs and is let go before the next loads, so three
    # 4000 x 40 sources (each held as its factor, an m x n Q of 1.3 MB)
    # peak as one does
    peaks = []
    for count in (1, 3):
        cfg = tmp_path / f"{count}.cfg"
        cfg.write_text("".join(f"synthetic = 4000,40,{10 * (i + 1)}\n" for i in range(count))
                       + f"kind = sparse\noutput_dir = {tmp_path / str(count)}\n")
        argv = [command, "--config", str(cfg)] + (
            ["--d-list", "80,160"] if command == "sweep-d" else [])
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


@pytest.mark.parametrize("command", ["run", "sweep-d", "check"])
def test_no_command_forms_a_synthesized_A(tmp_path, monkeypatch, command):
    # a synthesized source is held as its factor and read through it: no
    # command asks for dense(), which would form its m x n A
    calls = []
    real_dense = MatrixHandle.dense

    def recording(self):
        calls.append((self.rows, self.cols))
        return real_dense(self)

    monkeypatch.setattr(MatrixHandle, "dense", recording)
    cfg = tmp_path / "a.cfg"
    cfg.write_text(BASE_CONFIG.format(out=tmp_path / "out").replace(
        "kind = gaussian", "kind = gaussian,srht,sparse"))
    argv = {"run": ["run", "--config", str(cfg)],
            "sweep-d": ["sweep-d", "--config", str(cfg), "--d-list", "24,48"],
            "check": ["check", "--synthetic", "120,6,20", "--kind", "srht",
                      "--d-mult", "4"]}[command]
    assert main(argv) == EXIT_OK
    assert calls == []


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

