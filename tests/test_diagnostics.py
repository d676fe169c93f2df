import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from sketchls import embed
from sketchls.diagnostics import (BoundId, SketchedProblem, check_acute_criterion,
                                  check_explicit_perturbations,
                                  check_eta_f_upper, check_geometric_preservation,
                                  check_pseudoinverse_perturbation,
                                  check_residual_bounds, check_solution_error,
                                  compute_eta_f, direction_bound,
                                  e1_minimizer_gap, pythagorean_gap,
                                  run_bound_suite, sandwich_multiplier,
                                  solve_sketched, write_bound_reports)
from sketchls.embed import build_sketch, exact_distortion, identity_sketch
from sketchls.matio import MatrixHandle, qr_ls_solve, solve_ls_oracle, synthesize_matrix, \
    synthesize_problem
from sketchls.rng import stream

from conftest import random_rhs, random_tall


def build_instance(m=300, n=4, cond=10.0, mseed=1, pseed=2, rho=1e-3):
    A = synthesize_matrix(m, n, cond, mseed)
    b = synthesize_problem(A, pseed, rho)
    oracle = solve_ls_oracle(A, b)
    return A, b, oracle


class TestSketchedProblem:
    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    def test_solve_sketched_is_qr_of_sketched_pair(self, kind):
        A, b, _ = build_instance()
        S = build_sketch(kind, 64, 300, 7)
        expect = qr_ls_solve(embed.apply(S, A), embed.apply(S, b))
        assert np.array_equal(solve_sketched(A, b, S), expect)

    def test_given_products_are_used(self, monkeypatch):
        A, b, _ = build_instance()
        S = build_sketch("gaussian", 64, 300, 7)
        SA, Sb = embed.apply(S, A), embed.apply(S, b)
        monkeypatch.setattr(embed, "apply", None)  # any further sketching fails
        P = SketchedProblem(A, b, S, SA=SA, Sb=Sb)
        assert P.SA is SA and P.Sb is Sb
        assert np.array_equal(P.x_s, qr_ls_solve(SA, Sb))

    def test_acute_reads_cached_singular_values(self, monkeypatch):
        A, b, _ = build_instance()
        S = build_sketch("gaussian", 64, 300, 7)
        P = SketchedProblem(A, b, S)
        eps = exact_distortion(S, A, b).epsilon
        A.spectral()
        P.sv
        calls = []
        real = scipy.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counting)
        assert check_acute_criterion(P, eps).passed
        assert calls == []


class TestGeometricPreservation:
    def test_identity_double_is_exact(self):
        A, b, _ = build_instance()
        S = identity_sketch(300)
        rep = check_geometric_preservation(A, b, S, np.ones(4), eps=0.0)
        assert rep.passed
        assert rep.lhs <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_directions_all_pass(self, seed):
        A = random_tall(40, 4, seed)
        b = random_rhs(40, seed)
        S = build_sketch("gaussian", 12, 40, seed)
        eps = exact_distortion(S, A, b).epsilon
        gen = stream(seed, "y")
        for _ in range(100):
            rep = check_geometric_preservation(A, b, S, gen.standard_normal(4), eps)
            assert rep.passed

    def test_at_reference_solution_matches_cross_term(self):
        # A^T r_ls = 0 makes the lhs equal the cross normal-equation numerator
        A, b, oracle = build_instance()
        S = build_sketch("srht", 64, 300, 5)
        eps = exact_distortion(S, A, b).epsilon
        rep = check_geometric_preservation(A, b, S, oracle.x_ls, eps)
        SA = embed.apply(S, A.dense())
        cross = np.linalg.norm(SA.T @ embed.apply(S, oracle.r_ls))
        assert rep.lhs == pytest.approx(cross, rel=1e-8, abs=1e-14)
        assert rep.passed

    def test_zero_residual_vacuous(self):
        A = random_tall(20, 2, 1)
        x = np.array([1.0, 2.0])
        b = A.matvec(x)
        S = build_sketch("gaussian", 8, 20, 1)
        rep = check_geometric_preservation(A, b, S, x, eps=0.5)
        assert rep.passed and "zero residual" in rep.note


class TestResidualBounds:
    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    @pytest.mark.parametrize("seed", range(3))
    def test_all_pass_with_oracle_epsilon(self, kind, seed):
        A, b, oracle = build_instance(pseed=seed)
        S = build_sketch(kind, 128, 300, seed)
        eps = exact_distortion(S, A, b).epsilon
        assert eps < 1
        for rep in check_residual_bounds(SketchedProblem(A, b, S), oracle, eps):
            assert rep.passed, rep

    def test_lower_sandwich_side(self):
        A, b, oracle = build_instance()
        S = build_sketch("gaussian", 128, 300, 3)
        x_s = solve_sketched(A, b, S)
        r_s_norm = np.linalg.norm(A.matvec(x_s) - b)
        assert r_s_norm >= oracle.r_ls_norm * (1 - 1e-12)

    def test_pythagorean_identity(self):
        A, b, oracle = build_instance()
        S = build_sketch("gaussian", 128, 300, 3)
        x_s = solve_sketched(A, b, S)
        assert pythagorean_gap(oracle, A.matvec(x_s) - b) <= 1e-8

    def test_consistent_case_collapses(self):
        A = random_tall(60, 5, 4)
        x = stream(4, "x").standard_normal(5)
        b = A.matvec(x)
        oracle = solve_ls_oracle(A, b)
        S = build_sketch("gaussian", 20, 60, 4)
        P = SketchedProblem(A, b, S)
        x_s = P.x_s
        assert np.linalg.norm(x_s - oracle.x_ls) <= 1e-10 * np.linalg.norm(x)
        reports = check_residual_bounds(P, oracle, exact_distortion(S, A, b).epsilon)
        by_id = {r.bound_id: r for r in reports}
        assert "consistent" in by_id[BoundId.RESIDUAL_SANDWICH].note
        assert by_id[BoundId.NORMAL_RATIO_SKETCHED].lhs <= 1e-10

    def test_identity_double_all_zero(self):
        A, b, oracle = build_instance()
        S = identity_sketch(300)
        reports = check_residual_bounds(SketchedProblem(A, b, S), oracle, eps=0.0)
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.RESIDUAL_DIRECTION].lhs <= 1e-6
        assert by_id[BoundId.NORMAL_RATIO_SKETCHED].lhs <= 1e-10
        assert all(r.passed for r in reports)

    def test_vacuous_multipliers_above_one(self):
        assert math.isinf(sandwich_multiplier(1.0))
        assert math.isinf(direction_bound(1.5))
        assert sandwich_multiplier(0.0) == 1.0


class TestBackwardError:
    def test_reference_solution_eigenpair(self):
        # r_ls/||r_ls|| is the minimal eigenvector; eigenvalue -mu ||r||^2/||x||^2
        A, b, oracle = build_instance(m=200, n=20, cond=30.0)
        res = compute_eta_f(A, b, oracle.x_ls)
        expect = -np.linalg.norm(oracle.r_ls) ** 2 / np.linalg.norm(oracle.x_ls) ** 2
        assert res.lambda_star == pytest.approx(expect, rel=1e-8)
        assert res.lambda_star < 0

    def test_inconsistent_upper_bound(self):
        A, b, oracle = build_instance(m=200, n=20, cond=30.0)
        gen = stream(7, "xbar")
        for _ in range(5):
            x_bar = oracle.x_ls + 1e-2 * gen.standard_normal(20)
            res = compute_eta_f(A, b, x_bar)
            assert res.lambda_star < 0
            assert res.eta_f <= res.upper_bound * (1 + 1e-8)

    def test_consistent_close_branch(self):
        A = synthesize_matrix(150, 10, 5.0, 6)
        x = stream(6, "x").standard_normal(10)
        b = A.matvec(x)
        delta = stream(6, "d").standard_normal(10)
        res = compute_eta_f(A, b, x + 1e-6 * delta / np.linalg.norm(delta))
        assert res.lambda_star >= -1e-10
        assert res.eta_f == pytest.approx(res.gamma * math.sqrt(res.mu), rel=1e-12)

    def test_counterexample_negative_lambda(self):
        # small ||x_bar|| violates the closeness hypothesis on a consistent system
        A = synthesize_matrix(150, 10, 5.0, 6)
        x = stream(6, "x").standard_normal(10)
        b = A.matvec(x)
        x_bar = 0.01 * stream(6, "cx").standard_normal(10)
        mu = 1.0
        assert np.linalg.norm(x_bar) ** 2 < mu / (1 + mu) * np.linalg.norm(x - x_bar) ** 2
        res = compute_eta_f(A, b, x_bar)
        assert res.lambda_star < 0

    def test_sharpness_ratio_decreases(self):
        # strongly inconsistent instance; the ratio plateaus just above one
        A, b, oracle = build_instance(m=200, n=20, cond=2.0, mseed=42, pseed=11,
                                      rho=4.0)
        delta = stream(1, "delta").standard_normal(20)
        delta /= np.linalg.norm(delta)
        ratios = []
        for t in (4e-2, 2e-2, 1e-2, 5e-3):
            res = compute_eta_f(A, b, oracle.x_ls + t * delta)
            ratios.append(res.upper_bound / res.eta_f)
        assert all(r >= 1 - 1e-10 for r in ratios)
        assert all(ratios[i + 1] <= ratios[i] * 1.05 for i in range(3))
        assert ratios[-1] < ratios[0]

    def test_theta_scales_mu(self):
        A, b, oracle = build_instance(m=100, n=8)
        res = compute_eta_f(A, b, oracle.x_ls, theta=1.0)
        xn = np.linalg.norm(oracle.x_ls)
        assert res.mu == pytest.approx(xn ** 2 / (1 + xn ** 2), rel=1e-12)

    def test_eta_upper_report(self):
        A, b, oracle = build_instance(m=200, n=20)
        rep = check_eta_f_upper(A, b, oracle.x_ls + 1e-3)
        assert rep.bound_id is BoundId.ETA_F_UPPER
        assert rep.passed

    def test_row_guard(self, monkeypatch):
        import sketchls.diagnostics as diag
        monkeypatch.setattr(diag, "ETA_F_ROWS_GUARD", 50)
        A, b, oracle = build_instance(m=100, n=8)
        with pytest.raises(ValueError, match="guard"):
            compute_eta_f(A, b, oracle.x_ls)

    def test_zero_x_rejected(self):
        A, b, _ = build_instance(m=100, n=8)
        with pytest.raises(ValueError):
            compute_eta_f(A, b, np.zeros(8))


class TestExplicitPerturbations:
    def test_identity_double_e1_zero(self):
        A, b, oracle = build_instance()
        S = identity_sketch(300)
        reports = check_explicit_perturbations(SketchedProblem(A, b, S), oracle, eps=0.0)
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.BACKWARD_E1].lhs <= 1e-10
        assert all(r.passed for r in reports)

    def test_small_sparse_instance(self):
        A = random_tall(30, 3, 9)
        b = synthesize_problem(A, 9)
        oracle = solve_ls_oracle(A, b)
        S = build_sketch("sparse", 12, 30, 9)
        eps = exact_distortion(S, A, b).epsilon
        P = SketchedProblem(A, b, S)
        reports = check_explicit_perturbations(P, oracle, eps)
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.BACKWARD_E1].passed
        # x_s exactly minimizes the E1-perturbed problem
        assert e1_minimizer_gap(A, b, P.x_s) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_e2_bound_with_informative_epsilon(self, seed):
        A, b, oracle = build_instance(pseed=seed)
        S = build_sketch("gaussian", 128, 300, seed)
        eps = exact_distortion(S, A, b).epsilon
        assert eps < 1
        reports = check_explicit_perturbations(SketchedProblem(A, b, S), oracle, eps)
        assert all(r.passed for r in reports)


class TestSolutionError:
    def test_consistent_zero_error(self):
        A = random_tall(60, 5, 4)
        x = stream(4, "x").standard_normal(5)
        b = A.matvec(x)
        oracle = solve_ls_oracle(A, b)
        S = build_sketch("gaussian", 20, 60, 4)
        reports = check_solution_error(SketchedProblem(A, b, S), oracle,
                                       exact_distortion(S, A, b).epsilon)
        assert all(r.passed for r in reports)
        assert reports[0].lhs <= 1e-10

    def test_well_conditioned_large_margin(self):
        A, b, oracle = build_instance(cond=3.0)
        S = build_sketch("gaussian", 128, 300, 2)
        eps = exact_distortion(S, A, b).epsilon
        for rep in check_solution_error(SketchedProblem(A, b, S), oracle, eps):
            assert rep.passed
            assert rep.margin > 0

    def test_ill_conditioned_weak_bound(self):
        # bounds still hold but the guarantee degrades with conditioning
        A, b, oracle = build_instance(m=300, n=6, cond=1e6, mseed=13, pseed=13)
        S = build_sketch("gaussian", 128, 300, 13)
        eps = exact_distortion(S, A, b).epsilon
        reports = check_solution_error(SketchedProblem(A, b, S), oracle, eps)
        assert all(r.passed for r in reports)
        assert reports[0].rhs > 1  # vacuously wide in the ill-conditioned regime


class TestAcute:
    def test_identity_double(self):
        A, b, _ = build_instance()
        rep = check_acute_criterion(SketchedProblem(A, b, identity_sketch(300)), eps=0.0)
        assert rep.passed and rep.lhs == 0.0

    def test_small_instance_with_small_epsilon(self):
        # kappa = 2 and a seed that achieves eps < 0.5, so kappa*eps < 1
        A = synthesize_matrix(10, 2, 2.0, 1)
        b = random_rhs(10, 1)
        for seed in range(200):
            S = build_sketch("srht", 8, 10, seed)
            eps = exact_distortion(S, A, b).epsilon
            if eps < 0.5:
                break
        else:
            pytest.fail("no seed with eps < 0.5")
        rep = check_acute_criterion(SketchedProblem(A, b, S), eps)
        assert rep.passed and "rank" not in rep.note

    def test_sufficient_not_necessary(self):
        A, b, _ = build_instance(cond=1000.0, mseed=31)
        S = build_sketch("gaussian", 128, 300, 2)
        eps = exact_distortion(S, A, b).epsilon
        assert A.spectral().cond * eps >= 1
        rep = check_acute_criterion(SketchedProblem(A, b, S), eps)
        assert rep.passed
        assert "sufficient-not-necessary" in rep.note


class TestPinvPerturbation:
    def test_zero_perturbation(self):
        A = random_tall(8, 3, 2).dense()
        rep = check_pseudoinverse_perturbation(A, A)
        assert rep.lhs <= 1e-12

    def test_small_perturbation_passes(self):
        A = random_tall(8, 3, 2).dense()
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        E = stream(3, "E").standard_normal((8, 3))
        E *= 0.01 * smin / np.linalg.norm(E, 2)
        rep = check_pseudoinverse_perturbation(A, A + E)
        assert rep.bound_id is BoundId.PINV_PERTURB
        assert rep.passed

    def test_rank_drop_lower_bound(self):
        A = random_tall(8, 3, 2).dense()
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        s[-1] = 0.0
        A_tilde = (U * s) @ Vt
        rep = check_pseudoinverse_perturbation(A, A_tilde)
        assert rep.bound_id is BoundId.PINV_NON_ACUTE
        assert rep.passed


class TestSuite:
    def test_residual_formed_once(self, monkeypatch):
        # every check of the pair shares r_s = A x_s - b and ||A^T r_s||; the
        # geometric check forms its own residual and A^T w at its y
        A, b, oracle = build_instance()
        S = build_sketch("gaussian", 128, 300, 1)
        eps = exact_distortion(S, A, b).epsilon
        calls = Counter()
        for name in ("matvec", "rmatvec"):
            def counting(self, v, real=getattr(MatrixHandle, name), name=name):
                calls[name] += 1
                return real(self, v)
            monkeypatch.setattr(MatrixHandle, name, counting)
        run_bound_suite(SketchedProblem(A, b, S), oracle, eps)
        assert calls == {"matvec": 2, "rmatvec": 2}

    def test_identity_double_suite(self):
        A, b, oracle = build_instance()
        S = identity_sketch(300)
        reports = run_bound_suite(SketchedProblem(A, b, S), oracle,
                                  exact_distortion(S, A, b).epsilon)
        assert all(r.passed for r in reports)

    def test_csv_export(self, tmp_path):
        A, b, oracle = build_instance()
        S = build_sketch("gaussian", 128, 300, 1)
        reports = run_bound_suite(SketchedProblem(A, b, S), oracle,
                                  exact_distortion(S, A, b).epsilon)
        path = tmp_path / "bounds.csv"
        write_bound_reports(path, reports, seed=1, kind="gaussian", matrix="t", d=128)
        import csv
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        assert {row["bound_id"] for row in rows} >= {"GeomPreserve", "ResidualSandwich"}
        recomputed = [float(r["rhs"]) - float(r["lhs"]) for r in rows]
        assert recomputed == pytest.approx([r.margin for r in reports], rel=1e-15)
