import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from sketchls import embed
from sketchls.diagnostics import (NOISE_FLOOR_REL, SUITE_BOUND_IDS, BoundId, BoundReport,
                                  SketchedProblem, _report, check_acute_criterion,
                                  check_explicit_perturbations, check_residual_bounds,
                                  check_solution_error, compute_eta_f, direction_bound,
                                  run_bound_suite, sandwich_multiplier, sketch_factor,
                                  solve_sketched, write_bound_reports)
from sketchls.embed import SketchKind, SketchOperator, SparsePayload, build_sketch
from sketchls.matio import MatrixHandle, qr_ls_solve, solve_ls_oracle, synthesize_matrix, \
    synthesize_problem
from sketchls.rng import stream

from conftest import (eta_f_checked, identity_sketch, pythagorean_gap, random_rhs,
                      random_tall)
from reference import DRowProblem, PinvBoundId, e1_minimizer_gap


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
        expect = qr_ls_solve(embed.apply(S, A.dense()), embed.apply(S, b))
        assert np.array_equal(solve_sketched(A, b, S), expect)

    def test_given_products_are_used(self, monkeypatch):
        # given SW = S [Q u], the problem is the (n + 1) x n pair of its
        # triangular factor T and S is never applied again, not even for
        # S r or A^T S^T S r
        A, b, oracle = build_instance()
        span = oracle.span
        Q, R, piv = A.qr_factor()
        S = build_sketch("gaussian", 64, 300, 7)
        SW = np.column_stack([embed.apply(S, Q), embed.apply(S, span.u)])
        T = sketch_factor(SW.copy())
        monkeypatch.setattr(embed, "apply", None)  # any further sketching fails
        monkeypatch.setattr(embed, "apply_adjoint", None)
        P = SketchedProblem(oracle, SW.copy())
        assert np.array_equal(P.T, T) and P.d == 64
        assert np.array_equal(P.SA[:, piv], T[:, :4] @ R)
        assert np.array_equal(P.Sb, T @ span.c_b)
        x_ref = qr_ls_solve(P.SA, P.Sb)
        assert np.linalg.norm(P.x_s - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
        run_bound_suite(P)

    def test_acute_reads_cached_singular_values(self, monkeypatch):
        A, _, oracle = build_instance()
        P = DRowProblem(oracle, build_sketch("gaussian", 64, 300, 7))
        A.spectral()
        P.sv
        calls = []
        real = scipy.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "svd", counting)
        assert check_acute_criterion(P).passed
        assert calls == []


def geometric_report(P: DRowProblem, y: np.ndarray) -> BoundReport:
    """The lemma ||A^T (S^T S - I)(Ay - b)|| <= eps ||A|| ||Ay - b|| at any y,
    from the d-row reference's defect, to the suite's slack and noise floor;
    the suite checks it at x_s only."""
    rnorm = float(np.linalg.norm(P.A.matvec(y) - P.b))
    norm_A = P.A.spectral_norm()
    return _report(BoundId.GEOM_PRESERVE, float(np.linalg.norm(P.geometric_defect(y))),
                   P.eps * norm_A * rnorm, noise_floor=NOISE_FLOOR_REL * norm_A * rnorm)


class TestGeometricPreservation:
    def test_identity_double_is_exact(self):
        _, _, oracle = build_instance()
        S = identity_sketch(300)
        rep = geometric_report(DRowProblem(oracle, S, eps=0.0), np.ones(4))
        assert rep.passed
        assert rep.lhs <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_directions_all_pass(self, seed):
        A = random_tall(40, 4, seed)
        b = random_rhs(40, seed)
        gen = stream(seed, "y")
        P = DRowProblem(solve_ls_oracle(A, b), build_sketch("gaussian", 12, 40, seed))
        for _ in range(100):
            rep = geometric_report(P, gen.standard_normal(4))
            assert rep.passed

    def test_at_reference_solution_matches_cross_term(self):
        # A^T r_ls = 0 makes the lhs equal the cross normal-equation numerator
        A, b, oracle = build_instance()
        S = build_sketch("srht", 64, 300, 5)
        rep = geometric_report(DRowProblem(oracle, S), oracle.x_ls)
        SA = embed.apply(S, A.dense())
        cross = np.linalg.norm(SA.T @ embed.apply(S, A.matvec(oracle.x_ls) - b))
        assert rep.lhs == pytest.approx(cross, rel=1e-8, abs=1e-14)
        assert rep.passed

    def test_zero_residual_vacuous(self):
        # b = A x: the suite reports the row of a consistent pair as vacuous
        A = random_tall(20, 2, 1)
        b = A.matvec(np.array([1.0, 2.0]))
        S = build_sketch("gaussian", 8, 20, 1)
        rep = run_bound_suite(DRowProblem(solve_ls_oracle(A, b), S, eps=0.5))[0]
        assert rep.bound_id is BoundId.GEOM_PRESERVE
        assert (rep.lhs, rep.rhs, rep.passed, rep.note) == (0.0, 0.0, True, "consistent system")


class TestResidualBounds:
    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    @pytest.mark.parametrize("seed", range(3))
    def test_all_pass_with_oracle_epsilon(self, kind, seed):
        A, b, oracle = build_instance(pseed=seed)
        P = DRowProblem(oracle, build_sketch(kind, 128, 300, seed))
        assert P.eps < 1
        for rep in check_residual_bounds(P):
            assert rep.passed, rep

    def test_lower_sandwich_side(self):
        A, b, oracle = build_instance()
        x_s = solve_sketched(A, b, build_sketch("gaussian", 128, 300, 3))
        r_s_norm = np.linalg.norm(A.matvec(x_s) - b)
        assert r_s_norm >= oracle.r_ls_norm * (1 - 1e-12)

    def test_pythagorean_identity(self):
        A, b, oracle = build_instance()
        x_s = solve_sketched(A, b, build_sketch("gaussian", 128, 300, 3))
        assert pythagorean_gap(oracle, A.matvec(x_s) - b) <= 1e-8

    def test_consistent_case_collapses(self):
        A = random_tall(60, 5, 4)
        x = stream(4, "x").standard_normal(5)
        b = A.matvec(x)
        oracle = solve_ls_oracle(A, b)
        P = DRowProblem(oracle, build_sketch("gaussian", 20, 60, 4))
        x_s = P.x_s
        assert np.linalg.norm(x_s - oracle.x_ls) <= 1e-10 * np.linalg.norm(x)
        by_id = {r.bound_id: r for r in run_bound_suite(P)}
        assert "consistent" in by_id[BoundId.RESIDUAL_SANDWICH].note
        assert by_id[BoundId.NORMAL_RATIO_SKETCHED].lhs <= 1e-10
        assert all(r.note == "consistent system" for i, r in by_id.items()
                   if i is not BoundId.ACUTE_CRITERION)

    def test_identity_double_all_zero(self):
        A, b, oracle = build_instance()
        reports = check_residual_bounds(DRowProblem(oracle, identity_sketch(300), eps=0.0))
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.RESIDUAL_DIRECTION].lhs <= 1e-6
        assert by_id[BoundId.NORMAL_RATIO_SKETCHED].lhs <= 1e-10
        assert all(r.passed for r in reports)

    def test_vacuous_multipliers_above_one(self):
        assert math.isinf(sandwich_multiplier(1.0))
        assert math.isinf(direction_bound(1.5))
        assert sandwich_multiplier(0.0) == 1.0
        # every residual row but NormalRatioSketched divides by 1 - eps
        _, _, oracle = build_instance()
        reports = check_residual_bounds(DRowProblem(oracle, identity_sketch(300), eps=1.0))
        assert [r.bound_id for r in reports if math.isinf(r.rhs)] == [
            BoundId.RESIDUAL_SANDWICH, BoundId.RESIDUAL_DIRECTION, BoundId.COMBINED_RESIDUAL,
            BoundId.NORMAL_RATIO_CROSS]
        assert all(r.passed for r in reports)


class TestBackwardError:
    """``compute_eta_f`` on the oracle, each instance against the m x m
    reference (``eta_f_checked``)."""

    def test_reference_solution_eigenpair(self):
        # r_ls/||r_ls|| is the minimal eigenvector; eigenvalue -mu ||r||^2/||x||^2
        A, b, oracle = build_instance(m=200, n=20, cond=30.0)
        res = eta_f_checked(A, b, oracle, oracle.x_ls)
        expect = -oracle.r_ls_norm ** 2 / np.linalg.norm(oracle.x_ls) ** 2
        assert res.lambda_star == pytest.approx(expect, rel=1e-8)
        assert res.lambda_star < 0

    def test_inconsistent_upper_bound(self):
        A, b, oracle = build_instance(m=200, n=20, cond=30.0)
        gen = stream(7, "xbar")
        for _ in range(5):
            x_bar = oracle.x_ls + 1e-2 * gen.standard_normal(20)
            res = eta_f_checked(A, b, oracle, x_bar)
            assert res.lambda_star < 0
            assert res.eta_f <= res.upper_bound * (1 + 1e-8)

    def test_consistent_close_branch(self):
        A = synthesize_matrix(150, 10, 5.0, 6)
        x = stream(6, "x").standard_normal(10)
        b = A.matvec(x)
        delta = stream(6, "d").standard_normal(10)
        res = eta_f_checked(A, b, solve_ls_oracle(A, b), x + 1e-6 * delta / np.linalg.norm(delta))
        assert res.lambda_star >= -1e-10
        assert res.eta_f == pytest.approx(res.gamma * math.sqrt(res.mu), rel=1e-12)

    def test_span_without_u(self):
        # A's columns lie on the first 4 unit vectors, so b = A x0 has no
        # part orthogonal to range(Q): the span has no u, c has n entries,
        # and K gets a zero last row and column, M's zero eigenvalue
        # orthogonal to range(A)
        A = MatrixHandle(np.eye(40, 4) * np.array([3.0, 2.0, 1.0, 0.5]))
        b = A.matvec(stream(8, "x0").standard_normal(4))
        oracle = solve_ls_oracle(A, b)
        assert oracle.span.u is None and oracle.span.c_b.shape == (4,)
        res = eta_f_checked(A, b, oracle, oracle.x_ls + 1e-2 * np.arange(1.0, 5.0))
        assert not res.negative_branch and abs(res.lambda_star) <= res.lambda_noise

    def test_counterexample_negative_lambda(self):
        # small ||x_bar|| violates the closeness hypothesis on a consistent system
        A = synthesize_matrix(150, 10, 5.0, 6)
        x = stream(6, "x").standard_normal(10)
        b = A.matvec(x)
        x_bar = 0.01 * stream(6, "cx").standard_normal(10)
        mu = 1.0
        assert np.linalg.norm(x_bar) ** 2 < mu / (1 + mu) * np.linalg.norm(x - x_bar) ** 2
        res = eta_f_checked(A, b, solve_ls_oracle(A, b), x_bar)
        assert res.lambda_star < 0

    def test_sharpness_ratio_decreases(self):
        # strongly inconsistent instance; the ratio plateaus just above one
        A, b, oracle = build_instance(m=200, n=20, cond=2.0, mseed=42, pseed=11,
                                      rho=4.0)
        delta = stream(1, "delta").standard_normal(20)
        delta /= np.linalg.norm(delta)
        ratios = []
        for t in (4e-2, 2e-2, 1e-2, 5e-3):
            res = eta_f_checked(A, b, oracle, oracle.x_ls + t * delta)
            ratios.append(res.upper_bound / res.eta_f)
        assert all(r >= 1 - 1e-10 for r in ratios)
        assert all(ratios[i + 1] <= ratios[i] * 1.05 for i in range(3))
        assert ratios[-1] < ratios[0]

    def test_theta_scales_mu(self):
        A, b, oracle = build_instance(m=100, n=8)
        res = eta_f_checked(A, b, oracle, oracle.x_ls, theta=1.0)
        xn = np.linalg.norm(oracle.x_ls)
        assert res.mu == pytest.approx(xn ** 2 / (1 + xn ** 2), rel=1e-12)

    @pytest.mark.parametrize("at", ["x_ls", "perturbed"])
    def test_one_more_row_than_columns(self, at):
        # m = n + 1: W = [Q u] is square and M = W K W^T has no null part
        A, b, oracle = build_instance(m=21, n=20, cond=30.0, mseed=3, pseed=3)
        eta_f_checked(A, b, oracle, oracle.x_ls + (0.0 if at == "x_ls" else 1e-2))

    def test_eta_upper_report(self):
        # the EtaFUpper row of a pair whose x_s is set: it reads only x_s
        A, b, oracle = build_instance(m=200, n=20)
        P = DRowProblem(oracle, identity_sketch(200), eps=0.0)
        P.x_s = oracle.x_ls + 1e-3
        rep = check_explicit_perturbations(P)[2]
        assert rep.bound_id is BoundId.ETA_F_UPPER
        assert rep.passed

    def test_zero_x_rejected(self):
        _, _, oracle = build_instance(m=100, n=8)
        with pytest.raises(ValueError):
            compute_eta_f(oracle, np.zeros(8))


class TestExplicitPerturbations:
    def test_identity_double_e1_zero(self):
        A, b, oracle = build_instance()
        S = identity_sketch(300)
        reports = check_explicit_perturbations(DRowProblem(oracle, S, eps=0.0))
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.BACKWARD_E1].lhs <= 1e-10
        assert all(r.passed for r in reports)

    def test_eta_f_noise_at_x_ls_passes(self):
        # at x_s = x_ls, eta_F^2 = gamma^2 + lambda_star cancels to eigensolve
        # noise: here eta_F reads 5.6e-9 against an rhs of rounding, 4e-14,
        # and the row passes by its noise floor sqrt(lambda_noise)
        _, _, oracle = build_instance()
        P = DRowProblem(oracle, identity_sketch(300), eps=0.0)
        P.x_s = oracle.x_ls
        rep = check_explicit_perturbations(P)[2]
        assert rep.passed
        assert rep.lhs <= math.sqrt(compute_eta_f(oracle, oracle.x_ls).lambda_noise)

    def test_small_sparse_instance(self):
        A = random_tall(30, 3, 9)
        b = synthesize_problem(A, 9)
        oracle = solve_ls_oracle(A, b)
        P = DRowProblem(oracle, build_sketch("sparse", 12, 30, 9))
        reports = check_explicit_perturbations(P)
        by_id = {r.bound_id: r for r in reports}
        assert by_id[BoundId.BACKWARD_E1].passed
        # x_s exactly minimizes the E1-perturbed problem
        assert e1_minimizer_gap(A, b, P.x_s) <= 1e-8

    def test_e1_gap_vanishes_far_from_x_s(self):
        # A + E1 = (I - r r^T / ||r||^2) A makes any x the minimizer of its
        # E1-perturbed problem, so the gap is rounding 100 away from x_ls
        # too: a lemma, with no suite row
        A, b, oracle = build_instance()
        x = oracle.x_ls + 100.0 * stream(5, "far").standard_normal(4)
        assert e1_minimizer_gap(A, b, x) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_e2_bound_with_informative_epsilon(self, seed):
        A, b, oracle = build_instance(pseed=seed)
        P = DRowProblem(oracle, build_sketch("gaussian", 128, 300, seed))
        assert P.eps < 1
        reports = check_explicit_perturbations(P)
        assert all(r.passed for r in reports)


class TestSolutionError:
    def test_consistent_zero_error(self):
        A = random_tall(60, 5, 4)
        x = stream(4, "x").standard_normal(5)
        b = A.matvec(x)
        oracle = solve_ls_oracle(A, b)
        S = build_sketch("gaussian", 20, 60, 4)
        reports = check_solution_error(DRowProblem(oracle, S))
        assert all(r.passed for r in reports)
        assert reports[0].lhs <= 1e-10

    def test_well_conditioned_large_margin(self):
        A, b, oracle = build_instance(cond=3.0)
        S = build_sketch("gaussian", 128, 300, 2)
        for rep in check_solution_error(DRowProblem(oracle, S)):
            assert rep.passed
            assert rep.margin > 0

    def test_ill_conditioned_weak_bound(self):
        # bounds still hold but the guarantee degrades with conditioning
        A, b, oracle = build_instance(m=300, n=6, cond=1e6, mseed=13, pseed=13)
        S = build_sketch("gaussian", 128, 300, 13)
        reports = check_solution_error(DRowProblem(oracle, S))
        assert all(r.passed for r in reports)
        assert reports[0].rhs > 1  # vacuously wide in the ill-conditioned regime


class TestAcute:
    def test_identity_double(self):
        _, _, oracle = build_instance()
        rep = check_acute_criterion(DRowProblem(oracle, identity_sketch(300), eps=0.0))
        assert rep.passed and rep.lhs == 0.0

    def test_small_instance_with_small_epsilon(self):
        # kappa = 2 and a seed that achieves eps < 0.5, so kappa*eps < 1
        A = synthesize_matrix(10, 2, 2.0, 1)
        oracle = solve_ls_oracle(A, random_rhs(10, 1))
        for seed in range(200):
            P = DRowProblem(oracle, build_sketch("srht", 8, 10, seed))
            if P.eps < 0.5:
                break
        else:
            pytest.fail("no seed with eps < 0.5")
        rep = check_acute_criterion(P)
        assert rep.passed and "rank" not in rep.note

    def test_sufficient_not_necessary(self):
        A, _, oracle = build_instance(cond=1000.0, mseed=31)
        P = DRowProblem(oracle, build_sketch("gaussian", 128, 300, 2))
        assert A.spectral().cond * P.eps >= 1
        rep = check_acute_criterion(P)
        assert rep.passed
        assert "sufficient-not-necessary" in rep.note

    @pytest.mark.parametrize("rank_one, eps, passed, note", [
        (False, 0.0, True, ""),
        (False, 1.0, True, "sufficient-not-necessary: rank(SA) full despite kappa*eps >= 1"),
        (True, 0.0, False, "criterion met but SA rank deficient"),
        (True, 1.0, False, "rank(SA) deficient"),
    ], ids=["full-rank-met", "full-rank-not-met", "rank-one-met", "rank-one-not-met"])
    def test_four_outcomes(self, rank_one, eps, passed, note):
        # the row passes exactly when SA has full column rank, whether
        # kappa * eps <= 1 (eps = 0) or not (kappa = 10, eps = 1); the note
        # names the pair
        A, _, oracle = build_instance()
        S = build_sketch("gaussian", 64, 300, 7)
        if rank_one:  # a CountSketch of every row to row 0: SA is one nonzero row
            S = SketchOperator(SketchKind.SPARSE, 64, 300, 0,
                               SparsePayload(np.zeros(300, dtype=np.int64), np.ones(300)))
        rep = check_acute_criterion(DRowProblem(oracle, S, eps=eps))
        lhs = A.condition_number() * eps
        assert (rep.lhs, rep.rhs, rep.margin) == (lhs, 1.0, 1.0 - lhs)
        assert (rep.passed, rep.note) == (passed, note)


# a general lemma on dense pseudoinverses, not a property of a sketch, so
# its check lives with its tests; dense pinv is refused above this m*n
PINV_SIZE_GUARD = 10_000


def check_pseudoinverse_perturbation(A: np.ndarray, A_tilde: np.ndarray) -> BoundReport:
    """Pseudoinverse perturbation bound for equal-rank (acute) pairs,
    ||A~+ - A+|| <= sqrt(2) ||A~+|| ||A+|| ||E||; on rank mismatch the
    non-acute lower bound ||A~+ - A+|| >= 1/||E|| is checked instead."""
    A = np.asarray(A, dtype=np.float64)
    A_tilde = np.asarray(A_tilde, dtype=np.float64)
    if A.size > PINV_SIZE_GUARD:
        raise ValueError(f"pinv guard: m*n = {A.size} exceeds {PINV_SIZE_GUARD}")
    E = A_tilde - A
    enorm = float(np.linalg.norm(E, 2))
    pinv_a = np.linalg.pinv(A)
    pinv_t = np.linalg.pinv(A_tilde)
    diff = float(np.linalg.norm(pinv_t - pinv_a, 2))
    rank_a = np.linalg.matrix_rank(A)
    rank_t = np.linalg.matrix_rank(A_tilde)
    if enorm == 0.0:
        return _report(PinvBoundId.PINV_PERTURB, diff, 0.0, note="zero perturbation")
    if rank_a == rank_t == A.shape[1]:
        rhs = (math.sqrt(2.0) * float(np.linalg.norm(pinv_t, 2))
               * float(np.linalg.norm(pinv_a, 2)) * enorm)
        return _report(PinvBoundId.PINV_PERTURB, diff, rhs)
    return _report(PinvBoundId.PINV_NON_ACUTE, 1.0 / enorm, diff,
                   note="rank mismatch: non-acute lower bound")


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
        assert rep.bound_id is PinvBoundId.PINV_PERTURB
        assert rep.passed

    def test_rank_drop_lower_bound(self):
        A = random_tall(8, 3, 2).dense()
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        s[-1] = 0.0
        A_tilde = (U * s) @ Vt
        rep = check_pseudoinverse_perturbation(A, A_tilde)
        assert rep.bound_id is PinvBoundId.PINV_NON_ACUTE
        assert rep.passed


class TestSuite:
    def test_no_product_with_A_on_the_cell_path(self, monkeypatch):
        # every check of the pair reads ||r_s||, ||A^T r_s|| and
        # ||r_s - r_ls|| from the oracle's evaluator, the geometric check
        # too.  The d-row reference forms A x_s - b to sketch
        # it, A^T w, and S r_ls from A x_ls - b; a cell's coordinates take
        # no product with A at all
        A, b, oracle = build_instance()
        S = build_sketch("gaussian", 128, 300, 1)
        span = oracle.span
        SW = np.column_stack([embed.apply(S, A.qr_factor()[0]), embed.apply(S, span.u)])
        R, P = DRowProblem(oracle, S), SketchedProblem(oracle, SW)
        calls = Counter()
        for name in ("matvec", "rmatvec"):
            def counting(self, v, real=getattr(MatrixHandle, name), name=name):
                calls[name] += 1
                return real(self, v)
            monkeypatch.setattr(MatrixHandle, name, counting)
        run_bound_suite(R)
        assert calls == {"matvec": 2, "rmatvec": 1}
        calls.clear()
        run_bound_suite(P)
        assert calls == {}

    @pytest.mark.parametrize("rho", [1e-3, 1e-20], ids=["inconsistent", "consistent"])
    def test_rows_in_suite_order(self, rho):
        # the suite writes its rows in SUITE_BOUND_IDS order on either branch
        _, _, oracle = build_instance(rho=rho)
        P = DRowProblem(oracle, build_sketch("gaussian", 64, 300, 1))
        assert P.consistent is (rho == 1e-20)
        assert [r.bound_id for r in run_bound_suite(P)] == list(SUITE_BOUND_IDS)

    def test_zero_denominator_rows_are_vacuous(self):
        # at x_s = 0 each row divided by ||x_s|| is vacuous, and eta_F with it
        _, _, oracle = build_instance()
        P = DRowProblem(oracle, identity_sketch(300), eps=0.0)
        P.x_s = np.zeros(4)
        void = {r.bound_id: r.note for r in run_bound_suite(P) if r.note.startswith("zero")}
        assert void == dict.fromkeys([BoundId.BACKWARD_E2, BoundId.ETA_F_UPPER,
                                      BoundId.SOLUTION_ERR_REL], "zero sketched solution")

    def test_identity_double_suite(self):
        A, b, oracle = build_instance()
        reports = run_bound_suite(DRowProblem(oracle, identity_sketch(300)))
        assert all(r.passed for r in reports)

    def test_csv_export(self, tmp_path):
        A, b, oracle = build_instance()
        reports = run_bound_suite(DRowProblem(oracle, build_sketch("gaussian", 128, 300, 1)))
        path = tmp_path / "bounds.csv"
        write_bound_reports(path, reports, seed=1, kind="gaussian", matrix="t", d=128)
        import csv
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        assert {row["bound_id"] for row in rows} >= {"GeomPreserve", "ResidualSandwich"}
        recomputed = [float(r["rhs"]) - float(r["lhs"]) for r in rows]
        assert recomputed == pytest.approx([r.margin for r in reports], rel=1e-15)
