import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchls import embed
from sketchls.matio import MatrixHandle, qr_ls_solve, solve_ls_oracle, \
    synthesize_matrix, synthesize_problem
from sketchls.solvers import (IterateRecord, LinearOperatorView, MetricsObserver,
                              Termination, lsmr, lsqr, write_trace)
from sketchls.rng import stream
from sketchls.stopping import StopMode, StoppingController, StoppingPolicy

from conftest import random_rhs, random_tall

SOLVERS = [("lsqr", lsqr), ("lsmr", lsmr)]


class Snapshots:
    """Observer wrapper that keeps a copy of every iterate it sees."""

    def __init__(self, observer):
        self.observer = observer
        self.xs = []

    def __call__(self, k, x, srnorm, snenorm):
        self.xs.append(x.copy())
        return self.observer(k, x, srnorm, snenorm)


def sketched_pair(A, b, kind="gaussian", d=None, seed=0):
    d = d or 2 * A.cols
    S = embed.build_sketch(kind, d, A.rows, seed)
    SA = embed.apply(S, A.dense())
    Sb = embed.apply(S, np.asarray(b, dtype=np.float64))
    return S, SA, Sb


class TestBasics:
    @pytest.mark.parametrize("name,solver", SOLVERS)
    def test_identity_converges_in_one_iteration(self, name, solver):
        n = 6
        op = LinearOperatorView.from_matrix(np.eye(n))
        e1 = np.zeros(n)
        e1[0] = 1.0
        result = solver(op, e1)
        assert result.iterations == 1
        assert np.allclose(result.x, e1, atol=1e-15)
        assert result.termination is Termination.BREAKDOWN  # exact convergence

    @pytest.mark.parametrize("name,solver", SOLVERS)
    def test_zero_rhs(self, name, solver):
        op = LinearOperatorView.from_matrix(np.eye(4))
        result = solver(op, np.zeros(4))
        assert result.iterations == 0
        assert np.array_equal(result.x, np.zeros(4))

    def test_small_dense_matches_qr_at_n_steps(self):
        M = stream(7, "M").standard_normal((6, 2))
        rhs = stream(7, "rhs").standard_normal(6)
        x_ref = qr_ls_solve(M, rhs)
        res = lsqr(LinearOperatorView.from_matrix(M), rhs, max_iter=2)
        assert np.linalg.norm(res.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_lsmr_and_lsqr_agree_after_full_krylov(self):
        M = stream(8, "M").standard_normal((6, 2))
        rhs = stream(8, "rhs").standard_normal(6)
        xq = lsqr(LinearOperatorView.from_matrix(M), rhs, max_iter=2).x
        xm = lsmr(LinearOperatorView.from_matrix(M), rhs, max_iter=2).x
        assert np.linalg.norm(xq - xm) <= 1e-9 * np.linalg.norm(xq)

    @pytest.mark.parametrize("seed", range(5))
    def test_krylov_finite_termination(self, seed):
        M = stream(seed, "kry").standard_normal((40, 8))
        rhs = stream(seed, "kryb").standard_normal(40)
        op = LinearOperatorView.from_matrix(M)
        r_opt = np.linalg.norm(M @ qr_ls_solve(M, rhs) - rhs)
        res_q = lsqr(op, rhs, max_iter=13)
        final_q = res_q.trace[-1].sketched_residual_norm
        assert final_q - r_opt <= 1e-10 * np.linalg.norm(rhs)
        res_m = lsmr(op, rhs, max_iter=13)
        final_m = res_m.trace[-1].sketched_normal_residual_norm
        assert final_m <= 1e-10 * np.linalg.norm(M, 2) * np.linalg.norm(rhs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), extra_rows=st.integers(1, 30),
       log_cond=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_full_krylov_matches_qr(n, extra_rows, log_cond, seed):
    # after n + 5 iterations both solvers have the least-squares solution of a
    # well-conditioned problem (kappa <= 100) to rounding
    M = synthesize_matrix(n + extra_rows, n, 10.0 ** log_cond, seed).dense()
    rhs = stream(seed, "rhs").standard_normal(n + extra_rows)
    x_ref = qr_ls_solve(M, rhs)
    op = LinearOperatorView.from_matrix(M)
    for solver in (lsqr, lsmr):
        x = solver(op, rhs, max_iter=n + 5).x
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


class TestMonotonicity:
    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    def test_lsqr_residual_nonincreasing(self, kind):
        A = synthesize_matrix(300, 20, 100.0, 1)
        b = synthesize_problem(A, 2)
        _, SA, Sb = sketched_pair(A, b, kind=kind, seed=3)
        res = lsqr(LinearOperatorView.from_matrix(SA), Sb, max_iter=40)
        values = [r.sketched_residual_norm for r in res.trace]
        assert all(values[i + 1] <= values[i] * (1 + 1e-12) for i in range(len(values) - 1))

    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    def test_lsmr_normal_residual_nonincreasing(self, kind):
        A = synthesize_matrix(300, 20, 100.0, 1)
        b = synthesize_problem(A, 2)
        _, SA, Sb = sketched_pair(A, b, kind=kind, seed=3)
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb, max_iter=40)
        values = [r.sketched_normal_residual_norm for r in res.trace]
        assert all(values[i + 1] <= values[i] * (1 + 1e-12) for i in range(len(values) - 1))


class TestRecurrenceAccuracy:
    @pytest.mark.parametrize("name,solver", SOLVERS)
    def test_estimates_match_explicit_every_iteration(self, name, solver):
        # the recurrence estimates against explicit products with each iterate
        # through 2n iterations, well past the early ones: no reorthogonalization
        # is needed for them to agree on this well-conditioned instance
        A = synthesize_matrix(200, 12, 50.0, 4)
        b = synthesize_problem(A, 5)
        _, SA, Sb = sketched_pair(A, b, seed=6)
        obs = Snapshots(MetricsObserver(A, b))
        res = solver(LinearOperatorView.from_matrix(SA), Sb, observer=obs, max_iter=24)
        norm_SA = np.linalg.norm(SA, 2)
        for rec, x in zip(res.trace, obs.xs):
            r = SA @ x - Sb
            rnorm = np.linalg.norm(r)
            nenorm = np.linalg.norm(SA.T @ r)
            assert rec.sketched_residual_norm == pytest.approx(rnorm, rel=1e-8)
            # skip once the explicit evaluation is itself rounding noise
            floor = 1e3 * np.finfo(float).eps * norm_SA * (
                norm_SA * np.linalg.norm(x) + rnorm)
            if nenorm > floor and rec.sketched_normal_residual_norm > floor:
                assert rec.sketched_normal_residual_norm == pytest.approx(nenorm, rel=1e-8)

    def test_plain_recurrences_accurate_early(self):
        A = synthesize_matrix(200, 12, 50.0, 4)
        b = synthesize_problem(A, 5)
        _, SA, Sb = sketched_pair(A, b, seed=6)
        obs = Snapshots(MetricsObserver(A, b))
        res = lsqr(LinearOperatorView.from_matrix(SA), Sb, observer=obs, max_iter=12)
        for rec, x in zip(res.trace, obs.xs):
            rnorm = np.linalg.norm(SA @ x - Sb)
            assert rec.sketched_residual_norm == pytest.approx(rnorm, rel=1e-8)


class TestObserver:
    def test_called_once_per_iteration(self):
        A = random_tall(60, 5, 9)
        b = synthesize_problem(A, 1)
        _, SA, Sb = sketched_pair(A, b, seed=2)
        calls = []

        def observer(k, x, srnorm, snenorm):
            calls.append(k)
            return IterateRecord(k=k, sketched_residual_norm=srnorm,
                                 sketched_normal_residual_norm=snenorm)

        res = lsqr(LinearOperatorView.from_matrix(SA), Sb, observer=observer,
                   max_iter=8)
        assert calls == list(range(1, res.iterations + 1))
        assert len(res.trace) == res.iterations

    def test_zero_iterate_metrics(self):
        dense = random_tall(30, 4, 3)
        b = random_rhs(30, 4)
        for A in (dense, MatrixHandle(dense.csr())):
            rec = MetricsObserver(A, b)(1, np.zeros(4), 1.0, 1.0)
            assert rec.unsketched_residual_norm == pytest.approx(np.linalg.norm(b))
            assert rec.unsketched_normal_ratio == pytest.approx(
                np.linalg.norm(A.rmatvec(b)) / (A.spectral_norm() * np.linalg.norm(b)),
                rel=1e-14)
            assert not rec.stale

    def test_oracle_iterate_is_orthogonal(self):
        A = synthesize_matrix(100, 8, 10.0, 2)
        b = synthesize_problem(A, 3)
        oracle = solve_ls_oracle(A, b)
        obs = MetricsObserver(A, b)
        rec = obs(1, oracle.x_ls, 1.0, 1.0)
        assert rec.unsketched_normal_ratio <= 1e-10

    def test_sketched_solution_ratio_below_epsilon(self):
        A = synthesize_matrix(300, 5, 10.0, 2)
        b = synthesize_problem(A, 3)
        S, SA, Sb = sketched_pair(A, b, d=100, seed=4)
        eps = embed.exact_distortion(S, A, b).epsilon
        assert eps < 1
        x_s = qr_ls_solve(SA, Sb)
        rec = MetricsObserver(A, b)(1, x_s, 1.0, 1.0)
        assert rec.unsketched_normal_ratio <= eps

    def test_stride_staleness_pattern(self):
        A = random_tall(60, 5, 9)
        b = synthesize_problem(A, 1)
        _, SA, Sb = sketched_pair(A, b, seed=2)
        obs = MetricsObserver(A, b, stride=3)
        res = lsqr(LinearOperatorView.from_matrix(SA), Sb, observer=obs, max_iter=7)
        stales = [rec.stale for rec in res.trace]
        assert res.iterations >= 4
        assert stales == [(k - 1) % 3 != 0 for k in range(1, res.iterations + 1)]
        # carried-forward values repeat the last fresh evaluation
        assert res.trace[1].unsketched_residual_norm == res.trace[0].unsketched_residual_norm

    def test_bad_stride(self):
        A = random_tall(30, 4, 3)
        with pytest.raises(ValueError):
            MetricsObserver(A, random_rhs(30, 4), stride=0)


@pytest.fixture(scope="module")
def acceptance_instances():
    """The criterion-5 instances of the acceptance suite, one per seed."""
    A = synthesize_matrix(400, 40, 50.0, 7)
    out = []
    for seed in range(20):
        b = synthesize_problem(A, seed)
        S, SA, Sb = sketched_pair(A, b, d=80, seed=seed)
        out.append((A, b, solve_ls_oracle(A, b), LinearOperatorView.from_matrix(SA),
                    Sb, embed.exact_distortion(S, A, b).epsilon))
    return out


class TestOracleObserver:
    """The oracle-backed observer against the explicit one, its reference."""

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "srht", "sparse"])
    @pytest.mark.parametrize("name,solver", SOLVERS)
    def test_matches_explicit(self, name, solver, kind, stride):
        A = synthesize_matrix(300, 12, 1e4, 4)
        # the fast path works in A's pivot order, so it must not be the identity
        assert (A.qr_factor()[2] != np.arange(12)).any()
        b = synthesize_problem(A, 5)
        oracle = solve_ls_oracle(A, b)
        _, SA, Sb = sketched_pair(A, b, kind=kind, d=36, seed=6)
        op = LinearOperatorView.from_matrix(SA)
        explicit = Snapshots(MetricsObserver(A, b, stride=stride))
        ref = solver(op, Sb, max_iter=40, observer=explicit).trace
        fast = solver(op, Sb, max_iter=40, observer=MetricsObserver(
            A, b, stride=stride, oracle=oracle)).trace
        assert len(fast) == len(ref) == 40
        assert [r.stale for r in fast] == [r.stale for r in ref]
        norm_A = A.spectral_norm()
        for e, f, x in zip(ref, fast, explicit.xs):
            rnorm = e.unsketched_residual_norm
            assert f.unsketched_residual_norm == pytest.approx(rnorm, rel=1e-11)
            # skip once the explicit evaluation is itself rounding noise
            ne = e.unsketched_normal_ratio * norm_A * rnorm
            floor = 1e3 * np.finfo(float).eps * norm_A * (norm_A * np.linalg.norm(x) + rnorm)
            if ne > floor:
                assert f.unsketched_normal_ratio == pytest.approx(
                    e.unsketched_normal_ratio, rel=1e-11)

    @pytest.mark.parametrize("mode", [StopMode.STABILIZE_NORMAL_RATIO,
                                      StopMode.STABILIZE_RESIDUAL,
                                      StopMode.EPSILON_THRESHOLD])
    @pytest.mark.parametrize("name,solver", SOLVERS)
    def test_same_stopping_on_acceptance_instances(self, name, solver, mode,
                                                   acceptance_instances):
        fired = 0
        for A, b, oracle, op, Sb, eps in acceptance_instances:
            outcomes = []
            for orc in (None, oracle):
                stop = StoppingController(StoppingPolicy(mode=mode), epsilon=eps)
                res = solver(op, Sb, observer=MetricsObserver(A, b, oracle=orc),
                             stop=stop, max_iter=80)
                outcomes.append((res.iterations, res.termination))
            assert outcomes[0] == outcomes[1]
            fired += outcomes[0][1] is not Termination.MAX_ITERATIONS
        assert fired > 0

    def test_non_finite_rhs_rejected(self):
        A = random_tall(30, 4, 3)
        b = random_rhs(30, 4)
        b[0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            MetricsObserver(A, b)


class TestSandwich:
    @pytest.mark.parametrize("seed", range(5))
    def test_final_residual_within_sandwich(self, seed):
        # embedding parameter below one so the upper bound is informative
        A = synthesize_matrix(400, 8, 20.0, 5)
        b = synthesize_problem(A, seed)
        oracle = solve_ls_oracle(A, b)
        S, SA, Sb = sketched_pair(A, b, d=128, seed=seed)
        eps = embed.exact_distortion(S, A, b).epsilon
        assert eps < 1
        obs = MetricsObserver(A, b)
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb, observer=obs, max_iter=60)
        final = res.trace[-1].unsketched_residual_norm
        upper = np.sqrt((1 + eps) / (1 - eps)) * oracle.r_ls_norm
        assert oracle.r_ls_norm * (1 - 1e-9) <= final <= upper * (1 + 1e-6)


class TestOperator:
    def test_adjoint_consistency(self):
        # worst relative <u, Op v> vs <Op^T u, v> gap over random probes
        M = stream(3, "adj").standard_normal((50, 7))
        op = LinearOperatorView.from_matrix(M)
        op_norm = np.linalg.norm(M, 2)
        gen = stream(0, "adjoint-probes")
        for _ in range(5):
            u = gen.standard_normal(op.rows)
            v = gen.standard_normal(op.cols)
            gap = abs(u @ op.forward(v) - op.adjoint(u) @ v)
            assert gap <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * op_norm

    def test_from_matrix_handle(self):
        A = random_tall(20, 3, 1)
        op = LinearOperatorView.from_matrix(A)
        x = np.ones(3)
        assert np.array_equal(op.forward(x), A.dense() @ x)


def test_trace_roundtrip(tmp_path):
    A = random_tall(40, 4, 2)
    b = synthesize_problem(A, 1)
    _, SA, Sb = sketched_pair(A, b, seed=1)
    obs = MetricsObserver(A, b)
    res = lsqr(LinearOperatorView.from_matrix(SA), Sb, observer=obs, max_iter=6)
    path = tmp_path / "trace.csv"
    write_trace(path, res.trace)
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.trace)
    assert float(rows[2]["rnorm"]) == res.trace[2].unsketched_residual_norm
    assert rows[0]["stale_flag"] == "0"
