import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchls import embed
from sketchls.matio import qr_ls_solve, solve_ls_oracle, synthesize_matrix, \
    synthesize_problem
from sketchls.solvers import (IterateRecord, LinearOperatorView, MetricsObserver,
                              Termination, lsmr, lsqr)
from sketchls.stopping import (StopMode, StoppingController, StoppingPolicy,
                               epsilon_threshold_decision,
                               stabilization_decision,
                               traditional_decision)
from sketchls.rng import stream

from conftest import first_stabilization


def record(k=1, srnorm=1.0, snenorm=1.0, rnorm=1.0, ratio=1.0, stale=False):
    return IterateRecord(k=k, sketched_residual_norm=srnorm,
                         sketched_normal_residual_norm=snenorm,
                         unsketched_residual_norm=rnorm,
                         unsketched_normal_ratio=ratio, stale=stale)


class TestPolicy:
    def test_defaults(self):
        p = StoppingPolicy(mode=StopMode.STABILIZE_NORMAL_RATIO)
        assert p.window == 5 and p.band == (0.99, 1.01)

    @pytest.mark.parametrize("band", [(0.0, 1.01), (1.02, 1.05), (0.99, 0.995), (-1, 2)])
    def test_bad_band(self, band):
        with pytest.raises(ValueError):
            StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL, band=band)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL, window=0)

    def test_mode_coercion(self):
        assert StoppingPolicy(mode="stab-res").mode is StopMode.STABILIZE_RESIDUAL


class TestDecisions:
    def test_traditional(self):
        assert traditional_decision(record(snenorm=0.0), tol=1e-8, op_norm=2.0)
        # tol = 0.1 * eps with eps = 0.2 admits a 1e-3 ratio
        rec = record(srnorm=1.0, snenorm=1e-3 * 2.0)
        assert traditional_decision(rec, tol=0.02, op_norm=2.0)
        assert not traditional_decision(record(srnorm=1.0, snenorm=1.0), tol=1e-8,
                                        op_norm=2.0)

    def test_traditional_zero_residual(self):
        assert traditional_decision(record(srnorm=0.0, snenorm=0.0), tol=0.0, op_norm=1.0)

    def test_epsilon_threshold(self):
        assert epsilon_threshold_decision(record(ratio=1e-12), epsilon=1e-3)
        assert not epsilon_threshold_decision(record(ratio=0.5), epsilon=0.01)

    def test_epsilon_threshold_defers_on_stale(self):
        assert not epsilon_threshold_decision(record(ratio=1e-12, stale=True), 1e-3)

    def test_stabilization_constant(self):
        assert stabilization_decision([3.0] * 6, (0.99, 1.01))

    def test_stabilization_geometric_decay(self):
        history = [0.5 ** i for i in range(6)]
        # (0.5^5)^(1/5) = 0.5, outside the band
        assert not stabilization_decision(history, (0.99, 1.01))

    def test_stabilization_insufficient_history(self):
        assert not stabilization_decision([1.0], (0.99, 1.01))

    def test_stabilization_nonpositive(self):
        with pytest.raises(ValueError):
            stabilization_decision([1.0, -1.0, 1.0], (0.99, 1.01))


class TestBandDegeneracy:
    @pytest.mark.parametrize("seed", range(10))
    def test_unit_band_never_fires_on_strict_decrease(self, seed):
        gen = stream(seed, "dec")
        steps = np.abs(gen.standard_normal(40)) + 1e-3
        values = list(np.cumsum(steps)[::-1])  # strictly decreasing positives
        assert first_stabilization(values, window=5, band=(1.0, 1.0)) is None


class TestController:
    def test_online_matches_offline(self):
        A = synthesize_matrix(200, 20, 30.0, 9)
        b = synthesize_problem(A, 3)
        S = embed.build_sketch("gaussian", 40, 200, 3)
        SA = embed.apply(S, A.dense())
        Sb = embed.apply(S, b)
        controller = StoppingController(StoppingPolicy(mode=StopMode.STABILIZE_NORMAL_RATIO))
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb,
                   observer=MetricsObserver(A, b), stop=controller, max_iter=40)
        assert res.termination is Termination.STABILIZED_NORMAL_RATIO
        # replay the full (unstopped) trace offline
        full = lsmr(LinearOperatorView.from_matrix(SA), Sb,
                    observer=MetricsObserver(A, b), max_iter=40)
        values = [r.unsketched_normal_ratio for r in full.trace]
        offline = first_stabilization(values, window=5, band=(0.99, 1.01))
        assert offline is not None
        assert controller.fired_at == offline + 1  # trace index 0 is iteration 1

    def test_earliest_firing(self):
        controller = StoppingController(
            StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL, window=2))
        values = [8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        fired = None
        for k, v in enumerate(values, start=1):
            if controller.feed(record(k=k, rnorm=v)) is not None:
                fired = k
                break
        assert fired == 6  # window [4, 6] is the first flat one
        assert controller.fired_at == 4

    @pytest.mark.parametrize("seed", range(100))
    def test_fires_before_max_iter(self, seed):
        A = synthesize_matrix(200, 20, 30.0, 9)
        b = synthesize_problem(A, seed)
        S = embed.build_sketch("gaussian", 40, 200, seed)
        SA = embed.apply(S, A.dense())
        Sb = embed.apply(S, b)
        controller = StoppingController(StoppingPolicy(mode=StopMode.STABILIZE_NORMAL_RATIO))
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb,
                   observer=MetricsObserver(A, b), stop=controller, max_iter=40)
        # the spec tolerates <= 5% non-firing runs; these 100 all stabilize
        assert res.termination is Termination.STABILIZED_NORMAL_RATIO
        assert res.iterations < 40

    @pytest.mark.parametrize("seed", range(5))
    def test_termination_quality(self, seed):
        # informative regime: embedding parameter below one
        A = synthesize_matrix(400, 8, 20.0, 5)
        b = synthesize_problem(A, seed)
        oracle = solve_ls_oracle(A, b)
        S = embed.build_sketch("gaussian", 128, 400, seed)
        eps = embed.exact_distortion(S, A, b)
        assert eps < 1
        SA = embed.apply(S, A.dense())
        Sb = embed.apply(S, b)
        controller = StoppingController(StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL))
        res = lsqr(LinearOperatorView.from_matrix(SA), Sb,
                   observer=MetricsObserver(A, b), stop=controller, max_iter=128)
        final = res.trace[-1].unsketched_residual_norm
        assert final <= 1.05 * math.sqrt((1 + eps) / (1 - eps)) * oracle.r_ls_norm

    def test_stale_records_skipped(self):
        controller = StoppingController(
            StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL, window=2))
        for k in range(1, 10):
            out = controller.feed(record(k=k, rnorm=1.0, stale=(k % 2 == 0)))
            if out is not None:
                break
        # only fresh k = 1, 3, 5 count; window fills at the third fresh value
        assert controller.fired_at == 1
        assert k == 5

    def test_traditional_needs_norm(self):
        with pytest.raises(ValueError):
            StoppingController(StoppingPolicy(mode=StopMode.TRADITIONAL, tol=1e-8))

    def test_epsilon_mode_fires_on_threshold(self):
        A = synthesize_matrix(300, 5, 10.0, 2)
        b = synthesize_problem(A, 3)
        S = embed.build_sketch("gaussian", 100, 300, 4)
        eps = embed.exact_distortion(S, A, b)
        SA = embed.apply(S, A.dense())
        Sb = embed.apply(S, b)
        controller = StoppingController(
            StoppingPolicy(mode=StopMode.EPSILON_THRESHOLD), epsilon=eps)
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb,
                   observer=MetricsObserver(A, b), stop=controller, max_iter=100)
        assert res.termination is Termination.TOLERANCE_MET
        assert res.trace[-1].unsketched_normal_ratio <= eps

    def test_first_iterate_of_hard_problem_not_converged(self):
        A = synthesize_matrix(300, 30, 1e4, 8)
        b = synthesize_problem(A, 2)
        S = embed.build_sketch("gaussian", 60, 300, 2)
        SA = embed.apply(S, A.dense())
        Sb = embed.apply(S, b)
        res = lsmr(LinearOperatorView.from_matrix(SA), Sb,
                   observer=MetricsObserver(A, b), max_iter=1)
        assert not epsilon_threshold_decision(res.trace[0], 0.01)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.sampled_from([0.5, 0.9, 0.995, 1.0, 1.0, 1.0, 1.003, 1.2, 3.0]),
                       max_size=30),
       window=st.integers(1, 6), lo=st.floats(0.95, 1.0), hi=st.floats(1.0, 1.05))
def test_online_fired_at_equals_offline_scan(values, window, lo, hi):
    controller = StoppingController(
        StoppingPolicy(mode=StopMode.STABILIZE_RESIDUAL, window=window, band=(lo, hi)))
    for k, v in enumerate(values, start=1):
        if controller.feed(record(k=k, rnorm=v)) is not None:
            break
    offline = first_stabilization(values, window=window, band=(lo, hi))
    # trace index 0 is iteration 1
    assert controller.fired_at == (None if offline is None else offline + 1)
