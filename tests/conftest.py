import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
import scipy.linalg

from sketchls import embed
from sketchls.diagnostics import compute_eta_f
from sketchls.embed import GaussianPayload, SketchKind, SketchOperator, SparsePayload
from sketchls.matio import LsOracle, MatrixHandle
from sketchls.rng import stream
from sketchls.stopping import stabilization_decision

from reference import eta_f_dense

DATA_DIR_CANDIDATES = ("data", "tests/data")


def random_tall(m: int, n: int, seed: int) -> MatrixHandle:
    """Unstructured dense tall matrix; condition number stays modest."""
    return MatrixHandle(stream(seed, "tall", m, n).standard_normal((m, n)))


def householder_handle(data) -> MatrixHandle:
    """A handle of ``data`` whose cached factor is the Householder pivoted
    QR of its m rows, the slow oracle of ``MatrixHandle.qr_factor``."""
    A = MatrixHandle(data)
    factor = scipy.linalg.qr(A.dense(), mode="economic", pivoting=True)
    for arr in factor:
        arr.setflags(write=False)
    A._qr_factor = factor
    return A


def random_rhs(m: int, seed: int) -> np.ndarray:
    return stream(seed, "rhs", m).standard_normal(m)


def span_matrix(problem) -> np.ndarray:
    """W = [Q u] of a CLI seed problem (``cli.SeedProblem``) as an m-row
    array, which the cell itself never forms."""
    Q, u = problem.A.qr_factor()[0], problem.span.u
    return Q if u is None else np.column_stack([Q, u])


def d_row_sketch(problem, kind: SketchKind, d: int) -> SketchOperator:
    """The d x m operator S of the CLI cell ``(problem, kind, d)``, the slow
    reference of the cell's coordinates: ``build_sketch``'s for SRHT and
    sparse.  For a Gaussian cell it is S~ = Z W^T + G (I - W W^T), with Z the
    cell's draw and G ``build_sketch``'s, independent of it: a full Gaussian
    with S~ W = Z."""
    A = problem.A
    if kind is not SketchKind.GAUSSIAN:
        return embed.build_sketch(kind, d, A.rows, problem.seed)
    W = span_matrix(problem)
    Z = embed.gaussian_span_sketch(d, A.rows, W.shape[1], problem.seed)
    G = embed.build_sketch("gaussian", d, A.rows, problem.seed).payload.matrix
    return SketchOperator(kind=SketchKind.GAUSSIAN, d=d, m=A.rows, seed=problem.seed,
                          payload=GaussianPayload(Z @ W.T + G - (G @ W) @ W.T))


def identity_sketch(m: int) -> SketchOperator:
    """Degenerate d = m operator equal to the identity; verification double."""
    payload = SparsePayload(rows=np.arange(m), signs=np.ones(m))
    return SketchOperator(kind=SketchKind.SPARSE, d=m, m=m, seed=0, payload=payload)


def pythagorean_gap(oracle: LsOracle, r_s: np.ndarray) -> float:
    """| ||r_ls - r_s||^2 - (||r_s||^2 - ||r_ls||^2) | relative to ||r_ls||^2."""
    rs_norm_sq = float(np.linalg.norm(r_s)) ** 2
    rls_norm_sq = oracle.r_ls_norm ** 2
    r_ls = oracle.A.matvec(oracle.x_ls) - oracle.b
    diff_sq = float(np.linalg.norm(r_ls - r_s)) ** 2
    return abs(diff_sq - (rs_norm_sq - rls_norm_sq)) / rls_norm_sq


def eta_f_checked(A, b, oracle, x_bar, theta=math.inf):
    """``compute_eta_f(oracle, x_bar, theta)``, checked against the m x m
    reference ``eta_f_dense`` (A of at most a few hundred rows).  Both
    solve for lambda_star to an absolute error below ``lambda_noise``, and
    eta^2 = gamma^2 mu + lambda_star is linear in it: so the two take the
    same branch, their lambda_star agree within lambda_noise and their
    eta^2 within 2 lambda_noise, which is eta within lambda_noise / eta
    once eta is well above sqrt(lambda_noise).  Seen: 1.3e-13 absolute
    where eta >= 4.8e-4, and noise of at most 1e-8 at x_ls."""
    res = compute_eta_f(oracle, x_bar, theta)
    ref = eta_f_dense(A, b, x_bar, theta)
    assert res.negative_branch == ref.negative_branch
    assert res.mu == pytest.approx(ref.mu, rel=1e-15)
    assert res.gamma == pytest.approx(ref.gamma, rel=1e-9)
    assert res.lambda_noise == pytest.approx(ref.lambda_noise, rel=1e-9)
    assert abs(res.lambda_star - ref.lambda_star) <= res.lambda_noise
    assert abs(res.eta_f ** 2 - ref.eta_f ** 2) <= 2.0 * res.lambda_noise
    return res


def first_stabilization(values: List[float], window: int = 5,
                        band: Tuple[float, float] = (0.99, 1.01)) -> Optional[int]:
    """Offline scan: smallest index k whose window [k, k+window] is in band.

    Indices refer to positions in ``values``; equals the online controller's
    ``fired_at`` on the same series.
    """
    for k in range(len(values) - window):
        if stabilization_decision(values[k:k + window + 1], band):
            return k
    return None


@pytest.fixture(scope="session")
def suitesparse_dir(request):
    root = request.config.rootpath
    for cand in DATA_DIR_CANDIDATES:
        path = root / cand
        if path.is_dir():
            return path
    return root / "data"
