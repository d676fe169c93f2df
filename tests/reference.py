"""Slow references that only the tests use.

Each is the definition of something the package computes a faster way, and
a test compares the two: the d-row sketched problem of an explicit S
against a CLI cell (``sketchls.diagnostics.SketchedProblem``; both are a
``SketchedPair``, which holds what the bound checks share, and each carries
the oracle of its problem and its own eps), the explicit matrix of a sketch
and the one-shot butterfly SRHT against ``sketchls.embed.apply``, the m x m
eigensolve of the backward error against ``sketchls.diagnostics.compute_eta_f``,
and the Matrix Market writer and a handle's CSR arrays against the loader.
The E1 minimizer gap, a dense lemma that holds at every x, lives here too,
beside the ids of the pseudoinverse lemma.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from sketchls import embed
from sketchls.diagnostics import EIG_NOISE_REL, BackwardErrorResult, SketchedPair
from sketchls.embed import GaussianPayload, SketchOperator, SrhtPayload
from sketchls.matio import LsOracle, MatrixHandle, qr_ls_solve


class DRowProblem(SketchedPair):
    """The sketched problem min ||S(Ax - b)|| of an explicit operator S, in
    its d rows, for the A and b of ``oracle``: SA and Sb are S applied to
    the dense A and to b, and every S product applies S again.  It is a
    ``SketchedPair`` like the cell, so ``run_bound_suite`` runs on either.
    Its eps is the caller's, such as a cell's ``P.eps`` or a probe's 0, and
    by default ``embed.exact_distortion(S, A, b)``, the reference of a
    cell's."""

    def __init__(self, oracle: LsOracle, S: SketchOperator, eps: Optional[float] = None):
        super().__init__(oracle, S.d)
        self.S = S
        self.eps = embed.exact_distortion(S, self.A, self.b) if eps is None else eps

    @cached_property
    def SA(self) -> np.ndarray:
        return embed.apply(self.S, self.A.dense())

    @cached_property
    def Sb(self) -> np.ndarray:
        return embed.apply(self.S, self.b)

    @cached_property
    def x_s(self) -> np.ndarray:
        """Exact minimizer of ||S(Ax - b)||, by dense pivoted QR of (SA, Sb)."""
        return qr_ls_solve(self.SA, self.Sb)

    def sketch_residual(self, x: np.ndarray) -> np.ndarray:
        """S (A x - b)."""
        return embed.apply(self.S, self.A.matvec(x) - self.b)

    def geometric_defect(self, x: np.ndarray) -> np.ndarray:
        """A^T (S^T S - I) r for r = A x - b."""
        r = self.A.matvec(x) - self.b
        return self.A.rmatvec(embed.apply_adjoint(self.S, embed.apply(self.S, r)) - r)


MATERIALIZE_GUARD = 10_000_000


def materialize(S: SketchOperator) -> np.ndarray:
    """Explicit dense d x m matrix of the operator; oracle for ``embed.apply``.

    Each kind is assembled from its defining formula rather than through the
    fast application path.  The SRHT's rows are the sampled rows of the
    Sylvester Hadamard matrix, H[i, j] = (-1)^popcount(i & j), built for the
    first m columns only, so no m' x m' array is formed.
    """
    if S.d * S.m > MATERIALIZE_GUARD:
        raise ValueError(f"materialize guard: d*m = {S.d * S.m} exceeds {MATERIALIZE_GUARD}")
    p = S.payload
    if isinstance(p, GaussianPayload):
        return p.matrix.copy()
    if isinstance(p, SrhtPayload):
        bits = p.indices[:, None] & np.arange(S.m)
        parity = np.zeros_like(bits)
        while bits.any():
            parity ^= bits & 1
            bits >>= 1
        return (1 - 2 * parity) * p.signs[: S.m] / np.sqrt(S.d)
    out = np.zeros((S.d, S.m))
    out[p.rows, np.arange(S.m)] = p.signs
    return out


def srht_one_shot(S: SketchOperator, X: np.ndarray) -> np.ndarray:
    """S @ X for an SRHT S by one transform of all of X: the signed X in
    the first m rows of an m' x k zero array, all log2 m' butterfly stages
    of :func:`embed.fwht`, and the sampled rows over sqrt(d).  It is the
    butterfly oracle of ``embed.apply``, which takes X a column block at a
    time, runs only the outer stages of H(m') = H(A) kron H(B) and forms
    the sampled rows of the inner factor by a GEMM, so the two agree to
    rounding."""
    p = S.payload
    Y = np.zeros((p.padded_len,) + X.shape[1:])
    signs_in = p.signs[: S.m]
    Y[: S.m] = X * (signs_in[:, None] if X.ndim == 2 else signs_in)
    embed.fwht(Y)
    return Y[p.indices] / np.sqrt(S.d)


def csr(A: MatrixHandle) -> scipy.sparse.csr_matrix:
    """A's CSR storage as the handle keeps it, or the CSR of a dense A."""
    return A._data if A.is_sparse else scipy.sparse.csr_matrix(A.dense())


def save_matrix_market(handle: MatrixHandle, path) -> None:
    """Write the handle in general Matrix Market form, round-trip exact."""
    with open(path, "w", encoding="ascii") as fh:
        if handle.is_sparse:
            mat = csr(handle).tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{handle.rows} {handle.cols} {mat.nnz}\n")
            for i, j, v in zip(mat.row, mat.col, mat.data):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{handle.rows} {handle.cols}\n")
            for v in handle.dense().flatten(order="F"):
                fh.write(f"{v:.17g}\n")


class PinvBoundId(str, enum.Enum):
    """The bounds of the test-local pseudoinverse check, which is a lemma on
    dense matrices and not a bound of the suite."""
    PINV_PERTURB = "PinvPerturb"
    PINV_NON_ACUTE = "PinvNonAcute"


def eta_f_dense(A: MatrixHandle, b: np.ndarray, x_bar: np.ndarray,
                theta: float = math.inf) -> BackwardErrorResult:
    """eta_F of x_bar by its definition's m x m eigenproblem, the slow
    reference of ``compute_eta_f``: lambda_star, the smallest eigenvalue of
    M = A A^T - mu r r^T / ||x||^2 with r = A x - b formed and A dense, and
    the same branch rule and ``lambda_noise``."""
    x_bar = np.asarray(x_bar, dtype=np.float64)
    xnorm = float(np.linalg.norm(x_bar))
    mu = 1.0 if math.isinf(theta) else theta ** 2 * xnorm ** 2 / (1.0 + theta ** 2 * xnorm ** 2)
    r = A.matvec(x_bar) - b
    rnorm = float(np.linalg.norm(r))
    gamma = rnorm / xnorm
    Ad = A.dense()
    M = Ad @ Ad.T - (mu / xnorm ** 2) * np.outer(r, r)
    lam = float(scipy.linalg.eigh(M, eigvals_only=True, subset_by_index=(0, 0))[0])
    noise = EIG_NOISE_REL * (A.spectral_norm() ** 2 + mu * gamma ** 2)
    negative = lam < -noise
    eta = math.sqrt(max(gamma ** 2 * mu + lam, 0.0)) if negative else gamma * math.sqrt(mu)
    upper = float(np.linalg.norm(A.rmatvec(r))) / rnorm if rnorm > 0.0 else 0.0
    return BackwardErrorResult(eta_f=eta, lambda_star=lam, mu=mu, gamma=gamma,
                               upper_bound=upper, lambda_noise=noise,
                               negative_branch=negative)


def e1_minimizer_gap(A: MatrixHandle, b: np.ndarray, x: np.ndarray) -> float:
    """Relative distance between x and the minimizer of the E1-perturbed
    problem min ||(A + E1) y - b||, E1 = -r r^T A / ||r||^2 for r = A x - b,
    by a fresh Householder QR of A + E1.  A + E1 = (I - r r^T / ||r||^2) A,
    so (A + E1)^T ((A + E1) x - b) = 0 and the gap is rounding at every x,
    not only at x_s: a lemma, not a bound of the suite."""
    r = A.matvec(x) - b
    rnorm_sq = float(r @ r)
    if rnorm_sq == 0.0:
        return 0.0
    Ad = A.dense()
    y = qr_ls_solve(Ad - np.outer(r, r @ Ad) / rnorm_sq, b)
    return float(np.linalg.norm(y - x) / np.linalg.norm(x))
