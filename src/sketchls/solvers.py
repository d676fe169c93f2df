"""LSQR and LSMR over an abstract linear operator, with per-iterate observers.

Both solvers run one Golub-Kahan bidiagonalization driver, :func:`_solve`,
which owns the iterate, the bidiagonalization, the observer, the trace, the
stopping test and the breakdown test.  They differ only in the iterate
update, which each supplies as a generator: the Paige & Saunders rotations
for LSQR, the Fong & Saunders rotations plus their residual-norm recurrence
for LSMR.  The recurrences supply cheap estimates of the operator-space
residual norm ||Op x - rhs|| and of the normal-equation residual norm
||Op^T (Op x - rhs)||; an observer callback can augment every iterate with
metrics on the unsketched problem, which is what the stabilization stopping
policies monitor.  :class:`MetricsObserver` computes them by products with A,
or reads them from the least-squares oracle's evaluator
(:meth:`sketchls.matio.LsOracle.residual_norms`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .matio import LsOracle, MatrixHandle, as_rhs, write_csv


@dataclass
class LinearOperatorView:
    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_matrix(cls, M) -> "LinearOperatorView":
        """The operator of a matrix M, taken as a float64 array."""
        M = np.asarray(M, dtype=np.float64)
        rows, cols = M.shape
        return cls(rows, cols, lambda v: M @ v, lambda u: M.T @ u)


class Termination(enum.Enum):
    STABILIZED_NORMAL_RATIO = "stabilized_normal_ratio"
    STABILIZED_RESIDUAL = "stabilized_residual"
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"


@dataclass
class IterateRecord:
    k: int
    sketched_residual_norm: float
    sketched_normal_residual_norm: float
    unsketched_residual_norm: float = math.nan
    unsketched_normal_ratio: float = math.nan
    stale: bool = True


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    termination: Termination
    trace: List[IterateRecord] = field(default_factory=list)


class MetricsObserver:
    """Populates iterate records with unsketched metrics of the original problem.

    Every ``stride``-th iteration computes ||r|| and ||A^T r|| / (||A|| ||r||)
    for r = A x - b; off-stride iterations carry the last fresh values forward
    with the stale flag set.

    Without ``oracle`` each fresh record pays two matrix-vector products with
    A (the explicit reference path).  With the least-squares ``oracle`` of
    (A, b), a fresh record reads the oracle's evaluator
    (:meth:`sketchls.matio.LsOracle.residual_norms`) instead: two n-by-n
    triangular products with A's R.
    """

    def __init__(self, A: MatrixHandle, b: np.ndarray, stride: int = 1,
                 oracle: Optional[LsOracle] = None):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.A = A
        self.b = as_rhs(A, b)
        self.stride = stride
        self.norm_A = A.spectral_norm()
        self.oracle = oracle
        self._last_rnorm = math.nan
        self._last_ratio = math.nan

    def metrics(self, x: np.ndarray) -> Tuple[float, float]:
        """The fresh ``(||r||, ||A^T r|| / (||A|| ||r||))`` at any x, r = A x - b."""
        if self.oracle is None:
            r = self.A.matvec(x) - self.b
            rnorm = float(np.linalg.norm(r))
            ne = float(np.linalg.norm(self.A.rmatvec(r)))
        else:
            rnorm, ne, _ = self.oracle.residual_norms(x)
        return rnorm, (ne / (self.norm_A * rnorm) if rnorm > 0 else 0.0)

    def __call__(self, k: int, x: np.ndarray, srnorm: float, snenorm: float) -> IterateRecord:
        fresh = (k - 1) % self.stride == 0
        if fresh:
            self._last_rnorm, self._last_ratio = self.metrics(x)
        return IterateRecord(
            k=k,
            sketched_residual_norm=srnorm,
            sketched_normal_residual_norm=snenorm,
            unsketched_residual_norm=self._last_rnorm,
            unsketched_normal_ratio=self._last_ratio,
            stale=not fresh,
        )


def _default_observer(k: int, x: np.ndarray, srnorm: float, snenorm: float) -> IterateRecord:
    return IterateRecord(k=k, sketched_residual_norm=srnorm,
                         sketched_normal_residual_norm=snenorm)


def _sym_ortho(a: float, b: float):
    """Stable Givens rotation (c, s, r) with r = hypot(a, b)."""
    if b == 0.0:
        return math.copysign(1.0, a), 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        return s * tau, s, b / s
    tau = b / a
    c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
    return c, c * tau, a / c


# A bidiagonalization coefficient this far below the accumulated operator-norm
# estimate means the Krylov space is exhausted (exact convergence); continuing
# would normalize rounding noise and corrupt the iterate.
BREAKDOWN_RTOL = 1e-12


def _solve(op: LinearOperatorView, rhs: np.ndarray, observer, stop,
           max_iter: int, updates) -> SolveResult:
    """Golub-Kahan bidiagonalization of ``op`` started from ``rhs``, driving
    the iterate update of one solver.

    ``updates(x, alpha, beta, v)`` is a generator over the starting
    coefficients: it runs its set-up, then receives the ``(alpha, beta, v)``
    of each bidiagonalization step, updates ``x`` in place and yields the
    estimates ``(||op x - rhs||, ||op^T (op x - rhs)||)``.
    """
    observer = observer or _default_observer

    x = np.zeros(op.cols)
    u = np.asarray(rhs, dtype=np.float64).copy()
    beta = float(np.linalg.norm(u))
    if beta == 0.0:
        return SolveResult(x=x, iterations=0, termination=Termination.BREAKDOWN)
    u /= beta
    v = op.adjoint(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        return SolveResult(x=x, iterations=0, termination=Termination.BREAKDOWN)
    v /= alpha
    norm_est_sq = alpha * alpha
    step = updates(x, alpha, beta, v)
    next(step)  # the set-up reads the starting coefficients, not step 1's

    trace: List[IterateRecord] = []
    termination = Termination.MAX_ITERATIONS
    iterations = 0
    for k in range(1, max_iter + 1):
        u = op.forward(v) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0.0:
            u /= beta
        v = op.adjoint(u) - beta * v
        alpha = float(np.linalg.norm(v))
        if alpha > 0.0:
            v /= alpha
        norm_est_sq += alpha * alpha + beta * beta
        floor = BREAKDOWN_RTOL * math.sqrt(norm_est_sq)

        srnorm, snenorm = step.send((alpha, beta, v))
        record = observer(k, x, srnorm, snenorm)
        trace.append(record)
        iterations = k
        if stop is not None:
            fired = stop.feed(record)
            if fired is not None:
                termination = fired
                break
        if beta <= floor or alpha <= floor:
            termination = Termination.BREAKDOWN
            break
    return SolveResult(x=x, iterations=iterations, termination=termination, trace=trace)


def _lsqr_updates(x: np.ndarray, alpha: float, beta: float, v: np.ndarray):
    """Paige-Saunders update of the LSQR iterate (see :func:`_solve`)."""
    w = v.copy()
    phibar = beta
    rhobar = alpha
    alpha, beta, v = yield
    while True:
        c, s, rho = _sym_ortho(rhobar, beta)
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
        alpha, beta, v = yield phibar, phibar * alpha * abs(c)


def _lsmr_updates(x: np.ndarray, alpha: float, beta: float, v: np.ndarray):
    """Fong-Saunders update of the LSMR iterate and its residual-norm
    recurrence (see :func:`_solve`)."""
    zetabar = alpha * beta
    alphabar = alpha
    rho = 1.0
    rhobar = 1.0
    cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros_like(x)

    # residual-norm recurrence state
    betadd = beta
    betad = 0.0
    rhodold = 1.0
    tautildeold = 0.0
    thetatilde = 0.0
    zeta = 0.0
    alpha, beta, v = yield
    while True:
        # rotate the bidiagonal factor
        rhoold = rho
        c, s, rho = _sym_ortho(alphabar, beta)
        thetanew = s * alpha
        alphabar = c * alpha

        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        rhotemp = cbar * rho
        cbar, sbar, rhobar = _sym_ortho(rhotemp, thetanew)
        zeta = cbar * zetabar
        zetabar = -sbar * zetabar

        hbar = h - (thetabar * rho / (rhoold * rhobarold)) * hbar
        x += (zeta / (rho * rhobar)) * hbar
        h = v - (thetanew / rho) * h

        # residual-norm estimate (undamped Fong-Saunders recurrence)
        betahat = c * betadd
        betadd = -s * betadd
        thetatildeold = thetatilde
        ctildeold, stildeold, rhotildeold = _sym_ortho(rhodold, thetabar)
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = -stildeold * betad + ctildeold * betahat
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        srnorm = math.sqrt((betad - taud) ** 2 + betadd ** 2)
        alpha, beta, v = yield srnorm, abs(zetabar)


def lsqr(op: LinearOperatorView, rhs: np.ndarray, observer=None, stop=None, *,
         max_iter: int) -> SolveResult:
    """LSQR on min ||op x - rhs||; the k-th iterate minimizes the residual
    over the k-th Krylov subspace of (op^T op, op^T rhs).

    The recurrence value ``phibar`` estimates ||op x_k - rhs|| and is
    nonincreasing by construction; ``phibar * alpha * |c|`` estimates
    ||op^T (op x_k - rhs)||.  ``stop`` is fed one record per iteration and may
    end the run; breakdown of the bidiagonalization (alpha or beta reaching
    zero) returns the last iterate.  ``max_iter`` has no default: a fixed
    rule in op's shape would give n + 1 on a CLI cell's (n + 1) x n pair.
    """
    return _solve(op, rhs, observer, stop, max_iter, _lsqr_updates)


def lsmr(op: LinearOperatorView, rhs: np.ndarray, observer=None, stop=None, *,
         max_iter: int) -> SolveResult:
    """LSMR on min ||op x - rhs||; the k-th iterate minimizes the
    normal-equation residual ||op^T (op x - rhs)|| over the same Krylov
    subspace as LSQR, so that estimate (``|zetabar|``) is nonincreasing.

    The operator-space residual norm is tracked by the Fong-Saunders
    recurrence.  Contracts (observer, stop, max_iter, breakdown) match
    :func:`lsqr`.
    """
    return _solve(op, rhs, observer, stop, max_iter, _lsmr_updates)


TRACE_COLUMNS = ["k", "srnorm", "snenorm", "rnorm", "ne_ratio", "stale_flag"]


def write_trace(path, trace: List[IterateRecord]) -> None:
    """One CSV row per iteration (:func:`sketchls.matio.write_csv`)."""
    write_csv(path, TRACE_COLUMNS, (
        [rec.k, rec.sketched_residual_norm, rec.sketched_normal_residual_norm,
         rec.unsketched_residual_norm, rec.unsketched_normal_ratio, rec.stale]
        for rec in trace))
