"""Bound checks and backward-error computations for sketched least squares.

:func:`run_bound_suite` evaluates the bounds of ``SUITE_BOUND_IDS`` that
relate the original and sketched problems; these are the bounds a bound CSV
holds, the paper's backward-error result among them: the minimal backward
error eta_F(x_s) (:func:`compute_eta_f`) is at most ||E1||.

The suite's bounds are evaluated against quantities computed by independent
dense factorizations: the reference solution comes from
:func:`sketchls.matio.solve_ls_oracle`, the sketched minimizer from
triangular solves with a cell's factors, and eps from the cell's sketched
basis.  A check reads everything, eps and the oracle too, from one
(problem, sketch) pair, a :class:`SketchedPair`, which forms the quantities
the checks share once each, and reads the residual norms at x_s from the
oracle's evaluator (:meth:`sketchls.matio.LsOracle.residual_norms`), with
no product with A.  ``SketchedProblem(oracle, SW)``, the CLI's cell, forms
the rest from S W and the oracle's coordinates in W = [Q u]
(:attr:`sketchls.matio.LsOracle.span`), as :func:`compute_eta_f` does; the
tests run the checks on the d-row problem of an explicit S too
(``DRowProblem`` of ``tests/reference.py``), the slow reference of the
cell, whose minimizer is :func:`solve_sketched`.
Each check yields a :class:`BoundReport` with the measured left-hand side, the
bound, and a pass/fail margin.  A row that proves nothing passes, by one of
three rules.  On a consistent pair (:attr:`SketchedPair.consistent`), r_ls
and r_s are rounding noise, so :func:`run_bound_suite` reports every row
but the acute criterion as a vacuous pass (lhs = rhs = 0) with the note
``consistent system``.  A row num / den <= rhs is a vacuous pass with a
note that names den when den is zero (:func:`_ratio`).  A multiplier that
divides by 1 - eps gets rhs = inf once eps >= 1 (:func:`_over_lower_bound`),
and its row passes with an empty note.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple

import numpy as np
import scipy.linalg

from . import embed
from .matio import (LsOracle, MatrixHandle, _qr_solve, cond_estimate, gram_cholesky,
                    qr_ls_solve, write_csv)

PASS_SLACK = 1e-10
CONSISTENT_THRESHOLD = 1e-12
# a measured left-hand side this far below its natural scale is evaluation
# noise; the inequality holds to working precision (identity-double cases)
NOISE_FLOOR_REL = 1e-12
# compute_eta_f's eigenvalue error over ||A||^2 + mu gamma^2: about 450 u
EIG_NOISE_REL = 1e-13
# the largest condition estimate of a cell's T from the Gram of SW that is
# used.  On 201-column sketches it reads 20-50 kappa_2(SW): 105-151 at
# d = 2n, 755-860 at d = 1.2n (kappa_2 about 20), so u kappa_2^2 < 1e-12
GRAM_COND_LIMIT = 1e3


class BoundId(str, enum.Enum):
    GEOM_PRESERVE = "GeomPreserve"
    RESIDUAL_SANDWICH = "ResidualSandwich"
    RESIDUAL_DIRECTION = "ResidualDirection"
    NORMAL_RATIO_SKETCHED = "NormalRatioSketched"
    NORMAL_RATIO_CROSS = "NormalRatioCross"
    BACKWARD_E1 = "BackwardE1"
    BACKWARD_E2 = "BackwardE2"
    SOLUTION_ERR_REL = "SolutionErrRel"
    SOLUTION_ERR_LS = "SolutionErrLs"
    COMBINED_RESIDUAL = "CombinedResidual"
    ACUTE_CRITERION = "AcuteCriterion"
    ETA_F_UPPER = "EtaFUpper"


@dataclass
class BoundReport:
    bound_id: BoundId
    lhs: float
    rhs: float
    passed: bool
    margin: float
    note: str = ""


@dataclass
class BackwardErrorResult:
    eta_f: float
    lambda_star: float
    mu: float
    gamma: float
    upper_bound: float
    lambda_noise: float
    negative_branch: bool


def _report(bound_id: BoundId, lhs: float, rhs: float, note: str = "",
            noise_floor: float = 0.0) -> BoundReport:
    passed = bool(lhs <= rhs * (1.0 + PASS_SLACK)) if not math.isnan(rhs) else False
    if math.isinf(rhs):
        passed = True
    if not passed and lhs <= noise_floor:
        passed = True
        note = (note + "; " if note else "") + "lhs below floating-point noise floor"
    return BoundReport(bound_id=bound_id, lhs=lhs, rhs=rhs, passed=passed,
                       margin=rhs - lhs, note=note)


def _vacuous(bound_id: BoundId, note: str) -> BoundReport:
    return BoundReport(bound_id=bound_id, lhs=0.0, rhs=0.0, passed=True,
                       margin=0.0, note=note)


def _ratio(bound_id: BoundId, num: float, den: float, zero_note: str,
           rhs: Callable[[], float],
           noise_floor: Callable[[], float] = lambda: NOISE_FLOOR_REL) -> BoundReport:
    """The row num / den <= ``rhs()``; at a zero den, where the ratio and
    any rhs divided by den are undefined, a vacuous pass with ``zero_note``,
    which names den."""
    if den == 0.0:
        return _vacuous(bound_id, zero_note)
    return _report(bound_id, num / den, rhs(), noise_floor=noise_floor())


def _over_lower_bound(num: float, eps: float) -> float:
    """num / (1 - eps), 1 - eps the lower embedding bound; inf once eps >= 1
    voids that bound."""
    return math.inf if eps >= 1.0 else num / (1.0 - eps)


def sandwich_multiplier(eps: float) -> float:
    """sqrt((1+eps)/(1-eps))."""
    return math.sqrt(_over_lower_bound(1.0 + eps, eps))


def direction_bound(eps: float) -> float:
    """sqrt(2 eps / (1-eps))."""
    return math.sqrt(_over_lower_bound(2.0 * eps, eps))


def combined_direction_bound(eps: float, kappa: float) -> float:
    return min(direction_bound(eps), kappa ** 2 * eps * sandwich_multiplier(eps))


class SketchedPair:
    """The (problem, sketch) pair min ||S(Ax - b)|| that the bound checks read:
    the least-squares ``oracle`` of (A, b), with A and b read from it, S's
    row count ``d`` and the quantities the checks share, each formed on first
    use and kept.  A subclass defines ``SA``, ``Sb``, ``x_s``, the eps of S
    over span([A b]), ``sketch_residual`` and ``geometric_defect``."""

    def __init__(self, oracle: LsOracle, d: int):
        self.oracle = oracle
        self.A, self.b = oracle.A, oracle.b
        self.d = d

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of SA, largest first."""
        return scipy.linalg.svd(self.SA, compute_uv=False)

    @property
    def norm_SA(self) -> float:
        return float(self.sv[0])

    @cached_property
    def consistent(self) -> bool:
        """Whether b is in range(A) to rounding, ||r_ls|| <= CONSISTENT_THRESHOLD ||b||."""
        return self.oracle.r_ls_norm <= CONSISTENT_THRESHOLD * self.oracle.b_norm

    @cached_property
    def norms_s(self) -> Tuple[float, float, float]:
        """(||r_s||, ||A^T r_s||, ||r_s - r_ls||) for the unsketched residual
        r_s = A x_s - b of the sketched minimizer, by the oracle's evaluator."""
        return self.oracle.residual_norms(self.x_s)


class SketchedProblem(SketchedPair):
    """The sketched problem of one CLI cell, in the coordinates of the
    oracle's W = [Q u] (:attr:`sketchls.matio.LsOracle.span`), whose span
    holds A, b and every residual.

    ``SW`` is the d x (n + 1) S W, and the oracle holds c_b = W^T b.  With
    SW = Q_s T, T the triangular factor of :func:`sketch_factor`,
    SA = Q_s M for M[:, piv] = T[:, :n] R and S b = Q_s T c_b, so ``SA`` and
    ``Sb`` hold the (n + 1) x n pair (M, T c_b): SA's singular values, x_s,
    eps and the solvers' Krylov steps read it, and S products are taken in
    Q_s coordinates.  So the solves and every bound check of the cell share
    one SVD, one x_s and one evaluation of its residual norms
    (:class:`SketchedPair`).  The d-row problem of an explicit S, the slow
    reference of each quantity, is ``DRowProblem`` of the tests.
    """

    def __init__(self, oracle: LsOracle, SW: np.ndarray):
        super().__init__(oracle, SW.shape[0])
        self.T = sketch_factor(SW)
        _, R, piv = self.A.qr_factor()
        self.SA = np.empty((self.T.shape[0], self.A.cols))
        self.SA[:, piv] = self.T[:, : self.A.cols] @ R
        self.Sb = self.T @ oracle.span.c_b

    @cached_property
    def eps(self) -> float:
        """The distortion of S over span([A b]) (:func:`sketchls.embed.basis_distortion`),
        from the basis columns of T and T c_q, the coordinates in Q_s of the
        sketched ``subspace_basis(A, b)``."""
        span = self.oracle.span
        Sq = None if span.c_q is None else self.T @ span.c_q
        return embed.basis_distortion(self.T[:, : span.rank], Sq)

    @cached_property
    def x_s(self) -> np.ndarray:
        """Exact minimizer of ||S(Ax - b)||.  M[:, piv] = [T11 R; 0] is
        triangular, so x[piv] solves T11 R x[piv] = (T c_b)[:n], refined
        once against M.  The rank check reads T_ii R_ii: its smallest over
        its largest is at least 1 / kappa(M), so a raise means
        kappa(M) > 1 / RANK_TOL."""
        n = self.A.cols
        piv = self.A.qr_factor()[2]
        return _qr_solve(lambda x: self.SA @ x, (None, self.SA[:n, piv], piv), self.Sb)

    def sketch_residual(self, x: np.ndarray) -> np.ndarray:
        """S (A x - b) in Q_s coordinates: T c for the oracle's c = W^T (A x - b)."""
        return self.T @ self.oracle.residual_coordinates(x)

    def geometric_defect(self, x: np.ndarray) -> np.ndarray:
        """A^T (S^T S - I) r for r = A x - b: P R^T (T[:, :n]^T T c - c[:n]),
        with A = Q R P^T."""
        n = self.A.cols
        _, R, piv = self.A.qr_factor()
        c = self.oracle.residual_coordinates(x)
        out = np.empty(n)
        out[piv] = R.T @ (self.T[:, :n].T @ (self.T @ c) - c[:n])
        return out


def sketch_factor(SW: np.ndarray) -> np.ndarray:
    """Upper triangular T with SW = Q_s T, Q_s orthonormal: the Cholesky
    factor of SW^T SW (BLAS-3), whose rounding is u kappa(SW)^2 against
    Householder's u kappa(SW).  A cell's SW sketches an orthonormal W, so
    kappa(SW)^2 = (1 + eps) / (1 - eps), 2-6 on every bench shape.  When the
    Cholesky fails, or T's condition estimate is above
    :data:`GRAM_COND_LIMIT`, T is the R of SW's Householder QR, which may
    overwrite SW.  A C-ordered SW is read without a copy."""
    T = gram_cholesky(SW.T)
    if T is not None and cond_estimate(T) <= GRAM_COND_LIMIT:
        return T
    return scipy.linalg.qr(SW, mode="r", overwrite_a=True, check_finite=False)[0][: SW.shape[1]]


def solve_sketched(A: MatrixHandle, b: np.ndarray, S: embed.SketchOperator) -> np.ndarray:
    """Exact minimizer of ||S(Ax - b)|| by dense pivoted QR of the sketched pair."""
    return qr_ls_solve(embed.apply(S, A.dense()), embed.apply(S, b))


def check_geometric_preservation(P: SketchedPair) -> BoundReport:
    """||A^T (S^T S - I) r_s|| <= eps ||A|| ||r_s|| for r_s = A x_s - b, whose
    norm is ``P.norms_s[0]``; the lemma holds for any y in place of x_s."""
    rnorm = P.norms_s[0]
    lhs = float(np.linalg.norm(P.geometric_defect(P.x_s)))
    norm_A = P.A.spectral_norm()
    return _report(BoundId.GEOM_PRESERVE, lhs, P.eps * norm_A * rnorm,
                   noise_floor=NOISE_FLOOR_REL * norm_A * rnorm)


def check_residual_bounds(P: SketchedPair) -> List[BoundReport]:
    """Residual-size, residual-direction, and normal-equation ratio bounds.

    The checks use the exact sketched minimizer ``P.x_s`` (not an iterate) so
    they probe the analysis rather than solver error.
    """
    A, eps, oracle, (rs_norm, atr_s_norm, rdiff_norm) = P.A, P.eps, P.oracle, P.norms_s
    rls_norm = oracle.r_ls_norm
    norm_A = A.spectral_norm()
    kappa = A.condition_number()
    Srls = P.sketch_residual(oracle.x_ls)
    return [
        _report(BoundId.RESIDUAL_SANDWICH, rs_norm, sandwich_multiplier(eps) * rls_norm),
        _ratio(BoundId.RESIDUAL_DIRECTION, rdiff_norm, rls_norm, "zero LS residual",
               lambda: direction_bound(eps)),
        _ratio(BoundId.COMBINED_RESIDUAL, rdiff_norm, rls_norm, "zero LS residual",
               lambda: combined_direction_bound(eps, kappa)),
        _ratio(BoundId.NORMAL_RATIO_SKETCHED, atr_s_norm, norm_A * rs_norm,
               "zero sketched residual", lambda: eps),
        _ratio(BoundId.NORMAL_RATIO_CROSS, float(np.linalg.norm(P.SA.T @ Srls)),
               P.norm_SA * float(np.linalg.norm(Srls)), "zero sketched LS residual",
               lambda: _over_lower_bound(eps, eps)),
    ]


def compute_eta_f(oracle: LsOracle, x_bar: np.ndarray,
                  theta: float = math.inf) -> BackwardErrorResult:
    """Minimal normwise backward error eta_F of x_bar for min ||A x - b||
    (Walden, Karlson and Sun 1995), from the LS oracle alone, with no
    product with A.  With r = A x - b, gamma = ||r|| / ||x||,
    mu = theta^2||x||^2/(1+theta^2||x||^2) (1 at theta = inf, which
    perturbs A only) and lambda_star the smallest eigenvalue of the m x m
    M = A A^T - mu r r^T / ||x||^2, eta = sqrt(gamma^2 mu + lambda_star)
    when lambda_star < 0, else gamma sqrt(mu).  gamma and the upper bound
    ||A^T r|| / ||r|| are :meth:`LsOracle.residual_norms`'s.

    M = W K W^T in n + 1 dimensions.  With A[:, piv] = Q R and the oracle's
    W = [Q u], u the unit part of b orthogonal to range(Q), r = A x - b = W c
    for c = W^T r (:meth:`LsOracle.residual_coordinates`) and
    K = [R R^T 0; 0 0] - (mu / ||x||^2) c c^T; with no u, c and K get a zero
    last coordinate.  M is zero orthogonal to W, and
    lambda_min(K) <= -(mu / ||x||^2) c_(n+1)^2 <= 0 by K's last coordinate,
    so lambda_star = lambda_min(K) for every m > n.

    The eigensolve errs by a small multiple of u ||K|| <= u (||A||^2 +
    mu gamma^2), as ||c|| = ||r||; ``lambda_noise`` is that scale times
    :data:`EIG_NOISE_REL`.  An eigenvalue above -lambda_noise is the
    nonnegative branch, and where eta^2 cancels, as at x_ls, eta is noise
    of up to sqrt(lambda_noise).
    """
    x_bar = np.asarray(x_bar, dtype=np.float64)
    xnorm = float(np.linalg.norm(x_bar))
    if xnorm == 0.0:
        raise ValueError("x_bar must be nonzero")
    mu = 1.0 if math.isinf(theta) else theta ** 2 * xnorm ** 2 / (1.0 + theta ** 2 * xnorm ** 2)
    rnorm, atr_norm, _ = oracle.residual_norms(x_bar)
    gamma = rnorm / xnorm
    R, n = oracle.A.qr_factor()[1], oracle.A.cols
    c = oracle.residual_coordinates(x_bar)
    c = np.append(c, np.zeros(n + 1 - c.size))  # a zero last coordinate for no u
    K = -(mu / xnorm ** 2) * np.outer(c, c)
    K[:n, :n] += R @ R.T
    lam = float(scipy.linalg.eigh(K, eigvals_only=True, subset_by_index=(0, 0))[0])
    noise = EIG_NOISE_REL * (oracle.A.spectral_norm() ** 2 + mu * gamma ** 2)
    negative = lam < -noise
    eta = math.sqrt(max(gamma ** 2 * mu + lam, 0.0)) if negative else gamma * math.sqrt(mu)
    upper = atr_norm / rnorm if rnorm > 0.0 else 0.0
    return BackwardErrorResult(eta, lam, mu, gamma, upper, noise, negative)


def check_explicit_perturbations(P: SketchedPair) -> List[BoundReport]:
    """Norm bounds on E1 and E2, the two explicit backward perturbations
    carrying x_s, and on the least one, eta_F(x_s) (:func:`compute_eta_f`):

    ||E1|| = ||A^T r_s|| / ||r_s|| <= eps ||A|| (rank-one norm identity),
    ||E2|| = ||r_ls - r_s|| / ||x_s|| <= (||r_ls|| / ||x_s||) sqrt(2eps/(1-eps)),
    eta_F(x_s) <= ||E1|| at theta = inf, as x_s solves min ||(A + E1) x - b||.
    eta_F is vacuous where E1 or E2 is; its noise floor is sqrt(lambda_noise),
    its noise at x_s = x_ls.
    """
    A, eps, oracle, (rs_norm, atr_s_norm, rdiff_norm) = P.A, P.eps, P.oracle, P.norms_s
    xs_norm = float(np.linalg.norm(P.x_s))
    norm_A = A.spectral_norm()
    e1 = _ratio(BoundId.BACKWARD_E1, atr_s_norm, rs_norm, "zero sketched residual",
                lambda: eps * norm_A, lambda: NOISE_FLOOR_REL * norm_A)
    e2 = _ratio(BoundId.BACKWARD_E2, rdiff_norm, xs_norm, "zero sketched solution",
                lambda: (oracle.r_ls_norm / xs_norm) * direction_bound(eps),
                lambda: NOISE_FLOOR_REL * oracle.r_ls_norm / xs_norm)
    if rs_norm == 0.0 or xs_norm == 0.0:
        return [e1, e2, _vacuous(BoundId.ETA_F_UPPER, (e1 if rs_norm == 0.0 else e2).note)]
    res = compute_eta_f(oracle, P.x_s)
    return [e1, e2, _report(BoundId.ETA_F_UPPER, res.eta_f, res.upper_bound,
                            noise_floor=math.sqrt(res.lambda_noise))]


def check_solution_error(P: SketchedPair) -> List[BoundReport]:
    """Relative solution-error bounds in terms of eps, kappa(A), and residual size."""
    A, eps, oracle = P.A, P.eps, P.oracle
    kappa = A.condition_number()
    norm_A = A.spectral_norm()
    err = float(np.linalg.norm(oracle.x_ls - P.x_s))
    xs_norm = float(np.linalg.norm(P.x_s))
    xls_norm = float(np.linalg.norm(oracle.x_ls))
    return [
        _ratio(BoundId.SOLUTION_ERR_REL, err, xs_norm, "zero sketched solution",
               lambda: kappa ** 2 * eps * P.norms_s[0] / (norm_A * xs_norm)),
        _ratio(BoundId.SOLUTION_ERR_LS, err, xls_norm, "zero reference solution",
               lambda: kappa ** 2 * eps * sandwich_multiplier(eps) * oracle.r_ls_norm
               / (norm_A * xls_norm)),
    ]


# the acute row's note, by (kappa(A) eps <= 1, SA of full column rank)
_ACUTE_NOTES = {(True, True): "", (True, False): "criterion met but SA rank deficient",
                (False, True): "sufficient-not-necessary: rank(SA) full despite kappa*eps >= 1",
                (False, False): "rank(SA) deficient"}


def check_acute_criterion(P: SketchedPair) -> BoundReport:
    """kappa(A) * eps < 1 guarantees an acute (rank-preserving) embedding.

    The criterion is sufficient, not necessary: the row passes exactly when SA
    has full column rank (by the singular values ``P.sv``), and its note
    tells whether the criterion agrees.
    """
    lhs = P.A.condition_number() * P.eps
    sv = P.sv
    full_rank = bool(sv[-1] > max(P.d, P.A.cols) * np.finfo(np.float64).eps * sv[0])
    note = _ACUTE_NOTES[bool(lhs <= 1.0 + PASS_SLACK), full_rank]
    return BoundReport(BoundId.ACUTE_CRITERION, lhs, 1.0, passed=full_rank,
                       margin=1.0 - lhs, note=note)


# in the order a bound CSV writes them
SUITE_BOUND_IDS = (
    BoundId.GEOM_PRESERVE,
    BoundId.RESIDUAL_SANDWICH,
    BoundId.RESIDUAL_DIRECTION,
    BoundId.COMBINED_RESIDUAL,
    BoundId.NORMAL_RATIO_SKETCHED,
    BoundId.NORMAL_RATIO_CROSS,
    BoundId.BACKWARD_E1,
    BoundId.BACKWARD_E2,
    BoundId.ETA_F_UPPER,
    BoundId.SOLUTION_ERR_REL,
    BoundId.SOLUTION_ERR_LS,
    BoundId.ACUTE_CRITERION,
)


def run_bound_suite(P: SketchedPair) -> List[BoundReport]:
    """The bounds of ``SUITE_BOUND_IDS`` for one (problem, sketch) pair,
    against the pair's own oracle and embedding parameter ``P.eps`` of S
    over span([A b]): a cell's is read from its factors, and the d-row
    reference's defaults to :func:`sketchls.embed.exact_distortion`.  On a
    consistent pair every row but the acute criterion is vacuous."""
    if P.consistent:
        reports = [_vacuous(bound_id, "consistent system") for bound_id in SUITE_BOUND_IDS
                   if bound_id is not BoundId.ACUTE_CRITERION]
    else:
        reports = [check_geometric_preservation(P), *check_residual_bounds(P),
                   *check_explicit_perturbations(P), *check_solution_error(P)]
    return reports + [check_acute_criterion(P)]


BOUND_CSV_COLUMNS = ["bound_id", "lhs", "rhs", "margin", "passed", "seed", "kind",
                     "matrix", "d", "note"]


def write_bound_reports(path, reports: List[BoundReport], seed: int, kind: str,
                        matrix: str, d: int) -> None:
    write_csv(path, BOUND_CSV_COLUMNS, (
        [rep.bound_id.value, rep.lhs, rep.rhs, rep.margin, rep.passed, seed, kind, matrix,
         d, rep.note] for rep in reports))
