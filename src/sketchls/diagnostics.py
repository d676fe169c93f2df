"""Bound checks and backward-error computations for sketched least squares.

:func:`run_bound_suite` evaluates the bounds of ``SUITE_BOUND_IDS`` that
relate the original and sketched problems; these are the bounds a bound CSV
holds.  Three checks stay out of the suite and run only in the tests:

- :func:`check_eta_f_upper` (EtaFUpper) needs an m-by-m symmetric
  eigensolve and refuses m above ``ETA_F_ROWS_GUARD``;
- :func:`check_pseudoinverse_perturbation` (PinvPerturb, PinvNonAcute) takes
  dense pseudoinverses and refuses m*n above ``PINV_SIZE_GUARD``;
- :func:`e1_minimizer_gap` is a measured gap, not a bound, and costs a fresh
  QR of an m-by-n matrix per sketch.

The suite's bounds are evaluated against quantities computed by independent
dense factorizations: the reference solution comes from
:func:`sketchls.matio.solve_ls_oracle`, the sketched minimizer from a dense
pivoted QR of (SA, Sb), and the embedding parameter from
:func:`sketchls.embed.exact_distortion`.  The checks of one (problem, sketch)
pair read one :class:`SketchedProblem`, which forms SA, Sb, the singular
values of SA, the sketched minimizer and its residual once each.  Each check
yields a :class:`BoundReport` with the measured left-hand side, the bound,
and a pass/fail margin; bounds whose hypotheses are void (zero residual,
embedding parameter >= 1) are reported as vacuous passes with a note.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np
import scipy.linalg

from . import embed
from .matio import LsOracle, MatrixHandle, qr_ls_solve

PASS_SLACK = 1e-10
CONSISTENT_THRESHOLD = 1e-12
# a measured left-hand side this far below its natural scale is evaluation
# noise; the inequality holds to working precision (identity-double cases)
NOISE_FLOOR_REL = 1e-12
ETA_F_ROWS_GUARD = 2000
PINV_SIZE_GUARD = 10_000


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
    PINV_PERTURB = "PinvPerturb"
    PINV_NON_ACUTE = "PinvNonAcute"


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
    negative_branch: bool = False


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


def sandwich_multiplier(eps: float) -> float:
    """sqrt((1+eps)/(1-eps)); infinite once the lower embedding bound is void."""
    if eps >= 1.0:
        return math.inf
    return math.sqrt((1.0 + eps) / (1.0 - eps))


def direction_bound(eps: float) -> float:
    """sqrt(2 eps / (1-eps)); infinite once the lower embedding bound is void."""
    if eps >= 1.0:
        return math.inf
    return math.sqrt(2.0 * eps / (1.0 - eps))


def combined_direction_bound(eps: float, kappa: float) -> float:
    return min(direction_bound(eps), kappa ** 2 * eps * sandwich_multiplier(eps))


class SketchedProblem:
    """The sketched problem min ||S(Ax - b)|| of one (problem, sketch) pair.

    Each quantity is computed on first use and kept, so the solver set-up and
    every bound check of the pair share one SA, one Sb, one SVD of SA, one
    sketched minimizer x_s and one residual r_s with its ||A^T r_s||.  SA
    and Sb may be given, as :func:`sketchls.embed.sketch_operands` forms
    them with the sketch.
    """

    def __init__(self, A: MatrixHandle, b: np.ndarray, S: embed.SketchOperator,
                 SA: Optional[np.ndarray] = None, Sb: Optional[np.ndarray] = None):
        self.A = A
        self.b = np.asarray(b, dtype=np.float64)
        self.S = S
        if SA is not None:
            self.SA = SA
        if Sb is not None:
            self.Sb = Sb

    @cached_property
    def SA(self) -> np.ndarray:
        return embed.apply(self.S, self.A)

    @cached_property
    def Sb(self) -> np.ndarray:
        return embed.apply(self.S, self.b)

    @cached_property
    def sv(self) -> np.ndarray:
        """Singular values of SA, largest first."""
        return scipy.linalg.svd(self.SA, compute_uv=False)

    @property
    def norm_SA(self) -> float:
        return float(self.sv[0])

    @cached_property
    def x_s(self) -> np.ndarray:
        """Exact minimizer of ||S(Ax - b)|| by dense pivoted QR of (SA, Sb)."""
        return qr_ls_solve(self.SA, self.Sb)

    @cached_property
    def r_s(self) -> np.ndarray:
        """Unsketched residual A x_s - b of the sketched minimizer."""
        return self.A.matvec(self.x_s) - self.b

    @cached_property
    def atr_s_norm(self) -> float:
        """||A^T r_s||."""
        return float(np.linalg.norm(self.A.rmatvec(self.r_s)))


def solve_sketched(A: MatrixHandle, b: np.ndarray, S: embed.SketchOperator) -> np.ndarray:
    """Exact minimizer of ||S(Ax - b)|| by dense pivoted QR of the sketched pair."""
    return SketchedProblem(A, b, S).x_s


def check_geometric_preservation(A: MatrixHandle, b: np.ndarray, S: embed.SketchOperator,
                                 y: np.ndarray, eps: float) -> BoundReport:
    """||A^T (S^T S - I)(Ay - b)|| <= eps ||A|| ||Ay - b|| for any y."""
    r = A.matvec(y) - b
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        return _vacuous(BoundId.GEOM_PRESERVE, "zero residual at y")
    w = embed.apply_adjoint(S, embed.apply(S, r)) - r
    lhs = float(np.linalg.norm(A.rmatvec(w)))
    norm_A = A.spectral_norm()
    return _report(BoundId.GEOM_PRESERVE, lhs, eps * norm_A * rnorm,
                   noise_floor=NOISE_FLOOR_REL * norm_A * rnorm)


def check_residual_bounds(P: SketchedProblem, oracle: LsOracle,
                          eps: float) -> List[BoundReport]:
    """Residual-size, residual-direction, and normal-equation ratio bounds.

    The checks use the exact sketched minimizer ``P.x_s`` (not an iterate) so
    they probe the analysis rather than solver error.
    """
    A, b, S = P.A, P.b, P.S
    r_ls = oracle.r_ls
    r_s = P.r_s
    rs_norm = float(np.linalg.norm(r_s))
    rls_norm = oracle.r_ls_norm
    norm_A = A.spectral_norm()
    kappa = A.condition_number()
    reports: List[BoundReport] = []

    consistent = rls_norm <= CONSISTENT_THRESHOLD * float(np.linalg.norm(b))
    if consistent:
        # both residuals are rounding noise; every ratio is 0/0
        for bound_id in (BoundId.RESIDUAL_SANDWICH, BoundId.RESIDUAL_DIRECTION,
                         BoundId.COMBINED_RESIDUAL, BoundId.NORMAL_RATIO_SKETCHED,
                         BoundId.NORMAL_RATIO_CROSS):
            reports.append(_vacuous(bound_id, "consistent system"))
        return reports

    reports.append(_report(BoundId.RESIDUAL_SANDWICH, rs_norm,
                           sandwich_multiplier(eps) * rls_norm))
    direction = float(np.linalg.norm(r_ls - r_s)) / rls_norm
    reports.append(_report(BoundId.RESIDUAL_DIRECTION, direction, direction_bound(eps),
                           noise_floor=NOISE_FLOOR_REL))
    reports.append(_report(BoundId.COMBINED_RESIDUAL, direction,
                           combined_direction_bound(eps, kappa),
                           noise_floor=NOISE_FLOOR_REL))

    if rs_norm == 0.0:
        reports.append(_vacuous(BoundId.NORMAL_RATIO_SKETCHED, "zero sketched residual"))
    else:
        lhs = P.atr_s_norm / (norm_A * rs_norm)
        reports.append(_report(BoundId.NORMAL_RATIO_SKETCHED, lhs, eps,
                               noise_floor=NOISE_FLOOR_REL))

    Srls = embed.apply(S, r_ls)
    srls_norm = float(np.linalg.norm(Srls))
    if srls_norm == 0.0:
        reports.append(_vacuous(BoundId.NORMAL_RATIO_CROSS, "zero sketched residual"))
    else:
        lhs = float(np.linalg.norm(P.SA.T @ Srls)) / (P.norm_SA * srls_norm)
        rhs = eps / (1.0 - eps) if eps < 1.0 else math.inf
        reports.append(_report(BoundId.NORMAL_RATIO_CROSS, lhs, rhs,
                               noise_floor=NOISE_FLOOR_REL))
    return reports


def pythagorean_gap(oracle: LsOracle, r_s: np.ndarray) -> float:
    """| ||r_ls - r_s||^2 - (||r_s||^2 - ||r_ls||^2) | relative to ||r_ls||^2."""
    rs_norm_sq = float(np.linalg.norm(r_s)) ** 2
    rls_norm_sq = oracle.r_ls_norm ** 2
    diff_sq = float(np.linalg.norm(oracle.r_ls - r_s)) ** 2
    return abs(diff_sq - (rs_norm_sq - rls_norm_sq)) / rls_norm_sq


def compute_eta_f(A: MatrixHandle, b: np.ndarray, x_bar: np.ndarray,
                  theta: float = math.inf) -> BackwardErrorResult:
    """Minimal normwise backward error of a candidate solution.

    Two-branch formula: eta = gamma sqrt(mu) when lambda_star >= 0, else
    sqrt(gamma^2 mu + lambda_star), with lambda_star the smallest eigenvalue
    of A A^T - mu r r^T / ||x||^2 and mu = theta^2||x||^2/(1+theta^2||x||^2).
    theta = inf perturbs A only (mu = 1).  Dense symmetric eigensolve; rows
    are guarded at desk scale.
    """
    if A.rows > ETA_F_ROWS_GUARD:
        raise ValueError(f"eta_f guard: m = {A.rows} exceeds {ETA_F_ROWS_GUARD}")
    x_bar = np.asarray(x_bar, dtype=np.float64)
    xnorm = float(np.linalg.norm(x_bar))
    if xnorm == 0.0:
        raise ValueError("x_bar must be nonzero")
    mu = 1.0 if math.isinf(theta) else theta ** 2 * xnorm ** 2 / (1.0 + theta ** 2 * xnorm ** 2)
    r = A.matvec(x_bar) - np.asarray(b, dtype=np.float64)
    rnorm = float(np.linalg.norm(r))
    gamma = rnorm / xnorm

    Ad = A.dense()
    M = Ad @ Ad.T - (mu / xnorm ** 2) * np.outer(r, r)
    lam = float(scipy.linalg.eigh(M, eigvals_only=True, subset_by_index=(0, 0))[0])
    # an eigenvalue within solver noise of zero is the nonnegative branch
    branch_floor = -1e-13 * (A.spectral_norm() ** 2 + mu * gamma ** 2)
    negative = lam < branch_floor
    if negative:
        eta = math.sqrt(max(gamma ** 2 * mu + lam, 0.0))
    else:
        eta = gamma * math.sqrt(mu)
    upper = float(np.linalg.norm(A.rmatvec(r))) / rnorm if rnorm > 0.0 else 0.0
    return BackwardErrorResult(eta_f=eta, lambda_star=lam, mu=mu, gamma=gamma,
                               upper_bound=upper, negative_branch=negative)


def check_eta_f_upper(A: MatrixHandle, b: np.ndarray, x_bar: np.ndarray,
                      theta: float = math.inf) -> BoundReport:
    """eta_F(x_bar) <= ||A^T r|| / ||r||, sharp in the inconsistent case."""
    result = compute_eta_f(A, b, x_bar, theta)
    if not result.negative_branch:
        return _vacuous(BoundId.ETA_F_UPPER, "lambda_star >= 0 (consistent branch)")
    return _report(BoundId.ETA_F_UPPER, result.eta_f, result.upper_bound)


def check_explicit_perturbations(P: SketchedProblem, oracle: LsOracle,
                                 eps: float) -> List[BoundReport]:
    """Norm bounds on the two explicit backward perturbations carrying x_s.

    ||E1|| = ||A^T r_s|| / ||r_s|| <= eps ||A|| (rank-one norm identity) and
    ||E2|| = ||r_ls - r_s|| / ||x_s|| <= (||r_ls|| / ||x_s||) sqrt(2eps/(1-eps)).
    """
    A, b, x_s, r_s = P.A, P.b, P.x_s, P.r_s
    rs_norm = float(np.linalg.norm(r_s))
    xs_norm = float(np.linalg.norm(x_s))
    norm_A = A.spectral_norm()
    reports: List[BoundReport] = []
    if rs_norm <= CONSISTENT_THRESHOLD * float(np.linalg.norm(b)):
        reports.append(_vacuous(BoundId.BACKWARD_E1, "zero sketched residual"))
    else:
        lhs = P.atr_s_norm / rs_norm
        reports.append(_report(BoundId.BACKWARD_E1, lhs, eps * norm_A,
                               noise_floor=NOISE_FLOOR_REL * norm_A))
    if xs_norm == 0.0:
        reports.append(_vacuous(BoundId.BACKWARD_E2, "zero sketched solution"))
    else:
        lhs = float(np.linalg.norm(oracle.r_ls - r_s)) / xs_norm
        rhs = (oracle.r_ls_norm / xs_norm) * direction_bound(eps)
        reports.append(_report(BoundId.BACKWARD_E2, lhs, rhs,
                               noise_floor=NOISE_FLOOR_REL * oracle.r_ls_norm / xs_norm))
    return reports


def e1_minimizer_gap(A: MatrixHandle, b: np.ndarray, x_s: np.ndarray) -> float:
    """Relative distance between x_s and the exact minimizer of the
    E1-perturbed problem; small values confirm x_s solves (A+E1, b)."""
    b = np.asarray(b, dtype=np.float64)
    r_s = A.matvec(x_s) - b
    rs_norm_sq = float(r_s @ r_s)
    if rs_norm_sq == 0.0:
        return 0.0
    Ad = A.dense()
    E1 = -np.outer(r_s, r_s @ Ad) / rs_norm_sq
    x_check = qr_ls_solve(Ad + E1, b)
    return float(np.linalg.norm(x_check - x_s) / np.linalg.norm(x_s))


def check_solution_error(P: SketchedProblem, oracle: LsOracle,
                         eps: float) -> List[BoundReport]:
    """Relative solution-error bounds in terms of eps, kappa(A), and residual size."""
    A = P.A
    kappa = A.condition_number()
    norm_A = A.spectral_norm()
    x_s = P.x_s
    err = float(np.linalg.norm(oracle.x_ls - x_s))
    xs_norm = float(np.linalg.norm(x_s))
    xls_norm = float(np.linalg.norm(oracle.x_ls))
    reports: List[BoundReport] = []
    if xs_norm == 0.0:
        reports.append(_vacuous(BoundId.SOLUTION_ERR_REL, "zero sketched solution"))
    else:
        rhs = kappa ** 2 * eps * float(np.linalg.norm(P.r_s)) / (norm_A * xs_norm)
        reports.append(_report(BoundId.SOLUTION_ERR_REL, err / xs_norm, rhs,
                               noise_floor=NOISE_FLOOR_REL))
    if xls_norm == 0.0:
        reports.append(_vacuous(BoundId.SOLUTION_ERR_LS, "zero reference solution"))
    else:
        rhs = kappa ** 2 * eps * sandwich_multiplier(eps) * oracle.r_ls_norm / (norm_A * xls_norm)
        reports.append(_report(BoundId.SOLUTION_ERR_LS, err / xls_norm, rhs,
                               noise_floor=NOISE_FLOOR_REL))
    return reports


def check_acute_criterion(P: SketchedProblem, eps: float) -> BoundReport:
    """kappa(A) * eps < 1 guarantees an acute (rank-preserving) embedding.

    The criterion is sufficient, not necessary: when it fails but SA still has
    full column rank (verified by the singular values ``P.sv``), the report
    carries a note instead of counting as a bound violation.
    """
    kappa = P.A.condition_number()
    lhs = kappa * eps
    sv = P.sv
    full_rank = bool(sv[-1] > max(P.SA.shape) * np.finfo(np.float64).eps * sv[0])
    report = _report(BoundId.ACUTE_CRITERION, lhs, 1.0)
    if report.passed and not full_rank:
        return BoundReport(BoundId.ACUTE_CRITERION, lhs, 1.0, passed=False,
                           margin=1.0 - lhs, note="criterion met but SA rank deficient")
    if not report.passed and full_rank:
        return BoundReport(BoundId.ACUTE_CRITERION, lhs, 1.0, passed=True,
                           margin=1.0 - lhs,
                           note="sufficient-not-necessary: rank(SA) full despite kappa*eps >= 1")
    if not full_rank:
        report.note = "rank(SA) deficient"
    return report


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
        return _report(BoundId.PINV_PERTURB, diff, 0.0, note="zero perturbation")
    if rank_a == rank_t == A.shape[1]:
        rhs = math.sqrt(2.0) * float(np.linalg.norm(pinv_t, 2)) * float(np.linalg.norm(pinv_a, 2)) * enorm
        return _report(BoundId.PINV_PERTURB, diff, rhs)
    return _report(BoundId.PINV_NON_ACUTE, 1.0 / enorm, diff,
                   note="rank mismatch: non-acute lower bound")


SUITE_BOUND_IDS = (
    BoundId.GEOM_PRESERVE,
    BoundId.RESIDUAL_SANDWICH,
    BoundId.RESIDUAL_DIRECTION,
    BoundId.NORMAL_RATIO_SKETCHED,
    BoundId.NORMAL_RATIO_CROSS,
    BoundId.BACKWARD_E1,
    BoundId.BACKWARD_E2,
    BoundId.SOLUTION_ERR_REL,
    BoundId.SOLUTION_ERR_LS,
    BoundId.COMBINED_RESIDUAL,
    BoundId.ACUTE_CRITERION,
)


def run_bound_suite(P: SketchedProblem, oracle: LsOracle, eps: float) -> List[BoundReport]:
    """The bounds of ``SUITE_BOUND_IDS`` for one (problem, sketch) pair with
    oracle quantities.

    ``eps`` is the :func:`sketchls.embed.exact_distortion` parameter of S over
    span([A b]).
    """
    reports = [check_geometric_preservation(P.A, P.b, P.S, P.x_s, eps)]
    reports.extend(check_residual_bounds(P, oracle, eps))
    reports.extend(check_explicit_perturbations(P, oracle, eps))
    reports.extend(check_solution_error(P, oracle, eps))
    reports.append(check_acute_criterion(P, eps))
    return reports


BOUND_CSV_COLUMNS = ["bound_id", "lhs", "rhs", "margin", "passed", "seed", "kind",
                     "matrix", "d", "note"]


def write_bound_reports(path, reports: List[BoundReport], seed: int, kind: str,
                        matrix: str, d: int) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUND_CSV_COLUMNS)
        for rep in reports:
            writer.writerow([
                rep.bound_id.value,
                f"{rep.lhs:.17g}",
                f"{rep.rhs:.17g}",
                f"{rep.margin:.17g}",
                int(rep.passed),
                seed,
                kind,
                matrix,
                d,
                rep.note,
            ])
