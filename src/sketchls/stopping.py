"""Stopping policies for iterative solvers on sketched least-squares problems.

Four modes are provided:

* ``TRADITIONAL`` -- the classical tolerance test on the sketched system,
  ||(SA)^T S r_k|| / (||SA|| ||S r_k||) <= tol.
* ``EPSILON_THRESHOLD`` -- terminate once the unsketched normal-equation ratio
  ||A^T r_k|| / (||A|| ||r_k||) falls below a known embedding parameter
  (oracle runs only; the parameter is not available in production).
* ``STABILIZE_NORMAL_RATIO`` -- fire when the windowed endpoint geometric mean
  of the unsketched normal-equation ratio enters a band around one.
* ``STABILIZE_RESIDUAL`` -- the same rule on the unsketched residual norm.

The stabilization rules detect the plateau where further iterations on the
sketched problem stop improving the original problem, without needing any
estimate of the embedding quality.  They certify different accuracies.  For
any x, ||A^T r|| / (||A|| ||r||) = ||E1|| / ||A||, and x solves the
least-squares problem of A + E1, E1 = -r r^T A / ||r||^2.  That ratio levels
off at its value at the sketched minimizer x_s, so stab-ne certifies x_s's
backward error (``sweep-d``'s ``stop_ratio_rel`` is the ratio at the stop over
its value at x_s).  stab-res targets the residual.  At the CLI's default
residual scale rho = 1e-3 both stop short of ||A x_s - b||: on 2000 x 100
problems (kappa = 100, d = 2n) LSMR's stab-ne stops left ||r_k|| 150-460 times
it, and stab-res stops 2-75 times.  No mode is tied to a solver: a CLI config
holds one policy for every solve.  On those problems stab-res's stop is
decided by rounding: two formations of one SA stop up to about 100
iterations apart.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from .solvers import IterateRecord, Termination


class StopMode(str, enum.Enum):
    TRADITIONAL = "traditional"
    EPSILON_THRESHOLD = "eps"
    STABILIZE_NORMAL_RATIO = "stab-ne"
    STABILIZE_RESIDUAL = "stab-res"


_TERMINATION_OF = {
    StopMode.TRADITIONAL: Termination.TOLERANCE_MET,
    StopMode.EPSILON_THRESHOLD: Termination.TOLERANCE_MET,
    StopMode.STABILIZE_NORMAL_RATIO: Termination.STABILIZED_NORMAL_RATIO,
    StopMode.STABILIZE_RESIDUAL: Termination.STABILIZED_RESIDUAL,
}


@dataclass
class StoppingPolicy:
    mode: StopMode
    tol: float = 0.0
    window: int = 5
    band: Tuple[float, float] = (0.99, 1.01)

    def __post_init__(self):
        self.mode = StopMode(self.mode)
        lo, hi = self.band
        if not (0.0 < lo <= 1.0 <= hi):
            raise ValueError(f"band must satisfy 0 < lo <= 1 <= hi, got {self.band}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")


def traditional_decision(record: IterateRecord, tol: float, op_norm: float) -> bool:
    """Tolerance test on the sketched system's normal-equation ratio."""
    if record.sketched_residual_norm == 0.0:
        return True
    ratio = record.sketched_normal_residual_norm / (op_norm * record.sketched_residual_norm)
    return ratio <= tol


def epsilon_threshold_decision(record: IterateRecord, epsilon: float) -> bool:
    """Unsketched normal-equation ratio against a known embedding parameter.

    A stale record defers the decision to the next fresh evaluation.
    """
    if record.stale:
        return False
    return record.unsketched_normal_ratio <= epsilon


def stabilization_decision(history: Iterable[float], band: Tuple[float, float]) -> bool:
    """Endpoint geometric-mean test on a window of metric values.

    ``history`` holds values v_k .. v_{k+l}; the decision is
    (v_{k+l} / v_k)^(1/l) in [lo, hi].  Shorter histories are undecided.
    """
    values = list(history)
    if len(values) < 2:
        return False
    if any(v <= 0.0 for v in values):
        raise ValueError("stabilization metrics must be positive")
    ell = len(values) - 1
    g = (values[-1] / values[0]) ** (1.0 / ell)
    lo, hi = band
    return lo <= g <= hi


class StoppingController:
    """Per-run evaluation state for a :class:`StoppingPolicy`.

    Feed one :class:`IterateRecord` per iteration; the controller returns the
    matching :class:`Termination` at the first iteration whose decision holds
    and records the window start in ``fired_at``.  Stabilization windows use
    fresh metric values only, so under an observer stride > 1 the effective
    window spans stride * window iterations.
    """

    def __init__(self, policy: StoppingPolicy, op_norm: float = math.nan,
                 epsilon: float = math.nan):
        self.policy = policy
        self.op_norm = op_norm
        self.epsilon = epsilon
        self.fired_at: Optional[int] = None
        self._buffer: deque = deque(maxlen=policy.window + 1)
        if policy.mode is StopMode.TRADITIONAL and math.isnan(op_norm):
            raise ValueError("traditional policy needs the sketched operator norm")
        if policy.mode is StopMode.EPSILON_THRESHOLD and math.isnan(epsilon):
            raise ValueError("epsilon-threshold policy needs the embedding parameter")

    def feed(self, record: IterateRecord) -> Optional[Termination]:
        mode = self.policy.mode
        start = None
        if mode is StopMode.TRADITIONAL:
            if traditional_decision(record, self.policy.tol, self.op_norm):
                start = record.k
        elif mode is StopMode.EPSILON_THRESHOLD:
            if epsilon_threshold_decision(record, self.epsilon):
                start = record.k
        elif not record.stale:
            value = (record.unsketched_residual_norm if mode is StopMode.STABILIZE_RESIDUAL
                     else record.unsketched_normal_ratio)
            if not math.isnan(value):
                self._buffer.append((record.k, value))
                if len(self._buffer) > self.policy.window and stabilization_decision(
                        [v for _, v in self._buffer], self.policy.band):
                    start = self._buffer[0][0]
        if start is None:
            return None
        self.fired_at = start
        return _TERMINATION_OF[mode]
