"""Sketch-and-solve least squares toolkit.

Builds randomized subspace embeddings (Gaussian, SRHT, sparse), solves the
sketched problem with LSQR/LSMR under stabilization-based stopping rules, and
verifies the residual, solution-error, and backward-error bounds connecting
the sketched and original problems against exact desk-scale oracles.
"""

from .embed import (
    DistortionReport,
    SketchKind,
    SketchOperator,
    apply,
    apply_adjoint,
    build_sketch,
    exact_distortion,
    fwht,
    materialize,
)
from .matio import (
    LsOracle,
    MatrixHandle,
    load_matrix_market,
    save_matrix_market,
    solve_ls_oracle,
    spectral_norms,
    synthesize_matrix,
    synthesize_problem,
)
from .solvers import (
    IterateRecord,
    LinearOperatorView,
    MetricsObserver,
    SolveResult,
    Termination,
    lsmr,
    lsqr,
)
from .stopping import (
    StopMode,
    StoppingController,
    StoppingPolicy,
    recommend_policy,
)
from .diagnostics import (
    BackwardErrorResult,
    BoundId,
    BoundReport,
    SketchedProblem,
    compute_eta_f,
    run_bound_suite,
    solve_sketched,
)

__version__ = "0.1.0"
