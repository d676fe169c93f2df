"""Sketch-and-solve least squares toolkit.

Builds randomized subspace embeddings (Gaussian, SRHT, sparse), solves the
sketched problem with LSQR/LSMR under stabilization-based stopping rules, and
verifies the residual, solution-error, and backward-error bounds connecting
the sketched and original problems against exact desk-scale oracles.

The package re-exports nothing and importing it loads no module, numpy
included; import the modules themselves (``sketchls.cli``, ``embed``,
``matio``, ``solvers``, ``stopping``, ``diagnostics``).
"""

__version__ = "0.1.0"
