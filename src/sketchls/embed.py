"""Randomized subspace embeddings: Gaussian, SRHT, and sparse (one +-1 per column).

All three operators are unbiased, E||Sx||^2 = ||x||^2:

* Gaussian entries are N(0, 1/d).  G is drawn ``GAUSSIAN_BLOCK_ROWS`` rows
  at a time from the one Philox stream of (seed, d, m).  ``standard_normal``
  fills a C-order array in row-major order and the scale is an elementwise
  divide, so the blocks hold the bits of the single (d, m) draw.
  :func:`sketch_operands` draws them on a worker thread while the calling
  thread multiplies each finished block into every matrix operand, and
  :func:`apply` multiplies a matrix by the same row blocks, one GEMM each,
  so the two agree bit for bit on any BLAS.  (A block's GEMM equals the same
  rows of one whole GEMM only where the BLAS kernel does not depend on the
  row count, as with OpenBLAS on one thread at the bench sizes; a one-row
  block or a small-matrix kernel breaks it.)  A vector is multiplied by the
  whole of G once the draw is done: a row-blocked GEMV is not bit-identical
  to the whole one, and one GEMV is cheap.
* SRHT composes random signs, an unnormalized Walsh-Hadamard transform on the
  zero-padded input (H^T H = m' I), uniform row sampling without replacement,
  and a 1/sqrt(d) scale.  Sampling without replacement makes the distortion
  fall faster than 1/sqrt(d) once d/m' is not small, by the factor
  sqrt(1 - d/m'); d = m' gives an exact isometry.
* The sparse operator is a CountSketch (Clarkson & Woodruff 2013): each
  coordinate goes to one uniformly chosen row with a random sign, and no
  scaling is needed.  It is applied as a d x m CSR matrix with one entry per
  column, so a CSR operand is sketched sparse times sparse and only the
  d-row result is dense.

:func:`exact_distortion` measures the tight embedding parameter over
span([A b]) by an SVD of the sketched orthonormal basis
(:func:`basis_distortion`); it is the oracle against which every analytic
bound in :mod:`sketchls.diagnostics` is checked.
The basis (:func:`subspace_basis`) is the Q of A's cached pivoted QR plus the
unit component of b orthogonal to it, so one factorization of A serves every
right-hand side and sketch of that matrix.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse

from .matio import MatrixHandle
from .rng import rademacher, stream


class SketchKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    SRHT = "srht"
    SPARSE = "sparse"


@dataclass(frozen=True)
class GaussianPayload:
    matrix: np.ndarray  # d x m, entries N(0, 1/d)


@dataclass(frozen=True)
class SrhtPayload:
    padded_len: int          # next power of two >= m
    signs: np.ndarray        # +-1, length padded_len
    indices: np.ndarray      # d distinct row indices in [0, padded_len)


@dataclass(frozen=True)
class SparsePayload:
    rows: np.ndarray   # target row per column, length m
    signs: np.ndarray  # +-1 per column, length m


@dataclass(frozen=True)
class SketchOperator:
    kind: SketchKind
    d: int
    m: int
    seed: int
    payload: Union[GaussianPayload, SrhtPayload, SparsePayload]


@dataclass
class DistortionReport:
    epsilon: float
    sigma_max_sq: float
    sigma_min_sq: float
    subspace_dim: int
    rank_loss: bool


def next_pow2(m: int) -> int:
    p = 1
    while p < m:
        p *= 2
    return p


# rows of G per draw and per GEMM; any value gives the same G
GAUSSIAN_BLOCK_ROWS = 64


def _row_blocks(d: int) -> List[slice]:
    return [slice(start, min(start + GAUSSIAN_BLOCK_ROWS, d))
            for start in range(0, d, GAUSSIAN_BLOCK_ROWS)]


def _check_shape(d: int, m: int) -> None:
    if d < 1:
        raise ValueError("d must be positive")
    if d >= m:
        raise ValueError(f"need d < m, got d={d}, m={m}")


def _draw_gaussian(gen: np.random.Generator, G: np.ndarray,
                   drawn: Sequence[threading.Event] = (),
                   stop: Optional[threading.Event] = None) -> None:
    """Fill the C-order d x m array G with N(0, 1/d) entries from ``gen``,
    block by block, setting ``drawn[i]`` after block i.

    Only the numpy fill and scale run here, so a worker thread may call it.
    ``stop`` ends the draw before its next block.
    """
    scale = np.sqrt(G.shape[0])
    for i, rows in enumerate(_row_blocks(G.shape[0])):
        if stop is not None and stop.is_set():
            return
        block = G[rows]
        gen.standard_normal(out=block)
        block /= scale
        if drawn:
            drawn[i].set()


def build_sketch(kind: Union[SketchKind, str], d: int, m: int, seed: int) -> SketchOperator:
    """Deterministically construct an embedding operator from (kind, d, m, seed).

    The Gaussian G is drawn in row blocks (:func:`_draw_gaussian`), the same
    draw as :func:`sketch_operands` makes; the blocks come from one Philox
    stream in order, so G is bit for bit the single (d, m) draw.
    """
    kind = SketchKind(kind)
    _check_shape(d, m)
    if kind is SketchKind.GAUSSIAN:
        mat = np.empty((d, m))
        _draw_gaussian(stream(seed, "gaussian", d, m), mat)
        payload = GaussianPayload(matrix=mat)
    elif kind is SketchKind.SRHT:
        mp = next_pow2(m)
        signs = rademacher(stream(seed, "srht", "signs", m), mp)
        indices = stream(seed, "srht", "sample", m).choice(mp, size=d, replace=False)
        payload = SrhtPayload(padded_len=mp, signs=signs, indices=np.sort(indices))
    else:
        gen_rows = stream(seed, "sparse", "rows", m)
        rows = gen_rows.integers(0, d, size=m)
        signs = rademacher(stream(seed, "sparse", "signs", m), m)
        payload = SparsePayload(rows=rows, signs=signs)
    return SketchOperator(kind=kind, d=d, m=m, seed=seed, payload=payload)


def identity_sketch(m: int) -> SketchOperator:
    """Degenerate d = m operator equal to the identity; verification double."""
    payload = SparsePayload(rows=np.arange(m), signs=np.ones(m))
    return SketchOperator(kind=SketchKind.SPARSE, d=m, m=m, seed=0, payload=payload)


def fwht(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 0.

    Uses the Sylvester ordering; applying twice multiplies by the length.
    The length must be a power of two and the array C-contiguous.
    """
    n = v.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length {n} is not a power of two")
    if not v.flags.c_contiguous:
        raise ValueError("fwht operates in place and needs a C-contiguous array")
    h = 1
    while h < n:
        blocks = v.reshape((n // (2 * h), 2, h) + v.shape[1:])
        lo, hi = blocks[:, 0], blocks[:, 1]
        a = lo.copy()
        np.add(a, hi, out=lo)
        np.subtract(a, hi, out=hi)
        h *= 2
    return v


def _operand(X, keep_sparse: bool = False):
    """X as a float64 array, or as a sparse matrix if X is sparse and keep_sparse."""
    if isinstance(X, MatrixHandle):
        return X.csr() if keep_sparse and X.is_sparse else X.dense()
    if scipy.sparse.issparse(X):
        return X if keep_sparse else X.toarray()
    return np.asarray(X, dtype=np.float64)


def _countsketch_matrix(S: SketchOperator) -> scipy.sparse.csr_matrix:
    """The sparse kind as a d x m CSR matrix: entry signs[j] at (rows[j], j).

    Within each row the column indices ascend, so a product with it adds the
    terms of each output entry in the order of the coordinates.
    """
    p = S.payload
    order = np.argsort(p.rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(p.rows, minlength=S.d))])
    return scipy.sparse.csr_matrix((p.signs[order], order, indptr), shape=(S.d, S.m))


def apply(S: SketchOperator, X) -> np.ndarray:
    """Compute S @ X for a vector or matrix X with S.m rows.

    X may be an array, a :class:`MatrixHandle` or a scipy sparse matrix.  The
    sparse kind multiplies a sparse operand without densifying it; the
    Gaussian and SRHT kinds densify X first.  A Gaussian product with a
    matrix is formed one row block of G at a time, as in
    :func:`sketch_operands`.
    """
    p = S.payload
    X = _operand(X, keep_sparse=isinstance(p, SparsePayload))
    if X.shape[0] != S.m:
        raise ValueError(f"operand has {X.shape[0]} rows, operator expects {S.m}")
    if isinstance(p, SparsePayload):
        SX = _countsketch_matrix(S) @ X
        return SX.toarray() if scipy.sparse.issparse(SX) else SX
    if isinstance(p, GaussianPayload):
        if X.ndim == 1:
            return p.matrix @ X
        out = np.empty((S.d, X.shape[1]))
        for rows in _row_blocks(S.d):
            np.matmul(p.matrix[rows], X, out=out[rows])
        return out
    Y = np.zeros((p.padded_len,) + X.shape[1:])
    signs_in = p.signs[: S.m]
    Y[: S.m] = X * (signs_in[:, None] if X.ndim == 2 else signs_in)
    fwht(Y)
    return Y[p.indices] / np.sqrt(S.d)


def sketch_operands(kind: Union[SketchKind, str], d: int, m: int, seed: int,
                    operands: Sequence) -> Tuple[SketchOperator, List[Optional[np.ndarray]]]:
    """``build_sketch(kind, d, m, seed)`` and its product with each operand.

    An operand is anything :func:`apply` takes, or None, whose product is
    None.  The products are bit for bit those of :func:`apply`.  For the
    Gaussian kind a worker thread draws G one row block at a time while this
    thread multiplies each finished block into every matrix operand; vectors
    are multiplied once the draw is done.  The worker is joined before this
    returns or raises, and an error of the draw is raised here.
    """
    if SketchKind(kind) is not SketchKind.GAUSSIAN:
        S = build_sketch(kind, d, m, seed)
        return S, [None if X is None else apply(S, X) for X in operands]
    _check_shape(d, m)
    G = np.empty((d, m))
    gen = stream(seed, "gaussian", d, m)
    blocks = _row_blocks(d)
    drawn = [threading.Event() for _ in blocks]
    stop = threading.Event()
    failure: List[BaseException] = []

    def draw():
        try:
            _draw_gaussian(gen, G, drawn, stop)
        except BaseException as exc:  # noqa: BLE001 - raised again by the caller
            failure.append(exc)
        finally:
            for event in drawn:
                event.set()

    worker = threading.Thread(target=draw, name="gaussian-draw", daemon=True)
    worker.start()
    try:
        arrays = [None if X is None else _operand(X) for X in operands]
        for X in arrays:
            if X is not None and X.shape[0] != m:
                raise ValueError(f"operand has {X.shape[0]} rows, operator expects {m}")
        outs = [np.empty((d, X.shape[1])) if X is not None and X.ndim == 2 else None
                for X in arrays]
        for rows, event in zip(blocks, drawn):
            event.wait()
            if failure:
                break
            for X, out in zip(arrays, outs):
                if out is not None:
                    np.matmul(G[rows], X, out=out[rows])
    finally:
        stop.set()
        worker.join()
    if failure:
        raise failure[0]
    S = SketchOperator(kind=SketchKind.GAUSSIAN, d=d, m=m, seed=seed,
                       payload=GaussianPayload(matrix=G))
    return S, [apply(S, X) if X is not None and out is None else out
               for X, out in zip(arrays, outs)]


def apply_adjoint(S: SketchOperator, U) -> np.ndarray:
    """Compute S^T @ U for a vector or matrix U with S.d rows."""
    U = _operand(U)
    if U.shape[0] != S.d:
        raise ValueError(f"operand has {U.shape[0]} rows, operator expects {S.d}")
    p = S.payload
    if isinstance(p, GaussianPayload):
        return p.matrix.T @ U
    if isinstance(p, SrhtPayload):
        Y = np.zeros((p.padded_len,) + U.shape[1:])
        Y[p.indices] = U
        fwht(Y)  # Sylvester Hadamard matrices are symmetric
        Y = Y[: S.m]
        signs_in = p.signs[: S.m]
        return Y * (signs_in[:, None] if U.ndim == 2 else signs_in) / np.sqrt(S.d)
    out = U[p.rows]
    return out * (p.signs[:, None] if U.ndim == 2 else p.signs)


MATERIALIZE_GUARD = 10_000_000


def materialize(S: SketchOperator) -> np.ndarray:
    """Explicit dense d x m matrix of the operator; oracle for :func:`apply`.

    Each kind is assembled from its defining formula rather than through the
    fast application path.
    """
    if S.d * S.m > MATERIALIZE_GUARD:
        raise ValueError(f"materialize guard: d*m = {S.d * S.m} exceeds {MATERIALIZE_GUARD}")
    p = S.payload
    if isinstance(p, GaussianPayload):
        return p.matrix.copy()
    if isinstance(p, SrhtPayload):
        H = scipy.linalg.hadamard(p.padded_len).astype(np.float64)
        full = (H[p.indices] * p.signs[None, :]) / np.sqrt(S.d)
        return full[:, : S.m]
    out = np.zeros((S.d, S.m))
    out[p.rows, np.arange(S.m)] = p.signs
    return out


def subspace_basis(A: MatrixHandle, b: np.ndarray
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Orthonormal basis of span([A b]) as a pair ``(Q, q)``, rank trimmed.

    ``Q`` is the Q of A's cached pivoted QR (:meth:`MatrixHandle.qr_factor`),
    so every b of one matrix shares it; ``q`` is the unit component of b
    orthogonal to range(Q), or None when b lies in it.  The floor of both
    trims is the SVD rank floor max(m, n + 1) * u * scale, with
    scale = max(|R_11|, ||b||) standing in for ||[A b]||: a column of Q goes
    when its R diagonal entry is below it, and q when the norm of b's
    orthogonal component is.  That component comes from two projection
    passes, so ``[Q q]`` is orthonormal to working precision (twice is
    enough); on an ill-conditioned span([A b]) it is no less accurate than an
    SVD of [A b], and no m-by-(n + 1) array is formed.
    """
    Q, R, _ = A.qr_factor()
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(abs(R[0, 0])), float(np.linalg.norm(b)))
    if scale == 0.0:
        raise ValueError("zero subspace")
    floor = max(A.rows, A.cols + 1) * np.finfo(np.float64).eps * scale
    Q = Q[:, : int(np.sum(np.abs(np.diag(R)) > floor))]
    w = b - Q @ (Q.T @ b)
    w -= Q @ (Q.T @ w)
    w_norm = float(np.linalg.norm(w))
    return Q, (w / w_norm if w_norm > floor else None)


def basis_distortion(SQ: np.ndarray, Sq: Optional[np.ndarray]) -> DistortionReport:
    """Tight embedding parameter of a sketch S over span([A b]), from the
    sketched basis: ``SQ`` and ``Sq`` are S applied to the two parts of
    ``subspace_basis(A, b)`` (``Sq`` None when q is).

    Returns eps = max(sigma_max^2 - 1, 1 - sigma_min^2) over the singular
    values of [SQ Sq]; this is the smallest value for which the two-sided
    embedding inequality holds there.  A rank_loss flag marks sketches that
    annihilate part of the subspace.  The SVD is of a d-by-dim matrix only.
    """
    if Sq is not None:
        SQ = np.column_stack([SQ, Sq])
    d, dim = SQ.shape
    if dim > d:
        raise ValueError(f"subspace dimension {dim} exceeds sketch rows {d}")
    sv = scipy.linalg.svd(SQ, compute_uv=False)
    smax_sq = float(sv[0] ** 2)
    smin_sq = float(sv[-1] ** 2)
    eps = max(smax_sq - 1.0, 1.0 - smin_sq)
    rank_loss = sv[-1] <= np.finfo(np.float64).eps * max(d, dim) * sv[0]
    return DistortionReport(
        epsilon=eps,
        sigma_max_sq=smax_sq,
        sigma_min_sq=smin_sq,
        subspace_dim=dim,
        rank_loss=rank_loss,
    )


def exact_distortion(S: SketchOperator, A: MatrixHandle, b: np.ndarray,
                     basis: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None
                     ) -> DistortionReport:
    """Tight embedding parameter of S over span([A b]) (:func:`basis_distortion`).

    ``basis`` is ``subspace_basis(A, b)``, computed here when not given;
    passing it lets many sketches of one problem share it.  Its two parts
    are sketched one by one.  The basis is orthonormal to working precision,
    so eps is good to about 1e-13 relative on a well-conditioned span([A b]);
    when b is nearly in range(A) the subspace itself is ill conditioned, and
    any double-precision basis, so eps, is good to about u * cond([A b]) at
    worst.
    """
    Q, q = subspace_basis(A, b) if basis is None else basis
    return basis_distortion(apply(S, Q), None if q is None else apply(S, q))
