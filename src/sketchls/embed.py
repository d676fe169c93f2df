"""Randomized subspace embeddings: Gaussian, SRHT, and sparse (one +-1 per column).

All three operators are unbiased, E||Sx||^2 = ||x||^2:

* Gaussian entries are N(0, 1/d).  :func:`build_sketch` draws the whole
  d x m G, the reference.  For an orthonormal m x k W, G W is itself a d x k
  matrix of N(0, 1/d) entries (rotation invariance), and it is exactly S~ W
  for the full Gaussian S~ = Z W^T + G (I - W W^T) when Z = G W, so
  :func:`gaussian_span_sketch` draws that Z alone.  A CLI cell reads S only
  through S W for W = [Q u] (:func:`span_coordinates`), whose span holds A,
  b and every residual, so its sketched problem, eps and every bound value
  keep the full-Gaussian law, from d (n + 1) normals instead of d m.
* SRHT composes random signs, an unnormalized Walsh-Hadamard transform on the
  zero-padded input (H^T H = m' I), uniform row sampling without replacement,
  and a 1/sqrt(d) scale.  Sampling without replacement makes the distortion
  fall faster than 1/sqrt(d) once d/m' is not small, by the factor
  sqrt(1 - d/m'); d = m' gives an exact isometry.  :func:`apply` runs it
  on a column block of X at a time, in one reusable m' x w buffer of about
  :data:`~sketchls.matio.BLOCK_BYTES`, never an m' x k copy of all of X.
  It forms only the d sampled rows of the transform, through the split
  H(m') = H(A) kron H(B) of the Sylvester matrix (row i = i1 B + i2): the
  butterflies of H(A) run on the block, and each sampled row is then the
  product of row i2 of H(B) with the B rows of the block's part i1, one
  GEMM per distinct i1.  B is the largest power of two <= m' with
  d B <= BLOCK_BYTES / 8; the operator keeps its d sampled rows of H(B) as
  int8 (:attr:`SketchOperator.srht_inner_rows`).
* The sparse operator is a CountSketch (Clarkson & Woodruff 2013): each
  coordinate goes to one uniformly chosen row with a random sign, and no
  scaling is needed.  It is applied as a d x m CSR matrix with one entry per
  column, one block of the product of about
  :data:`~sketchls.matio.BLOCK_BYTES` at a time.

:func:`apply` and :func:`apply_adjoint` take a float64 vector or matrix,
as every caller holds one; a :class:`~sketchls.matio.MatrixHandle` is
passed as its ``dense()``.  :func:`apply` writes into a caller's ``out``
when given one, such as the columns of a CLI cell's S W, so the d x k
product is never formed twice.

:func:`exact_distortion` measures the tight embedding parameter over
span([A b]) by an SVD of the sketched orthonormal basis
(:func:`basis_distortion`).  The CLI checks each bound against its cell's
own eps (:attr:`sketchls.diagnostics.SketchedProblem.eps`, read from the
cell's (n + 1)-column factors); :func:`exact_distortion` is the slow
reference that the tests compare that eps with.
The basis (:func:`subspace_basis`) is the Q of A's cached pivoted QR plus the
unit component of b orthogonal to it, so one factorization of A serves every
right-hand side and sketch of that matrix.  A CLI cell sketches only
W = [Q u] (:func:`span_coordinates`), never A, nor densifies A for a sketch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse

from .matio import BLOCK_BYTES, MatrixHandle
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

    @cached_property
    def countsketch(self) -> scipy.sparse.csr_matrix:
        """The sparse kind as its d x m CSR matrix (:func:`_countsketch_matrix`),
        built on first use and kept, so every product with S shares it."""
        return _countsketch_matrix(self)

    @cached_property
    def srht_inner_rows(self) -> np.ndarray:
        """The SRHT kind's sampled rows of H(B), the inner Hadamard factor
        of :func:`apply` (:func:`_inner_order`): row r is row
        ``indices[r] % B`` of the B x B Sylvester matrix, as a d x B int8
        array built on first use and kept."""
        p = self.payload
        B = _inner_order(self.d, p.padded_len)
        return _hadamard_rows(p.indices % B, B)


def next_pow2(m: int) -> int:
    p = 1
    while p < m:
        p *= 2
    return p


def _check_shape(d: int, m: int) -> None:
    if d < 1:
        raise ValueError("d must be positive")
    if d >= m:
        raise ValueError(f"need d < m, got d={d}, m={m}")


def build_sketch(kind: Union[SketchKind, str], d: int, m: int, seed: int) -> SketchOperator:
    """Deterministically construct an embedding operator from (kind, d, m, seed)."""
    kind = SketchKind(kind)
    _check_shape(d, m)
    if kind is SketchKind.GAUSSIAN:
        G = stream(seed, "gaussian", d, m).standard_normal((d, m)) / np.sqrt(d)
        payload = GaussianPayload(matrix=G)
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


def gaussian_span_sketch(d: int, m: int, k: int, seed: int) -> np.ndarray:
    """S W for a d x m Gaussian S and an orthonormal m x k W, which it does
    not read: a d x k draw of N(0, 1/d) entries from the (seed, d, k) stream."""
    _check_shape(d, m)
    return stream(seed, "gaussian-span", d, k).standard_normal((d, k)) / np.sqrt(d)


def fwht(v: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 0.

    Uses the Sylvester ordering; applying twice multiplies by the length.
    The length must be a power of two and the array C-contiguous.  One
    scratch of half of v is allocated per call and holds the low halves at
    every stage, so the call holds v plus half of it at most.
    """
    n = v.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length {n} is not a power of two")
    if not v.flags.c_contiguous:
        raise ValueError("fwht operates in place and needs a C-contiguous array")
    scratch = np.empty((n // 2,) + v.shape[1:])
    h = 1
    while h < n:
        blocks = v.reshape((n // (2 * h), 2, h) + v.shape[1:])
        lo, hi = blocks[:, 0], blocks[:, 1]
        a = scratch.reshape(lo.shape)
        np.copyto(a, lo)
        np.add(a, hi, out=lo)
        np.subtract(a, hi, out=hi)
        h *= 2
    return v


def _inner_order(d: int, padded_len: int) -> int:
    """B of the SRHT's split H(m') = H(m' / B) kron H(B): the largest power
    of two <= m' with d B <= BLOCK_BYTES // 8, so that the d sampled rows of
    H(B) as float64 fill one block at most; 1 when d alone exceeds that."""
    return min(padded_len, 1 << max(0, (BLOCK_BYTES // 8 // d).bit_length() - 1))


def _hadamard_rows(rows: np.ndarray, B: int) -> np.ndarray:
    """Rows ``rows`` of the B x B Sylvester Hadamard matrix as int8, filled
    in place by doubling: H[i, j + h] = (-1)^(bit h of i) H[i, j] for j < h."""
    H = np.empty((rows.size, B), dtype=np.int8)
    H[:, 0] = 1
    h = 1
    while h < B:
        sign = np.where(rows & h, -1, 1).astype(np.int8)
        np.multiply(H[:, :h], sign[:, None], out=H[:, h:2 * h])
        h *= 2
    return H


def _countsketch_matrix(S: SketchOperator) -> scipy.sparse.csr_matrix:
    """The sparse kind as a d x m CSR matrix: entry signs[j] at (rows[j], j).

    Within each row the column indices ascend, so a product with it adds the
    terms of each output entry in the order of the coordinates.
    """
    p = S.payload
    order = np.argsort(p.rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(p.rows, minlength=S.d))])
    return scipy.sparse.csr_matrix((p.signs[order], order, indptr), shape=(S.d, S.m))


def apply(S: SketchOperator, X, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Compute S @ X for a vector or matrix X with S.m rows, taken as a
    float64 array (``np.asarray``), into ``out`` when given (a float64
    array of S.d rows and X's columns, a view of a larger one included),
    which is returned; else into a new C-ordered array.

    An SRHT and a CountSketch each hold about one block of BLOCK_BYTES
    besides X and ``out``, and a vector is one column.  An SRHT signs and
    pads a column block of X at a time into one reusable m' x w buffer,
    w = max(1, BLOCK_BYTES // (8 m')) columns.  With m' = A B
    (:func:`_inner_order`) it runs :func:`fwht` on the block viewed as
    A rows of B w, the A-order outer butterflies, and then each run of
    sampled rows with one quotient i1 = i // B is one GEMM: those rows of
    H(B) (:attr:`SketchOperator.srht_inner_rows`, made float64 one run at a
    time) times the block's B x w part i1, over sqrt(d), into ``out``.  So
    the result is that of one m' x k transform to rounding (log2 A stages
    and a length-B dot product in place of log2 m' stages), and it holds the
    block, :func:`fwht`'s scratch of half a block and the d x B int8 rows.
    When d alone exceeds BLOCK_BYTES // 8, B = 1 and the block takes all
    log2 m' stages, its sampled rows gathered.  A CountSketch takes X in C
    order (a copy only when it is not) and forms ``out`` one block of
    h = max(1, BLOCK_BYTES // (8 k)) rows at a time, each the product of h
    rows of the CSR matrix with X.
    Each entry of ``out`` is one row of the CSR matrix times one column of
    X, with its terms added in the order of the coordinates whatever the
    block, so the result is bit for bit that of one product with all of X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != S.m:
        raise ValueError(f"operand has {X.shape[0]} rows, operator expects {S.m}")
    shape = (S.d,) + X.shape[1:]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out is {out.dtype} {out.shape}, the product is float64 {shape}")
    p = S.payload
    if isinstance(p, GaussianPayload):
        return np.matmul(p.matrix, X, out=out)
    cols = X if X.ndim == 2 else X[:, None]
    out_cols = out if X.ndim == 2 else out[:, None]
    k = cols.shape[1]
    if isinstance(p, SparsePayload):
        C = S.countsketch
        cols = np.ascontiguousarray(cols)
        h = max(1, BLOCK_BYTES // (8 * max(1, k)))
        for i in range(0, S.d, h):
            out_cols[i:i + h] = (C[i:i + h] if h < S.d else C) @ cols
        return out
    mp = p.padded_len
    w = max(1, min(k, BLOCK_BYTES // (8 * mp)))
    buf = np.empty(mp * w)
    signs_in = p.signs[: S.m, None]
    scale = np.sqrt(S.d)
    H = S.srht_inner_rows
    B = H.shape[1]
    outer = p.indices // B
    starts = np.flatnonzero(np.diff(outer, prepend=-1))
    runs = list(zip(starts, np.append(starts[1:], S.d)))
    for j in range(0, k, w):
        width = min(w, k - j)
        Y = buf[: mp * width].reshape(mp, width)
        np.multiply(cols[:, j:j + width], signs_in, out=Y[: S.m])
        Y[S.m:] = 0.0
        fwht(Y.reshape(mp // B, B * width))
        if B == 1:
            np.divide(Y[p.indices], scale, out=out_cols[:, j:j + width])
            continue
        parts = Y.reshape(mp // B, B, width)
        for lo, hi in runs:
            np.divide(H[lo:hi].astype(np.float64) @ parts[outer[lo]], scale,
                      out=out_cols[lo:hi, j:j + width])
    return out


def apply_adjoint(S: SketchOperator, U) -> np.ndarray:
    """Compute S^T @ U for a vector or matrix U with S.d rows, taken as a
    float64 array."""
    U = np.asarray(U, dtype=np.float64)
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


def subspace_basis(A: MatrixHandle, b: np.ndarray
                   ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Orthonormal basis of span([A b]) as a pair ``(Q, q)``, rank trimmed.

    ``Q`` is the Q of A's cached pivoted QR (:meth:`MatrixHandle.qr_factor`),
    so every b of one matrix shares it; ``q`` is the unit component of b
    orthogonal to range(Q), or None when b lies in it.  The floor of both
    trims is the SVD rank floor max(m, n + 1) * u * max(|R_11|, ||b||): a
    column of Q goes when its R diagonal entry is below it, and q when the
    norm of b's orthogonal component is.  That component comes from two
    projection passes, so ``[Q q]`` is orthonormal to working precision; on
    an ill-conditioned span([A b]) it is no less accurate than an SVD of
    [A b], and no m-by-(n + 1) array is formed.
    """
    b = np.asarray(b, dtype=np.float64)
    Q, rank, floor = _trim(A, b)
    Q = Q[:, :rank]
    w, w_norm, _ = _orthogonal_part(Q, b)
    return Q, (w / w_norm if w_norm > floor else None)


def _trim(A: MatrixHandle, b: np.ndarray) -> Tuple[np.ndarray, int, float]:
    """A's untrimmed Q, how many of its columns the basis keeps, the floor."""
    Q, R, _ = A.qr_factor()
    scale = max(float(abs(R[0, 0])), float(np.linalg.norm(b)))
    if scale == 0.0:
        raise ValueError("zero subspace")
    floor = max(A.rows, A.cols + 1) * np.finfo(np.float64).eps * scale
    return Q, int(np.sum(np.abs(np.diag(R)) > floor)), floor


def _orthogonal_part(Q: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray]:
    """The component w of b orthogonal to range(Q), by two projection
    passes, its norm, and Q^T b, the first pass's coefficients."""
    c = Q.T @ b
    w = b - Q @ c
    w -= Q @ (Q.T @ w)
    return w, float(np.linalg.norm(w)), c


@dataclass(frozen=True)
class SpanCoordinates:
    u: Optional[np.ndarray]    # unit part of b orthogonal to range(Q); None when it is 0
    c_b: np.ndarray            # W^T b
    rank: int                  # leading columns of Q in subspace_basis(A, b)
    c_q: Optional[np.ndarray]  # W^T q for subspace_basis's q; None when q is


def span_coordinates(A: MatrixHandle, b: np.ndarray) -> SpanCoordinates:
    """W = [Q u], Q the untrimmed Q of A's pivoted QR, with the coordinates
    in it of b and of :func:`subspace_basis`'s ``(Q[:, :rank], q)``, so that
    S W alone gives S b = S W c_b and the basis [S W[:, :rank], S W c_q].

    u is not trimmed: a part of b at rounding level still gives a unit u
    orthogonal to Q.  q is b's part orthogonal to the kept columns, so c_q
    is c_b with its first ``rank`` entries zeroed, normalized; with no column
    trimmed that is the last unit vector exactly.
    """
    b = np.asarray(b, dtype=np.float64)
    Q, rank, floor = _trim(A, b)
    w, w_norm, c = _orthogonal_part(Q, b)
    u = w / w_norm if w_norm > 0.0 else None
    c_b = c if u is None else np.append(c, u @ b)
    tail = np.concatenate([np.zeros(rank), c_b[rank:]])
    tail_norm = float(np.linalg.norm(tail))
    return SpanCoordinates(u=u, c_b=c_b, rank=rank,
                           c_q=tail / tail_norm if tail_norm > floor else None)


def basis_distortion(SQ: np.ndarray, Sq: Optional[np.ndarray]) -> float:
    """Tight embedding parameter of a sketch S over span([A b]), from the
    sketched basis: ``SQ`` and ``Sq`` are S applied to the two parts of
    ``subspace_basis(A, b)`` (``Sq`` None when q is), or their coordinates
    in any orthonormal basis, as a CLI cell's T gives them.

    Returns eps = max(sigma_max^2 - 1, 1 - sigma_min^2) over the singular
    values of [SQ Sq]; this is the smallest value for which the two-sided
    embedding inequality holds there, and eps >= 1 when S annihilates part
    of the subspace.  The SVD is of a rows-by-dim matrix only.
    """
    if Sq is not None:
        SQ = np.column_stack([SQ, Sq])
    d, dim = SQ.shape
    if dim > d:
        raise ValueError(f"subspace dimension {dim} exceeds sketch rows {d}")
    sv = scipy.linalg.svd(SQ, compute_uv=False)
    return max(float(sv[0] ** 2) - 1.0, 1.0 - float(sv[-1] ** 2))


def exact_distortion(S: SketchOperator, A: MatrixHandle, b: np.ndarray) -> float:
    """Tight embedding parameter of S over span([A b]) (:func:`basis_distortion`)
    of the sketched ``subspace_basis(A, b)``, the reference of a CLI cell's.

    The basis is orthonormal to working precision, so eps is good to about
    1e-13 relative on a well-conditioned span([A b]); when b is nearly in
    range(A), any double-precision basis, so eps, is good to about
    u * cond([A b]) at worst.
    """
    Q, q = subspace_basis(A, b)
    return basis_distortion(apply(S, Q), None if q is None else apply(S, q))
