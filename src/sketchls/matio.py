"""Matrix storage, Matrix Market I/O, and synthesis of least-squares test problems.

A :class:`MatrixHandle` wraps either a dense array or a CSR sparse matrix and
lazily caches two things: its column-pivoted economic QR factorization
A[:, piv] = Q R, the one factorization of A, and the extreme singular values,
read from R.  Every matrix is densely factored: the QR holds an m-by-n Q, so
it costs as much memory as a dense A, and the largest n allowed is the
caller's to enforce.  The factor is formed once per matrix and serves every
right-hand side.
Problems are synthesized by the recipe b = A*x - r with r a scaled random
direction, and an exact least-squares oracle (the cached pivoted QR plus one
refinement step) supplies reference solutions for all bound checks.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .rng import stream


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; message carries the offending line number."""


class RankDeficiencyError(ValueError):
    """The matrix is numerically rank deficient for the requested operation."""


# (Q, R, piv) of an economic column-pivoted QR M[:, piv] = Q R
QrFactor = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class SpectralInfo:
    norm: float
    sigma_min: float
    cond: float
    # always 0: the norm comes from the dense factor; kept because
    # bench/tracer.py reads it for matio.spectral_norms.power_iters
    power_iterations: int = 0


class MatrixHandle:
    """Immutable dense or CSR matrix with cached spectral data and factors.

    NaN and Inf entries are rejected at construction.  The handle is safe to
    share across threads: the payload is never mutated after construction, and
    the spectral and pivoted-QR caches are each written once under a lock so
    concurrent readers observe either no value or the final one.  The cached
    arrays are read-only.  The pivoted QR (:meth:`qr_factor`) is the only
    factorization of A: the spectral data and the observer's fast path read
    its R, and it keeps an m-by-n Q for the handle's lifetime, as much memory
    as a dense A.
    """

    def __init__(self, data):
        if scipy.sparse.issparse(data):
            mat = data.tocsr().astype(np.float64)
            if not np.isfinite(mat.data).all():
                raise ValueError("matrix has NaN or Inf entries")
            mat.sum_duplicates()
            mat.eliminate_zeros()
            mat.sort_indices()
            self._sparse: Optional[scipy.sparse.csr_matrix] = mat
            self._dense: Optional[np.ndarray] = None
            rows, cols = mat.shape
        else:
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("matrix data must be two-dimensional")
            if not np.isfinite(arr).all():
                i, j = np.argwhere(~np.isfinite(arr))[0]
                raise ValueError(f"matrix has NaN or Inf entries, first at ({i}, {j})")
            self._sparse = None
            self._dense = np.asfortranarray(arr)
            rows, cols = arr.shape
        if rows < 1 or cols < 1:
            raise ValueError("empty matrix")
        if rows < cols:
            raise ValueError(f"problem matrices must be tall or square, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._spectral: Optional[SpectralInfo] = None
        self._qr_factor: Optional[QrFactor] = None
        self._lock = threading.Lock()

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    @property
    def nnz(self) -> int:
        if self._sparse is not None:
            return int(self._sparse.nnz)
        return int(np.count_nonzero(self._dense))

    def dense(self) -> np.ndarray:
        """Dense view of the matrix (materialized on demand for CSR storage)."""
        if self._dense is None:
            return self._sparse.toarray()
        return self._dense

    def csr(self) -> scipy.sparse.csr_matrix:
        if self._sparse is None:
            return scipy.sparse.csr_matrix(self._dense)
        return self._sparse

    def matvec(self, x: np.ndarray) -> np.ndarray:
        mat = self._sparse if self._sparse is not None else self._dense
        return mat @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        mat = self._sparse if self._sparse is not None else self._dense
        return mat.T @ y

    def spectral(self) -> SpectralInfo:
        """Cached (norm, sigma_min, cond); computed on first access."""
        info = self._spectral
        if info is None:
            info = spectral_norms(self)
        return info

    def spectral_norm(self) -> float:
        return self.spectral().norm

    def condition_number(self) -> float:
        """kappa(A) = sigma_max / sigma_min, cached (see :func:`spectral_norms`)."""
        return self.spectral().cond

    def qr_factor(self) -> QrFactor:
        """Read-only column-pivoted economic QR A[:, piv] = Q R, cached.

        The factorization :func:`qr_ls_solve` computes for a dense A; it never
        raises, so a rank check is the caller's (see :func:`solve_ls_oracle`).
        One dense m-by-n Q is kept for the handle's lifetime.  R has the
        singular values of A, and F = R[:, argsort(piv)] has F^T F = A^T A.
        """
        factor = self._qr_factor
        if factor is None:
            factor = scipy.linalg.qr(self.dense(), mode="economic", pivoting=True)
            for arr in factor:
                arr.setflags(write=False)
            with self._lock:
                if self._qr_factor is None:
                    self._qr_factor = factor
                factor = self._qr_factor
        return factor


@dataclass
class LsOracle:
    x_ls: np.ndarray
    r_ls: np.ndarray
    r_ls_norm: float
    atr_ls: np.ndarray   # A^T r_ls, nearly zero


# ---------------------------------------------------------------------------
# Matrix Market I/O

_MM_HEADER = "%%MatrixMarket"


def load_matrix_market(path) -> MatrixHandle:
    """Parse a Matrix Market file (coordinate or array, real, general/symmetric).

    Indices are 1-based on disk and 0-based in memory; symmetric storage is
    expanded to full.  Raises :class:`MatrixMarketError` with the line number
    on any malformed content; complex and pattern fields are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != _MM_HEADER or header[1].lower() != "matrix":
        raise MatrixMarketError("line 1: expected '%%MatrixMarket matrix <format> <field> <symmetry>'")
    fmt, fieldkind, symmetry = (w.lower() for w in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"line 1: unsupported format '{fmt}'")
    if fieldkind not in ("real", "integer"):
        raise MatrixMarketError(f"line 1: unsupported field '{fieldkind}' (only real-valued matrices)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"line 1: unsupported symmetry '{symmetry}'")

    lineno = 1
    body = []
    for raw in lines[1:]:
        lineno += 1
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        body.append((lineno, text))
    if not body:
        raise MatrixMarketError(f"line {lineno}: missing size line")

    size_lineno, size_line = body[0]
    entries = body[1:]
    parts = size_line.split()

    if fmt == "coordinate":
        if len(parts) != 3:
            raise MatrixMarketError(f"line {size_lineno}: coordinate size line needs 'rows cols nnz'")
        try:
            m, n, nnz = (int(p) for p in parts)
        except ValueError:
            raise MatrixMarketError(f"line {size_lineno}: non-integer size entry") from None
        if m < 1 or n < 1 or nnz < 1:
            raise MatrixMarketError(f"line {size_lineno}: empty matrix rejected")
        if len(entries) != nnz:
            raise MatrixMarketError(
                f"line {size_lineno}: declared {nnz} entries, found {len(entries)}")
        rows, cols, vals = _coordinate_entries(entries, m, n)
        _check_finite_values(vals, entries)
        if symmetry == "symmetric":
            if m != n:
                raise MatrixMarketError(f"line {size_lineno}: symmetric matrix must be square")
            off = rows != cols
            rows, cols = (np.concatenate([rows, cols[off]]),
                          np.concatenate([cols, rows[off]]))
            vals = np.concatenate([vals, vals[off]])
        mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()
        return MatrixHandle(mat)

    # array format: dense column-major values
    if len(parts) != 2:
        raise MatrixMarketError(f"line {size_lineno}: array size line needs 'rows cols'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixMarketError(f"line {size_lineno}: non-integer size entry") from None
    if m < 1 or n < 1:
        raise MatrixMarketError(f"line {size_lineno}: empty matrix rejected")
    if symmetry == "symmetric" and m != n:
        raise MatrixMarketError(f"line {size_lineno}: symmetric matrix must be square")
    expected = m * n if symmetry == "general" else m * (m + 1) // 2
    if len(entries) != expected:
        raise MatrixMarketError(
            f"line {size_lineno}: declared {expected} values, found {len(entries)}")
    vals = np.empty(expected)
    for k, (ln, text) in enumerate(entries):
        toks = text.split()
        if len(toks) != 1:
            raise MatrixMarketError(f"line {ln}: expected a single value")
        try:
            vals[k] = float(toks[0])
        except ValueError:
            raise MatrixMarketError(f"line {ln}: malformed value") from None
    _check_finite_values(vals, entries)
    if symmetry == "general":
        return MatrixHandle(vals.reshape((m, n), order="F"))
    # the lower triangle column by column: (j, i) for i >= j in row-major order
    j, i = np.triu_indices(n)
    dense = np.zeros((m, n))
    dense[i, j] = vals
    dense[j, i] = vals
    return MatrixHandle(dense)


_MM_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _coordinate_entries(entries, m: int, n: int):
    """0-based rows and columns and the values of coordinate entry lines.

    ``entries`` are ``(line number, text)`` pairs.  One vectorized parse
    takes the common case.  With warnings raised as errors it accepts a
    strict subset of what ``int``/``float`` accept, so any entry it cannot
    take sends the whole body through :func:`_coordinate_entries_loop`, the
    reference parser, which accepts the rest or names the bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt([text for _, text in entries], dtype=_MM_ENTRY_DTYPE,
                                comments=None, ndmin=1)
    except Exception:  # noqa: BLE001 - the loop reports what the fast parse cannot take
        return _coordinate_entries_loop(entries, m, n)
    i, j = parsed["i"], parsed["j"]
    bad = (i < 1) | (i > m) | (j < 1) | (j > n)
    if bad.any():
        k = int(np.argmax(bad))
        raise MatrixMarketError(f"line {entries[k][0]}: index ({i[k]},{j[k]}) out of bounds")
    return i - 1, j - 1, np.ascontiguousarray(parsed["v"])


def _coordinate_entries_loop(entries, m: int, n: int):
    """Line-by-line :func:`_coordinate_entries`; raises on the first bad line."""
    rows = np.empty(len(entries), dtype=np.int64)
    cols = np.empty(len(entries), dtype=np.int64)
    vals = np.empty(len(entries), dtype=np.float64)
    for k, (ln, text) in enumerate(entries):
        toks = text.split()
        if len(toks) != 3:
            raise MatrixMarketError(f"line {ln}: expected 'row col value'")
        try:
            i, j = int(toks[0]), int(toks[1])
            v = float(toks[2])
        except ValueError:
            raise MatrixMarketError(f"line {ln}: malformed entry") from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixMarketError(f"line {ln}: index ({i},{j}) out of bounds")
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
    return rows, cols, vals


def _check_finite_values(vals: np.ndarray, entries) -> None:
    """Reject NaN/Inf values, naming the line of the first one."""
    bad = ~np.isfinite(vals)
    if bad.any():
        ln = entries[int(np.argmax(bad))][0]
        raise MatrixMarketError(f"line {ln}: non-finite value")


def save_matrix_market(handle: MatrixHandle, path) -> None:
    """Write the handle in general Matrix Market form, round-trip exact."""
    with open(path, "w", encoding="ascii") as fh:
        if handle.is_sparse:
            mat = handle.csr().tocoo()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{handle.rows} {handle.cols} {mat.nnz}\n")
            for i, j, v in zip(mat.row, mat.col, mat.data):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{handle.rows} {handle.cols}\n")
            for v in handle.dense().flatten(order="F"):
                fh.write(f"{v:.17g}\n")


# ---------------------------------------------------------------------------
# Problem synthesis

def synthesize_problem(A: MatrixHandle, seed: int, residual_scale: float = 1e-3) -> np.ndarray:
    """Right-hand side b = A*x - r with x, t standard normal and r = scale * t/||t||.

    The constructed residual has norm exactly ``residual_scale`` up to rounding
    but is not orthogonal to range(A); reference solutions must come from
    :func:`solve_ls_oracle`.
    """
    if residual_scale <= 0:
        raise ValueError("residual_scale must be positive")
    x = stream(seed, "problem", "x").standard_normal(A.cols)
    gen_t = stream(seed, "problem", "t")
    t = gen_t.standard_normal(A.rows)
    if np.linalg.norm(t) == 0.0:
        t = gen_t.standard_normal(A.rows)
        if np.linalg.norm(t) == 0.0:
            raise ValueError("degenerate residual direction")
    return A.matvec(x) - residual_scale * t / np.linalg.norm(t)


def synthesize_matrix(m: int, n: int, cond: float, seed: int) -> MatrixHandle:
    """Random dense m-by-n matrix with prescribed condition number.

    Built as U diag(s) V^T with orthonormal factors and log-spaced singular
    values from 1 down to 1/cond.
    """
    if m < n or n < 1:
        raise ValueError("need m >= n >= 1")
    if cond < 1:
        raise ValueError("cond must be >= 1")
    gen = stream(seed, "synthmat", m, n)
    U = np.linalg.qr(gen.standard_normal((m, n)))[0]
    V = np.linalg.qr(gen.standard_normal((n, n)))[0]
    s = np.logspace(0.0, -math.log10(cond), n) if n > 1 else np.array([1.0])
    return MatrixHandle((U * s) @ V.T)


# ---------------------------------------------------------------------------
# Exact oracle and spectral data

def _qr_solve(M: np.ndarray, factor: QrFactor, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of M x = rhs from the pivoted QR ``(Q, R, piv)``
    of M, refined once.  Raises :class:`RankDeficiencyError` when the R
    diagonal collapses."""
    Q, R, piv = factor
    diag = np.abs(np.diag(R))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0 or diag.min() < 1e-12 * scale:
        raise RankDeficiencyError(
            f"rank deficiency: smallest R diagonal {diag.min():.3e} vs scale {scale:.3e}")

    def solve_once(v):
        y = scipy.linalg.solve_triangular(R, Q.T @ v, lower=False)
        x = np.empty_like(y)
        x[piv] = y
        return x

    x = solve_once(rhs)
    return x + solve_once(rhs - M @ x)


def qr_ls_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of a dense tall matrix by column-pivoted QR.

    One step of residual refinement pushes the normal-equation residual of
    the computed solution to near machine precision.  Raises
    :class:`RankDeficiencyError` when the R diagonal collapses.
    """
    M = np.asarray(M, dtype=np.float64)
    return _qr_solve(M, scipy.linalg.qr(M, mode="economic", pivoting=True), rhs)


def as_rhs(A: MatrixHandle, b) -> np.ndarray:
    """b as a float64 vector of length A.rows; rejects other lengths and NaN/Inf."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.rows,):
        raise ValueError("right-hand side length mismatch")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has NaN or Inf entries")
    return b


def solve_ls_oracle(A: MatrixHandle, b: np.ndarray) -> LsOracle:
    """Exact least-squares reference solution at desk scale.

    The cached column-pivoted QR of A (:meth:`MatrixHandle.qr_factor`) with
    one refinement step, bit for bit ``qr_ls_solve(A.dense(), b)``: each b
    costs two triangular solves, not a factorization.  The returned residual
    satisfies ||A^T r|| / (||A|| ||r||) <= 1e-10.
    """
    b = as_rhs(A, b)
    x = _qr_solve(A.dense(), A.qr_factor(), b)
    r = A.matvec(x) - b
    return LsOracle(
        x_ls=x,
        r_ls=r,
        r_ls_norm=float(np.linalg.norm(r)),
        atr_ls=A.rmatvec(r),
    )


def spectral_norms(A: MatrixHandle) -> SpectralInfo:
    """Largest/smallest singular values and condition number, cached on A.

    All three come from the SVD of the n-by-n R of the cached pivoted QR
    (:meth:`MatrixHandle.qr_factor`): a column permutation does not change
    singular values.
    """
    if A._spectral is not None:
        return A._spectral

    sv = scipy.linalg.svd(A.qr_factor()[1], compute_uv=False)
    norm = float(sv[0])
    sigma_min = float(sv[-1])
    if sigma_min < 1e-14 * norm:
        raise RankDeficiencyError(
            f"numerical rank deficiency: sigma_min = {sigma_min:.3e}, norm = {norm:.3e}")
    info = SpectralInfo(
        norm=norm,
        sigma_min=sigma_min,
        cond=norm / sigma_min if sigma_min != 0.0 else float("inf"),
    )
    with A._lock:
        if A._spectral is None:
            A._spectral = info
    return A._spectral
