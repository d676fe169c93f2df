"""Matrix storage, Matrix Market I/O, and synthesis of least-squares test problems.

A :class:`MatrixHandle` holds one payload, a dense array or a CSR matrix, or
only the column-pivoted economic QR A[:, piv] = Q R of the matrix, and fills
its two caches itself, once each: that factorization, the one factorization
of A, and the extreme singular values, read from R (:func:`spectral_norms`).
Every matrix is densely factored: the QR holds an m-by-n Q, so it costs as
much memory as a dense A, and the largest n allowed is the caller's to
enforce.  The factor is formed once per matrix and serves every right-hand
side.  It is built from A = Q1 R1, Q1 orthonormal, by an n-by-n pivoted QR
R1[:, piv] = Q2 R and Q = Q1 Q2, with Q1 = X T^-1 never formed:
Q = X (T^-1 Q2) is one product over the m rows, for X and T from CholeskyQR
(:func:`_orthonormal_factor`), where Householder QR's panel updates are
BLAS-2 bound on a tall, thin matrix.  A synthesized U diag(s) V^T has Q1 = U,
from a Gaussian draw, and R1 = diag(s) V^T (:func:`synthesize_matrix`); a
loaded A factors its densified copy.  A well-conditioned matrix takes two
passes over its m rows (SYRK, GEMM), an ill-conditioned one four.  Only a
loaded matrix that CholeskyQR rejects (a Cholesky fails, or R1 is past
:data:`CHOLQR_COND_LIMIT`) gets the Householder pivoted QR of its m rows, and
a draw that it rejects Householder QR.  R has a positive diagonal on every
path, so U and V are Haar distributed.  A synthesized matrix is factored at
once, in its draw's buffer, and its handle stores only that factor:
A x is Q (R x[piv]), and A is formed only by :meth:`MatrixHandle.dense`.
Problems are synthesized by the recipe b = A*x - r with r a scaled random
direction, and an exact least-squares oracle (the cached pivoted QR plus one
refinement step) supplies x_ls for all bound checks, and the one evaluator
of ||A x - b||, ||A^T (A x - b)|| and ||A (x - x_ls)|| at any x, from R in
O(n^2) (:meth:`LsOracle.residual_norms`).  One threshold, :data:`RANK_TOL`,
decides numerical rank for the oracle and the spectral data alike.
A Matrix Market file's header and size line are read once; the body of
either format, coordinate or array, then takes at most two parses: one numpy
``loadtxt`` straight from the open file, and, for a body that it does not
take whole, a loop over the lines, which names the first bad line.  The
format puts comments before the size line, so a body with comment lines
among its entries is taken, but only by the line loop.  The reader takes
general storage only: Matrix Market allows symmetric storage only for a
square matrix, and a square matrix fits no sketch size d (n <= d < m).
The passes over the m rows of a dense matrix that would otherwise hold an
m-row work array run on a block of about :data:`BLOCK_BYTES` at a time:
forming Q = X (T^-1 Q2) and a CholeskyQR triangular solve here, and the SRHT
and CountSketch applies of :mod:`sketchls.embed`.  The Gram SYRK of a
CholeskyQR pass is one call: blocking it saved no memory and changed bits.
Every CSV the CLI writes goes through :func:`write_csv`, so all of them
share one format: ASCII, the ``csv`` module's CRLF line ends, a bool as 0
or 1, and each float as ``.17g``, which reads back to the same double.
"""

from __future__ import annotations

import csv
import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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

# A is numerically rank deficient when its smallest singular value
# (spectral_norms) or its smallest R diagonal (the oracle) is below
# RANK_TOL times the largest.  sigma_min <= min |R_ii| and |R_11| <= ||A||,
# so every A the oracle rejects, the spectral data reject too.
RANK_TOL = 1e-12

# the largest condition estimate (cond_estimate) of a loaded A's CholeskyQR
# R1 that is used, about u^-1/2, the range of two passes; the m-row
# Householder QR decides near the rank thresholds, as it always did
CHOLQR_COND_LIMIT = 1e8

# bytes of a working block, the one block size of every m-row pass that
# runs a block at a time: the row block of X (T^-1 Q2) formed at a time when
# A's Q is written into X's buffer, the row block of a CholeskyQR triangular
# solve, and the block of an SRHT or CountSketch apply (sketchls.embed),
# which also caps an SRHT's d sampled rows of its inner Hadamard factor as
# float64; smaller blocks make numpy's inner loops too short
BLOCK_BYTES = 1 << 20


@dataclass
class SpectralInfo:
    norm: float
    sigma_min: float
    cond: float
    # always 0: the norm comes from the dense factor; kept because
    # bench/tracer.py reads it for matio.spectral_norms.power_iters
    power_iterations: int = 0


class MatrixHandle:
    """Immutable matrix, the one owner of its pivoted QR and spectral data.

    Its one payload ``_data`` is a Fortran-ordered array or a CSR matrix, or
    None for a handle built from its pivoted QR (``factor=``, as
    :func:`synthesize_matrix` builds one): its products with A then go
    through Q and R, and :meth:`dense` forms A on demand.  NaN and Inf
    entries are rejected at construction.  The payload is never mutated, and
    :meth:`_cached` fills each cache once under the handle's lock, so the
    handle is safe to share across threads.  The cached arrays are read-only.
    The pivoted QR (:meth:`qr_factor`) is the only factorization of A: the
    spectral data and the oracle's evaluator read its R, and its m-by-n Q
    is as much memory as a dense A, for the handle's lifetime.
    """

    def __init__(self, data=None, *, factor: Optional[QrFactor] = None):
        """From ``data``, a dense array or a SciPy sparse matrix, or from
        ``factor``, ndarrays ``(Q, R, piv)`` with A[:, piv] = Q R, Q m-by-n
        orthonormal and R n-by-n upper triangular, kept without a copy and
        made read-only; the shapes and piv are the caller's to get right."""
        self._data = None
        self._qr_factor: Optional[QrFactor] = None
        self._spectral: Optional[SpectralInfo] = None
        # reentrant: the spectral data's fill asks for the factor
        self._lock = threading.RLock()
        if (data is None) == (factor is None):
            raise ValueError("give the matrix data or its factor, not both or neither")
        if factor is not None:
            Q, R, piv = factor
            # max and min propagate a NaN, and an Inf is one of them: no
            # m-by-n temporary
            if Q.size and not (math.isfinite(Q.max()) and math.isfinite(Q.min())
                               and np.isfinite(R).all()):
                raise ValueError("matrix factor has NaN or Inf entries")
            for arr in factor:
                arr.setflags(write=False)
            self._qr_factor = (Q, R, piv)
        elif scipy.sparse.issparse(data):
            mat = data.tocsr().astype(np.float64)
            if not np.isfinite(mat.data).all():
                raise ValueError("matrix has NaN or Inf entries")
            mat.sum_duplicates()
            mat.eliminate_zeros()
            mat.sort_indices()
            self._data = mat
        else:
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("matrix data must be two-dimensional")
            if not np.isfinite(arr).all():
                i, j = np.argwhere(~np.isfinite(arr))[0]
                raise ValueError(f"matrix has NaN or Inf entries, first at ({i}, {j})")
            self._data = np.asfortranarray(arr)
        rows, cols = Q.shape if self._data is None else self._data.shape
        if rows < 1 or cols < 1:
            raise ValueError("empty matrix")
        if rows < cols:
            raise ValueError(f"problem matrices must be tall or square, got {rows}x{cols}")
        self.rows, self.cols = rows, cols

    @property
    def is_sparse(self) -> bool:
        return scipy.sparse.issparse(self._data)

    def dense(self) -> np.ndarray:
        """Dense view of the matrix, formed on demand for CSR storage and,
        in Fortran order as (F^T Q^T)^T with F = R[:, argsort(piv)], for a factor."""
        if self._data is None:
            Q, R, piv = self._qr_factor
            return (R[:, np.argsort(piv)].T @ Q.T).T
        return self._data.toarray() if self.is_sparse else self._data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, or Q (R x[piv]) for a factor."""
        if self._data is None:
            Q, R, piv = self._qr_factor
            return Q @ (R @ x[piv])
        return self._data @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y, or P R^T (Q^T y) for a factor."""
        if self._data is None:
            Q, R, piv = self._qr_factor
            out = np.empty((self.cols,) + np.shape(y)[1:])
            out[piv] = R.T @ (Q.T @ y)
            return out
        return self._data.T @ y

    def spectral(self) -> SpectralInfo:
        """(norm, sigma_min, cond), :func:`spectral_norms` of A, cached."""
        return self._cached("_spectral", lambda: spectral_norms(self))

    def spectral_norm(self) -> float:
        return self.spectral().norm

    def condition_number(self) -> float:
        """kappa(A) = sigma_max / sigma_min, cached (see :func:`spectral_norms`)."""
        return self.spectral().cond

    def qr_factor(self) -> QrFactor:
        """Read-only column-pivoted economic QR A[:, piv] = Q R, cached.

        It never raises, so a rank check is the caller's (see
        :func:`solve_ls_oracle`).  One dense m-by-n Q is kept for the
        handle's lifetime.  R has the singular values of A, and
        F = R[:, argsort(piv)] has F^T F = A^T A.  R has a positive
        diagonal on every path below, so for a full-rank A, Q is fixed by A
        and piv, whichever factorization ran: a Gaussian cell, whose draw
        acts on W = [Q u] (:mod:`sketchls.embed`), gets one S from any of
        them, to rounding.

        A dense or CSR handle builds it (:meth:`_factor`) on the first call.
        """
        return self._cached("_qr_factor", self._factor)

    def _cached(self, name: str, build):
        """The cache attribute ``name``, filled by ``build()`` under the lock,
        once however many threads ask; a ``build`` that raises fills nothing."""
        if getattr(self, name) is None:
            with self._lock:
                if getattr(self, name) is None:
                    setattr(self, name, build())
        return getattr(self, name)

    def _factor(self) -> QrFactor:
        """The read-only pivoted QR of a dense or CSR A:
        :func:`_pivoted_factor` of :func:`_orthonormal_factor` of A's
        densified copy, in its buffer, or, where that rejects A, the m-row
        QR of :func:`qr_ls_solve` with R's diagonal made positive."""
        try:
            X, T, R1 = _orthonormal_factor(
                self.dense() if self.is_sparse else np.array(self._data, order="C"),
                max_cond=CHOLQR_COND_LIMIT)
        except np.linalg.LinAlgError:
            X = None
        if X is None:  # outside the handler, so the rejected buffer is freed
            factor = scipy.linalg.qr(self.dense(), mode="economic", pivoting=True)
            _positive_diagonal(*factor[:2])
        else:
            factor = _pivoted_factor(X, T, R1)
        for arr in factor:
            arr.setflags(write=False)
        return factor


def _pivoted_factor(X: np.ndarray, T: np.ndarray, R1: np.ndarray) -> QrFactor:
    """The pivoted QR of A = Q1 R1, Q1 = X T^-1 m-by-n orthonormal: the
    n-by-n pivoted QR R1[:, piv] = Q2 R and Q = X (T^-1 Q2), formed a row
    block at a time in X's buffer (a row of it reads only that row of X).
    A[:, piv] = Q R in exact arithmetic, and piv and R are those of a
    pivoted QR of A, since column pivoting sees only A^T A = R1^T R1; Q and
    R agree with the m-row factorization to rounding.  The signs of Q2 and
    R are flipped where R's diagonal is negative."""
    Q2, R, piv = scipy.linalg.qr(R1, mode="economic", pivoting=True)
    _positive_diagonal(Q2, R)
    Q2 = scipy.linalg.solve_triangular(T, Q2)
    m, n = X.shape
    step = max(1, BLOCK_BYTES // X[0].nbytes)
    block = np.empty((min(m, step), n))
    for start in range(0, m, step):
        rows = X[start:start + step]
        out = block[: rows.shape[0]]
        np.matmul(rows, Q2, out=out)
        rows[...] = out
    return X, R, piv


def _positive_diagonal(Q: np.ndarray, R: np.ndarray) -> None:
    """Flip, in place, the columns of Q and the rows of R where R's diagonal
    is negative, so that it is nonnegative and Q R is unchanged."""
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    Q *= signs
    R *= signs[:, None]


@dataclass
class LsOracle:
    """The exact least-squares solution x_ls of min ||A x - b||, from
    :func:`solve_ls_oracle`, and the one evaluator of residual norms at any
    x (:meth:`residual_norms`)."""
    A: MatrixHandle
    b: np.ndarray
    x_ls: np.ndarray
    r_ls_norm: float
    atr_ls: np.ndarray   # A^T r_ls, nearly zero
    b_norm: float

    def residual_norms(self, x: np.ndarray) -> Tuple[float, float, float]:
        """``(||r||, ||A^T r||, ||r - r_ls||)`` for r = A x - b, in O(n^2)
        and with no product with A.

        A's cached pivoted QR A[:, piv] = Q R (:meth:`MatrixHandle.qr_factor`)
        gives ||A e|| = ||R e[piv]|| and (A^T A e)[piv] = R^T R e[piv], so
        with e = x - x_ls and g = A^T r_ls, both taken in pivot order, and
        A x - b = A e + r_ls,

            ||A x - b||^2 = ||R e||^2 + 2 e^T g + ||r_ls||^2,
            ||A^T (A x - b)|| = ||R^T (R e) + g||,
            ||(A x - b) - r_ls|| = ||R e||,

        all exact in exact arithmetic and free of cancellation against b.
        """
        _, R, piv = self.A.qr_factor()
        e, g = x[piv] - self.x_ls[piv], self.atr_ls[piv]
        Re = R @ e
        Re_sq = float(Re @ Re)
        rnorm = math.sqrt(max(Re_sq + 2.0 * float(e @ g) + self.r_ls_norm ** 2, 0.0))
        return rnorm, float(np.linalg.norm(R.T @ Re + g)), math.sqrt(Re_sq)


# ---------------------------------------------------------------------------
# Matrix Market I/O

# one coordinate entry line as the file parse reads it
_MM_ENTRY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


class _MmSize(NamedTuple):
    """What a Matrix Market file's header and size line declare."""
    coordinate: bool
    m: int
    n: int
    count: int   # entry lines (coordinate) or values (array) in the body
    lineno: int  # the size line's number


def load_matrix_market(path) -> MatrixHandle:
    """Parse a Matrix Market file (coordinate or array, real, general).

    Indices are 1-based on disk and 0-based in memory.  Raises
    :class:`MatrixMarketError` with the line number on any malformed content,
    a byte that is not ASCII included; complex and pattern fields and every
    symmetry but general are rejected.

    The header and size line are read once (:func:`_preamble`).  The body
    of either format then takes at most two parses.  One numpy ``loadtxt``
    straight from the open file (:func:`_file_body`), with no Python string
    per entry, takes every well-formed body without comment lines among its
    entries.  Any other body is read again from its first line by
    :func:`_line_body`, which names the first bad line.  A comment among
    the entries is one: Matrix Market puts comments before the size line,
    so a commented body is taken, but by the slower line loop.  Both parses
    give the same bits.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        size = _preamble(fh)
        body = fh.tell()
        fields = _file_body(fh, size)
        if fields is None:
            fh.seek(body)
            fields = _line_body(fh, size)
    if size.coordinate:
        rows, cols, vals = fields
        return MatrixHandle(scipy.sparse.coo_matrix((vals, (rows, cols)),
                                                    shape=(size.m, size.n)).tocsr())
    return MatrixHandle(fields[0].reshape((size.m, size.n), order="F"))


def _lines(fh, lineno: int):
    """``(number, stripped text)`` of each line ``fh.readline`` gives, numbered
    on from ``lineno``; raises :class:`MatrixMarketError` at a line with a
    byte that is not ASCII (the file is decoded with ``surrogateescape``)."""
    for line in iter(fh.readline, ""):
        lineno += 1
        if not line.isascii():
            raise MatrixMarketError(f"line {lineno}: byte that is not ASCII")
        yield lineno, line.strip()


def _preamble(fh) -> _MmSize:
    """Read the header, comment and size lines of ``fh``, leaving it at the
    body; raises :class:`MatrixMarketError` naming the line for a header this
    loader does not take or a missing or malformed size line."""
    lines = _lines(fh, 0)
    lineno, header = next(lines, (1, None))
    if header is None:
        raise MatrixMarketError("line 1: empty file")
    words = header.split()
    if len(words) != 5 or words[0] != "%%MatrixMarket" or words[1].lower() != "matrix":
        raise MatrixMarketError("line 1: expected '%%MatrixMarket matrix <format> <field> <symmetry>'")
    fmt, fieldkind, symmetry = (w.lower() for w in words[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"line 1: unsupported format '{fmt}'")
    if fieldkind not in ("real", "integer"):
        raise MatrixMarketError(f"line 1: unsupported field '{fieldkind}' (only real-valued matrices)")
    if symmetry != "general":
        raise MatrixMarketError(f"line 1: unsupported symmetry '{symmetry}'")
    for lineno, text in lines:
        if text and not text.startswith("%"):
            break
    else:
        raise MatrixMarketError(f"line {lineno}: missing size line")
    parts = text.split()
    coordinate = fmt == "coordinate"
    if coordinate and len(parts) != 3:
        raise MatrixMarketError(f"line {lineno}: coordinate size line needs 'rows cols nnz'")
    if not coordinate and len(parts) != 2:
        raise MatrixMarketError(f"line {lineno}: array size line needs 'rows cols'")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(f"line {lineno}: non-integer size entry") from None
    if min(dims) < 1:
        raise MatrixMarketError(f"line {lineno}: empty matrix rejected")
    m, n = dims[:2]
    return _MmSize(coordinate, m, n, dims[2] if coordinate else m * n, lineno)


def _file_body(fh, size: _MmSize):
    """The body's fields, parsed by one numpy ``loadtxt`` from the open file
    ``fh``: 0-based ``(rows, cols, vals)`` of a coordinate file, ``(vals,)``
    of an array file.

    None for a body that is not ``size.count`` in-bounds finite entries
    alone on their lines, or that the parse cannot take; the caller reads
    any such body again by :func:`_line_body`, which reports it.  With
    warnings raised as errors the parse accepts a strict subset of what
    ``int``/``float`` accept.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # ndmin=2 keeps a line of three values one row, where ndmin=1
            # would read one such line of an array body as three values
            parsed = np.loadtxt(fh, dtype=_MM_ENTRY_DTYPE if size.coordinate else np.float64,
                                comments=None, ndmin=2)
    except Exception:  # noqa: BLE001 - the line loop reports what this parse cannot take
        return None
    if parsed.shape != (size.count, 1):
        return None
    parsed = parsed[:, 0]
    if not size.coordinate:
        return (parsed,) if np.isfinite(parsed).all() else None
    i, j, v = parsed["i"], parsed["j"], parsed["v"]
    if (((i < 1) | (i > size.m) | (j < 1) | (j > size.n)).any()
            or not np.isfinite(v).all()):
        return None
    return i - 1, j - 1, np.ascontiguousarray(v)


def _line_body(fh, size: _MmSize):
    """:func:`_file_body` by two passes over the body's lines, numbered on
    from the size line, with one Python string at a time; accepts what
    ``int``/``float`` accept and raises :class:`MatrixMarketError` naming the
    first bad line.  The first pass counts the entry lines, the second
    parses them, so a bad count is reported before a bad token, and a bad
    token before a non-finite value."""
    body = fh.tell()
    found = sum(1 for _, text in _lines(fh, size.lineno) if text and not text.startswith("%"))
    if found != size.count:
        noun = "entries" if size.coordinate else "values"
        raise MatrixMarketError(
            f"line {size.lineno}: declared {size.count} {noun}, found {found}")
    fh.seek(body)
    if size.coordinate:
        width, shape, noun = 3, "'row col value'", "entry"
        fields = (np.empty(size.count, dtype=np.int64), np.empty(size.count, dtype=np.int64),
                  np.empty(size.count))
    else:
        width, shape, noun = 1, "a single value", "value"
        fields = (np.empty(size.count),)
    k, non_finite = 0, None
    for ln, text in _lines(fh, size.lineno):
        if not text or text.startswith("%"):
            continue
        toks = text.split()
        if len(toks) != width:
            raise MatrixMarketError(f"line {ln}: expected {shape}")
        try:
            ij = [int(t) for t in toks[:-1]]
            v = float(toks[-1])
        except ValueError:
            raise MatrixMarketError(f"line {ln}: malformed {noun}") from None
        if ij:
            i, j = ij
            if not (1 <= i <= size.m and 1 <= j <= size.n):
                raise MatrixMarketError(f"line {ln}: index ({i},{j}) out of bounds")
            fields[0][k], fields[1][k] = i - 1, j - 1
        fields[-1][k] = v
        if non_finite is None and not math.isfinite(v):
            non_finite = ln
        k += 1
    if non_finite is not None:
        raise MatrixMarketError(f"line {non_finite}: non-finite value")
    return fields


# ---------------------------------------------------------------------------
# CSV output

def _csv_cell(value):
    """A bool (tested first: it is an int) as 0 or 1, a float as ``.17g``;
    anything else as ``csv`` writes it."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_csv(path, columns, rows) -> None:
    """``columns`` as the header line of the CSV file ``path``, then one line
    per row of ``rows``, each cell as :func:`_csv_cell` gives it."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_csv_cell(value) for value in row] for row in rows)


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
    """Random dense m-by-n matrix with prescribed condition number, held as
    its pivoted QR.

    A = U diag(s) V^T with log-spaced singular values s from 1 down to
    1/cond.  U and V are the orthonormal factors of m-by-n and n-by-n
    Gaussian draws with a positive R diagonal, so both are Haar
    distributed.  V is formed (:func:`_haar_q`), but not A or U = X T^-1,
    (X, T) of :func:`_haar_factor` in the draw's buffer: the handle holds
    only A's pivoted QR, :func:`_pivoted_factor` of (X, T, diag(s) V^T).
    Raises ValueError before any draw for a shape that is not tall or
    square, or for a cond that is not finite and >= 1.
    """
    if m < n or n < 1:
        raise ValueError("need m >= n >= 1")
    if not (math.isfinite(cond) and cond >= 1):
        raise ValueError("cond must be finite and >= 1")
    gen = stream(seed, "synthmat", m, n)
    G = gen.standard_normal((m, n))
    V = _haar_q(gen.standard_normal((n, n)))
    s = np.logspace(0.0, -math.log10(cond), n) if n > 1 else np.array([1.0])
    return MatrixHandle(factor=_pivoted_factor(*_haar_factor(G), s[:, None] * V.T))


def _haar_q(G: np.ndarray) -> np.ndarray:
    """Q of G = Q R with a positive R diagonal, Haar distributed for a
    Gaussian G (Mezzadri, Notices AMS 2007): X T^-1 of :func:`_haar_factor`."""
    X, T = _haar_factor(G)
    _solve_rows(X.T, T)
    return X


def _haar_factor(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(X, T) of :func:`_orthonormal_factor`, or, for a G it rejects (no draw
    has been seen to), T = I and the Q of G's Householder QR made R_ii > 0;
    a second-pass rejection leaves G R0^-1 in G, R0_ii > 0: the same Q."""
    try:
        return _orthonormal_factor(G)[:2]
    except np.linalg.LinAlgError:
        Q, R = scipy.linalg.qr(G, mode="economic")
        _positive_diagonal(Q, R)
        return np.ascontiguousarray(Q), np.eye(G.shape[1])


def _orthonormal_factor(G: np.ndarray, max_cond: float = math.inf
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, T, R) with G = Q R, R_ii > 0 and Q = X T^-1 orthonormal, by
    CholeskyQR in G's buffer, less the last pass's solve: the caller's.

    A pass forms C = X^T X (SYRK) and its Cholesky factor C = T^T T.  One
    whose kappa_2(T), read from T's singular values, is at most 2 is the
    last: a pass loses orthogonality as u kappa_2(X)^2 (Yamamoto et al.,
    ETNA 2015).  Otherwise X <- X T^-1 (:func:`_solve_rows`) and a second
    pass, the last, make Q orthonormal to rounding while kappa(G) is below
    about 1e8 (Fukaya et al., SISC 2020), and R is the product of the two
    T.  G is overwritten and returned as X when it is C-ordered float64, as
    a draw is.  Raises LinAlgError when a Cholesky fails (kappa(G) above
    about 1e8; the first pass fails before G is written), or R's
    :func:`cond_estimate` is above ``max_cond``.
    """
    X = np.ascontiguousarray(G, dtype=np.float64)
    Xt = X.T  # Fortran-ordered view, so BLAS works in X's buffer
    R = T = gram_cholesky(Xt)
    if T is not None:
        sv = scipy.linalg.svd(T, compute_uv=False)
        if sv[0] > 2.0 * sv[-1]:
            _solve_rows(Xt, T)
            T = gram_cholesky(Xt)
            R = None if T is None else T @ R
    if T is None:
        raise np.linalg.LinAlgError("CholeskyQR: matrix is numerically rank deficient")
    if max_cond < math.inf and cond_estimate(R) > max_cond:
        raise np.linalg.LinAlgError("CholeskyQR: condition estimate above the limit")
    return X, T, R


def gram_cholesky(Xt: np.ndarray) -> Optional[np.ndarray]:
    """Upper triangular R, R_ii > 0, with R^T R = X^T X for X = Xt^T, by
    SYRK and POTRF, or None when the Cholesky fails.  A Fortran-ordered Xt
    is read without a copy."""
    C = scipy.linalg.blas.dsyrk(1.0, Xt)
    R, info = scipy.linalg.lapack.dpotrf(C, overwrite_a=True)
    return R if info == 0 else None


def _solve_rows(Xt: np.ndarray, T: np.ndarray) -> None:
    """X <- X T^-1 for X = Xt^T, Xt Fortran-ordered, by TRSM in place on
    max(1, BLOCK_BYTES // (8 n)) rows of X at a time, so BLAS packs one
    block at most.  A row of X T^-1 reads only that row of X, so the result
    is bit for bit that of one solve over all m rows."""
    step = max(1, BLOCK_BYTES // (8 * Xt.shape[0]))
    for start in range(0, Xt.shape[1], step):
        scipy.linalg.blas.dtrsm(1.0, T, Xt[:, start:start + step], trans_a=True,
                                overwrite_b=True)


def cond_estimate(R: np.ndarray) -> float:
    """LAPACK's estimate (dtrcon) of the 1-norm condition number of an upper
    triangular R, in O(n^2); inf when R is singular."""
    rcond, _ = scipy.linalg.lapack.dtrcon(R, norm="1", uplo="U", diag="N")
    return 1.0 / rcond if rcond > 0.0 else math.inf


# ---------------------------------------------------------------------------
# Exact oracle and spectral data

def _qr_solve(matvec, factor: QrFactor, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of M x = rhs from the pivoted QR ``(Q, R, piv)``
    of M, refined once by ``matvec(x) = M @ x``; Q None stands for the
    first n columns of the identity, for M[:, piv] = [R; 0].  Raises
    :class:`RankDeficiencyError` when the smallest R diagonal is below
    :data:`RANK_TOL` of the largest."""
    Q, R, piv = factor
    diag = np.abs(np.diag(R))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0 or diag.min() < RANK_TOL * scale:
        raise RankDeficiencyError(
            f"rank deficiency: smallest R diagonal {diag.min():.3e} vs scale {scale:.3e}")

    def solve_once(v):
        y = scipy.linalg.solve_triangular(R, v[: R.shape[0]] if Q is None else Q.T @ v,
                                          lower=False)
        x = np.empty_like(y)
        x[piv] = y
        return x

    x = solve_once(rhs)
    return x + solve_once(rhs - matvec(x))


def qr_ls_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve of a dense tall matrix by column-pivoted QR.

    One step of residual refinement pushes the normal-equation residual of
    the computed solution to near machine precision.  Raises
    :class:`RankDeficiencyError` when the R diagonal collapses.
    """
    M = np.asarray(M, dtype=np.float64)
    return _qr_solve(lambda x: M @ x, scipy.linalg.qr(M, mode="economic", pivoting=True), rhs)


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

    The cached column-pivoted QR of A (:meth:`MatrixHandle.qr_factor`), refined
    once by :meth:`MatrixHandle.matvec`: each b costs two triangular solves,
    not a factorization, and a CSR A is not densified.  It is bit for bit
    ``_qr_solve(A.matvec, F, b)`` for F a fresh factor of the same A, and
    agrees with ``qr_ls_solve(A.dense(), b)``, the Householder QR of A's m
    rows, to rounding; for a loaded dense A that CholeskyQR rejects it is
    bit for bit that.  Its residual r = A x_ls - b, held only as ||r|| and
    A^T r, satisfies ||A^T r|| / (||A|| ||r||) <= 1e-10.
    """
    b = as_rhs(A, b)
    x = _qr_solve(A.matvec, A.qr_factor(), b)
    r = A.matvec(x) - b
    return LsOracle(A, b, x, float(np.linalg.norm(r)), A.rmatvec(r), float(np.linalg.norm(b)))


def spectral_norms(A: MatrixHandle) -> SpectralInfo:
    """Largest/smallest singular values and condition number of A, which
    :meth:`MatrixHandle.spectral` caches.

    All three come from the SVD of the n-by-n R of A's pivoted QR
    (:meth:`MatrixHandle.qr_factor`): a column permutation does not change
    singular values.  Raises :class:`RankDeficiencyError` when sigma_min is
    below :data:`RANK_TOL` of the norm, the oracle's threshold.
    """
    sv = scipy.linalg.svd(A.qr_factor()[1], compute_uv=False)
    norm = float(sv[0])
    sigma_min = float(sv[-1])
    if sigma_min < RANK_TOL * norm:
        raise RankDeficiencyError(
            f"numerical rank deficiency: sigma_min = {sigma_min:.3e}, norm = {norm:.3e}")
    return SpectralInfo(norm, sigma_min, norm / sigma_min if sigma_min != 0.0 else math.inf)
