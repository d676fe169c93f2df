import csv
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st

from sketchls import embed, matio
from sketchls.matio import (BLOCK_BYTES, MatrixHandle, MatrixMarketError, RankDeficiencyError,
                            load_matrix_market, qr_ls_solve, solve_ls_oracle,
                            spectral_norms, synthesize_matrix, synthesize_problem,
                            write_csv)
from sketchls.rng import stream

from conftest import householder_handle, random_tall
from reference import csr, save_matrix_market


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


COORD_IDENTITY = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
"""


VALUE_FORMATS = ["{:.17g}", "{:.3e}", "{:+.6f}", "{!r}"]
# a token the line loop names a bad line for, or that only int/float accept
MUTANT_TOKENS = ["oops", "1.0", "1_0", "nan", "-inf", "1e999", "0", "+1", "01",
                 "99999999999999999999"]


def mm_corpus(gen):
    """Texts of a well-formed coordinate file and array file, then 30
    copies of each with one body line changed."""
    n = 40
    i, j = gen.integers(1, n + 1, size=300), gen.integers(1, n + 1, size=300)
    v = gen.standard_normal(300) * 10.0 ** gen.integers(-20, 20, size=300)
    # repeated (i, j) entries are kept: both paths must sum them alike
    coordinate = [f"{n} {n} 300"] + [f"{a} {b}\t{VALUE_FORMATS[k % 4].format(x)}"
                                     for k, (a, b, x) in enumerate(zip(i, j, v.tolist()))]
    v = gen.standard_normal(48) * 10.0 ** gen.integers(-5, 5, size=48)
    array = ["8 6"] + [VALUE_FORMATS[k % 4].format(x) for k, x in enumerate(v.tolist())]
    files = [("coordinate", coordinate), ("array", array)]
    for fmt, base in list(files):
        for _ in range(30):
            lines = list(base)
            k = int(gen.integers(1, len(lines)))
            op = int(gen.integers(6))
            if op == 0:
                toks = lines[k].split()
                toks[int(gen.integers(len(toks)))] = str(gen.choice(MUTANT_TOKENS))
                lines[k] = " ".join(toks)
            elif op == 1:
                del lines[k]
            elif op == 2:
                lines.insert(k, "% note")
            elif op == 3:
                lines.insert(k, "  ")
            elif op == 4:
                lines[k] += " 1"
            else:
                lines[k] = "1 1 1.0"
            files.append((fmt, lines))
    return [f"%%MatrixMarket matrix {fmt} real general\n% note\n" + "\n".join(lines) + "\n"
            for fmt, lines in files]


def loaded(path):
    """The bits of the loaded matrix, or the message it is rejected with."""
    try:
        A = load_matrix_market(path)
    except MatrixMarketError as exc:
        return str(exc)
    if A.is_sparse:
        return tuple(getattr(csr(A), attr).tobytes() for attr in ("data", "indices", "indptr"))
    return A.dense().shape, A.dense().tobytes()


class TestMatrixMarket:
    def test_coordinate_identity(self, tmp_path):
        A = load_matrix_market(write(tmp_path, "id.mtx", COORD_IDENTITY))
        assert (A.rows, A.cols, csr(A).nnz) == (2, 2, 2)
        assert np.array_equal(A.dense(), np.eye(2))

    def test_coordinate_general(self, tmp_path):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "% a comment line\n"
                "3 2 3\n"
                "1 1 2.5\n"
                "3 1 -1e-2\n"
                "2 2 7\n")
        A = load_matrix_market(write(tmp_path, "g.mtx", text))
        expect = np.array([[2.5, 0.0], [0.0, 7.0], [-0.01, 0.0]])
        assert np.array_equal(A.dense(), expect)

    def test_array_format(self, tmp_path):
        text = ("%%MatrixMarket matrix array real general\n"
                "2 2\n1\n2\n3\n4\n")
        A = load_matrix_market(write(tmp_path, "a.mtx", text))
        # column-major storage on disk
        assert np.array_equal(A.dense(), np.array([[1.0, 3.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("header,expected_line", [
        ("%%MatrixMarket matrix coordinate complex general", "line 1"),
        ("%%MatrixMarket matrix coordinate pattern general", "line 1"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric", "line 1"),
        ("%%MatrixMarket matrix coordinate real symmetric",
         "^line 1: unsupported symmetry 'symmetric'$"),
        ("%%MatrixMarket vector coordinate real general", "line 1"),
    ])
    def test_header_rejection(self, tmp_path, header, expected_line):
        with pytest.raises(MatrixMarketError, match=expected_line):
            load_matrix_market(write(tmp_path, "bad.mtx", header + "\n2 2 1\n1 1 1\n"))

    def test_empty_matrix_rejected(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n0 0 0\n"
        with pytest.raises(MatrixMarketError, match="empty"):
            load_matrix_market(write(tmp_path, "e.mtx", text))

    def test_out_of_bounds_reports_line(self, tmp_path):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n"
                "5 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            load_matrix_market(write(tmp_path, "oob.mtx", text))

    def test_malformed_entry_reports_line(self, tmp_path):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n"
                "1 1 1.0\n"
                "2 2 oops\n")
        with pytest.raises(MatrixMarketError, match="line 4"):
            load_matrix_market(write(tmp_path, "bad.mtx", text))

    @pytest.mark.parametrize("entry,message", [
        ("2 3 1.0", r"line 4: index \(2,3\) out of bounds"),
        ("0 1 1.0", r"line 4: index \(0,1\) out of bounds"),
        ("2 2 1.0 # note", "line 4: expected 'row col value'"),
        ("2 2 1.0 % note", "line 4: expected 'row col value'"),
        ("2 2.0 1.0", "line 4: malformed entry"),
    ])
    def test_bad_entry_message(self, tmp_path, entry, message):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{entry}\n"
        with pytest.raises(MatrixMarketError, match=message):
            load_matrix_market(write(tmp_path, "bad.mtx", text))

    @pytest.mark.parametrize("text,line", [
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", "line 4"),
        ("%%MatrixMarket matrix array real general\n2 1\n% note\n-inf\n1\n", "line 4"),
    ])
    def test_non_finite_value_reports_line(self, tmp_path, text, line):
        with pytest.raises(MatrixMarketError, match=f"{line}: non-finite"):
            load_matrix_market(write(tmp_path, "nan.mtx", text))

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: empty file"),
        ("%%MatrixMarket matrix array real general\n% note\n\n", "line 3: missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
         "line 2: coordinate size line needs 'rows cols nnz'"),
        ("%%MatrixMarket matrix array real general\n% n\n2 1 2\n1\n2\n",
         "line 3: array size line needs 'rows cols'"),
        ("%%MatrixMarket matrix array real general\n2 1.0\n1\n2\n",
         "line 2: non-integer size entry"),
    ], ids=["empty", "no-size", "coordinate-size", "array-size", "non-integer"])
    def test_preamble_error_names_its_line(self, tmp_path, text, message):
        with pytest.raises(MatrixMarketError, match=f"^{message}$"):
            load_matrix_market(write(tmp_path, "p.mtx", text))

    def test_array_line_of_three_values(self, tmp_path):
        text = "%%MatrixMarket matrix array real general\n2 2\n1 1 1.0\n"
        with pytest.raises(MatrixMarketError, match="^line 2: declared 4 values, found 1$"):
            load_matrix_market(write(tmp_path, "a3.mtx", text))

    @pytest.mark.parametrize("lines,line", [
        (["% author: Jos\u00e9", "2 2 1", "1 1 1.0"], 2),
        (["2 2 2", "1 1 1.0", "% Jos\u00e9", "2 2 1.0"], 4),
        # past the first 8 KiB the decoder reads ahead in
        (["3000 1 3000"] + [f"{k} 1 1.0" for k in range(1, 2500)] + ["2500 1 2.0\u00e9"]
         + [f"{k} 1 1.0" for k in range(2501, 3001)], 2502),
    ], ids=["header-comment", "body-comment", "entry-value"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, lines, line):
        path = tmp_path / "u.mtx"
        path.write_text("\n".join(["%%MatrixMarket matrix coordinate real general"] + lines) + "\n",
                        encoding="utf-8")
        with pytest.raises(MatrixMarketError, match=f"^line {line}: byte that is not ASCII$"):
            load_matrix_market(path)

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        """The declared counts of the bodies that go through the line loop."""
        calls = []
        real = matio._line_body

        def counting(fh, size):
            calls.append(size.count)
            return real(fh, size)

        monkeypatch.setattr(matio, "_line_body", counting)
        return calls

    def test_vectorized_entries_equal_loop(self, tmp_path, monkeypatch, loop_calls):
        """Every file of a seeded corpus, well formed or with one body line
        mutated, loads to the same bits or fails with the same message with
        the file parse disabled."""
        corpus = mm_corpus(stream(11, "mtx", "general"))
        paths = [write(tmp_path, f"{k}.mtx", text) for k, text in enumerate(corpus)]
        fast = [loaded(path) for path in paths[:2]]
        assert loop_calls == []  # the well-formed files take the file parse
        fast += [loaded(path) for path in paths[2:]]
        assert 0 < len(loop_calls) < len(paths)
        assert any(isinstance(out, str) for out in fast)
        assert any(not isinstance(out, str) for out in fast[2:])
        monkeypatch.setattr(matio, "_file_body", lambda fh, size: None)
        loop_calls.clear()
        assert [loaded(path) for path in paths] == fast
        assert len(loop_calls) == len(paths)

    @pytest.mark.parametrize("body,file_path", [
        ("1 1 1.0\n\n  \n2 2 -3e-1\n", True),   # blank lines
        ("1 1 1.0\n% note\n2 2 -3e-1\n", False),  # a comment among the entries
        ("1 1 1.0\n2 2 -3e-1\n", True),
    ], ids=["blank-lines", "body-comment", "plain"])
    def test_file_path_or_line_path(self, tmp_path, loop_calls, body, file_path):
        A = load_matrix_market(write(
            tmp_path, "b.mtx", "%%MatrixMarket matrix coordinate real general\n"
                               "% head\n\n2 2 2\n" + body))
        assert np.array_equal(A.dense(), np.array([[1.0, 0.0], [0.0, -0.3]]))
        assert (loop_calls == []) == file_path

    def test_entry_only_python_parses_loads(self, tmp_path, loop_calls):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1_0.5\n2 2 1.0\n")
        A = load_matrix_market(write(tmp_path, "u.mtx", text))
        assert loop_calls == [2]
        assert np.array_equal(A.dense(), np.array([[10.5, 0.0], [0.0, 1.0]]))

    def test_load_memory_bounded_by_the_csr(self, tmp_path):
        m, n, nnz = 4000, 50, 20000
        gen = stream(3, "mtx-peak")
        i, j = gen.integers(1, m + 1, size=nnz), gen.integers(1, n + 1, size=nnz)
        v = gen.standard_normal(nnz)
        path = write(tmp_path, "peak.mtx", f"%%MatrixMarket matrix coordinate real general\n"
                     f"{m} {n} {nnz}\n" + "".join(
                         f"{a} {b} {x:.17g}\n" for a, b, x in zip(i, j, v.tolist())))
        tracemalloc.start()
        try:
            mat = csr(load_matrix_market(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 4 times the CSR on the file path; a Python string and tuple
        # per entry line took 25 times
        assert peak < 8 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)

    def test_malformed_last_entry_named_within_the_csr(self, tmp_path, loop_calls):
        m, n, nnz = 4000, 50, 20000
        gen = stream(3, "mtx-peak")
        i, j = gen.integers(1, m + 1, size=nnz), gen.integers(1, n + 1, size=nnz)
        v = gen.standard_normal(nnz)
        mat = scipy.sparse.coo_matrix((v, (i - 1, j - 1)), shape=(m, n)).tocsr()
        lines = [f"{a} {b} {x:.17g}\n" for a, b, x in zip(i, j, v.tolist())]
        lines[-1] = "1 1 1.0x\n"
        path = write(tmp_path, "last.mtx", f"%%MatrixMarket matrix coordinate real general\n"
                     f"{m} {n} {nnz}\n" + "".join(lines))
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match="^line 20002: malformed entry$"):
                load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the line loop holds one line at a time, not a list of the body's
        assert loop_calls == [nnz]
        assert peak < 5 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)

    def test_body_comments_load_bounded_by_the_csr(self, tmp_path, loop_calls):
        m, n, nnz = 4000, 50, 20000
        gen = stream(3, "mtx-peak")
        i, j = gen.integers(1, m + 1, size=nnz), gen.integers(1, n + 1, size=nnz)
        v = gen.standard_normal(nnz)
        lines = [f"{a} {b} {x:.17g}\n" for a, b, x in zip(i, j, v.tolist())]
        lines[nnz // 2:nnz // 2] = ["% mid\n", "   % indented\n"]
        path = write(tmp_path, "mid.mtx", f"%%MatrixMarket matrix coordinate real general\n"
                     f"{m} {n} {nnz}\n" + "".join(lines))
        tracemalloc.start()
        try:
            mat = csr(load_matrix_market(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file parse fails at the comment, at about 4 times the CSR; the
        # line loop holds one line at a time
        assert loop_calls == [nnz]
        assert peak < 5 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)
        full = scipy.sparse.coo_matrix((v, (i - 1, j - 1)), shape=(m, n)).tocsr()
        assert np.array_equal(mat.toarray(), full.toarray())

    def test_roundtrip_sparse(self, tmp_path):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 1], dtype=np.uint64)))
        dense = gen.standard_normal((7, 4))
        dense[gen.random((7, 4)) < 0.6] = 0.0
        dense[0, 0] = 1.0 / 3.0  # not exactly representable in decimal
        import scipy.sparse
        A = MatrixHandle(scipy.sparse.csr_matrix(dense))
        path = tmp_path / "rt.mtx"
        save_matrix_market(A, path)
        B = load_matrix_market(path)
        a, b = csr(A), csr(B)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_roundtrip_dense(self, tmp_path):
        A = random_tall(5, 3, 8)
        path = tmp_path / "rt2.mtx"
        save_matrix_market(A, path)
        B = load_matrix_market(path)
        assert np.array_equal(A.dense(), B.dense())


# (cell, the expression each writer used for it before the one writer)
OLD_CELLS = {
    "0.1": (0.1, f"{0.1:.17g}"),
    "-0.0": (-0.0, f"{-0.0:.17g}"),
    "5e-324": (5e-324, f"{5e-324:.17g}"),
    "1e308": (1e308, f"{1e308:.17g}"),
    "nan": (math.nan, f"{math.nan:.17g}"),
    "inf": (math.inf, f"{math.inf:.17g}"),
    "-inf": (-math.inf, f"{-math.inf:.17g}"),
    "float64": (np.float64(0.1), f"{np.float64(0.1):.17g}"),
    "True": (True, int(True)),
    "False": (False, int(False)),
    "int": (7, 7),
    "int64": (np.int64(7), np.int64(7)),
    "comma-name": ("a,b", "a,b"),
}


@pytest.mark.parametrize("cell", OLD_CELLS)
def test_write_csv_cell_is_the_old_expression(tmp_path, cell):
    value, old = OLD_CELLS[cell]
    write_csv(tmp_path / "new.csv", ["name", "value"], [["x", value]])
    with open(tmp_path / "old.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value"])
        writer.writerow(["x", old])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def small_matrices(draw):
    """A tall dense array of finite doubles, zeros kept where the mask says."""
    n = draw(st.integers(1, 5))
    m = n + draw(st.integers(0, 5))
    vals = np.array(draw(st.lists(FINITE, min_size=m * n, max_size=m * n))).reshape(m, n)
    keep = np.array(draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
    return np.where(keep.reshape(m, n), vals, 0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dense=small_matrices(), sparse=st.booleans())
def test_save_load_roundtrip_is_bit_exact(tmp_path_factory, dense, sparse):
    A = MatrixHandle(scipy.sparse.csr_matrix(dense) if sparse else dense)
    assume(not sparse or csr(A).nnz > 0)  # a coordinate file needs an entry
    path = tmp_path_factory.getbasetemp() / "roundtrip.mtx"
    save_matrix_market(A, path)
    B = load_matrix_market(path)
    assert B.is_sparse == sparse
    if sparse:
        a, b = csr(A), csr(B)
        assert all(same_bits(getattr(a, attr), getattr(b, attr))
                   for attr in ("indptr", "indices", "data"))
    else:
        assert same_bits(A.dense(), B.dense())


def redraw(A, seed, residual_scale=1e-3):
    """x and r = residual_scale * t / ||t||, drawn from the streams that
    :func:`synthesize_problem` draws them from."""
    x = stream(seed, "problem", "x").standard_normal(A.cols)
    t = stream(seed, "problem", "t").standard_normal(A.rows)
    return x, residual_scale * t / np.linalg.norm(t)


class TestSynthesis:
    def test_residual_norm_equals_scale(self):
        A = random_tall(60, 5, 1)
        b = synthesize_problem(A, seed=1, residual_scale=1e-3)
        x, r = redraw(A, 1)
        assert np.array_equal(b, A.matvec(x) - r)
        assert abs(np.linalg.norm(r) - 1e-3) <= 1e-15

    def test_construction_identity(self):
        A = random_tall(80, 7, 2)
        b = synthesize_problem(A, seed=9)
        x, r = redraw(A, 9)
        gap = np.linalg.norm(A.matvec(x) - b - r)
        bound = 1e-12 * (A.spectral_norm() * np.linalg.norm(x)
                         + np.linalg.norm(b))
        assert gap <= bound

    def test_deterministic(self):
        A = random_tall(50, 4, 3)
        assert np.array_equal(synthesize_problem(A, seed=5), synthesize_problem(A, seed=5))

    def test_zero_scale_rejected(self):
        A = random_tall(50, 4, 3)
        with pytest.raises(ValueError):
            synthesize_problem(A, seed=1, residual_scale=0.0)

    def test_synthesize_matrix_condition(self):
        for m, n, cond, seed in [(120, 8, 250.0, 4), (200, 15, 1e4, 3)]:
            info = synthesize_matrix(m, n, cond, seed=seed).spectral()
            assert info.cond == pytest.approx(cond, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_square_reproduces_singular_values(self, seed):
        A = synthesize_matrix(60, 60, 1e3, seed)
        s = np.logspace(0.0, -3.0, 60)
        sv = np.linalg.svd(A.dense(), compute_uv=False)
        assert np.all(np.abs(sv - s) <= 1e-13 * s)
        assert A.dense().flags.f_contiguous

    def test_no_householder_qr_of_m_rows(self, monkeypatch):
        m, n = 400, 10
        rows = []

        def recording(qr):
            def wrapper(M, *args, **kwargs):
                rows.append(np.shape(M)[0])
                return qr(M, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
        monkeypatch.setattr(scipy.linalg, "qr", recording(scipy.linalg.qr))
        # the one n-by-n pivoted QR of R1 = diag(s) V^T runs at synthesis,
        # and none after it
        A = synthesize_matrix(m, n, 100.0, 0)
        assert rows == [n]
        A.qr_factor()
        assert rows == [n]

    @pytest.mark.parametrize("cond", [math.nan, math.inf, -math.inf, 0.5])
    def test_bad_cond_rejected_before_any_draw(self, cond, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking cond")

        monkeypatch.setattr(matio, "stream", no_draw)
        with pytest.raises(ValueError, match="cond must be finite and >= 1"):
            synthesize_matrix(100, 5, cond, 0)


def assert_positive_q_factor(factor, G):
    """``factor`` is (Q, R) of G = Q R with R_ii > 0, to rounding: Q has
    orthonormal columns, Q^T G is upper triangular with a positive
    diagonal, and R is upper triangular with a positive diagonal and
    reproduces G."""
    Q, R = factor
    n = G.shape[1]
    assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-14
    QtG = Q.T @ G
    assert np.linalg.norm(np.tril(QtG, -1)) <= 1e-14 * np.linalg.norm(G)
    assert np.all(np.diag(QtG) > 0)
    assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0)
    assert np.linalg.norm(G - Q @ R) <= 1e-14 * np.linalg.norm(G)


def conditioned(m, n, cond, seed):
    """C-ordered m-by-n matrix with singular values log-spaced from 1 to 1/cond."""
    gen = stream(seed, "test-conditioned", m, n)
    U = np.linalg.qr(gen.standard_normal((m, n)))[0]
    V = np.linalg.qr(gen.standard_normal((n, n)))[0]
    return np.ascontiguousarray((U * np.logspace(0.0, -math.log10(cond), n)) @ V.T)


def orthonormal_factor(G):
    """(Q, R) of matio._orthonormal_factor's (X, T, R), Q = X T^-1 solved
    in X's buffer by the blocked solve the factor leaves to its caller."""
    X, T, R = matio._orthonormal_factor(G)
    matio._solve_rows(X.T, T)
    return X, R


class TestOrthonormalFactor:
    """matio._orthonormal_factor, the CholeskyQR of every factor, against the
    definition of the Q factor with a positive R diagonal."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Whether each CholeskyQR pass took its Cholesky, in order."""
        seen = []
        plain_gram_cholesky = matio.gram_cholesky

        def recording(Xt):
            R = plain_gram_cholesky(Xt)
            seen.append(R is not None)
            return R

        monkeypatch.setattr(matio, "gram_cholesky", recording)
        return seen

    @pytest.mark.parametrize("shape", [(16000, 100), (2000, 100), (40, 40), (5, 1), (1, 1)])
    def test_gaussian(self, shape, passes):
        # a tall draw has kappa below 2 (1.17 and 1.55 here), and one column
        # has kappa 1: one pass; a square draw has kappa about n: two
        G = stream(0, "test-cholqr", *shape).standard_normal(shape)
        assert_positive_q_factor(orthonormal_factor(G.copy()), G)
        assert passes == ([True, True] if shape == (40, 40) else [True])

    def test_householder_convention_differs(self):
        G = stream(1, "test-cholqr").standard_normal((2000, 100))
        assert np.any(np.diag(np.linalg.qr(G)[1]) < 0)
        assert_positive_q_factor(orthonormal_factor(G.copy()), G)

    def test_written_in_the_draws_buffer(self):
        G = stream(2, "test-cholqr").standard_normal((300, 20))
        assert matio._orthonormal_factor(G)[0] is G

    def test_plain_path_at_cond_1e7(self, passes):
        G = conditioned(2000, 100, 1e7, 0)
        assert_positive_q_factor(orthonormal_factor(G.copy()), G)
        assert passes == [True, True]

    def test_cond_1e10_raises_and_synthesis_takes_householder(self, passes):
        # the first Cholesky fails and raises at once, with G untouched;
        # synthesis then takes the Householder Q with R's diagonal made
        # positive, which is the positive Q factor of G too
        G = conditioned(2000, 100, 1e10, 0)
        X = G.copy()
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            matio._orthonormal_factor(X)
        assert passes == [False] and np.array_equal(X, G)
        Q, R = scipy.linalg.qr(G, mode="economic")
        signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        Q_haar = matio._haar_q(G.copy())
        assert np.array_equal(Q_haar, Q * signs)
        assert_positive_q_factor((Q_haar, signs[:, None] * R), G)


class TestPassRule:
    """A CholeskyQR pass whose factor has kappa_2 <= 2 is the last, and the
    last pass's solve is folded into the n-by-n product Q = X (T^-1 Q2):
    the m-row passes that A's factor takes, and the orthogonality of Q."""

    @pytest.fixture
    def m_row_passes(self, monkeypatch):
        """``count(m)``: the Grams (SYRK) and triangular solves (TRSM) of an
        m-row operand that the CholeskyQR kernels ran."""
        seen = Counter()
        real_gram, real_solve = matio.gram_cholesky, matio._solve_rows

        def gram(Xt):
            seen["syrk", Xt.shape[1]] += 1
            return real_gram(Xt)

        def solve(Xt, T):
            seen["trsm", Xt.shape[1]] += 1
            return real_solve(Xt, T)

        monkeypatch.setattr(matio, "gram_cholesky", gram)
        monkeypatch.setattr(matio, "_solve_rows", solve)
        return lambda m: {"syrk": seen["syrk", m], "trsm": seen["trsm", m]}

    @staticmethod
    def assert_orthonormal(A):
        Q = A.qr_factor()[0]
        assert np.linalg.norm(Q.T @ Q - np.eye(A.cols), 2) <= 1e-14

    @pytest.mark.parametrize("cond, passes", [(1.9, 1), (2.1, 2)])
    def test_threshold_kappa_2(self, cond, passes, m_row_passes):
        A = MatrixHandle(conditioned(4000, 50, cond, 0))
        self.assert_orthonormal(A)
        assert m_row_passes(4000) == {"syrk": passes, "trsm": passes - 1}

    @pytest.mark.parametrize("workload", ["tall", "desk", "sweep-sparse"])
    def test_bench_shapes_take_one_pass(self, workload, m_row_passes):
        # the bench matrices: synthesized 16000 x 100 and 2000 x 100, whose
        # draws have kappa 1.17 and 1.55, and a loaded 8000 x 200 CSR with 8
        # entries a row, kappa about 1.45
        if workload == "sweep-sparse":
            m, n, per_row = 8000, 200, 8
            gen = stream(0, "test-pass-rule", m, n)
            cols = np.sort(gen.random((m, n)).argsort(axis=1)[:, :per_row], axis=1)
            A = MatrixHandle(scipy.sparse.csr_matrix(
                (gen.standard_normal(m * per_row), cols.ravel(),
                 np.arange(0, m * per_row + 1, per_row)), shape=(m, n)))
        else:
            m, n, cond = (16000, 100, 1e4) if workload == "tall" else (2000, 100, 100.0)
            A = synthesize_matrix(m, n, cond, 0xC0FFEE)
        self.assert_orthonormal(A)
        assert m_row_passes(m) == {"syrk": 1, "trsm": 0}

    def test_ill_conditioned_loaded_A_takes_two_passes(self, m_row_passes):
        A = MatrixHandle(conditioned(4000, 50, 1e7, 1))
        self.assert_orthonormal(A)
        assert m_row_passes(4000) == {"syrk": 2, "trsm": 1}


class TestCholeskyQrPass:
    """matio._solve_rows, a CholeskyQR pass's solve X T^-1, runs a row block
    of X at a time."""

    @pytest.mark.parametrize("shape", [(16000, 100), (8000, 200), (1311, 100), (5, 1)])
    def test_blocked_solve_bit_equal_to_one_solve(self, shape, monkeypatch):
        m, n = shape
        G = stream(5, "test-trsm", m, n).standard_normal(shape)
        R = matio.gram_cholesky(G.T)
        one_solve = scipy.linalg.blas.dtrsm(1.0, R, G.T, trans_a=True).T
        operands = []
        real_dtrsm = scipy.linalg.blas.dtrsm

        def recording(alpha, a, b, **kwargs):
            assert b.flags.f_contiguous  # solved in X's own buffer
            operands.append(b.nbytes)
            return real_dtrsm(alpha, a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg.blas, "dtrsm", recording)
        X = G.copy()
        matio._solve_rows(X.T, R)
        assert np.array_equal(X, one_solve)
        step = max(1, BLOCK_BYTES // (8 * n))
        assert len(operands) == math.ceil(m / step)
        assert sum(operands) == G.nbytes and max(operands) <= BLOCK_BYTES


class TestOracle:
    def test_closed_form_two_by_one(self):
        # normal equation (A^T A) x = A^T b: 2x = 1 -> x = 0.5, r = (-0.5, 0.5)
        A = MatrixHandle(np.array([[1.0], [1.0]]))
        oracle = solve_ls_oracle(A, np.array([1.0, 0.0]))
        assert oracle.x_ls[0] == pytest.approx(0.5, abs=1e-15)
        assert oracle.r_ls_norm == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_consistent_system(self):
        A = random_tall(40, 6, 7)
        x = np.arange(1.0, 7.0)
        b = A.matvec(x)
        oracle = solve_ls_oracle(A, b)
        assert np.linalg.norm(oracle.x_ls - x) <= 1e-12 * np.linalg.norm(x)
        assert oracle.r_ls_norm <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_orthogonality(self, seed):
        A = synthesize_matrix(150, 12, 10.0 ** (seed + 1), seed)
        b = synthesize_problem(A, seed)
        oracle = solve_ls_oracle(A, b)
        assert same_bits(oracle.atr_ls, A.rmatvec(A.matvec(oracle.x_ls) - b))
        ratio = np.linalg.norm(oracle.atr_ls) / (A.spectral_norm() * oracle.r_ls_norm)
        assert ratio <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_equation_invariant(self, seed):
        A = random_tall(90, 9, seed + 20)
        b = synthesize_problem(A, seed)
        oracle = solve_ls_oracle(A, b)
        lhs = np.linalg.norm(A.rmatvec(A.matvec(oracle.x_ls)) - A.rmatvec(b))
        assert lhs <= 1e-10 * A.spectral_norm() ** 2 * np.linalg.norm(oracle.x_ls)

    def test_rank_deficiency_detected(self):
        col = np.arange(1.0, 9.0)
        A = MatrixHandle(np.column_stack([col, 2 * col]))
        with pytest.raises(RankDeficiencyError, match="rank deficiency"):
            qr_ls_solve(A.dense(), np.ones(8))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_cached_factor_matches_fresh_solve(self, sparse):
        # one factorization of A serves every b, bit for bit the solve that
        # factors A afresh for each one, in a new handle of the same data,
        # and refines through the same product with A
        dense = random_tall(80, 7, 3).dense()
        if sparse:
            dense = dense * (np.abs(dense) > 0.5)
        data = scipy.sparse.csr_matrix(dense) if sparse else dense
        A = MatrixHandle(data)
        for seed in range(4):
            b = synthesize_problem(A, seed, 10.0 ** -seed)
            oracle = solve_ls_oracle(A, b)
            x = matio._qr_solve(A.matvec, MatrixHandle(data).qr_factor(), b)
            r = A.matvec(x) - b
            assert same_bits(oracle.x_ls, x)
            assert oracle.r_ls_norm == float(np.linalg.norm(r))
            assert same_bits(oracle.atr_ls, A.rmatvec(r))

    def test_csr_oracle_does_not_densify_once_factored(self, monkeypatch):
        dense = random_tall(80, 7, 3).dense()
        A = MatrixHandle(scipy.sparse.csr_matrix(dense * (np.abs(dense) > 0.5)))
        A.qr_factor()

        def refuse(self):
            raise AssertionError("densified")

        monkeypatch.setattr(MatrixHandle, "dense", refuse)
        oracle = solve_ls_oracle(A, synthesize_problem(A, 0))
        assert oracle.r_ls_norm > 0.0

    @pytest.mark.parametrize("storage", ["dense", "csr", "factor"])
    def test_residual_norms_match_the_m_row_values(self, storage):
        # the evaluator against r = A x - b formed over the m rows, at the
        # sketched minimizer, at x_ls and at a random x, for an
        # inconsistent b and a consistent one, within the observer tests'
        # tolerance: 1e-11 relative above the rounding floor of the m-row
        # residual, 1e3 u (||A|| ||x|| + ||b||), and ||A|| times it for A^T r
        A = synthesize_matrix(300, 12, 1e4, 4)
        if storage != "factor":
            A = MatrixHandle(A.dense() if storage == "dense" else scipy.sparse.csr_matrix(
                A.dense()))
        # the evaluator works in A's pivot order, so it must not be the identity
        assert (A.qr_factor()[2] != np.arange(12)).any()
        gen = stream(4, "evaluator")
        norm_A = A.spectral_norm()
        for b in (synthesize_problem(A, 5), A.matvec(gen.standard_normal(12))):
            oracle = solve_ls_oracle(A, b)
            r_ls = A.matvec(oracle.x_ls) - b
            S = embed.build_sketch("gaussian", 36, 300, 6)
            x_s = qr_ls_solve(embed.apply(S, A.dense()), embed.apply(S, b))
            for x in (x_s, oracle.x_ls, gen.standard_normal(12)):
                r = A.matvec(x) - b
                want = (np.linalg.norm(r), np.linalg.norm(A.rmatvec(r)),
                        np.linalg.norm(r - r_ls))
                floor = 1e3 * np.finfo(float).eps * (norm_A * np.linalg.norm(x)
                                                     + np.linalg.norm(b))
                got = oracle.residual_norms(x)
                for value, ref, scale in zip(got, want, (1.0, norm_A, 1.0)):
                    assert value == pytest.approx(ref, rel=1e-11, abs=scale * floor)

    def test_qr_factor_cached_and_read_only(self):
        A = random_tall(40, 5, 3)
        factor = A.qr_factor()
        assert A.qr_factor() is factor
        Q, R, piv = factor
        assert np.allclose(A.dense()[:, piv], Q @ R, rtol=0, atol=1e-13)
        for arr in factor:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_qr_factor_shared_across_threads(self):
        # every thread that races to fill the cache gets the one stored factor
        race_for_factor(random_tall(400, 20, 4))

    def test_synthetic_qr_factor_shared_across_threads(self):
        # the factor is the handle's storage: every thread gets that one
        A = synthesize_matrix(400, 20, 1e3, 4)
        Q, R, piv = race_for_factor(A)
        assert np.linalg.norm(A.dense()[:, piv] - Q @ R) <= 1e-13 * A.spectral_norm()
        for arr in (Q, R, piv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_rank_check_on_cached_factor(self):
        col = np.arange(1.0, 9.0)
        A = MatrixHandle(np.column_stack([col, 2 * col]))
        A.qr_factor()  # the factor itself does not raise
        with pytest.raises(RankDeficiencyError, match="rank deficiency"):
            solve_ls_oracle(A, np.ones(8))

    def test_non_finite_rhs_rejected(self):
        A = random_tall(30, 4, 2)
        b = np.ones(30)
        b[7] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            solve_ls_oracle(A, b)

    def test_one_rank_threshold(self):
        # sigma_min / sigma_max = 1e-13 is below RANK_TOL: the spectral data
        # and the oracle both call A rank deficient
        A = synthesize_matrix(300, 10, 1e13, 1)
        with pytest.raises(RankDeficiencyError, match="rank deficiency"):
            A.condition_number()
        with pytest.raises(RankDeficiencyError, match="rank deficiency"):
            solve_ls_oracle(A, synthesize_problem(A, 1))


def race_for_factor(A: MatrixHandle):
    """``A.qr_factor()`` from 8 threads at once; asserts that all got the
    one stored factor and returns it."""
    results = []
    threads = [threading.Thread(target=lambda: results.append(A.qr_factor()))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r is A.qr_factor() for r in results)
    return results[0]


class TestLoadedFactor:
    """A loaded A's factor, from CholeskyQR of its densified copy and an
    n-by-n pivoted QR, against the slow oracle: the Householder pivoted QR
    of its m rows.  Column pivoting sees only A^T A, so piv is the same; R
    is equal up to row signs to 1e-14 relative (R is well determined in
    norm); Q and x_ls agree to the 1e-12 + 20 kappa * u of
    :class:`TestSyntheticFactor`."""

    @pytest.fixture
    def m_row_qrs(self, monkeypatch):
        shapes = []
        real_qr = scipy.linalg.qr

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counting)
        return shapes

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("m, n, cond, seed", [(300, 12, 30.0, 0), (2000, 40, 1e4, 1),
                                                  (500, 20, 1e7, 2)])
    def test_matches_m_row_householder_qr(self, m, n, cond, seed, sparse, m_row_qrs):
        dense = conditioned(m, n, cond, seed)
        if sparse:
            dense = dense * (np.abs(dense) > 0.5 * np.abs(dense).mean())
        A = MatrixHandle(scipy.sparse.csr_matrix(dense) if sparse else dense)
        Q, R, piv = A.qr_factor()
        assert m_row_qrs == [(n, n)]  # the ladder took it: no m-row QR
        Q_ref, R_ref, piv_ref = scipy.linalg.qr(dense, mode="economic", pivoting=True)
        assert np.array_equal(piv, piv_ref)
        signs = np.sign(np.diag(R)) * np.sign(np.diag(R_ref))
        assert np.linalg.norm(signs[:, None] * R - R_ref) <= 1e-14 * np.linalg.norm(R_ref)
        assert np.linalg.norm(dense[:, piv] - Q @ R) <= 1e-13 * np.linalg.norm(R_ref)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-13
        tol = 1e-12 + 20 * A.condition_number() * np.finfo(np.float64).eps
        assert np.linalg.norm(Q * signs - Q_ref) <= tol
        b = synthesize_problem(A, seed)
        x_ref = qr_ls_solve(dense, b)
        assert np.linalg.norm(solve_ls_oracle(A, b).x_ls - x_ref) <= tol * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("case", ["cond 1e10", "rank deficient"])
    def test_householder_fallback(self, case, sparse):
        # kappa = 1e10 fails the first Cholesky; an exactly rank-deficient
        # A fails a Cholesky or the condition estimate.  Both get the m-row
        # QR, its signs flipped to a positive R diagonal
        if case == "cond 1e10":
            dense = conditioned(400, 10, 1e10, 0)
        else:
            dense = random_tall(400, 10, 0).dense()
            dense[:, 3] = dense[:, 1] - 2.0 * dense[:, 7]
        A = MatrixHandle(scipy.sparse.csr_matrix(dense) if sparse else dense)
        with pytest.raises(np.linalg.LinAlgError):
            matio._orthonormal_factor(dense.copy(), max_cond=matio.CHOLQR_COND_LIMIT)
        Q, R, piv = scipy.linalg.qr(A.dense(), mode="economic", pivoting=True)
        signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        fresh = (Q * signs, signs[:, None] * R, piv)
        assert all(same_bits(got, want) for got, want in zip(A.qr_factor(), fresh))

    @pytest.mark.parametrize("path", ["synthesis SVD", "CholeskyQR2", "Householder"])
    @pytest.mark.parametrize("cond", [1.0, 30.0, 1e7])
    def test_positive_r_diagonal_on_every_path(self, path, cond, monkeypatch, m_row_qrs):
        # synthesis takes its n-by-n pivoted QR at once; a loaded copy of
        # the matrix takes its own, or the m-row QR, at its first qr_factor
        A = synthesize_matrix(300, 12, cond, 5)
        assert m_row_qrs == [(12, 12)]
        if path != "synthesis SVD":
            A = MatrixHandle(A.dense())
            m_row_qrs.clear()
        if path == "Householder":
            monkeypatch.setattr(matio, "CHOLQR_COND_LIMIT", 0.0)
        R = A.qr_factor()[1]
        assert m_row_qrs == ([(300, 12)] if path == "Householder" else [(12, 12)])
        assert np.all(np.diag(R) > 0)
        assert not any(arr.flags.writeable for arr in A.qr_factor())


def synthesis_draws(m, n, cond, seed):
    """(U, s, V) of ``synthesize_matrix(m, n, cond, seed)``, redrawn from
    its stream: A = U diag(s) V^T."""
    gen = stream(seed, "synthmat", m, n)
    U = matio._haar_q(gen.standard_normal((m, n)))
    V = matio._haar_q(gen.standard_normal((n, n)))
    return U, np.logspace(0.0, -math.log10(cond), n) if n > 1 else np.array([1.0]), V


class TestFactorStorage:
    """A synthesized handle stores only its pivoted QR.  Its products with A
    and its dense A are checked against the slow oracle U diag(s) V^T,
    formed here from the same draws, and its factor against the recipe
    that built it from the synthesis SVD."""

    @pytest.mark.parametrize("m, n, cond, seed", [(3000, 40, 1e4, 0), (60, 60, 1e3, 1),
                                                  (50, 1, 1.0, 2)])
    def test_products_and_dense_match_the_svd(self, m, n, cond, seed):
        U, s, V = synthesis_draws(m, n, cond, seed)
        slow = (U * s) @ V.T
        A = synthesize_matrix(m, n, cond, seed)
        assert A._data is None
        norm = np.linalg.norm(slow, 2)
        gen = stream(seed, "test-products", m, n)
        for _ in range(3):
            x, y = gen.standard_normal(n), gen.standard_normal(m)
            assert np.linalg.norm(A.matvec(x) - slow @ x) <= 1e-14 * norm * np.linalg.norm(x)
            assert np.linalg.norm(A.rmatvec(y) - slow.T @ y) <= 1e-14 * norm * np.linalg.norm(y)
        X = gen.standard_normal((n, 3))
        assert np.linalg.norm(A.matvec(X) - slow @ X, 2) <= 1e-14 * norm * np.linalg.norm(X, 2)
        dense = A.dense()
        assert dense.flags.f_contiguous and dense.shape == (m, n)
        assert np.linalg.norm(dense - slow, 2) <= 1e-14 * norm

    @pytest.mark.parametrize("m, n, cond, seed", [(3000, 40, 1e4, 0), (60, 60, 1e3, 1)])
    def test_factor_and_spectral_data_are_the_recipes(self, m, n, cond, seed):
        # R1 = diag(s) V^T, its pivoted QR R1[:, piv] = Q2 R with a positive
        # diagonal, and Q = U Q2: R, piv and the spectral data bit for bit
        U, s, V = synthesis_draws(m, n, cond, seed)
        Q2, R, piv = scipy.linalg.qr(s[:, None] * V.T, mode="economic", pivoting=True)
        matio._positive_diagonal(Q2, R)
        A = synthesize_matrix(m, n, cond, seed)
        got_Q, got_R, got_piv = A.qr_factor()
        assert np.array_equal(got_R, R) and np.array_equal(got_piv, piv)
        assert np.linalg.norm(got_Q - U @ Q2) <= 1e-14
        sv = scipy.linalg.svd(R, compute_uv=False)
        info = A.spectral()
        assert (info.norm, info.sigma_min) == (float(sv[0]), float(sv[-1]))
        assert A.condition_number() == float(sv[0]) / float(sv[-1])

    def test_synthesis_and_its_factor_peak_at_one_m_by_n_array(self):
        # 8 m n = 6.4 MB: the draw that becomes Q, one BLOCK_BYTES block of
        # Q1 Q2, and the m-vectors of b, the oracle and the span; a dense A
        # beside Q peaked at two m-by-n arrays
        m, n = 20000, 40
        tracemalloc.start()
        try:
            A = synthesize_matrix(m, n, 1e3, 0)
            A.qr_factor()
            b = synthesize_problem(A, 0)
            solve_ls_oracle(A, b)
            matio.span_coordinates(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n + BLOCK_BYTES + 4 * 8 * m

    def test_built_from_a_factor(self):
        Q, R, piv = random_tall(30, 4, 6).qr_factor()
        A = MatrixHandle(factor=(Q.copy(), R.copy(), piv.copy()))
        assert (A.rows, A.cols, A.is_sparse) == (30, 4, False)
        for arr in A.qr_factor():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert np.linalg.norm(A.dense()[:, piv] - Q @ R) <= 1e-14 * np.linalg.norm(R)

    @pytest.mark.parametrize("case, message", [
        ("nan in Q", "NaN or Inf"), ("inf in R", "NaN or Inf"), ("-inf in Q", "NaN or Inf"),
        ("wide", "tall or square"), ("data and factor", "not both"),
        ("neither", "not both or neither")])
    def test_bad_factor_rejected(self, case, message):
        Q, R, piv = (arr.copy() for arr in random_tall(30, 4, 6).qr_factor())
        data = None
        if case == "nan in Q":
            Q[17, 2] = np.nan
        elif case == "-inf in Q":
            Q[3, 0] = -np.inf
        elif case == "inf in R":
            R[1, 3] = np.inf
        elif case == "wide":
            Q, R, piv = Q[:3], np.eye(4), np.arange(4)
        elif case == "data and factor":
            data = Q
        with pytest.raises(ValueError, match=message):
            if case == "neither":
                MatrixHandle()
            else:
                MatrixHandle(data, factor=(Q, R, piv))


class TestSyntheticFactor:
    """A synthesized A's factor, built from its synthesis SVD, against the
    reference: the Householder pivoted QR of the m rows of the same A
    (``householder_handle``).  Both are backward stable factorizations of A, so x_ls, kappa and
    the embedding parameter eps that they give agree to a few kappa * u
    relative (u = 2.2e-16, the machine epsilon; the largest seen was
    2.7 kappa * u), above a floor of 1e-12 for rounding in the bound
    arithmetic.  The tolerance is 1e-12 + 20 kappa * u: at cond 5e11, half
    the inverse of the rank threshold, that is 2.2e-3."""

    @pytest.mark.parametrize("m, n, cond", [(50, 1, 1.0), (300, 12, 30.0),
                                            (2000, 40, 1e4), (400, 10, 5e11)])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_m_row_qr(self, m, n, cond, seed):
        A = synthesize_matrix(m, n, cond, seed)
        ref = householder_handle(A.dense().copy())
        Q, R, piv = A.qr_factor()
        norm = np.linalg.norm(A.dense(), 2)
        assert np.linalg.norm(A.dense()[:, piv] - Q @ R) <= 1e-13 * norm
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 1e-13

        tol = 1e-12 + 20 * cond * np.finfo(np.float64).eps
        b = synthesize_problem(A, seed)
        fast, slow = solve_ls_oracle(A, b), solve_ls_oracle(ref, b)
        assert np.linalg.norm(fast.x_ls - slow.x_ls) <= tol * np.linalg.norm(slow.x_ls)
        assert fast.r_ls_norm == pytest.approx(slow.r_ls_norm, rel=tol)
        assert A.condition_number() == pytest.approx(ref.condition_number(), rel=tol)
        S = embed.build_sketch("gaussian", min(m - 1, 4 * (n + 1)), m, seed)
        assert embed.exact_distortion(S, A, b) == pytest.approx(
            embed.exact_distortion(S, ref, b), rel=tol)


class TestSpectral:
    def test_identity(self):
        info = spectral_norms(MatrixHandle(np.eye(5)))
        assert (info.norm, info.sigma_min, info.cond) == (1.0, 1.0, 1.0)

    def test_matches_svd(self):
        A = random_tall(70, 10, 11)
        sv = np.linalg.svd(A.dense(), compute_uv=False)
        info = A.spectral()
        assert info.norm == pytest.approx(sv[0], rel=1e-12)
        assert info.sigma_min == pytest.approx(sv[-1], rel=1e-12)

    def test_deterministic_and_cached(self):
        A = random_tall(40, 6, 12)
        first = A.spectral()
        assert A.spectral() is first
        B = MatrixHandle(A.dense().copy())
        assert spectral_norms(B).norm == first.norm

    def test_each_cache_filled_once_under_a_race(self, monkeypatch):
        # eight threads ask one fresh handle for both caches at once, half
        # of them spectral data first; a slow spectral_norms holds the race
        # open, and each fill runs once
        calls = Counter()
        norms, factor = matio.spectral_norms, MatrixHandle._factor

        def slow_norms(A):
            calls["spectral_norms"] += 1
            time.sleep(0.02)
            return norms(A)

        def counted_factor(self):
            calls["_factor"] += 1
            return factor(self)

        monkeypatch.setattr(matio, "spectral_norms", slow_norms)
        monkeypatch.setattr(MatrixHandle, "_factor", counted_factor)
        A = random_tall(200, 10, 5)
        start, results = threading.Barrier(8), []

        def ask(first, second):
            start.wait(timeout=30)
            results.append((first(), second()))

        threads = [threading.Thread(target=ask, daemon=True, args=(
            (A.spectral, A.qr_factor) if k % 2 else (A.qr_factor, A.spectral)))
            for k in range(8)]
        interval, deadline = sys.getswitchinterval(), time.monotonic() + 30
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:  # one deadline for all: a deadlock hangs them all
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == {"spectral_norms": 1, "_factor": 1}
        assert len(results) == 8
        assert all({id(r) for r in pair} == {id(A.spectral()), id(A.qr_factor())}
                   for pair in results)

    def test_read_from_pivoted_qr(self, monkeypatch):
        A = random_tall(70, 10, 11)
        R = A.qr_factor()[1]
        sv = scipy.linalg.svd(R, compute_uv=False)

        def second_qr(*args, **kwargs):
            raise AssertionError("spectral data factored A again")

        monkeypatch.setattr(scipy.linalg, "qr", second_qr)
        info = A.spectral()
        assert (info.norm, info.sigma_min) == (float(sv[0]), float(sv[-1]))
        assert info.cond == float(sv[0]) / float(sv[-1])


class TestHandleInvariants:
    def test_wide_rejected(self):
        with pytest.raises(ValueError, match="tall or square"):
            MatrixHandle(np.ones((2, 5)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixHandle(np.ones((0, 0)))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_rejected(self, sparse):
        data = np.eye(4, 3)
        data[2, 1] = np.nan
        if sparse:
            data = scipy.sparse.csr_matrix(data)
        with pytest.raises(ValueError, match="NaN or Inf"):
            MatrixHandle(data)

    def test_csr_canonical(self):
        import scipy.sparse
        mat = scipy.sparse.coo_matrix(
            (np.array([1.0, 0.0, 2.0]),
             (np.array([0, 1, 2]), np.array([0, 0, 1]))), shape=(3, 2))
        A = MatrixHandle(mat)
        stored = csr(A)
        assert stored.nnz == 2  # explicit zero dropped
        assert np.all(np.diff(stored.indptr) >= 0)
