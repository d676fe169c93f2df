import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings, strategies as st

from sketchls import matio
from sketchls.matio import (MatrixHandle, MatrixMarketError, RankDeficiencyError,
                            load_matrix_market, qr_ls_solve,
                            save_matrix_market, solve_ls_oracle,
                            spectral_norms, synthesize_matrix, synthesize_problem)
from sketchls.rng import stream

from conftest import random_tall


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


COORD_IDENTITY = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
"""


class TestMatrixMarket:
    def test_coordinate_identity(self, tmp_path):
        A = load_matrix_market(write(tmp_path, "id.mtx", COORD_IDENTITY))
        assert (A.rows, A.cols, A.nnz) == (2, 2, 2)
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

    def test_symmetric_expansion(self, tmp_path):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 3\n"
                "1 1 4\n"
                "2 1 3\n"
                "2 2 5\n")
        A = load_matrix_market(write(tmp_path, "s.mtx", text))
        assert np.array_equal(A.dense(), np.array([[4.0, 3.0], [3.0, 5.0]]))

    def test_array_format(self, tmp_path):
        text = ("%%MatrixMarket matrix array real general\n"
                "2 2\n1\n2\n3\n4\n")
        A = load_matrix_market(write(tmp_path, "a.mtx", text))
        # column-major storage on disk
        assert np.array_equal(A.dense(), np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_array_symmetric(self, tmp_path):
        text = ("%%MatrixMarket matrix array real symmetric\n"
                "2 2\n1\n2\n3\n")
        A = load_matrix_market(write(tmp_path, "as.mtx", text))
        assert np.array_equal(A.dense(), np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_array_symmetric_lower_triangle_by_columns(self, tmp_path):
        n = 4
        vals = np.arange(1.0, n * (n + 1) // 2 + 1)
        text = (f"%%MatrixMarket matrix array real symmetric\n{n} {n}\n"
                + "".join(f"{v:g}\n" for v in vals))
        expect = np.zeros((n, n))
        k = 0
        for j in range(n):
            for i in range(j, n):
                expect[i, j] = expect[j, i] = vals[k]
                k += 1
        A = load_matrix_market(write(tmp_path, "as4.mtx", text))
        assert np.array_equal(A.dense(), expect)

    @pytest.mark.parametrize("header,expected_line", [
        ("%%MatrixMarket matrix coordinate complex general", "line 1"),
        ("%%MatrixMarket matrix coordinate pattern general", "line 1"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric", "line 1"),
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

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        """Counts the entry bodies that go through the line-by-line parser."""
        calls = []
        real = matio._coordinate_entries_loop

        def counting(entries, m, n):
            calls.append(len(entries))
            return real(entries, m, n)

        monkeypatch.setattr(matio, "_coordinate_entries_loop", counting)
        return calls

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_vectorized_entries_equal_loop(self, tmp_path, monkeypatch, loop_calls,
                                           symmetry):
        gen = stream(11, "mtx", symmetry)
        n = 40
        i = gen.integers(1, n + 1, size=300)
        j = gen.integers(1, n + 1, size=300)
        if symmetry == "symmetric":
            i, j = np.maximum(i, j), np.minimum(i, j)
        v = gen.standard_normal(300) * 10.0 ** gen.integers(-20, 20, size=300)
        # repeated (i, j) entries are kept: both paths must sum them alike
        fmts = ["{:.17g}", "{:.3e}", "{:+.6f}", "{!r}"]
        lines = [f"{a} {b}\t{fmts[k % 4].format(x)}"
                 for k, (a, b, x) in enumerate(zip(i, j, v.tolist()))]
        text = (f"%%MatrixMarket matrix coordinate real {symmetry}\n% note\n"
                f"{n} {n} {len(lines)}\n" + "\n".join(lines) + "\n")
        path = write(tmp_path, "v.mtx", text)
        fast = load_matrix_market(path).csr()
        assert loop_calls == []
        monkeypatch.setattr(matio, "_coordinate_entries", matio._coordinate_entries_loop)
        slow = load_matrix_market(path).csr()
        assert loop_calls == [300]
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(fast, attr), getattr(slow, attr))

    def test_entry_only_python_parses_loads(self, tmp_path, loop_calls):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1_0.5\n2 2 1.0\n")
        A = load_matrix_market(write(tmp_path, "u.mtx", text))
        assert loop_calls == [2]
        assert np.array_equal(A.dense(), np.array([[10.5, 0.0], [0.0, 1.0]]))

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
        a, b = A.csr(), B.csr()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_roundtrip_dense(self, tmp_path):
        A = random_tall(5, 3, 8)
        path = tmp_path / "rt2.mtx"
        save_matrix_market(A, path)
        B = load_matrix_market(path)
        assert np.array_equal(A.dense(), B.dense())


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
    assume(not sparse or A.nnz > 0)  # a coordinate file needs an entry
    path = tmp_path_factory.getbasetemp() / "roundtrip.mtx"
    save_matrix_market(A, path)
    B = load_matrix_market(path)
    assert B.is_sparse == sparse
    if sparse:
        a, b = A.csr(), B.csr()
        assert all(same_bits(getattr(a, attr), getattr(b, attr))
                   for attr in ("indptr", "indices", "data"))
    else:
        assert same_bits(A.dense(), B.dense())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), data=st.data())
def test_symmetric_coordinate_loads_full_matrix(tmp_path_factory, n, data):
    # the lower triangle, nonzeros only, in a drawn order
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    chosen = data.draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    vals = data.draw(st.lists(FINITE.filter(bool), min_size=len(chosen),
                              max_size=len(chosen)))
    expect = np.zeros((n, n))
    for (i, j), v in zip(chosen, vals):
        expect[i, j] = expect[j, i] = v
    path = tmp_path_factory.getbasetemp() / "symmetric.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(chosen)}\n"
                    + "".join(f"{i + 1} {j + 1} {v!r}\n" for (i, j), v in zip(chosen, vals)))
    assert same_bits(load_matrix_market(path).dense(), expect)



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
        assert same_bits(oracle.atr_ls, A.rmatvec(oracle.r_ls))
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
        # factors A afresh for each one
        dense = random_tall(80, 7, 3).dense()
        if sparse:
            dense = dense * (np.abs(dense) > 0.5)
        A = MatrixHandle(scipy.sparse.csr_matrix(dense) if sparse else dense)
        for seed in range(4):
            b = synthesize_problem(A, seed, 10.0 ** -seed)
            oracle = solve_ls_oracle(A, b)
            x = qr_ls_solve(A.dense(), b)
            r = A.matvec(x) - b
            assert same_bits(oracle.x_ls, x)
            assert same_bits(oracle.r_ls, r)
            assert oracle.r_ls_norm == float(np.linalg.norm(r))

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
        A = random_tall(400, 20, 4)
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
        csr = A.csr()
        assert csr.nnz == 2  # explicit zero dropped
        assert np.all(np.diff(csr.indptr) >= 0)
