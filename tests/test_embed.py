import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sketchls import cli, diagnostics
from sketchls.embed import (GaussianPayload, SketchKind, SparsePayload, SketchOperator,
                            apply, apply_adjoint, basis_distortion, build_sketch,
                            exact_distortion, fwht, gaussian_span_sketch, next_pow2,
                            span_coordinates, subspace_basis)
from sketchls.matio import BLOCK_BYTES, MatrixHandle, synthesize_matrix, synthesize_problem
from sketchls.rng import stream

from conftest import identity_sketch, random_rhs, random_tall
from reference import materialize, srht_one_shot

KINDS = [SketchKind.GAUSSIAN, SketchKind.SRHT, SketchKind.SPARSE]


class TestBuild:
    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic(self, kind):
        a = build_sketch(kind, 8, 30, seed=7)
        b = build_sketch(kind, 8, 30, seed=7)
        assert np.array_equal(materialize(a), materialize(b))

    def test_kinds_draw_independent_streams(self):
        g = build_sketch("gaussian", 8, 30, seed=7)
        s = build_sketch("sparse", 8, 30, seed=7)
        assert materialize(g).shape == materialize(s).shape

    def test_sparse_structure(self):
        S = build_sketch("sparse", 4, 10, seed=7)
        M = materialize(S)
        col_abs = np.abs(M).sum(axis=0)
        assert np.array_equal(col_abs, np.ones(10))  # exactly one +-1 per column
        assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}

    def test_srht_payload(self):
        S = build_sketch("srht", 4, 6, seed=3)
        p = S.payload
        assert p.padded_len == 8
        assert len(set(p.indices.tolist())) == 4
        assert p.indices.min() >= 0 and p.indices.max() < 8
        assert set(np.unique(p.signs)) <= {-1.0, 1.0}

    def test_gaussian_variance(self):
        S = build_sketch("gaussian", 50, 200, seed=1)
        entries = S.payload.matrix.ravel()
        assert abs(entries.mean()) < 3e-3
        assert entries.var() == pytest.approx(1.0 / 50, rel=0.05)

    def test_guards(self):
        with pytest.raises(ValueError):
            build_sketch("gaussian", 10, 10, seed=0)
        with pytest.raises(ValueError):
            build_sketch("gaussian", 0, 10, seed=0)


class TestFwht:
    def test_first_basis_vector(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(fwht(v), np.ones(4))

    def test_involution_up_to_scale(self):
        gen = stream(4, "fwht")
        v = gen.standard_normal(4)
        out = fwht(fwht(v.copy()))
        assert np.allclose(out, 4 * v, rtol=1e-14)

    def test_isometry_up_to_scale(self):
        gen = stream(5, "fwht")
        v = gen.standard_normal(4)
        assert np.linalg.norm(fwht(v.copy())) ** 2 == pytest.approx(
            4 * np.linalg.norm(v) ** 2, rel=1e-13)

    def test_matches_hadamard_matrix(self):
        for n in (2, 8, 16):
            H = scipy.linalg.hadamard(n).astype(float)
            X = np.eye(n)
            assert np.array_equal(fwht(X.copy()), H)

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(6))

    def test_in_place(self):
        v = np.ones(8)
        out = fwht(v)
        assert out is v

    @pytest.mark.parametrize("shape", [(4096,), (1, 3), (2, 3), (2048, 100), (16384, 5)])
    def test_bit_equal_to_two_temporary_butterfly(self, shape):
        v = stream(6, "fwht", *shape).standard_normal(shape)
        assert np.array_equal(fwht(v.copy()), fwht_two_temporaries(v.copy()))


def fwht_two_temporaries(v: np.ndarray) -> np.ndarray:
    """The butterfly that forms a + b and a - b as temporaries at each level;
    the reference for the copy-free :func:`fwht`."""
    n = v.shape[0]
    h = 1
    while h < n:
        blocks = v.reshape((n // (2 * h), 2, h) + v.shape[1:])
        a = blocks[:, 0].copy()
        blocks[:, 0] = a + blocks[:, 1]
        blocks[:, 1] = a - blocks[:, 1]
        h *= 2
    return v


class TestApply:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_materialize_on_basis(self, kind):
        S = build_sketch(kind, 6, 11, seed=5)
        M = materialize(S)
        I = np.eye(11)
        cols = apply(S, I)
        assert np.allclose(cols, M, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_materialize_on_matrix(self, kind):
        S = build_sketch(kind, 6, 11, seed=6)
        X = stream(1, "X").standard_normal((11, 3))
        assert np.allclose(apply(S, X), materialize(S) @ X, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    def test_adjoint_matches_materialize(self, kind):
        S = build_sketch(kind, 6, 11, seed=8)
        U = stream(2, "U").standard_normal((6, 2))
        assert np.allclose(apply_adjoint(S, U), materialize(S).T @ U,
                           rtol=1e-13, atol=1e-14)

    def test_identity_double(self):
        S = identity_sketch(9)
        x = random_rhs(9, 3)
        assert np.array_equal(apply(S, x), x)

    def test_srht_on_basis_vector_equals_hadamard_column(self):
        # m = m' = 4: S e1 = (1/sqrt(d)) * sign_1 * H[indices, 0]
        S = build_sketch("srht", 2, 4, seed=9)
        p = S.payload
        assert p.padded_len == 4
        H = scipy.linalg.hadamard(4).astype(float)
        e1 = np.zeros(4)
        e1[0] = 1.0
        expect = p.signs[0] * H[p.indices, 0] / np.sqrt(2)
        assert np.array_equal(apply(S, e1), expect)

    def test_sparse_on_ones_is_signed_count(self):
        S = build_sketch("sparse", 4, 10, seed=7)
        out = apply(S, np.ones(10))
        dense = materialize(S) @ np.ones(10)
        assert np.array_equal(out, dense)  # bit-for-bit vs dense multiply
        p = S.payload
        for j in range(4):
            assert out[j] == p.signs[p.rows == j].sum()

    def test_dimension_mismatch(self):
        S = build_sketch("gaussian", 4, 10, seed=0)
        with pytest.raises(ValueError, match="rows"):
            apply(S, np.ones(11))

    def test_materialize_guard(self):
        S = build_sketch("sparse", 4000, 10_000, seed=0)
        with pytest.raises(ValueError, match="guard"):
            materialize(S)


def block_width(padded_len: int) -> int:
    """Columns of an SRHT apply's block."""
    return max(1, BLOCK_BYTES // (8 * padded_len))


def signed_sum_bound(S: SketchOperator, X: np.ndarray, roundings: int) -> np.ndarray:
    """gamma_n ||x||_1 / sqrt(d), n = ``roundings``, for each column x of X:
    the forward error bound of an entry of S x, a signed sum of the entries
    of x over sqrt(d), when each term passes through n roundings on its way
    (gamma_n = n u / (1 - n u), u the unit roundoff)."""
    u = np.finfo(np.float64).eps / 2
    return roundings * u / (1 - roundings * u) * np.abs(X).sum(axis=0) / np.sqrt(S.d)


def apply_roundings(S: SketchOperator) -> int:
    """Roundings of a term in ``apply``'s SRHT with m' = A B: log2 A outer
    butterfly stages, a length-B dot product with H(B)'s +-1 entries, and
    the division by sqrt(d)."""
    B = S.srht_inner_rows.shape[1]
    return int(np.log2(S.payload.padded_len // B)) + B + 1


def one_shot_roundings(S: SketchOperator) -> int:
    """Roundings of a term in ``reference.srht_one_shot``: log2 m' butterfly
    stages and the division by sqrt(d)."""
    return int(np.log2(S.payload.padded_len)) + 1


def assert_near_one_shot(S: SketchOperator, X: np.ndarray, got: np.ndarray) -> None:
    """``got`` = S X within the sum of the error bounds of the two paths."""
    bound = signed_sum_bound(S, X, apply_roundings(S) + one_shot_roundings(S))
    assert np.all(np.abs(got - srht_one_shot(S, X)) <= bound)


class TestSrhtBlocks:
    """The SRHT apply, a column block at a time through the split
    H(m') = H(A) kron H(B), against one transform of all of X by
    :func:`fwht` (``reference.srht_one_shot``)."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m,shape", [
        (3000, ()),         # a vector
        (3000, (1,)),
        (3000, (5,)),       # fewer columns than one block
        (3000, (64,)),      # two whole blocks
        (3000, (70,)),      # two blocks and a part
        (4096, (70,)),      # m = m', no padding
        (140000, (3,)),     # a column larger than the block: w = 1
    ])
    def test_bit_equal_to_one_shot(self, m, shape, order):
        # within rounding of the one-shot transform: B = 2048 of m' = 4096
        # or 262144 at d = 40, so the outer stages and the GEMM both run
        S = build_sketch("srht", 40, m, seed=4)
        mp = S.payload.padded_len
        w = block_width(mp)
        k = shape[0] if shape else 1
        assert w == {4096: 32, 262144: 1}[mp]
        assert S.srht_inner_rows.shape == (40, 2048)
        X = np.asarray(stream(4, "srht-blocks", m, k).standard_normal((m,) + shape),
                       order=order)
        got = apply(S, X)
        assert got.shape == (40,) + shape and got.flags.c_contiguous
        assert_near_one_shot(S, X, got)

    @pytest.mark.parametrize("d,m,A", [
        (1, 2, 1),          # the smallest operator: m' = B = 2
        (7, 100, 1),
        (40, 3000, 2),
        (500, 3000, 16),
        (1000, 2000, 16),
        (300, 4096, 16),    # m = m', no padding
    ])
    def test_matches_materialize(self, d, m, A):
        # the explicit d x m matrix times X is a length-m sum of terms
        # rounded once each
        S = build_sketch("srht", d, m, seed=8)
        assert S.payload.padded_len == A * S.srht_inner_rows.shape[1]
        X = stream(8, "srht-materialize", m).standard_normal((m, 3))
        bound = signed_sum_bound(S, X, apply_roundings(S) + m + 1)
        assert np.all(np.abs(apply(S, X) - materialize(S) @ X) <= bound)

    def test_zero_columns(self):
        S = build_sketch("srht", 30, 1000, seed=1)
        got = apply(S, np.empty((1000, 0)))
        assert got.shape == (30, 0)
        out = np.empty((30, 0))
        assert apply(S, np.empty((1000, 0)), out=out) is out

    def test_inner_order_one_is_the_fwht_path(self):
        # d B <= BLOCK_BYTES / 8 fails already at B = 1, so the block takes
        # all log2 m' stages and its sampled rows are gathered: the one-shot
        # transform bit for bit
        d = BLOCK_BYTES // 8 + 1
        S = build_sketch("srht", d, 140000, seed=6)
        assert S.srht_inner_rows.shape == (d, 1) and np.all(S.srht_inner_rows == 1)
        x = stream(6, "srht-fwht-path").standard_normal(140000)
        assert np.array_equal(apply(S, x), srht_one_shot(S, x))

    @pytest.mark.parametrize("d,m,B", [(7, 100, 128), (500, 3000, 256), (40, 3000, 2048)])
    def test_inner_rows_are_hadamard_rows(self, d, m, B):
        S = build_sketch("srht", d, m, seed=7)
        rows = S.srht_inner_rows
        assert rows.dtype == np.int8 and rows is S.srht_inner_rows
        assert np.array_equal(rows, scipy.linalg.hadamard(B)[S.payload.indices % B])

    def test_vector_is_the_matrix_column(self):
        # a vector is a block of one column, a matrix's column one of 32;
        # each is within apply's bound of S x
        S = build_sketch("srht", 40, 3000, seed=9)
        X = stream(9, "srht-columns").standard_normal((3000, 40))
        SX = apply(S, X)
        for j in (0, 31, 32, 39):
            bound = signed_sum_bound(S, X[:, j], 2 * apply_roundings(S))
            assert np.all(np.abs(apply(S, X[:, j]) - SX[:, j]) <= bound)

    def test_memory_bounded_by_the_block(self):
        m, k, d = 20000, 64, 200
        S = build_sketch("srht", d, m, seed=3)
        mp = S.payload.padded_len
        assert mp == 32768 and block_width(mp) == 4
        X = stream(3, "srht-peak").standard_normal((m, k))
        tracemalloc.start()
        try:
            apply(S, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block, fwht's scratch of half of it, the result and the
        # sampled rows of a block, and one m'-vector to spare; an m' x k
        # buffer alone would be 16.8 MB
        assert peak < BLOCK_BYTES * 3 // 2 + 2 * d * k * 8 + 8 * mp


def scatter_reference(S: SketchOperator, X: np.ndarray) -> np.ndarray:
    """The sparse kind as the scatter out[rows[j]] += signs[j] * X[j]."""
    p = S.payload
    out = np.zeros((S.d,) + X.shape[1:])
    np.add.at(out, p.rows, X * (p.signs[:, None] if X.ndim == 2 else p.signs))
    return out


@pytest.mark.parametrize("form", ["vector", "c_matrix", "f_matrix"])
def test_countsketch_bit_equal_to_scatter(form):
    # a matrix is taken in two blocks of rows of S, an F-ordered one after
    # its copy to C order
    m, n = 20000, 20
    assert BLOCK_BYTES // (8 * n) == 6553
    S = build_sketch("sparse", 8000, m, seed=3)
    gen = stream(9, "countsketch", m)
    operand = {"vector": gen.standard_normal(m), "c_matrix": gen.standard_normal((m, n)),
               "f_matrix": np.asfortranarray(gen.standard_normal((m, n)))}[form]
    assert np.array_equal(apply(S, operand), scatter_reference(S, operand))


def test_countsketch_memory_bounded_by_the_block():
    # four blocks of 2048 rows of S; one product with all of X would hold a
    # d x k result of 4.1 MB besides out
    m, k, d = 20000, 64, 8000
    S = build_sketch("sparse", d, m, seed=3)
    X = stream(3, "sparse-peak").standard_normal((m, k))
    out = np.empty((d, k))
    tracemalloc.start()
    try:
        apply(S, X, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the product of one block, and the CSR matrix, its build and a block
    # of its rows
    assert peak < BLOCK_BYTES + 24 * m


class TestApplyInto:
    """``apply(S, X, out=...)``, as a cell writes S Q and S u into the
    columns of its SW, against the array ``apply`` returns."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_equal_to_returned(self, kind):
        # several blocks for the SRHT (m' = 32768, w = 4) and the
        # CountSketch (two of 6553 rows of S); the Gaussian kind draws a
        # d x m G
        m, d = (2000, 200) if kind is SketchKind.GAUSSIAN else (20000, 8000)
        n = 20
        S = build_sketch(kind, d, m, seed=6)
        gen = stream(6, "apply-out", m)
        Q, u = gen.standard_normal((m, n)), gen.standard_normal(m)
        SW = np.full((d, n + 1), np.nan)
        assert np.shares_memory(apply(S, Q, out=SW[:, :n]), SW)
        assert np.shares_memory(apply(S, u, out=SW[:, n]), SW)
        assert np.array_equal(SW[:, :n], apply(S, Q))
        assert np.array_equal(SW[:, n], apply(S, u))

    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_another_shape_rejected(self, kind):
        S = build_sketch(kind, 4, 10, seed=0)
        with pytest.raises(ValueError, match=r"out is float64 \(4, 3\)"):
            apply(S, np.ones((10, 2)), out=np.empty((4, 3)))
        with pytest.raises(ValueError, match="out is float32"):
            apply(S, np.ones(10), out=np.empty(4, dtype=np.float32))


@st.composite
def sketch_and_operands(draw):
    """A random (kind, d, m) sketch, an operand with m rows and one with d
    rows: dense vectors, or dense matrices of 1-3 columns."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(2, 40))
    d = draw(st.integers(1, m - 1))
    S = build_sketch(kind, d, m, draw(st.integers(0, 2 ** 16)))
    seed = draw(st.integers(0, 2 ** 16))
    cols = draw(st.integers(0, 3))

    def operand(rows, tag):
        if cols == 0:
            return stream(seed, tag, rows).standard_normal(rows)
        return stream(seed, tag, rows, cols).standard_normal((rows, cols))

    return S, operand(m, "X"), operand(d, "U")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sketch_and_operands())
def test_apply_and_adjoint_match_materialize(case):
    S, X, U = case
    M = materialize(S)
    for got, factor, operand in ((apply(S, X), M, X), (apply_adjoint(S, U), M.T, U)):
        expect = factor @ operand
        assert got.shape == expect.shape
        # rounding of a length-m' sum, relative to the sum of magnitudes
        assert np.all(np.abs(got - expect) <= 1e-13 * (np.abs(factor) @ np.abs(operand)))


# d values of the sketched-operand tests, from d = 32 up to 150 of m = 300
BLOCK_DS = [32, 64, 150, 129]


def span_operands(m: int = 300, n: int = 7):
    """A, b, the untrimmed Q of A's pivoted QR and the span W = [Q u] of a
    generic problem (:func:`span_coordinates`)."""
    A = random_tall(m, n, 3)
    b = random_rhs(m, 3)
    Q = A.qr_factor()[0]
    return A, b, Q, np.column_stack([Q, span_coordinates(A, b).u])


def span_operator(d: int, W: np.ndarray, seed: int) -> SketchOperator:
    """Z W^T as a d x m operator, Z the span draw: the sketch a Gaussian
    cell stands for on span(W), formed here only as a reference."""
    Z = gaussian_span_sketch(d, W.shape[0], W.shape[1], seed)
    return SketchOperator(kind=SketchKind.GAUSSIAN, d=d, m=W.shape[0], seed=seed,
                          payload=GaussianPayload(Z @ W.T))


class TestSketchOperands:
    """The sketch a cell builds and its products with the cell's operands."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", BLOCK_DS)
    def test_bit_equal_to_build_then_apply(self, kind, d, monkeypatch):
        # the cell's SW is [S Q, S u] for build_sketch's S, or for the
        # Gaussian kind the span draw Z; T is the triangular factor of that
        # SW, and Sb and SA are T c_b and T[:, :n] R P^T
        A = random_tall(300, 7, 3)
        problem = cli.SeedProblem(A, 11, 1e-3)
        built = []

        def recording(*args):
            built.append(build_sketch(*args))
            return built[-1]

        monkeypatch.setattr(cli.embed, "build_sketch", recording)
        P = cli._sketch_cell(problem, kind, d)
        Q, R, piv = A.qr_factor()
        if kind is SketchKind.GAUSSIAN:
            assert built == []
            SW = gaussian_span_sketch(d, 300, 8, 11)
        else:
            ref = build_sketch(kind, d, 300, 11)
            (S,) = built
            assert (S.kind, S.d, S.m, S.seed) == (ref.kind, ref.d, ref.m, ref.seed)
            assert np.array_equal(materialize(S), materialize(ref))
            SW = np.column_stack([apply(ref, Q), apply(ref, problem.span.u)])
        T = diagnostics.sketch_factor(SW)
        assert np.array_equal(P.T, T)
        assert np.array_equal(P.Sb, T @ problem.span.c_b)
        assert np.array_equal(P.SA[:, piv], T[:, :7] @ R)
        assert P.SA.flags.c_contiguous

    @pytest.mark.parametrize("d", BLOCK_DS)
    def test_block_draw_is_the_single_draw(self, d):
        G = build_sketch("gaussian", d, 300, 2).payload.matrix
        single = stream(2, "gaussian", d, 300).standard_normal((d, 300)) / np.sqrt(d)
        assert np.array_equal(G, single)

    def test_distortion_from_products_is_exact_distortion(self):
        A, b, Q, W = span_operands()
        basis, q = subspace_basis(A, b)
        S = span_operator(150, W, 6)
        assert basis_distortion(apply(S, basis), apply(S, q)) == exact_distortion(S, A, b)

    def test_guards(self):
        for d in (10, 0):
            with pytest.raises(ValueError):
                gaussian_span_sketch(d, 10, 3, 0)


class TestGaussianOnSpan:
    def test_operator_is_Z_W_transpose(self):
        # the draw is Z, from the (seed, d, k) stream, and the full Gaussian
        # S~ = Z W^T + G (I - W W^T), for any G, sketches W to Z: a
        # Gaussian cell is S~ on span(W)
        _, _, _, W = span_operands()
        Z = gaussian_span_sketch(20, 300, 8, 4)
        assert np.array_equal(Z, stream(4, "gaussian-span", 20, 8).standard_normal((20, 8))
                              / np.sqrt(20))
        G = build_sketch("gaussian", 20, 300, 4).payload.matrix
        full = Z @ W.T + G - (G @ W) @ W.T
        assert np.allclose(full @ W, Z, rtol=1e-13, atol=1e-14)
        X = stream(1, "X").standard_normal((8, 3))
        assert np.allclose(full @ (W @ X), Z @ X, rtol=1e-13, atol=1e-14)

    def test_span_basis_is_orthonormal_and_holds_b(self):
        A, b, Q, W = span_operands()
        span = span_coordinates(A, b)
        assert W.shape == (300, 8) and np.array_equal(W[:, :7], Q)
        assert np.linalg.norm(W.T @ W - np.eye(8), 2) <= 1e-14
        assert np.linalg.norm(b - W @ span.c_b) <= 1e-14 * np.linalg.norm(b)
        # b in range(Q) to rounding: u is a rounding-level direction, still
        # orthogonal to Q, and q is dropped; b = 0 gives no u
        span = span_coordinates(A, A.matvec(stream(5, "x").standard_normal(7)))
        W = np.column_stack([Q, span.u])
        assert np.linalg.norm(W.T @ W - np.eye(8), 2) <= 1e-14
        assert span.c_q is None and span.rank == 7
        span = span_coordinates(A, np.zeros(300))
        assert span.u is None and span.c_b.shape == (7,) and span.c_q is None

    def test_entries_are_standard_gaussian_over_d(self):
        Z = gaussian_span_sketch(50, 400, 200, 1)
        assert abs(Z.mean()) < 3e-3
        assert Z.var() == pytest.approx(1.0 / 50, rel=0.05)


class TestMaterializeSrht:
    @pytest.mark.parametrize("d, m", [(2, 4), (5, 11), (9, 16), (20, 100)])
    def test_rows_of_the_hadamard_matrix(self, d, m):
        S = build_sketch("srht", d, m, seed=3)
        p = S.payload
        H = scipy.linalg.hadamard(p.padded_len).astype(np.float64)
        want = (H[p.indices] * p.signs[None, :]) / np.sqrt(d)
        assert np.array_equal(materialize(S), want[:, :m])

    def test_large_padded_length(self):
        # m' = 16384: the Hadamard matrix itself would be 2 GiB
        S = build_sketch("srht", 30, 10_000, 0)
        M = materialize(S)
        assert M.shape == (30, 10_000)
        cols = [0, 1, 4097, 9999]
        assert np.array_equal(M[:, cols], apply(S, np.eye(10_000)[:, cols]))


class TestUnbiasedness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mean_square_near_one(self, kind):
        m, d = 64, 16
        x = stream(0, "ub", m).standard_normal(m)
        xsq = np.linalg.norm(x) ** 2
        samples = [np.linalg.norm(apply(build_sketch(kind, d, m, seed), x)) ** 2 / xsq
                   for seed in range(2000)]
        assert 0.95 <= np.mean(samples) <= 1.05


class TestDistortion:
    def test_identity_double_is_exact(self):
        A = random_tall(30, 4, 1)
        b = random_rhs(30, 1)
        assert exact_distortion(identity_sketch(30), A, b) <= 5e-14
        Q, q = subspace_basis(A, b)
        assert Q.shape[1] + (q is not None) == 5

    def test_probe_dominance(self):
        # every subspace vector obeys the two-sided inequality with oracle eps
        A = random_tall(50, 5, 2)
        b = random_rhs(50, 2)
        Q, q = subspace_basis(A, b)
        Q = np.column_stack([Q, q])
        gen = stream(3, "probe")
        for seed in range(200):
            S = build_sketch("sparse", 25, 50, seed)
            eps = exact_distortion(S, A, b)
            Z = Q @ gen.standard_normal((Q.shape[1], 1000))
            norms_sq = (Z ** 2).sum(axis=0)
            sketched_sq = (apply(S, Z) ** 2).sum(axis=0)
            slack = 1e-12 * norms_sq
            assert np.all(sketched_sq >= (1 - eps) * norms_sq - slack)
            assert np.all(sketched_sq <= (1 + eps) * norms_sq + slack)

    def test_sqrt2_law_gaussian(self):
        A = random_tall(256, 10, 4)
        b = synthesize_problem(A, 0)
        ratios = []
        for seed in range(50):
            e1 = exact_distortion(build_sketch("gaussian", 40, 256, seed), A, b)
            e2 = exact_distortion(build_sketch("gaussian", 80, 256, seed), A, b)
            ratios.append(e2 / e1)
        assert 0.6 <= np.median(ratios) <= 0.85

    def test_rank_loss_flagged(self):
        # every coordinate collapses onto one sketch row: rank(SQ) = 1 < dim,
        # so sigma_min(SQ) = 0 and eps reads at least 1
        m = 20
        payload = SparsePayload(rows=np.zeros(m, dtype=np.int64), signs=np.ones(m))
        S = SketchOperator(kind=SketchKind.SPARSE, d=5, m=m, seed=0, payload=payload)
        A = random_tall(m, 3, 5)
        assert exact_distortion(S, A, random_rhs(m, 5)) >= 1.0

    def test_subspace_too_large(self):
        A = random_tall(20, 6, 6)
        S = build_sketch("gaussian", 5, 20, seed=1)
        with pytest.raises(ValueError, match="subspace"):
            exact_distortion(S, A, random_rhs(20, 6))


def svd_subspace_basis(A: MatrixHandle, b: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span([A b]) from an SVD of [A b], rank trimmed at
    max(m, n + 1) * u * sigma_1: the slow oracle for :func:`subspace_basis`."""
    M = np.column_stack([A.dense(), np.asarray(b, dtype=np.float64)])
    U, s, _ = scipy.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > max(M.shape) * np.finfo(np.float64).eps * s[0]))
    return U[:, :rank]


def svd_distortion(S: SketchOperator, basis: np.ndarray) -> float:
    sv = scipy.linalg.svd(apply(S, basis), compute_uv=False)
    return max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)


class TestBasisOracle:
    """The (Q, q) basis from A's cached pivoted QR against the SVD basis."""

    @staticmethod
    def worst_rel_gap(kind, seed, kappas, rhos):
        worst = 0.0
        for kappa in kappas:
            A = synthesize_matrix(300, 12, kappa, seed)
            for rho in rhos:
                b = synthesize_problem(A, seed, rho)
                U = svd_subspace_basis(A, b)
                S = build_sketch(kind, 60, 300, seed)
                Q, q = subspace_basis(A, b)
                assert Q.shape[1] + (q is not None) == U.shape[1] == 13
                eps = svd_distortion(S, U)
                worst = max(worst, abs(exact_distortion(S, A, b) - eps) / eps)
        return worst

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_svd_basis(self, kind, seed):
        assert self.worst_rel_gap(kind, seed, (1.0, 1e2, 1e4), (1e-3,)) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_ill_conditioned_span(self, kind):
        # span([A b]) is ill conditioned here, so both bases are accurate to
        # about u * cond only; at rho = 1e-12 both are about 1e-4 off
        gap = max(self.worst_rel_gap(kind, seed, (1e4, 1e6, 1e8), (1e-3, 1e-6, 1e-8))
                  for seed in range(2))
        assert gap <= 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_dimension_of_consistent_rhs(self, kind):
        A = synthesize_matrix(300, 12, 1e2, seed=1)
        S = build_sketch(kind, 60, 300, seed=1)
        for b in (A.matvec(stream(1, "x").standard_normal(12)), np.zeros(300)):
            Q, q = subspace_basis(A, b)
            assert q is None and Q.shape == (300, 12)
            U = svd_subspace_basis(A, b)
            assert U.shape[1] == 12
            assert exact_distortion(S, A, b) == pytest.approx(svd_distortion(S, U), rel=1e-12)

    def test_basis_is_orthonormal(self):
        A = synthesize_matrix(300, 12, 1e4, seed=2)
        Q, q = subspace_basis(A, synthesize_problem(A, 2))
        B = np.column_stack([Q, q])
        assert np.linalg.norm(B.T @ B - np.eye(13), 2) <= 1e-14


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 6, 8, 9)] == [1, 2, 4, 8, 8, 16]
