import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from sketchls import embed
from sketchls.embed import (GAUSSIAN_BLOCK_ROWS, SketchKind, SparsePayload,
                            SketchOperator, apply, apply_adjoint, basis_distortion,
                            build_sketch, exact_distortion, fwht, identity_sketch,
                            materialize, next_pow2, sketch_operands, subspace_basis)
from sketchls.matio import MatrixHandle, synthesize_matrix, synthesize_problem
from sketchls.rng import stream

from conftest import random_rhs, random_tall

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

    def test_sparse_input_accepted(self):
        S = build_sketch("sparse", 4, 10, seed=2)
        X = scipy.sparse.random(10, 2, density=0.5, random_state=1, format="csr")
        assert np.allclose(apply(S, X), materialize(S) @ X.toarray())

    def test_sparse_kind_never_densifies_csr(self, monkeypatch):
        csr = scipy.sparse.random(50, 4, density=0.2, random_state=3, format="csr")
        A = MatrixHandle(csr)
        S = build_sketch("sparse", 12, 50, seed=1)

        def no_dense(self):
            raise AssertionError("densified")

        monkeypatch.setattr(MatrixHandle, "dense", no_dense)
        out = apply(S, A)
        assert isinstance(out, np.ndarray) and out.shape == (12, 4)
        assert np.allclose(out, materialize(S) @ csr.toarray(), rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="rows"):
            apply(build_sketch("sparse", 12, 51, seed=1), A)


def scatter_reference(S: SketchOperator, X: np.ndarray) -> np.ndarray:
    """The sparse kind as the scatter out[rows[j]] += signs[j] * X[j]."""
    p = S.payload
    out = np.zeros((S.d,) + X.shape[1:])
    np.add.at(out, p.rows, X * (p.signs[:, None] if X.ndim == 2 else p.signs))
    return out


@pytest.mark.parametrize("form", ["vector", "c_matrix", "f_matrix", "csr",
                                  "sparse_handle", "dense_handle"])
def test_countsketch_bit_equal_to_scatter(form):
    m, n = 500, 7
    S = build_sketch("sparse", 40, m, seed=3)
    csr = scipy.sparse.random(m, n, density=0.3, random_state=4, format="csr")
    gen = stream(9, "countsketch", m)
    dense = {"vector": gen.standard_normal(m), "c_matrix": gen.standard_normal((m, n)),
             "f_matrix": np.asfortranarray(gen.standard_normal((m, n)))}
    operand = {**dense, "csr": csr, "sparse_handle": MatrixHandle(csr),
               "dense_handle": MatrixHandle(csr.toarray())}[form]
    reference = scatter_reference(S, dense.get(form, csr.toarray()))
    assert np.array_equal(apply(S, operand), reference)


@st.composite
def sketch_and_operands(draw):
    """A random (kind, d, m) sketch, an operand with m rows and one with d rows.

    Operands are dense vectors or matrices, scipy CSR matrices or, for
    S @ X, CSR-backed MatrixHandles.
    """
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(2, 40))
    d = draw(st.integers(1, m - 1))
    S = build_sketch(kind, d, m, draw(st.integers(0, 2 ** 16)))
    seed = draw(st.integers(0, 2 ** 16))
    cols = draw(st.integers(0, 3))

    def operand(rows, tag, forms):
        if cols == 0:
            return stream(seed, tag, rows).standard_normal(rows)
        form = draw(st.sampled_from(forms))
        if form == "dense":
            return stream(seed, tag, rows, cols).standard_normal((rows, cols))
        csr = scipy.sparse.random(rows, cols, density=0.4, random_state=seed, format="csr")
        return MatrixHandle(csr) if form == "handle" else csr

    forms = ["dense", "csr"] + (["handle"] if cols <= m else [])
    return S, operand(m, "X", forms), operand(d, "U", ["dense", "csr"])


def _as_array(X) -> np.ndarray:
    if isinstance(X, MatrixHandle):
        return X.dense()
    return X.toarray() if scipy.sparse.issparse(X) else X


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sketch_and_operands())
def test_apply_and_adjoint_match_materialize(case):
    S, X, U = case
    M = materialize(S)
    for got, factor, operand in ((apply(S, X), M, _as_array(X)),
                                 (apply_adjoint(S, U), M.T, _as_array(U))):
        expect = factor @ operand
        assert got.shape == expect.shape
        # rounding of a length-m' sum, relative to the sum of magnitudes
        assert np.all(np.abs(got - expect) <= 1e-13 * (np.abs(factor) @ np.abs(operand)))


# d below, equal to and not a multiple of the block size; 2 * 64 + 1 leaves a
# one-row last block
BLOCK_DS = [GAUSSIAN_BLOCK_ROWS // 2, GAUSSIAN_BLOCK_ROWS, 150, 2 * GAUSSIAN_BLOCK_ROWS + 1]


def fused_operands(m: int = 300, n: int = 7):
    """Every operand form of one cell: a dense (F-order) handle, a CSR
    handle, the F-order cached Q, a C-order array, vectors and None."""
    A = random_tall(m, n, 3)
    b = random_rhs(m, 3)
    Q, q = subspace_basis(A, b)
    csr = MatrixHandle(scipy.sparse.random(m, n, density=0.2, format="csr",
                                           random_state=np.random.default_rng(4)))
    C = np.ascontiguousarray(stream(5, "c-order", m).standard_normal((m, 4)))
    return [Q, q, A, b, csr, C, None]


def run_with_deadline(fn, seconds: float = 60.0):
    """``fn()``'s result or exception, failing the test if it runs past the deadline."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            box["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "call did not return"
    return box


class TestSketchOperands:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", BLOCK_DS)
    def test_bit_equal_to_build_then_apply(self, kind, d):
        operands = fused_operands()
        S, products = sketch_operands(kind, d, 300, 11, operands)
        ref = build_sketch(kind, d, 300, 11)
        assert (S.kind, S.d, S.m, S.seed) == (ref.kind, ref.d, ref.m, ref.seed)
        assert np.array_equal(materialize(S), materialize(ref))
        assert len(products) == len(operands)
        for X, SX in zip(operands, products):
            if X is None:
                assert SX is None
            else:
                assert SX.flags.c_contiguous
                assert np.array_equal(SX, apply(ref, X))

    @pytest.mark.parametrize("d", BLOCK_DS)
    def test_block_draw_is_the_single_draw(self, d):
        G = build_sketch("gaussian", d, 300, 2).payload.matrix
        single = stream(2, "gaussian", d, 300).standard_normal((d, 300)) / np.sqrt(d)
        assert np.array_equal(G, single)

    def test_distortion_from_products_is_exact_distortion(self):
        Q, q, A, b = fused_operands()[:4]
        S, (SQ, Sq) = sketch_operands("gaussian", 150, 300, 6, [Q, q])
        assert basis_distortion(SQ, Sq) == exact_distortion(S, A, b)

    @pytest.mark.parametrize("failing_block", [0, 1, 2])
    def test_failing_draw_raises_and_joins(self, monkeypatch, failing_block):
        real_stream = embed.stream

        class FailingGenerator:
            def __init__(self, gen):
                self.gen, self.blocks = gen, 0

            def standard_normal(self, out):
                if self.blocks == failing_block:
                    raise RuntimeError("draw failed")
                self.blocks += 1
                return self.gen.standard_normal(out=out)

        monkeypatch.setattr(embed, "stream",
                            lambda *tags: FailingGenerator(real_stream(*tags)))
        threads = threading.active_count()
        # 150 rows are three blocks
        box = run_with_deadline(
            lambda: sketch_operands("gaussian", 150, 300, 0, fused_operands()))
        assert str(box.get("error")) == "draw failed"
        assert threading.active_count() == threads

    def test_concurrent_calls_under_fast_switching(self):
        # four callers, each with its own draw worker, on two cores: every
        # product must still be that of build_sketch then apply
        operands = fused_operands()[:4]
        expect = {seed: [apply(build_sketch("gaussian", 150, 300, seed), X) for X in operands]
                  for seed in range(4)}
        same = {}

        def caller(seed):
            same[seed] = all(
                np.array_equal(SX, ref) for _ in range(5)
                for SX, ref in zip(sketch_operands("gaussian", 150, 300, seed, operands)[1],
                                   expect[seed]))

        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=caller, args=(seed,), daemon=True)
                       for seed in expect]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(120)
            assert not any(runner.is_alive() for runner in runners)
        finally:
            sys.setswitchinterval(interval)
        assert same == dict.fromkeys(expect, True)
        assert threading.active_count() == threads

    def test_bad_operand_raises_and_joins(self):
        threads = threading.active_count()
        box = run_with_deadline(
            lambda: sketch_operands("gaussian", 150, 300, 0, [np.ones((299, 3))]))
        assert "operand has 299 rows" in str(box.get("error"))
        assert threading.active_count() == threads

    def test_guards(self):
        threads = threading.active_count()
        for d, m in ((10, 10), (0, 10)):
            with pytest.raises(ValueError):
                sketch_operands("gaussian", d, m, 0, [])
        assert threading.active_count() == threads


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
        rep = exact_distortion(identity_sketch(30), A, b)
        assert rep.epsilon <= 5e-14
        assert rep.subspace_dim == 5
        assert not rep.rank_loss

    def test_probe_dominance(self):
        # every subspace vector obeys the two-sided inequality with oracle eps
        A = random_tall(50, 5, 2)
        b = random_rhs(50, 2)
        Q, q = subspace_basis(A, b)
        Q = np.column_stack([Q, q])
        gen = stream(3, "probe")
        for seed in range(200):
            S = build_sketch("sparse", 25, 50, seed)
            rep = exact_distortion(S, A, b)
            Z = Q @ gen.standard_normal((Q.shape[1], 1000))
            norms_sq = (Z ** 2).sum(axis=0)
            sketched_sq = (apply(S, Z) ** 2).sum(axis=0)
            slack = 1e-12 * norms_sq
            assert np.all(sketched_sq >= (1 - rep.epsilon) * norms_sq - slack)
            assert np.all(sketched_sq <= (1 + rep.epsilon) * norms_sq + slack)

    def test_sqrt2_law_gaussian(self):
        A = random_tall(256, 10, 4)
        b = synthesize_problem(A, 0)
        ratios = []
        for seed in range(50):
            e1 = exact_distortion(build_sketch("gaussian", 40, 256, seed), A, b)
            e2 = exact_distortion(build_sketch("gaussian", 80, 256, seed), A, b)
            ratios.append(e2.epsilon / e1.epsilon)
        assert 0.6 <= np.median(ratios) <= 0.85

    def test_rank_loss_flagged(self):
        # every coordinate collapses onto one sketch row: rank(SQ) = 1 < dim
        m = 20
        payload = SparsePayload(rows=np.zeros(m, dtype=np.int64), signs=np.ones(m))
        S = SketchOperator(kind=SketchKind.SPARSE, d=5, m=m, seed=0, payload=payload)
        A = random_tall(m, 3, 5)
        rep = exact_distortion(S, A, random_rhs(m, 5))
        assert rep.rank_loss
        assert rep.epsilon >= 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_passed_basis_is_bit_identical(self, kind):
        A = random_tall(60, 5, 7)
        b = random_rhs(60, 7)
        S = build_sketch(kind, 20, 60, seed=4)
        assert exact_distortion(S, A, b, subspace_basis(A, b)) == exact_distortion(S, A, b)

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
                rep = exact_distortion(S, A, b)
                assert rep.subspace_dim == U.shape[1] == 13
                eps = svd_distortion(S, U)
                worst = max(worst, abs(rep.epsilon - eps) / eps)
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
            assert exact_distortion(S, A, b).subspace_dim == svd_subspace_basis(A, b).shape[1] == 12

    def test_basis_is_orthonormal(self):
        A = synthesize_matrix(300, 12, 1e4, seed=2)
        Q, q = subspace_basis(A, synthesize_problem(A, 2))
        B = np.column_stack([Q, q])
        assert np.linalg.norm(B.T @ B - np.eye(13), 2) <= 1e-14


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 6, 8, 9)] == [1, 2, 4, 8, 8, 16]
