"""Tests for the two-sided (biorthogonal) block Lanczos module."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blocklanczos import block, nonhermitian, scalar, spinchain
from blocklanczos.nonhermitian import (
    GeneralOperator,
    SeriousBreakdownError,
    biorthogonality_check,
    match_spectra,
    paired_random_start,
    t_eigenvalues,
    two_sided_block_run,
)
from test_scalar import EPS, full_block_ritz_values, random_xxz_chain


def cyclic_permutation() -> np.ndarray:
    """3x3 cyclic shift whose left/right Krylov spaces pair degenerately."""
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def unit_column(dim: int, index: int = 0) -> np.ndarray:
    e = np.zeros((dim, 1))
    e[index, 0] = 1.0
    return e


class TestGeneralOperator:
    def test_from_matrix_requires_square(self):
        with pytest.raises(ValueError):
            GeneralOperator.from_matrix(np.ones((3, 4)))

    def test_from_matrix_dimension_cap(self):
        with pytest.raises(ValueError):
            GeneralOperator.from_matrix(np.eye(513))

    def test_scale_is_a_norm_bound(self):
        mat = np.array([[1.0, -2.0], [0.5, 0.25]])
        # the row sums (infinity-norm) reach 3, the column sums (1-norm) 2.25
        assert GeneralOperator.from_matrix(mat).scale == 3.0
        assert GeneralOperator.from_matrix(mat.T).scale == 3.0
        spec = spinchain.build_xxz(4, j_xy=1.0, j_z=0.4)
        assert GeneralOperator.from_hamiltonian(spec).scale == spec.norm_bound

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="operator scale must be finite and >= 0"):
            GeneralOperator(4, lambda v: v, lambda v: v, scale)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, entry):
        mat = np.eye(4)
        mat[1, 2] = entry
        with pytest.raises(ValueError, match="operator scale must be finite"):
            GeneralOperator.from_matrix(mat)

    def test_apply_and_transpose_match_dense(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((9, 9))
        op = GeneralOperator.from_matrix(mat)
        v = rng.standard_normal(9)
        blockv = rng.standard_normal((9, 3))
        assert np.allclose(op.apply(v), mat @ v)
        assert np.allclose(op.apply_transpose(v), mat.T @ v)
        assert np.allclose(op.apply(blockv), mat @ blockv)

    def test_transpose_consistency_defect_small(self):
        rng = np.random.default_rng(1)
        op = GeneralOperator.from_matrix(rng.standard_normal((16, 16)))
        for _ in range(4):
            u, v = rng.standard_normal((2, 16))
            assert abs(u @ op.apply(v) - op.apply_transpose(u) @ v) < 1e-12

    def test_transpose_consistency_complex_plain_transpose(self):
        # The pairing never conjugates: u.(Mv) == (M^T u).v for complex u.
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = GeneralOperator.from_matrix(mat)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8)
        assert abs(u @ op.apply(v) - op.apply_transpose(u) @ v) < 1e-12

    def test_from_hamiltonian_matches_dense(self):
        spec = spinchain.build_xxz(4, j_xy=1.0, j_z=0.4)
        dense = spinchain.dense_matrix(spec)
        op = GeneralOperator.from_hamiltonian(spec)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(16)
        assert op.dimension == 16
        assert np.allclose(op.apply(v), dense @ v)
        for _ in range(4):
            u, v = rng.standard_normal((2, 16))
            assert abs(u @ op.apply(v) - op.apply_transpose(u) @ v) < 1e-12


class TestBiorthogonalBlockPair:
    """A biorthogonal pair is two equal-shape (dim, k) bases."""

    def test_length_mismatch_rejected(self):
        b = np.eye(4, 2)
        with pytest.raises(ValueError):
            biorthogonality_check(np.hstack([b, b]), b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            biorthogonality_check(np.eye(4, 2), np.eye(4, 3))

    def test_check_on_orthonormal_identical_pair(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        assert biorthogonality_check(q, q) < 1e-12

    def test_check_scaled_right_block_gives_unit_defect(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        assert biorthogonality_check(q, 2.0 * q) == pytest.approx(1.0, abs=1e-10)

    def test_check_on_fresh_run_pair(self):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((32, 32))
        r0, l0 = paired_random_start(32, 2, rng)
        _, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=10
        )
        assert biorthogonality_check(*pair) < 1e-8


class TestNonHermitianBlockTridiagonal:
    """The general (two-sided) form of ``scalar.BlockCoefficients``: a C
    stack given, no Hermiticity asked of A."""

    @staticmethod
    def make_coeffs(rng, widths):
        a = tuple(rng.standard_normal((w, w)) for w in widths)
        b = tuple(
            rng.standard_normal((widths[i + 1], widths[i]))
            for i in range(len(widths) - 1)
        )
        c = tuple(
            rng.standard_normal((widths[i], widths[i + 1]))
            for i in range(len(widths) - 1)
        )
        return scalar.BlockCoefficients(a, b, c)

    def test_list_length_mismatch_rejected(self):
        a = (np.zeros((2, 2)), np.zeros((2, 2)))
        b = (np.zeros((2, 2)),)
        with pytest.raises(ValueError, match="got 1 below and 0 above"):
            scalar.BlockCoefficients(a, b, ())

    def test_nonsquare_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal block 0 is not square"):
            scalar.BlockCoefficients((np.zeros((2, 3)),), (), ())

    def test_wrong_coupling_shapes_rejected(self):
        a = (np.zeros((2, 2)), np.zeros((2, 2)))
        good = (np.zeros((2, 2)),)
        bad = (np.zeros((3, 2)),)
        with pytest.raises(ValueError, match="^coupling block 0 has shape"):
            scalar.BlockCoefficients(a, bad, good)
        with pytest.raises(ValueError, match="upper coupling block 0 has shape"):
            scalar.BlockCoefficients(a, good, bad)

    def test_hermiticity_asked_only_without_c(self):
        a = (np.array([[1.0, 2.0], [3.0, 4.0]]),)
        with pytest.raises(ValueError, match="not Hermitian"):
            scalar.BlockCoefficients(a, ())
        assert scalar.BlockCoefficients(a, (), ()).c_blocks == ()

    @pytest.mark.parametrize("kind", ["a", "b", "c"])
    def test_non_finite_entries_refused(self, kind):
        blocks = dict(a=[np.eye(2), np.eye(2)], b=[np.eye(2)], c=[np.eye(2)])
        blocks[kind][-1] = np.diag([1.0, np.nan])
        name = {"a": "diagonal block 1", "b": "^coupling block 0",
                "c": "upper coupling block 0"}[kind]
        with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
            scalar.BlockCoefficients(blocks["a"], blocks["b"], blocks["c"])

    def test_prefix(self):
        rng = np.random.default_rng(7)
        coeffs = self.make_coeffs(rng, (2, 2, 2, 2))
        short = coeffs.prefix(1)
        assert short.iterations == 1
        assert np.array_equal(short.a_blocks[1], coeffs.a_blocks[1])
        assert np.array_equal(short.c_blocks[0], coeffs.c_blocks[0])
        with pytest.raises(ValueError):
            coeffs.prefix(4)

    def test_save_load_round_trip_real(self, tmp_path):
        rng = np.random.default_rng(8)
        coeffs = self.make_coeffs(rng, (3, 3, 3))
        path = tmp_path / "coeffs.txt"
        coeffs.save(path)
        loaded = scalar.BlockCoefficients.load(path)
        for got, want in zip(loaded.a_blocks, coeffs.a_blocks, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(loaded.b_blocks, coeffs.b_blocks, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(loaded.c_blocks, coeffs.c_blocks, strict=True):
            assert np.array_equal(got, want)

    def test_hermitian_table_saves_its_upper_blocks(self, tmp_path):
        # a table without C writes C_n = B_n^H and loads back in general form
        b = np.array([[1.0 + 2.0j, 0.5], [0.0, 3.0]])
        coeffs = scalar.BlockCoefficients((np.eye(2), 2.0 * np.eye(2)), (b,))
        path = tmp_path / "coeffs.txt"
        coeffs.save(path)
        loaded = scalar.BlockCoefficients.load(path)
        assert np.array_equal(loaded.c_blocks[0], b.conj().T)
        assert np.array_equal(block.assemble_block_tridiagonal(loaded),
                              block.assemble_block_tridiagonal(coeffs))

    def test_save_load_round_trip_complex(self, tmp_path):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        r0, l0 = paired_random_start(16, 2, rng)
        coeffs, _ = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=4
        )
        path = tmp_path / "coeffs.txt"
        coeffs.save(path)
        loaded = scalar.BlockCoefficients.load(path)
        for got, want in zip(loaded.c_blocks, coeffs.c_blocks):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("text, fragment", [
        ("D 0 1 1\n1.0\n", "unexpected section 'D'"),
        ("1.0 2.0 3.0\n", "needs 4 columns"),
        ("A 0 1 2\n1.0\n", "section A 0 row 0 has 1 of 2 columns"),
        ("A 0 2 2\n1.0 2.0\n", "truncated section A 0"),
    ], ids=["unknown-section", "header-columns", "row-columns", "truncated"])
    def test_load_rejects_malformed(self, tmp_path, text, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=fragment):
            scalar.BlockCoefficients.load(path)


class TestTwoSidedAssembly:
    """``block.assemble_block_tridiagonal`` on general-form tables."""

    def test_single_block_is_identity_map(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        coeffs = scalar.BlockCoefficients((a,), (), ())
        assert np.array_equal(block.assemble_block_tridiagonal(coeffs), a)

    def test_band_structure_exact_zeros(self):
        rng = np.random.default_rng(10)
        coeffs = TestNonHermitianBlockTridiagonal.make_coeffs(rng, (2, 2, 2, 2))
        mat = block.assemble_block_tridiagonal(coeffs)
        assert mat.shape == (8, 8)
        # beyond the first off-diagonal block row/column everything is zero
        assert np.all(mat[4:, :2] == 0.0)
        assert np.all(mat[:2, 4:] == 0.0)
        assert np.all(mat[6:, 2:4] == 0.0)
        assert np.all(mat[2:4, 6:] == 0.0)
        # placed blocks land untouched
        assert np.array_equal(mat[2:4, 0:2], coeffs.b_blocks[0])
        assert np.array_equal(mat[0:2, 2:4], coeffs.c_blocks[0])

    def test_hermitian_reduction_matches_hermitian_assembly(self):
        spec = spinchain.build_xxz(5, j_xy=1.0, j_z=0.3)
        op = GeneralOperator.from_hamiltonian(spec)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((32, 2)))
        coeffs, _ = two_sided_block_run(op, q, q.copy(), max_iter=6)
        herm = scalar.BlockCoefficients(coeffs.a_blocks, coeffs.b_blocks)
        herm_mat = block.assemble_block_tridiagonal(herm)
        assert np.max(np.abs(block.assemble_block_tridiagonal(coeffs) - herm_mat)) < 1e-12


class TestTwoSidedRun:
    def test_eigenvector_start_terminates_immediately(self):
        op = GeneralOperator.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        e1 = unit_column(4)
        coeffs, pair = two_sided_block_run(op, e1, e1, max_iter=10)
        assert len(coeffs.a_blocks) == 1
        assert coeffs.a_blocks[0] == pytest.approx(np.array([[1.0]]))
        assert coeffs.iterations == 0
        assert pair[1].shape == (4, 1)

    def test_cyclic_permutation_serious_breakdown(self):
        op = GeneralOperator.from_matrix(cyclic_permutation())
        e1 = unit_column(3)
        with pytest.raises(SeriousBreakdownError) as excinfo:
            two_sided_block_run(op, e1, e1, max_iter=5)
        assert excinfo.value.iteration == 1

    def test_one_dimensional_start_rejected(self):
        op = GeneralOperator.from_matrix(np.eye(8))
        e1 = unit_column(8)[:, 0]
        with pytest.raises(ValueError, match=r"equal-shape \(dimension x width\)"):
            two_sided_block_run(op, e1, e1, max_iter=3)

    def test_zero_width_start_rejected(self):
        calls = []
        op = GeneralOperator(8, lambda v: calls.append(v) or v,
                             lambda v: calls.append(v) or v, scale=1.0)
        empty = np.zeros((8, 0))
        with pytest.raises(ValueError, match=r"\(dimension x width\) .*width >= 1"):
            two_sided_block_run(op, empty, empty, max_iter=3)
        assert calls == []

    def test_non_biorthonormal_start_rejected(self):
        op = GeneralOperator.from_matrix(np.eye(4))
        bad = 2.0 * unit_column(4)
        with pytest.raises(ValueError):
            two_sided_block_run(op, bad, bad, max_iter=3)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_non_finite_start_rejected(self, side):
        calls = []
        op = GeneralOperator(4, lambda v: calls.append(v) or v,
                             lambda v: calls.append(v) or v, scale=1.0)
        good, bad = unit_column(4), unit_column(4)
        bad[2, 0] = np.nan
        right, left = (bad, good) if side == "right" else (good, bad)
        with pytest.raises(ValueError, match="start pair is not biorthonormal"):
            two_sided_block_run(op, right, left, max_iter=3)
        assert calls == []  # refused before the first operator product

    @pytest.mark.parametrize("kind, fragment", [
        ("nan", "at step 0: its diagonal block"),
        ("overflow", "at step 1: its coupling block"),
    ])
    def test_non_finite_block_refused(self, kind, fragment):
        # a NaN product, or residuals whose pair Gram overflows, is refused
        # by the step rather than met by an SVD that does not converge
        rng = np.random.default_rng(26)
        if kind == "nan":
            op = GeneralOperator(16, lambda v: v * np.nan, lambda v: v * np.nan, 1.0)
        else:
            op = GeneralOperator.from_matrix(1e300 * rng.standard_normal((16, 16)))
        r0, l0 = paired_random_start(16, 2, rng)
        with pytest.raises(ValueError, match=f"two-sided Lanczos recursion left the "
                                             f"finite range {fragment} is not finite"):
            two_sided_block_run(op, r0, l0, max_iter=4)

    def test_bad_max_iter_rejected(self):
        op = GeneralOperator.from_matrix(np.eye(4))
        e1 = unit_column(4)
        with pytest.raises(ValueError):
            two_sided_block_run(op, e1, e1, max_iter=0)

    def test_oversized_basis_refused_before_the_first_product(self, monkeypatch):
        # each side's (64, 64) float64 basis needs 32768 bytes
        calls = []
        op = GeneralOperator(64, lambda v: calls.append(v) or v,
                             lambda v: calls.append(v) or v, scale=1.0)
        right, left = paired_random_start(64, 2, np.random.default_rng(3))
        monkeypatch.setattr(spinchain, "_physical_memory", lambda: 30_000)
        with pytest.raises(ValueError, match=(
                r"a Krylov basis of shape \(64, 64\) needs 32768 bytes, more than "
                r"the 30000 bytes of physical memory")):
            two_sided_block_run(op, right, left, max_iter=40)
        assert calls == []

    def test_two_bases_refused_together_before_the_first_product(self, monkeypatch):
        # each side's (64, 64) float64 basis fits in 40000 bytes, both do not
        calls = []
        op = GeneralOperator(64, lambda v: calls.append(v) or v,
                             lambda v: calls.append(v) or v, scale=1.0)
        right, left = paired_random_start(64, 2, np.random.default_rng(3))
        monkeypatch.setattr(spinchain, "_physical_memory", lambda: 40_000)
        with pytest.raises(ValueError, match=(
                r"a Krylov basis of 2 buffers of shape \(64, 64\) needs 65536 bytes, "
                r"more than the 40000 bytes of physical memory")):
            two_sided_block_run(op, right, left, max_iter=40)
        assert calls == []
        # one side of the same size is accepted
        start = block.random_orthonormal_block(6, 2, np.random.default_rng(3))
        _, basis = block.block_lanczos_run(spinchain.build_xxz(6, 1.0, 1.0), start,
                                           max_iter=40)
        assert basis.shape[0] == 64

    def test_dimension_mismatch_rejected(self):
        op = GeneralOperator.from_matrix(np.eye(4))
        with pytest.raises(ValueError):
            two_sided_block_run(op, unit_column(5), unit_column(5), max_iter=3)

    def test_random_dense_64_saturation_spectrum(self):
        # 64x64 non-symmetric, d=2, run to saturation: the projected
        # eigenvalues must recover the dense general-eigensolver spectrum.
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((64, 64))
        r0, l0 = paired_random_start(64, 2, rng)
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=128
        )
        assert coeffs.dimension == 64
        err = match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat))
        assert err < 1e-6
        assert biorthogonality_check(*pair) < 1e-8

    @pytest.mark.parametrize(
        "dim,width,seed", [(16, 1, 13), (32, 4, 14), (48, 2, 15), (64, 4, 16)]
    )
    def test_saturation_across_sizes(self, dim, width, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((dim, dim))
        r0, l0 = paired_random_start(dim, width, rng)
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=2 * dim
        )
        assert coeffs.dimension == dim
        assert match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat)) < 1e-6
        assert biorthogonality_check(*pair) < 1e-8

    def test_distinct_left_start_saturation(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((32, 32))
        r0, l0 = paired_random_start(32, 4, rng, distinct_left=True)
        assert np.max(np.abs(l0 - r0)) > 1e-3
        coeffs, _ = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=64
        )
        assert match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat)) < 1e-6

    def test_complex_matrix_saturation(self):
        rng = np.random.default_rng(18)
        mat = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        r0, l0 = paired_random_start(24, 2, rng)
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=48
        )
        assert match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat)) < 1e-6
        assert biorthogonality_check(*pair) < 1e-8

    def test_real_product_with_a_complex_left_start_saturates(self):
        # the first right product is real while the bases are complex: the
        # residual is formed in a complex copy of it
        rng = np.random.default_rng(23)
        mat = rng.standard_normal((24, 24))
        right, _ = np.linalg.qr(rng.standard_normal((24, 2)))
        raw = rng.standard_normal((24, 2)) + 1j * rng.standard_normal((24, 2))
        left = raw @ np.linalg.inv(raw.T @ right).T
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), right, left, max_iter=48)
        assert pair[0].dtype == pair[1].dtype == np.complex128
        assert match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat)) < 1e-6
        assert biorthogonality_check(*pair) < 1e-8

    def test_products_that_alias_their_input_are_not_written(self):
        # the identity returns its input, which is the caller's start at
        # step 0: the residuals are formed in copies, never in the starts
        rng = np.random.default_rng(24)
        r0, l0 = paired_random_start(16, 2, rng, distinct_left=True)
        saved = r0.copy(), l0.copy()
        op = GeneralOperator(16, lambda v: v, lambda v: v, scale=1.0)
        coeffs, _ = two_sided_block_run(op, r0, l0, max_iter=4)
        assert np.array_equal(r0, saved[0]) and np.array_equal(l0, saved[1])
        assert coeffs.iterations == 0
        assert np.max(np.abs(coeffs.a_blocks[0] - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("layout", ["read-only", "C-ordered", "F-ordered", "aliasing"])
    def test_read_only_products_give_the_same_run(self, layout):
        # each residual is formed in place in the transpose of its product,
        # or in a row-major copy when the product is not F-ordered, is
        # read-only or aliases its input: the run's bits do not depend on it
        def wrapped(mat):
            def apply(v):
                if layout == "aliasing":
                    return v[::-1]  # the exchange matrix, as a view of v
                out = (v.T @ mat.T).T  # the arithmetic of from_matrix
                if layout == "read-only":
                    out.flags.writeable = False
                    return out
                return np.asarray(out, order=layout[0])
            return apply

        rng = np.random.default_rng(25)
        mat = rng.standard_normal((20, 20))
        if layout == "aliasing":
            mat = np.eye(20)[::-1]
        r0, l0 = paired_random_start(20, 2, rng)
        plain = GeneralOperator.from_matrix(mat)
        wrapped_op = GeneralOperator(20, wrapped(mat), wrapped(mat.T), plain.scale)
        want, _ = two_sided_block_run(plain, r0, l0, max_iter=10)
        got, _ = two_sided_block_run(wrapped_op, r0, l0, max_iter=10)
        assert got.iterations >= 1
        for name in ("a_blocks", "b_blocks", "c_blocks"):
            for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
                assert np.array_equal(g, w)

    def test_hermitian_reduction_gives_transposed_couplings(self):
        spec = spinchain.build_xxz(6, j_xy=1.0, j_z=0.7)
        op = GeneralOperator.from_hamiltonian(spec)
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(rng.standard_normal((64, 2)))
        coeffs, _ = two_sided_block_run(op, q, q.copy(), max_iter=12)
        for b, c in zip(coeffs.b_blocks, coeffs.c_blocks):
            assert np.max(np.abs(c - b.T)) < 1e-12
        assert np.max(np.abs(t_eigenvalues(coeffs).imag)) < 1e-10

    def test_hermitian_reduction_ritz_matches_block_solver(self):
        # Gauge-invariant comparison: Ritz values at every prefix.
        spec = spinchain.build_xxz(6, j_xy=1.0, j_z=0.7)
        dense_op = GeneralOperator.from_matrix(spinchain.dense_matrix(spec))
        rng = np.random.default_rng(20)
        q, _ = np.linalg.qr(rng.standard_normal((64, 2)))
        two, _ = two_sided_block_run(dense_op, q, q.copy(), max_iter=14)
        one, _ = block.block_lanczos_run(spec, q, max_iter=14)
        assert two.iterations == one.iterations
        for k in range(two.iterations + 1):
            got = np.sort(t_eigenvalues(two.prefix(k)).real)
            want = np.sort(
                np.linalg.eigvalsh(
                    block.assemble_block_tridiagonal(one.prefix(k))
                )
            )
            assert np.max(np.abs(got - want)) < 1e-8

    def test_deep_hermitian_run_saturates_without_breakdown(self):
        # Residual norms decay toward saturation; the scale-aware breakdown
        # test must not misreport that decay as a singular pairing.
        spec = spinchain.build_xxz(6, j_xy=1.0, j_z=0.7)
        op = GeneralOperator.from_matrix(spinchain.dense_matrix(spec))
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((64, 2)))
        coeffs, pair = two_sided_block_run(op, q, q.copy(), max_iter=64)
        assert coeffs.dimension == 64
        ref = np.linalg.eigvalsh(spinchain.dense_matrix(spec))
        assert match_spectra(t_eigenvalues(coeffs), ref) < 1e-8
        assert biorthogonality_check(*pair) < 1e-8

    def test_post_hoc_coefficient_consistency(self):
        rng = np.random.default_rng(22)
        mat = rng.standard_normal((40, 40))
        r0, l0 = paired_random_start(40, 2, rng)
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=8
        )
        offsets = np.cumsum((0,) + coeffs.widths)
        lefts, rights = (
            [basis[:, i:j] for i, j in zip(offsets, offsets[1:])] for basis in pair
        )
        for n in range(len(lefts)):
            recomputed = lefts[n].T @ (mat @ rights[n])
            assert np.max(np.abs(recomputed - coeffs.a_blocks[n])) < 1e-8
        for n in range(len(lefts) - 1):
            b_re = lefts[n + 1].T @ (mat @ rights[n])
            c_re = lefts[n].T @ (mat @ rights[n + 1])
            assert np.max(np.abs(b_re - coeffs.b_blocks[n])) < 1e-8
            assert np.max(np.abs(c_re - coeffs.c_blocks[n])) < 1e-8


def textbook_two_sided(mat, right, left, max_iter):
    """Reference two-sided run on a dense matrix, kept semi-biorthogonal:
    both residuals are projected twice against the last two pairs, or
    against every pair on steps 0 and 1, when the test value below or the
    split's pairing defect eps s_max / s_min exceeds sqrt(eps), and on the
    step after. The estimates follow the signed oblique omega recurrence,
    one dict of (w, w) blocks per side, keyed (k, j) for the overlap of the
    paired side's block k with block j, updated block by block:

        t = A_k om[k, n] + B_{k-1} om[k-1, n] + C_k om[k+1, n]
            - om[k, n] A_n - om[k, n-1] C_{n-1}
        om[k, n+1] = (t + eps scale |L_k| |R_n| phase(t)) B_n^-1

    for the right side, with phase(t) the entrywise t/|t| (1 where t = 0),
    |.| a block's largest column norm and B_n^-1 = Vh^H diag(1/sqrt(s))
    from the SVD of the unprojected residuals' pair Gram matrix; the left
    side takes A, B, C -> A^T, C^T, B^T, the two sides' norms swapped and
    C_n^-T = conj(U) diag(1/sqrt(s)). The test value is the largest
    estimate magnitude times the largest |L_k| |R_k| of a stored pair. A new
    block's om is its estimate with the blocks older than the window after
    a windowed step, and eps |L_k| |R_{n+1}| with every other block.
    Returns the full steps from step 2 on and, per step that computed them,
    the right and left estimates as two (n - 1, w, w) stacks."""
    dim, width = right.shape
    scale = max(np.linalg.norm(mat, 1), np.linalg.norm(mat, np.inf))
    rights, lefts, a_s, b_s, c_s = [right], [left], [], [], []
    om_right, om_left = {}, {}
    full, forced, computed = [], False, {}

    def norm(block):
        return np.linalg.norm(block, axis=0).max()

    def estimates(om, a_k, b_k, c_k, paired, own, inverse, n):
        out = []
        for k in range(n - 1):
            t = (a_k[k] @ om[k, n] - om[k, n] @ a_k[n]
                 + c_k[k] @ om[k + 1, n] - om[k, n - 1] @ c_k[n - 1])
            if k > 0:
                t += b_k[k - 1] @ om[k - 1, n]
            size = np.abs(t)
            phase = np.divide(t, size, out=np.ones_like(t), where=size > 0)
            out.append((t + EPS * scale * norm(paired[k]) * norm(own[n]) * phase)
                       @ inverse)
        return out

    for n in range(max_iter + 1):
        a_s.append(lefts[n].T @ mat @ rights[n])
        if n == max_iter or (n + 1) * width >= dim:
            break
        r = mat @ rights[n] - rights[n] @ a_s[n]
        s = mat.T @ lefts[n] - lefts[n] @ a_s[n].T
        if n > 0:
            r -= rights[n - 1] @ c_s[n - 1]
            s -= lefts[n - 1] @ b_s[n - 1].T
        first, new_r, new_l = 0, None, None
        if n >= 2 and not forced:
            u, sing, vh = np.linalg.svd(s.T @ r)
            new_r = estimates(om_right, a_s, b_s, c_s, lefts, rights,
                              vh.conj().T / np.sqrt(sing), n)
            new_l = estimates(om_left, [m.T for m in a_s], [m.T for m in c_s],
                              [m.T for m in b_s], rights, lefts,
                              u.conj() / np.sqrt(sing), n)
            computed[n] = np.array(new_r), np.array(new_l)
            magnify = max(norm(lefts[k]) * norm(rights[k]) for k in range(n + 1))
            worst = max(magnify * np.abs(new_r).max(), magnify * np.abs(new_l).max(),
                        EPS * sing[0] / sing[-1])
            if worst <= np.sqrt(EPS):
                first = n - 1
            else:
                full.append(n)
                forced = True
        elif forced:
            full.append(n)
            forced = False
        kept_r, kept_l = np.hstack(rights[first:]), np.hstack(lefts[first:])
        for _ in range(2):
            r -= kept_r @ (kept_l.T @ r)
            s -= kept_l @ (kept_r.T @ s)
        u, sing, vh = np.linalg.svd(s.T @ r)
        b_s.append(np.sqrt(sing)[:, None] * vh)
        c_s.append(u * np.sqrt(sing))
        rights.append(r @ vh.conj().T / np.sqrt(sing))
        lefts.append(s @ u.conj() / np.sqrt(sing))
        for om, side, paired, new in ((om_right, rights, lefts, new_r),
                                      (om_left, lefts, rights, new_l)):
            for k in range(n + 1):
                om[k, n + 1] = (new[k] if k < first else np.full(
                    (width, width), EPS * norm(paired[k]) * norm(side[n + 1])))
    return full, computed


class TestSemiBiorthogonality:
    """From step 2 on the two-sided run projects both residuals against the
    last two stored pairs only, and against every stored pair when the
    signed oblique overlap estimate crosses sqrt(eps) and on the step
    after."""

    @staticmethod
    def counted_run(monkeypatch, op, right, left, max_iter):
        """The run's output, the per-expansion row counts of its Gram-Schmidt
        passes (each ``apply`` opens a new entry) and its counts of
        ``apply`` and ``apply_transpose`` calls."""
        steps, transposes = [], []
        project = scalar._project_out

        def counting_project(residual, dual, stack):
            steps[-1].append(stack.shape[0])
            project(residual, dual, stack)

        def counting_apply(v):
            steps.append([])
            return op.apply(v)

        def counting_transpose(v):
            transposes.append(v.shape)
            return op.apply_transpose(v)

        monkeypatch.setattr(scalar, "_project_out", counting_project)
        counted = GeneralOperator(op.dimension, counting_apply, counting_transpose,
                                  op.scale)
        result = two_sided_block_run(counted, right, left, max_iter)
        return result, steps, len(transposes)

    @staticmethod
    def assert_schedule(steps, width, expansions):
        """Four passes per expansion (two per side); steps 0 and 1 take the
        whole basis, later ones its last two pairs unless triggered, and a
        trigger forces a full step after it. Returns the full steps from
        step 2 on."""
        assert [len(passes) for passes in steps] == [4] * expansions
        rows = [passes[0] for passes in steps]
        assert all(set(passes) == {rows[n]} for n, passes in enumerate(steps))
        assert rows[:2] == [width, 2 * width]
        full = [n for n in range(2, expansions) if rows[n] == (n + 1) * width]
        assert all(rows[n] == 2 * width for n in range(2, expansions) if n not in full)
        forced = False
        for n in range(2, expansions):
            if forced:
                assert n in full
                forced = False
            else:
                forced = n in full
        return full

    def test_pass_schedule(self, monkeypatch):
        spec = spinchain.build_xxz(12, 1.0, 1.0)
        q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((spec.dim, 2)))
        op = GeneralOperator.from_hamiltonian(spec)
        (coeffs, pair), steps, transposes = self.counted_run(
            monkeypatch, op, q, q.copy(), max_iter=40)
        assert coeffs.iterations == 40
        assert (len(steps), transposes) == (41, 40)  # one of each per expansion
        assert steps.pop() == []  # the last application only closes the table
        full = self.assert_schedule(steps, 2, 40)
        assert full  # the run is long enough to trigger
        assert len(full) < 38 // 2  # and most steps take the window
        assert biorthogonality_check(*pair) <= np.sqrt(EPS)

    @pytest.mark.parametrize("dim,width,seed,distinct,complex_entries", [
        pytest.param(64, 2, 12, False, False, id="64-2-12-False"),
        pytest.param(48, 1, 15, False, False, id="48-1-15-False"),
        pytest.param(32, 4, 17, True, False, id="32-4-17-True"),
        pytest.param(40, 2, 22, True, False, id="40-2-22-True"),
        pytest.param(48, 3, 23, True, False, id="48-3-23-True"),
        pytest.param(48, 2, 24, False, True, id="48-2-24-False-complex")])
    def test_dense_run_matches_textbook_reference(
            self, monkeypatch, dim, width, seed, distinct, complex_entries):
        # random dense matrices: the run mixes windowed and full steps, and
        # both its estimates and its full steps follow the reference
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((dim, dim))
        if complex_entries:
            mat = mat + 1j * rng.standard_normal((dim, dim))
        r0, l0 = paired_random_start(dim, width, rng, distinct_left=distinct)
        computed = {}
        window_test = scalar._window_test

        def recording_test(estimates, n, a, inverses, floor):
            overlaps, worst = window_test(estimates, n, a, inverses, floor)
            computed[n] = overlaps
            return overlaps, worst

        monkeypatch.setattr(scalar, "_window_test", recording_test)
        (coeffs, pair), steps, _ = self.counted_run(
            monkeypatch, GeneralOperator.from_matrix(mat), r0, l0, max_iter=2 * dim)
        assert coeffs.dimension == dim
        assert steps.pop() == []  # saturation: the last application closes the table
        full = self.assert_schedule(steps, width, coeffs.iterations)
        assert 0 < len(full) < coeffs.iterations - 2
        want_full, want = textbook_two_sided(mat, r0, l0, 2 * dim)
        assert full == want_full
        assert computed.keys() == want.keys()
        for n, (right, left) in want.items():
            # two runs of one algorithm differ by round-off in the coefficients
            np.testing.assert_allclose(computed[n][0], right, rtol=1e-6)
            np.testing.assert_allclose(computed[n][1], left, rtol=1e-6)
        assert match_spectra(t_eigenvalues(coeffs), np.linalg.eigvals(mat)) < 1e-6
        assert biorthogonality_check(*pair) <= np.sqrt(EPS)

    @given(st.integers(7, 8), st.integers(1, 3), st.integers(20, 30),
           st.integers(0, 2**32 - 1))
    def test_semi_biorthogonal_run_keeps_lowest_ritz_values(
            self, length, width, max_iter, seed):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        start = block.random_orthonormal_block(length, width, rng)
        coeffs, pair = two_sided_block_run(
            GeneralOperator.from_hamiltonian(spec), start, start.copy(), max_iter)
        assert coeffs.iterations == max_iter
        assert biorthogonality_check(*pair) <= np.sqrt(EPS)
        want = full_block_ritz_values(spec, start, max_iter)
        got = np.sort(t_eigenvalues(coeffs).real)
        assert np.max(np.abs(got[:width] - want[:width])) <= 1e-12 * spec.norm_bound


class TestWindowBounds:
    """The shared signed estimate, run for both sides of a two-sided step."""

    @staticmethod
    def estimates_at_step_2(norm=1.0):
        """Both sides' estimates after two steps of a width-2 run with O(1)
        coefficients and every block's largest column norm ``norm``, ready
        to propagate step 2."""
        rng = np.random.default_rng(31)
        norms = np.full(5, norm), np.full(5, norm)
        estimates = (scalar._OverlapEstimate(5, 2, 4.0, np.float64, norms),
                     scalar._OverlapEstimate(5, 2, 4.0, np.float64, norms[::-1]))
        for n in range(2):
            a, b, c = rng.standard_normal((3, 2, 2))
            estimates[0].advance(n, a, b, c, None, None)
            estimates[1].advance(n, a.T, c.T, b.T, None, None)
        return estimates, rng.standard_normal((2, 2))

    @staticmethod
    def pair_gram(singular_values):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        return rotation @ np.diag(singular_values) @ rotation.T[::-1]

    @staticmethod
    def window_test(estimates, a, gram):
        """Both sides' step-2 estimates and the window test's value, from
        the split of the pair Gram ``gram``; a split that refuses ``gram``
        leaves the loop no estimate, so its test value is NaN."""
        split = nonhermitian._TwoSidedParts.split(np.array(gram))
        if split is None:
            return None, None, np.nan
        (right, left), worst = scalar._window_test(estimates, 2, a, *split)
        return right, left, worst

    def test_well_conditioned_pair_takes_the_window(self):
        estimates, a = self.estimates_at_step_2()
        right, left, worst = self.window_test(
            estimates, a, self.pair_gram([1.0, 0.5]))
        assert right.shape == left.shape == (1, 2, 2)
        assert worst == max(np.abs(right).max(), np.abs(left).max()) <= np.sqrt(EPS)

    def test_pair_norms_scale_the_test_value(self):
        # blocks of norm 10: every stored pair's norm product is 100, and the
        # estimates enter the test value magnified by it
        estimates, a = self.estimates_at_step_2(norm=10.0)
        right, left, worst = self.window_test(
            estimates, a, self.pair_gram([1.0, 0.5]))
        assert worst == 100.0 * max(np.abs(right).max(), np.abs(left).max())

    def test_near_breakdown_pair_takes_the_whole_basis(self):
        # residual norms 1: the breakdown threshold is a singular value of
        # 1e-10, and a split just above it leaves a pairing defect of about
        # eps * 1e10, far above sqrt(eps), that no window would see
        estimates, a = self.estimates_at_step_2()
        right, left, worst = self.window_test(
            estimates, a, self.pair_gram([1.0, 1.01e-10]))
        assert np.isfinite(right).all() and np.isfinite(left).all()
        assert worst > np.sqrt(EPS)

    @pytest.mark.parametrize("gram", [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [0.0, 0.0]],
                                      [[1.0, np.nan], [0.0, 1.0]]])
    def test_singular_or_nan_pair_never_passes(self, gram):
        estimates, a = self.estimates_at_step_2()
        worst = self.window_test(estimates, a, gram)[2]
        assert not worst <= np.sqrt(EPS)


class TestPairedRandomStart:
    def test_default_pair_is_identical_and_orthonormal(self):
        rng = np.random.default_rng(23)
        right, left = paired_random_start(20, 3, rng)
        assert np.array_equal(right, left)
        assert np.max(np.abs(right.T @ right - np.eye(3))) < 1e-12

    def test_distinct_left_is_biorthonormal(self):
        rng = np.random.default_rng(24)
        right, left = paired_random_start(20, 3, rng, distinct_left=True)
        assert np.max(np.abs(left.T @ right - np.eye(3))) < 1e-10
        assert np.max(np.abs(left - right)) > 1e-3

    def test_width_bounds(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError):
            paired_random_start(4, 5, rng)
        with pytest.raises(ValueError):
            paired_random_start(4, 0, rng)


class TestMatchSpectra:
    def test_permuted_identical_multisets_give_zero(self):
        vals = np.array([1.0 + 1j, -2.0, 3.0 - 0.5j])
        assert match_spectra(vals, vals[::-1]) == 0.0

    def test_known_perturbation_distance(self):
        ref = np.array([0.0, 10.0, 20.0], dtype=complex)
        shifted = ref + np.array([1e-4, -2e-4, 3e-4]) * 1j
        assert match_spectra(shifted, ref) == pytest.approx(3e-4, rel=1e-12)

    def test_pairing_minimizes_worst_distance(self):
        # nearest-first pairing would take 0 -> 1 and leave 1 -> -1 (2.0)
        assert match_spectra(np.array([0.0, 1.0]), np.array([1.0, -1.0])) == 1.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_spectra(np.array([1.0]), np.array([1.0, 2.0]))
