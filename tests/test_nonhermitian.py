"""Tests for the two-sided (biorthogonal) block Lanczos module."""

import numpy as np
import pytest

from blocklanczos import block, spinchain
from blocklanczos.nonhermitian import (
    GeneralOperator,
    NonHermitianBlockTridiagonal,
    SeriousBreakdownError,
    assemble_t,
    biorthogonality_check,
    match_spectra,
    paired_random_start,
    t_eigenvalues,
    two_sided_block_run,
)


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
        dense = spinchain.dense_matrix(spec).real
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
    def make_coeffs(self, rng, widths):
        a = tuple(rng.standard_normal((w, w)) for w in widths)
        b = tuple(
            rng.standard_normal((widths[i + 1], widths[i]))
            for i in range(len(widths) - 1)
        )
        c = tuple(
            rng.standard_normal((widths[i], widths[i + 1]))
            for i in range(len(widths) - 1)
        )
        return NonHermitianBlockTridiagonal(a, b, c)

    def test_list_length_mismatch_rejected(self):
        a = (np.zeros((2, 2)), np.zeros((2, 2)))
        b = (np.zeros((2, 2)),)
        with pytest.raises(ValueError):
            NonHermitianBlockTridiagonal(a, b, ())

    def test_nonsquare_diagonal_rejected(self):
        with pytest.raises(ValueError):
            NonHermitianBlockTridiagonal((np.zeros((2, 3)),), (), ())

    def test_wrong_coupling_shapes_rejected(self):
        a = (np.zeros((2, 2)), np.zeros((2, 2)))
        good = (np.zeros((2, 2)),)
        bad = (np.zeros((3, 2)),)
        with pytest.raises(ValueError):
            NonHermitianBlockTridiagonal(a, bad, good)
        with pytest.raises(ValueError):
            NonHermitianBlockTridiagonal(a, good, bad)

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
        loaded = NonHermitianBlockTridiagonal.load(path)
        for got, want in zip(loaded.a_blocks, coeffs.a_blocks):
            assert np.array_equal(got, want)
        for got, want in zip(loaded.b_blocks, coeffs.b_blocks):
            assert np.array_equal(got, want)
        for got, want in zip(loaded.c_blocks, coeffs.c_blocks):
            assert np.array_equal(got, want)

    def test_save_load_round_trip_complex(self, tmp_path):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        r0, l0 = paired_random_start(16, 2, rng)
        coeffs, _ = two_sided_block_run(
            GeneralOperator.from_matrix(mat), r0, l0, max_iter=4
        )
        path = tmp_path / "coeffs.txt"
        coeffs.save(path)
        loaded = NonHermitianBlockTridiagonal.load(path)
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
            NonHermitianBlockTridiagonal.load(path)


class TestAssembleT:
    def test_single_block_is_identity_map(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        coeffs = NonHermitianBlockTridiagonal((a,), (), ())
        assert np.array_equal(assemble_t(coeffs), a)

    def test_band_structure_exact_zeros(self):
        rng = np.random.default_rng(10)
        coeffs = TestNonHermitianBlockTridiagonal().make_coeffs(rng, (2, 2, 2, 2))
        mat = assemble_t(coeffs)
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
        herm = block.BlockCoefficients(coeffs.a_blocks, coeffs.b_blocks)
        herm_mat = block.assemble_block_tridiagonal(herm)
        assert np.max(np.abs(assemble_t(coeffs) - herm_mat)) < 1e-12


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

    def test_bad_max_iter_rejected(self):
        op = GeneralOperator.from_matrix(np.eye(4))
        e1 = unit_column(4)
        with pytest.raises(ValueError):
            two_sided_block_run(op, e1, e1, max_iter=0)

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
        dense_op = GeneralOperator.from_matrix(spinchain.dense_matrix(spec).real)
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
        op = GeneralOperator.from_matrix(spinchain.dense_matrix(spec).real)
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((64, 2)))
        coeffs, pair = two_sided_block_run(op, q, q.copy(), max_iter=64)
        assert coeffs.dimension == 64
        ref = np.linalg.eigvalsh(spinchain.dense_matrix(spec).real)
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
