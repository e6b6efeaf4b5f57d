import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

from blocklanczos import block, nonhermitian, scalar, spinchain as sc


def heisenberg(length):
    return sc.build_xxz(length, 1.0, 1.0)


class TestBlockVector:
    """Block vectors are (dim, width) arrays; block_lanczos_run validates
    them as starts."""

    def test_width_and_matrix(self):
        rng = np.random.default_rng(0)
        bv = block.random_orthonormal_block(3, 2, rng)
        assert bv.shape == (8, 2)
        assert np.max(np.abs(bv.T @ bv - np.eye(2))) < 1e-12

    def test_mixed_lengths_rejected(self):
        a = sc.random_state_vector(2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="dimension"):
            block.block_lanczos_run(heisenberg(3), a[:, None], max_iter=2)

    def test_require_orthonormal(self):
        q = block.random_orthonormal_block(3, 2, np.random.default_rng(3))
        with pytest.raises(ValueError, match="orthonormal"):
            block.block_lanczos_run(heisenberg(3), 2.0 * q, max_iter=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            block.block_lanczos_run(heisenberg(3), np.empty((8, 0)), max_iter=2)

    @pytest.mark.parametrize("scale, refused", [(1 + 1e-9, True), (1 + 1e-12, False)],
                             ids=["refused", "accepted"])
    def test_scalar_and_width_one_block_share_the_start_check(self, scale, refused):
        # |v|^2 - 1 is 2e-9 or 2e-12 against the common bound of 1e-10; the
        # two-sided run takes v as both sides of its pair
        spec = heisenberg(6)
        v = scale * sc.random_state_vector(6, np.random.default_rng(4))
        op = nonhermitian.GeneralOperator.from_hamiltonian(spec)
        runs = {"scalar": lambda: scalar.lanczos_run(spec, v, max_iter=2),
                "block": lambda: block.block_lanczos_run(spec, v[:, None], max_iter=2),
                "two-sided": lambda: nonhermitian.two_sided_block_run(
                    op, v[:, None], v[:, None], max_iter=2)}
        for name, run in runs.items():
            if refused:
                with pytest.raises(ValueError, match="Gram defect 2.0"):
                    run()
            else:
                run()


class TestBlockCoefficients:
    def test_hermiticity_validated(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            block.BlockCoefficients((bad,), ())
        # skew above 1e-12 is refused: the assembly copies A blocks verbatim
        slight = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            block.BlockCoefficients((slight,), ())

    def test_non_finite_entries_refused(self):
        # a NaN or inf entry makes the skew NaN, which the bound must refuse
        for bad in (np.array([[0.0, np.nan], [1.0, 0.0]]), np.diag([np.inf, 0.0])):
            with pytest.raises(ValueError,
                               match="diagonal block 0 has a non-finite entry"):
                block.BlockCoefficients((bad,), ())
        eye = np.eye(2)
        inf_b = np.array([[1.0, -np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError,
                           match="coupling block 1 has a non-finite entry"):
            block.BlockCoefficients((eye, eye, eye), (eye, inf_b))

    def test_shape_consistency(self):
        a0 = np.eye(2)
        a1 = np.eye(2)
        wrong = np.ones((3, 3))
        with pytest.raises(ValueError, match="shape"):
            block.BlockCoefficients((a0, a1), (wrong,))

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            block.BlockCoefficients((np.eye(2),), (np.eye(2),))

    def test_ragged_widths_allowed(self):
        a0 = np.eye(3)
        a1 = np.eye(2)
        b1 = np.ones((2, 3))
        c = block.BlockCoefficients((a0, a1), (b1,))
        assert c.widths == (3, 2)
        assert c.dimension == 5

    def test_prefix(self):
        a = tuple(np.eye(2) * k for k in range(4))
        b = tuple(np.eye(2) * 0.1 for _ in range(3))
        c = block.BlockCoefficients(a, b)
        p = c.prefix(1)
        assert len(p.a_blocks) == 2 and len(p.b_blocks) == 1


class TestBlockLanczosRun:
    def test_scalar_reduction(self):
        # d = 1 must match the scalar recursion elementwise
        rng = np.random.default_rng(12)
        spec = sc.build_xxz(6, 1.0, 0.8)
        v = sc.random_state_vector(6, rng)
        coeffs_s, _ = scalar.lanczos_run(spec, v, max_iter=20)
        coeffs_b, _ = block.block_lanczos_run(spec, v[:, None], max_iter=20)
        assert len(coeffs_b.a_blocks) == coeffs_s.alphas.size
        for i, a in enumerate(coeffs_b.a_blocks):
            assert a[0, 0] == pytest.approx(coeffs_s.alphas[i], abs=1e-10)
        for i, b in enumerate(coeffs_b.b_blocks):
            assert b[0, 0] == pytest.approx(coeffs_s.betas[i], abs=1e-10)

    def test_scalar_reduction_ritz_at_every_iteration(self):
        rng = np.random.default_rng(21)
        spec = heisenberg(5)
        v = sc.random_state_vector(5, rng)
        coeffs_s, _ = scalar.lanczos_run(spec, v, max_iter=12)
        coeffs_b, _ = block.block_lanczos_run(spec, v[:, None], max_iter=12)
        for k in range(min(coeffs_s.iterations, coeffs_b.iterations) + 1):
            rv_s = scalar.ritz_values(coeffs_s.prefix(k))
            rv_b = block.block_ritz_values(coeffs_b.prefix(k))
            assert np.max(np.abs(rv_s - rv_b)) < 1e-10

    def test_eigenvector_start_terminates(self):
        spec = heisenberg(4)
        vals, vecs = sc.exact_diagonalize(spec)
        start = vecs[:, :3]
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=5)
        assert len(coeffs.a_blocks) == 1
        assert len(coeffs.b_blocks) == 0
        a0 = coeffs.a_blocks[0]
        assert np.max(np.abs(a0 - np.diag(np.diag(a0)))) < 1e-10
        assert np.diag(a0) == pytest.approx(list(vals[:3]), abs=1e-10)

    def test_ten_site_low_quartet(self):
        # the open Heisenberg chain's first excited level is a threefold
        # degenerate triplet; a width-4 block resolves all copies
        rng = np.random.default_rng(0)
        spec = heisenberg(10)
        start = block.random_orthonormal_block(10, 4, rng)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=25)
        vals = block.block_ritz_values(coeffs)[:4]
        ed = sc.eigenvalues(spec)[:4]
        assert np.max(np.abs(vals - ed)) < 1e-6
        assert ed[1] == pytest.approx(ed[3], abs=1e-10)

    def test_global_orthonormality(self):
        rng = np.random.default_rng(4)
        spec = sc.build_xxz(6, 1.0, 0.5)
        start = block.random_orthonormal_block(6, 3, rng)
        _, q = block.block_lanczos_run(spec, start, max_iter=8)
        gram = q.conj().T @ q
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-8

    def test_coefficient_consistency(self):
        rng = np.random.default_rng(9)
        spec = sc.build_xxz(6, 1.0, 0.5)
        start = block.random_orthonormal_block(6, 3, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=6)
        offsets = np.cumsum((0,) + coeffs.widths)
        blocks = [basis[:, i:j] for i, j in zip(offsets, offsets[1:])]
        for n, psi in enumerate(blocks):
            h_psi = sc.apply_to_array(spec, psi)
            assert np.max(np.abs(psi.conj().T @ h_psi - coeffs.a_blocks[n])) < 1e-10
            if n + 1 < len(blocks):
                recomputed = blocks[n + 1].conj().T @ h_psi
                assert np.max(np.abs(recomputed - coeffs.b_blocks[n])) < 1e-8

    def test_triangular_gauge(self):
        rng = np.random.default_rng(14)
        spec = heisenberg(5)
        start = block.random_orthonormal_block(5, 3, rng)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=4)
        for b in coeffs.b_blocks:
            assert np.max(np.abs(np.tril(b, -1))) < 1e-14
            assert np.min(np.diag(b)) >= 0.0

    def test_deflation_narrows_block(self):
        # one start column is an exact eigenvector: its residual deflates
        rng = np.random.default_rng(2)
        spec = heisenberg(4)
        _, vecs = sc.exact_diagonalize(spec)
        g = vecs[:, 0]
        r = rng.standard_normal(16)
        r -= (g @ r) * g
        r /= np.linalg.norm(r)
        start = np.column_stack([g, r])
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=20)
        assert coeffs.widths[0] == 2
        assert coeffs.widths[1] == 1
        vals = block.block_ritz_values(coeffs)
        ed = sc.eigenvalues(spec)
        for e in ed:
            if np.min(np.abs(vals - e)) > 1e-8:
                break
        # the deflated run still covers the part of the spectrum it reached
        assert np.min(np.abs(vals - ed[0])) < 1e-10

    def test_full_space_start_single_block(self):
        rng = np.random.default_rng(11)
        spec = heisenberg(3)
        start = block.random_orthonormal_block(3, 8, rng)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=5)
        assert len(coeffs.a_blocks) == 1
        vals = block.block_ritz_values(coeffs)
        assert np.max(np.abs(vals - sc.eigenvalues(spec))) < 1e-10

    def test_extraction_counter(self):
        rng = np.random.default_rng(13)
        spec = heisenberg(6)
        counter = block.ExtractionCounter()
        block.block_lanczos_run(
            spec, block.random_orthonormal_block(6, 3, rng), max_iter=4, counter=counter
        )
        assert counter.counts == [9] * len(counter.counts)
        assert counter.total == 9 * len(counter.events)

    def test_non_orthonormal_start_rejected(self):
        spec = heisenberg(3)
        v = sc.random_state_vector(3, np.random.default_rng(1))
        with pytest.raises(ValueError, match="orthonormal"):
            block.block_lanczos_run(
                spec, np.column_stack([v, v]), max_iter=2
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad, monkeypatch):
        spec = heisenberg(3)
        start = block.random_orthonormal_block(3, 2, np.random.default_rng(0))
        start[4, 1] = bad
        calls = []
        monkeypatch.setattr(sc, "apply_to_array", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="start block not orthonormal"):
            block.block_lanczos_run(spec, start, max_iter=2)
        assert calls == []  # refused before the first H @ v

    def test_bad_max_iter(self):
        spec = heisenberg(3)
        start = block.random_orthonormal_block(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_iter"):
            block.block_lanczos_run(spec, start, max_iter=0)


class TestAssembly:
    def test_single_block(self):
        a0 = np.array([[1.0, 0.5], [0.5, 2.0]])
        mat = block.assemble_block_tridiagonal(block.BlockCoefficients((a0,), ()))
        assert np.array_equal(mat, a0)
        assert mat.shape == (2, 2)

    def test_scalar_assembly_matches_tridiagonal(self):
        rng = np.random.default_rng(3)
        spec = heisenberg(4)
        v = sc.random_state_vector(4, rng)
        coeffs_s, _ = scalar.lanczos_run(spec, v, max_iter=6)
        coeffs_b, _ = block.block_lanczos_run(spec, v[:, None], max_iter=6)
        assembled = block.assemble_block_tridiagonal(coeffs_b)
        assert np.max(np.abs(assembled - coeffs_s.matrix())) < 1e-10

    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=6),
           complex_entries=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_band_structure_and_hermiticity(self, widths, complex_entries, seed):
        rng = np.random.default_rng(seed)

        def draw(rows, cols):
            m = rng.standard_normal((rows, cols))
            return m + 1j * rng.standard_normal((rows, cols)) if complex_entries else m

        a_blocks = []
        for w in widths:
            a = draw(w, w)
            a_blocks.append(0.5 * (a + a.conj().T))
        b_blocks = [np.triu(draw(w1, w0)) for w0, w1 in zip(widths, widths[1:])]
        coeffs = block.BlockCoefficients(tuple(a_blocks), tuple(b_blocks))
        mat = block.assemble_block_tridiagonal(coeffs)
        assert mat.shape == (sum(widths),) * 2
        assert np.array_equal(mat, mat.conj().T)
        # blocks beyond the tridiagonal band are exactly zero
        offsets = np.concatenate([[0], np.cumsum(widths)])
        for i in range(len(widths)):
            for j in range(len(widths)):
                sub = mat[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
                if abs(i - j) >= 2:
                    assert np.all(sub == 0.0)
                elif i == j + 1:
                    assert np.array_equal(sub, b_blocks[j])
        dense_vals = np.linalg.eigvalsh(mat)
        assert np.max(np.abs(block.block_ritz_values(coeffs) - dense_vals)) < 1e-12

    def test_ragged_assembly(self):
        a0 = np.eye(3)
        a1 = 2.0 * np.eye(2)
        b1 = np.arange(6.0).reshape(2, 3)
        mat = block.assemble_block_tridiagonal(
            block.BlockCoefficients((a0, a1), (b1,))
        )
        assert mat.shape == (5, 5)
        assert np.array_equal(mat[3:, :3], b1)
        assert np.array_equal(mat[:3, 3:], b1.T)


class TestEigensolveAndReconstruction:
    def test_identity_assembly(self):
        coeffs = block.BlockCoefficients((np.eye(2), np.eye(2)), (np.zeros((2, 2)),))
        values, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        assert values == pytest.approx([1.0] * 4)
        assert np.allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)

    def test_two_site_reduction(self):
        spec = heisenberg(2)
        start = sc.ProductState.from_string("ud").to_state_vector()
        coeffs, _ = block.block_lanczos_run(spec, start[:, None], max_iter=5)
        values, _ = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        assert values == pytest.approx([-0.75, 0.25], abs=1e-12)

    def test_xy_two_lowest(self):
        rng = np.random.default_rng(7)
        spec = sc.build_xxz(10, 1.0, 0.0)
        start = block.random_orthonormal_block(10, 2, rng)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=30)
        vals = block.block_ritz_values(coeffs)[:2]
        ed = sc.eigenvalues(spec)[:2]
        assert np.max(np.abs(vals - ed)) < 1e-6

    def test_ground_overlap(self):
        rng = np.random.default_rng(23)
        spec = heisenberg(6)
        start = block.random_orthonormal_block(6, 2, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=25)
        _, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        states = block.reconstruct_excitations(basis, vectors, 1)
        assert states.shape == (spec.dim, 1) and states.dtype == np.float64
        _, vecs = sc.exact_diagonalize(spec)
        assert abs(np.vdot(states[:, 0], vecs[:, 0])) > 1.0 - 1e-8

    def test_degenerate_pair_subspace(self):
        # ferromagnetic bonds, no flips: twofold degenerate aligned ground pair
        rng = np.random.default_rng(31)
        spec = sc.build_xxz(3, 0.0, -1.0)
        start = block.random_orthonormal_block(3, 2, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=10)
        _, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        states = block.reconstruct_excitations(basis, vectors, 2)
        vals, vecs = sc.exact_diagonalize(spec)
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        angles = sla.subspace_angles(states, vecs[:, :2])
        assert np.max(angles) < 1e-4

    def test_full_spectrum_tiny_system(self):
        rng = np.random.default_rng(43)
        spec = heisenberg(3)
        start = block.random_orthonormal_block(3, 8, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=3)
        _, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        states = block.reconstruct_excitations(basis, vectors, 8)
        ed = sc.eigenvalues(spec)
        for state, energy in zip(states.T, ed):
            rayleigh = np.vdot(state, sc.apply_to_array(spec, state)).real
            assert rayleigh == pytest.approx(float(energy), abs=1e-8)

    def test_pairwise_orthogonality(self):
        rng = np.random.default_rng(3)
        spec = heisenberg(5)
        start = block.random_orthonormal_block(5, 3, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=10)
        _, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        states = block.reconstruct_excitations(basis, vectors, 5)
        assert np.max(np.abs(states.conj().T @ states - np.eye(5))) < 1e-8

    def test_count_bounds(self):
        rng = np.random.default_rng(1)
        spec = heisenberg(3)
        start = block.random_orthonormal_block(3, 2, rng)
        coeffs, basis = block.block_lanczos_run(spec, start, max_iter=2)
        _, vectors = block.block_eigensolve(block.assemble_block_tridiagonal(coeffs))
        with pytest.raises(ValueError, match="pairs exist"):
            block.reconstruct_excitations(basis, vectors, vectors.shape[1] + 1)
        with pytest.raises(ValueError, match="count"):
            block.reconstruct_excitations(basis, vectors, 0)
