import numpy as np
import pytest
from hypothesis import given, strategies as st

from blocklanczos import scalar, spinchain as sc

from reference_values import (
    HEISENBERG2_ALPHA,
    HEISENBERG2_BETA,
    HEISENBERG2_GROUND_ENERGY,
)


class TestTridiagonalCoefficients:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            scalar.TridiagonalCoefficients(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            scalar.TridiagonalCoefficients(np.array([]), np.array([]))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            scalar.TridiagonalCoefficients(np.array([1.0, 2.0]), np.array([-0.5]))

    def test_matrix_assembly(self):
        c = scalar.TridiagonalCoefficients(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
        expected = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]])
        assert np.array_equal(c.matrix(), expected)

    def test_prefix(self):
        c = scalar.TridiagonalCoefficients(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
        p = c.prefix(1)
        assert np.array_equal(p.alphas, [1.0, 2.0])
        assert np.array_equal(p.betas, [0.5])
        with pytest.raises(ValueError):
            c.prefix(3)


class TestLanczosRun:
    def test_eigenvector_start_terminates_first_step(self):
        spec = sc.build_xxz(4, 1.0, 1.0)
        vals, vecs = sc.exact_diagonalize(spec)
        coeffs, basis = scalar.lanczos_run(spec, vecs[:, 0], max_iter=5)
        assert coeffs.alphas.size == 1
        assert coeffs.betas.size == 0
        assert coeffs.alphas[0] == pytest.approx(vals[0], abs=1e-10)
        assert basis.shape[1] == 1
        # a size-1 table solves to its single entry with unit weight, exactly
        assert np.array_equal(scalar.ritz_values(coeffs), coeffs.alphas)
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        assert np.array_equal(values, coeffs.alphas)
        assert np.array_equal(vectors, [[1.0]])

    def test_two_site_hand_values(self):
        spec = sc.build_xxz(2, 1.0, 1.0)
        start = sc.ProductState.from_string("ud").to_state_vector()
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=10)
        assert coeffs.alphas == pytest.approx(
            [HEISENBERG2_ALPHA, HEISENBERG2_ALPHA], abs=1e-12
        )
        assert coeffs.betas == pytest.approx([HEISENBERG2_BETA], abs=1e-12)
        assert scalar.ritz_values(coeffs) == pytest.approx(
            [HEISENBERG2_GROUND_ENERGY, 0.25], abs=1e-12
        )

    def test_ten_site_ground_convergence(self):
        rng = np.random.default_rng(42)
        spec = sc.build_xxz(10, 1.0, 1.0)
        start = sc.random_state_vector(10, rng)
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=30)
        assert scalar.ritz_values(coeffs)[0] == pytest.approx(
            sc.ground_energy(spec), abs=1e-8
        )

    def test_orthonormality_and_tridiagonality(self):
        rng = np.random.default_rng(3)
        spec = sc.build_xxz(6, 1.0, 0.5)
        start = sc.random_state_vector(6, rng, complex_amplitudes=True)
        coeffs, basis = scalar.lanczos_run(spec, start, max_iter=20)
        q = basis
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) < 1e-8
        h_in_basis = q.conj().T @ sc.apply_to_array(spec, q)
        off = h_in_basis - coeffs.matrix()
        assert np.max(np.abs(off)) < 1e-8

    def test_variational_monotonicity(self):
        # prefix(k) equals a run with max_iter=k: the recursion is deterministic
        rng = np.random.default_rng(8)
        spec = sc.build_xxz(8, 1.0, 1.0)
        start = sc.random_state_vector(8, rng)
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=25)
        lows = [scalar.ritz_values(coeffs.prefix(k))[0] for k in range(coeffs.iterations + 1)]
        assert np.all(np.diff(lows) <= 1e-12)

    @pytest.mark.parametrize("length", [3, 5])
    def test_saturation_covers_distinct_spectrum(self, length):
        rng = np.random.default_rng(length)
        spec = sc.build_xxz(length, 1.0, 0.7)
        start = sc.random_state_vector(length, rng)
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=2**length + 8)
        ritz = scalar.ritz_values(coeffs)
        ed = sc.eigenvalues(spec)
        for e in ed:
            assert np.min(np.abs(ritz - e)) < 1e-8
        for r in ritz:
            assert np.min(np.abs(ed - r)) < 1e-8

    def test_breakdown_reports_actual_iterations(self):
        spec = sc.build_xxz(2, 1.0, 1.0)
        start = sc.ProductState.from_string("ud").to_state_vector()
        coeffs, basis = scalar.lanczos_run(spec, start, max_iter=50)
        # the S_z = 0 sector is two-dimensional: exactly one expansion happens
        assert coeffs.iterations == 1
        assert basis.shape[1] == 2

    def test_non_normalized_start_rejected(self):
        spec = sc.build_xxz(3, 1.0, 0.0)
        with pytest.raises(ValueError, match="normalized"):
            scalar.lanczos_run(spec, np.full(8, 0.5), max_iter=3)
        with pytest.raises(ValueError, match="max_iter"):
            scalar.lanczos_run(spec, sc.random_state_vector(3, np.random.default_rng(0)), max_iter=0)

    def test_length_mismatch_rejected(self):
        spec = sc.build_xxz(3, 1.0, 0.0)
        start = sc.random_state_vector(4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="shape"):
            scalar.lanczos_run(spec, start, max_iter=2)
        with pytest.raises(ValueError, match="shape"):
            scalar.lanczos_run(spec, np.eye(8)[:, :1], max_iter=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad):
        spec = sc.build_xxz(3, 1.0, 1.0)
        start = np.eye(8)[0]
        start[3] = bad
        with pytest.raises(ValueError, match="start not normalized"):
            scalar.lanczos_run(spec, start, max_iter=2)

    @pytest.mark.parametrize("complex_start", [False, True], ids=["real", "complex"])
    def test_basis_dtype_follows_start_dtype(self, complex_start):
        spec = sc.build_xxz(4, 1.0, 1.0)
        start = sc.random_state_vector(4, np.random.default_rng(5))
        if complex_start:  # complex dtype, zero imaginary part
            start = start.astype(np.complex128)
        _, basis = scalar.lanczos_run(spec, start, max_iter=4)
        assert basis.dtype == (np.complex128 if complex_start else np.float64)


class TestTridiagonalEigensolve:
    def test_two_by_two_analytic(self):
        coeffs = scalar.TridiagonalCoefficients(
            np.array([-0.25, -0.25]), np.array([0.5])
        )
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        assert values == pytest.approx([-0.75, 0.25], abs=1e-12)
        ground = vectors[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        sign = np.sign(ground[0]) or 1.0
        assert sign * ground == pytest.approx(expected, abs=1e-12)

    def test_single_entry(self):
        values, vectors = scalar.tridiagonal_eigensolve(
            scalar.TridiagonalCoefficients(np.array([1.75]), np.array([]))
        )
        assert np.array_equal(values, [1.75])
        assert np.array_equal(vectors, [[1.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        coeffs = scalar.TridiagonalCoefficients(
            rng.standard_normal(8), np.abs(rng.standard_normal(7))
        )
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        dense_vals = np.linalg.eigvalsh(coeffs.matrix())
        assert values == pytest.approx(dense_vals, abs=1e-12)
        assert np.allclose(vectors.T @ vectors, np.eye(8), atol=1e-12)


class TestReconstructState:
    def test_identity_reconstruction(self):
        v = sc.random_state_vector(3, np.random.default_rng(2))
        out = scalar.reconstruct_state(v[:, None], np.array([1.0]))
        assert np.allclose(out, v)

    def test_two_site_singlet(self):
        spec = sc.build_xxz(2, 1.0, 1.0)
        start = sc.ProductState.from_string("ud").to_state_vector()
        coeffs, basis = scalar.lanczos_run(spec, start, max_iter=5)
        _, vectors = scalar.tridiagonal_eigensolve(coeffs)
        ground = scalar.reconstruct_state(basis, vectors[:, 0])
        assert ground.dtype == np.float64
        singlet = np.zeros(4)
        singlet[0b01] = 1.0 / np.sqrt(2.0)
        singlet[0b10] = -1.0 / np.sqrt(2.0)
        overlap = abs(np.vdot(singlet, ground))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        rayleigh = np.vdot(ground, sc.apply_to_array(spec, ground)).real
        assert rayleigh == pytest.approx(HEISENBERG2_GROUND_ENERGY, abs=1e-12)

    def test_first_excited_rayleigh(self):
        rng = np.random.default_rng(42)
        spec = sc.build_xxz(10, 1.0, 1.0)
        start = sc.random_state_vector(10, rng)
        coeffs, basis = scalar.lanczos_run(spec, start, max_iter=30)
        _, vectors = scalar.tridiagonal_eigensolve(coeffs)
        state = scalar.reconstruct_state(basis, vectors[:, 1])
        rayleigh = np.vdot(state, sc.apply_to_array(spec, state)).real
        assert rayleigh == pytest.approx(sc.eigenvalues(spec)[1], abs=1e-6)

    def test_weight_count_exceeding_basis(self):
        v = sc.random_state_vector(2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="exceed"):
            scalar.reconstruct_state(v[:, None], np.array([1.0, 0.0]))


class TestResidualNorm:
    def test_exact_eigenpair(self):
        spec = sc.build_xxz(4, 1.0, 0.3)
        vals, vecs = sc.exact_diagonalize(spec)
        assert scalar.residual_norm(spec, vecs[:, 0], float(vals[0])) < 1e-10

    def test_two_level_mixture(self):
        spec = sc.build_xxz(4, 1.0, 0.3)
        vals, vecs = sc.exact_diagonalize(spec)
        mix = (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2.0)
        mid = float(vals[0] + vals[-1]) / 2.0
        expected = abs(float(vals[-1] - vals[0])) / 2.0
        assert scalar.residual_norm(spec, mix, mid) == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        spec = sc.build_xxz(5, 1.0, 1.0)
        v = sc.random_state_vector(5, rng)
        e = np.vdot(v, sc.apply_to_array(spec, v)).real
        r = scalar.residual_norm(spec, v, float(e))
        assert 0.0 <= r <= np.max(np.abs(sc.eigenvalues(spec))) * 2


def textbook_lanczos(spec, start, max_iter, breakdown_tol=1e-10):
    """Reference three-term recursion: one vector per step, full
    reorthogonalization by the DGKS rule (a second pass only when the first
    shrinks the vector below 1/sqrt(2) of its norm), Krylov vectors as the
    rows of one buffer. Returns (alphas, betas, basis) with the vectors as
    basis columns."""
    dim = spec.dim
    v0 = start
    cap = min(max_iter + 1, dim)
    basis = np.empty((cap, dim), dtype=v0.dtype)
    basis[0] = v0
    alphas, betas = [], []
    for n in range(cap):
        hv = sc.apply_to_array(spec, basis[n])
        alphas.append(float(np.real(np.vdot(basis[n], hv))))
        if n == max_iter or n + 1 == dim:
            break
        w = hv - alphas[n] * basis[n]
        if n > 0:
            w -= betas[n - 1] * basis[n - 1]
        norm = np.linalg.norm(w)
        w -= basis[: n + 1].T @ (basis[: n + 1].conj() @ w)
        if np.linalg.norm(w) < norm / np.sqrt(2.0):
            w -= basis[: n + 1].T @ (basis[: n + 1].conj() @ w)
        beta = float(np.linalg.norm(w))
        if beta < breakdown_tol:
            break
        betas.append(beta)
        basis[n + 1] = w / beta
    return np.array(alphas), np.array(betas), basis[: len(alphas)].T


def operator_scale(spec):
    """Norm bound of a chain: |constant| + sum 0.5|c| (XX+YY) or 0.25|c| (ZZ)."""
    return abs(spec.constant) + sum(
        (0.25 if term.kind == sc.ZZ_KIND else 0.5) * abs(term.coefficient)
        for term in spec.terms
    )


class TestTextbookReference:
    @pytest.mark.parametrize("complex_start", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("length", range(3, 9))
    def test_run_matches_textbook_recursion(self, length, complex_start):
        # budgeted runs: two formulations of one recursion agree to
        # round-off only until a Ritz value converges (see criterion 6)
        rng = np.random.default_rng(1000 + length)
        for _ in range(3):
            spec = sc.build_xxz(length, rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
            start = sc.random_state_vector(length, rng, complex_amplitudes=complex_start)
            max_iter = min(16, spec.dim // 2)
            alphas, betas, basis = textbook_lanczos(spec, start, max_iter)
            coeffs, got_basis = scalar.lanczos_run(spec, start, max_iter)
            bound = 1e-12 * operator_scale(spec)
            assert coeffs.alphas.shape == alphas.shape
            assert coeffs.betas.shape == betas.shape
            assert np.max(np.abs(coeffs.alphas - alphas)) <= bound
            assert np.max(np.abs(coeffs.betas - betas), initial=0.0) <= bound
            assert got_basis.dtype == basis.dtype
            assert np.max(np.abs(got_basis - basis)) <= 1e-12


class TestReorthogonalization:
    """The DGKS rule: a second Gram-Schmidt pass only when the first one
    shrinks some residual column below 1/sqrt(2) of its norm."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        project = scalar._project_out

        def counting(residual, dual, stack):
            calls.append(stack.shape[0])
            project(residual, dual, stack)

        monkeypatch.setattr(scalar, "_project_out", counting)
        return calls

    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_cancelled_residual_gets_second_pass(self, monkeypatch, complex_rows):
        rng = np.random.default_rng(14)
        dim, hi, width = 512, 40, 3
        raw = rng.standard_normal((dim, hi))
        if complex_rows:
            raw = raw + 1j * rng.standard_normal((dim, hi))
        rows = np.ascontiguousarray(np.linalg.qr(raw)[0].T)
        # almost all of each column lies in the span of the rows
        residual = rows.T @ rng.standard_normal((hi, width))
        residual += 1e-8 * rng.standard_normal((dim, width))
        calls = self.count_passes(monkeypatch)
        scalar._reorthogonalize(residual, rows)
        assert calls == [hi, hi]
        overlap = np.abs(rows.conj() @ residual).max(axis=0)
        norms = np.linalg.norm(residual, axis=0)
        assert np.all(overlap <= 8 * np.finfo(float).eps * norms)

    def test_scalar_run_makes_one_pass_per_expansion(self, monkeypatch):
        spec = sc.build_xxz(12, 1.0, 1.0)
        start = sc.random_state_vector(12, np.random.default_rng(12))
        calls = self.count_passes(monkeypatch)
        coeffs, _ = scalar.lanczos_run(spec, start, max_iter=40)
        assert coeffs.iterations == 40
        assert calls == list(range(1, 41))


def random_xxz_chain(length, rng):
    """Both bond kinds on every link with random-sign coefficients of
    magnitude 0.1..2, plus a constant in [-3, 3]."""
    terms = [
        sc.CouplingTerm(kind, site, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        for site in range(length - 1) for kind in sc.TERM_KINDS
    ]
    return sc.HamiltonianSpec(length, tuple(terms), constant=rng.uniform(-3.0, 3.0))


class TestSolverInvariance:
    """The recursion sees the operator only through H @ v, so symmetries of
    the chain leave its coefficients unchanged up to round-off."""

    CHAINS = (st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 8),
              st.booleans())

    @staticmethod
    def assert_same_run(got, want, spec):
        bound = 1e-12 * operator_scale(spec)
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.alphas - want.alphas)) <= bound
        assert np.max(np.abs(got.betas - want.betas), initial=0.0) <= bound

    @given(*CHAINS)
    def test_global_spin_flip_of_start(self, length, seed, max_iter, complex_start):
        # reversing the basis index flips every spin, which H commutes with
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        start = sc.random_state_vector(length, rng, complex_amplitudes=complex_start)
        want, _ = scalar.lanczos_run(spec, start, max_iter)
        got, _ = scalar.lanczos_run(spec, start[::-1], max_iter)
        self.assert_same_run(got, want, spec)

    @given(*CHAINS)
    def test_term_order(self, length, seed, max_iter, complex_start):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        order = rng.permutation(len(spec.terms))
        shuffled = sc.HamiltonianSpec(
            length, tuple(spec.terms[k] for k in order), spec.constant)
        start = sc.random_state_vector(length, rng, complex_amplitudes=complex_start)
        want, _ = scalar.lanczos_run(spec, start, max_iter)
        got, _ = scalar.lanczos_run(shuffled, start, max_iter)
        self.assert_same_run(got, want, spec)
