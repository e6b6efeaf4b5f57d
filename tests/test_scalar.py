import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blocklanczos import block, nonhermitian, scalar, spinchain as sc

from reference_values import (
    HEISENBERG2_ALPHA,
    HEISENBERG2_BETA,
    HEISENBERG2_GROUND_ENERGY,
)


def tridiagonal_table(alphas, betas):
    """The width-1 Hermitian ``scalar.BlockCoefficients`` of a tridiagonal
    matrix: one 1x1 block per entry."""
    return scalar.BlockCoefficients(np.reshape(alphas, (-1, 1, 1)),
                                    np.reshape(betas, (-1, 1, 1)))


def tridiagonal_matrix(alphas, betas):
    """Dense symmetric tridiagonal matrix, assembled with ``np.diag`` and
    independent of ``block.assemble_block_tridiagonal``."""
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


class TestTridiagonalCoefficients:
    """The width-1 Hermitian table of ``scalar.BlockCoefficients``, whose
    read-only ``alphas`` and ``betas`` feed the tridiagonal eigensolve."""

    def test_length_validation(self):
        with pytest.raises(ValueError, match="expected 1 coupling blocks"):
            tridiagonal_table(np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="at least one diagonal block"):
            tridiagonal_table(np.array([]), np.array([]))

    def test_matrix_assembly(self):
        c = tridiagonal_table(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
        expected = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 3.0]])
        assert np.array_equal(block.assemble_block_tridiagonal(c), expected)
        assert np.array_equal(tridiagonal_matrix(c.alphas, c.betas), expected)

    def test_prefix(self):
        c = tridiagonal_table(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
        p = c.prefix(1)
        assert np.array_equal(p.alphas, [1.0, 2.0])
        assert np.array_equal(p.betas, [0.5])
        with pytest.raises(ValueError):
            c.prefix(3)

    def test_views_are_read_only_float64(self):
        c = tridiagonal_table(np.array([1.0, 2.0]) + 0j, np.array([0.5]) + 0j)
        for view in (c.alphas, c.betas):
            assert view.dtype == np.float64 and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.alphas[0] = 5.0

    @pytest.mark.parametrize("table, kind", [
        (scalar.BlockCoefficients((np.eye(2),), ()), "a Hermitian one of widths"),
        (scalar.BlockCoefficients(np.ones((2, 1, 1)), (np.eye(1),), (np.eye(1),)),
         "a general one of widths"),
        # [[0, -i], [i, 0]] has eigenvalues -1 and 1; real parts would give 0, 0
        (tridiagonal_table([0.0, 0.0], [1j]), "a Hermitian one of widths"),
    ], ids=["width-2", "general", "complex-coupling"])
    def test_views_refused_for_other_tables(self, table, kind):
        for name in ("alphas", "betas"):
            with pytest.raises(ValueError, match=f"real couplings, not {kind}"):
                getattr(table, name)
        with pytest.raises(ValueError, match="width-1 Hermitian table"):
            scalar.ritz_values(table)


def test_table_construction_leaves_no_memory_behind():
    """Tables of 2-18 blocks, built and read as the noise sweep does, keep
    CPython's allocated-block count flat. Tuples built from generators of
    these lengths grew it by about 26000 blocks over 20000 tables, as the
    per-size tuple free lists filled up."""
    eye = np.eye(2)
    blocks = [eye] * 18

    def build(tables):
        for i in range(tables):
            n = 2 + i % 17
            table = scalar.BlockCoefficients(tuple(blocks[:n]), tuple(blocks[:n - 1]))
            table.widths, table.upper_blocks

    build(50)  # warm-up: first-use caches
    before = sys.getallocatedblocks()
    build(20000)
    assert sys.getallocatedblocks() - before <= 50


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
        off = h_in_basis - tridiagonal_matrix(coeffs.alphas, coeffs.betas)
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
        coeffs = tridiagonal_table(np.array([-0.25, -0.25]), np.array([0.5]))
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        assert values == pytest.approx([-0.75, 0.25], abs=1e-12)
        ground = vectors[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        sign = np.sign(ground[0]) or 1.0
        assert sign * ground == pytest.approx(expected, abs=1e-12)

    def test_single_entry(self):
        values, vectors = scalar.tridiagonal_eigensolve(
            tridiagonal_table(np.array([1.75]), np.array([]))
        )
        assert np.array_equal(values, [1.75])
        assert np.array_equal(vectors, [[1.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        coeffs = tridiagonal_table(rng.standard_normal(8), np.abs(rng.standard_normal(7)))
        values, vectors = scalar.tridiagonal_eigensolve(coeffs)
        dense_vals = np.linalg.eigvalsh(tridiagonal_matrix(coeffs.alphas, coeffs.betas))
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


def textbook_lanczos_full(spec, start, max_iter):
    """Reference three-term recursion: one vector per step, full
    reorthogonalization by the DGKS rule (a second pass only when the first
    shrinks the vector below 1/sqrt(2) of its norm), breakdown at a residual
    norm of at most 1e-10 times the norm bound, Krylov vectors as the rows
    of one buffer. Returns (alphas, betas, basis) with the vectors as basis
    columns."""
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
        if beta <= 1e-10 * spec.norm_bound:
            break
        betas.append(beta)
        basis[n + 1] = w / beta
    return np.array(alphas), np.array(betas), basis[: len(alphas)].T


EPS = np.finfo(float).eps


def textbook_lanczos(spec, start, max_iter):
    """The same recursion kept semi-orthogonal (Simon's partial
    reorthogonalization): from step 2 on each vector is projected against
    the previous two only, unless the estimate omega[k] of its overlap with
    an older vector k exceeds sqrt(eps) in magnitude; then it, and the
    vector after it, are projected against the whole basis. omega follows
    Simon's signed recurrence,

        t = (alpha_k - alpha_n) omega[k] + beta_{k-1} omega[k-1]
            + beta_k omega[k+1] - beta_{n-1} omega_prev[k]
        omega_new[k] = (t + eps * norm_bound * sign(t)) / |w|

    with sign(t) the phase t/|t| (1 for t = 0) and |w| the norm of the
    vector before any projection. The new vector's omega is eps for the two
    vectors it was projected against after a windowed step, and its
    measured overlaps with every stored vector after a whole-basis step from
    step 2 on (eps for all at steps 0 and 1). A zero |w| ends the estimate:
    full passes from then on. Returns (alphas, betas, basis) as
    textbook_lanczos_full does, and the steps from 2 on that projected
    against the whole basis."""
    dim = spec.dim
    cap = min(max_iter + 1, dim)
    basis = np.empty((cap, dim), dtype=start.dtype)
    basis[0] = start
    alphas, betas = [], []
    omega_prev, omega = [], []  # overlaps of vectors n - 1 and n with older ones
    estimating, after_trigger = True, False
    full = []
    for n in range(cap):
        hv = sc.apply_to_array(spec, basis[n])
        alphas.append(float(np.real(np.vdot(basis[n], hv))))
        if n == max_iter or n + 1 == dim:
            break
        w = hv - alphas[n] * basis[n]
        if n > 0:
            w -= betas[n - 1] * basis[n - 1]
        norm = np.linalg.norm(w)
        estimating = estimating and norm > 0.0
        lo, new = 0, None
        if n >= 2 and estimating and not after_trigger:
            new = []
            for k in range(n - 1):
                t = ((alphas[k] - alphas[n]) * omega[k] + betas[k] * omega[k + 1]
                     - betas[n - 1] * omega_prev[k])
                if k:
                    t += betas[k - 1] * omega[k - 1]
                t += EPS * spec.norm_bound * (t / abs(t) if t else 1.0)
                new.append(t / norm)
            if max(abs(x) for x in new) <= np.sqrt(EPS):
                lo = n - 1
            else:
                after_trigger = True
        else:
            after_trigger = False
        if n >= 2 and lo == 0:
            full.append(n)
        rows = basis[lo : n + 1]
        w -= rows.T @ (rows.conj() @ w)
        if np.linalg.norm(w) < norm / np.sqrt(2.0):
            w -= rows.T @ (rows.conj() @ w)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-10 * spec.norm_bound:
            break
        betas.append(beta)
        basis[n + 1] = w / beta
        omega_prev = omega
        if lo:
            omega = new + [EPS, EPS]
        elif n >= 2:
            omega = list(basis[: n + 1].conj() @ basis[n + 1])
        else:
            omega = [EPS] * (n + 1)
    return np.array(alphas), np.array(betas), basis[: len(alphas)].T, full


class TestTextbookReference:
    @staticmethod
    def chains(length, complex_start):
        """Three budgeted runs on random chains of ``length`` sites."""
        rng = np.random.default_rng(1000 + length)
        for _ in range(3):
            spec = sc.build_xxz(length, rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
            start = sc.random_state_vector(length, rng, complex_amplitudes=complex_start)
            yield spec, start, min(16, spec.dim // 2)

    @pytest.mark.parametrize("complex_start", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("length", range(3, 9))
    def test_run_matches_textbook_recursion(self, length, complex_start):
        # budgeted runs: two formulations of one recursion agree to
        # round-off only until a Ritz value converges (see criterion 6)
        for spec, start, max_iter in self.chains(length, complex_start):
            alphas, betas, basis, _ = textbook_lanczos(spec, start, max_iter)
            coeffs, got_basis = scalar.lanczos_run(spec, start, max_iter)
            bound = 1e-12 * spec.norm_bound
            assert coeffs.alphas.shape == alphas.shape
            assert coeffs.betas.shape == betas.shape
            assert np.max(np.abs(coeffs.alphas - alphas)) <= bound
            assert np.max(np.abs(coeffs.betas - betas), initial=0.0) <= bound
            assert got_basis.dtype == basis.dtype
            assert np.max(np.abs(got_basis - basis)) <= 1e-12

    def test_lowest_ritz_value_matches_full_reorthogonalization(self):
        # Near breakdown (a last beta of 7e-9 to 5e-8 at length 5) the last
        # vector is dominated by round-off, so the semi-orthogonal run and
        # the full reference differ in it, and in the spurious Ritz value it
        # carries by up to 3.6e-2 of the norm bound; the lowest value agrees.
        runs = (run for length in range(3, 9) for complex_start in (False, True)
                for run in self.chains(length, complex_start))
        for spec, start, max_iter in runs:
            alphas, betas, _ = textbook_lanczos_full(spec, start, max_iter)
            want = scalar.ritz_values(tridiagonal_table(alphas, betas))
            coeffs, _ = scalar.lanczos_run(spec, start, max_iter)
            got = scalar.ritz_values(coeffs)
            assert abs(got[0] - want[0]) <= 1e-12 * spec.norm_bound


class TestOverflowRefused:
    """A chain with a finite norm bound can still overflow the recursion;
    the non-finite block is refused by the chain and the step."""

    @pytest.mark.parametrize("spec, fragment", [
        (sc.HamiltonianSpec(2, (), 1.5e308), "at step 0: its diagonal block"),
        (sc.build_xxz(2, 1e308, 0.0), "at step 1: its coupling block"),
    ], ids=["diagonal", "coupling"])
    @pytest.mark.parametrize("width", [1, 2])
    def test_non_finite_block_refused(self, spec, fragment, width):
        start = block.random_orthonormal_block(2, width, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"2-site chain overflowed {fragment}"):
            if width == 1:
                scalar.lanczos_run(spec, start[:, 0], 3)
            else:
                block.block_lanczos_run(spec, start, 3)


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
        residual = np.ascontiguousarray(residual.T)  # the body's (width, dim) rows
        calls = self.count_passes(monkeypatch)
        scalar._reorthogonalize(
            residual, rows.conj(), rows, scalar._row_norms_sq(residual))
        assert calls == [hi, hi]
        overlap = np.abs(rows.conj() @ residual.T).max(axis=0)
        norms = np.linalg.norm(residual, axis=1)
        assert np.all(overlap <= 8 * np.finfo(float).eps * norms)


class TestThinProducts:
    """The step loop's thin block products: the in-place multi-row update
    and the panelled inner product."""

    @staticmethod
    def draw(rng, shape, complex_entries):
        m = rng.standard_normal(shape)
        return m + 1j * rng.standard_normal(shape) if complex_entries else m

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("depth", [1, 2, 5])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_update_matches_numpy(self, width, depth, complex_entries):
        rng = np.random.default_rng(10 * width + depth)
        dim, hi = 1000, depth * width
        out = self.draw(rng, (width, dim), complex_entries)
        coef = self.draw(rng, (width, hi), complex_entries)
        rows = self.draw(rng, (hi, dim), complex_entries)
        want = out - coef @ rows
        scalar._subtract_product(out, coef, rows)
        # the a-priori bound of a length-hi dot product, plus the subtraction
        bound = (hi + 1) * EPS * (np.abs(want) + np.abs(coef) @ np.abs(rows))
        assert np.all(np.abs(out - want) <= bound)

    @pytest.mark.parametrize("fault", ["fortran", "read-only", "float32"])
    def test_update_refuses_out_it_would_copy(self, fault):
        # f2py would update a copy of such an out and leave out as it was
        rng = np.random.default_rng(11)
        out = rng.standard_normal((3, 500))
        coef, rows = rng.standard_normal((3, 6)), rng.standard_normal((6, 500))
        if fault == "fortran":
            out = np.asfortranarray(out)  # its transpose is C-ordered
        elif fault == "read-only":
            out.flags.writeable = False
        else:
            out = out.astype(np.float32)
        before = out.copy()
        with pytest.raises(ValueError, match="cannot update"):
            scalar._subtract_product(out, coef, rows)
        assert np.array_equal(out, before)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (8, 4), (2, 4)],
                             ids=["3x3", "4x4", "8x4", "2x4"])
    def test_inner_matches_plain_product(self, shape, complex_entries):
        rng = np.random.default_rng(12)
        dim = 3 * scalar._PANEL + 123  # panelled, and not a multiple of a panel
        x = self.draw(rng, (shape[0], dim), complex_entries)
        y = self.draw(rng, (shape[1], dim), complex_entries)
        want = x @ y.T
        got = scalar._inner(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 2 * dim * EPS * (np.abs(x) @ np.abs(y).T))


def count_steps(monkeypatch):
    """Per expansion of the Hermitian body, the row counts of its
    Gram-Schmidt passes: each operator application opens a new entry."""
    steps = []
    project, apply = scalar._project_out, sc.apply_to_array

    def counting_project(residual, dual, stack):
        steps[-1].append(stack.shape[0])
        project(residual, dual, stack)

    def counting_apply(spec, psi):
        steps.append([])
        return apply(spec, psi)

    monkeypatch.setattr(scalar, "_project_out", counting_project)
    monkeypatch.setattr(scalar.spinchain, "apply_to_array", counting_apply)
    return steps


class TestSemiOrthogonality:
    """From step 2 on the Hermitian body projects each residual against the
    last two blocks only, and against the whole basis when the signed
    overlap estimate crosses sqrt(eps) and on the step after."""

    def test_pass_schedule(self, monkeypatch):
        spec = sc.build_xxz(12, 1.0, 1.0)
        start = sc.random_state_vector(12, np.random.default_rng(12))
        steps = count_steps(monkeypatch)
        coeffs, basis = scalar.lanczos_run(spec, start, max_iter=80)
        assert coeffs.iterations == 80
        assert steps.pop() == []  # the last application only closes the table
        # one pass per expansion; the DGKS second pass never fires here
        assert [len(passes) for passes in steps] == [1] * 80
        rows = [passes[0] for passes in steps]
        assert rows[:2] == [1, 2]  # steps 0 and 1: the whole basis
        full = [n for n in range(2, 80) if rows[n] == n + 1]
        assert all(rows[n] == 2 for n in range(2, 80) if n not in full)
        assert full  # the run is long enough to trigger
        assert full == textbook_lanczos(spec, start, 80)[3]
        # a trigger forces a full pass on the next step, which is never a
        # trigger itself, so the full steps parse as triggers and forced steps
        forced = False
        for n in range(2, 80):
            if forced:
                assert n in full
                forced = False
            else:
                forced = n in full
        defect = np.max(np.abs(basis.T @ basis - np.eye(81)))
        assert defect <= np.sqrt(EPS)

    def test_deflated_run_takes_full_passes(self, monkeypatch):
        # one start column is an exact eigenvector: the block narrows at
        # step 0, and every later step projects against the whole basis
        spec = sc.build_xxz(4, 1.0, 1.0)
        g = sc.exact_diagonalize(spec)[1][:, 0]
        r = np.random.default_rng(2).standard_normal(16)
        r -= (g @ r) * g
        start = np.column_stack([g, r / np.linalg.norm(r)])
        steps = count_steps(monkeypatch)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter=20)
        assert coeffs.widths[:2] == (2, 1)
        stored = np.cumsum(coeffs.widths)
        for n, passes in enumerate(steps[: coeffs.iterations]):
            assert passes and set(passes) == {stored[n]}

    @given(st.integers(7, 8), st.integers(1, 4), st.integers(56, 70),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_semi_orthogonal_basis_keeps_lowest_ritz_values(
            self, length, width, max_iter, complex_start, seed):
        # long enough for the signed estimate to trigger (it first did at
        # steps 17-52 in 60-400 seeds per width), short of saturation
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        max_iter = min(max_iter, spec.dim // width - 1)
        start = block.random_orthonormal_block(
            length, width, rng, complex_amplitudes=complex_start)
        with pytest.MonkeyPatch.context() as patch:
            steps = count_steps(patch)
            coeffs, basis = block.block_lanczos_run(spec, start, max_iter)
        assert coeffs.widths == (width,) * (max_iter + 1)
        assert any(max(steps[n]) > 2 * width for n in range(2, max_iter))  # a trigger
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= np.sqrt(EPS)
        want = full_block_ritz_values(spec, start, max_iter)
        got = block.block_ritz_values(coeffs)
        assert np.max(np.abs(got[:width] - want[:width])) <= 1e-12 * spec.norm_bound


def full_block_ritz_values(spec, start, max_iter):
    """Reference Ritz values: Rayleigh-Ritz on the block Krylov space of
    ``start`` after ``max_iter`` expansions, each new block projected twice
    against every stored vector and orthonormalized by QR."""
    q = [start]
    for _ in range(max_iter):
        basis = np.column_stack(q)
        w = sc.apply_to_array(spec, q[-1])
        for _ in range(2):
            w -= basis @ (basis.conj().T @ w)
        q.append(np.linalg.qr(w)[0])
    basis = np.column_stack(q)
    return np.linalg.eigvalsh(basis.conj().T @ sc.apply_to_array(spec, basis))


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
        bound = 1e-12 * spec.norm_bound
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

    @staticmethod
    def block_run(solver, spec, start, max_iter):
        """Coefficient blocks of a block run, or of a two-sided run on the
        chain from the pair (start, conj(start)); a serious breakdown (a
        nearly degenerate chain can cause one) gives its iteration instead."""
        if solver == "block":
            coeffs, _ = block.block_lanczos_run(spec, start, max_iter)
            return coeffs.a_blocks, coeffs.b_blocks
        op = nonhermitian.GeneralOperator.from_hamiltonian(spec)
        try:
            coeffs, _ = nonhermitian.two_sided_block_run(
                op, start, start.conj(), max_iter)
        except nonhermitian.SeriousBreakdownError as err:
            return err.iteration
        return coeffs.a_blocks, coeffs.b_blocks, coeffs.c_blocks

    @staticmethod
    def assert_same_blocks(got, want, spec, solver):
        if isinstance(want, int):  # a breakdown, at the same iteration
            assert got == want
            return
        # The two-sided run splits each pair Gram matrix W = C B by an SVD,
        # which resolves W only to round-off times its norm, so a symmetry
        # moves its coefficients by up to round-off times cond(W); the
        # triangular Hermitian factor needs no such factor.
        growth = 1.0 if solver == "block" else max(
            (np.linalg.cond(c @ b) for b, c in zip(want[1], want[2])), default=1.0)
        bound = 1e-12 * spec.norm_bound * growth
        for got_blocks, want_blocks in zip(got, want, strict=True):
            assert [m.shape for m in got_blocks] == [m.shape for m in want_blocks]
            for g, w in zip(got_blocks, want_blocks):
                assert np.max(np.abs(g - w)) <= bound

    @staticmethod
    def block_start(solver, length, rng, complex_start):
        width = 3 if solver == "block" else 2
        return block.random_orthonormal_block(
            length, width, rng, complex_amplitudes=complex_start)

    @pytest.mark.parametrize("solver", ["block", "two-sided"])
    @given(*CHAINS)
    def test_block_global_spin_flip_of_start(self, solver, length, seed,
                                             max_iter, complex_start):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        start = self.block_start(solver, length, rng, complex_start)
        want = self.block_run(solver, spec, start, max_iter)
        got = self.block_run(solver, spec, start[::-1], max_iter)
        self.assert_same_blocks(got, want, spec, solver)

    @pytest.mark.parametrize("solver", ["block", "two-sided"])
    @given(*CHAINS)
    def test_block_term_order(self, solver, length, seed, max_iter, complex_start):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        order = rng.permutation(len(spec.terms))
        shuffled = sc.HamiltonianSpec(
            length, tuple(spec.terms[k] for k in order), spec.constant)
        start = self.block_start(solver, length, rng, complex_start)
        want = self.block_run(solver, spec, start, max_iter)
        got = self.block_run(solver, shuffled, start, max_iter)
        self.assert_same_blocks(got, want, spec, solver)


def scaled_chain(spec, m):
    """``spec`` with every coefficient and the constant times 2**m."""
    factor = 2.0**m
    terms = tuple(sc.CouplingTerm(t.kind, t.site, factor * t.coefficient)
                  for t in spec.terms)
    return sc.HamiltonianSpec(spec.length, terms, factor * spec.constant)


class TestPowerOfTwoScaling:
    """Scaling every coefficient and the constant by 2**m is exact in binary,
    and every tolerance is relative to the norm bound, so a run to
    saturation stops at the same step with the same widths, and its
    projected matrix and Ritz values scale by 2**m bit for bit."""

    CHAINS = {
        "heisenberg": sc.HamiltonianSpec(5, sc.build_xxz(5, 1.0, 1.0).terms, 0.75),
        "random": random_xxz_chain(5, np.random.default_rng(5)),
    }

    @staticmethod
    def saturating_run(solver, spec):
        """(iterations, widths, projected matrix, Ritz values) of a run with
        a budget of ``spec.dim`` expansions from a fixed random start."""
        rng = np.random.default_rng(5)
        if solver == "scalar":
            start = sc.random_state_vector(spec.length, rng)
            coeffs, _ = scalar.lanczos_run(spec, start, spec.dim)
            return (coeffs.iterations, coeffs.widths,
                    tridiagonal_matrix(coeffs.alphas, coeffs.betas),
                    scalar.ritz_values(coeffs))
        if solver == "block":
            start = block.random_orthonormal_block(spec.length, 3, rng)
            coeffs, _ = block.block_lanczos_run(spec, start, spec.dim)
            return (coeffs.iterations, coeffs.widths,
                    block.assemble_block_tridiagonal(coeffs),
                    block.block_ritz_values(coeffs))
        right, left = nonhermitian.paired_random_start(spec.dim, 2, rng)
        op = nonhermitian.GeneralOperator.from_hamiltonian(spec)
        coeffs, _ = nonhermitian.two_sided_block_run(op, right, left, spec.dim)
        # no Ritz values: LAPACK's dense eigvals(2**m T) differs from
        # 2**m eigvals(T) at round-off, so only T itself is exact
        return (coeffs.iterations, coeffs.widths,
                block.assemble_block_tridiagonal(coeffs), None)

    @pytest.mark.parametrize("m", [-30, 20])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("solver", ["scalar", "block", "two-sided"])
    def test_run_scales_bit_for_bit(self, solver, chain, m):
        spec = self.CHAINS[chain]
        iters, widths, projected, ritz = self.saturating_run(solver, spec)
        got = self.saturating_run(solver, scaled_chain(spec, m))
        assert got[0] == iters
        assert got[1] == widths
        assert np.array_equal(got[2], 2.0**m * projected)
        if ritz is not None:
            assert np.array_equal(got[3], 2.0**m * ritz)

    @pytest.mark.parametrize("solver", ["scalar", "block", "two-sided"])
    def test_zero_chain_ends_after_step_0(self, solver):
        iters, _, projected, _ = self.saturating_run(solver, sc.HamiltonianSpec(4))
        assert iters == 0
        assert not projected.any()

    def test_zero_matrix_ends_after_step_0(self):
        op = nonhermitian.GeneralOperator.from_matrix(np.zeros((8, 8)))
        assert op.scale == 0.0
        right, left = nonhermitian.paired_random_start(8, 2, np.random.default_rng(0))
        coeffs, (lefts, rights) = nonhermitian.two_sided_block_run(op, right, left, 8)
        assert coeffs.iterations == 0
        assert not block.assemble_block_tridiagonal(coeffs).any()
        assert rights.shape == (8, 2)
