import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

from blocklanczos import block, nonhermitian, scalar, spinchain as sc
from test_scalar import EPS, count_steps, random_xxz_chain, tridiagonal_matrix


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

    @pytest.mark.parametrize("front_end", ["scalar", "block", "two-sided"])
    @pytest.mark.parametrize("fault, message", [
        ("max_iter", r"max_iter must be >= 1, got 0"),
        ("shape", r"starts must be equal-shape \(dimension x width\) arrays of "
                  r"dimension 64 and width >= 1, got shapes \(32, 1\)"),
    ], ids=["max_iter", "shape"])
    def test_front_ends_share_the_run_refusals(self, monkeypatch, front_end, fault,
                                               message):
        # one start check and one step loop refuse for every front end,
        # before any operator product
        calls = []
        monkeypatch.setattr(sc, "apply_to_array", lambda *args: calls.append(args))
        monkeypatch.setattr(nonhermitian, "apply_to_array", lambda *args: calls.append(args))
        spec = heisenberg(6)
        v = sc.random_state_vector(6 if fault == "max_iter" else 5,
                                   np.random.default_rng(4))
        max_iter = 0 if fault == "max_iter" else 2
        op = nonhermitian.GeneralOperator.from_hamiltonian(spec)
        run = {"scalar": lambda: scalar.lanczos_run(spec, v, max_iter),
               "block": lambda: block.block_lanczos_run(spec, v[:, None], max_iter),
               "two-sided": lambda: nonhermitian.two_sided_block_run(
                   op, v[:, None], v[:, None], max_iter)}[front_end]
        with pytest.raises(ValueError, match=message):
            run()
        assert calls == []


class TestBlockCoefficients:
    def test_hermiticity_validated(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            scalar.BlockCoefficients((bad,), ())
        # skew above 1e-12 is refused: the assembly copies A blocks verbatim
        slight = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            scalar.BlockCoefficients((slight,), ())

    def test_non_finite_entries_refused(self):
        # a NaN or inf entry makes the skew NaN, which the bound must refuse
        for bad in (np.array([[0.0, np.nan], [1.0, 0.0]]), np.diag([np.inf, 0.0])):
            with pytest.raises(ValueError,
                               match="diagonal block 0 has a non-finite entry"):
                scalar.BlockCoefficients((bad,), ())
        eye = np.eye(2)
        inf_b = np.array([[1.0, -np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError,
                           match="coupling block 1 has a non-finite entry"):
            scalar.BlockCoefficients((eye, eye, eye), (eye, inf_b))

    def test_shape_consistency(self):
        a0 = np.eye(2)
        a1 = np.eye(2)
        wrong = np.ones((3, 3))
        with pytest.raises(ValueError, match="shape"):
            scalar.BlockCoefficients((a0, a1), (wrong,))

    def test_length_consistency(self):
        with pytest.raises(ValueError):
            scalar.BlockCoefficients((np.eye(2),), (np.eye(2),))

    def test_ragged_widths_allowed(self):
        a0 = np.eye(3)
        a1 = np.eye(2)
        b1 = np.ones((2, 3))
        c = scalar.BlockCoefficients((a0, a1), (b1,))
        assert c.widths == (3, 2)
        assert c.dimension == 5

    def test_prefix(self):
        a = tuple(np.eye(2) * k for k in range(4))
        b = tuple(np.eye(2) * 0.1 for _ in range(3))
        c = scalar.BlockCoefficients(a, b)
        p = c.prefix(1)
        assert len(p.a_blocks) == 2 and len(p.b_blocks) == 1


class TestBlockLanczosRun:
    def test_scalar_reduction(self):
        # d = 1 is the scalar recursion: one body, the same table bit for bit
        rng = np.random.default_rng(12)
        spec = sc.build_xxz(6, 1.0, 0.8)
        for complex_start in (False, True):
            v = sc.random_state_vector(6, rng, complex_amplitudes=complex_start)
            coeffs_s, basis_s = scalar.lanczos_run(spec, v, max_iter=20)
            coeffs_b, basis_b = block.block_lanczos_run(spec, v[:, None], max_iter=20)
            for got, want in ((coeffs_b.a_blocks, coeffs_s.a_blocks),
                              (coeffs_b.b_blocks, coeffs_s.b_blocks)):
                assert len(got) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert basis_b.dtype == basis_s.dtype
            assert np.array_equal(basis_b, basis_s)

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


def start_layouts(start):
    """``start`` as C-ordered, F-ordered and strided arrays and as a view of
    the rows of a larger buffer, all holding the same values."""
    if start.ndim == 1:
        yield "C", np.ascontiguousarray(start)
        wide = np.zeros(2 * start.size, dtype=start.dtype)
        wide[::2] = start
        yield "strided", wide[::2]
        rows = np.zeros((3, start.size), dtype=start.dtype)
        rows[1] = start
        yield "row-buffer", rows[1]
        return
    yield "C", np.ascontiguousarray(start)
    yield "F", np.asfortranarray(start)
    rows = np.zeros((start.shape[1] + 2, start.shape[0]), dtype=start.dtype)
    rows[1 : start.shape[1] + 1] = start.T
    yield "row-buffer-T", rows[1 : start.shape[1] + 1].T


class TestStartLayout:
    """The body copies its start into the rows of its basis and keeps every
    block row-major from there on, so the start's layout changes no bit."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("complex_start", [False, True], ids=["real", "complex"])
    def test_same_bits_from_every_start_layout(self, width, complex_start):
        rng = np.random.default_rng(40 + width)
        spec = random_xxz_chain(6, rng)
        q = block.random_orthonormal_block(6, width, rng, complex_amplitudes=complex_start)
        runs = {name: block.block_lanczos_run(spec, start, max_iter=12)
                for name, start in start_layouts(q)}
        if width == 1:
            runs.update((f"scalar-{name}", scalar.lanczos_run(spec, start, max_iter=12))
                        for name, start in start_layouts(q[:, 0]))
        want, want_basis = runs.pop("C")
        assert want.iterations == 12
        for name, (coeffs, basis) in runs.items():
            for got_blocks, want_blocks in ((coeffs.a_blocks, want.a_blocks),
                                            (coeffs.b_blocks, want.b_blocks)):
                assert len(got_blocks) == len(want_blocks), name
                assert all(np.array_equal(g, w) for g, w in zip(got_blocks, want_blocks)), name
            assert basis.dtype == want_basis.dtype and np.array_equal(basis, want_basis), name


class TestGauge:
    """The runs' coupling gauge: the sign of an off-diagonal entry leaves the
    eigenvalues unchanged, so no table refuses a negative one, and the runs
    fix it themselves."""

    @given(st.integers(2, 7), st.integers(1, 3), st.integers(1, 12),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_couplings_are_echelon_with_non_negative_leading_entries(
            self, length, width, max_iter, complex_start, seed):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        start = block.random_orthonormal_block(
            length, width, rng, complex_amplitudes=complex_start)
        coeffs, _ = scalar.lanczos_run(spec, start[:, 0], max_iter)
        assert np.all(coeffs.betas >= 0.0)
        assert not any(np.imag(b).any() for b in coeffs.b_blocks)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter)
        for b in coeffs.b_blocks:
            assert not np.tril(b, -1).any()  # upper trapezoidal
            leading = b[np.arange(b.shape[0]), np.argmax(b != 0.0, axis=1)]
            assert not np.imag(leading).any()
            assert np.all(np.real(leading) > 0.0)


def textbook_block_lanczos(spec, start, max_iter, measured=None):
    """Reference Hermitian block run, kept semi-orthogonal, with the Krylov
    blocks in a list and the overlap estimates in a dict of (w, w) blocks
    keyed (k, j) for block k's overlap with block j. Steps 0 and 1 project
    the residual against every stored block; later steps against the last
    two only, unless an estimate exceeds sqrt(eps) in magnitude; then that
    step and the next take every block. The estimates follow Simon's signed
    omega recurrence in block form:

        t = A_k om[k, n] + B_{k-1} om[k-1, n] + B_k^H om[k+1, n]
            - om[k, n] A_n - om[k, n-1] B_{n-1}^H
        om[k, n+1] = (t + eps scale phase(t)) R^-1

    with phase(t) the entrywise t/|t| (1 where t = 0) and R the upper
    Cholesky factor of the unprojected residual's Gram matrix. A new block's
    om is eps with the blocks it was projected against after a windowed
    step, its measured overlaps Q_k^H Q_{n+1} with every block after a
    whole-basis step from step 2 on, and eps with every block at steps 0
    and 1. ``measured``, when given, maps a step to another run's measured
    overlaps, a ((n + 1) w, w) stack, which then stand in for this run's own
    product: both are of round-off size, and their bits differ between two
    implementations. The estimates stop for good at a deflated block or a
    Gram matrix that is not positive definite. One classical Gram-Schmidt pass, a second
    by the DGKS rule; the new block is the column-by-column Gram-Schmidt
    factor of the residual, a column whose remainder has norm at most 1e-10
    times the norm bound deflating. Returns the full steps from step 2 on,
    each block's width and, per step that computed them, the estimates as
    an (n - 1, w, w) stack."""
    scale = spec.norm_bound
    dim, width = start.shape
    q, a_s, b_s, om = [start], [], [], {}
    full, computed, forced, estimating = [], {}, False, True
    for n in range(max_iter + 1):
        h_q = sc.apply_to_array(spec, q[n])
        a = q[n].conj().T @ h_q
        a_s.append((a + a.conj().T) / 2)
        if n == max_iter or sum(m.shape[1] for m in q) >= dim:
            break
        r = h_q - q[n] @ a_s[n]
        if n > 0:
            r -= q[n - 1] @ b_s[n - 1].conj().T
        first, new = 0, None
        if n >= 2 and estimating and not forced:
            try:
                upper = sla.cholesky(r.conj().T @ r)
            except np.linalg.LinAlgError:
                estimating = False
            else:
                inverse = sla.solve_triangular(upper, np.eye(width))
                new = []
                for k in range(n - 1):
                    t = (a_s[k] @ om[k, n] - om[k, n] @ a_s[n]
                         + b_s[k].conj().T @ om[k + 1, n]
                         - om[k, n - 1] @ b_s[n - 1].conj().T)
                    if k > 0:
                        t += b_s[k - 1] @ om[k - 1, n]
                    size = np.abs(t)
                    phase = np.divide(t, size, out=np.ones_like(t), where=size > 0)
                    new.append((t + EPS * scale * phase) @ inverse)
                computed[n] = np.array(new)
                if np.max(np.abs(new)) <= np.sqrt(EPS):
                    first = n - 1
                else:
                    forced = True
        elif forced:
            forced = False
        if n >= 2 and first == 0:
            full.append(n)
        kept = np.hstack(q[first:])
        before = np.linalg.norm(r, axis=0)
        r -= kept @ (kept.conj().T @ r)
        if np.any(np.linalg.norm(r, axis=0) < before / np.sqrt(2.0)):
            r -= kept @ (kept.conj().T @ r)
        cols, b = [], np.zeros((r.shape[1],) * 2, dtype=r.dtype)
        for j, v in enumerate(r.T):
            v = v.copy()
            for _ in range(2 if cols else 0):
                c = np.array([np.vdot(u, v) for u in cols])
                v -= np.column_stack(cols) @ c
                b[: len(cols), j] += c
            norm = np.linalg.norm(v)
            if norm > 1e-10 * scale:
                b[len(cols), j] = norm
                cols.append(v / norm)
        if not cols:
            break
        b_s.append(b[: len(cols)])
        q.append(np.column_stack(cols))
        estimating = estimating and len(cols) == width
        seed = (measured or {}).get(n)
        for k in range(n + 1):
            if n >= 2 and first == 0 and seed is not None:
                om[k, n + 1] = seed[k * width : (k + 1) * width]
            elif n >= 2 and first == 0:
                om[k, n + 1] = q[k].conj().T @ q[n + 1]
            elif k >= first:
                om[k, n + 1] = np.full((width, width), EPS)
            else:
                om[k, n + 1] = new[k]
    return full, tuple(m.shape[1] for m in q), computed


class TestHermitianEstimate:
    """The Hermitian recursion's signed overlap estimates and its
    window-or-full pass schedule at widths 2-4 follow the independent
    reference above, restarted after each whole-basis step from the
    overlaps the recursion measured."""

    @staticmethod
    def recorded_run(monkeypatch, spec, start, max_iter):
        """The run's table, its full steps from step 2 on, the estimates it
        propagated and the overlaps it measured, both keyed by step."""
        computed, measured = {}, {}
        propagate = scalar._OverlapEstimate.propagate
        advance = scalar._OverlapEstimate.advance

        def recording(estimate, n, a, inverse):
            computed[n] = propagate(estimate, n, a, inverse)
            return computed[n]

        def restarting(estimate, n, a, b, c, overlaps, new=None):
            if new is not None:
                measured[n] = new.copy()
            advance(estimate, n, a, b, c, overlaps, new)

        monkeypatch.setattr(scalar._OverlapEstimate, "propagate", recording)
        monkeypatch.setattr(scalar._OverlapEstimate, "advance", restarting)
        steps = count_steps(monkeypatch)
        coeffs, _ = block.block_lanczos_run(spec, start, max_iter)
        stored = np.cumsum(coeffs.widths)
        full = [n for n in range(2, coeffs.iterations) if steps[n][0] == stored[n]]
        assert all(steps[n][0] == 2 * start.shape[1]
                   for n in range(2, coeffs.iterations) if n not in full)
        return coeffs, full, computed, measured

    @pytest.mark.parametrize("length, width, seed, complex_start, max_iter", [
        (8, 2, 1, False, 40), (8, 3, 2, True, 40), (7, 4, 3, False, 30)])
    def test_bounds_and_schedule_match_reference(
            self, monkeypatch, length, width, seed, complex_start, max_iter):
        rng = np.random.default_rng(seed)
        spec = random_xxz_chain(length, rng)
        start = block.random_orthonormal_block(
            length, width, rng, complex_amplitudes=complex_start)
        coeffs, full, computed, measured = self.recorded_run(
            monkeypatch, spec, start, max_iter)
        want_full, want_widths, want = textbook_block_lanczos(
            spec, start, max_iter, measured)
        assert coeffs.widths == want_widths == (width,) * (max_iter + 1)
        assert 0 < len(full) < (max_iter - 2) // 2  # windowed and full steps mix
        assert full == want_full
        assert computed.keys() == want.keys()
        # the body measures after every whole-basis step but the last
        assert sorted(measured) == [n for n in full if n < max_iter - 1]
        for n, estimate in want.items():
            # two runs of one algorithm differ by round-off in the coefficients
            np.testing.assert_allclose(computed[n], estimate, rtol=1e-6)

    @pytest.mark.parametrize("width, complex_start", [(3, False), (4, True)])
    def test_panelled_products_match_reference(self, monkeypatch, width, complex_start):
        # at L = 15 (dim 2^15) the run's products between blocks of 3 or
        # more rows are summed over column panels
        rng = np.random.default_rng(15 + width)
        spec = random_xxz_chain(15, rng)
        assert spec.dim > scalar._PANEL
        start = block.random_orthonormal_block(
            15, width, rng, complex_amplitudes=complex_start)
        coeffs, full, computed, measured = self.recorded_run(monkeypatch, spec, start, 8)
        want_full, want_widths, want = textbook_block_lanczos(spec, start, 8, measured)
        assert coeffs.widths == want_widths == (width,) * 9
        assert full == want_full
        assert computed.keys() == want.keys() == set(range(2, 8))
        for n, estimate in want.items():
            np.testing.assert_allclose(computed[n], estimate, rtol=1e-6)

    def test_deflating_run_switches_the_estimate_off(self, monkeypatch):
        # the first start column lies in the 8-state one-magnon sector, which
        # the chain conserves: its Krylov space is exhausted after 8 vectors,
        # so block 8 narrows from 3 columns to 2 and every later step takes
        # the whole basis
        rng = np.random.default_rng(6)
        spec = random_xxz_chain(8, rng)
        raw = rng.standard_normal((spec.dim, 3))
        raw[[bin(i).count("1") != 1 for i in range(spec.dim)], 0] = 0.0
        start = np.linalg.qr(raw)[0]
        coeffs, full, computed, measured = self.recorded_run(
            monkeypatch, spec, start, 30)
        assert not measured  # the first whole-basis step is the deflating one
        want_full, want_widths, want = textbook_block_lanczos(spec, start, 30)
        assert coeffs.widths == want_widths == (3,) * 8 + (2,) * 23
        assert full == want_full == list(range(7, 30))
        assert computed.keys() == want.keys() == set(range(2, 8))
        for n in range(2, 7):
            np.testing.assert_allclose(computed[n], want[n], rtol=1e-6)
        # the deflating step's Gram matrix is singular to round-off, so its
        # estimate is round-off over round-off: only its verdict is compared
        assert np.abs(computed[7]).max() > np.sqrt(EPS)
        assert np.abs(want[7]).max() > np.sqrt(EPS)


class TestAssembly:
    def test_single_block(self):
        a0 = np.array([[1.0, 0.5], [0.5, 2.0]])
        mat = block.assemble_block_tridiagonal(scalar.BlockCoefficients((a0,), ()))
        assert np.array_equal(mat, a0)
        assert mat.shape == (2, 2)

    def test_scalar_assembly_matches_tridiagonal(self):
        rng = np.random.default_rng(3)
        spec = heisenberg(4)
        v = sc.random_state_vector(4, rng)
        coeffs_s, _ = scalar.lanczos_run(spec, v, max_iter=6)
        coeffs_b, _ = block.block_lanczos_run(spec, v[:, None], max_iter=6)
        assembled = block.assemble_block_tridiagonal(coeffs_b)
        want = tridiagonal_matrix(coeffs_s.alphas, coeffs_s.betas)
        assert np.max(np.abs(assembled - want)) < 1e-10

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
        coeffs = scalar.BlockCoefficients(tuple(a_blocks), tuple(b_blocks))
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
            scalar.BlockCoefficients((a0, a1), (b1,))
        )
        assert mat.shape == (5, 5)
        assert np.array_equal(mat[3:, :3], b1)
        assert np.array_equal(mat[:3, 3:], b1.T)


class TestEigensolveAndReconstruction:
    def test_identity_assembly(self):
        coeffs = scalar.BlockCoefficients((np.eye(2), np.eye(2)), (np.zeros((2, 2)),))
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
