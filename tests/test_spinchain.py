import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from blocklanczos import spinchain as sc

from reference_values import (
    HEISENBERG10_GROUND_ENERGY,
    XY10_GROUND_ENERGY,
)

# Single-site operators in basis order (down, up), for the reference assembly.
_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
_SZ = np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=np.complex128)
_ID2 = np.eye(2, dtype=np.complex128)


def kron_chain(length, site_ops):
    """Kronecker product over all sites, identity where no operator is given;
    site 0 varies fastest (least significant bit)."""
    mat = np.array([[1.0 + 0.0j]])
    for site in reversed(range(length)):
        mat = np.kron(mat, site_ops.get(site, _ID2))
    return mat


def per_site_dense_matrix(spec):
    """Reference assembly: one full L-site Kronecker chain per operator."""
    mat = spec.constant * np.eye(spec.dim, dtype=np.complex128)
    for term in spec.terms:
        i, j = term.site, term.site + 1
        if term.kind == sc.ZZ_KIND:
            mat += term.coefficient * kron_chain(spec.length, {i: _SZ, j: _SZ})
        else:
            mat += term.coefficient * (
                kron_chain(spec.length, {i: _SX, j: _SX})
                + kron_chain(spec.length, {i: _SY, j: _SY})
            )
    return mat


def bit_arithmetic_apply(spec, amps):
    """Reference kernel: per-term basis-index bit arithmetic and fancy indexing.

    Same order as the documented kernel: a diagonal made of the constant and
    then each ZZ weight in spec order, times the amplitudes, then the flip
    terms in spec order."""
    idx = np.arange(spec.dim, dtype=np.int64)
    diagonal = np.full(spec.dim, spec.constant)
    for term in spec.terms:
        i, j = term.site, term.site + 1
        if term.kind == sc.ZZ_KIND:
            zz = (((idx >> i) & 1) * 2 - 1) * (((idx >> j) & 1) * 2 - 1)
            diagonal += (0.25 * term.coefficient) * zz
    out = (diagonal[:, None] if amps.ndim == 2 else diagonal) * amps
    for term in spec.terms:
        i, j = term.site, term.site + 1
        if term.kind == sc.FLIP_KIND:
            differ = np.nonzero((((idx >> i) ^ (idx >> j)) & 1).astype(bool))[0]
            flipped = differ ^ ((1 << i) | (1 << j))
            # flipping is a bijection on `differ`, so no index repeats here
            out[flipped] += (0.5 * term.coefficient) * amps[differ]
    return out


def random_terms_spec(length, rng, constant):
    """Random kinds and sites (repeats allowed) in random order."""
    terms = tuple(
        sc.CouplingTerm(rng.choice(sc.TERM_KINDS), int(rng.integers(length - 1)),
                        rng.normal())
        for _ in range(int(rng.integers(0, 3 * length)) if length > 1 else 0)
    )
    return sc.HamiltonianSpec(length, terms, constant=constant)


def layouts(x, rng):
    """``x`` as C-ordered, F-ordered, transposed-row-buffer and strided arrays
    holding the same values."""
    yield "C", x
    if x.ndim == 1:
        wide = np.repeat(x, 2)
        yield "strided", wide[::2]
        return
    yield "F", np.asfortranarray(x)
    rows = np.empty((x.shape[1] + 3, x.shape[0]), dtype=x.dtype)
    rows[: x.shape[1]] = x.T
    yield "row-buffer-T", rows[: x.shape[1]].T  # as scalar.lanczos_run returns
    wide = rng.standard_normal((x.shape[0], 2 * x.shape[1])).astype(x.dtype)
    wide[:, ::2] = x
    yield "column-strided", wide[:, ::2]


def random_xxz(length, rng, j_z_scale=1.0):
    """Both bond kinds on every link with random-sign coefficients, shuffled,
    plus a nonzero constant."""
    terms = []
    for site in range(length - 1):
        for kind, scale in ((sc.FLIP_KIND, 1.0), (sc.ZZ_KIND, j_z_scale)):
            magnitude = scale * rng.uniform(0.1, 2.0)
            terms.append(sc.CouplingTerm(kind, site, rng.choice([-1.0, 1.0]) * magnitude))
    order = rng.permutation(len(terms))
    return sc.HamiltonianSpec(length, tuple(terms[k] for k in order),
                              constant=rng.uniform(-3.0, 3.0))


ORACLE_SPECS = {
    **{f"random-L{length}": random_xxz(length, np.random.default_rng(100 + length))
       for length in range(1, 11)},
    "random-L10-jz100": random_xxz(10, np.random.default_rng(7), j_z_scale=100.0),
    "xxz-L10-jz100": sc.build_xxz(10, 1.0, 100.0),
}


class TestStateVector:
    """States are plain ``(2**L,)`` arrays."""

    def test_shape_validation(self):
        spec = sc.build_xxz(3, 1.0, 1.0)
        assert sc.random_state_vector(3, np.random.default_rng(0)).shape == (8,)
        assert sc.ProductState.from_string("udu").to_state_vector().shape == (8,)
        with pytest.raises(ValueError, match="dimension 7"):
            sc.apply_to_array(spec, np.zeros(7))

    def test_dtype_coercion(self):
        # real unless complex amplitudes are requested: nothing is cast
        rng = np.random.default_rng(1)
        assert sc.random_state_vector(3, rng).dtype == np.float64
        assert sc.random_state_vector(3, rng, complex_amplitudes=True).dtype == np.complex128
        assert sc.ProductState.from_string("ud").to_state_vector().dtype == np.float64
        assert sc.ground_state(sc.build_xxz(4, 1.0, 1.0))[1].dtype == np.float64
        assert sc.exact_diagonalize(sc.build_xxz(2, 1.0, 1.0))[1].dtype == np.float64

    def test_normalized(self):
        rng = np.random.default_rng(2)
        for complex_amplitudes in (False, True):
            v = sc.random_state_vector(5, rng, complex_amplitudes=complex_amplitudes)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


class TestProductState:
    def test_pattern_parsing_and_index(self):
        p = sc.ProductState.from_string("ud")
        # site 0 = least significant bit, u = bit 1
        assert p.basis_index() == 1
        assert sc.ProductState.from_string("du").basis_index() == 2
        assert sc.ProductState.from_string("↑↓").pattern == ("u", "d")

    def test_single_amplitude(self):
        v = sc.ProductState.from_string("uudd").to_state_vector()
        nonzero = np.nonzero(v)[0]
        assert list(nonzero) == [0b0011]
        assert v[0b0011] == 1.0

    def test_bad_label(self):
        with pytest.raises(ValueError):
            sc.ProductState.from_string("ux")


class TestHamiltonianSpec:
    def test_build_xxz_term_counts(self):
        xy = sc.build_xxz(10, 1.0, 0.0)
        kinds = [t.kind for t in xy.terms]
        assert kinds.count(sc.FLIP_KIND) == 9
        assert kinds.count(sc.ZZ_KIND) == 0

        heis = sc.build_xxz(10, 1.0, 1.0)
        kinds = [t.kind for t in heis.terms]
        assert kinds.count(sc.FLIP_KIND) == 9
        assert kinds.count(sc.ZZ_KIND) == 9

    def test_build_xxz_size_error(self):
        with pytest.raises(ValueError):
            sc.build_xxz(1, 1.0, 1.0)

    def test_two_site_ising_eigenvalues(self):
        vals = sc.eigenvalues(sc.build_xxz(2, 0.0, 1.0))
        assert np.allclose(np.sort(vals), [-0.25, -0.25, 0.25, 0.25])

    def test_site_bound_validation(self):
        with pytest.raises(ValueError):
            sc.HamiltonianSpec(3, (sc.CouplingTerm(sc.ZZ_KIND, 2, 1.0),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sc.CouplingTerm("XYZ", 0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_refused(self, bad):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            sc.CouplingTerm(sc.ZZ_KIND, 0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constant_refused(self, bad):
        with pytest.raises(ValueError, match="constant must be finite"):
            sc.HamiltonianSpec(3, (), bad)

    def test_norm_bound(self):
        spec = sc.HamiltonianSpec(3, (
            sc.CouplingTerm(sc.FLIP_KIND, 0, 2.0),
            sc.CouplingTerm(sc.ZZ_KIND, 1, -4.0),
        ), constant=-1.5)
        assert spec.norm_bound == 1.5 + 0.5 * 2.0 + 0.25 * 4.0
        assert sc.HamiltonianSpec(3).norm_bound == 0.0
        assert np.max(np.abs(sc.eigenvalues(spec))) <= spec.norm_bound

    def test_overflowing_norm_bound_refused(self):
        spec = sc.build_xxz(5, 1e308, 0.0)  # each coefficient is finite
        with pytest.raises(ValueError, match="norm bound of the 5-site chain overflows"):
            spec.norm_bound

    def test_add_term_preserves_order(self):
        spec = sc.build_xxz(4, 1.0, 0.0)
        t = sc.CouplingTerm(sc.ZZ_KIND, 1, 0.5)
        grown = spec.add_term(t)
        assert grown.terms[:-1] == spec.terms
        assert grown.terms[-1] == t


class TestApplyHamiltonian:
    def test_polarized_state_is_eigenstate(self):
        spec = sc.build_xxz(10, 1.0, 1.0)
        up = sc.ProductState.from_string("u" * 10).to_state_vector()
        hv = sc.apply_to_array(spec, up)
        assert np.allclose(hv, 2.25 * up, atol=1e-14)

    def test_single_flip(self):
        spec = sc.build_xxz(2, 1.0, 0.0)
        updown = sc.ProductState.from_string("ud").to_state_vector()
        hv = sc.apply_to_array(spec, updown)
        expected = 0.5 * sc.ProductState.from_string("du").to_state_vector()
        assert np.allclose(hv, expected, atol=1e-14)

    def test_matches_dense_assembly(self):
        rng = np.random.default_rng(11)
        spec = sc.build_xxz(8, 1.0, 0.7)
        v = sc.random_state_vector(8, rng, complex_amplitudes=True)
        dense = sc.dense_matrix(spec) @ v
        free = sc.apply_to_array(spec, v)
        assert np.max(np.abs(dense - free)) < 1e-12

    def test_dimension_mismatch(self):
        spec = sc.build_xxz(3, 1.0, 0.0)
        v = sc.random_state_vector(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sc.apply_to_array(spec, v)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        spec = sc.build_xxz(6, 0.8, -0.4)
        u = sc.random_state_vector(6, rng, complex_amplitudes=True)
        v = sc.random_state_vector(6, rng, complex_amplitudes=True)
        a, b = 0.37 - 1.1j, -2.4 + 0.2j
        left = sc.apply_to_array(spec, a * u + b * v)
        right = a * sc.apply_to_array(spec, u) + b * sc.apply_to_array(spec, v)
        assert np.max(np.abs(left - right)) < 1e-12

    def test_hermiticity(self):
        rng = np.random.default_rng(6)
        spec = sc.build_xxz(6, 1.0, 0.3)
        u = sc.random_state_vector(6, rng, complex_amplitudes=True)
        v = sc.random_state_vector(6, rng, complex_amplitudes=True)
        uhv = np.vdot(u, sc.apply_to_array(spec, v))
        vhu = np.vdot(v, sc.apply_to_array(spec, u))
        assert abs(uhv - np.conj(vhu)) < 1e-12

    @pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
    def test_oracle_equivalence(self, length):
        rng = np.random.default_rng(length)
        spec = sc.build_xxz(length, 1.0, 0.5)
        v = sc.random_state_vector(length, rng)
        dense = sc.dense_matrix(spec) @ v
        free = sc.apply_to_array(spec, v)
        assert np.max(np.abs(dense - free)) < 1e-12

    def test_magnetization_conservation(self):
        # a basis state maps only onto basis states with the same up count
        spec = sc.build_xxz(6, 1.0, 1.0)
        image = sc.apply_to_array(spec, np.eye(64, dtype=np.complex128))
        pop = np.array([bin(i).count("1") for i in range(64)])
        for col in range(64):
            support = np.nonzero(np.abs(image[:, col]) > 1e-14)[0]
            assert np.all(pop[support] == pop[col])

    def test_constant_offset(self):
        spec = sc.HamiltonianSpec(2, sc.build_xxz(2, 1.0, 1.0).terms, constant=3.0)
        vals = sc.eigenvalues(spec)
        assert np.allclose(np.sort(vals), np.array([-0.75, 0.25, 0.25, 0.25]) + 3.0)


class TestBondViewKernel:
    @pytest.mark.parametrize("length", range(1, 11))
    def test_bit_identical_to_bit_arithmetic_reference(self, length):
        rng = np.random.default_rng(200 + length)
        dim = 2**length
        specs = [random_terms_spec(length, rng, constant) for constant in
                 (0.0, 0.0, rng.normal(), rng.normal())]
        for spec in specs:
            for shape in ((dim,), (dim, 1), (dim, 2), (dim, 4)):
                for complex_values in (False, True):
                    x = rng.standard_normal(shape)
                    if complex_values:
                        x = x + 1j * rng.standard_normal(shape)
                    expected = bit_arithmetic_apply(spec, x)
                    for name, amps in layouts(x, rng):
                        before = amps.copy()
                        got = sc.apply_to_array(spec, amps)
                        case = (spec, shape, complex_values, name)
                        assert got.dtype == expected.dtype, case
                        assert np.array_equal(got, expected), case
                        assert np.array_equal(amps, before), case

    @pytest.mark.parametrize("length", range(1, 9))
    def test_diagonal_equals_sparse_oracle_and_is_kept_per_spec(self, length):
        rng = np.random.default_rng(300 + length)
        for constant in (0.0, 0.0, rng.normal(), rng.normal()):
            spec = random_terms_spec(length, rng, constant)
            twin = sc.HamiltonianSpec(spec.length, spec.terms, spec.constant)
            assert "_diagonal" not in vars(spec)
            v = rng.standard_normal((spec.dim, 2))
            first = sc.apply_to_array(spec, v)
            kept = vars(spec)["_diagonal"]
            assert np.array_equal(sc.apply_to_array(spec, v), first)
            assert vars(spec)["_diagonal"] is kept  # built once per spec
            oracle = sc.sparse_matrix(spec).diagonal()
            assert kept.dtype == np.float64 and not oracle.imag.any()
            assert np.array_equal(kept, oracle.real), spec
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1.0
            assert spec == twin and hash(spec) == hash(twin)
            assert "_diagonal" not in vars(twin)


@st.composite
def chain_specs(draw, max_length=8):
    """Random specs with coefficients 0 or of magnitude 1/8..4, so that
    scaling by 2**m stays exact; at most 24 terms."""
    length = draw(st.integers(1, max_length))
    coefficient = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
                  st.floats(0.125, 4.0)),
    )
    terms = []
    if length > 1:
        terms = draw(st.lists(
            st.builds(sc.CouplingTerm, st.sampled_from(sc.TERM_KINDS),
                      st.integers(0, length - 2), coefficient),
            max_size=24))
    return sc.HamiltonianSpec(length, tuple(terms), draw(coefficient))


def complex_columns(spec, seed, width):
    rng = np.random.default_rng(seed)
    shape = (spec.dim, width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


COLUMNS = (st.integers(0, 2**32 - 1), st.integers(1, 4))


class TestKernelProperties:
    @given(chain_specs(), *COLUMNS)
    def test_global_spin_flip_commutes_exactly(self, spec, seed, width):
        # reversing the basis index flips every spin, which H commutes with
        v = complex_columns(spec, seed, width)
        assert np.array_equal(sc.apply_to_array(spec, v[::-1]),
                              sc.apply_to_array(spec, v)[::-1])

    @given(chain_specs(), *COLUMNS, st.integers(-8, 8))
    def test_power_of_two_scaling_is_exact(self, spec, seed, width, m):
        scale = 2.0**m
        scaled = sc.HamiltonianSpec(
            spec.length,
            tuple(sc.CouplingTerm(t.kind, t.site, scale * t.coefficient)
                  for t in spec.terms),
            scale * spec.constant,
        )
        v = complex_columns(spec, seed, width)
        assert np.array_equal(sc.apply_to_array(scaled, v),
                              scale * sc.apply_to_array(spec, v))

    @given(chain_specs(), *COLUMNS, st.data())
    def test_term_order_moves_output_at_round_off(self, spec, seed, width, data):
        shuffled = sc.HamiltonianSpec(
            spec.length, tuple(data.draw(st.permutations(spec.terms))), spec.constant)
        v = complex_columns(spec, seed, width)
        scale = sum(abs(t.coefficient) for t in spec.terms) + abs(spec.constant)
        bound = 1e-14 * scale * np.max(np.abs(v))
        diff = sc.apply_to_array(shuffled, v) - sc.apply_to_array(spec, v)
        assert np.max(np.abs(diff)) <= bound


class TestExactDiagonalize:
    def test_two_site_heisenberg(self):
        vals, vecs = sc.exact_diagonalize(sc.build_xxz(2, 1.0, 1.0))
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_ten_site_xy_matches_analytic(self):
        spec = sc.build_xxz(10, 1.0, 0.0)
        assert sc.ground_energy(spec) == pytest.approx(
            sc.xy_analytic_ground_energy(10, 1.0), abs=1e-10
        )
        assert sc.ground_energy(spec) == pytest.approx(XY10_GROUND_ENERGY, abs=1e-10)

    def test_ten_site_heisenberg_regression(self):
        spec = sc.build_xxz(10, 1.0, 1.0)
        assert sc.ground_energy(spec) == pytest.approx(
            HEISENBERG10_GROUND_ENERGY, abs=1e-9
        )

    def test_size_cap(self):
        spec = sc.HamiltonianSpec(15)
        with pytest.raises(ValueError):
            sc.exact_diagonalize(spec)

    def test_eigenvalues_ascending(self):
        vals = sc.eigenvalues(sc.build_xxz(6, 1.0, 0.4))
        assert np.all(np.diff(vals) >= -1e-14)

    def test_ground_state_matches_full_solve(self):
        spec = sc.build_xxz(6, 1.0, 1.0)
        e0, g = sc.ground_state(spec)
        vals, vecs = sc.exact_diagonalize(spec)
        assert e0 == pytest.approx(vals[0], abs=1e-12)
        assert abs(abs(np.vdot(g, vecs[:, 0])) - 1.0) < 1e-10


class TestXYAnalytic:
    def test_two_site_value(self):
        assert sc.xy_analytic_ground_energy(2, 1.0) == pytest.approx(-0.5, abs=1e-12)

    def test_three_site_value(self):
        assert sc.xy_analytic_ground_energy(3, 1.0) == pytest.approx(
            -np.cos(np.pi / 4), abs=1e-12
        )

    @pytest.mark.parametrize("length", [2, 3, 5, 8])
    def test_matches_exact_diagonalization(self, length):
        spec = sc.build_xxz(length, 1.3, 0.0)
        assert sc.xy_analytic_ground_energy(length, 1.3) == pytest.approx(
            sc.ground_energy(spec), abs=1e-10
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sc.xy_analytic_ground_energy(1, 1.0)
        with pytest.raises(ValueError):
            sc.xy_analytic_ground_energy(4, 0.0)


class TestSparseAssembly:
    @pytest.mark.parametrize("length", range(2, 9))
    def test_dense_matrix_equals_per_site_kron_chain(self, length):
        rng = np.random.default_rng(length)
        for _ in range(3):
            terms = tuple(
                sc.CouplingTerm(rng.choice(sc.TERM_KINDS), int(rng.integers(length - 1)),
                                rng.normal())
                for _ in range(int(rng.integers(0, 2 * length)))
            )
            spec = sc.HamiltonianSpec(length, terms, constant=rng.normal())
            assert np.array_equal(sc.dense_matrix(spec), per_site_dense_matrix(spec))

    @pytest.mark.parametrize("oracle", [sc.dense_matrix, sc.ground_energy,
                                        sc.ground_state, sc.eigenvalues])
    def test_size_cap(self, oracle):
        with pytest.raises(ValueError, match="capped"):
            oracle(sc.HamiltonianSpec(sc.DENSE_SITE_CAP + 1))


@st.composite
def ramp_like_specs(draw):
    """Random chains for the bond-reuse property: random term order, repeated
    bonds, fractional coefficients and a nonzero constant."""
    length = draw(st.integers(2, 7))
    coefficient = st.one_of(
        st.floats(-5.0, 5.0, allow_nan=False),
        st.builds(lambda c, k, n: c * k / n, st.floats(-5.0, 5.0),
                  st.integers(1, 6), st.integers(1, 7)),
    )
    terms = draw(st.lists(
        st.builds(sc.CouplingTerm, st.sampled_from(sc.TERM_KINDS),
                  st.integers(0, length - 2), coefficient),
        max_size=3 * length))
    constant = draw(st.floats(-5.0, 5.0).filter(lambda c: c != 0.0))
    return sc.HamiltonianSpec(length, tuple(terms), constant)


def assert_same_csr(got, want):
    """Same shape, dtype and CSR arrays, bit for bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestBondReuse:
    @given(ramp_like_specs(), ramp_like_specs())
    def test_reused_bonds_give_bit_identical_matrix(self, spec, warm):
        fresh = sc.sparse_matrix(spec)
        with sc._bonds_reused():
            sc.sparse_matrix(warm)  # may leave bonds the target reuses
            first = sc.sparse_matrix(spec)
            again = sc.sparse_matrix(spec)  # every bond from the cache
        assert_same_csr(first, fresh)
        assert_same_csr(again, fresh)

    @given(ramp_like_specs(), st.data())
    def test_fold_from_a_kept_prefix_is_bit_identical(self, spec, data):
        # the warm spec's terms lead the target's, so only the rest is added;
        # a warm sum with another constant is no start for the target
        cut = data.draw(st.integers(0, len(spec.terms)))
        shift = data.draw(st.sampled_from([0.0, 0.5]))
        warm = sc.HamiltonianSpec(spec.length, spec.terms[:cut], spec.constant + shift)
        fresh = sc.sparse_matrix(spec)
        with sc._bonds_reused():
            sc.sparse_matrix(warm)
            with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
                assert_same_csr(sc.sparse_matrix(spec), fresh)
        assert bond.call_count == len(spec.terms) - (0 if shift else cut)

    @given(ramp_like_specs().filter(lambda spec: spec.terms), st.data())
    def test_fold_past_a_sliced_last_term_is_bit_identical(self, spec, data):
        # a sliced stage: the warm spec ends in a fraction of the target's
        # next term, so the target starts from the warm sum without it
        cut = data.draw(st.integers(0, len(spec.terms) - 1))
        term = spec.terms[cut]
        fraction = data.draw(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3]))
        sliced = sc.CouplingTerm(term.kind, term.site, term.coefficient * fraction)
        warm = sc.HamiltonianSpec(
            spec.length, spec.terms[:cut] + (sliced,), spec.constant)
        fresh = sc.sparse_matrix(spec)
        with sc._bonds_reused():
            sc.sparse_matrix(warm)
            with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
                assert_same_csr(sc.sparse_matrix(spec), fresh)
        if sliced != term:  # else the whole warm sum is a kept prefix
            assert bond.call_count == len(spec.terms) - cut


class TestGroundOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_energy_matches_dense_eigvalsh(self, spec):
        exact = np.linalg.eigvalsh(sc.dense_matrix(spec))[0]
        energy = sc.ground_energy(spec)
        assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_state_is_unit_eigenvector(self, spec):
        energy, state = sc.ground_state(spec)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        residual = sc.apply_to_array(spec, state) - energy * state
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, abs(energy))

    @pytest.mark.parametrize("spec", [
        sc.HamiltonianSpec(1),
        sc.HamiltonianSpec(4),
        sc.HamiltonianSpec(3, (), 2.5),
    ], ids=["L1", "L4", "L3-constant"])
    def test_termless_spec_is_constant_times_identity(self, spec):
        assert sc.ground_energy(spec) == spec.constant
        energy, state = sc.ground_state(spec)
        assert energy == spec.constant
        expected = np.zeros(spec.dim)
        expected[0] = 1.0
        assert np.array_equal(state, expected)

    def test_zero_spec_skips_assembly(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("the zero operator was assembled")

        monkeypatch.setattr(sc, "sparse_matrix", refuse)
        spec = sc.HamiltonianSpec(4, (sc.CouplingTerm(sc.ZZ_KIND, 0, 0.0),
                                      sc.CouplingTerm(sc.FLIP_KIND, 2, 0.0)), 1.5)
        energy, state = sc.ground_state(spec)
        assert energy == 1.5
        assert np.array_equal(state, np.eye(1, spec.dim)[0])

    def test_arpack_failure_is_a_value_error(self):
        # finite couplings whose assembly overflows ARPACK's arithmetic
        with pytest.raises(ValueError, match="of the 10-site chain with 9 terms"):
            sc.ground_state(sc.build_xxz(10, 1e308, 0.0))

    def test_zero_spec_above_cap_refused(self):
        length = sc.DENSE_SITE_CAP + 1
        spec = sc.HamiltonianSpec(length, (sc.CouplingTerm(sc.ZZ_KIND, 0, 0.0),))
        with pytest.raises(ValueError, match="capped"):
            sc.ground_state(spec)

    def test_deterministic_across_arpack_history(self):
        spec = sc.build_xxz(8, 1.0, 0.7)
        script = (
            "from blocklanczos import spinchain as sc; "
            "print(sc.ground_energy(sc.build_xxz(8, 1.0, 0.7)).hex())"
        )
        src = os.path.dirname(os.path.dirname(sc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, check=True, env=env).stdout.strip()
        rng = np.random.default_rng(3)
        for n in (16, 40, 120):
            a = rng.standard_normal((n, n))
            eigsh(sparse.csr_matrix(a + a.T), k=2, which="SA")
        assert sc.ground_energy(spec).hex() == fresh
