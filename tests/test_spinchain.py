import gc
import os
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from blocklanczos import incremental
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


def strided_apply(spec, amps):
    """The strided kernel that ``apply_to_array`` replaced, kept as its
    bit-level reference: the diagonal times the C-ordered amplitudes, then
    each XX+YY bond in spec order as one in-place update of the rows viewed
    as ``(2**(L-i-2), 4, 2**i)``, which swaps the bond's antiparallel
    two-bit states p = 1 <-> 2 with amplitude coefficient/2."""
    a = np.ascontiguousarray(amps)
    out = spec._diagonal.reshape((spec.dim,) + (1,) * (a.ndim - 1)) * a
    for term in spec.terms:
        if term.kind == sc.FLIP_KIND:
            shape = sc._bond_shape(spec.length, term.site) + a.shape[1:]
            a4, o4 = a.reshape(shape), out.reshape(shape)
            o4[:, 1:3] += (0.5 * term.coefficient) * a4[:, 2:0:-1]
    return out


def same_bits(got, want):
    """Equal values and equal signs, signed zeros included, in both parts."""
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got.real), np.signbit(want.real))
            and np.array_equal(np.signbit(got.imag), np.signbit(want.imag)))


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


def signed_zero_amplitudes(rng, shape, complex_values):
    """Gaussian amplitudes with about a quarter of the entries +0.0 and a
    quarter -0.0 (in each part when complex)."""
    def part():
        x = rng.standard_normal(shape)
        pick = rng.random(shape)
        x[pick < 0.25] = 0.0
        x[(pick >= 0.25) & (pick < 0.5)] = -0.0
        return x
    return part() + 1j * part() if complex_values else part()


class TestCsrKernel:
    @given(chain_specs(), st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 3, 4]),
           st.booleans(), st.data())
    def test_bit_identical_to_the_strided_kernel(self, spec, seed, width,
                                                 complex_values, data):
        # the speed-up rests on the CSR rows adding the same products in the
        # same order as the strided updates, without fused multiply-adds
        rng = np.random.default_rng(seed)
        shape = (spec.dim,) if width is None else (spec.dim, width)
        x = signed_zero_amplitudes(rng, shape, complex_values)
        name, amps = data.draw(st.sampled_from(list(layouts(x, rng))))
        before = amps.copy()
        got = sc.apply_to_array(spec, amps)
        assert same_bits(got, strided_apply(spec, x)), name
        if amps.flags.c_contiguous or amps.flags.f_contiguous:  # a contiguous input's layout
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
                amps.flags.c_contiguous, amps.flags.f_contiguous), name
        assert same_bits(amps, before)

    @pytest.mark.parametrize("coefficients", [(0.75, -1.5), (0.25, 0.0)],
                             ids=["whole-terms", "fractional"])
    def test_zz_stage_shares_the_parent_kernel_structure(self, coefficients):
        # a ZZ bond changes only the diagonal, which the kernel does not hold
        parent = random_xxz(8, np.random.default_rng(12))
        kernel = parent._kernel
        spec = parent
        for site, coefficient in zip((2, 5), coefficients):
            spec = spec.add_term(sc.CouplingTerm(sc.ZZ_KIND, site, coefficient))
            assert vars(spec)["_kernel"] is kernel
            fresh = sc.HamiltonianSpec(spec.length, spec.terms, spec.constant)
            assert same_bits(spec._kernel.data, fresh._kernel.data)
            for name in ("indices", "indptr"):
                got, want = getattr(spec._kernel, name), getattr(fresh._kernel, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert same_bits(spec._diagonal, fresh._diagonal)
            assert not np.shares_memory(spec._diagonal, parent._diagonal)
            x = np.random.default_rng(site).standard_normal((spec.dim, 2))
            assert same_bits(sc.apply_to_array(spec, x), strided_apply(fresh, x))

    def test_kernel_arrays_are_read_only(self):
        kernel = random_xxz(6, np.random.default_rng(14))._kernel
        for name in ("data", "indices", "indptr"):
            array = getattr(kernel, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_flip_stage_builds_a_fresh_kernel(self):
        parent = random_xxz(8, np.random.default_rng(13))
        kernel = parent._kernel
        child = parent.add_term(sc.CouplingTerm(sc.FLIP_KIND, 3, 0.5))
        assert "_kernel" not in vars(child)
        got = child._kernel
        fresh = sc.HamiltonianSpec(child.length, child.terms, child.constant)._kernel
        assert got is not kernel and not np.shares_memory(got.indices, kernel.indices)
        assert got.nnz == kernel.nnz + child.dim // 2
        assert same_bits(got.data, fresh.data) and np.array_equal(got.indices, fresh.indices)

    @pytest.mark.parametrize("constant", [0.0, -0.0, 1.5])
    def test_signed_zero_rows_of_a_zero_operator(self, constant):
        # every product is a signed zero: scipy.sparse's own product, which
        # starts each row at +0.0, would return +0.0 for the -0.0 rows
        spec = sc.HamiltonianSpec(3, (sc.CouplingTerm(sc.FLIP_KIND, 0, 0.0),
                                      sc.CouplingTerm(sc.ZZ_KIND, 1, 0.0)), constant)
        x = np.array([-1.0, 2.0, -0.0, 0.0, -3.0, 4.0, 5.0, -6.0])
        want = strided_apply(spec, x)
        assert same_bits(sc.apply_to_array(spec, x), want)
        if constant == 0.0:
            assert np.signbit(want).any()

    def test_rows_hold_the_diagonal_then_each_antiparallel_bond_in_spec_order(self):
        # the diagonal, the start of each row's sum, is kept beside the
        # kernel, whose rows hold the flips only
        terms = [(sc.FLIP_KIND, 1, 0.75), (sc.ZZ_KIND, 0, -1.25), (sc.FLIP_KIND, 0, 0.0),
                 (sc.FLIP_KIND, 1, -2.0), (sc.FLIP_KIND, 2, 0.5)]
        spec = sc.HamiltonianSpec(4, tuple(sc.CouplingTerm(*t) for t in terms), 0.25)
        kernel = spec._kernel
        assert same_bits(spec._diagonal, sc.dense_matrix(spec).diagonal())
        for row in range(spec.dim):
            want = [
                (row ^ (3 << site), 0.5 * coefficient)
                for kind, site, coefficient in terms
                if kind == sc.FLIP_KIND and (row >> site & 1) != (row >> site + 1 & 1)]
            lo, hi = kernel.indptr[row], kernel.indptr[row + 1]
            got = list(zip(kernel.indices[lo:hi].tolist(), kernel.data[lo:hi].tolist()))
            assert got == want, row
        assert kernel.indices.dtype == kernel.indptr.dtype == np.int32
        assert kernel.nnz == 4 * spec.dim // 2  # zero coefficients kept

    def test_kernel_is_built_once_per_spec_without_the_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Kronecker oracle was used")

        monkeypatch.setattr(sc, "_bond", refuse)
        monkeypatch.setattr(sc, "sparse_matrix", refuse)
        spec = random_xxz(8, np.random.default_rng(9))
        twin = sc.HamiltonianSpec(spec.length, spec.terms, spec.constant)
        assert "_kernel" not in vars(spec)
        v = np.random.default_rng(10).standard_normal((spec.dim, 3))
        first = sc.apply_to_array(spec, v)
        kept = vars(spec)["_kernel"]
        assert np.array_equal(sc.apply_to_array(spec, v), first)
        assert vars(spec)["_kernel"] is kept
        assert "_sum" not in vars(spec)
        assert spec == twin and hash(spec) == hash(twin)
        monkeypatch.undo()
        operator = kept.toarray() + np.diag(spec._diagonal)
        assert np.max(np.abs(operator - sc.dense_matrix(spec))) <= 1e-15 * 8

    @pytest.mark.parametrize("length, flips, nnz, index", [
        (1, 0, 0, np.int32),
        (16, 15, 491520, np.int32),
        (27, 26, 26 * 2**26, np.int32),  # 1744830464 < 2**31
        (28, 27, 27 * 2**27, np.int64),  # 3623878656
    ])
    def test_entry_count_and_index_dtype(self, monkeypatch, length, flips, nnz, index):
        monkeypatch.setattr(sc, "_physical_memory", lambda: 2**62)
        terms = tuple(sc.CouplingTerm(sc.FLIP_KIND, site, 1.0) for site in range(flips))
        spec = sc.HamiltonianSpec(length, terms + (sc.CouplingTerm(sc.ZZ_KIND, 0, 1.0),)
                                  if length > 1 else ())
        assert sc.check_kernel_fits(spec) == (nnz, index)

    def test_oversized_kernel_refused_before_allocation(self, monkeypatch):
        # 4608 entries and the diagonal: 4608 * 12 + 1025 * 4 + 1024 * 8 = 67588 bytes
        monkeypatch.setattr(sc, "_physical_memory", lambda: 50_000)

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "arange", no_allocation)
        spec = sc.build_xxz(10, 1.0, 1.0)
        with pytest.raises(ValueError, match=(
                r"the Hamiltonian kernel of the 10-site chain \(4608 entries\) "
                r"needs 67588 bytes, more than the 50000 bytes of physical memory")):
            sc.apply_to_array(spec, np.ones(spec.dim))
        assert "_kernel" not in vars(spec)

    def test_first_apply_loads_scipy_sparse(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from blocklanczos import spinchain as sc\n"
            "spec = sc.build_xxz(4, 1.0, 1.0)\n"
            "print('scipy.sparse' in sys.modules)\n"
            "sc.apply_to_array(spec, np.ones(16))\n"
            "print('scipy.sparse' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(sc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout.split() == ["False", "True"]


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
            # the complex reference guards the oracle's real bond pairs
            dense = sc.dense_matrix(spec)
            assert sc.sparse_matrix(spec).dtype == dense.dtype == np.float64
            assert np.array_equal(dense, per_site_dense_matrix(spec))

    @pytest.mark.parametrize("oracle", [sc.dense_matrix, sc.ground_energy,
                                        sc.ground_state, sc.eigenvalues])
    def test_size_cap(self, oracle):
        with pytest.raises(ValueError, match="capped"):
            oracle(sc.HamiltonianSpec(sc.DENSE_SITE_CAP + 1))


@st.composite
def ramp_like_specs(draw):
    """Random chains for the kept-sum property: random term order, repeated
    bonds, fractional coefficients and a nonzero constant."""
    length = draw(st.integers(2, 7))
    terms = draw(st.lists(terms_of(length), max_size=3 * length))
    constant = draw(st.floats(-5.0, 5.0).filter(lambda c: c != 0.0))
    return sc.HamiltonianSpec(length, tuple(terms), constant)


def terms_of(length):
    coefficient = st.one_of(
        st.floats(-5.0, 5.0, allow_nan=False),
        st.builds(lambda c, k, n: c * k / n, st.floats(-5.0, 5.0),
                  st.integers(1, 6), st.integers(1, 7)),
    )
    return st.builds(sc.CouplingTerm, st.sampled_from(sc.TERM_KINDS),
                     st.integers(0, length - 2), coefficient)


def fresh_copy(spec):
    """The same fields in a new spec, with nothing kept."""
    return sc.HamiltonianSpec(spec.length, spec.terms, spec.constant)


def assert_same_csr(got, want):
    """Same shape, dtype and CSR arrays, bit for bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestKeptSum:
    @given(ramp_like_specs(), st.data())
    def test_add_term_chain_is_bit_identical_with_one_bond_per_term(self, spec, data):
        # a ramp from a built sum: each whole term, after some slices of it,
        # extends the previous whole-term spec
        sc.sparse_matrix(spec)
        whole = spec
        for term in data.draw(st.lists(terms_of(spec.length), max_size=6)):
            fractions = data.draw(st.lists(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3]),
                                           max_size=2))
            stages = [whole.add_term(sc.CouplingTerm(term.kind, term.site,
                                                     term.coefficient * f))
                      for f in fractions] + [whole.add_term(term)]
            for stage in stages:
                with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
                    assert_same_csr(sc.sparse_matrix(stage), sc.sparse_matrix(fresh_copy(stage)))
                assert bond.call_count == 1 + len(stage.terms)  # the fresh copy folds all
                assert stage == fresh_copy(stage)
                assert hash(stage) == hash(fresh_copy(stage))
            whole = stages[-1]

    @given(ramp_like_specs())
    def test_add_term_without_a_built_sum_folds_every_term(self, spec):
        with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
            child = spec.add_term(sc.CouplingTerm(sc.ZZ_KIND, 0, 1.5))
            assert_same_csr(sc.sparse_matrix(child), sc.sparse_matrix(fresh_copy(child)))
        assert bond.call_count == 2 * len(child.terms)

    def test_sum_is_kept_per_spec(self):
        spec = sc.build_xxz(5, 1.0, 0.5)
        with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
            assert sc.sparse_matrix(spec) is sc.sparse_matrix(spec)
        assert bond.call_count == len(spec.terms)

    def test_child_drops_the_parent_sum_once_its_own_is_built(self):
        parent = sc.build_xxz(5, 1.0, 0.0)
        parent_sum = weakref.ref(sc.sparse_matrix(parent))
        child = parent.add_term(sc.CouplingTerm(sc.ZZ_KIND, 2, 1.0))
        del parent
        gc.collect()
        assert parent_sum() is not None  # the child still needs it
        sc.sparse_matrix(child)
        gc.collect()
        assert parent_sum() is None


class TestBondReuse:
    @given(ramp_like_specs(), st.data())
    def test_fold_from_a_kept_prefix_is_bit_identical(self, spec, data):
        # the warm spec's terms lead the target's and its sum is built, so
        # add_term, building each step as a ramp does, folds only the rest;
        # a warm sum with another constant is not carried into a spec of
        # its own
        cut = data.draw(st.integers(0, len(spec.terms)))
        shift = data.draw(st.sampled_from([0.0, 0.5]))
        warm = sc.HamiltonianSpec(spec.length, spec.terms[:cut], spec.constant + shift)
        fresh = sc.sparse_matrix(fresh_copy(spec))
        sc.sparse_matrix(warm)
        with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
            if shift:
                target = fresh_copy(spec)
            else:
                target = warm
                for term in spec.terms[cut:]:
                    target = target.add_term(term)
                    sc.sparse_matrix(target)
            assert_same_csr(sc.sparse_matrix(target), fresh)
        assert target == spec
        assert bond.call_count == len(spec.terms) - (0 if shift else cut)

    @given(ramp_like_specs().filter(lambda spec: spec.terms), st.data())
    def test_fold_past_a_sliced_last_term_is_bit_identical(self, spec, data):
        # a sliced stage: the previous whole-term spec plus a fraction of the
        # target's next term; the target is made from the whole-term spec,
        # not from the slice, and adds one bond
        cut = data.draw(st.integers(0, len(spec.terms) - 1))
        term = spec.terms[cut]
        fraction = data.draw(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3]))
        sliced = sc.CouplingTerm(term.kind, term.site, term.coefficient * fraction)
        whole = sc.HamiltonianSpec(spec.length, spec.terms[:cut], spec.constant)
        sc.sparse_matrix(whole)
        warm = whole.add_term(sliced)
        assert_same_csr(sc.sparse_matrix(warm), sc.sparse_matrix(fresh_copy(warm)))
        target = sc.HamiltonianSpec(spec.length, spec.terms[:cut + 1], spec.constant)
        with mock.patch.object(sc, "_bond", wraps=sc._bond) as bond:
            step = whole.add_term(term)
            assert_same_csr(sc.sparse_matrix(step), sc.sparse_matrix(target))
        assert bond.call_count == 1 + len(target.terms)  # target folds all


def kron_bond(kind, site, length):
    """The bond route ``spinchain._bond`` replaced, kept as its reference:
    two ``scipy.sparse.kron`` calls around the 4x4 pair, rows sorted."""
    pair = sc._ZZ_PAIR if kind == sc.ZZ_KIND else sc._FLIP_PAIR
    above = sparse.identity(2 ** (length - site - 2))
    bond = sparse.kron(sparse.kron(above, pair), sparse.identity(2**site), format="csr")
    bond.sort_indices()
    return bond


def kron_fold(spec):
    """The oracle's fold, ``constant * I`` then ``mat + coefficient * bond``
    in spec order, over :func:`kron_bond` bonds."""
    mat = spec.constant * sparse.identity(spec.dim, format="csr")
    for term in spec.terms:
        mat = mat + term.coefficient * kron_bond(term.kind, term.site, spec.length)
    return mat


def arpack_on_the_sum(spec):
    """``eigsh`` called on the kept sum itself, with the oracle's settings."""
    v0 = np.random.default_rng(0).standard_normal(spec.dim)
    vals, vecs = eigsh(sc.sparse_matrix(spec), k=1, which="SA", v0=v0, tol=0.0)
    return float(vals[0]), vecs[:, 0]


def ramp_stage(scenario, index):
    """Stage ``index`` of a shipped ramp scenario, built from the base's sum
    as ``run_incremental`` builds it."""
    ramp = incremental.build_ramp(incremental.default_config(scenario))
    sc.sparse_matrix(ramp.base)
    for n, (_, _, spec) in enumerate(ramp.stages()):
        sc.sparse_matrix(spec)
        if n == index:
            return spec
    raise IndexError(index)


class TestKroneckerReference:
    """The oracle's direct CSR bonds and its ARPACK product against the
    ``scipy.sparse.kron`` bonds and the ``sum @ x`` product they replaced."""

    @pytest.mark.parametrize("length", range(2, 11))
    def test_bond_arrays_equal_the_kron_build(self, length):
        for kind in sc.TERM_KINDS:
            for site in range(length - 1):
                got = sc._bond(kind, site, length)
                assert type(got) is sparse.csr_matrix
                assert_same_csr(got, kron_bond(kind, site, length))

    @given(ramp_like_specs(), st.data())
    def test_add_term_chain_sum_equals_the_kron_fold(self, spec, data):
        want = kron_fold(spec)
        assert_same_csr(sc.sparse_matrix(spec), want)
        for term in data.draw(st.lists(terms_of(spec.length), max_size=6)):
            spec = spec.add_term(term)
            want = want + term.coefficient * kron_bond(term.kind, term.site, spec.length)
            assert_same_csr(sc.sparse_matrix(spec), want)

    def test_no_source_file_calls_sparse_kron(self, monkeypatch):
        # numpy's kron builds the 4x4 pairs; scipy's is never named in src
        import ast
        import pathlib
        import scipy.sparse._construct as construct

        for path in pathlib.Path(sc.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    assert not any(alias.name == "kron" for alias in node.names), path
                if isinstance(node, ast.Attribute) and node.attr == "kron":
                    assert isinstance(node.value, ast.Name) and node.value.id == "np", path

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.sparse.kron was called")

        monkeypatch.setattr(sparse, "kron", refuse)
        monkeypatch.setattr(construct, "kron", refuse)
        spec = random_xxz(6, np.random.default_rng(1))
        sc.ground_state(spec)
        sc.eigenvalues(spec.add_term(sc.CouplingTerm(sc.ZZ_KIND, 2, 0.5)))

    @pytest.mark.parametrize("spec", [spec for spec in ORACLE_SPECS.values() if spec.terms],
                             ids=[name for name, spec in ORACLE_SPECS.items() if spec.terms])
    def test_ground_state_is_arpack_on_the_sum_bit_for_bit(self, spec):
        energy, state = sc.ground_state(spec)
        want_energy, want_state = arpack_on_the_sum(spec)
        assert energy.hex() == want_energy.hex()
        assert state.dtype == want_state.dtype and state.tobytes() == want_state.tobytes()

    @pytest.mark.parametrize("scenario", ["small", "large", "random-start"])
    def test_ramp_stage_ground_state_is_arpack_on_the_sum_bit_for_bit(self, scenario):
        spec = ramp_stage(scenario, 4)
        assert_same_csr(sc.sparse_matrix(spec), kron_fold(spec))
        energy, state = sc.ground_state(spec)
        want_energy, want_state = arpack_on_the_sum(spec)
        assert energy.hex() == want_energy.hex()
        assert state.tobytes() == want_state.tobytes()


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
