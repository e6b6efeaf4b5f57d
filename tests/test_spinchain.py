import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
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
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sc.StateVector(3, np.zeros(7))

    def test_dtype_coercion(self):
        v = sc.StateVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
        assert v.amplitudes.dtype == np.complex128

    def test_inner_conjugates_left(self):
        u = sc.StateVector(1, np.array([1j, 0.0]))
        v = sc.StateVector(1, np.array([1.0, 0.0]))
        assert u.inner(v) == pytest.approx(-1j)
        assert v.inner(u) == pytest.approx(1j)

    def test_normalized(self):
        v = sc.StateVector(1, np.array([3.0, 4.0]))
        assert v.normalized().norm() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            sc.StateVector(1, np.zeros(2)).normalized()

    def test_require_normalized(self):
        v = sc.StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            v.require_normalized()


class TestProductState:
    def test_pattern_parsing_and_index(self):
        p = sc.ProductState.from_string("ud")
        # site 0 = least significant bit, u = bit 1
        assert p.basis_index() == 1
        assert sc.ProductState.from_string("du").basis_index() == 2
        assert sc.ProductState.from_string("↑↓").pattern == ("u", "d")

    def test_single_amplitude(self):
        v = sc.ProductState.from_string("uudd").to_state_vector()
        nonzero = np.nonzero(v.amplitudes)[0]
        assert list(nonzero) == [0b0011]
        assert v.amplitudes[0b0011] == 1.0

    def test_total_sz(self):
        assert sc.ProductState.from_string("uudd").total_sz() == 0.0
        assert sc.ProductState.from_string("uuu").total_sz() == 1.5

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

    def test_add_term_preserves_order(self):
        spec = sc.build_xxz(4, 1.0, 0.0)
        t = sc.CouplingTerm(sc.ZZ_KIND, 1, 0.5)
        grown = spec.add_term(t)
        assert grown.terms[:-1] == spec.terms
        assert grown.terms[-1] == t

    def test_json_round_trip(self, tmp_path):
        spec = sc.build_xxz(5, 0.3, -1.2)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert sc.HamiltonianSpec.load(path) == spec
        # field names are part of the contract
        text = path.read_text()
        for field in ("length", "constant", "terms", "kind", "site", "coefficient"):
            assert f'"{field}"' in text

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="constant"):
            sc.HamiltonianSpec.from_dict({"length": 2, "terms": []})


class TestApplyHamiltonian:
    def test_polarized_state_is_eigenstate(self):
        spec = sc.build_xxz(10, 1.0, 1.0)
        up = sc.ProductState.from_string("u" * 10).to_state_vector()
        hv = sc.apply_hamiltonian(spec, up)
        assert np.allclose(hv.amplitudes, 2.25 * up.amplitudes, atol=1e-14)

    def test_single_flip(self):
        spec = sc.build_xxz(2, 1.0, 0.0)
        updown = sc.ProductState.from_string("ud").to_state_vector()
        hv = sc.apply_hamiltonian(spec, updown)
        expected = 0.5 * sc.ProductState.from_string("du").to_state_vector().amplitudes
        assert np.allclose(hv.amplitudes, expected, atol=1e-14)

    def test_matches_dense_assembly(self):
        rng = np.random.default_rng(11)
        spec = sc.build_xxz(8, 1.0, 0.7)
        v = sc.random_state_vector(8, rng, complex_amplitudes=True)
        dense = sc.dense_matrix(spec) @ v.amplitudes
        free = sc.apply_hamiltonian(spec, v).amplitudes
        assert np.max(np.abs(dense - free)) < 1e-12

    def test_dimension_mismatch(self):
        spec = sc.build_xxz(3, 1.0, 0.0)
        v = sc.random_state_vector(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sc.apply_hamiltonian(spec, v)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        spec = sc.build_xxz(6, 0.8, -0.4)
        u = sc.random_state_vector(6, rng, complex_amplitudes=True)
        v = sc.random_state_vector(6, rng, complex_amplitudes=True)
        a, b = 0.37 - 1.1j, -2.4 + 0.2j
        combo = sc.StateVector(6, a * u.amplitudes + b * v.amplitudes)
        left = sc.apply_hamiltonian(spec, combo).amplitudes
        right = a * sc.apply_hamiltonian(spec, u).amplitudes + b * sc.apply_hamiltonian(
            spec, v
        ).amplitudes
        assert np.max(np.abs(left - right)) < 1e-12

    def test_hermiticity(self):
        rng = np.random.default_rng(6)
        spec = sc.build_xxz(6, 1.0, 0.3)
        u = sc.random_state_vector(6, rng, complex_amplitudes=True)
        v = sc.random_state_vector(6, rng, complex_amplitudes=True)
        uhv = u.inner(sc.apply_hamiltonian(spec, v))
        vhu = v.inner(sc.apply_hamiltonian(spec, u))
        assert abs(uhv - np.conj(vhu)) < 1e-12

    @pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
    def test_oracle_equivalence(self, length):
        rng = np.random.default_rng(length)
        spec = sc.build_xxz(length, 1.0, 0.5)
        v = sc.random_state_vector(length, rng)
        dense = sc.dense_matrix(spec) @ v.amplitudes
        free = sc.apply_to_array(spec, v.amplitudes)
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


class TestExactDiagonalize:
    def test_two_site_heisenberg(self):
        vals, vecs = sc.exact_diagonalize(sc.build_xxz(2, 1.0, 1.0))
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
        gram = np.array([[u.inner(v) for v in vecs] for u in vecs])
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
        assert abs(abs(g.inner(vecs[0])) - 1.0) < 1e-10


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


class TestGroundOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_energy_matches_dense_eigvalsh(self, spec):
        exact = np.linalg.eigvalsh(sc.dense_matrix(spec))[0]
        energy = sc.ground_energy(spec)
        assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
    def test_state_is_unit_eigenvector(self, spec):
        energy, state = sc.ground_state(spec)
        assert state.is_normalized(1e-12)
        residual = sc.apply_to_array(spec, state.amplitudes) - energy * state.amplitudes
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
        assert np.array_equal(state.amplitudes, expected)

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
