"""Tests for the incremental interaction-ramping solver."""

import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

from blocklanczos import incremental, scalar, spinchain
from blocklanczos.textio import write_csv
from blocklanczos.incremental import (
    CSV_HEADER,
    ConvergenceRecord,
    ConvergenceRow,
    RampSchedule,
    ScenarioConfig,
    alternating_spin_start,
    build_ramp,
    default_config,
    run_incremental,
)
from blocklanczos.spinchain import CouplingTerm, ProductState


def small_chain_config(**overrides) -> ScenarioConfig:
    """A fast 6-site analogue of the small scenario for unit tests."""
    settings = dict(scenario="small", length=6, j_xy=1.0, j_z=1.0,
                    lanczos_per_step=1, dlambda_fractions=1)
    settings.update(overrides)
    return ScenarioConfig(**settings)


def fresh_copy(spec):
    """The same fields in a new spec, with no kept oracle sum."""
    return spinchain.HamiltonianSpec(spec.length, spec.terms, spec.constant)


class TestAlternatingSpinStart:
    def test_pattern(self):
        start = alternating_spin_start()
        assert start.pattern == tuple("uudddudduu")
        assert start.length == 10

    def test_total_sz_zero(self):
        # as many up as down sites: the start lies in the S^z = 0 sector
        pattern = alternating_spin_start().pattern
        assert 2 * pattern.count("u") == len(pattern)

    def test_single_unit_amplitude(self):
        sv = alternating_spin_start().to_state_vector()
        nonzero = np.nonzero(sv)[0]
        # up sites 0, 1, 5, 8, 9 set bits 1 + 2 + 32 + 256 + 512
        assert list(nonzero) == [803]
        assert sv[803] == 1.0


class TestRampSchedule:
    def test_fraction_count_validated(self):
        base = spinchain.build_xxz(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            RampSchedule(base, ((CouplingTerm("ZZ", 0, 1.0), 0),))

    def test_full_target_equals_direct_construction(self):
        config = small_chain_config(j_z=0.8)
        *_, (terms_added, fraction, spec) = build_ramp(config).stages()
        assert (terms_added, fraction) == (5, 1.0)
        assert spec == spinchain.build_xxz(6, j_xy=1.0, j_z=0.8)

    def test_full_target_with_fractions_unchanged(self):
        ramp = build_ramp(small_chain_config(j_z=0.8, dlambda_fractions=4))
        *_, (terms_added, fraction, spec) = ramp.stages()
        assert (terms_added, fraction) == (5, 1.0)
        assert spec == spinchain.build_xxz(6, j_xy=1.0, j_z=0.8)

    def test_partial_counts_and_fraction(self):
        ramp = build_ramp(small_chain_config(j_z=2.0, dlambda_fractions=4))
        stages = {(k, f): spec for k, f, spec in ramp.stages()}
        spec = stages[2, 0.75]
        assert spec.terms[:len(ramp.base.terms)] == ramp.base.terms
        zz = [t for t in spec.terms if t.kind == "ZZ"]
        assert [t.coefficient for t in zz] == [2.0, 2.0, 1.5]
        assert [t.site for t in zz] == [0, 1, 2]

    def test_partial_bounds(self):
        # each addition: count - 1 slices, then the whole term
        ramp = build_ramp(small_chain_config(length=4, dlambda_fractions=2))
        got = [(k, f, len(spec.terms)) for k, f, spec in ramp.stages()]
        base = len(ramp.base.terms)
        assert got == [(0, 0.5, base + 1), (1, 1.0, base + 1),
                       (1, 0.5, base + 2), (2, 1.0, base + 2),
                       (2, 0.5, base + 3), (3, 1.0, base + 3)]

    def test_each_stage_extends_the_previous_whole_term_stage(self):
        ramp = build_ramp(small_chain_config(dlambda_fractions=3))
        whole = ramp.base
        for terms_added, fraction, spec in ramp.stages():
            assert spec.terms[:-1] == whole.terms
            if fraction == 1.0:
                whole = spec
        assert terms_added == len(ramp.additions)


class TestScenarioConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig("medium")

    def test_random_start_requires_state(self):
        with pytest.raises(ValueError):
            ScenarioConfig("random-start")

    def test_start_state_length_checked(self):
        with pytest.raises(ValueError):
            ScenarioConfig("random-start", length=6,
                           start_state=alternating_spin_start())

    def test_positive_knobs(self):
        with pytest.raises(ValueError):
            ScenarioConfig("small", lanczos_per_step=0)
        with pytest.raises(ValueError):
            ScenarioConfig("small", dlambda_fractions=0)
        with pytest.raises(ValueError):
            ScenarioConfig("small", length=1)

    def test_defaults(self):
        assert default_config("small").j_z == 1.0
        assert default_config("large").j_z == 100.0
        assert default_config("large").lanczos_per_step == 2
        assert default_config("random-start").start_state is not None
        with pytest.raises(ValueError):
            default_config("other")


class TestBuildRamp:
    def test_one_addition_per_bond_ascending(self):
        ramp = build_ramp(small_chain_config(j_z=0.3, dlambda_fractions=2))
        assert len(ramp.additions) == 5
        assert [term.site for term, _ in ramp.additions] == [0, 1, 2, 3, 4]
        assert all(term.kind == "ZZ" for term, _ in ramp.additions)
        assert all(term.coefficient == 0.3 for term, _ in ramp.additions)
        assert all(count == 2 for _, count in ramp.additions)

    def test_descending_option(self):
        ramp = build_ramp(small_chain_config(descending_order=True))
        assert [term.site for term, _ in ramp.additions] == [4, 3, 2, 1, 0]


class TestConvergenceRecord:
    def make_rows(self):
        return (
            ConvergenceRow(0, 0.5, -1.0, 0.25, 2),
            ConvergenceRow(1, 1.0, -1.5, 0.125, 2),
        )

    def test_terms_added_monotone_validated(self):
        rows = self.make_rows()
        with pytest.raises(ValueError):
            ConvergenceRecord((rows[1], rows[0]))

    def test_csv_round_trip(self, tmp_path):
        record = ConvergenceRecord(self.make_rows())
        path = tmp_path / "trajectory.csv"
        write_csv(path, CSV_HEADER, map(astuple, record.rows))
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        loaded = ConvergenceRecord.from_csv(path)
        assert loaded.rows == record.rows

    def test_header_enforced_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            ConvergenceRecord.from_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n1,0.5,-1.0\n")
        with pytest.raises(ValueError):
            ConvergenceRecord.from_csv(path)

    def test_empty_record_has_no_final(self):
        record = ConvergenceRecord(())
        with pytest.raises(ValueError):
            record.final_energy
        with pytest.raises(ValueError):
            record.final_delta


class TestRunIncremental:
    def test_row_count_and_schema(self):
        record = run_incremental(small_chain_config())
        assert len(record) == 5
        assert [row.terms_added for row in record.rows] == [1, 2, 3, 4, 5]
        assert all(row.lambda_fraction == 1.0 for row in record.rows)
        assert all(row.lanczos_iters == 1 for row in record.rows)

    def test_deltas_variational_and_small(self):
        record = run_incremental(small_chain_config())
        deltas = record.deltas()
        assert np.all(deltas >= -1e-12)
        assert np.max(deltas) < 1e-2

    def test_final_energy_tracks_full_chain(self):
        record = run_incremental(small_chain_config())
        exact = spinchain.ground_energy(spinchain.build_xxz(6, 1.0, 1.0))
        assert record.final_energy == pytest.approx(exact, abs=1e-2)
        assert record.final_delta == pytest.approx(
            record.final_energy - exact, abs=1e-12
        )

    def test_fraction_bookkeeping(self):
        record = run_incremental(small_chain_config(length=3,
                                                    dlambda_fractions=3))
        assert len(record) == 6
        got = [(row.terms_added, row.lambda_fraction) for row in record.rows]
        third = 1.0 / 3.0
        assert got == [(0, third), (0, 2 * third), (1, 1.0),
                       (1, third), (1, 2 * third), (2, 1.0)]

    def test_slicing_improves_final_delta(self):
        whole = run_incremental(small_chain_config(j_z=20.0,
                                                   lanczos_per_step=2))
        sliced = run_incremental(small_chain_config(j_z=20.0,
                                                    lanczos_per_step=2,
                                                    dlambda_fractions=2))
        assert abs(sliced.final_delta) < abs(whole.final_delta)

    def test_explicit_product_start_used(self):
        start = ProductState.from_string("ududud")
        record = run_incremental(small_chain_config(scenario="random-start",
                                                    start_state=start))
        base_record = run_incremental(small_chain_config())
        assert record.rows[0].delta_vs_exact > base_record.rows[0].delta_vs_exact

    def test_site_cap_enforced(self):
        with pytest.raises(ValueError):
            run_incremental(ScenarioConfig("small", length=15))

    @pytest.mark.parametrize("overrides", [
        {"dlambda_fractions": 2},
        {"scenario": "random-start", "start_state": ProductState.from_string("uduudd")},
    ], ids=["sliced", "random-start"])
    def test_kept_sums_leave_trajectory_bit_identical(self, monkeypatch, bond_calls,
                                                      overrides):
        config = small_chain_config(j_z=3.0, **overrides)
        kept = run_incremental(config)
        bonds_kept = len(bond_calls)
        for name in ("ground_state", "ground_energy"):
            oracle = getattr(spinchain, name)
            monkeypatch.setattr(spinchain, name,
                                lambda spec, oracle=oracle: oracle(fresh_copy(spec)))
        assert run_incremental(config).rows == kept.rows
        # every stage folded from constant * I: more bonds built
        assert len(bond_calls) - bonds_kept > bonds_kept

    def test_more_iterations_never_raise_step_energy(self):
        # Variational principle within one fixed partial Hamiltonian.
        base = spinchain.build_xxz(6, 1.0, 0.0)
        working = base.add_term(CouplingTerm("ZZ", 0, 1.0))
        _, seed = spinchain.ground_state(base)
        energies = []
        for iters in (1, 2, 3):
            coeffs, _ = scalar.lanczos_run(working, seed, max_iter=iters)
            energies.append(scalar.tridiagonal_eigensolve(coeffs)[0][0])
        assert energies[1] <= energies[0] + 1e-12
        assert energies[2] <= energies[1] + 1e-12


class TestBondReuseScope:
    """Bonds the oracle builds in one ramp (``bond_calls``, see conftest.py):
    every stage adds one bond to the previous whole-term stage's kept sum."""

    LENGTH = 6
    DISTINCT_BONDS = 2 * (LENGTH - 1)  # flip-flop and ZZ on every link

    def test_each_bond_built_once_per_ramp(self, bond_calls):
        config = small_chain_config(length=self.LENGTH)
        ramp = build_ramp(config)
        oracle_terms = len(ramp.base.terms) + sum(
            len(spec.terms) for _, _, spec in ramp.stages())
        run_incremental(config)
        assert len(bond_calls) == self.DISTINCT_BONDS
        assert self.DISTINCT_BONDS < oracle_terms  # 10 instead of 45

    @pytest.mark.parametrize("count, start", [
        (2, None), (3, None), (2, "ududud"), (3, "ududud"),
    ], ids=["2", "3", "product-2", "product-3"])
    def test_sliced_ramp_builds_one_bond_per_slice(self, bond_calls, count, start):
        # each slice adds its own scaled bond to the last whole-term sum,
        # from a product start too: the base's sum is built before stage 1
        start_state = None if start is None else ProductState.from_string(start)
        run_incremental(small_chain_config(length=self.LENGTH, dlambda_fractions=count,
                                           start_state=start_state))
        flips = zz = self.LENGTH - 1
        assert len(bond_calls) == flips + count * zz  # 15 and 20

    @pytest.mark.parametrize("overrides", [
        {}, {"dlambda_fractions": 3}, {"descending_order": True},
        {"scenario": "random-start", "start_state": ProductState.from_string("ududud")},
        {"scenario": "random-start", "start_state": ProductState.from_string("ududud"),
         "dlambda_fractions": 3},
    ], ids=["whole", "sliced", "descending", "random-start", "sliced-random-start"])
    def test_one_bond_fold_per_stage(self, bond_calls, overrides):
        # after the first assembly each stage extends a kept partial sum
        config = small_chain_config(length=self.LENGTH, **overrides)
        base_terms = len(build_ramp(config).base.terms)
        stages = len(run_incremental(config))
        # the base chain is folded whole: one fold per base term
        assert len(bond_calls) == base_terms + stages

    def test_back_to_back_ramps_share_nothing(self, bond_calls):
        config = small_chain_config(length=self.LENGTH)
        run_incremental(config)
        run_incremental(config)
        assert len(bond_calls) == 2 * self.DISTINCT_BONDS
        spec = spinchain.build_xxz(self.LENGTH, 1.0, 1.0)
        spinchain.sparse_matrix(spec)
        assert len(bond_calls) == 2 * self.DISTINCT_BONDS + len(spec.terms)

    @pytest.mark.parametrize("fail_at_stage", [None, 3], ids=["returns", "raises"])
    def test_no_sum_outlives_a_ramp(self, monkeypatch, fail_at_stage):
        sums = []
        sparse_matrix = spinchain.sparse_matrix

        def tracked(spec):
            mat = sparse_matrix(spec)
            sums.append(weakref.ref(mat))
            return mat

        ground_energy = spinchain.ground_energy
        stages = []

        def failing(spec):
            stages.append(None)
            energy = ground_energy(spec)  # builds the stage's sum first
            if len(stages) == fail_at_stage:
                raise RuntimeError("stage failed")
            return energy

        monkeypatch.setattr(spinchain, "sparse_matrix", tracked)
        monkeypatch.setattr(spinchain, "ground_energy", failing)
        raised = False
        try:
            run_incremental(small_chain_config(length=self.LENGTH,
                                               dlambda_fractions=2))
        except RuntimeError:
            raised = True
        assert raised == (fail_at_stage is not None)
        gc.collect()
        assert len(sums) > len(stages)  # the base, then one per stage
        assert [ref() for ref in sums] == [None] * len(sums)
