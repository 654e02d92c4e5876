"""Tests for ensembles, the epsilon sweep and deterministic convergence."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (NO_DIFFUSION, altered_paths, fixed_blocks, loud_paths, loud_table, nan_normals, nan_paths,
                      random_chain)
from rosselab.correctors import FourierMode
from rosselab import correctors, harness, kinetic, limit, noise
from rosselab.harness import (
    FUNCTIONAL_NAMES,
    deterministic_convergence,
    epsilon_sweep,
    functional_triple,
    hs_norm,
    identity_residuals,
    kinetic_ensemble,
    limit_ensemble,
    rosseland_reference,
    sample_rng,
)
from rosselab.kinetic import KineticConfig, KineticTrajectory, run_kinetic
from rosselab.limit import SpdeConfig, run_limit
from rosselab.model import (
    Opacity,
    TorusGrid,
    build_velocity_space,
    l2_norm_sq,
)
from rosselab.noise import cosine_profile, noise_statistics, rotor_noise, telegraph_noise

MODE = FourierMode(1, "cos")
#: the sweep's keyword-only settings for the small fixtures below
SWEEP_KEYWORDS = {"mode": MODE, "sobolev_order": 0.4, "dt_scale": 0.125}


def limit_chunk_budget(config, chunk):
    """A ``noise.CHUNK_BUDGET`` that puts ``chunk`` samples of
    ``limit_ensemble(config, ...)`` in each chunk; the ensemble keeps only
    the first and the last snapshot."""
    kept = dataclasses.replace(config, snapshot_stride=config.n_steps)
    return chunk * limit._floats_per_sample(kept)


def small_problem(n_x=16):
    grid = TorusGrid(n_x)
    x = grid.axis_points()
    rho0 = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
    quad = build_velocity_space("two-speed")
    opacity = Opacity(1.0, 2.0)
    return grid, rho0, quad, opacity


def loud_and_nan_paths(times):
    """Sample 4's path turns loud at times[4] and sample 2's NaN at times[2]."""
    return altered_paths({2: times[2]}, {4: times[4]})


class TestSummaries:
    def test_ensemble_summary_statistics(self):
        # sample variance 5/3 over 4 samples gives the mean's sem sqrt(5/12)
        triple = functional_triple(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        assert abs(triple.sems[0] - math.sqrt(5.0 / 12.0)) < 1e-15
        assert triple.sems[2] == 0.0

    def test_functional_triple_point_estimates(self):
        triple = functional_triple(np.array([1.0, 2.0, 3.0, 4.0]),
                                   np.array([2.0, 2.0, 4.0, 4.0]))
        assert abs(triple.values[0] - 2.5) < 1e-15
        assert abs(triple.values[1] - 5.0 / 3.0) < 1e-15
        assert abs(triple.values[2] - 3.0) < 1e-15

    def test_variance_sem_matches_gaussian_formula(self):
        # For normal samples Var(s^2) = 2 sigma^4 / (n - 1); the moment-based
        # standard error must agree at large n.
        rng = np.random.default_rng(5)
        n, sigma = 4000, 2.0
        draws = sigma * rng.standard_normal(n)
        triple = functional_triple(draws, np.ones(n))
        expected = math.sqrt(2.0 / (n - 1)) * sigma**2
        assert abs(triple.sems[1] - expected) / expected < 0.15

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            functional_triple(np.array([1.0]), np.array([1.0]))


class TestSampleRng:
    def test_same_seed_same_stream(self):
        a = sample_rng(42, 3).standard_normal(5)
        b = sample_rng(42, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_indices_decorrelate(self):
        a = sample_rng(42, 0).standard_normal(5)
        b = sample_rng(42, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_integer_seed_extends_a_plain_seed_sequence(self):
        a = sample_rng(42, 3).standard_normal(5)
        b = np.random.default_rng(np.random.SeedSequence((42, 3))).standard_normal(5)
        assert np.array_equal(a, b)

    def test_tuple_seeds_extend_entropy(self):
        a = sample_rng((42, 7), 0).standard_normal(3)
        b = sample_rng(42, 0).standard_normal(3)
        assert not np.array_equal(a, b)


class TestEnsembles:
    def gbm_fixture(self):
        # A negligible diffusion, so each grid point follows the geometric
        # SDE d rho = h rho dt + rho dW, which the noise flow samples
        # exactly: E rho_T^2 = rho0^2 exp((2 h + k(x,x)) T) per point.
        grid = TorusGrid(8)
        x = grid.axis_points()
        rho0 = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
        opacity = Opacity(1.0, 1.0)
        stats = noise_statistics(telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0))
        config = SpdeConfig(grid, opacity, NO_DIFFUSION, 0.2, dt=0.01, noise=stats)
        return grid, rho0, config, stats

    def noisy_kinetic_config(self):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        config = KineticConfig(grid, quad, opacity, epsilon=0.35, t_final=0.05,
                               noise=model)
        return config, rho0

    def test_errors_carry_sample_index(self, monkeypatch):
        monkeypatch.setattr(kinetic, "sample_path", nan_paths({2: 0.0, 3: 0.0}))
        config, rho0 = self.noisy_kinetic_config()
        with pytest.raises(FloatingPointError,
                           match=r"^sample 2: kinetic field lost finiteness at step 1 "):
            kinetic_ensemble(config, rho0, MODE, 4, seed=1)

    @pytest.mark.parametrize("chunk", [3, 6])
    @pytest.mark.parametrize("stub, message", [
        (nan_paths, r"kinetic field lost finiteness at step 5 "),
        (loud_paths, r"noise exponent \S+ exceeds 50\.0"),
        (loud_and_nan_paths, r"kinetic field lost finiteness at step 5 "),
    ])
    def test_kinetic_error_names_lowest_failing_sample(self, monkeypatch, chunk, stub,
                                                      message):
        # sample 4 fails first in time (step 1), sample 2 later (step 5):
        # the ensemble names sample 2 with its own first error, whether or
        # not the two share a chunk, and whether each step is its own block,
        # the two fail in different blocks or one block holds all 8 steps
        monkeypatch.setattr(kinetic, "occupation_table", loud_table)
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        config = KineticConfig(grid, quad, opacity, epsilon=0.25, t_final=0.05,
                               dt=0.00625, noise=model)
        monkeypatch.setattr(noise, "CHUNK_BUDGET",
                            chunk * kinetic._floats_per_sample(config))
        for block in (1, 4, 16):
            monkeypatch.setattr(kinetic, "sample_path", stub({4: 0.0, 2: 0.03}))
            with fixed_blocks(block), pytest.raises(FloatingPointError,
                                                    match="^sample 2: " + message):
                kinetic_ensemble(config, rho0, MODE, 6, seed=1)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_raise(self, n_samples):
        config, rho0 = self.noisy_kinetic_config()
        with pytest.raises(ValueError, match="n_samples"):
            kinetic_ensemble(config, rho0, MODE, n_samples, seed=1)
        _, rho0, limit_config, _ = self.gbm_fixture()
        with pytest.raises(ValueError, match="n_samples"):
            limit_ensemble(limit_config, rho0, MODE, n_samples, seed=1)

    def test_kinetic_ensemble_needs_a_noise_model(self):
        config, rho0 = self.noisy_kinetic_config()
        with pytest.raises(ValueError, match="needs the configuration's noise model"):
            kinetic_ensemble(dataclasses.replace(config, noise=None), rho0, MODE, 3, seed=1)

    def test_limit_ensemble_needs_a_noise_model(self):
        _, rho0, config, _ = self.gbm_fixture()
        with pytest.raises(ValueError, match="needs the noise statistics"):
            limit_ensemble(dataclasses.replace(config, noise=None), rho0, MODE, 3, seed=1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_kinetic_sample_regenerates_alone(self, k):
        config, rho0 = self.noisy_kinetic_config()
        ensemble = kinetic_ensemble(config, rho0, MODE, 4, seed=(11, 5))
        alone = run_kinetic(config, rho0, rng=sample_rng((11, 5), k))
        rho = alone.densities[-1]
        assert ensemble.mode_values[k] == MODE.apply(config.grid, rho)
        assert ensemble.norm_sq[k] == l2_norm_sq(config.grid, rho)
        assert ensemble.sup_energy[k] == alone.energy.max()
        d = alone.defect**2
        assert ensemble.defect_integral[k] == config.dt * (d.sum() - 0.5 * (d[0] + d[-1]))
        assert ensemble.sobolev[k] == hs_norm(alone, 0.4)

    @pytest.mark.parametrize("k", [0, 5])
    def test_limit_sample_regenerates_alone(self, k):
        _, rho0, config, _ = self.gbm_fixture()
        ensemble = limit_ensemble(config, rho0, MODE, 6, seed=21)
        rho = run_limit(config, rho0, rng=sample_rng(21, k)).densities[-1]
        assert ensemble.mode_values[k] == MODE.apply(config.grid, rho)
        assert ensemble.norm_sq[k] == l2_norm_sq(config.grid, rho)

    @pytest.mark.parametrize("chunk", [2, 6])
    def test_limit_error_names_lowest_failing_sample(self, monkeypatch, chunk):
        # sample 4 fails first in time (step 1), sample 2 later (step 11):
        # the ensemble names sample 2 at its own first failing step, as a
        # serial loop would, whether the two share a chunk or each opens its
        # own, and whether each step is its own block, the two fail in
        # different blocks or one block holds both failures
        monkeypatch.setattr(harness, "sample_rng", nan_normals({4: 0, 2: 10}))
        _, rho0, config, _ = self.gbm_fixture()
        monkeypatch.setattr(noise, "CHUNK_BUDGET", limit_chunk_budget(config, chunk))
        for block in (1, 4, 16):
            with fixed_blocks(block), pytest.raises(
                    FloatingPointError, match=r"^sample 2: density lost finiteness at step 11 "):
                limit_ensemble(config, rho0, MODE, 6, seed=1)

    def test_second_moment_matches_geometric_sde_oracle(self):
        grid, rho0, config, stats = self.gbm_fixture()
        h = stats.drift_effective  # = k(x,x) / 2
        expected = grid.cell_volume * float(np.sum(rho0**2 * np.exp(4.0 * h * config.t_final)))
        est = limit_ensemble(config, rho0, MODE, 400, seed=77).functionals()
        assert est.sems[2] > 0.0
        assert abs(est.values[2] - expected) <= 3.0 * est.sems[2]

    def test_doubling_samples_shrinks_squared_stderr(self):
        # the squared stderr of a heavy-tailed norm estimate scatters, so the
        # median over five seeds is checked rather than one seed's ratio
        grid, rho0, config, _ = self.gbm_fixture()
        ratios = []
        for seed in range(9, 14):
            small = limit_ensemble(config, rho0, MODE, 150, seed=seed).functionals()
            big = limit_ensemble(config, rho0, MODE, 600, seed=seed).functionals()
            ratios.append(small.sems[2] ** 2 / big.sems[2] ** 2)
        assert 2.0 < np.median(ratios) < 8.0

    def test_kinetic_ensemble_reproducible(self):
        config, rho0 = self.noisy_kinetic_config()
        first = kinetic_ensemble(config, rho0, MODE, 4, seed=11)
        second = kinetic_ensemble(config, rho0, MODE, 4, seed=11)
        assert np.array_equal(first.mode_values, second.mode_values)
        assert np.array_equal(first.norm_sq, second.norm_sq)
        assert np.all(first.sup_energy >= l2_norm_sq(config.grid, rho0) - 1e-12)
        assert np.all(first.defect_integral >= 0.0)
        assert np.all(first.sobolev > 0.0)

    def test_kinetic_ensemble_seed_changes_values(self):
        config, rho0 = self.noisy_kinetic_config()
        first = kinetic_ensemble(config, rho0, MODE, 3, seed=11)
        second = kinetic_ensemble(config, rho0, MODE, 3, seed=12)
        assert not np.array_equal(first.mode_values, second.mode_values)

    def test_limit_ensemble_reproducible(self):
        grid, rho0, quad, opacity = small_problem()
        stats = noise_statistics(telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0))
        config = SpdeConfig(grid, opacity, quad.diffusion_coefficient(), 0.05,
                            noise=stats)
        first = limit_ensemble(config, rho0, MODE, 4, seed=3)
        second = limit_ensemble(config, rho0, MODE, 4, seed=3)
        assert np.array_equal(first.mode_values, second.mode_values)
        assert np.array_equal(first.norm_sq, second.norm_sq)


class TestLimitEnsembleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.integers(2, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
        seed=st.one_of(st.integers(0, 2**32 - 1),
                       st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))),
        fixture=st.sampled_from(["telegraph", "rotor"]),
        drift=st.sampled_from(["effective", "paper"]),
        diffusion=st.sampled_from([0.5, NO_DIFFUSION]),
        chunk=st.integers(1, 13),
    )
    # two samples per chunk: sample 3 of 5 sits in the second of three chunks
    @example(sizes=(5, 3), seed=4, fixture="rotor", drift="paper",
             diffusion=0.5, chunk=2)
    def test_sample_equals_lone_run(self, sizes, seed, fixture, drift,
                                    diffusion, chunk):
        """Sample k of an ensemble equals a lone run of sample k, bit for bit,
        whatever the chunk size, and so do its per-step mass and norm_sq in
        a batch of every sample."""
        n_samples, k = sizes
        grid = TorusGrid(8)
        x = grid.axis_points()
        rho0 = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
        if fixture == "telegraph":
            model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        else:
            model = rotor_noise(grid, 1.0, 1, 2.0)
        config = SpdeConfig(grid, Opacity(1.0, 2.0), diffusion, 0.02,
                            noise=noise_statistics(model), drift=drift,
                            dt=0.002 if diffusion == NO_DIFFUSION else None)
        with mock.patch.object(noise, "CHUNK_BUDGET", limit_chunk_budget(config, chunk)):
            ensemble = limit_ensemble(config, rho0, MODE, n_samples, seed)
        alone = run_limit(config, rho0, rng=sample_rng(seed, k))
        rho = alone.densities[-1]
        assert ensemble.mode_values[k] == MODE.apply(grid, rho)
        assert ensemble.norm_sq[k] == l2_norm_sq(grid, rho)
        shape = (config.n_steps, config.noise_rank)
        normals = np.stack([sample_rng(seed, j).standard_normal(shape)
                            for j in range(n_samples)], axis=1)
        *_, mass, norm_sq = limit._integrate(config, rho0, normals)
        assert np.array_equal(mass[k], alone.mass)
        assert np.array_equal(norm_sq[k], alone.norm_sq)


class TestKineticEnsembleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.integers(2, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(1, n))),
        seed=st.one_of(st.integers(0, 2**32 - 1),
                       st.tuples(st.integers(0, 2**16), st.integers(0, 2**16))),
        fixture=st.sampled_from(["telegraph", "rotor"]),
        velocity=st.sampled_from(["two-speed", "legendre"]),
    )
    # two samples per chunk: sample 3 of 5 sits in the second of three chunks
    @example(sizes=(5, 3, 2), seed=4, fixture="rotor", velocity="two-speed")
    # a 2-D matrix product over the sample axis broke this for the energy
    @example(sizes=(2, 0, 2), seed=0, fixture="telegraph", velocity="legendre")
    def test_sample_equals_lone_run(self, sizes, seed, fixture, velocity):
        """Sample k of a kinetic ensemble equals a lone run of sample k, bit
        for bit, whatever the chunk size."""
        n_samples, k, chunk = sizes
        grid = TorusGrid(8)
        rho0 = 1.0 + 0.4 * np.cos(2.0 * np.pi * grid.axis_points())
        model = {
            "telegraph": telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0),
            "rotor": rotor_noise(grid, 1.0, 1, 2.0),
        }[fixture]
        quad = build_velocity_space(velocity, None if velocity == "two-speed" else 4)
        config = KineticConfig(grid, quad, Opacity(1.0, 2.0),
                               epsilon=0.2, t_final=0.2, noise=model, snapshot_stride=3)
        with mock.patch.object(noise, "CHUNK_BUDGET",
                               chunk * kinetic._floats_per_sample(config)):
            ensemble = kinetic_ensemble(config, rho0, MODE, n_samples, seed)
        alone = run_kinetic(config, rho0, rng=sample_rng(seed, k))
        rho = alone.densities[-1]
        assert ensemble.mode_values[k] == MODE.apply(grid, rho)
        assert ensemble.norm_sq[k] == l2_norm_sq(grid, rho)
        assert ensemble.sup_energy[k] == alone.energy.max()
        d = alone.defect**2
        assert ensemble.defect_integral[k] == config.dt * (d.sum() - 0.5 * (d[0] + d[-1]))
        assert ensemble.sobolev[k] == hs_norm(alone, 0.4)


class TestRosselandReference:
    def test_constant_opacity_heat_kernel(self):
        grid, _, _, _ = small_problem(32)
        x = grid.axis_points()
        alpha, t_final = 0.4, 0.05
        rho0 = 1.0 + alpha * np.cos(2.0 * np.pi * x)
        opacity = Opacity(1.0, 1.0)
        times, densities = rosseland_reference(grid, opacity, 1.0, rho0, t_final, 6)
        for t, rho in zip(times, densities):
            exact = 1.0 + alpha * math.exp(-4.0 * math.pi**2 * t) * np.cos(2.0 * np.pi * x)
            assert np.max(np.abs(rho - exact)) < 1e-9

    def test_snapshot_layout(self):
        grid, rho0, _, opacity = small_problem()
        times, densities = rosseland_reference(grid, opacity, 1.0, rho0, 0.1, 5)
        assert np.allclose(times, [0.0, 0.025, 0.05, 0.075, 0.1])
        assert densities.shape == (5, grid.n_x)
        with pytest.raises(ValueError):
            rosseland_reference(grid, opacity, 1.0, rho0, 0.1, 1)

    def test_mass_is_conserved(self):
        grid, rho0, _, opacity = small_problem(32)
        _, densities = rosseland_reference(grid, opacity, 0.5, rho0, 0.2, 4)
        masses = densities.mean(axis=1)
        assert np.max(np.abs(masses - masses[0])) < 1e-12

    def test_self_consistent_under_dt_halving(self):
        # 16 steps per snapshot interval: 3 snapshots over 0.1 take steps of
        # 0.05 / 16, 5 snapshots take steps of 0.05 / 32
        grid, rho0, _, opacity = small_problem(32)
        _, coarse = rosseland_reference(grid, opacity, 1.0, rho0, 0.1, 3)
        _, fine = rosseland_reference(grid, opacity, 1.0, rho0, 0.1, 5)
        diff = math.sqrt(l2_norm_sq(grid, coarse[-1] - fine[-1]))
        assert diff < 1e-6


class TestDeterministicConvergence:
    def test_errors_decrease_with_good_slope(self):
        grid, rho0, quad, opacity = small_problem(32)
        report = deterministic_convergence(grid, quad, opacity, rho0, 0.3, [0.4, 0.2, 0.1])
        assert report.errors_strictly_decreasing()
        assert report.slope >= 0.8
        assert np.all(report.epsilons[:-1] > report.epsilons[1:])

    def test_tiny_epsilon_is_refused_before_the_reference(self, monkeypatch):
        grid, rho0, quad, opacity = small_problem()
        monkeypatch.setattr(harness, "rosseland_reference",
                            mock.Mock(side_effect=AssertionError("the reference ran")))
        with pytest.raises(ValueError, match=r"^epsilon = 1e-200 is too small: eps\^2 underflows$"):
            deterministic_convergence(grid, quad, opacity, rho0, 0.3, [0.4, 1e-200])

    def test_requires_two_epsilons(self):
        grid, rho0, quad, opacity = small_problem()
        with pytest.raises(ValueError):
            deterministic_convergence(grid, quad, opacity, rho0, 0.1, [0.2])


class TestEpsilonSweep:
    def make_sweep(self, seed=13):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        return epsilon_sweep(grid, quad, opacity, model, rho0, 0.05,
                             [0.5, 0.35], n_kinetic=6, n_limit=8, base_seed=seed, **SWEEP_KEYWORDS)

    def test_report_structure(self):
        report = self.make_sweep()
        assert len(report.rows) == 2
        assert report.rows[0].epsilon > report.rows[1].epsilon
        for row in report.rows:
            assert row.gaps.shape == (len(FUNCTIONAL_NAMES),)
            assert np.all(row.gap_sems > 0.0)
            assert row.sup_energy_mean > 0.0
            assert row.defect_integral_mean > 0.0
            assert row.sobolev_mean > 0.0
        assert np.isfinite(report.paper_excess_sigmas()).all()
        assert report.diagnostic_band("sup_energy_mean") >= 1.0

    def test_report_reproducible(self):
        first = self.make_sweep()
        second = self.make_sweep()
        for a, b in zip(first.rows, second.rows):
            assert np.array_equal(a.gaps, b.gaps)
            assert np.array_equal(a.estimates.values, b.estimates.values)

    @staticmethod
    def refuse_ensembles(monkeypatch):
        """Make any ensemble run fail the test: the sweep must refuse first."""
        for name in ("limit_ensemble", "kinetic_ensemble"):
            monkeypatch.setattr(harness, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))

    def test_sobolev_order_must_stay_below_half_smoothing(self, monkeypatch):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        self.refuse_ensembles(monkeypatch)
        with pytest.raises(ValueError, match=r"^Sobolev order 0\.6 must be positive"):
            epsilon_sweep(grid, quad, opacity, model, rho0, 0.05, [0.5, 0.35],
                          n_kinetic=2, n_limit=2, base_seed=1,
                          **{**SWEEP_KEYWORDS, "sobolev_order": 0.6})

    def test_dt_scale_validated(self, monkeypatch):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        self.refuse_ensembles(monkeypatch)
        with pytest.raises(ValueError, match=r"^dt_scale = 0\.9 violates the step rule"):
            epsilon_sweep(grid, quad, opacity, model, rho0, 0.05, [0.5, 0.35],
                          n_kinetic=2, n_limit=2, base_seed=1,
                          **{**SWEEP_KEYWORDS, "dt_scale": 0.9})

    def test_epsilon_overflow_is_refused_before_any_ensemble(self, monkeypatch):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        self.refuse_ensembles(monkeypatch)
        with pytest.raises(ValueError, match=r"^epsilon = 1e\+200 is too large: eps\^2 overflows$"):
            epsilon_sweep(grid, quad, opacity, model, rho0, 0.05, (1e200, 0.5),
                          n_kinetic=2, n_limit=2, base_seed=1, **SWEEP_KEYWORDS)

    @pytest.mark.parametrize("counts", [(1, 20), (20, 1)], ids=["kinetic", "limit"])
    def test_sample_counts_are_refused_before_any_ensemble(self, monkeypatch, counts):
        grid, rho0, quad, opacity = small_problem()
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        self.refuse_ensembles(monkeypatch)
        with pytest.raises(ValueError, match=r"^n_samples must be at least 2$"):
            epsilon_sweep(grid, quad, opacity, model, rho0, 0.05, (0.5, 0.35),
                          n_kinetic=counts[0], n_limit=counts[1], base_seed=1, **SWEEP_KEYWORDS)

    def test_unknown_drift_is_refused(self):
        report = self.make_sweep()
        message = r"^unknown drift convention 'papr'; use 'paper' or 'effective'$"
        with pytest.raises(ValueError, match=message):
            report.rows[0].drift_gaps("papr")
        with pytest.raises(ValueError, match=message):
            report.gaps_nonincreasing(drift="papr")

    def test_noise_off_is_refused(self):
        grid, rho0, quad, opacity = small_problem()
        with pytest.raises(ValueError, match="needs a noise model"):
            epsilon_sweep(grid, quad, opacity, None, rho0, 0.05, [0.5, 0.35],
                          n_kinetic=2, n_limit=2, base_seed=1, **SWEEP_KEYWORDS)


class TestHsNorm:
    def test_constant_trajectory_integrates_to_t_c_squared(self):
        grid, _, quad, opacity = small_problem()
        config = KineticConfig(grid, quad, opacity, epsilon=0.3, t_final=0.2,
                               dt=0.02, snapshot_stride=2)
        trajectory = run_kinetic(config, np.full(grid.shape, 0.7))
        assert abs(hs_norm(trajectory, 0.45) - 0.2 * 0.49) < 1e-12

    def test_static_cosine_matches_multiplier_arithmetic(self):
        grid, _, quad, opacity = small_problem(32)
        config = KineticConfig(grid, quad, opacity, epsilon=0.3, t_final=0.75,
                               dt=0.025)
        x = grid.axis_points()
        rho = np.cos(2.0 * np.pi * x)
        zeros = np.zeros(config.n_steps + 1)
        trajectory = KineticTrajectory(
            config, np.array([0.0, 0.375, 0.75]), np.stack([rho, rho, rho]),
            zeros, zeros, zeros, zeros,
        )
        s = 0.45
        expected = 0.75 * 0.5 * (1.0 + 4.0 * math.pi**2) ** s
        assert abs(hs_norm(trajectory, s) - expected) < 1e-12

    def test_order_gate_for_kinetic_trajectories(self):
        # the two-speed smoothing exponent 1 caps the order below 1/2
        grid, rho0, quad, opacity = small_problem()
        config = KineticConfig(grid, quad, opacity, epsilon=0.4, t_final=0.04)
        trajectory = run_kinetic(config, rho0)
        with pytest.raises(ValueError):
            hs_norm(trajectory, 0.5)
        with pytest.raises(ValueError):
            hs_norm(trajectory, 0.0)
        assert hs_norm(trajectory, 0.49) > 0.0


#: the rows of the identity battery that only telegraph chains get
TELEGRAPH_ROWS = {"telegraph-poisson-closed-form", "telegraph-mode-weight",
                  "telegraph-second-corrector-null"}


class TestIdentityBattery:
    @staticmethod
    def residuals(stats, quad_name, eps, mode, rng):
        grid = stats.model.grid
        quad = build_velocity_space(quad_name)
        f = 1.0 + 0.3 * rng.standard_normal((quad.n_v,) + grid.shape)
        config = KineticConfig(grid, quad, Opacity(1.0, 2.0),
                               epsilon=eps, t_final=0.01, noise=stats.model)
        return identity_residuals(config, stats, mode, f)

    @settings(max_examples=40, deadline=None)
    @given(
        n_states=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
        quad_name=st.sampled_from(["two-speed", "legendre"]),
        eps=st.floats(0.05, 1.0),
        mode=st.sampled_from([FourierMode(0), MODE, FourierMode(2, "sin")]),
    )
    def test_residuals_vanish_on_random_ergodic_chains(self, n_states, seed, quad_name,
                                                       eps, mode):
        rng = np.random.default_rng(seed)
        stats = noise_statistics(random_chain(rng, n_states, TorusGrid(16)))
        eigenvalues = np.linalg.eigvalsh(stats.kernel)
        assert eigenvalues[0] >= -1e-12 * eigenvalues[-1]
        found = self.residuals(stats, quad_name, eps, mode, rng)
        assert len(found) == 13 and not TELEGRAPH_ROWS & set(found)
        assert max(found.values()) <= 1e-12, found

    @settings(max_examples=20, deadline=None)
    @given(
        amplitude=st.floats(0.1, 3.0),
        rate=st.floats(0.2, 5.0),
        seed=st.integers(0, 2**32 - 1),
        quad_name=st.sampled_from(["two-speed", "legendre"]),
        eps=st.floats(0.05, 1.0),
    )
    def test_telegraph_chains_add_their_closed_forms(self, amplitude, rate, seed,
                                                     quad_name, eps):
        grid = TorusGrid(16)
        stats = noise_statistics(telegraph_noise(grid, cosine_profile(grid, amplitude, 1),
                                                 rate))
        found = self.residuals(stats, quad_name, eps, MODE, np.random.default_rng(seed))
        assert len(found) == 16 and TELEGRAPH_ROWS <= set(found)
        assert max(found.values()) <= 1e-12, found

    def test_one_corrector_build_per_call(self):
        # a telegraph chain runs every row, the second-corrector null included
        grid = TorusGrid(16)
        stats = noise_statistics(telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0))
        with mock.patch.object(harness, "GeneratorEvaluator",
                               wraps=correctors.GeneratorEvaluator) as evaluators, \
                mock.patch.object(correctors, "build_correctors",
                                  wraps=correctors.build_correctors) as builds:
            found = self.residuals(stats, "two-speed", 0.25, MODE, np.random.default_rng(1))
        assert len(found) == 16
        assert (evaluators.call_count, builds.call_count) == (1, 1)
