"""Tests for the perturbed-test-function algebra and martingale residuals."""

import collections
import copy
import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixed_blocks, loud_paths, loud_table, nan_paths, random_chain, state_index_at
from rosselab import correctors, fourier, kinetic, noise
from rosselab.correctors import (
    FourierMode,
    GeneratorEvaluator,
    build_correctors,
    generator_terms,
    martingale_residual,
    parse_mode,
)
from rosselab.harness import identity_residuals, kinetic_ensemble
from rosselab.kinetic import KineticConfig
from rosselab.limit import rosseland_rhs
from rosselab.model import (
    Opacity,
    TorusGrid,
    build_velocity_space,
    density,
    equilibrium_field,
    weighted_inner,
)
from rosselab.noise import (
    cosine_profile,
    make_noise_model,
    noise_statistics,
    rotor_noise,
    sample_path,
    telegraph_noise,
)

GRID = TorusGrid(64)
X = GRID.axis_points()
RHO = 1.0 + 0.4 * np.cos(2.0 * np.pi * X) + 0.15 * np.sin(4.0 * np.pi * X)
MODE = FourierMode(1, "cos")


def telegraph_stats(grid=GRID, amplitude=1.0, rate=1.0):
    return noise_statistics(telegraph_noise(grid, cosine_profile(grid, amplitude, 1), rate))


def rotor_stats(grid=GRID):
    return noise_statistics(rotor_noise(grid, 0.8, 2, 1.5))


def random_chain_stats(seed, n_states=4, grid=GRID):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.2, 1.0, size=(n_states, n_states))
    np.fill_diagonal(m, 0.0)
    m -= np.diag(m.sum(axis=1))
    coeffs = rng.normal(size=(n_states, 3))
    x = grid.axis_points()
    states = np.stack(
        [
            c[0] * np.cos(2 * np.pi * x)
            + c[1] * np.sin(2 * np.pi * x)
            + c[2] * np.cos(4 * np.pi * x)
            for c in coeffs
        ]
    )
    return noise_statistics(make_noise_model(grid, states, m))


def kinetic_config(eps, noise, quad_name="two-speed", n_nodes=None, grid=GRID):
    quad = build_velocity_space(quad_name, n_nodes)
    opacity = Opacity(1.0, 1.5)
    return KineticConfig(grid, quad, opacity, epsilon=eps, t_final=0.001, noise=noise)


class TestFourierMode:
    @pytest.mark.parametrize("mode", [
        FourierMode(0, "cos"),
        FourierMode(1, "cos"),
        FourierMode(1, "sin"),
        FourierMode(3, "cos"),
        FourierMode(5, "sin"),
    ])
    def test_profiles_are_normalized(self, mode):
        p = mode.profile(GRID)
        assert abs(GRID.cell_volume * np.sum(p * p) - 1.0) < 1e-12

    def test_distinct_modes_are_orthogonal(self):
        modes = [FourierMode(0), FourierMode(1), FourierMode(1, "sin"), FourierMode(2)]
        for i, a in enumerate(modes):
            for b in modes[i + 1:]:
                overlap = GRID.cell_volume * np.sum(a.profile(GRID) * b.profile(GRID))
                assert abs(overlap) < 1e-12

    def test_apply_picks_out_cosine_coefficient(self):
        rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * X)
        # int (1 + 0.4 cos) sqrt(2) cos dx = 0.4 sqrt(2) / 2
        assert abs(MODE.apply(GRID, rho) - 0.2 * math.sqrt(2.0)) < 1e-12
        assert abs(FourierMode(0).apply(GRID, rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("freq,parity", [(-1, "cos"), (0, "sin"), (2, "abs")])
    def test_invalid_modes_raise(self, freq, parity):
        with pytest.raises(ValueError):
            FourierMode(freq, parity)

    def test_unresolved_frequency_raises(self):
        with pytest.raises(ValueError):
            FourierMode(40, "cos").profile(GRID)

    def test_parse_mode_round_trip(self):
        assert parse_mode("cos1") == FourierMode(1, "cos")
        assert parse_mode(" SIN2 ") == FourierMode(2, "sin")
        with pytest.raises(ValueError):
            parse_mode("mode3")


class TestCorrectors:
    def test_first_corrector_telegraph_closed_form(self):
        # psi_i = -n_i / (2 rate), so phi_1(f, n_i) = int rho n_i p / (2 rate).
        # With rho = 1 + 0.4 cos and n_0 = cos the integral is sqrt(2)/4.
        stats = telegraph_stats()
        rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * X)
        first, _ = build_correctors(stats, MODE)
        values = GRID.cell_volume * (first @ rho)
        assert abs(values[0] - math.sqrt(2.0) / 4.0) < 1e-12
        assert abs(values[1] + math.sqrt(2.0) / 4.0) < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_first_corrector_solves_poisson_identity(self, seed):
        # (M phi_1)_i must cancel -int <f> n_i p dx for every state.
        stats = random_chain_stats(seed)
        model = stats.model
        first, _ = build_correctors(stats, MODE)
        chain = model.generator @ (GRID.cell_volume * (first @ RHO))
        p = MODE.profile(GRID)
        for i in range(model.n_states):
            direct = GRID.cell_volume * np.sum(model.states[i] * RHO * p)
            assert abs(chain[i] + direct) < 1e-12

    def test_second_corrector_vanishes_for_telegraph(self):
        _, second = build_correctors(telegraph_stats(), MODE)
        assert np.max(np.abs(second)) < 1e-12
        assert np.max(np.abs(GRID.cell_volume * (second @ RHO))) < 1e-12

    @pytest.mark.parametrize("n_x", [16, 32])
    @pytest.mark.parametrize("amplitude", [100.0, 1000.0])
    def test_second_corrector_vanishes_for_loud_telegraph(self, amplitude, n_x):
        # the forcing of phi_2 is the same in both states, so its centred
        # value is rounding noise of size amplitude^2 * 1e-16: the build
        # must measure its centring against the forcing, not that noise
        grid = TorusGrid(n_x)
        _, second = build_correctors(telegraph_stats(grid, amplitude), MODE)
        assert np.max(np.abs(second)) <= 1e-15 * amplitude**2

    def test_second_corrector_nonzero_for_rotor(self):
        # The rotor profiles at frequency 2 produce corrector densities at
        # frequencies 3 and 5 only, so probe with a frequency-3 density.
        _, second = build_correctors(rotor_stats(), MODE)
        assert np.max(np.abs(second)) > 1e-2
        rho = 1.0 + 0.2 * np.cos(6.0 * np.pi * X)
        assert np.max(np.abs(GRID.cell_volume * (second @ rho))) > 1e-3

    def test_perturbed_combines_orders(self):
        stats = rotor_stats()
        first, second = build_correctors(stats, MODE)
        eps = 0.3
        config = kinetic_config(eps, stats.model)
        expected = (
            MODE.apply(GRID, RHO)
            + eps * GRID.cell_volume * (first @ RHO)
            + eps**2 * GRID.cell_volume * (second @ RHO)
        )
        perturbed = GeneratorEvaluator(config, stats, MODE).perturbed(RHO)
        assert np.allclose(perturbed, expected, atol=1e-14)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_corrector_values_bounded_by_norm(self, seed):
        # |phi + eps phi_1 + eps^2 phi_2| <= C (1 + ||f||)^2 with C built
        # from the sup norms of the corrector density profiles.
        stats = rotor_stats()
        quad = build_velocity_space("legendre", 8)
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.1, 3.0, size=(quad.n_v, GRID.n_x))
        first, second = build_correctors(stats, MODE)
        c_star = 1.0 + np.max(np.abs(first)) + np.max(np.abs(second))
        norm = math.sqrt(weighted_inner(GRID, quad, f, f))
        config = KineticConfig(GRID, quad, Opacity(1.0, 1.5),
                               epsilon=0.5, t_final=0.001, noise=stats.model)
        values = GeneratorEvaluator(config, stats, MODE).perturbed(density(quad, f))
        assert np.max(np.abs(values)) <= c_star * (1.0 + norm) ** 2


def summand_sizes(evaluator, f):
    """Per state, the sum over the terms of ``evaluator.per_state(f)`` of
    their summands in absolute value: every profile, rate and field taken
    in absolute value, and the relaxation average <F> rho - <f> replaced by
    the size of its summands, <F> |rho| + <|f|>.  A term that cancels, such
    as the transport term of a mode that f barely excites or a relaxation
    term, is only accurate to rounding of this size."""
    quad = evaluator.config.quad
    fields = np.abs(evaluator.fields(f))
    fields[..., 2, :] = quad.equilibrium_mass() * fields[..., 0, :] + density(quad, np.abs(f))
    sizes = copy.copy(evaluator)
    for name in ("p", "w_profiles", "u_profiles", "noise_base", "noise_w", "noise_u", "generator"):
        setattr(sizes, name, np.abs(getattr(evaluator, name)))
    return sum(np.abs(term) for term in sizes.terms(fields).values())


CHAIN_CASES = [
    ("two-speed", None, "telegraph"),
    ("two-speed", None, "rotor"),
    ("legendre", 8, "telegraph"),
    ("legendre", 8, "rotor"),
]


def stats_by_name(name):
    return telegraph_stats() if name == "telegraph" else rotor_stats()


class TestGeneratorAlgebra:
    @pytest.mark.parametrize("quad_name,n_nodes,chain", CHAIN_CASES)
    def test_singular_terms_cancel_on_equilibrium_data(self, quad_name, n_nodes, chain):
        stats = stats_by_name(chain)
        config = kinetic_config(0.2, stats.model, quad_name, n_nodes)
        f = equilibrium_field(config.quad, RHO)
        terms = generator_terms(config, stats, MODE, f)
        assert np.max(np.abs(terms["transport_singular"])) < 1e-12
        assert np.max(np.abs(terms["relax_singular"])) < 1e-12
        assert identity_residuals(config, stats, MODE, f)["scale-balance-residual"] < 1e-12

    @pytest.mark.parametrize("quad_name,n_nodes,chain", CHAIN_CASES)
    def test_poisson_cancellation_holds_off_equilibrium(self, quad_name, n_nodes, chain):
        stats = stats_by_name(chain)
        config = kinetic_config(0.15, stats.model, quad_name, n_nodes)
        rng = np.random.default_rng(7)
        f = rng.uniform(0.2, 2.0, size=(config.quad.n_v, GRID.n_x))
        assert identity_residuals(config, stats, MODE, f)["scale-balance-residual"] < 1e-12

    @pytest.mark.parametrize("chain", ["telegraph", "rotor"])
    def test_drift_term_is_state_independent_effective_drift(self, chain):
        stats = stats_by_name(chain)
        config = kinetic_config(0.2, stats.model)
        f = equilibrium_field(config.quad, RHO)
        assert identity_residuals(config, stats, MODE, f)["drift-state-independence"] < 1e-12

    def test_quasi_steady_data_recover_limit_generator(self):
        # On rho F - (eps / sigma) a . grad(rho) F the full generator equals
        # the limit generator plus a remainder of the exact form
        # s eps + c eps^2; fitting three epsilons predicts a fourth.
        stats = rotor_stats()
        quad = build_velocity_space("legendre", 8)
        opacity = Opacity(1.0, 1.5)
        diffusion = quad.diffusion_coefficient()
        grad_rho = fourier.gradient(GRID, RHO)
        limit_value = MODE.apply(
            GRID, rosseland_rhs(GRID, opacity, diffusion, RHO) + stats.drift("effective") * RHO)

        def quasi_steady(eps):
            slope = -(eps / opacity(RHO)) * grad_rho
            return equilibrium_field(quad, RHO) + np.multiply.outer(
                quad.speeds * quad.equilibrium, slope
            )

        eps_values = [0.4, 0.2, 0.1, 0.05]
        remainders = []
        for eps in eps_values:
            config = KineticConfig(GRID, quad, opacity, epsilon=eps, t_final=0.001,
                                   noise=stats.model)
            terms = generator_terms(config, stats, MODE, quasi_steady(eps))
            remainders.append(sum(terms.values())[1] - limit_value)
        vander = np.array([[1.0, e, e * e] for e in eps_values[:3]])
        offset, slope, curve = np.linalg.solve(vander, np.array(remainders[:3]))
        assert abs(offset) < 1e-8
        predicted = offset + slope * eps_values[3] + curve * eps_values[3] ** 2
        assert abs(remainders[3] - predicted) < 1e-10
        assert abs(remainders[3]) < 1.2 * abs(slope) * eps_values[3]

    def test_order_eps_terms_scale_linearly(self):
        stats = rotor_stats()
        rng = np.random.default_rng(21)
        quad = build_velocity_space("two-speed")
        f = rng.uniform(0.2, 2.0, size=(quad.n_v, GRID.n_x))
        reference = None
        for eps in (0.3, 0.15, 0.075):
            config = kinetic_config(eps, stats.model)
            terms = generator_terms(config, stats, MODE, f)
            scaled = (terms["transport_second"][2] + terms["noise_second"][2]) / eps
            if reference is None:
                reference = scaled
            assert abs(scaled - reference) < 1e-12

    def test_evaluator_rejects_mismatched_statistics(self):
        stats = telegraph_stats()
        config = kinetic_config(0.2, stats.model)
        message = "need the noise statistics of the configuration's noise model"
        with pytest.raises(ValueError, match=message):
            GeneratorEvaluator(config, None, MODE)
        with pytest.raises(ValueError, match=message):
            GeneratorEvaluator(config, rotor_stats(), MODE)
        quiet = kinetic_config(0.2, None)
        for candidate in (stats, None):
            with pytest.raises(ValueError, match=message):
                GeneratorEvaluator(quiet, candidate, MODE)

    @settings(max_examples=80, deadline=None)
    @given(
        n_x=st.integers(4, 64),
        quad_name=st.sampled_from(["two-speed", "legendre"]),
        chain=st.sampled_from(["telegraph", "rotor", "random"]),
        frequency=st.integers(0, 31),
        parity=st.sampled_from(["cos", "sin"]),
        eps=st.floats(1 / 64, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # cos1 * cos1 carries the Nyquist mode of n_x = 4
    @example(n_x=4, quad_name="two-speed", chain="telegraph", frequency=1, parity="cos",
             eps=0.25, seed=0)
    # odd n_x, a sine mode and Legendre nodes
    @example(n_x=9, quad_name="legendre", chain="rotor", frequency=2, parity="sin",
             eps=0.1, seed=1)
    @example(n_x=32, quad_name="two-speed", chain="telegraph", frequency=1, parity="cos",
             eps=0.5, seed=2)
    # terms far below their summands: the transport terms of the constant
    # mode, the relaxation terms at small eps, a sample whose transport term
    # or corrector values nearly cancel
    @example(n_x=60, quad_name="legendre", chain="telegraph", frequency=0, parity="cos",
             eps=1.0, seed=60)
    @example(n_x=4, quad_name="legendre", chain="rotor", frequency=0, parity="cos",
             eps=0.0625, seed=0)
    @example(n_x=4, quad_name="legendre", chain="telegraph", frequency=1, parity="cos",
             eps=0.125, seed=28690195)
    @example(n_x=25, quad_name="legendre", chain="random", frequency=20, parity="sin",
             eps=0.4140625, seed=20)
    def test_spectral_rows_match_the_physical_terms(self, n_x, quad_name, chain, frequency,
                                                    parity, eps, seed):
        """``totals`` and ``gamma`` on the spectral state equal the sum of the
        physical ``per_state`` terms and the carre du champ of the physical
        corrector values, and the relaxation terms they leave out are
        rounding."""
        grid = TorusGrid(n_x)
        rng = np.random.default_rng(seed)
        n_nodes = None if quad_name == "two-speed" else int(rng.integers(2, 9))
        model = {
            "telegraph": lambda: telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0),
            "rotor": lambda: rotor_noise(grid, 0.8, 1, 1.5),
            "random": lambda: random_chain(rng, int(rng.integers(2, 5)), grid),
        }[chain]()
        stats = noise_statistics(model)
        frequency %= (n_x + 1) // 2
        mode = FourierMode(frequency, parity if frequency else "cos")
        config = kinetic_config(eps, model, quad_name, n_nodes, grid)
        evaluator = GeneratorEvaluator(config, stats, mode)
        f = rng.uniform(0.1, 3.0, size=(3, config.quad.n_v, n_x))
        f_hat = np.fft.rfft(f)

        terms = evaluator.per_state(f)
        scale = summand_sizes(evaluator, f)
        assert np.all(np.abs(evaluator.totals(f_hat) - sum(terms.values())) <= 1e-12 * scale)
        for name in ("relax_singular", "relax_first", "relax_second"):
            assert np.all(np.abs(terms[name]) <= 1e-13 * scale)

        gamma = evaluator.gamma(f_hat)
        first, second = build_correctors(stats, mode)
        rho = density(config.quad, f)
        v = grid.cell_volume * (rho @ first.T) + eps * grid.cell_volume * (rho @ second.T)
        # the size of the summands of each corrector value
        size = grid.cell_volume * np.abs(rho) @ (np.abs(first) + eps * np.abs(second)).T
        rates = stats.model.generator
        states = range(model.n_states)
        expected = np.stack([sum(rates[i, l] * (v[:, l] - v[:, i]) ** 2 for l in states)
                             for i in states], axis=-1)
        gamma_scale = np.stack([sum(abs(rates[i, l]) * (size[:, l] + size[:, i]) ** 2
                                    for l in states) for i in states], axis=-1)
        assert np.all(np.abs(gamma - expected) <= 1e-12 * gamma_scale)

    def test_gamma_telegraph_closed_form(self):
        # phi_1 jumps between +/- sqrt(2)/4, so Gamma = rate (2 phi_1)^2 = 1/2.
        stats = telegraph_stats()
        config = kinetic_config(0.25, stats.model)
        evaluator = GeneratorEvaluator(config, stats, MODE)
        rho = 1.0 + 0.4 * np.cos(2.0 * np.pi * X)
        gamma = evaluator.gamma(np.fft.rfft(equilibrium_field(config.quad, rho)))
        assert np.allclose(gamma, 0.5, atol=1e-12)


class TestLimitGenerator:
    def test_constant_opacity_closed_form(self):
        sigma0, alpha, freq, diffusion = 2.0, 0.3, 1, 0.5
        opacity = Opacity(sigma0, sigma0)
        rho = 1.0 + alpha * np.cos(2.0 * np.pi * freq * X)
        value = FourierMode(freq).apply(GRID, rosseland_rhs(GRID, opacity, diffusion, rho))
        expected = -diffusion * 4.0 * math.pi**2 * freq**2 * alpha / sigma0 * math.sqrt(2.0) / 2.0
        assert abs(value - expected) < 1e-10

    def test_drift_conventions_differ_by_twice_effective(self):
        stats = telegraph_stats()
        opacity = Opacity(1.0, 1.0)
        rhs = rosseland_rhs(GRID, opacity, 1.0, RHO)
        eff = MODE.apply(GRID, rhs + stats.drift("effective") * RHO)
        pap = MODE.apply(GRID, rhs + stats.drift("paper") * RHO)
        gap = 2.0 * GRID.cell_volume * np.sum(stats.drift_effective * RHO * MODE.profile(GRID))
        assert abs((eff - pap) - gap) < 1e-12
        with pytest.raises(ValueError):
            stats.drift("ito")


class TestMartingaleResidual:
    def test_window_validation(self):
        config, stats, rho0 = self.martingale_fixture()
        dt = config.dt
        with pytest.raises(ValueError, match=r"^t_start = 0\.013 is not a multiple of dt"):
            martingale_residual(config, stats, MODE, rho0, 0.013, 10 * dt, 2, 0)
        with pytest.raises(ValueError, match=r"^window must satisfy 0 <= t_start < t_end <= t_final$"):
            martingale_residual(config, stats, MODE, rho0, 0.0, 14 * dt, 2, 0)

    def test_needs_the_statistics_of_the_noise_model(self):
        config, stats, rho0 = self.martingale_fixture()
        message = "need the noise statistics of the configuration's noise model"
        with pytest.raises(ValueError, match=message):
            martingale_residual(config, None, MODE, rho0, 0.0, config.dt, 2, 0)
        quiet = dataclasses.replace(config, noise=None)
        for candidate in (stats, None):
            with pytest.raises(ValueError, match=message):
                martingale_residual(quiet, candidate, MODE, rho0, 0.0, config.dt, 2, 0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_raise(self, n_samples):
        # one sample has no standard error and none has no mean, so both
        # would make the sigma tests meaningless
        config, stats, rho0 = self.martingale_fixture()
        with pytest.raises(ValueError, match="^n_samples must be at least 2$"):
            martingale_residual(config, stats, MODE, rho0, 0.0, config.dt, n_samples, 0)

    def test_telegraph_residual_statistics(self):
        grid = TorusGrid(32)
        x = grid.axis_points()
        rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
        quad = build_velocity_space("two-speed")
        model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0)
        stats = noise_statistics(model)
        opacity = Opacity(1.0, 2.0)
        config = KineticConfig(grid, quad, opacity, epsilon=0.25, t_final=0.3,
                               dt=0.1 / 13.0, noise=model)
        check = martingale_residual(config, stats, FourierMode(1), rho0, 0.1, 0.3,
                                    n_samples=200, base_seed=99)
        assert check.n_samples == 200
        assert check.qv_mean > 0.0
        assert check.mean_within(3.0)
        assert check.variance_within(5.0)

    def martingale_fixture(self, fixture="telegraph", amplitude=1.0):
        grid = TorusGrid(16)
        rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.axis_points())
        quad = build_velocity_space("two-speed")
        if fixture == "telegraph":
            model = telegraph_noise(grid, cosine_profile(grid, amplitude, 1), 1.0)
        else:
            model = rotor_noise(grid, amplitude, 1, 2.0)
        config = KineticConfig(grid, quad, Opacity(1.0, 2.0),
                               epsilon=0.25, t_final=0.1, dt=0.1 / 13.0, noise=model)
        return config, noise_statistics(model), rho0

    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        fixture=st.sampled_from(["telegraph", "rotor"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_is_independent_of_chunk_size(self, sizes, fixture, seed):
        n_samples, chunk = sizes
        config, stats, rho0 = self.martingale_fixture(fixture)
        whole = martingale_residual(config, stats, MODE, rho0, 0.1 / 13.0, 0.1,
                                    n_samples, seed)
        with mock.patch.object(noise, "CHUNK_BUDGET",
                               chunk * kinetic._floats_per_sample(config)):
            chunked = martingale_residual(config, stats, MODE, rho0, 0.1 / 13.0, 0.1,
                                          n_samples, seed)
        assert dataclasses.astuple(chunked) == dataclasses.astuple(whole)

    @settings(max_examples=15, deadline=None)
    @given(
        n_samples=st.integers(2, 6),
        window=st.lists(st.integers(0, 13), min_size=2, max_size=2, unique=True).map(sorted),
        block=st.one_of(st.sampled_from([2, None]), st.integers(3, 16)),
        fixture=st.sampled_from(["telegraph", "rotor"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_is_independent_of_block_length(self, n_samples, window, block, fixture, seed):
        config, stats, rho0 = self.martingale_fixture(fixture)
        t_start, t_end = (k * config.dt for k in window)

        def check(block):
            with fixed_blocks(block):
                return martingale_residual(config, stats, MODE, rho0, t_start, t_end,
                                           n_samples, seed)

        assert dataclasses.astuple(check(block)) == dataclasses.astuple(check(1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 5), data=st.data())
    def test_states_at_a_time_match_each_path(self, seed, n_paths, data):
        """The batched lookup of the residual's end values reads each row
        at its own path's state (conftest's ``state_index_at``), at jump
        times too."""
        model = rotor_noise(GRID, 1.0, 1, 2.0)
        rng = np.random.default_rng(seed)
        paths = [sample_path(model, 0.25, 0.1, rng) for _ in range(n_paths)]
        jumps = np.concatenate([path.jump_times for path in paths]).tolist()
        t = data.draw(st.one_of(st.floats(0.0, 0.1), st.sampled_from(jumps)))
        values = rng.normal(size=(n_paths, model.n_states))
        expected = [row[state_index_at(path, t)] for row, path in zip(values, paths)]
        assert np.array_equal(correctors._at_states(values, paths, t), expected)

    def test_each_chunk_takes_one_occupation_table(self, monkeypatch):
        """The kinetic loop and the martingale integral each take the
        occupations of a whole chunk in one call, never path by path."""
        config, stats, rho0 = self.martingale_fixture()
        monkeypatch.setattr(noise, "CHUNK_BUDGET", 3 * kinetic._floats_per_sample(config))
        calls = collections.Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for owner in (kinetic, correctors):
            monkeypatch.setattr(owner, "occupation_table",
                                counted(owner.__name__, owner.occupation_table))
        monkeypatch.setattr(noise.NoisePath, "occupations",
                            counted("NoisePath.occupations", noise.NoisePath.occupations))
        # 7 samples in chunks of 3 are 3 chunks
        kinetic_ensemble(config, rho0, MODE, 7, seed=1)
        assert calls == {"rosselab.kinetic": 3}
        martingale_residual(config, stats, MODE, rho0, 0.0, 0.1, 7, 1)
        assert calls == {"rosselab.kinetic": 6, "rosselab.correctors": 3}

    @settings(max_examples=10, deadline=None)
    @given(
        window=st.lists(st.integers(0, 13), min_size=2, max_size=2, unique=True).map(sorted),
        fixture=st.sampled_from(["telegraph", "rotor"]),
    )
    def test_window_takes_two_inverse_transforms_per_chunk(self, window, fixture):
        """L_eps phi_eps and Gamma act on the spectral state: the window's
        only inverse transforms are the densities at its two ends."""
        config, stats, rho0 = self.martingale_fixture(fixture)
        t_start, t_end = (k * config.dt for k in window)
        calls = collections.Counter()
        irfft = np.fft.irfft

        def counted(*args, **kwargs):
            calls[sys._getframe(1).f_globals["__name__"]] += 1
            return irfft(*args, **kwargs)

        with mock.patch.object(np.fft, "irfft", counted), \
                mock.patch.object(noise, "CHUNK_BUDGET", 3 * kinetic._floats_per_sample(config)):
            martingale_residual(config, stats, MODE, rho0, t_start, t_end, 7, 1)
        # 7 samples in chunks of 3 are 3 chunks
        assert calls["rosselab.correctors"] == 2 * 3

    def test_failure_names_lowest_failing_sample(self, monkeypatch):
        # sample 4 fails first in time, sample 2 later: the check names
        # sample 2 at its own first failing step
        monkeypatch.setattr(kinetic, "sample_path", nan_paths({4: 0.0, 2: 0.05}))
        config, stats, rho0 = self.martingale_fixture()
        with pytest.raises(FloatingPointError,
                           match=r"^sample 2: kinetic field lost finiteness at step 7 "):
            martingale_residual(config, stats, MODE, rho0, 0.0, 0.1, 6, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_sample_warns_of_nothing(self, monkeypatch):
        """Sample 1's noise exponent stays near 40 from t = 0.02 on, so its
        field overflows a few steps later.  The check reads the loop's
        blocks outside the loop's error state, where the failed row is NaN."""
        monkeypatch.setattr(kinetic, "sample_path", loud_paths({1: 0.02}, gain=2600.0))
        monkeypatch.setattr(kinetic, "occupation_table", loud_table)
        config, stats, rho0 = self.martingale_fixture()
        with pytest.raises(FloatingPointError, match=r"^sample 1: kinetic field lost finiteness at step "):
            martingale_residual(config, stats, MODE, rho0, 0.0, 0.1, 4, 1)

    def test_noise_overflow_names_its_sample(self):
        config, stats, rho0 = self.martingale_fixture("rotor", amplitude=5000.0)
        with pytest.raises(FloatingPointError,
                           match=r"^sample 0: noise exponent \d+\.\d+ exceeds 50\.0"):
            martingale_residual(config, stats, MODE, rho0, 0.0, 0.1, 3, 1)
