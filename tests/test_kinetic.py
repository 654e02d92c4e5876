"""Transport, noise factor and splitting checks for the kinetic solver."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LoudPath, fixed_blocks, loud_table, nan_path, stepped_fields, translate
from rosselab import kinetic
from rosselab.kinetic import (
    KineticConfig,
    KineticStepper,
    noise_factor,
    run_kinetic,
    spectral_energy,
)
from rosselab.model import (
    Opacity,
    TorusGrid,
    build_velocity_space,
    density,
    equilibrium_field,
    l2_norm_sq,
    relax_exact,
    relaxation_operator,
    weighted_inner,
)
from rosselab.noise import NoisePath, cosine_profile, sample_path, telegraph_noise

GRID = TorusGrid(32)
GT = build_velocity_space("two-speed")


def test_transport_translates_each_node():
    quad = build_velocity_space("legendre", 4)
    x = GRID.axis_points()
    f = np.empty((quad.n_v,) + GRID.shape)
    for k in range(quad.n_v):
        f[k] = np.cos(2.0 * np.pi * x) + 0.3 * np.sin(4.0 * np.pi * x)
    tau = 0.37
    out = translate(GRID, quad, f, tau)
    for k, a in enumerate(quad.speeds):
        shifted = np.cos(2.0 * np.pi * (x - tau * a)) + 0.3 * np.sin(4.0 * np.pi * (x - tau * a))
        assert np.max(np.abs(out[k] - shifted)) <= 1e-12


def test_transport_preserves_mass_and_energy():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((GT.n_v,) + GRID.shape)
    # band-limit below Nyquist, where the spectral shift is unitary
    f_hat = np.fft.rfft(f)
    f_hat[..., -1] = 0.0
    f = np.fft.irfft(f_hat, n=GRID.n_x)
    out = translate(GRID, GT, f, 0.123)
    assert GRID.integrate(density(GT, out)) == pytest.approx(
        GRID.integrate(density(GT, f)), abs=1e-13
    )
    assert weighted_inner(GRID, GT, out, out) == pytest.approx(
        weighted_inner(GRID, GT, f, f), rel=1e-13
    )


def test_noise_factor_matches_hand_integral():
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    path = NoisePath(
        model,
        t_final=1.0,
        jump_times=np.array([0.0, 0.3]),
        state_indices=np.array([0, 1]),
    )
    out = noise_factor(model, path.occupations(0.0, 0.5), 0.5)
    integral = 0.3 * model.states[0] + 0.2 * model.states[1]
    assert np.allclose(out, np.exp(integral / 0.5), atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_noise_factor_overflow_guard():
    """A window whose exponent breaks EXPONENT_LIMIT comes back all NaN,
    with no warning, and leaves the other windows alone; a run that meets
    one fails with the exponent in its message."""
    model = telegraph_noise(GRID, cosine_profile(GRID, 500.0, 1), 1.0)
    path = NoisePath(
        model,
        t_final=1.0,
        jump_times=np.array([0.0]),
        state_indices=np.array([0]),
    )
    # peak exponents 20, 20 and 960 at eps = 0.5
    lengths = np.array([0.02, 0.02, 0.96])
    out = noise_factor(model, path.occupations([0.0, 0.02, 0.04], [0.02, 0.04, 1.0]), 0.5)
    assert np.isnan(out[2]).all()
    assert np.array_equal(out[:2], np.exp(lengths[:2, None] * model.states[0] / 0.5))
    config = KineticConfig(GRID, GT, Opacity(1.0, 2.0), epsilon=0.5, t_final=0.25, noise=model)
    with pytest.raises(FloatingPointError, match=r"^noise exponent \d+\.\d+ exceeds 50\.0"):
        run_kinetic(config, np.ones(GRID.n_x), rng=np.random.default_rng(3))


@pytest.mark.parametrize("loud, jump", [(0.27, 0.28), (0.21, 0.22)],
                         ids=["second-half-window", "first-half-window"])
def test_exponent_breach_names_the_first_half_window_over_the_limit(loud, jump):
    """A path that jumps from state 0 to state 1 inside step 2 (from t = 0.2
    to 0.3) and turns loud, by a gain of 1e4, inside the same half window
    fails the run at step 3.  The message names that half window's peak:
    |0.03 - 0.02| of time in the two states, times the gain, times the
    profile's peak 1, over eps.  Every later half window is over the limit
    too, with the peak 0.05 * 1e4 / eps of a whole half window in one state,
    so naming any other window shows."""
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    config = KineticConfig(GRID, GT, Opacity(1.0, 2.0), epsilon=0.5, t_final=0.5, dt=0.1,
                           noise=model)
    path = NoisePath(model, 0.5, np.array([0.0, jump]), np.array([0, 1]))
    peak = (0.03 - 0.02) * 1e4 * 1.0 / 0.5
    with mock.patch.object(kinetic, "occupation_table", loud_table), \
            pytest.raises(FloatingPointError) as info:
        kinetic._trajectories(config, np.ones(GRID.n_x), [LoudPath(path, loud, 1e4)])
    assert str(info.value) == (f"noise exponent {peak:.2f} exceeds 50.0; "
                               "noise amplitude / epsilon too large for this dt")


def test_config_validation():
    with pytest.raises(ValueError, match="cap"):
        KineticConfig(GRID, GT, Opacity(1.0, 1.0), epsilon=0.1, t_final=1.0, dt=0.01)
    with pytest.raises(ValueError, match="multiple"):
        KineticConfig(GRID, GT, Opacity(1.0, 1.0), epsilon=0.5, t_final=1.0, dt=0.0301)
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 1.0), epsilon=0.2, t_final=1.0)
    assert cfg.dt <= 0.5 * 0.2**2 + 1e-15
    assert cfg.n_steps * cfg.dt == pytest.approx(1.0, rel=1e-12)


def test_equilibrium_constant_state_is_steady():
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), epsilon=0.2, t_final=0.5)
    traj = run_kinetic(cfg, np.full(GRID.shape, 1.3))
    assert np.max(np.abs(traj.final_density() - 1.3)) <= 1e-12


def test_deterministic_run_conserves_mass_and_dissipates_energy():
    x = GRID.axis_points()
    rho0 = 1.0 + 0.4 * np.cos(2.0 * np.pi * x)
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), epsilon=0.2, t_final=0.5)
    traj = run_kinetic(cfg, rho0)
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12
    assert np.all(np.diff(traj.energy) <= 1e-12 * traj.energy[0])


def test_strang_self_convergence_is_second_order():
    x = GRID.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x) + 0.2 * np.sin(4.0 * np.pi * x)
    outs = {}
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), 0.1, 0.1, dt=dt, snapshot_stride=10**6)
        outs[dt] = run_kinetic(cfg, rho0).final_density()
    coarse = np.sqrt(l2_norm_sq(GRID, outs[4e-3] - outs[2e-3]))
    fine = np.sqrt(l2_norm_sq(GRID, outs[2e-3] - outs[1e-3]))
    assert 4.0 / 1.5 <= coarse / fine <= 4.0 * 1.5


def test_small_eps_run_approaches_heat_decay():
    # light version of the diffusive fixture; the acceptance suite runs the
    # pinned one at n_x = 64, dt = 1e-5
    grid = TorusGrid(32)
    x = grid.axis_points()
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    t_final = 0.05
    cfg = KineticConfig(grid, GT, Opacity(1.0, 1.0), 0.0285, t_final, dt=1e-4, snapshot_stride=10**6)
    traj = run_kinetic(cfg, rho0)
    exact = 1.0 + 0.5 * np.exp(-4.0 * np.pi**2 * t_final) * np.cos(2.0 * np.pi * x)
    assert np.sqrt(l2_norm_sq(grid, traj.final_density() - exact)) <= 2e-3


def test_run_with_noise_is_reproducible():
    model = telegraph_noise(GRID, cosine_profile(GRID, 1.0, 1), 1.0)
    x = GRID.axis_points()
    rho0 = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), 0.25, 0.25, noise=model)
    a = run_kinetic(cfg, rho0, rng=np.random.default_rng(42))
    b = run_kinetic(cfg, rho0, rng=np.random.default_rng(42))
    assert np.array_equal(a.densities, b.densities)
    assert np.array_equal(a.energy, b.energy)
    with pytest.raises(ValueError, match="rng"):
        run_kinetic(cfg, rho0)


def test_stepper_step_matches_run_single_step():
    model = telegraph_noise(GRID, cosine_profile(GRID, 0.5, 1), 1.0)
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), 0.25, 0.03125, dt=0.03125, noise=model)
    path = sample_path(model, 0.25, cfg.t_final, np.random.default_rng(3))
    x = GRID.axis_points()
    f0 = equilibrium_field(GT, 1.0 + 0.3 * np.sin(2.0 * np.pi * x))
    # the step maps the spectrum of the field to the spectrum of the next one
    stepped_hat = KineticStepper(cfg, [path]).step(np.fft.rfft(f0)[None], 0)[0]
    stepped = np.fft.irfft(stepped_hat, n=GRID.n_x)
    snaps = kinetic._trajectories(cfg, density(GT, f0), [path])[1]
    assert np.allclose(density(GT, stepped), snaps[0, -1], atol=1e-13)


def test_snapshot_stride_keeps_endpoints():
    cfg = KineticConfig(GRID, GT, Opacity(1.0, 2.0), 0.3, 0.9, dt=0.009, snapshot_stride=7)
    traj = run_kinetic(cfg, np.ones(GRID.shape))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.9, rel=1e-12)
    assert len(traj.step_times) == cfg.n_steps + 1

def unfused_fields(config, f0):
    """Final field of the noise-off composition T(dt/2) R(dt) T(dt/2), each
    half translation in physical space and back, as the solver ran before
    it fused consecutive half steps."""
    half = config.dt / (2.0 * config.epsilon)
    f = f0
    for _ in range(config.n_steps):
        f = translate(config.grid, config.quad, f, half)
        f = relax_exact(config.quad, config.opacity, f, config.dt / config.epsilon**2)
        f = translate(config.grid, config.quad, f, half)
    return f


SOLVER_CASES = dict(
    n_x=st.integers(4, 64),
    velocity=st.sampled_from(["two-speed", "legendre"]),
    eps=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


def rough_case(n_x, velocity, eps, n_steps=3):
    """A configuration of a few steps at the dt cap on a grid of n_x cells."""
    grid = TorusGrid(n_x)
    quad = build_velocity_space(velocity)
    return KineticConfig(grid, quad, Opacity(1.0, 2.0), eps, n_steps * 0.5 * eps**2)


@settings(max_examples=40, deadline=None)
@given(**SOLVER_CASES)
def test_spectral_diagnostics_equal_physical_formulas(n_x, velocity, eps, seed):
    """Mass, energy and defect that the loop takes from the spectrum equal
    the physical-space formulas on the transformed-back field, for rough
    data with Nyquist content."""
    config = rough_case(n_x, velocity, eps)
    grid, quad = config.grid, config.quad
    rho0 = np.random.default_rng(seed).uniform(0.1, 2.0, n_x)
    traj = run_kinetic(config, rho0)
    fields = stepped_fields(config, equilibrium_field(quad, rho0))
    for k, f in enumerate(fields):
        assert traj.mass[k] == pytest.approx(grid.integrate(density(quad, f)), rel=1e-13)
        assert traj.energy[k] == pytest.approx(weighted_inner(grid, quad, f, f), rel=1e-13)
        lf = relaxation_operator(quad, f)
        defect = math.sqrt(weighted_inner(grid, quad, lf, lf)) / eps
        # <f> F - f cancels: its rounding error scales with the field, so a
        # defect near equilibrium is held to the field's norm
        scale = math.sqrt(traj.energy[k]) / eps
        assert traj.defect[k] == pytest.approx(defect, rel=1e-13, abs=1e-13 * scale)


@settings(max_examples=40, deadline=None)
@given(**SOLVER_CASES)
def test_fused_steps_equal_the_unfused_composition(n_x, velocity, eps, seed):
    """The spectral loop matches two half translations per step on rough
    fields; for even n_x this holds only with the Nyquist projection."""
    config = rough_case(n_x, velocity, eps)
    f0 = np.random.default_rng(seed).uniform(0.1, 2.0, (config.quad.n_v, n_x))
    fused = stepped_fields(config, f0)[-1]
    unfused = unfused_fields(config, f0)
    assert np.max(np.abs(fused - unfused)) <= 1e-12 * np.max(np.abs(unfused))


@settings(max_examples=60, deadline=None)
@given(
    n_x=st.integers(4, 64),
    velocity=st.sampled_from(["two-speed", "legendre"]),
    opacity=st.one_of(
        st.builds(lambda s0, s1: Opacity(s0, s0 + s1), st.floats(0.1, 5.0), st.floats(0.0, 5.0)),
        st.floats(0.1, 5.0).map(lambda s0: Opacity(s0, s0)),
    ),
    eps=st.floats(0.05, 1.0),
    dt_fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_noise_off_step_conserves_mass_and_never_gains_energy(n_x, velocity, opacity, eps,
                                                               dt_fraction, seed):
    grid = TorusGrid(n_x)
    quad = build_velocity_space(velocity)
    dt = dt_fraction * 0.5 * eps**2
    config = KineticConfig(grid, quad, opacity, eps, dt, dt=dt)
    f = np.random.default_rng(seed).uniform(0.05, 3.0, (quad.n_v, n_x))
    before = np.fft.rfft(f)[None]
    after = KineticStepper(config, [None]).step(before, 0)

    def mass(f_hat):
        return grid.cell_volume * density(quad, f_hat)[0, 0].real

    assert mass(after) == pytest.approx(mass(before), rel=1e-13)
    assert spectral_energy(grid, quad, after)[0] <= spectral_energy(grid, quad, before)[0] * (1 + 1e-13)


#: ways a row of the block property fails from a time on: NaN occupations,
#: a gain that keeps the noise exponent near 40 (the field overflows a few
#: steps later) or one that breaks EXPONENT_LIMIT at once
ALTERATIONS = {
    "nan": nan_path,
    "hot": lambda path, t: LoudPath(path, t, 400.0),
    "loud": lambda path, t: LoudPath(path, t, 1e6),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    n_x=st.sampled_from([7, 8, 16]),
    velocity=st.sampled_from(["two-speed", "legendre"]),
    rows=st.integers(1, 5),
    n_steps=st.integers(1, 24),
    stride=st.integers(1, 9),
    noisy=st.booleans(),
    block=st.one_of(st.sampled_from([2, None]), st.integers(3, 30)),
    failures=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(sorted(ALTERATIONS)),
                                st.floats(0.0, 1.0)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# row 0 overflows at step 5, then breaks the exponent limit at step 6 of the
# same block: its first failure is the overflow
@example(n_x=8, velocity="two-speed", rows=1, n_steps=10, stride=1, noisy=True, block=None,
         failures=[(0, "hot", 0.0), (0, "loud", 0.55)], seed=0)
def test_blocks_keep_every_row_and_failure(n_x, velocity, rows, n_steps, stride, noisy,
                                           block, failures, seed):
    """Any block length records the bits and raises the error that one step
    per block does: mass, energy, defect and snapshots of every row, and
    with rows failing from random times on, the lowest failing row at its
    own first failure.  Rows that step past their failure inside a block
    warn of nothing."""
    grid = TorusGrid(n_x)
    quad = build_velocity_space(velocity)
    model = telegraph_noise(grid, cosine_profile(grid, 1.0, 1), 1.0) if noisy else None
    config = KineticConfig(grid, quad, Opacity(1.0, 2.0), 0.5, n_steps * 0.1, dt=0.1,
                           noise=model, snapshot_stride=stride)
    rng = np.random.default_rng(seed)
    rho0 = rng.uniform(0.5, 1.5, n_x)
    paths = [sample_path(model, 0.5, config.t_final, rng) if noisy else None for _ in range(rows)]
    for row, kind, when in failures:
        if noisy and row < rows:
            paths[row] = ALTERATIONS[kind](paths[row], when * config.t_final)

    def run(block):
        with fixed_blocks(block), mock.patch.object(kinetic, "occupation_table", loud_table):
            try:
                return kinetic._trajectories(config, rho0, paths, first_sample=0)
            except FloatingPointError as exc:
                return str(exc)

    single, blocked = run(1), run(block)
    if isinstance(single, str):
        assert blocked == single
        return
    # times, snapshots, step times, mass, energy and defect of every row
    for a, b in zip(single, blocked):
        assert a.tobytes() == b.tobytes()
