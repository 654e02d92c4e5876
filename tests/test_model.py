"""Structural identities of the velocity models, opacities and relaxation flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

MODELS = ["two-speed", "legendre"]


def random_kinetic_field(grid, quad, rng, scale=1.0):
    return scale * rng.standard_normal((quad.n_v,) + grid.shape)


# --- grid ---------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(2)


def test_grid_integrate_constant():
    grid = TorusGrid(16)
    assert grid.integrate(np.ones(grid.shape)) == pytest.approx(1.0, abs=1e-15)


def test_l2_norm_of_cosine():
    # ||cos(2 pi x)||^2 = 1/2 exactly on any even grid
    grid = TorusGrid(32)
    rho = np.cos(2.0 * np.pi * grid.axis_points())
    assert abs(l2_norm_sq(grid, rho) - 0.5) <= 1e-14


# --- velocity quadratures ----------------------------------------------


@pytest.mark.parametrize("name", MODELS)
def test_equilibrium_mass_is_one(name):
    quad = build_velocity_space(name)
    assert abs(quad.equilibrium_mass() - 1.0) <= 1e-15


@pytest.mark.parametrize("name", MODELS)
def test_null_flux_is_exactly_zero(name):
    quad = build_velocity_space(name)
    assert quad.null_flux() == 0.0


def test_two_speed_diffusion_coefficient():
    quad = build_velocity_space("two-speed")
    assert quad.diffusion_coefficient() == 1.0


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_legendre_diffusion_coefficient_exact_third(n):
    # Gauss-Legendre integrates v^2 exactly for any n >= 2
    quad = build_velocity_space("legendre", n)
    assert abs(quad.diffusion_coefficient() - 1.0 / 3.0) <= 1e-15


def test_velocity_space_rejects_bad_requests():
    with pytest.raises(ValueError):
        build_velocity_space("legendre", 1)
    with pytest.raises(ValueError):
        build_velocity_space("two-speed", 4)
    with pytest.raises(ValueError):
        build_velocity_space("maxwellian")


# --- opacities ----------------------------------------------------------


def test_rational_opacity_bounds_and_limits():
    sigma = Opacity(1.0, 2.0)
    assert sigma(0.0) == 2.0
    assert sigma.sigma_star == 1.0
    assert sigma.sigma_upper == 2.0
    u = np.linspace(-50.0, 50.0, 1001)
    vals = sigma(u)
    assert np.all(vals >= sigma.sigma_star)
    assert np.all(vals <= sigma.sigma_upper)


@pytest.mark.parametrize(
    "u,expected",
    [
        (0.5, 0.2596990168275116),
        (1.0, 0.5647901243164485),
        (2.0, 1.32448914114396),
    ],
)
def test_rational_primitive_closed_form(u, expected):
    # frozen values of u - arctan(u/sqrt(2))/sqrt(2)
    sigma = Opacity(1.0, 2.0)
    assert sigma.primitive(u) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("s0,s1", [(1.0, 1.0), (0.7, 2.3), (2.0, 0.0)])
def test_primitive_matches_quadrature_of_reciprocal_rate(s0, s1):
    # independent route: G(u) = int_0^u ds / sigma(s) by composite quadrature
    sigma = Opacity(s0, s0 + s1)
    x, w = np.polynomial.legendre.leggauss(40)
    for u in (0.3, 1.0, 2.5):
        t = 0.5 * u * (x + 1.0)
        gauss = float(np.sum(0.5 * u * w / sigma(t)))
        assert sigma.primitive(u) == pytest.approx(gauss, abs=1e-13)


def test_primitive_derivative_is_reciprocal_rate():
    sigma = Opacity(1.3, 2.1)
    u = np.linspace(-2.0, 2.0, 41)
    h = 1e-5
    deriv = (sigma.primitive(u + h) - sigma.primitive(u - h)) / (2.0 * h)
    assert np.allclose(deriv, 1.0 / sigma(u), atol=1e-9)


def test_constant_opacity():
    sigma = Opacity(2.5, 2.5)
    assert sigma(1.7) == 2.5
    assert sigma.primitive(5.0) == 2.0


@settings(max_examples=200, deadline=None)
@given(
    sigma_star=st.floats(1e-2, 1e2),
    spread=st.floats(0.0, 1e2),
    u=arrays(float, st.integers(0, 8), elements=st.floats(-1e3, 1e3)),
)
def test_opacity_law_is_bounded_with_reciprocal_primitive(sigma_star, spread, u):
    u = np.append(u, 0.0)
    sigma = Opacity(sigma_star, sigma_star + spread)
    rate = sigma(u)
    assert np.all((sigma.sigma_star <= rate) & (rate <= sigma.sigma_upper))
    assert sigma(0.0) == sigma.sigma_upper
    assert sigma.primitive(0.0) == 0.0
    h = 1e-6 * np.maximum(1.0, np.abs(u))
    deriv = (sigma.primitive(u + h) - sigma.primitive(u - h)) / (2.0 * h)
    assert np.allclose(deriv, 1.0 / rate, rtol=1e-5, atol=0.0)
    # zero spread is the constant rate, bit for bit
    flat = Opacity(sigma_star, sigma_star)
    assert np.array_equal(flat(u), np.full(u.shape, sigma_star))
    assert np.array_equal(flat.primitive(u), u / sigma_star)


def test_rational_opacity_rejects_bad_coefficients():
    for sigma_star, sigma_upper in [(-1.0, 1.0), (0.0, 1.0), (2.0, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            Opacity(sigma_star, sigma_upper)


# --- kinetic fields and relaxation --------------------------------------


@pytest.mark.parametrize("name", MODELS)
def test_density_of_equilibrium(name):
    grid = TorusGrid(16)
    quad = build_velocity_space(name)
    rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.axis_points())
    f = equilibrium_field(quad, rho)
    assert np.allclose(density(quad, f), rho, atol=1e-15)


@pytest.mark.parametrize("name", MODELS)
def test_relaxation_operator_has_zero_average(name):
    grid = TorusGrid(8)
    quad = build_velocity_space(name)
    rng = np.random.default_rng(11)
    f = random_kinetic_field(grid, quad, rng)
    lf = relaxation_operator(quad, f)
    assert np.max(np.abs(density(quad, lf))) <= 1e-14


@pytest.mark.parametrize("name", MODELS)
def test_dissipation_identity(name):
    # (sigma(<f>) L f, f) = -||sqrt(sigma(<f>)) L f||^2 in the weighted space
    grid = TorusGrid(16)
    quad = build_velocity_space(name)
    sigma = Opacity(1.0, 2.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = random_kinetic_field(grid, quad, rng, scale=2.0)
        lf = relaxation_operator(quad, f)
        rate = sigma(density(quad, f))
        lhs = weighted_inner(grid, quad, rate * lf, f)
        scaled = np.sqrt(rate) * lf
        rhs = -weighted_inner(grid, quad, scaled, scaled)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_relax_exact_two_speed_half_life():
    # constant rate 1, tau = log 2 halves the distance to equilibrium:
    # f = (0, 2) has rho = 1 and relaxes to (1/2, 3/2)
    quad = build_velocity_space("two-speed")
    f = np.array([[0.0], [2.0]])
    out = relax_exact(quad, Opacity(1.0, 1.0), f, math.log(2.0))
    assert np.allclose(out, [[0.5], [1.5]], atol=1e-14)


@pytest.mark.parametrize("name", MODELS)
def test_relax_exact_semigroup_law(name):
    grid = TorusGrid(8)
    quad = build_velocity_space(name)
    sigma = Opacity(1.0, 2.0)
    rng = np.random.default_rng(23)
    f = random_kinetic_field(grid, quad, rng)
    two_step = relax_exact(quad, sigma, relax_exact(quad, sigma, f, 0.3), 0.5)
    one_step = relax_exact(quad, sigma, f, 0.8)
    assert np.allclose(two_step, one_step, atol=1e-12)


@pytest.mark.parametrize("name", MODELS)
def test_relax_exact_preserves_density_and_fixes_equilibrium(name):
    grid = TorusGrid(8)
    quad = build_velocity_space(name)
    sigma = Opacity(1.0, 2.0)
    rng = np.random.default_rng(5)
    f = random_kinetic_field(grid, quad, rng)
    rho = density(quad, f)
    out = relax_exact(quad, sigma, f, 1.7)
    assert np.allclose(density(quad, out), rho, atol=1e-13)
    eq = equilibrium_field(quad, rho)
    assert np.allclose(relax_exact(quad, sigma, eq, 2.0), eq, atol=1e-13)


def test_relax_exact_rejects_negative_time():
    quad = build_velocity_space("two-speed")
    with pytest.raises(ValueError):
        relax_exact(quad, Opacity(1.0, 1.0), np.zeros((2, 4)), -0.1)


def test_relax_exact_converges_to_equilibrium():
    grid = TorusGrid(8)
    quad = build_velocity_space("legendre")
    rng = np.random.default_rng(3)
    f = random_kinetic_field(grid, quad, rng)
    out = relax_exact(quad, Opacity(1.0, 2.0), f, 60.0)
    eq = equilibrium_field(quad, density(quad, f))
    assert np.allclose(out, eq, atol=1e-12)
