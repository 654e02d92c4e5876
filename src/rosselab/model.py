"""Model ingredients: periodic grid, velocity quadrature, opacity law.

The kinetic unknown f(x, v) lives on the periodic unit torus in x and on a
finite velocity quadrature in v.  The macroscopic density is the velocity
average <f> = sum_k w_k f(x, v_k), and all kinetic norms are taken in the
equilibrium-weighted space with squared norm

    ||f||^2 = int sum_k w_k |f(x, v_k)|^2 / F(v_k) dx.

Space is the last axis of every array, as for densities: a kinetic field is
an array of shape ``(..., n_v, n_x)``, one row per velocity node.  The
velocity operations below are linear in f, so they act alike on a field and
on its Fourier transform along x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: most Legendre velocity nodes: leggauss solves a dense eigenproblem of
#: this size, whose cost grows with its cube (about 3 s at 1000 nodes)
MAX_VELOCITY_NODES = 256


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the one-dimensional periodic unit torus [0, 1)."""

    n_x: int

    def __post_init__(self) -> None:
        if self.n_x < 4:
            raise ValueError(f"n_x must be at least 4, got {self.n_x}")

    @property
    def shape(self) -> tuple[int]:
        return (self.n_x,)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_x

    @property
    def cell_volume(self) -> float:
        return self.spacing

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n_x) / self.n_x

    def integrate(self, values: np.ndarray) -> np.ndarray | float:
        """Integrate over the torus (leading axis of ``values``)."""
        return self.cell_volume * np.sum(values, axis=0)


def l2_norm_sq(grid: TorusGrid, rho: np.ndarray):
    """Squared spatial L^2 norm of each density field of rho (..., n_x)."""
    return grid.cell_volume * np.sum(rho * rho, axis=-1)


def step_count(span: float, max_dt: float) -> int:
    """The fewest equal steps of at most max_dt in span (1e-12 above a whole number rounds down)."""
    return max(int(math.ceil(span / max_dt - 1e-12)), 1)


def check_whole_steps(t_final: float, dt: float) -> None:
    """Raise ValueError unless t_final > 0 is a positive whole number of steps dt, to a relative 1e-9."""
    steps = t_final / dt
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(n * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final = {t_final:g} is not an integer multiple of dt = {dt:g}")


#: velocity-averaging regularity exponent of the velocity models; Sobolev
#: diagnostics of kinetic densities need an order below half of it
SMOOTHING_EXPONENT = 1.0


def check_sobolev_order(order: float) -> None:
    """Raise ValueError unless 0 < order < SMOOTHING_EXPONENT / 2."""
    if not 0.0 < order < SMOOTHING_EXPONENT / 2.0:
        raise ValueError(
            f"Sobolev order {order} must be positive and below half the smoothing "
            f"exponent {SMOOTHING_EXPONENT} of the velocity space"
        )


@dataclass(frozen=True, eq=False)
class VelocityQuadrature:
    """Discrete velocity measure with equilibrium profile and transport speeds.

    ``weights`` discretize the velocity measure at the nodes v_k, ``speeds``
    are the transport speeds a(v_k) = v_k with vanishing equilibrium flux
    sum_k w_k a_k F_k = 0, and ``equilibrium`` is the positive profile F
    with <F> = 1.
    """

    weights: np.ndarray
    speeds: np.ndarray
    equilibrium: np.ndarray

    def __post_init__(self) -> None:
        n = self.speeds.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 velocity nodes, got {n}")
        for label in ("weights", "equilibrium"):
            if getattr(self, label).shape != (n,):
                raise ValueError(f"{label} must have shape ({n},)")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if np.any(self.equilibrium <= 0.0):
            raise ValueError("equilibrium profile must be positive")

    @property
    def n_v(self) -> int:
        return self.speeds.shape[0]

    def equilibrium_mass(self) -> float:
        """<F>, exactly 1 after builder normalization."""
        return math.fsum(self.weights * self.equilibrium)

    def null_flux(self) -> float:
        """Equilibrium flux sum_k w_k a_k F_k; exactly 0 for symmetric layouts.

        Uses exact summation so that mirror-symmetric node layouts cancel
        without roundoff.
        """
        return math.fsum(self.weights * self.speeds * self.equilibrium)

    def diffusion_coefficient(self) -> float:
        """K = sum_k w_k a_k^2 F_k, the diffusion coefficient of the limit."""
        return math.fsum(self.weights * self.speeds**2 * self.equilibrium)


def velocity_node_count(name: str, n_nodes: int | None = None) -> int:
    """Number of nodes of the named velocity model of ``build_velocity_space``:
    2 for ``two-speed``, n_nodes (default 8) for ``legendre``, from 2 up to
    MAX_VELOCITY_NODES.  Raises ValueError for an unknown name or a node
    count the model cannot have."""
    key = name.strip().lower()
    if key == "two-speed":
        if n_nodes not in (None, 2):
            raise ValueError("the two-speed model has exactly 2 nodes")
        return 2
    if key == "legendre":
        n = 8 if n_nodes is None else n_nodes
        if n < 2:
            raise ValueError(f"need at least 2 velocity nodes, got {n}")
        if n > MAX_VELOCITY_NODES:
            raise ValueError(f"need at most {MAX_VELOCITY_NODES} velocity nodes, got {n}")
        return n
    raise ValueError(f"unknown velocity model {name!r}; use 'two-speed' or 'legendre'")


def build_velocity_space(name: str, n_nodes: int | None = None) -> VelocityQuadrature:
    """Build a named velocity model with ``velocity_node_count`` nodes.

    ``two-speed``: nodes +-1 with weights 1/2, flat equilibrium F = 1, K = 1.
    ``legendre``: Gauss-Legendre nodes on [-1, 1] with F = 1/2, K = 1/3; the
    quadrature is exact for v^2 for any n_nodes >= 2 (default 8).
    """
    n = velocity_node_count(name, n_nodes)
    if name.strip().lower() == "two-speed":
        return VelocityQuadrature(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    x, w = np.polynomial.legendre.leggauss(n)
    # Enforce a bitwise mirror-symmetric layout so that odd moments
    # cancel exactly.
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    equilibrium = np.full(n, 0.5)
    w = w / math.fsum(w * equilibrium)
    return VelocityQuadrature(w, x, equilibrium)


def density(quad: VelocityQuadrature, f: np.ndarray) -> np.ndarray:
    """Velocity average <f> over the velocity axis, shape (..., n_x)."""
    return quad.weights @ f


def equilibrium_field(quad: VelocityQuadrature, rho: np.ndarray) -> np.ndarray:
    """Local equilibrium rho(x) F(v), shape (..., n_v, n_x)."""
    return quad.equilibrium[:, None] * np.asarray(rho)[..., None, :]


def weighted_inner(grid: TorusGrid, quad: VelocityQuadrature, f: np.ndarray, g: np.ndarray) -> float:
    """Inner product in the equilibrium-weighted space, (f, g) = int <fg/F> dx."""
    return float(grid.cell_volume * np.sum((quad.weights / quad.equilibrium) @ (f * g)))


def relaxation_operator(quad: VelocityQuadrature, f: np.ndarray) -> np.ndarray:
    """L f = <f> F - f, the collisional relaxation toward local equilibrium."""
    return equilibrium_field(quad, density(quad, f)) - f


class Opacity:
    """Density-dependent relaxation rate

        sigma(u) = sigma_star + (sigma_upper - sigma_star) / (1 + u^2),

    decreasing in |u| from sigma_upper at u = 0 toward sigma_star, so that
    sigma_star <= sigma(u) <= sigma_upper; sigma_upper = sigma_star is the
    constant rate.  The limit solvers split their diffusion at the midpoint
    of the diffusivities these bound.
    """

    def __init__(self, sigma_star: float, sigma_upper: float):
        if not sigma_star > 0.0:
            raise ValueError(f"sigma_star = {sigma_star:g} must be positive")
        if not sigma_upper >= sigma_star:
            raise ValueError(f"sigma_upper = {sigma_upper:g} must be at least sigma_star = {sigma_star:g}")
        self.sigma_star = sigma_star
        self.spread = sigma_upper - sigma_star
        # the rate at u = 0, bit for bit
        self.sigma_upper = sigma_star + self.spread

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.sigma_star + self.spread / (1.0 + u * u)

    def primitive(self, u: np.ndarray) -> np.ndarray:
        """G with G'(u) = 1/sigma(u) and G(0) = 0, the nonlinear diffusion
        flux of the limit equation."""
        u = np.asarray(u, dtype=float)
        s0, s1 = self.sigma_star, self.spread
        scale = math.sqrt(s0 / (s0 + s1))
        return u / s0 - (s1 / s0) / math.sqrt(s0 * (s0 + s1)) * np.arctan(scale * u)


def relax_exact(
    quad: VelocityQuadrature,
    opacity: Opacity,
    f: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Exact relaxation flow over a time tau >= 0.

    The relaxation ODE d_t f = sigma(<f>) (<f> F - f) preserves <f>, so it
    integrates exactly to

        f(tau) = <f> F + (f - <f> F) exp(-tau sigma(<f>)).
    """
    if tau < 0.0:
        raise ValueError(f"relaxation time must be nonnegative, got {tau}")
    rho = density(quad, f)
    eq = equilibrium_field(quad, rho)
    decay = np.exp(-tau * opacity(rho))
    return eq + (f - eq) * decay[..., None, :]
