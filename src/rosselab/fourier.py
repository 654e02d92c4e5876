"""Spectral derivatives and norms on the periodic unit torus.

Fourier coefficients follow the analyst's convention on [0, 1):
rho_hat(xi) = int rho(x) exp(-2 pi i xi x) dx with integer frequencies xi,
so Parseval reads ||rho||_{L^2}^2 = sum_xi |rho_hat(xi)|^2.  All derivatives
are exact for trigonometric polynomials resolved by the grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import TorusGrid


@functools.lru_cache(maxsize=None)
def _wavenumbers(n_x: int) -> np.ndarray:
    """Integer frequencies in full FFT layout."""
    return np.fft.fftfreq(n_x, d=1.0 / n_x)


@functools.lru_cache(maxsize=None)
def _laplace_symbol(n_x: int) -> np.ndarray:
    """Symbol of the Laplacian, -4 pi^2 xi^2."""
    k = _wavenumbers(n_x)
    return -4.0 * np.pi**2 * (k * k)


@functools.lru_cache(maxsize=None)
def half_laplace_symbol(n_x: int) -> np.ndarray:
    """Symbol of the Laplacian in the rfft layout, xi = 0, ..., n_x // 2."""
    k = np.arange(n_x // 2 + 1, dtype=float)
    return -4.0 * np.pi**2 * (k * k)


def gradient(grid: TorusGrid, rho: np.ndarray) -> np.ndarray:
    """Spectral derivative of a scalar field."""
    rho_hat = np.fft.fft(rho)
    out = np.fft.ifft(2j * np.pi * _wavenumbers(grid.n_x) * rho_hat)
    return np.ascontiguousarray(out.real)


def laplacian(grid: TorusGrid, rho: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of a scalar field."""
    rho_hat = np.fft.fft(rho)
    return np.fft.ifft(_laplace_symbol(grid.n_x) * rho_hat).real


def sobolev_norm_sq(grid: TorusGrid, rho: np.ndarray, s: float):
    """Squared H^s norm, sum_xi (1 + 4 pi^2 xi^2)^s |rho_hat(xi)|^2, of each
    field of rho (..., n_x)."""
    weight = (1.0 - _laplace_symbol(grid.n_x)) ** s
    c = np.fft.fft(rho) * grid.cell_volume
    return np.sum(weight * (c.real**2 + c.imag**2), axis=-1)
