"""Independent references for the workloads' correctness checks.

Nothing here calls the library's transforms or operators: the dense
Kohn-Nirenberg product uses its own DFT matrices on its own grid, and the
counterexample solutions are written out from their closed forms.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


class Lattice:
    """The ``x``/``xi`` lattice of a periodic grid on ``[-L, L)`` with ``N`` points,
    and the dense left (Kohn-Nirenberg) quantization on it.

    Frequencies run in natural order ``(pi/L) * (-N/2, ..., N/2 - 1)``; a symbol
    evaluated on ``(X, XI)`` is applied as
    ``(1/2L) sum_j a(x_i, xi_j) coeff_j exp(i x_i xi_j)`` with
    ``coeff_j = dx sum_i u_i exp(-i xi_j x_i)``.
    """

    def __init__(self, L: float, N: int):
        self.L = float(L)
        self.dx = 2.0 * self.L / N
        self.x = -self.L + 2.0 * self.L * np.arange(N) / N
        self.xi = (math.pi / self.L) * np.arange(-(N // 2), N // 2)
        self.X = self.x[:, None]
        self.XI = self.xi[None, :]

    @cached_property
    def _forward(self) -> np.ndarray:
        return self.dx * np.exp(-1j * np.outer(self.xi, self.x))

    @cached_property
    def _inverse(self) -> np.ndarray:
        return np.exp(1j * np.outer(self.x, self.xi)) / (2.0 * self.L)

    def kn(self, symbol_values, u) -> np.ndarray:
        """Dense KN product of a symbol sampled on ``(X, XI)`` with the field ``u``."""
        return (self._inverse * symbol_values) @ (self._forward @ np.asarray(u, dtype=complex))

    def norm(self, u) -> float:
        return math.sqrt(self.dx * float(np.sum(np.abs(u) ** 2)))

    def rel_err(self, got, want) -> float:
        """``||got - want|| / ||want||`` (absolute when ``want`` is zero); inf if not finite."""
        got = np.asarray(got)
        if not np.all(np.isfinite(got)):
            return math.inf
        scale = self.norm(want)
        diff = self.norm(got - want)
        return diff / scale if scale > 0.0 else diff


def finite_loss_coefficients(m: int) -> list[float]:
    """``C_0 = 1``, ``C_j = (-2)^j / j! * (m)_j / (-1/2)_j`` (falling factorials)."""
    coeffs = [1.0]
    for j in range(1, m + 1):
        num = math.prod(m - i for i in range(j))
        den = math.prod(-0.5 - i for i in range(j))
        coeffs.append((-2.0) ** j / math.factorial(j) * num / den)
    return coeffs


def finite_loss_solution(u0, m: int, t: float, x):
    """Example 7.1: ``u = sum_j C_j t^j u0^(j)(x + t)`` and its time derivative."""
    cj = finite_loss_coefficients(m)
    u = sum(c * t ** j * u0(x + t, j) for j, c in enumerate(cj))
    ut = sum(c * (t ** j * u0(x + t, j + 1) + (j * t ** (j - 1) * u0(x + t, j) if j else 0.0))
             for j, c in enumerate(cj))
    return np.asarray(u, dtype=complex), np.asarray(ut, dtype=complex)


def oscillating_speed_solution(u0, t: float, x):
    """Example 7.3: ``u = u0(x + I(t))``, ``I(t) = 2t + 2 sin sqrt t - 2 sqrt t cos sqrt t``."""
    rt = math.sqrt(t)
    drift = 2.0 * t + 2.0 * math.sin(rt) - 2.0 * rt * math.cos(rt)
    u = u0(x + drift, 0)
    ut = (2.0 + math.sin(rt)) * u0(x + drift, 1)
    return np.asarray(u, dtype=complex), np.asarray(ut, dtype=complex)
