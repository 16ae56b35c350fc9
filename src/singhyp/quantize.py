"""Periodic grid, DFT conventions, Fourier multipliers, Kohn-Nirenberg operators,
the infinite-order loss operator, and weighted Sobolev norms.

Conventions
-----------
The line is modeled by the torus ``[-L, L)`` sampled at ``x_i = -L + 2L*i/N``
with frequencies ``xi_j = (pi/L)*j``, ``j in {-N/2, ..., N/2 - 1}`` (stored in
FFT layout; the Nyquist mode carries the negative frequency ``-N/2``).  The
transform pair is

    ``coeff_j = dx * sum_i u_i exp(-i xi_j x_i)``
    ``u_i    = (1/2L) * sum_j coeff_j exp(+i xi_j x_i)``

so Parseval reads ``sum |u_i|^2 dx = (1/2L) sum_j |coeff_j|^2`` and the discrete
L2 norm of a single mode ``exp(i xi_j x)`` is ``sqrt(2L)``.

A symbol ``a(x, xi)`` acts in left (Kohn-Nirenberg) quantization:

    ``(Op(a)u)(x_i) = (1/2L) * sum_j a(x_i, xi_j) coeff_j exp(i x_i xi_j)``

i.e. the frequency part acts first, multiplication by x-factors second; for a
product symbol ``g(x)m(xi)`` this is exactly ``g * (m(D)u)``.  :func:`kn_band`
forms this product on some columns ``cols`` of the lattice, stored xi-major: the
cached phase matrix ``exp(i xi_j x_i)`` has rows ``j``, so a band is a block of
whole rows, and ``coeff[cols] @ band / (2L)`` is its part of ``Op(a)u``.  Symbol
lattices are evaluated x-major (rows ``x``) and transposed only in that product.
:func:`apply_kn` is the dense O(N^2) product through all columns, the reference.

Legitimacy of the torus model: structure functions are evaluated as given
(non-periodic), so runs keep data supported in ``|x| <= L/2`` and stop before
the dependence cone reaches ``|x| = 3L/4``; x-independent problems are exactly
periodic and exempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .structure import StructurePair, bracket

__all__ = [
    "GridSpec",
    "SobolevIndex",
    "OverflowGuardError",
    "dft_forward",
    "dft_inverse",
    "l2_norm",
    "apply_multiplier",
    "kn_band",
    "apply_kn",
    "loss_symbol",
    "loss_operator",
    "sobolev_norm",
]

EXP_GUARD = 700.0  # double precision overflows just above exp(709)


class OverflowGuardError(ArithmeticError):
    """Raised when a multiplier or exponential weight would overflow doubles."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on ``[-L, L)`` with ``N`` points (power of two) and shift ``k``."""

    L: float
    N: int
    k: float = 1.0

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"grid half-length must be positive, got {self.L}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not self.k >= 1.0:
            raise ValueError(f"spectral shift k must satisfy k >= 1, got {self.k}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return _grid_arrays(self)[0]

    @property
    def xi(self) -> np.ndarray:
        """Frequencies in FFT layout: ``(pi/L) * [0, 1, ..., N/2-1, -N/2, ..., -1]``."""
        return _grid_arrays(self)[1]

    @property
    def xi_odd(self) -> np.ndarray:
        """:attr:`xi` with the ``-N/2`` entry zeroed, for odd (derivative type)
        multipliers, where the Nyquist frequency's sign is a pure convention."""
        return _grid_arrays(self)[3]

    @property
    def xi_max(self) -> float:
        return (np.pi / self.L) * (self.N // 2)


@lru_cache(maxsize=32)
def _grid_arrays(grid: GridSpec):
    i = np.arange(grid.N)
    x = -grid.L + grid.dx * i
    j = np.where(i < grid.N // 2, i, i - grid.N)
    xi = (np.pi / grid.L) * j
    phase = np.where(j % 2 == 0, 1.0, -1.0)  # exp(i xi_j L) = (-1)^j
    xi_odd = np.where(i == grid.N // 2, 0.0, xi)
    for a in (x, xi, phase, xi_odd):
        a.setflags(write=False)
    return x, xi, phase, xi_odd


@lru_cache(maxsize=4)
def _kn_phase(grid: GridSpec) -> np.ndarray:
    """``exp(i xi_j x_i)`` with rows ``j`` (xi-major)."""
    E = np.exp(1j * np.outer(grid.xi, grid.x))
    E.setflags(write=False)
    return E


def dft_forward(grid: GridSpec, values) -> np.ndarray:
    u = np.asarray(values)
    if u.shape != (grid.N,):
        raise ValueError(f"field size {u.shape} does not match grid N={grid.N}")
    phase = _grid_arrays(grid)[2]
    return grid.dx * phase * np.fft.fft(u)


def dft_inverse(grid: GridSpec, coeffs) -> np.ndarray:
    c = np.asarray(coeffs)
    if c.shape != (grid.N,):
        raise ValueError(f"coefficient size {c.shape} does not match grid N={grid.N}")
    phase = _grid_arrays(grid)[2]
    return np.fft.ifft(c * phase) / grid.dx


def l2_norm(grid: GridSpec, values) -> float:
    """Discrete L2 norm ``sqrt(dx * sum |u|^2)``."""
    u = np.asarray(values)
    return float(np.sqrt(grid.dx * np.sum(np.abs(u) ** 2)))


def _multiplier_values(grid: GridSpec, m) -> np.ndarray:
    """``m`` (a callable on ``grid.xi``, or values) as a new read-only complex N-array."""
    vals = np.full(grid.N, m(grid.xi) if callable(m) else m, dtype=complex)
    ok = np.isfinite(vals)
    if not ok.all():
        raise OverflowGuardError(f"multiplier not finite on the grid (max finite magnitude "
                                 f"{np.max(np.abs(vals[ok]), initial=0.0):.3e}, "
                                 f"{np.count_nonzero(~ok)} bad entries)")
    vals.setflags(write=False)
    return vals


def _fft_multiply(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``m(D) u`` for grid values ``u`` and the values ``m`` of a multiplier on ``grid.xi``,
    unchecked: ``ifft(fft(u) * m)`` is ``dft_inverse(dft_forward(u) * m)``, as the phases
    ``(-1)^j`` square to 1 and ``dx`` cancels, bitwise when ``dx`` is a power of two."""
    return np.fft.ifft(np.fft.fft(u) * m)


def apply_multiplier(grid: GridSpec, m, values) -> np.ndarray:
    """Apply a Fourier multiplier ``m(xi)``, checked by :func:`_multiplier_values`; an odd
    (derivative type) one is built on :attr:`GridSpec.xi_odd`.  :func:`_fft_multiply` applies
    it, equal to ``dft_inverse(dft_forward(u) * m)``, bitwise so when ``dx`` is a power of two."""
    vals, u = _multiplier_values(grid, m), np.asarray(values)
    if u.shape != (grid.N,):
        raise ValueError(f"field size {u.shape} does not match grid N={grid.N}")
    return _fft_multiply(vals, u)


def kn_band(grid: GridSpec, lattice, cols) -> np.ndarray:
    """``exp(i xi_j x) a(x, xi_j)`` on the lattice columns ``cols`` (indices or a slice),
    stored xi-major: row ``r`` is lattice column ``cols[r]``, so ``coeffs[cols] @ band / (2L)``
    is their part of ``Op(a) u``.  ``lattice`` has rows x (it may be anything that broadcasts
    to ``(N, len(cols))``); OverflowGuardError unless finite."""
    if not np.all(np.isfinite(lattice)):
        raise OverflowGuardError("Kohn-Nirenberg symbol not finite on the grid lattice")
    return _kn_phase(grid)[cols] * np.atleast_2d(lattice).T


def apply_kn(grid: GridSpec, symbol, values) -> np.ndarray:
    """Dense Kohn-Nirenberg application of a symbol ``a(x, xi)``.

    ``symbol`` is either a callable evaluated on the grid lattice (broadcasting
    over an ``(N, 1) x (1, N)`` meshgrid) or a precomputed ``(N, N)`` array with
    rows indexed by ``x`` and columns by ``xi`` in FFT layout.  Cost O(N^2).
    """
    if callable(symbol):
        symbol = symbol(grid.x[:, None], grid.xi[None, :])
    return dft_forward(grid, values) @ kn_band(grid, symbol, slice(None)) / (2.0 * grid.L)


@dataclass(frozen=True)
class SobolevIndex:
    """Index of the weighted space: derivative order s1, decay order s2,
    sub-exponential amplitude eps, and its order sigma >= 3."""

    s1: float
    s2: float
    eps: float = 0.0
    sigma: float = 3.0
    k: float = 1.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.sigma < 3.0:
            raise ValueError(f"sigma >= 3 required, got {self.sigma}")


def loss_symbol(grid: GridSpec, pair: StructurePair, eps: float, sigma: float):
    """Exponent array ``eps * (Phi(x) <xi>_k)**(1/sigma)`` on the grid lattice."""
    return eps * (pair.phi(grid.x)[:, None] * bracket(grid.xi, grid.k)[None, :]) ** (1.0 / sigma)


def _guard_exponent(w_max: float):
    if w_max > EXP_GUARD:
        raise OverflowGuardError(
            f"loss-operator exponent reaches {w_max:.1f} > {EXP_GUARD:.0f}; "
            "reduce eps, the grid bandwidth, or Phi")


def loss_operator(grid: GridSpec, pair: StructurePair, eps: float, sigma: float,
                  values) -> np.ndarray:
    """Apply ``exp(eps * (Phi(x) <D>_k)**(1/sigma))`` in left quantization.

    ``eps = 0`` is the identity.  Collapses to a Fourier multiplier when the
    pair is constant.  Raises :class:`OverflowGuardError` when the exponent
    exceeds 700 anywhere on the lattice.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return dft_inverse(grid, dft_forward(grid, values))
    if pair.is_constant:
        phi0 = float(np.asarray(pair.phi(0.0)))
        w = eps * (phi0 * bracket(grid.xi, grid.k)) ** (1.0 / sigma)
        _guard_exponent(float(np.max(w)))
        return apply_multiplier(grid, np.exp(w), values)
    w = loss_symbol(grid, pair, eps, sigma)
    _guard_exponent(float(np.max(w)))
    return apply_kn(grid, np.exp(w), values)


def sobolev_norm(grid: GridSpec, values, index: SobolevIndex, pair: StructurePair) -> float:
    """Weighted Sobolev norm ``|| Phi^s2 <D>_k^s1 exp(eps (Phi <D>_k)^(1/sigma)) u ||_L2``.

    Operators apply in exactly that order: exponential first, then the
    ``<xi>_k**s1`` multiplier, then multiplication by ``Phi(x)**s2``.
    """
    if index.k != grid.k:
        raise ValueError(f"index.k={index.k} does not match grid.k={grid.k}")
    w = loss_operator(grid, pair, index.eps, index.sigma, values)
    if index.s1 != 0.0:
        w = apply_multiplier(grid, bracket(grid.xi, grid.k) ** index.s1, w)
    if index.s2 != 0.0:
        w = pair.phi(grid.x) ** index.s2 * w
    return l2_norm(grid, w)
