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
:func:`_kn_product` applies every such product (:func:`apply_kn`, the dense O(N^2)
reference, the loss operator, the solver's banded and dense operators).  Every public
operator takes a field or a batch of fields along the last axis, checked by :func:`_fields`.

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
        if not 0 < self.L < np.inf:
            raise ValueError(f"grid half-length L must be finite and positive, got {self.L}")
        if (not isinstance(self.N, (int, np.integer)) or self.N < 8
                or (self.N & (self.N - 1)) != 0):
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not 1.0 <= self.k < np.inf:
            raise ValueError(f"spectral shift k must be finite and >= 1, got {self.k}")

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
    dx_phase = grid.dx * phase  # dft_forward's factor of the raw FFT
    for a in (x, xi, phase, xi_odd, dx_phase):
        a.setflags(write=False)
    return x, xi, phase, xi_odd, dx_phase


@lru_cache(maxsize=4)
def _kn_phase(grid: GridSpec) -> np.ndarray:
    """``exp(i xi_j x_i)`` with rows ``j`` (xi-major)."""
    E = np.exp(1j * np.outer(grid.xi, grid.x))
    E.setflags(write=False)
    return E


def _fields(grid: GridSpec, values, name: str = "field") -> np.ndarray:
    """``values`` as grid fields along the last axis; ValueError naming a size other than N."""
    u = np.asarray(values)
    if u.shape[-1:] != (grid.N,):
        raise ValueError(f"{name} size {u.shape} does not match grid N={grid.N}")
    return u


def dft_forward(grid: GridSpec, values) -> np.ndarray:
    """Fourier coefficients of grid fields along the last axis, leading axes a batch."""
    return _grid_arrays(grid)[4] * np.fft.fft(_fields(grid, values))


def dft_inverse(grid: GridSpec, coeffs) -> np.ndarray:
    """Grid fields of Fourier coefficients along the last axis, leading axes a batch."""
    return np.fft.ifft(_fields(grid, coeffs, "coefficient") * _grid_arrays(grid)[2]) / grid.dx


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
    """Apply a Fourier multiplier ``m(xi)`` to grid fields, checked by :func:`_multiplier_values`;
    an odd (derivative type) one is built on :attr:`GridSpec.xi_odd`.  :func:`_fft_multiply` applies
    it, equal to ``dft_inverse(dft_forward(u) * m)``, bitwise so when ``dx`` is a power of two."""
    return _fft_multiply(_multiplier_values(grid, m), _fields(grid, values))


def kn_band(grid: GridSpec, lattice, cols) -> np.ndarray:
    """``exp(i xi_j x) a(x, xi_j)`` on the lattice columns ``cols`` (indices or a slice),
    stored xi-major: row ``r`` is lattice column ``cols[r]``, so ``coeffs[cols] @ band / (2L)``
    is their part of ``Op(a) u``.  ``lattice`` has rows x (it may be anything that broadcasts
    to ``(N, len(cols))``); OverflowGuardError unless finite."""
    if not np.all(np.isfinite(lattice)):
        raise OverflowGuardError("Kohn-Nirenberg symbol not finite on the grid lattice")
    return _kn_phase(grid)[cols] * np.atleast_2d(lattice).T


def _kn_product(grid: GridSpec, u, band, cols=slice(None), terms=()) -> np.ndarray:
    """``Op(a) u`` of grid fields ``u`` (last axis, unchecked) on one raw FFT ``f``: the band part
    ``(dx (-1)^j f)[cols] @ band / (2L)`` (``dx (-1)^j f`` as in :func:`dft_forward`, ``band`` a
    :func:`kn_band` on ``cols``) plus ``w ifft(m f) = w m(D) u`` per ``(w, m)`` of ``terms``."""
    f = np.fft.fft(u)
    out = (_grid_arrays(grid)[4] * f)[..., cols] @ band / (2.0 * grid.L)
    return out + sum(w * np.fft.ifft(m * f) for w, m in terms) if terms else out


def apply_kn(grid: GridSpec, symbol, values) -> np.ndarray:
    """Dense Kohn-Nirenberg application of a symbol ``a(x, xi)`` to grid fields.

    ``symbol`` is either a callable evaluated on the grid lattice (broadcasting
    over an ``(N, 1) x (1, N)`` meshgrid) or a precomputed ``(N, N)`` array with
    rows indexed by ``x`` and columns by ``xi`` in FFT layout.  Cost O(N^2).
    """
    if callable(symbol):
        symbol = symbol(grid.x[:, None], grid.xi[None, :])
    return _kn_product(grid, _fields(grid, values), kn_band(grid, symbol, slice(None)))


@dataclass(frozen=True)
class SobolevIndex:
    """Index of the weighted space: derivative order s1, decay order s2,
    sub-exponential amplitude eps, and its order sigma >= 3."""

    s1: float
    s2: float
    eps: float = 0.0
    sigma: float = 3.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.sigma < 3.0:
            raise ValueError(f"sigma >= 3 required, got {self.sigma}")


def loss_symbol(grid: GridSpec, pair: StructurePair, eps: float, sigma: float):
    """``eps * (Phi(x) <xi>_k)**(1/sigma)`` on the lattice: ``eps *`` :func:`_loss_base`."""
    return eps * np.broadcast_to(_loss_base(grid, pair, sigma), (grid.N, grid.N))


def _loss_base(grid: GridSpec, pair: StructurePair, sigma: float) -> np.ndarray:
    """``S = (Phi(x) <xi>_k)**(1/sigma)``, the loss exponent at ``eps = 1``: the (N, N)
    lattice with rows x, or the N-vector over xi at ``Phi(0)`` when the pair is constant.
    It does not depend on ``eps``, so a caller at many ``eps`` forms it once."""
    br = bracket(grid.xi, grid.k)
    if pair.is_constant:
        return (float(np.asarray(pair.phi(0.0))) * br) ** (1.0 / sigma)
    return (pair.phi(grid.x)[:, None] * br[None, :]) ** (1.0 / sigma)


def _loss_map(grid: GridSpec, base: np.ndarray | None, eps: float):
    """``u -> exp(eps * S) u`` in left quantization of grid fields, ``S = _loss_base(...)``: the
    exponent is checked against ``EXP_GUARD`` and exponentiated once, so every field shares one
    checked multiplier or dense band.  ``eps = 0`` is the DFT round trip, and needs no ``base``."""
    if eps == 0.0:
        return lambda u: dft_inverse(grid, dft_forward(grid, u))
    w = eps * base
    if (w_max := float(np.max(w))) > EXP_GUARD:
        raise OverflowGuardError(f"loss-operator exponent reaches {w_max:.1f} > {EXP_GUARD:.0f}; "
                                 "reduce eps, the grid bandwidth, or Phi")
    if base.ndim == 1:
        m = _multiplier_values(grid, np.exp(w))
        return lambda u: _fft_multiply(m, _fields(grid, u))
    band = kn_band(grid, np.exp(w), slice(None))
    return lambda u: _kn_product(grid, _fields(grid, u), band)


def loss_operator(grid: GridSpec, pair: StructurePair, eps: float, sigma: float,
                  values) -> np.ndarray:
    """Apply ``exp(eps * (Phi(x) <D>_k)**(1/sigma))`` in left quantization to grid fields.

    ``eps = 0`` is the identity.  Collapses to a Fourier multiplier when the
    pair is constant, and is the dense Kohn-Nirenberg product of
    ``exp(loss_symbol)`` otherwise.  Raises :class:`OverflowGuardError` when the
    exponent exceeds 700 anywhere on the lattice.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return _loss_map(grid, _loss_base(grid, pair, sigma) if eps else None, eps)(values)


def _weighted_l2(grid: GridSpec, w, s: tuple[float, float], pair: StructurePair) -> float:
    """``|| Phi^s2 <D>_k^s1 w ||_L2``, ``s = (s1, s2)``: the multiplier first, then ``Phi**s2``."""
    s1, s2 = s
    if s1 != 0.0:
        w = apply_multiplier(grid, bracket(grid.xi, grid.k) ** s1, w)
    if s2 != 0.0:
        w = pair.phi(grid.x) ** s2 * w
    return l2_norm(grid, w)


def sobolev_norm(grid: GridSpec, values, index: SobolevIndex, pair: StructurePair) -> float:
    """Weighted Sobolev norm ``|| Phi^s2 <D>_k^s1 exp(eps (Phi <D>_k)^(1/sigma)) u ||_L2``.

    Operators apply in exactly that order: exponential first, then the
    ``<xi>_k**s1`` multiplier, then multiplication by ``Phi(x)**s2``, with the grid's ``k``.
    """
    return _weighted_l2(grid, loss_operator(grid, pair, index.eps, index.sigma, values),
                        (index.s1, index.s2), pair)
