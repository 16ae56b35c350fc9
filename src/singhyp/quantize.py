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
product symbol ``g(x)m(xi)`` this is exactly ``g * (m(D)u)``.  Symbol lattices are
evaluated x-major (rows ``x``) and transposed only where a band is formed.

Every Kohn-Nirenberg product is :func:`kn_fold`'s: real cosine and sine bands of the lattice
on a cached table of ``xi_j x_i`` for ``xi_j >= 0`` only (:func:`_kn_trig`, its argument
reduced exactly), applied by :func:`_kn_fold_product` to the sum and difference of each
``+-xi`` pair's coefficients and mirrored over ``+-x`` where the symbol is even in x.  The
solver's operators, :func:`apply_kn` and the loss operator all take it, and nothing forms an
N x N complex phase matrix.  Every public operator takes a field or a batch of fields along
the last axis, checked by :func:`_fields`.

:func:`_modal_basis` diagonalises a separable ``w(x) m(D)`` with ``w > 0`` and ``m`` real
and even: ``m(D)`` is a real symmetric circulant ``C``, so ``W^(1/2) C W^(1/2)`` is symmetric
and one ``eigh`` gives its eigenvalues and orthogonal eigenvectors ``Q``, the one N x N array
kept.  The solver's modal states are the coefficients ``z`` of ``u = W^(1/2) Q z``; it changes
basis by :func:`_real_matmul`, one real product for real ``z`` and two for complex.  Real
fields have Hermitian coefficients, so the solver keeps their half spectrum ``j = 0 ... N/2``
(:func:`_rdft_forward`, :func:`_rdft_inverse`).

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
    "kn_fold",
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
    kn_scale = dx_phase / (2.0 * grid.L)  # and the Kohn-Nirenberg sum's
    for a in (x, xi, phase, xi_odd, dx_phase, kn_scale):
        a.setflags(write=False)
    return x, xi, phase, xi_odd, dx_phase, kn_scale


@lru_cache(maxsize=4)
def _kn_trig(grid: GridSpec, rows: int) -> np.ndarray:
    """``(cos, sin)`` of ``xi_j x_i`` for ``j = 0 ... N/2`` and ``i < rows``, shape
    ``(2, N/2 + 1, rows)``, formed with no N x N or complex table.  The argument is reduced
    exactly: ``xi_j x_i = -j pi + 2 pi j i / N``, so ``exp(i xi_j x_i) = (-1)^j W[(j i) mod N]``
    with ``W = exp(2 pi i k / N)``, N evaluations on ``k`` in ``(-N/2, N/2]``, each within
    about 3e-16.  Its row ``N - j``, ``-xi_j``, is ``(cos, -sin)`` of row ``j``."""
    n = grid.N
    W = np.exp((2j * np.pi / n) * np.r_[:n // 2 + 1, 1 - n // 2:0])
    index = np.multiply.outer(np.arange(n // 2 + 1), np.arange(rows))
    index %= n
    table = np.take(np.stack((W.real, W.imag)), index, axis=1)  # C-contiguous, unlike [:, index]
    table[:, 1::2] *= -1.0
    table.setflags(write=False)
    return table


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


def _rdft_forward(grid: GridSpec, values) -> np.ndarray:
    """:func:`dft_forward` of real grid fields on the half spectrum ``j = 0 ... N/2``, by one
    ``rfft`` (unchecked); coefficient ``N - j`` is the conjugate of coefficient ``j``."""
    return _grid_arrays(grid)[4][:grid.N // 2 + 1] * np.fft.rfft(values)


def _rdft_inverse(grid: GridSpec, coeffs) -> np.ndarray:
    """The real grid fields whose :func:`_rdft_forward` half spectrum is ``coeffs``, by one
    ``irfft`` (unchecked)."""
    return np.fft.irfft(coeffs * _grid_arrays(grid)[2][:grid.N // 2 + 1], grid.N) / grid.dx


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


def _modal_basis(grid: GridSpec, w: np.ndarray, m: np.ndarray):
    """``(lam, Q, sw)`` with ``w(x) m(D) = W^(1/2) Q diag(lam) Q^T W^(-1/2)`` on grid values,
    for the values ``w > 0`` on ``grid.x`` and ``m`` real and even on ``grid.xi``
    (``m[j] == m[N - j]``).  ``m(D)`` is then the real symmetric circulant
    ``C[i, j] = c[(i - j) mod N]``, ``c = ifft(m)``, formed by one index gather, so
    ``S = W^(1/2) C W^(1/2)`` (``W = diag(w)``) is symmetric and ``eigh`` gives
    ``S = Q diag(lam) Q^T``; ``sw = sqrt(w)``.  ``Q`` is the one N x N array kept."""
    i = np.arange(grid.N)
    sw = np.sqrt(w)
    S = np.fft.ifft(m).real[np.subtract.outer(i, i) % grid.N]
    S *= sw[:, None]
    S *= sw
    lam, Q = np.linalg.eigh(S)
    return lam, Q, sw


def _real_matmul(z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``z @ A`` of a real ``A``: one real product for a real ``z``, and for a complex one real
    products on its real and imaginary parts (no complex copy of ``A``)."""
    if not np.iscomplexobj(z):
        return z @ A
    out = np.empty(z.shape[:-1] + A.shape[-1:], dtype=complex)
    out.real, out.imag = z.real @ A, z.imag @ A
    return out


def apply_multiplier(grid: GridSpec, m, values) -> np.ndarray:
    """Apply a Fourier multiplier ``m(xi)`` to grid fields, checked by :func:`_multiplier_values`;
    an odd (derivative type) one is built on :attr:`GridSpec.xi_odd`.  :func:`_fft_multiply` applies
    it, equal to ``dft_inverse(dft_forward(u) * m)``, bitwise so when ``dx`` is a power of two."""
    return _fft_multiply(_multiplier_values(grid, m), _fields(grid, values))


def _even_x(x, *values) -> bool:
    """Whether ``x[1:]`` is exactly ``-x[:0:-1]`` (the grid holds its own negations, ``x[0]``
    unpaired) and each of ``values`` (on ``x``) is bitwise even on it: ``v[i] == v[N - i]``
    for ``i >= 1``.  A symbol read in x only through such values is then even in x."""
    return np.array_equal(x[1:], -x[:0:-1]) and all(
        np.array_equal(v[1:], v[:0:-1]) for v in np.broadcast_arrays(x, *values)[1:])


def kn_fold(grid: GridSpec, lattice, cols, fold_xi: bool, fold_x: bool):
    """The band of ``Op(a)`` on the lattice columns ``cols``: ``K = [a cos(xi_j x); a sin(xi_j x)]``
    on :func:`_kn_trig`'s rows, shape ``(2, len(cols), rows)``, and index maps ``(plus, minus)``
    into ``F = dx (-1)^j fft(u) / (2L)`` padded with a zero, so the band's part of ``Op(a) u``
    is ``P @ K[0] + i Q @ K[1]``, ``P, Q = F[plus] +- F[minus]``.  ``lattice`` (rows x) is
    ``a`` on every row, or with ``fold_x`` (``a`` even in x, which holds its own negations) on
    rows ``0 ... N/2``, row ``N - i`` of the product being row ``i``'s with ``Q`` negated.
    With ``fold_xi`` (``a`` even in xi) ``cols`` holds only ``xi_j >= 0`` and the Nyquist,
    column ``j`` standing for ``N - j`` too: ``P, Q = F_j +- F_{N-j}``.  An unpaired column
    has ``P = Q = F_j``, or ``Q = -F_j`` where ``xi_j < 0``.  OverflowGuardError unless
    ``lattice`` is finite."""
    if not np.all(np.isfinite(lattice)):
        raise OverflowGuardError("Kohn-Nirenberg symbol not finite on the grid lattice")
    n, half = grid.N, grid.N // 2 + 1
    neg = cols >= half
    partner = np.where(fold_xi & (cols > 0) & (cols < n // 2), n - cols, n)
    band = _kn_trig(grid, half if fold_x else n)[:, np.minimum(cols, n - cols)]
    lattice = np.atleast_2d(lattice).T
    band = band * lattice if np.iscomplexobj(lattice) else np.multiply(band, lattice, out=band)
    return band, np.stack((np.where(neg, n, cols), np.where(neg, cols, partner)))


def _kn_fold_product(grid: GridSpec, u, band, terms=()) -> np.ndarray:
    """``Op(a) u`` of grid fields ``u`` (last axis, unchecked) on one raw FFT ``f``: the part of a
    :func:`kn_fold` band (None for an empty band) plus ``w ifft(m f) = w m(D) u`` per ``(w, m)``
    of ``terms``.  A real band is applied by real products on the real and imaginary parts."""
    f = np.fft.fft(u)
    parts = [w * np.fft.ifft(m * f) for w, m in terms]
    if band is not None:
        K, index = band
        n, rows = grid.N, K.shape[-1]
        F = np.zeros((n + 1, f.size // n), complex)  # the batch on the last axis, F[n] = 0
        np.multiply(f.reshape(-1, n).T, _grid_arrays(grid)[5][:, None], out=F[:n])
        G = F[index]
        PQ = np.empty_like(G)
        np.add(G[0], G[1], out=PQ[0])
        np.subtract(G[0], G[1], out=PQ[1])
        KT = K.swapaxes(1, 2)
        AB = KT @ PQ if np.iscomplexobj(K) else (KT @ PQ.view(float)).view(complex)
        A, iB = AB[0], 1j * AB[1]
        part = np.empty_like(F[:n])
        np.add(A, iB, out=part[:rows])
        if rows < n:  # rows N/2 + 1 ... N - 1 mirror rows N/2 - 1 ... 1
            np.subtract(A[rows - 2:0:-1], iB[rows - 2:0:-1], out=part[rows:])
        parts.append(part.T.reshape(u.shape))
    return sum(parts[1:], parts[0]) if parts else np.zeros(u.shape, complex)


def apply_kn(grid: GridSpec, symbol, values) -> np.ndarray:
    """Kohn-Nirenberg application of a symbol ``a(x, xi)`` to grid fields.

    ``symbol`` is either a callable evaluated on the grid lattice (broadcasting
    over an ``(N, 1) x (1, N)`` meshgrid) or a precomputed ``(N, N)`` array with
    rows indexed by ``x`` and columns by ``xi`` in FFT layout.  The product is
    :func:`kn_fold`'s band on every column, unfolded.  Cost O(N^2).
    """
    if callable(symbol):
        symbol = symbol(grid.x[:, None], grid.xi[None, :])
    band = kn_fold(grid, symbol, np.arange(grid.N), False, False)
    return _kn_fold_product(grid, _fields(grid, values), band)


@dataclass(frozen=True)
class SobolevIndex:
    """Index of the weighted space: derivative order s1, decay order s2,
    sub-exponential amplitude eps >= 0, and its order sigma >= 3, all finite
    (else a ``ValueError`` naming the field)."""

    s1: float
    s2: float
    eps: float = 0.0
    sigma: float = 3.0

    def __post_init__(self):
        for name, least in (("s1", -np.inf), ("s2", -np.inf), ("eps", 0.0), ("sigma", 3.0)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= least):
                bound = f" and >= {least:g}" if np.isfinite(least) else ""
                raise ValueError(f"{name} must be finite{bound}, got {value}")


def loss_symbol(grid: GridSpec, pair: StructurePair, eps: float, sigma: float):
    """``eps * (Phi(x) <xi>_k)**(1/sigma)`` on the whole lattice: ``eps *`` :func:`_loss_base`,
    whose folded rows and columns stand for their ``-x`` and ``-xi`` partners too."""
    base, n = _loss_base(grid, pair, sigma), grid.N
    if base.ndim == 1:
        return eps * np.broadcast_to(base, (n, n))
    every = np.arange(n)
    fold = np.minimum(every, n - every)
    return eps * base[np.ix_(fold if base.shape[0] < n else every, fold)]


def _loss_base(grid: GridSpec, pair: StructurePair, sigma: float) -> np.ndarray:
    """``S = (Phi(x) <xi>_k)**(1/sigma)``, the loss exponent at ``eps = 1``, where
    :func:`_loss_map` reads it: the N-vector over xi at ``Phi(0)`` when the pair is constant,
    else the lattice (rows x) on the columns ``j = 0 ... N/2`` (``S`` is even in xi, as
    ``<xi>_k`` is), and on the rows ``0 ... N/2`` where :func:`_even_x` holds for ``Phi``, every
    row elsewhere.  It does not depend on ``eps``, so a caller at many ``eps`` forms it once."""
    br = bracket(grid.xi, grid.k)
    if pair.is_constant:
        phi = float(np.asarray(pair.phi(0.0)))
    else:
        half, phi = grid.N // 2 + 1, pair.phi(grid.x)
        phi, br = (phi[:half] if _even_x(grid.x, phi) else phi)[:, None], br[:half]
    return (phi * br) ** (1.0 / sigma)


def _loss_map(grid: GridSpec, base: np.ndarray | None, eps: float):
    """``u -> exp(eps * S) u`` in left quantization of grid fields, ``S = _loss_base(...)``: the
    exponent is checked against ``EXP_GUARD`` and exponentiated once, so every field shares one
    checked multiplier, or one :func:`kn_fold` band folded over ``+-xi``, and over ``+-x`` where
    ``S`` holds rows ``0 ... N/2`` only.  ``eps = 0`` is the DFT round trip, and needs no
    ``base``."""
    if eps == 0.0:
        return lambda u: dft_inverse(grid, dft_forward(grid, u))
    w = eps * base
    if (w_max := float(np.max(w))) > EXP_GUARD:
        raise OverflowGuardError(f"loss-operator exponent reaches {w_max:.1f} > {EXP_GUARD:.0f}; "
                                 "reduce eps, the grid bandwidth, or Phi")
    if base.ndim == 1:
        m = _multiplier_values(grid, np.exp(w))
        return lambda u: _fft_multiply(m, _fields(grid, u))
    band = kn_fold(grid, np.exp(w, out=w), np.arange(w.shape[1]), True, w.shape[0] < grid.N)
    return lambda u: _kn_fold_product(grid, _fields(grid, u), band)


def loss_operator(grid: GridSpec, pair: StructurePair, eps: float, sigma: float,
                  values) -> np.ndarray:
    """Apply ``exp(eps * (Phi(x) <D>_k)**(1/sigma))`` in left quantization to grid fields.

    ``eps = 0`` is the identity.  Collapses to a Fourier multiplier when the
    pair is constant, and is otherwise the Kohn-Nirenberg product of
    ``exp(loss_symbol)``: one :func:`kn_fold` band on the columns ``xi_j >= 0``, and
    on the rows ``x_i <= 0`` where the grid and ``Phi`` are even in x.  ``eps`` and
    ``sigma`` are checked as :class:`SobolevIndex` checks them.  Raises
    :class:`OverflowGuardError` when the exponent exceeds 700 anywhere on the lattice.
    """
    SobolevIndex(0.0, 0.0, eps, sigma)
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
    ``values`` is one field; a batch is a ``ValueError`` naming its shape.
    """
    if np.ndim(values) != 1:
        raise ValueError(f"sobolev_norm takes one field, got shape {np.shape(values)}")
    return _weighted_l2(grid, loss_operator(grid, pair, index.eps, index.sigma, values),
                        (index.s1, index.s2), pair)
