"""Singularity exponents, structure functions, phase-space zones, and the loss scale.

The objects here parametrize second-order wave operators whose coefficients blow
up like ``t**-p`` (principal part), ``t**-q`` (its time derivative) and ``t**-r``
(lower order) as ``t -> 0`` while growing polynomially in ``x``.  Spatial growth
is encoded by a weight ``omega`` and a metric structure function ``Phi`` with
``1 <= omega(x) <= C*Phi(x) <= C'*(1+|x|)``.  The derived quantities:

* ``delta`` solves ``1/sigma = (q - 1 + delta)/(q - p)``,
* ``gamma = 1 - 1/sigma = (1 - delta - p)/(q - p)`` (both closed forms agree),
* ``delta_star = min(delta, 1 - r, 1 - p)``,
* Planck function ``h(x, xi) = 1/(Phi(x) * <xi>_k)`` with ``<xi>_k = sqrt(k^2 + xi^2)``,
* time splitting point ``t_{x,xi}`` solving ``t**(q-p) = N*h(x, xi)``,
* loss scale ``Lambda(t) = (lam/delta_star) * (T**delta_star - t**delta_star)``.

The splitting point divides ``[0, T] x phase space`` into an interior region
(small time, where the principal coefficient gets excised) and an exterior
region; points with ``|x| + |xi| <= N`` form a compact core.  The boundary
``|x| + |xi| = N`` is assigned to the core by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

__all__ = [
    "ProfileError",
    "SingularityProfile",
    "StructurePair",
    "Zone",
    "make_profile",
    "bracket",
    "one",
    "zero",
    "planck",
    "time_split",
    "classify_zone",
    "lambda_loss",
    "poly_pair",
    "constant_pair",
]

DUAL_FORMULA_TOL = 1e-12


class ProfileError(ValueError):
    """Raised when singularity exponents violate an admissibility inequality."""


@dataclass(frozen=True)
class SingularityProfile:
    """Admissible blow-up exponents and their derived quantities.

    Construct through :func:`make_profile`, which validates the ranges and
    computes ``delta``, ``gamma`` and ``delta_star``.
    """

    p: float
    q: float
    r: float
    sigma: float
    T: float
    delta: float
    gamma: float
    delta_star: float


def make_profile(p: float, q: float, r: float, sigma: float, T: float) -> SingularityProfile:
    """Validate exponents and derive ``delta``, ``gamma``, ``delta_star``.

    Raises
    ------
    ProfileError
        Naming the violated inequality:
        ``0 <= p < 1/2``, ``1 < q < 3/2``, ``p <= q - 1``, ``0 <= r < 1``,
        ``3 <= sigma < (q - p)/(q - 1)`` and ``0 < T < inf``.
    """
    if not (0.0 <= p < 0.5):
        raise ProfileError(f"p must lie in [0, 1/2), got p={p}")
    if not (1.0 < q < 1.5):
        raise ProfileError(f"q must lie in (1, 3/2), got q={q}")
    if not p <= q - 1.0:
        raise ProfileError(f"p <= q - 1 violated: p={p}, q-1={q - 1.0}")
    if not (0.0 <= r < 1.0):
        raise ProfileError(f"r must lie in [0, 1), got r={r}")
    sigma_cap = (q - p) / (q - 1.0)
    if not sigma >= 3.0:
        raise ProfileError(f"sigma >= 3 violated, got sigma={sigma}")
    if not sigma < sigma_cap:
        raise ProfileError(
            f"sigma < (q-p)/(q-1) = {sigma_cap} violated (half-open interval), got sigma={sigma}"
        )
    if not 0.0 < T < np.inf:
        raise ProfileError(f"time horizon T must be positive and finite, got T={T}")

    delta = (q - p) / sigma - (q - 1.0)
    gamma = 1.0 - 1.0 / sigma
    gamma_alt = (1.0 - delta - p) / (q - p)
    if not (0.0 < delta < 1.0):
        raise ProfileError(f"derived delta={delta} outside (0, 1)")
    if abs(gamma - gamma_alt) > DUAL_FORMULA_TOL:
        raise ProfileError(
            f"dual gamma formulas disagree: 1-1/sigma={gamma}, (1-delta-p)/(q-p)={gamma_alt}"
        )
    delta_star = min(delta, 1.0 - r, 1.0 - p)
    return SingularityProfile(
        p=p, q=q, r=r, sigma=sigma, T=T, delta=delta, gamma=gamma, delta_star=delta_star
    )


def bracket(xi, k: float):
    """Shifted frequency bracket ``<xi>_k = sqrt(k^2 + xi^2)``."""
    return np.hypot(k, xi)


def one(x):
    """The constant factor 1, shaped like its argument."""
    return np.ones_like(np.asarray(x, dtype=float))


def zero(x):
    """The constant factor 0, shaped like its argument."""
    return np.zeros_like(np.asarray(x, dtype=float))


# --------------------------------------------------------------------------
# structure functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StructurePair:
    """Weight ``omega`` and metric structure function ``Phi``, with derivative oracles.

    Both functions map reals (broadcasting over arrays) into ``[1, inf)`` and are
    monotone non-decreasing in ``|x|``.  ``is_constant`` flags the pair
    ``omega = Phi = 1``; several operators collapse to pure Fourier multipliers
    in that case and the fast paths rely on it.
    """

    omega: Callable
    phi: Callable
    domega: Callable
    dphi: Callable
    is_constant: bool = False
    label: str = "custom"


def poly_pair(kappa1: float, kappa2: float) -> StructurePair:
    """Built-in pair ``(omega, Phi) = (<x>**kappa1, <x>**kappa2)``, ``0 <= kappa1 <= kappa2 <= 1``."""
    if not (0.0 <= kappa1 <= kappa2 <= 1.0):
        raise ValueError(f"need 0 <= kappa1 <= kappa2 <= 1, got ({kappa1}, {kappa2})")

    def power(kappa):
        def f(x):
            return np.hypot(1.0, x) ** kappa

        def d1(x):
            return kappa * x * np.hypot(1.0, x) ** (kappa - 2.0)

        return f, d1

    om, dom = power(kappa1)
    ph, dph = power(kappa2)
    return StructurePair(
        omega=om, phi=ph, domega=dom, dphi=dph,
        is_constant=(kappa1 == 0.0 and kappa2 == 0.0),
        label=f"poly({kappa1},{kappa2})",
    )


def constant_pair() -> StructurePair:
    """The trivial pair ``omega = Phi = 1``."""
    return StructurePair(one, one, zero, zero, is_constant=True, label="constant")


# --------------------------------------------------------------------------
# metric, zones, loss scale
# --------------------------------------------------------------------------


def planck(x, xi, pair: StructurePair, k: float):
    """Planck function ``h(x, xi) = (Phi(x) * <xi>_k)**-1``; lies in ``(0, 1]`` for ``k >= 1``."""
    return 1.0 / (pair.phi(x) * bracket(xi, k))


def time_split(x, xi, N: float, profile, pair: StructurePair, k: float):
    """Time splitting point ``t_{x,xi} = (N*h(x,xi))**(1/(q-p))``.

    ``profile`` only needs ``p`` and ``q`` attributes, so coefficient families
    carrying bare exponents work here too.
    """
    if not N > 0:
        raise ValueError(f"zone constant N must be positive, got {N}")
    gap = profile.q - profile.p
    if not gap > 0:
        raise ValueError(f"time splitting needs q > p, got q-p={gap}")
    return (N * planck(x, xi, pair, k)) ** (1.0 / gap)


class Zone(IntEnum):
    CORE = 0
    INTERIOR = 1
    EXTERIOR = 2


def classify_zone(t, x, xi, N: float, profile, pair: StructurePair, k: float):
    """Zone label for ``(t, x, xi)``: core, interior or exterior.

    Core iff ``|x| + |xi| <= N`` (boundary assigned to the core); otherwise
    interior iff ``t <= t_{x,xi}`` and exterior iff ``t > t_{x,xi}``.  Scalar
    inputs give a :class:`Zone`, array inputs an integer-coded array.
    """
    t = np.asarray(t, dtype=float)
    core = np.abs(x) + np.abs(xi) <= N
    ts = time_split(x, xi, N, profile, pair, k)
    codes = np.where(core, int(Zone.CORE), np.where(t <= ts, int(Zone.INTERIOR), int(Zone.EXTERIOR)))
    if codes.ndim == 0:
        return Zone(int(codes))
    return codes


def lambda_loss(t, lam: float, profile: SingularityProfile):
    """Loss scale ``Lambda(t) = (lam/delta_star)*(T**delta_star - t**delta_star)``.

    Strictly decreasing on ``[0, T]`` with ``Lambda(T) = 0``; linear in ``lam``.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    ds = profile.delta_star
    return (lam / ds) * (profile.T ** ds - np.asarray(t, dtype=float) ** ds)
