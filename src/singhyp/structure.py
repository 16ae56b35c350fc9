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

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ProfileError",
    "SingularityProfile",
    "StructurePair",
    "Zone",
    "AxiomCheck",
    "PropertyReport",
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
    "custom_pair",
    "check_structure_properties",
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

_FD_STEP = 1e-5  # centered-difference step for user-supplied pairs


def _fd1(f: Callable) -> Callable:
    def d(x):
        return (f(x + _FD_STEP) - f(x - _FD_STEP)) / (2.0 * _FD_STEP)

    return d


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


def custom_pair(omega: Callable, phi: Callable, *, domega=None, dphi=None,
                label: str = "custom") -> StructurePair:
    """Wrap user functions; missing derivative oracles fall back to centered differences."""
    return StructurePair(
        omega=omega,
        phi=phi,
        domega=domega if domega is not None else _fd1(omega),
        dphi=dphi if dphi is not None else _fd1(phi),
        is_constant=False,
        label=label,
    )


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


# --------------------------------------------------------------------------
# sample-based axiom checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    constant: float
    passed: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    """Fitted constants and pass flags for the structure-function axioms.

    The axioms are universally quantified and cannot be proven on samples; a
    "pass" means the fitted constant is finite and stable (within a factor 2)
    when the sample range is extended from ``|x| <= 1e2`` to the full range.
    Hard algebraic predicates (floors, monotonicity, subadditivity, scaling
    laws) are checked directly with a 1e-9 relative slack.
    """

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        rows = [
            {
                "axiom": c.name,
                "constant": c.constant,
                "pass": c.passed,
                "witness": list(c.witness) if c.witness is not None else None,
                "detail": c.detail,
            }
            for c in self.checks
        ]
        return json.dumps({"passed": self.passed, "checks": rows}, indent=2)


_STABILITY_FACTOR = 2.0
_PREDICATE_SLACK = 1e-9


def _stable_fit(name, values_full, values_small, witness_args, detail=""):
    """Fitted constant = max over the full range; pass iff finite and within
    a factor 2 of the restricted-range fit."""
    c_full = float(np.max(values_full))
    c_small = float(np.max(values_small)) if values_small.size else c_full
    ok = np.isfinite(c_full) and c_full <= _STABILITY_FACTOR * max(c_small, 1e-300)
    witness = None
    if not ok:
        i = int(np.argmax(values_full))
        witness = tuple(np.asarray(a).ravel()[i] for a in witness_args) + (c_full,)
    return AxiomCheck(name, c_full, bool(ok), witness, detail)


def check_structure_properties(pair: StructurePair,
                               radii: Sequence[float] = (0.25, 0.5)) -> PropertyReport:
    """Empirically check the structure-function axioms for ``omega`` and ``Phi``.

    Checks, per function f in {omega, Phi}: lower bound ``f >= 1``, monotonicity
    in ``|x|``, sub-linearity ``f <= C*(1+|x|)``, slow variation
    (``|x-y| <= r*f(y)`` forces ``f(x)/f(y)`` bounded), temperance exponent,
    subadditivity ``|f(x)-f(y)| <= f(x+y) <= f(x)+f(y)``, the derivative bound
    ``|f'(x)| <= C*f(x)/<x>`` and the two scaling laws; plus the ordering
    ``omega <= C*Phi``.  Samples are 0 and ``+-|x|`` log-spaced on ``[1e-3, 1e4]``,
    with 64 random pairs per radius (seed 42).  Failures are report entries
    with the witnessing sample, never exceptions.

    Default radii stay below 1: the bracket <x> itself is slowly varying only
    for radii r < 1 (at r = 1 the ball |x - y| <= <y> reaches the origin and
    the ratio is unbounded), and the built-in pairs are powers of it.
    """
    if any(rad <= 0 for rad in radii):
        raise ValueError("radii must be positive")
    mags = np.logspace(-3, 4, 512)
    xs = np.concatenate([[0.0], mags, -mags])
    n_pairs = 64
    rng = np.random.default_rng(42)
    small = np.abs(xs) <= 1e2
    checks: list[AxiomCheck] = []

    for fname, f, df in (("omega", pair.omega, pair.domega), ("phi", pair.phi, pair.dphi)):
        fx = np.asarray(f(xs), dtype=float)

        floor_ok = bool(np.min(fx) >= 1.0 - _PREDICATE_SLACK)
        wit = None if floor_ok else (xs[int(np.argmin(fx))], float(np.min(fx)))
        checks.append(AxiomCheck(f"{fname}_floor", float(np.min(fx)), floor_ok, wit,
                                 "min value; axiom requires >= 1"))

        order = np.argsort(np.abs(xs))
        diffs = np.diff(fx[order])
        mono_ok = bool(np.all(diffs >= -_PREDICATE_SLACK * np.maximum(fx[order][1:], 1.0)))
        wit = None
        if not mono_ok:
            j = int(np.argmin(diffs))
            wit = (xs[order][j], xs[order][j + 1])
        checks.append(AxiomCheck(f"{fname}_monotone", float(np.min(diffs)) if diffs.size else 0.0,
                                 mono_ok, wit, "min increment along |x|"))

        sub = fx / (1.0 + np.abs(xs))
        checks.append(_stable_fit(f"{fname}_sublinear", sub, sub[small], (xs,),
                                  "C in f <= C*(1+|x|)"))

        # slow variation: x = y + eta*r*f(y)
        ratios_all, ratios_small, ys_used, xs_used = [], [], [], []
        for rad in radii:
            y = rng.choice(xs, size=n_pairs)
            eta = rng.uniform(-1.0, 1.0, size=n_pairs)
            xnear = y + eta * rad * np.asarray(f(y), dtype=float)
            ratio = np.maximum(f(xnear) / f(y), f(y) / f(xnear))
            ratios_all.append(ratio)
            ratios_small.append(ratio[np.abs(y) <= 1e2])
            ys_used.append(y)
            xs_used.append(xnear)
        ratios = np.concatenate(ratios_all)
        checks.append(_stable_fit(f"{fname}_slowly_varying", ratios,
                                  np.concatenate(ratios_small),
                                  (np.concatenate(xs_used), np.concatenate(ys_used)),
                                  f"C over radii {tuple(radii)}"))

        # temperance: f(x+y) <= C*f(x)*(1+|y|)^s, fit the exponent s on |y| >= 1
        xq = rng.choice(xs, size=4 * n_pairs)
        yq = rng.choice(xs, size=4 * n_pairs)
        sel = np.abs(yq) >= 1.0
        xq, yq = xq[sel], yq[sel]
        s_fit = np.log(np.maximum(f(xq + yq) / f(xq), 1e-300)) / np.log1p(np.abs(yq))
        checks.append(_stable_fit(f"{fname}_temperate", s_fit,
                                  s_fit[np.abs(xq) <= 1e2], (xq, yq),
                                  "fitted exponent s"))

        # subadditivity (both sides), hard predicate
        xa = rng.choice(xs, size=4 * n_pairs)
        ya = rng.choice(xs, size=4 * n_pairs)
        fsum = np.asarray(f(xa + ya), dtype=float)
        upper = fsum / (f(xa) + f(ya))
        lower = np.abs(np.asarray(f(xa), dtype=float) - f(ya)) / fsum
        c_sub = float(max(np.max(upper), np.max(lower)))
        ok = c_sub <= 1.0 + _PREDICATE_SLACK
        wit = None
        if not ok:
            i = int(np.argmax(np.maximum(upper, lower)))
            wit = (xa[i], ya[i], c_sub)
        checks.append(AxiomCheck(f"{fname}_subadditive", c_sub, bool(ok), wit,
                                 "max of f(x+y)/(f(x)+f(y)) and |f(x)-f(y)|/f(x+y)"))

        dratio = np.abs(np.asarray(df(xs), dtype=float)) * np.hypot(1.0, xs) / fx
        checks.append(_stable_fit(f"{fname}_derivative", dratio, dratio[small], (xs,),
                                  "C in |f'| <= C*f/<x>"))

        # scaling laws
        up_ratio, down_ratio = [], []
        for a in (1.5, 2.0, 5.0, 10.0):
            up_ratio.append(np.asarray(f(a * xs), dtype=float) / (a * fx))
        for a in (0.1, 0.5, 0.9):
            down_ratio.append(a * fx / np.asarray(f(a * xs), dtype=float))
        for name, rat in ((f"{fname}_scaling_up", np.concatenate(up_ratio)),
                          (f"{fname}_scaling_down", np.concatenate(down_ratio))):
            c = float(np.max(rat))
            ok = c <= 1.0 + _PREDICATE_SLACK
            wit = None if ok else (xs[int(np.argmax(rat)) % xs.size], c)
            checks.append(AxiomCheck(name, c, bool(ok), wit, "ratio must stay <= 1"))

    ow = np.asarray(pair.omega(xs), dtype=float) / np.asarray(pair.phi(xs), dtype=float)
    checks.append(_stable_fit("ordering_omega_le_phi", ow, ow[small], (xs,),
                              "C in omega <= C*Phi"))
    return PropertyReport(checks=tuple(checks))
