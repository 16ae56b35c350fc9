"""Closed-form counterexample oracles, loss-of-regularity measurement, energy
monitoring, and the anisotropic cone condition.

Four model problems with ``omega = Phi = 1`` have exact one-way-wave solutions
(all singular behavior sits in non-L1 or borderline lower-order terms):

* ``finite-loss`` (index "7.1"):
  ``u_tt - u_xx + (1/2t)(u_t - (4m+1) u_x) = 0`` with data
  ``(u0, (4m+1) u0')`` is solved by ``sum_j C_j t^j d_x^j u0(x+t)`` where
  ``C_0 = 1`` and ``C_j = (-2)^j/j! * ff(m,j)/ff(-1/2,j)`` with the falling
  factorial ``ff``; the solution loses exactly m derivatives.
* ``no-loss-drift`` ("7.2"): ``u_tt - u_xx - (2/t) u_x = 0`` with data
  ``(0, u0)`` is solved by ``t u0(x+t)``.
* ``oscillating-speed`` ("7.3"):
  ``u_tt - (2+sin sqrt t)^2 u_xx - (cos sqrt t / 2 sqrt t) u_x = 0`` with data
  ``(u0, 2 u0')`` is solved by ``u0(x + I(t))``,
  ``I(t) = 2t + 2 sin sqrt t - 2 sqrt t cos sqrt t`` (so ``I' = 2 + sin sqrt t``);
  no loss at all.
* ``nonuniqueness`` ("7.4"): ``u_tt - u_xx - (1/t)(u_t + 3 u_x) = 0`` with zero
  data admits ``t^2 u0(x+t)`` for every profile ``u0``.

The residual check certifies these formulas numerically: quantized spatial
derivatives plus 5-point finite differences in time applied to the closed form.

The energy monitor tracks ``E(t) = ||u(t)||_{s+e, Lambda(t)} + ||u_t(t)||_{s, Lambda(t)}``
against the data-side bound ``D = ||f1||_{s+e, Lambda(0)} + ||f2||_{s, Lambda(0)}
+ int ||f(tau)||_{s, Lambda(tau)} d tau`` with the loss scale
``Lambda(t) = (lam/delta_star)(T^delta_star - t^delta_star)`` and ``lam`` fitted
so that ``|sigma(A0)| + |sigma(A1)| <= lam t^(delta_star - 1) (Phi <xi>_k)^(1/sigma)``
holds on a sample lattice.  The verdict ``sup E/D`` is a boundedness and
refinement-stability check, not a constant reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quantize import GridSpec, _loss_base, _loss_map, _weighted_l2, dft_forward, dft_inverse
from .solver import CauchyProblem, Trajectory, assemble_rhs
from .structure import (SingularityProfile, StructurePair, bracket, constant_pair, lambda_loss,
                        one, zero)
from .symbols import (CoefficientFamily, SampleLattice, _two_xi, _xi_squared, char_root, excise,
                      cut, graded_lattice, h_symbol, separable_family)

__all__ = [
    "falling_factorial",
    "counterexample_coefficients",
    "TrigPoly",
    "random_trig_poly",
    "GaussianBump",
    "ClosedFormSolution",
    "closed_form",
    "drift_argument",
    "counterexample_family",
    "residual_check",
    "BandError",
    "loss_slope",
    "propagation_speed",
    "support_radius",
    "ConeSpec",
    "ConeReport",
    "cone_check",
    "EnergyTrace",
    "energy_monitor",
    "LambdaFit",
    "LambdaFitError",
    "fit_lambda",
]

EXAMPLE_IDS = ("7.1", "7.2", "7.3", "7.4")


def falling_factorial(y: float, j: int) -> float:
    """``(y)_j = y (y-1) ... (y-j+1)``; empty product for ``j = 0``."""
    if j < 0 or j != int(j):
        raise ValueError(f"j must be a nonnegative integer, got {j}")
    out = 1.0
    for i in range(int(j)):
        out *= y - i
    return out


def counterexample_coefficients(m: int) -> list[float]:
    """``[C_0, ..., C_m]`` with ``C_0 = 1`` and
    ``C_j = (-2)^j/j! * (m)_j / (-1/2)_j`` for ``j >= 1``."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = [1.0]
    for j in range(1, m + 1):
        coeffs.append((-2.0) ** j / math.factorial(j)
                      * falling_factorial(float(m), j) / falling_factorial(-0.5, j))
    return coeffs


# --------------------------------------------------------------------------
# analytic initial profiles (closed-form derivatives of every order we need)
# --------------------------------------------------------------------------


class TrigPoly:
    """Real trigonometric polynomial ``Re sum_n c_n exp(i n y)`` with exact derivatives."""

    def __init__(self, coefficients: dict[int, complex]):
        if any(n <= 0 for n in coefficients):
            raise ValueError("mode numbers must be positive (mean-zero real field)")
        self.modes = np.array(sorted(coefficients), dtype=float)
        self.coeffs = np.array([coefficients[int(n)] for n in self.modes], dtype=complex)

    def __call__(self, y, order: int = 0):
        y = np.asarray(y, dtype=float)
        phase = np.exp(1j * np.multiply.outer(y, self.modes))
        return np.real(phase @ (self.coeffs * (1j * self.modes) ** order))


def random_trig_poly(modes: int = 8, seed: int = 42) -> TrigPoly:
    """Seeded trig polynomial on modes ``1..modes`` with O(1) amplitude."""
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(modes) + 1j * rng.standard_normal(modes)) / math.sqrt(modes)
    return TrigPoly({n + 1: c[n] for n in range(modes)})


class GaussianBump:
    """``exp(-((y-center)/width)^2 / 2)`` with Hermite-recurrence derivatives."""

    def __init__(self, center: float = 0.0, width: float = 0.5):
        if width <= 0:
            raise ValueError("width must be positive")
        self.center = center
        self.width = width

    def __call__(self, y, order: int = 0):
        z = (np.asarray(y, dtype=float) - self.center) / self.width
        base = np.exp(-0.5 * z * z)
        if order == 0:
            return base
        # d^n/dz^n e^{-z^2/2} = (-1)^n He_n(z) e^{-z^2/2}
        he_prev, he = np.ones_like(z), z.copy()
        for n in range(1, order):
            he_prev, he = he, z * he - n * he_prev
        return (-1.0 / self.width) ** order * he * base


# --------------------------------------------------------------------------
# closed forms and their operators
# --------------------------------------------------------------------------


def _check_example_id(example_id: str) -> str:
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"unknown counterexample id {example_id!r}; expected one of {EXAMPLE_IDS}")
    return example_id


def drift_argument(t):
    """``I(t) = 2t + 2 sin sqrt t - 2 sqrt t cos sqrt t`` with ``I' = 2 + sin sqrt t``."""
    rt = np.sqrt(np.asarray(t, dtype=float))
    return 2.0 * np.asarray(t, dtype=float) + 2.0 * np.sin(rt) - 2.0 * rt * np.cos(rt)


@dataclass(frozen=True)
class ClosedFormSolution:
    """Exact solution ``u(t, y)`` and its time derivative for one example."""

    u: Callable
    ut: Callable

    def initial_data(self, grid: GridSpec, t: float):
        return (np.asarray(self.u(t, grid.x), dtype=complex),
                np.asarray(self.ut(t, grid.x), dtype=complex))


def closed_form(example_id: str, m: int, u0) -> ClosedFormSolution:
    """The exact one-way-wave solution of the requested example.

    ``u0`` must be callable as ``u0(y, order)`` with exact derivatives up to
    ``m + 1`` (the oracle profiles above qualify).
    """
    _check_example_id(example_id)
    if example_id == "7.1":
        cj = counterexample_coefficients(m)

        def u(t, y):
            t = np.asarray(t, dtype=float)
            return sum(c * t ** j * u0(y + t, j) for j, c in enumerate(cj))

        def ut(t, y):
            t = np.asarray(t, dtype=float)
            out = sum(c * t ** j * u0(y + t, j + 1) for j, c in enumerate(cj))
            out = out + sum(j * c * t ** (j - 1) * u0(y + t, j)
                            for j, c in enumerate(cj) if j >= 1)
            return out

        return ClosedFormSolution(u, ut)
    if example_id == "7.2":
        return ClosedFormSolution(
            u=lambda t, y: np.asarray(t, dtype=float) * u0(y + t, 0),
            ut=lambda t, y: u0(y + t, 0) + np.asarray(t, dtype=float) * u0(y + t, 1),
        )
    if example_id == "7.3":
        return ClosedFormSolution(
            u=lambda t, y: u0(y + drift_argument(t), 0),
            ut=lambda t, y: (2.0 + np.sin(np.sqrt(np.asarray(t, dtype=float))))
            * u0(y + drift_argument(t), 1),
        )
    # 7.4: nonzero solution with identically zero Cauchy data
    return ClosedFormSolution(
        u=lambda t, y: np.asarray(t, dtype=float) ** 2 * u0(y + t, 0),
        ut=lambda t, y: 2.0 * np.asarray(t, dtype=float) * u0(y + t, 0)
        + np.asarray(t, dtype=float) ** 2 * u0(y + t, 1),
    )


def _over_t(c: float) -> Callable:
    return lambda t: c / np.asarray(t, dtype=float)


def _oscillating_speed2(t):
    return (2.0 + np.sin(np.sqrt(np.asarray(t, dtype=float)))) ** 2


def _d_oscillating_speed2(t):
    rt = np.sqrt(np.asarray(t, dtype=float))
    return (2.0 + np.sin(rt)) * np.cos(rt) / rt


def _oscillating_drift(t):
    rt = np.sqrt(np.asarray(t, dtype=float))
    return -np.cos(rt) / (2.0 * rt)


def _in_t(b: Callable | None) -> Callable | None:
    """Lift a coefficient ``b(t)`` to the ``(t, x)`` signature, constant in x."""
    return None if b is None else (lambda t, x: b(t) * one(x))


def counterexample_family(example_id: str, m: int = 0, *, k: float = 1.0,
                          T: float = 1.0) -> CoefficientFamily:
    """Coefficient family of the example's operator (homogeneous ``xi^2`` principal part)."""
    _check_example_id(example_id)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    # g(t), g'(t), q, r, b0(t), b1(t): the principal part is g(t) xi^2
    g, dg, q, r, b0, b1 = {
        "7.1": (one, zero, 0.0, 1.0, _over_t(0.5), _over_t(-(4.0 * m + 1.0) * 0.5)),
        "7.2": (one, zero, 0.0, 1.0, None, _over_t(-2.0)),
        "7.3": (_oscillating_speed2, _d_oscillating_speed2, 0.5, 0.5, None, _oscillating_drift),
        "7.4": (one, zero, 0.0, 1.0, _over_t(-1.0), _over_t(-3.0)),
    }[example_id]
    label = f"counterexample-{example_id}" + (f"(m={m})" if example_id == "7.1" else "")
    return separable_family(
        g, dg, one, zero, _xi_squared, _two_xi,
        pair=constant_pair(), k=k, p=0.0, q=q, r=r, T=T, c0=1.0,
        spectral_shift=False, x_dependent=False, b0=_in_t(b0), b1=_in_t(b1), label=label)


def residual_check(example_id: str, m: int, u0, grid: GridSpec,
                   t_grid: Sequence[float] | None = None) -> float:
    """Max relative residual of the example's operator applied to its closed form.

    Spatial derivatives act through the integrator's own right-hand side,
    :func:`~singhyp.solver.assemble_rhs` (exact for trig-polynomial data), so
    the check certifies what :func:`~singhyp.solver.integrate` runs;
    time derivatives use 5-point centered differences with step
    ``5e-4 * t``, balancing the O(h^4) truncation (~1e-8 for 8-mode data)
    against the second-derivative cancellation roundoff (~1e-7).  The default
    time grid is ``linspace(T/2, T, 6)``; callers may pass any grid in (0, T].
    A closed form identically zero on the time grid certifies nothing: ``ValueError``.
    """
    _check_example_id(example_id)
    fam = counterexample_family(example_id, m, k=grid.k)
    sol = closed_form(example_id, m, u0)
    ts = (np.asarray(t_grid, dtype=float) if t_grid is not None
          else np.linspace(0.5 * fam.T, fam.T, 6))
    if np.any(ts <= 0):
        raise ValueError("t_grid must avoid t = 0")
    z = np.zeros(grid.N)
    prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=fam.T)
    worst, peak = 0.0, 0.0
    for t in ts:
        h = 5e-4 * float(t)
        stencil = [np.asarray(sol.u(t + s * h, grid.x), dtype=complex)
                   for s in (-2, -1, 0, 1, 2)]
        um2, um1, uc, up1, up2 = stencil
        utt = (-um2 + 16.0 * um1 - 30.0 * uc + 16.0 * up1 - up2) / (12.0 * h * h)
        ut = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * h)
        res = utt - assemble_rhs(t, uc, ut, prob, grid)[1]
        worst = max(worst, float(np.max(np.abs(res))))
        peak = max(peak, float(np.max(np.abs(uc))))
    if peak == 0.0:
        raise ValueError(f"the closed form of {example_id} (m = {m}) is identically zero on "
                         f"the time grid {ts.tolist()}: there is no residual to certify")
    return worst / peak


# --------------------------------------------------------------------------
# loss measurement, propagation, cones
# --------------------------------------------------------------------------


class BandError(ValueError):
    """The requested frequency band is empty or the reference spectrum vanishes on it."""


def loss_slope(grid: GridSpec, u_t, u0, band: tuple[int, int] | None = None) -> float:
    """Least-squares slope of ``log(|hat u_t| / |hat u0|)`` against ``log <xi>_1``.

    ``band`` selects mode numbers ``|j|`` in ``[band[0], band[1]]``; default
    ``[N/16, N/6]`` avoids the flat low end and the dealiasing region.  The
    measured slope is the derivative loss: 0 for a translation, m when the
    dominant term carries m extra derivatives.
    """
    lo, hi = band if band is not None else (grid.N // 16, grid.N // 6)
    j = np.fft.fftfreq(grid.N, 1.0 / grid.N)
    sel = (np.abs(j) >= lo) & (np.abs(j) <= hi)
    if not np.any(sel):
        raise BandError(f"empty band [{lo}, {hi}] on N={grid.N}")
    ct, c0 = dft_forward(grid, np.array([u_t, u0], dtype=complex))
    if np.any(np.abs(c0[sel]) <= 1e-12 * np.max(np.abs(c0))):
        raise BandError("reference spectrum below 1e-12 of its peak inside the band")
    ratio = np.abs(ct[sel]) / np.abs(c0[sel])
    w = np.log(bracket(grid.xi[sel], 1.0))
    A = np.vstack([w, np.ones_like(w)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(np.maximum(ratio, 1e-300)), rcond=None)
    return float(coef[0])


_SPEED_VALUES = 1 << 15  # lattice values (256 KiB of float64) per propagation_speed chunk


def propagation_speed(family: CoefficientFamily, grid: GridSpec,
                      t_samples: Sequence[float]) -> float:
    """``c* = max sqrt(a(t, x, 1)) * omega(x)^-1 * t^(p/2)`` over samples and grid.

    ``a`` is evaluated on a chunk of samples at a time (``_SPEED_VALUES`` lattice
    values), and ``t^(p/2)`` one sample at a time."""
    ts = np.asarray(t_samples, dtype=float).ravel()
    if np.any(ts <= 0):
        raise ValueError("t_samples must lie in (0, T]")
    om = np.asarray(family.pair.omega(grid.x), dtype=float)
    chunk = max(1, _SPEED_VALUES // grid.N)
    best = 0.0
    for a in range(0, ts.size, chunk):
        t = ts[a:a + chunk]
        vals = np.asarray(family.a(t[:, None], grid.x, 1.0), dtype=float)
        vals = np.sqrt(np.abs(np.broadcast_to(vals, (t.size, grid.N))))
        weight = np.array([s ** (family.p / 2.0) for s in t.tolist()])
        best = max(best, float(np.max(np.max(vals / om, axis=1) * weight)))
    return best


def support_radius(grid: GridSpec, values, center: float = 0.0,
                   threshold: float = 1e-10) -> float:
    """Smallest R with |u| < threshold * max|u| outside |x - center| <= R."""
    u = np.abs(np.asarray(values))
    peak = float(np.max(u))
    if peak == 0.0:
        return 0.0
    mask = u >= threshold * peak
    return float(np.max(np.abs(grid.x[mask] - center)))


@dataclass(frozen=True)
class ConeSpec:
    """Centre ``x0``, speed constant, time exponent ``1 - p/2`` and weight of the
    forward support-growth bound
    ``R(t) <= R(t0) + speed * max omega * (t - t0)**exponent + 3 dx``, measured
    about ``x0`` from the first snapshot time ``t0`` (see :func:`cone_check`)."""

    x0: float
    speed: float
    exponent: float
    pair: StructurePair

    def __post_init__(self):
        if not self.speed > 0:
            raise ValueError("cone speed must be positive")
        if not (0.75 < self.exponent <= 1.0):
            raise ValueError(f"cone exponent must lie in (3/4, 1], got {self.exponent}")


@dataclass(frozen=True)
class ConeReport:
    valid: bool
    passed: bool
    rows: tuple  # (t, measured_radius, predicted_radius)

    def to_rows(self):
        return [{"t": t, "measured": m, "predicted": p} for (t, m, p) in self.rows]


def cone_check(traj: Trajectory, cone: ConeSpec, threshold: float = 1e-10) -> ConeReport:
    """Support-radius growth against ``R + speed * max_{|x|<=R'} omega * dt**exponent + 3 dx``.

    The measured radius uses the relative threshold on ``|u|``; the report is
    invalid (torus wraparound) once any snapshot's support reaches ``3L/4``.
    """
    grid = traj.grid
    t0, u0, v0 = traj.snapshots[0]
    r_init = max(support_radius(grid, u0, cone.x0, threshold),
                 support_radius(grid, v0, cone.x0, threshold))
    rows, valid, passed = [], True, True
    slack = 3.0 * grid.dx
    for (t, u, _v) in traj.snapshots:
        r = support_radius(grid, u, cone.x0, threshold)
        if r >= 0.75 * grid.L:
            valid = False
        inside = np.abs(grid.x - cone.x0) <= r + 1e-12
        om_max = float(np.max(np.asarray(cone.pair.omega(grid.x[inside]), dtype=float),
                              initial=1.0))
        predicted = r_init + cone.speed * om_max * (t - t0) ** cone.exponent + slack
        rows.append((float(t), r, predicted))
        if r > predicted:
            passed = False
    return ConeReport(valid=valid, passed=passed and valid, rows=tuple(rows))


# --------------------------------------------------------------------------
# energy monitoring
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyTrace:
    """Weighted-energy history against the data-side bound.

    ``norm_u[i]`` is ``||u(t_i)||`` at index ``s + e`` with ``eps = Lambda(t_i)``,
    ``norm_v[i]`` the velocity norm at index ``s``; ``data_bound[i]`` adds the
    running forcing integral to the initial-data norms at ``Lambda(0)``.
    """

    times: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    lam_values: np.ndarray
    support: np.ndarray
    data_bound: np.ndarray
    verdict: float
    lam: float

    @property
    def energy(self) -> np.ndarray:
        return self.norm_u + self.norm_v


SPECTRAL_FLOOR = 1e-12  # energy_monitor drops modes below this fraction of the peak


def _denoise(grid: GridSpec, values):
    c = dft_forward(grid, values)
    peak = float(np.max(np.abs(c)))
    if peak == 0.0:
        return np.asarray(values, dtype=complex)
    c[np.abs(c) < SPECTRAL_FLOOR * peak] = 0.0
    return dft_inverse(grid, c)


def energy_monitor(traj: Trajectory, s: tuple[float, float], profile: SingularityProfile,
                   pair: StructurePair, lam: float,
                   forcing: Callable | None = None) -> EnergyTrace:
    """Weighted Sobolev energies along the trajectory and the verdict ``sup E/D``.

    Modes below ``SPECTRAL_FLOOR`` times the spectral peak are masked before
    weighting: the sub-exponential weights would otherwise amplify the FFT
    roundoff floor past the true (sub-double-precision) spectral tail.
    ``lam = 0`` monitors unweighted norms (Lambda == 0); a negative or non-finite
    ``lam`` raises ``ValueError``.  Each norm is :func:`~singhyp.quantize.sobolev_norm`'s:
    the loss base ``(Phi <xi>_k)**(1/sigma)`` is formed once per call, and one
    ``exp(Lambda(t) ...)`` per snapshot serves ``u``, ``u_t`` and the forcing.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    grid = traj.grid
    s1, s2 = s
    times = traj.times
    lam_vals = (lambda_loss(times, lam, profile) if lam > 0.0
                else np.zeros_like(times))
    base = _loss_base(grid, pair, profile.sigma) if lam > 0.0 else None
    norms_u, norms_v, fnorm, supports = [], [], [], []
    for (t, u, v), eps in zip(traj.snapshots, lam_vals):
        eps = float(max(eps, 0.0))
        loss = _loss_map(grid, base, eps)
        nu = _weighted_l2(grid, loss(_denoise(grid, u)), (s1 + 1.0, s2 + 1.0), pair)
        nv = _weighted_l2(grid, loss(_denoise(grid, v)), (s1, s2), pair)
        if not (np.isfinite(nu) and np.isfinite(nv)):
            raise ArithmeticError(f"non-finite weighted norm at t={t}")
        norms_u.append(nu)
        norms_v.append(nv)
        supports.append(support_radius(grid, u))
        if forcing is not None:
            f = np.broadcast_to(forcing(float(t), grid.x), grid.x.shape)
            fnorm.append(_weighted_l2(grid, loss(f), (s1, s2), pair))

    data_bound = np.full(times.shape, norms_u[0] + norms_v[0])
    if forcing is not None:
        fnorm = np.array(fnorm)
        running = np.concatenate([[0.0], np.cumsum(
            0.5 * (fnorm[1:] + fnorm[:-1]) * np.diff(times))])
        data_bound = data_bound + running

    energy = np.asarray(norms_u) + np.asarray(norms_v)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(data_bound > 0, energy / np.maximum(data_bound, 1e-300), 0.0)
    verdict = float(np.max(ratios)) if np.any(energy > 0) else 0.0
    return EnergyTrace(times=times, norm_u=np.asarray(norms_u), norm_v=np.asarray(norms_v),
                       lam_values=np.asarray(lam_vals), support=np.asarray(supports),
                       data_bound=data_bound, verdict=verdict, lam=lam)


# --------------------------------------------------------------------------
# lambda fitting (symbol-level bound on the correction blocks)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaFit:
    value: float
    witness: tuple  # (t, x, xi) achieving the bound


class LambdaFitError(ArithmeticError):
    """Raised when the lambda demand is not finite on the lattice; ``witness`` is the
    first such ``(t, x, xi)``."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def fit_lambda(family: CoefficientFamily, profile: SingularityProfile, *,
               lattice: SampleLattice | None = None) -> LambdaFit:
    """Smallest ``lam`` with ``|sigma(A0)| + |sigma(A1)| <= lam t^(ds-1) (Phi<xi>_k)^(1/sigma)``
    on the lattice.

    Symbol magnitudes are evaluated pointwise (entrywise sums of the 2x2
    blocks; composition entries as products of symbols, so the commutator
    entries vanish and the disjoint-support products drop out exactly).  With
    ``b0 != 0`` the block B3 references lam itself; the fixed point is iterated
    at most three times.  A demand that is not finite somewhere on the lattice
    raises :class:`LambdaFitError` with the witnessing ``(t, x, xi)``.
    """
    pair, k = family.pair, family.k
    lattice = lattice if lattice is not None else graded_lattice(family.T)
    exc = excise(family)
    root = char_root(exc)
    hsym = h_symbol(root)

    tt, xx, ww = lattice.mesh()  # open grids: factors of one variable stay 1-D
    om = np.asarray(pair.omega(xx), dtype=float)
    phi = np.asarray(pair.phi(xx), dtype=float)
    br = bracket(ww, k)
    m_sym = om * br
    tau = root.value(tt, xx, ww)
    dt_tau = root.dt(tt, xx, ww)
    h_val = hsym.value(tt, xx, ww)
    h_dt = hsym.dt(tt, xx, ww)
    defect = exc.defect(tt, xx, ww)
    b_low = family.b_symbol(tt, xx, ww)
    b0 = np.asarray(family.b0(tt, xx), dtype=float) if family.b0 is not None else None

    sig_B0 = defect / m_sym
    # atilde - tau^2 vanishes pointwise; B1 keeps the root's drift and the lower order
    sig_B1 = (-1j * dt_tau + b_low) / m_sym
    s_arg = tt * phi * br
    phi3 = cut(s_arg / 3.0)
    sig_2iHtau_minus_M = -m_sym * phi3
    sig_B2_core = sig_2iHtau_minus_M - h_val * sig_B1 * h_val + h_dt

    ds = profile.delta_star
    weight = tt ** (1.0 - ds) / (phi * br) ** (1.0 / profile.sigma)

    lam = 0.0
    for _ in range(3):
        if b0 is not None:
            sig_B3 = b0 * (1.0 - 1j * lam * h_val / m_sym)
            sig_B4 = 1j * lam * b0 / m_sym
        else:
            sig_B3 = np.zeros_like(sig_B0)
            sig_B4 = np.zeros_like(sig_B0)
        a0_total = (np.abs(sig_B0 * h_val) + np.abs(sig_B0)
                    + np.abs(h_val * sig_B0 * h_val) + np.abs(h_val * sig_B0))
        a1_11 = sig_B1 * h_val + sig_B3
        a1_12 = sig_B1 + sig_B4
        a1_21 = sig_B2_core - h_val * sig_B3
        a1_22 = -h_val * (sig_B1 + sig_B4)  # i[M,tau]M^-1 symbol vanishes pointwise
        a1_total = np.abs(a1_11) + np.abs(a1_12) + np.abs(a1_21) + np.abs(a1_22)
        demand = (a0_total + a1_total) * weight
        i = int(np.argmax(demand))  # the first NaN, else the first inf, else the max
        lam_new = float(demand.ravel()[i])
        witness = lattice.point(i)
        if not np.isfinite(lam_new):
            raise LambdaFitError(f"lambda demand is {lam_new} at (t, x, xi) = {witness}",
                                 witness=witness)
        if b0 is None or abs(lam_new - lam) <= 1e-10 * max(lam_new, 1.0):
            return LambdaFit(value=lam_new, witness=witness)
        lam = lam_new
    return LambdaFit(value=lam, witness=witness)
