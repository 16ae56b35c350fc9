"""Time integration of the singular Cauchy problem on the periodic grid, plus
the first-order 2x2 system residual check.

The second-order problem

    ``d2u/dt2 + b0(t,x) du/dt + Op(a or atilde) u + Op(b) u = f``

is integrated as a first-order system in ``(u, v = du/dt)`` with classical RK4
over a graded mesh ``t_j = t_start + (T - t_start) * (j/M)**kappa``.  Grading
``kappa = max(2, 2/(1-p), 2/(1-r))`` (for ``t_start = 0``) resolves the
integrable ``t**-p`` and ``t**-r`` coefficient singularities; when the
coefficients are singular at ``t_start`` the first step samples all four
stages at the step midpoint, so the vector field is never evaluated at the
singular time.  CFL violations trigger automatic step halving (up to 20
levels).

Every ``Op(sigma)`` comes from :func:`symbol_operator`, which picks once per
(symbol, grid) the separable product ``g(t) w(x) m(D)``, the diagonal
product in xi or the dense Kohn-Nirenberg product, and ``Op(b)`` from
:func:`lower_operator`.  They act on the family's states: Fourier coefficients
of a multiplier family (coefficients depend on t only, so every operator is
diagonal in xi and RK4 transforms only at snapshots), grid values otherwise.

The first-order reduction

    ``u1 = v + i Op(tau) u``,  ``u2 = Op(omega <D>_k) u - Op(H) u1``

turns ``Pu = f`` into ``dU/dt = (D - A0 - A1) U + F`` with
``D = diag(i Op(tau), -i Op(tau))`` and correction blocks built from the
excision defect, the root's time derivative, the lower-order symbol and the
auxiliary H.  ``system_residual`` checks that identity on stored snapshots
with centered time differences; it is a consistency monitor, not a second
integrator, and its blocks act on the integrator's states through the same
operators.  Compositions are applied left to right as written, so the reported
residual carries the quantization-commutator floor on top of the O(dt^2)
differencing error (zero floor for multiplier families).  Each operator product
of the system right-hand side is formed once and shared between the blocks.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quantize import GridSpec, apply_kn, apply_multiplier, dft_forward, dft_inverse, l2_norm
from .structure import bracket
from .symbols import CoefficientFamily, char_root, excise, h_symbol

__all__ = ["SolverError", "SupportError", "TimeMesh", "graded_mesh", "CauchyProblem",
           "Trajectory", "symbol_operator", "lower_operator", "assemble_rhs", "integrate",
           "SystemOperators", "reduce_to_system", "system_residual"]

MAX_HALVINGS = 20
SUPPORT_RTOL = 1e-12
CFL_SAFETY = 0.5


class SolverError(RuntimeError):
    """Integration aborted (CFL exhaustion or non-finite state); carries a step report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class SupportError(ValueError):
    """Data of an x-dependent problem leaks outside |x| <= L/2."""


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing nodes ``t_0 < ... < t_M`` with grading exponent kappa."""

    nodes: np.ndarray
    kappa: float

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")

    @property
    def M(self) -> int:
        return self.nodes.size - 1


def graded_mesh(family, t_start: float, t_end: float, m: int,
                kappa: float | None = None) -> TimeMesh:
    """Graded mesh on ``[t_start, t_end]``.

    For ``t_start = 0`` the default grading is ``max(2, 2/(1-p), 2/(1-r))``;
    for positive starts the singularity is excluded and ``kappa = 2`` is used.
    """
    if not 0.0 <= t_start < t_end:
        raise ValueError(f"need 0 <= t_start < t_end, got [{t_start}, {t_end}]")
    if kappa is None:
        kappa = (max(2.0, 2.0 / (1.0 - family.p), 2.0 / (1.0 - family.r))
                 if t_start == 0.0 else 2.0)
    j = np.arange(m + 1, dtype=float) / m
    nodes = t_start + (t_end - t_start) * j ** kappa
    nodes[-1] = t_end
    return TimeMesh(nodes=nodes, kappa=float(kappa))


@dataclass(frozen=True)
class CauchyProblem:
    """Coefficients, data and horizon of one run.

    ``f1, f2`` are grid fields (data for ``u`` and ``du/dt`` at ``t_start``);
    ``forcing`` maps ``(t, x_array)`` to a field or is None.  With
    ``use_excision`` the principal part is the excised symbol.
    """

    family: CoefficientFamily
    f1: np.ndarray
    f2: np.ndarray
    t_start: float
    T: float
    forcing: Callable | None = None
    use_excision: bool = False

    def __post_init__(self):
        if not 0.0 <= self.t_start < self.T:
            raise ValueError(f"need 0 <= t_start < T, got [{self.t_start}, {self.T}]")

    def validate(self, grid: GridSpec):
        for name, f in (("f1", self.f1), ("f2", self.f2)):
            if np.asarray(f).shape != (grid.N,):
                raise ValueError(f"{name} does not match grid size {grid.N}")
        if self.family.k != grid.k:
            raise ValueError(f"family.k={self.family.k} does not match grid.k={grid.k}")
        if self.family.x_dependent:
            # torus legitimacy: x-dependent coefficients need localized data
            for name, f in (("f1", self.f1), ("f2", self.f2)):
                f = np.asarray(f)
                peak = float(np.max(np.abs(f)))
                outside = np.abs(grid.x) > grid.L / 2.0
                leak = float(np.max(np.abs(f[outside]), initial=0.0))
                if leak > SUPPORT_RTOL * peak:
                    raise SupportError(
                        f"{name} exceeds {SUPPORT_RTOL:g} of its peak outside |x| <= L/2 "
                        f"(leak {leak:.3e}, peak {peak:.3e})")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots ``(t, u, v)`` at requested output times, plus a step log."""

    snapshots: tuple
    grid: GridSpec
    mesh: TimeMesh
    stats: dict

    @property
    def times(self) -> np.ndarray:
        return np.array([s[0] for s in self.snapshots])

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")


_StateSpace = namedtuple("_StateSpace", "name x multiply state field")


def _state_space(grid: GridSpec, family: CoefficientFamily) -> _StateSpace:
    """Where the operators of ``family`` act: on Fourier coefficients, with the
    coefficients read at ``x = 0``, for a multiplier family; on grid values
    otherwise.  ``multiply(m, u)`` applies ``m(D)`` given on ``grid.xi``, and
    ``state``/``field`` convert grid fields to states and back."""
    if family.is_multiplier:
        return _StateSpace("fourier", 0.0, operator.mul, lambda f: dft_forward(grid, f),
                           lambda c: dft_inverse(grid, c))
    return _StateSpace("physical", grid.x, lambda m, u: apply_multiplier(grid, m, u),
                       lambda f: f, lambda c: c)


def symbol_operator(grid: GridSpec, family: CoefficientFamily,
                    symbol: Callable | None = None) -> Callable:
    """``(t, u) -> Op(symbol(t, ., .)) u`` on the family's states, with the path
    chosen once.

    ``symbol`` defaults to the family's ``a``.  That default on a separable
    family is the exact product ``g(t) w(x) m(D)`` with ``w`` and ``m``
    precomputed; any symbol of a multiplier family (see
    :attr:`CoefficientFamily.is_multiplier`) acts on Fourier coefficients as the
    diagonal product ``symbol(t, 0, xi) u``; everything else is the dense
    Kohn-Nirenberg product on grid values.
    """
    space = _state_space(grid, family)
    if symbol is None and family.separable is not None:
        g, w, m = family.separable
        w = np.asarray(w(space.x), dtype=float)
        m = np.asarray(m(grid.xi), dtype=complex)
        return lambda t, u: float(g(t)) * w * space.multiply(m, u)
    symbol = family.a if symbol is None else symbol
    if family.is_multiplier:
        return lambda t, u: symbol(t, 0.0, grid.xi) * u
    return lambda t, u: apply_kn(grid, lambda x, xi: symbol(t, x, xi), u)


def lower_operator(grid: GridSpec, family: CoefficientFamily) -> Callable:
    """``(t, u) -> Op(b) u = b1(t, x) du/dx + b2(t, x) u`` on the family's states;
    an absent coefficient's term is left out (the operator is 0 when both are)."""
    space = _state_space(grid, family)
    x, ixi, b1, b2 = space.x, 1j * grid.xi_odd, family.b1, family.b2
    if b1 is None:
        return (lambda t, u: 0.0) if b2 is None else (lambda t, u: np.asarray(b2(t, x)) * u)
    if b2 is None:
        return lambda t, u: np.asarray(b1(t, x)) * space.multiply(ixi, u)
    return lambda t, u: (np.asarray(b1(t, x)) * space.multiply(ixi, u)
                         + np.asarray(b2(t, x)) * u)


class Discretization:
    """Spatial operator application for one (problem, grid) pairing.

    The principal symbol is the excised ``atilde`` with ``use_excision`` and
    the family's ``a`` otherwise.  :meth:`rhs` acts on the family's states
    through :func:`symbol_operator` and :func:`lower_operator`; ``state`` and
    ``field`` convert grid fields to states and back.
    """

    def __init__(self, problem: CauchyProblem, grid: GridSpec):
        problem.validate(grid)
        self.problem = problem
        self.grid = grid
        fam = problem.family
        atilde = excise(fam).a if problem.use_excision else None
        self.symbol = fam.a if atilde is None else atilde
        self.apply_principal = symbol_operator(grid, fam, atilde)
        self.apply_lower = lower_operator(grid, fam)
        self.space = _state_space(grid, fam)
        self.state, self.field = self.space.state, self.space.field

    def rhs(self, t: float, u: np.ndarray, v: np.ndarray):
        """Time derivatives of the state ``(u, v)``, in the state's space."""
        fam, forcing = self.problem.family, self.problem.forcing
        dv = -self.apply_principal(t, u) - self.apply_lower(t, u)
        if fam.b0 is not None:
            dv = dv - np.asarray(fam.b0(t, self.space.x)) * v
        if forcing is not None:
            dv = dv + self.state(forcing(t, self.grid.x))
        return v, dv

    def speed_bound(self, t: float) -> float:
        """sup over the grid of sqrt(a(t, x, xi_max)/xi_max^2) (excised a if active)."""
        xi_ref = self.grid.xi_max
        vals = np.asarray(self.symbol(t, self.grid.x, xi_ref), dtype=float)
        return float(np.sqrt(np.max(np.abs(vals)) / xi_ref**2))

    def singular_start(self) -> bool:
        fam = self.problem.family
        t0 = self.problem.t_start
        with np.errstate(all="ignore"):
            vals = [self.symbol(t0, 0.0, self.grid.k)]
            vals += [b(t0, 0.0) for b in (fam.b0, fam.b1, fam.b2) if b is not None]
        return not all(np.all(np.isfinite(v)) for v in vals)


def assemble_rhs(t: float, u, v, problem: CauchyProblem, grid: GridSpec):
    """Time derivatives ``(du, dv) = (v, f - b0 v - Op(a or atilde)u - Op(b)u)``."""
    disc = Discretization(problem, grid)
    du, dv = disc.rhs(t, disc.state(np.asarray(u, dtype=complex)),
                      disc.state(np.asarray(v, dtype=complex)))
    du, dv = disc.field(du), disc.field(dv)
    if not (np.all(np.isfinite(du)) and np.all(np.isfinite(dv))):
        raise SolverError(f"non-finite right-hand side at t={t}",
                          report={"t": t, "max_u": float(np.max(np.abs(u)))})
    return du, dv


def _rk4_step(rhs, t0: float, dt: float, u, v, midpoint_only: bool):
    tm = t0 + 0.5 * dt
    t_stage = (tm, tm, tm, tm) if midpoint_only else (t0, tm, tm, t0 + dt)
    k1u, k1v = rhs(t_stage[0], u, v)
    k2u, k2v = rhs(t_stage[1], u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = rhs(t_stage[2], u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = rhs(t_stage[3], u + dt * k3u, v + dt * k3v)
    u_new = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u_new, v_new


def integrate(problem: CauchyProblem, grid: GridSpec, mesh: TimeMesh,
              output_times: Sequence[float]) -> Trajectory:
    """RK4 over the graded mesh; snapshots at the mesh nodes nearest the
    requested output times (the stored snapshot time is the exact node time;
    requests nearest the same node share one snapshot, and ``stats`` lists the
    sorted requests as ``requested_times``).  Steps run on the state space of
    :class:`Discretization`, named by ``stats["space"]``.

    The vector field is never sampled at a singular ``t_start``: the first step
    then uses midpoint-only stages.  Steps violating the CFL bound
    ``dt <= 0.5 dx / speed_bound`` are halved up to 20 levels.
    """
    disc = Discretization(problem, grid)
    nodes = mesh.nodes
    if abs(nodes[0] - problem.t_start) > 1e-14 * max(1.0, problem.t_start):
        raise ValueError("mesh must start at problem.t_start")
    if nodes[-1] > problem.T * (1.0 + 1e-14):
        raise ValueError("mesh must end at or before problem.T")

    out_req = np.sort(np.asarray(output_times, dtype=float))
    idx = np.unique(np.abs(nodes[None, :] - out_req[:, None]).argmin(axis=1))

    # states are replaced by each step, never updated in place, so snapshots may hold them
    u = disc.state(np.array(problem.f1, dtype=complex))
    v = disc.state(np.array(problem.f2, dtype=complex))
    snapshots = []
    if 0 in idx:
        snapshots.append((float(nodes[0]), disc.field(u), disc.field(v)))

    singular = disc.singular_start()
    n_halvings = 0
    min_cfl = math.inf
    for j in range(mesh.M):
        t0, t1 = float(nodes[j]), float(nodes[j + 1])
        dt = t1 - t0
        s = disc.speed_bound(0.5 * (t0 + t1))
        dt_max = CFL_SAFETY * grid.dx / max(s, 1e-300)
        min_cfl = min(min_cfl, dt_max)
        n_sub = 1
        if dt > dt_max:
            level = math.ceil(math.log2(dt / dt_max))
            if level > MAX_HALVINGS:
                raise SolverError(
                    f"CFL requires more than {MAX_HALVINGS} halvings at t={t0} "
                    f"(dt={dt:.3e}, dt_max={dt_max:.3e})",
                    report={"t": t0, "dt": dt, "dt_max": dt_max})
            n_sub = 2 ** level
            n_halvings += level
        h = dt / n_sub
        for i in range(n_sub):
            midpoint_only = singular and j == 0 and i == 0
            u, v = _rk4_step(disc.rhs, t0 + i * h, h, u, v, midpoint_only)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise SolverError(f"state became non-finite at t={t1}",
                              report={"t": t1, "step": j})
        if j + 1 in idx:
            snapshots.append((t1, disc.field(u), disc.field(v)))

    stats = {
        "steps": mesh.M,
        "halvings": n_halvings,
        "kappa": mesh.kappa,
        "min_cfl_dt": min_cfl,
        "max_dt": float(np.max(np.diff(nodes))),
        "singular_start": bool(singular),
        "space": disc.space.name,
        "requested_times": out_req.tolist(),
    }
    return Trajectory(snapshots=tuple(snapshots), grid=grid, mesh=mesh, stats=stats)


# --------------------------------------------------------------------------
# first-order system
# --------------------------------------------------------------------------


class SystemOperators:
    """Quantized building blocks of the 2x2 system.

    Each symbol's operator comes from :func:`symbol_operator` and ``Op(b)`` from
    :func:`lower_operator`, so every block acts on the integrator's states
    (Fourier coefficients for a multiplier family, grid values otherwise);
    ``state`` and ``field`` convert.  Compositions follow the written operator
    order: ``B0 H u = B0(H(u))``.
    """

    def __init__(self, problem: CauchyProblem, grid: GridSpec, lam: float = 0.0):
        self.problem = problem
        self.grid = grid
        self.lam = lam
        fam = problem.family
        self.excised = excise(fam)
        self.root = char_root(self.excised)
        self.h = h_symbol(self.root)
        self.apply_tau = symbol_operator(grid, fam, self.root.value)
        self.apply_dt_tau = symbol_operator(grid, fam, self.root.dt)
        self.apply_H = symbol_operator(grid, fam, self.h.value)
        self.apply_dtH = symbol_operator(grid, fam, self.h.dt)
        self.apply_defect = symbol_operator(grid, fam, self.excised.defect)
        self.apply_excised = symbol_operator(grid, fam, self.excised.a)
        self.apply_lower = lower_operator(grid, fam)
        self.space = _state_space(grid, fam)
        self.state, self.field = self.space.state, self.space.field
        self._om = np.asarray(fam.pair.omega(self.space.x), dtype=float)
        self._br = bracket(grid.xi, grid.k)

    def apply_M(self, u):
        return self._om * self.space.multiply(self._br, u)

    def apply_Minv(self, u):
        return self.space.multiply(1.0 / self._br, u / self._om)

    # correction blocks -----------------------------------------------------

    def B0(self, t, u):
        return self.apply_defect(t, self.apply_Minv(u))

    def B1(self, t, u):
        w = self.apply_Minv(u)
        out = -1j * self.apply_dt_tau(t, w)
        out = out + self.apply_excised(t, w) - self.apply_tau(t, self.apply_tau(t, w))
        return out + self.apply_lower(t, w)

    def _b0_field(self, t):
        fam = self.problem.family
        return np.asarray(fam.b0(t, self.space.x)) if fam.b0 is not None else None

    def B3(self, t, u):
        b0 = self._b0_field(t)
        return (np.zeros_like(u) if b0 is None
                else b0 * (u - 1j * self.lam * self.apply_Minv(self.apply_H(t, u))))

    def B4(self, t, u):
        b0 = self._b0_field(t)
        return np.zeros_like(u) if b0 is None else 1j * self.lam * b0 * self.apply_Minv(u)

    def commutator(self, t, u):
        """``i [M, tau] M^-1 u``."""
        w = self.apply_Minv(u)
        return 1j * (self.apply_M(self.apply_tau(t, w)) - self.apply_tau(t, self.apply_M(w)))

    # system assembly --------------------------------------------------------

    def reduce(self, t, u, v):
        u1 = v + 1j * self.apply_tau(t, u)
        return u1, self.apply_M(u) - self.apply_H(t, u1)

    def system_rhs(self, t, u1, u2):
        """``(D - A0 - A1) U + F`` for ``U = (u1, u2)``; each operator product
        (``H u1``, ``B1 H u1``, ``B3 u1``, ``H tau u1``) is formed once and shared
        between the blocks that use it."""
        d1 = 1j * self.apply_tau(t, u1)
        d2 = -1j * self.apply_tau(t, u2)
        hu1 = self.apply_H(t, u1)
        # A0 = [[B0 H, B0], [-H B0 H, H B0]]
        b0h = self.B0(t, hu1)
        b0u2 = self.B0(t, u2)
        a0_1 = b0h + b0u2
        a0_2 = -self.apply_H(t, b0h) + self.apply_H(t, b0u2)
        # A1 = [[B1 H + B3, B1 + B4], [B2 - H B3, i[M,tau]M^-1 - H(B1 + B4)]]
        b1h = self.B1(t, hu1)
        b1u2 = self.B1(t, u2)
        b4u2 = self.B4(t, u2)
        b3u1 = self.B3(t, u1)
        a1_1 = b1h + b3u1 + b1u2 + b4u2
        # B2 = 2i H tau - M + i[M,tau]M^-1 H + i[tau, H] - H B1 H + dt H
        htu1 = self.apply_H(t, self.apply_tau(t, u1))
        b2 = 2j * htu1 - self.apply_M(u1)
        b2 = b2 + self.commutator(t, hu1)
        b2 = b2 + 1j * (self.apply_tau(t, hu1) - htu1)
        b2 = b2 - self.apply_H(t, b1h)
        b2 = b2 + self.apply_dtH(t, u1)
        a1_2 = (b2 - self.apply_H(t, b3u1)
                + self.commutator(t, u2) - self.apply_H(t, b1u2 + b4u2))
        r1 = d1 - a0_1 - a1_1
        r2 = d2 - a0_2 - a1_2
        if self.problem.forcing is not None:
            f = self.state(self.problem.forcing(t, self.grid.x))
            r1 = r1 + f
            r2 = r2 - self.apply_H(t, f)
        return r1, r2


def reduce_to_system(t: float, u, v, problem: CauchyProblem, grid: GridSpec):
    """Change of variables ``(u, v) -> (u1, u2)`` of grid fields at time ``t``."""
    ops = SystemOperators(problem, grid)
    u1, u2 = ops.reduce(t, ops.state(u), ops.state(v))
    return ops.field(u1), ops.field(u2)


def system_residual(traj: Trajectory, problem: CauchyProblem, grid: GridSpec,
                    lam: float = 0.0) -> float:
    """Max over interior snapshots of ``||dU/dt - (D - A0 - A1)U - F|| / ||U||``.

    ``dU/dt`` uses 3-point centered differences on the (possibly non-uniform)
    snapshot times; expected size O(dt^2) plus the quantization-commutator
    floor.  Each snapshot is converted once to the states the integrator's
    operators act on (see :class:`SystemOperators`); on Fourier coefficients the
    Parseval constant cancels in the ratio.  Zero trajectories return 0; a
    non-finite residual raises :class:`SolverError` naming the snapshot time.
    """
    if len(traj.snapshots) < 3:
        raise ValueError("system_residual needs at least 3 snapshots")
    ops = SystemOperators(problem, grid, lam=lam)
    times = traj.times
    reduced = [ops.reduce(float(t), ops.state(u), ops.state(v))
               for (t, u, v) in traj.snapshots]
    worst = 0.0
    for i in range(1, len(reduced) - 1):
        h1 = times[i] - times[i - 1]
        h2 = times[i + 1] - times[i]
        denom = h1 * h2 * (h1 + h2)
        dU = [(h1 * h1 * up - h2 * h2 * um - (h1 * h1 - h2 * h2) * u0) / denom
              for um, u0, up in zip(reduced[i - 1], reduced[i], reduced[i + 1])]
        r1, r2 = ops.system_rhs(float(times[i]), reduced[i][0], reduced[i][1])
        res = math.sqrt(l2_norm(grid, dU[0] - r1) ** 2 + l2_norm(grid, dU[1] - r2) ** 2)
        scale = math.sqrt(l2_norm(grid, reduced[i][0]) ** 2 + l2_norm(grid, reduced[i][1]) ** 2)
        if not (math.isfinite(res) and math.isfinite(scale)):
            raise SolverError(f"non-finite system residual at t={times[i]}",
                              report={"t": float(times[i]), "res": res, "scale": scale})
        if scale > 0.0:
            worst = max(worst, res / scale)
    return worst
