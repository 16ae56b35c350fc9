"""Time integration of the singular Cauchy problem on the periodic grid, plus
the first-order 2x2 system residual check.

The second-order problem

    ``d2u/dt2 + b0(t,x) du/dt + Op(a or atilde) u + Op(b) u = f``

is integrated as a first-order system for one ``(2, n)`` state ``y = (u, v = du/dt)``,
checked finite once per block, replayed to name the step, with classical RK4 over a graded mesh
``t_j = t_start + (T - t_start) * (j/M)**kappa``.  Grading ``kappa = max(2, 2/(1-p), 2/(1-r))``
(for ``t_start = 0``) resolves the integrable ``t**-p`` and ``t**-r`` coefficient
singularities; when the coefficients are singular at ``t_start`` the first step samples all
four stages at the step midpoint, so the vector field is never evaluated at the singular
time.  CFL violations trigger automatic step halving (up to 20 levels).

Every ``Op(sigma)`` comes from :func:`symbol_operator`, which picks its path once per
(symbol, grid), and ``Op(b)`` from :func:`lower_operator`.  They act on the family's states:
Fourier coefficients of a multiplier family (every operator is then diagonal in xi, and RK4
transforms only at snapshots), grid values otherwise, through ``quantize._fft_multiply`` and
``quantize._kn_product`` (this module makes no transform).  Each multiplier is checked once,
where it is formed, and kept read-only.  The right-hand side is
``dv = -Op(a) u - Op(b) u - b0 v (+ F)`` (:meth:`Discretization.rhs`).

The first-order reduction

    ``u1 = v + i Op(tau) u``,  ``u2 = Op(omega <D>_k) u - Op(H) u1``

turns ``Pu = f`` into ``dU/dt = (D - A0 - A1) U + F`` with
``D = diag(i Op(tau), -i Op(tau))`` and correction blocks built from the
excision defect, the root's time derivative, the lower-order symbol and the
auxiliary H.  ``system_residual`` checks that identity on stored snapshots, in one
pass, with centered time differences; it is a consistency monitor, not a second
integrator, and its blocks act on the integrator's states through the same
operators.  Compositions are applied left to right as written, so the reported
residual carries the quantization-commutator floor on top of the O(dt^2)
differencing error (zero floor for multiplier families).  An absent coefficient (``b0``,
or both ``b1`` and ``b2``) has no operator and no terms.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# apply_kn and apply_multiplier are not called here, but perfbench's self-test patches both;
# _fft_multiply and _kn_product are called by name, so a hook on this module reaches them
from .quantize import (GridSpec, _fft_multiply, _kn_product, _multiplier_values,  # noqa: F401
                       apply_kn, apply_multiplier, dft_forward, dft_inverse, kn_band, l2_norm)
from .structure import bracket
from .symbols import CoefficientFamily, char_root, cut_sides, excise, h_symbol, off_blend

__all__ = ["SolverError", "SupportError", "TimeMesh", "graded_mesh", "CauchyProblem",
           "Trajectory", "symbol_operator", "lower_operator", "assemble_rhs", "integrate",
           "SystemOperators", "reduce_to_system", "system_residual"]

MAX_HALVINGS = 20
SUPPORT_RTOL = 1e-12
CFL_SAFETY = 0.5
# a table of parts holds at most this many times, and at most this many
# coefficient values (32 KiB of float64), per operator
_TABLE_TIMES, _TABLE_VALUES = 768, 1 << 12


class SolverError(RuntimeError):
    """Integration aborted (CFL exhaustion or non-finite state); carries a step report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class SupportError(ValueError):
    """Data of an x-dependent problem leaks outside |x| <= L/2."""


@dataclass(frozen=True)
class TimeMesh:
    """Finite, strictly increasing nodes ``t_0 < ... < t_M`` with grading exponent kappa."""

    nodes: np.ndarray
    kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.nodes).all() and np.all(np.diff(self.nodes) > 0)):
            raise ValueError("mesh nodes must be finite and strictly increasing")

    @property
    def M(self) -> int:
        return self.nodes.size - 1


def graded_mesh(family, t_start: float, t_end: float, m: int,
                kappa: float | None = None) -> TimeMesh:
    """Graded mesh on ``[t_start, t_end]``.

    For ``t_start = 0`` the default grading is ``max(2, 2/(1-p), 2/(1-r))``;
    for positive starts the singularity is excluded and ``kappa = 2`` is used.
    That default needs ``p, r < 1``, ``m`` is an integer >= 1 and an explicit ``kappa`` is
    finite and > 0 (else a ``ValueError``).
    """
    if not 0.0 <= t_start < t_end < np.inf:
        raise ValueError(f"need 0 <= t_start < t_end < inf, got [{t_start}, {t_end}]")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got m = {m!r}")
    if kappa is not None and not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be finite and > 0, got kappa = {kappa!r}")
    if kappa is None and t_start == 0.0:
        for name in ("p", "r"):
            if getattr(family, name) >= 1.0:
                raise ValueError(f"the default grading 2/(1-{name}) needs {name} < 1, got "
                                 f"{name} = {getattr(family, name):g}: give a positive t_start "
                                 "or an explicit kappa")
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
        """``ValueError`` unless the data have ``grid.N`` points and the family ``grid.k``."""
        for name, f in (("f1", self.f1), ("f2", self.f2)):
            if np.asarray(f).shape != (grid.N,):
                raise ValueError(f"{name} does not match grid size {grid.N}")
        if self.family.k != grid.k:
            raise ValueError(f"family.k={self.family.k} does not match grid.k={grid.k}")

    def check_support(self, grid: GridSpec):
        """Torus legitimacy: :class:`SupportError` unless the data of x-dependent
        coefficients are localized in ``|x| <= L/2``."""
        if self.family.x_dependent:
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


_StateSpace = namedtuple("_StateSpace", "name x multiply term state field")


def _state_space(grid: GridSpec, family: CoefficientFamily) -> _StateSpace:
    """Where the operators of ``family`` act: on Fourier coefficients, with the
    coefficients read at ``x = 0``, for a multiplier family; on grid values otherwise.
    ``multiply(m, u)`` applies ``m(D)`` given on ``grid.xi``, ``term(b, m, u)`` is
    ``b(x) m(D) u`` (``m (b u)`` on Fourier coefficients), ``state``/``field`` convert grid
    fields to states and back (along the last axis: a stacked ``(u, v)`` in one call)."""
    if family.is_multiplier:
        return _StateSpace("fourier", 0.0, operator.mul, lambda b, m, u: m * (b * u),
                           lambda f: dft_forward(grid, f), lambda c: dft_inverse(grid, c))
    return _StateSpace("physical", grid.x, _fft_multiply, lambda b, m, u: b * _fft_multiply(m, u),
                       lambda f: f, lambda c: c)


def _negated_mu(first: _Operator, lower: _Operator | None) -> _Operator:
    """``-(first + lower)`` of diagonal operators on Fourier coefficients: one product with
    its row ``-mu(t)``, formed when a ``t`` is first read as ``first(t, -1.0) + lower(t, -1.0)``,
    each operator's own apply without the instance call (a measurable share of a row)."""
    def parts(t):
        row = first._apply(first.part(t), -1.0)
        return (row if lower is None else row + lower._apply(lower.part(t), -1.0)), 0

    return _Operator("row", operator.mul, parts=parts)


class _Operator:
    """``(t, u) -> apply(part, u)``, the part at ``t`` looked up in a table of parts by time.

    A coefficient path (``separable``, ``diagonal``, ``coefficient``) has ``column(times)``,
    its parts at every time of a 1-D array in one vectorised call, which :meth:`prime`
    tabulates; ``width`` is the number of values a part holds.  A band path (``banded``,
    ``dense``) and the ``row`` of :func:`_negated_mu` have ``parts(t)``, the part at one ``t``
    and its number of lattice columns (summed in ``lattice_columns``; ``lattice_evals`` counts
    the lattices formed).  On a miss (counted in ``formed``) the table keeps that ``t`` alone,
    formed by ``column(np.array([t]))`` or ``parts(t)``, unless it is a dense N x N matrix.
    On Fourier coefficients every operator is diagonal, and ``op(t, -1.0)`` is its row negated."""

    def __init__(self, path: str, apply: Callable, column: Callable | None = None,
                 parts: Callable | None = None, width: int = 1):
        self.path, self._apply, self._column, self.width = path, apply, column, width
        self._parts = parts or (lambda t: (column(np.array([t]))[0], 0))
        self.lattice_columns = self.lattice_evals = self.formed = 0
        self._table = {}

    def prime(self, times: np.ndarray) -> None:
        """Replace the table by the parts at ``times``, if any (a no-op on a band path)."""
        if self._column is not None and times.size:
            self._table = dict(zip(times.tolist(), self._column(times)))

    def part(self, t):
        """The part at ``t``: looked up in the table, or formed on a miss."""
        part = self._table.get(t)
        if part is None:
            self._table = {}  # one band product alive at a time, not two
            part, n = self._parts(t)
            self.formed += 1
            self.lattice_columns += n
            self.lattice_evals += n > 0
            if self.path != "dense":
                self._table = {t: part}
        return part

    def __call__(self, t, u):
        return self._apply(self.part(t), u)


def _rows(f: Callable, ts: np.ndarray, x) -> list:
    """``f(t, x)`` at every time of ``ts`` in one call: one row per time, an array over
    ``x`` on grid values and the value at ``x = 0`` on Fourier coefficients, as a Python
    float (which multiplies a state measurably faster than a numpy scalar)."""
    if np.ndim(x):
        return list(np.broadcast_to(f(ts[:, None], x), (ts.size, np.size(x))))
    return np.broadcast_to(f(ts, x), ts.shape).tolist()


def symbol_operator(grid: GridSpec, family: CoefficientFamily,
                    symbol: Callable | None = None) -> _Operator:
    """``(t, u) -> Op(symbol(t, ., .)) u`` on the family's states, with the path
    chosen once and named by the operator's ``path``.

    ``symbol`` defaults to the family's ``a``.  That default on a separable
    family is the exact product ``g(t) w(x) m(D)`` with ``w`` and ``m``
    precomputed (``separable``); any symbol of a multiplier family (see
    :attr:`CoefficientFamily.is_multiplier`) acts on Fourier coefficients as the
    diagonal product ``symbol(t, 0, xi) u`` (``diagonal``).  On grid values, a symbol
    whose method declares its form off the cutoff's blend (:func:`~singhyp.symbols.off_blend`)
    is multipliers on the columns :func:`~singhyp.symbols.cut_sides` puts off the blend and
    :func:`kn_band` on the band of at most ``2/t * 2L/pi`` others (``banded``); any other
    is all band (``dense``), both applied by ``quantize._kn_product``.  Where ``m`` is even
    (``Separated.even``) a band's lattice is evaluated on one column per +-xi pair.  A declared
    method reads x only through the pair's ``Phi`` and ``omega`` and the family's ``w``, so
    where ``grid.x`` holds its own negations and those three are bitwise even on it
    (``Separated.even_x``) the lattice is evaluated on one row per +-x pair, rows ``0 ... N/2``,
    and the others copied.  A separable or diagonal operator evaluates ``g`` or ``symbol`` over
    a column of times (:meth:`_Operator.prime`)."""
    space = _state_space(grid, family)
    if symbol is None and family.separable is not None:
        g, w, m = family.separable
        w = np.asarray(w(space.x), dtype=float)
        m = _multiplier_values(grid, m)
        return _Operator("separable", lambda gw, u: space.term(gw, m, u),
                         lambda ts: _rows(lambda t, x: g(t) * w, ts, space.x), width=w.size)
    symbol = family.a if symbol is None else symbol
    if space.name == "fourier":
        return _Operator("diagonal", operator.mul,
                         lambda ts: list(np.broadcast_to(symbol(ts[:, None], 0.0, grid.xi),
                                                         (ts.size, grid.N))),
                         width=grid.N)
    forms = off_blend(symbol, grid.x, grid.xi)
    fold_xi, fold_x = (False, False) if forms is None else (forms[1].even, forms[1].even_x)
    # pair[j]: the column whose value column j reads when m is even, j for xi_j >= 0 and the
    # Nyquist (unpaired), N - j (-xi_j) for the other xi_j < 0; rows pair the same way when
    # they fold: row i > N/2 (x_i > 0) reads row N - i (-x_i), and x_0 = -L is unpaired
    half, pair = grid.N // 2 + 1, np.minimum(np.arange(grid.N), np.arange(grid.N, 0, -1))
    rows = slice(half if fold_x else None)

    def parts(t):
        terms, cols, evaluated, gather = [], slice(None), slice(None), slice(None)
        if forms is not None:
            form, f = forms
            lo, hi = cut_sides(t, f.phi, f.br, form.scale)
            terms = [(w, _multiplier_values(grid, np.where(mask, m, 0.0)))
                     for mask, side in ((lo, form.low), (hi, form.high)) if mask.any()
                     for w, m in side(f, t)]
            on_band = ~(lo | hi)  # symmetric in +-xi, as <xi>_k is
            cols = evaluated = np.flatnonzero(on_band)
            if fold_xi:
                evaluated = np.flatnonzero(on_band[:half])
                gather = np.searchsorted(evaluated, pair[cols])
            elif fold_x:
                gather = np.arange(cols.size)
        xi = grid.xi[evaluated]
        lattice = 0.0
        if xi.size:
            values = symbol(t, grid.x[rows, None], xi[None, :])
            if fold_x:
                # rows 0 ... N/2 gathered into one array (mode "clip" writes to it unbuffered),
                # then rows N/2 + 1 ... N - 1 copied from rows pair[i] = N/2 - 1 ... 1
                lattice = np.empty((grid.N, gather.size), values.dtype)
                values.take(gather, axis=1, out=lattice[rows], mode="clip")
                lattice[half:] = lattice[half - 2:0:-1]
            else:
                lattice = values[:, gather]
        band = kn_band(grid, lattice, cols)
        return (band, cols, terms), len(band)

    return _Operator("dense" if forms is None else "banded",
                     lambda parts, u: _kn_product(grid, u, *parts), parts=parts)


def _coefficient_operator(grid: GridSpec, family: CoefficientFamily, product: Callable,
                          *bs: Callable) -> _Operator:
    """``(t, u) -> product(parts, u)`` on the family's states, ``parts`` the coefficients
    ``bs`` at ``t``: evaluated over a column of times (on Fourier coefficients at ``x = 0``)."""
    x = _state_space(grid, family).x
    return _Operator("coefficient", product, lambda ts: list(zip(*[_rows(b, ts, x) for b in bs])),
                     width=len(bs) * np.size(x))


def _scale(bs, u):
    """``b u``, the product of one coefficient ``bs = (b,)``."""
    return bs[0] * u


def lower_operator(grid: GridSpec, family: CoefficientFamily) -> _Operator | None:
    """``(t, u) -> Op(b) u = b1(t, x) du/dx + b2(t, x) u`` on the family's states;
    an absent coefficient's term is left out (None when both are)."""
    term, b1, b2 = _state_space(grid, family).term, family.b1, family.b2
    i_xi = _multiplier_values(grid, 1j * grid.xi_odd)
    if b1 is None:
        return None if b2 is None else _coefficient_operator(grid, family, _scale, b2)
    if b2 is None:
        return _coefficient_operator(grid, family, lambda bs, u: term(bs[0], i_xi, u), b1)
    return _coefficient_operator(grid, family,
                                 lambda bs, u: term(bs[0], i_xi, u) + bs[1] * u, b1, b2)


class _Operators:
    """The operators of one (problem, grid) pairing on the family's states: ``ops``,
    ``Op(b)`` (``apply_lower``) and the ``b0`` multiplication (``apply_b0``), each None when
    its coefficients are absent; the grid must match the data's size and the family's ``k``.
    ``state`` and ``field`` convert grid fields to states and back, and :meth:`prime`
    tabulates every operator's coefficients over a column of at most ``times_per_table``
    times."""

    def __init__(self, problem: CauchyProblem, grid: GridSpec, *ops: _Operator):
        problem.validate(grid)
        fam = problem.family
        self.problem, self.grid = problem, grid
        self.space = _state_space(grid, fam)
        self.state, self.field = self.space.state, self.space.field
        self.apply_lower = lower_operator(grid, fam)
        self.apply_b0 = (None if fam.b0 is None
                         else _coefficient_operator(grid, fam, _scale, fam.b0))
        self._ops = tuple(op for op in (*ops, self.apply_lower, self.apply_b0) if op is not None)
        widest = max(op.width for op in self._ops)
        self.times_per_table = max(3, min(_TABLE_TIMES, _TABLE_VALUES // widest))

    def prime(self, times: np.ndarray) -> None:
        """Evaluate every coefficient of the operators at ``times`` in one call each."""
        for op in self._ops:
            op.prime(times)

    def forcing_state(self, t):
        """The forcing's state at ``t``: ``f(t, x)`` broadcast to the grid, so a forcing
        that does not depend on x may return one value."""
        x = self.grid.x
        return self.state(np.broadcast_to(self.problem.forcing(t, x), x.shape))


class Discretization(_Operators):
    """Spatial operator application for one (problem, grid) pairing.

    The principal symbol is the excised ``atilde`` with ``use_excision`` and the family's ``a``
    otherwise.  :meth:`rhs` acts on the stacked state ``(u, v)`` through
    :func:`symbol_operator` and :func:`lower_operator`, and the ``b0`` multiplication: on
    Fourier coefficients ``apply_negated`` is their ``-(Op(a) + Op(b))``, one row ``-mu(t)``
    per time, each operator's own product at ``-1.0`` (:func:`_negated_mu`); on grid values
    it is None.  ``b0 v`` is the tabulated ``b0`` times ``v``, formed in one buffer per
    discretization.
    """

    def __init__(self, problem: CauchyProblem, grid: GridSpec):
        fam = problem.family
        atilde = excise(fam).a if problem.use_excision else None
        self.symbol = fam.a if atilde is None else atilde
        self.apply_principal = symbol_operator(grid, fam, atilde)
        super().__init__(problem, grid, self.apply_principal)
        problem.check_support(grid)
        self.apply_negated = None if self.space.name != "fourier" else _negated_mu(
            self.apply_principal, self.apply_lower)
        self._b0v = None if self.apply_b0 is None else np.empty(grid.N, dtype=complex)

    def rhs(self, t: float, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Time derivative ``(v, -mu(t) u - b0 v + F)`` of the stacked state ``y = (u, v)``,
        written into ``out`` (a new array when None), which must not overlap ``y``."""
        out = np.empty_like(y, dtype=complex) if out is None else out
        out[0] = y[1]
        dv = out[1]
        if self.apply_negated is not None:
            np.multiply(self.apply_negated.part(t), y[0], out=dv)
        else:
            np.negative(self.apply_principal(t, y[0]), out=dv)
            if self.apply_lower is not None:
                np.subtract(dv, self.apply_lower(t, y[0]), out=dv)
        if self.apply_b0 is not None:
            np.subtract(dv, np.multiply(self.apply_b0.part(t)[0], y[1], out=self._b0v), out=dv)
        if self.problem.forcing is not None:
            np.add(dv, self.forcing_state(t), out=dv)
        return out

    def speed_bound(self, ts: np.ndarray) -> np.ndarray:
        """sqrt(|a(t, x, xi_max)|) / xi_max (excised a if active) at each time of ``ts``,
        the sup over the points the states are read at (the grid, or ``x = 0`` on Fourier
        coefficients), in one call."""
        xi_ref, x = self.grid.xi_max, np.atleast_1d(self.space.x)
        vals = np.abs(np.asarray(self.symbol(ts[:, None], x, xi_ref), dtype=float))
        return np.sqrt(np.max(np.broadcast_to(vals, (ts.size, x.size)), axis=1) / xi_ref**2)

    def singular_start(self) -> bool:
        """Whether a coefficient is not finite at ``t_start``: the principal symbol at
        ``xi = k`` and ``xi_max``, and ``b0``, ``b1``, ``b2``, each at every x the
        states are read at (the grid, or ``x = 0`` for Fourier coefficients)."""
        fam, t0, x = self.problem.family, self.problem.t_start, self.space.x
        with np.errstate(all="ignore"):
            vals = [self.symbol(t0, x, xi) for xi in (self.grid.k, self.grid.xi_max)]
            vals += [b(t0, x) for b in (fam.b0, fam.b1, fam.b2) if b is not None]
        return not all(np.all(np.isfinite(v)) for v in vals)


def assemble_rhs(t: float, u, v, problem: CauchyProblem, grid: GridSpec):
    """``(du, dv) = (v, f - b0 v - Op(a or atilde)u - Op(b)u)`` of grid fields, checked finite."""
    disc = Discretization(problem, grid)
    dy = disc.field(disc.rhs(t, disc.state(np.array([u, v], dtype=complex))))
    if not np.isfinite(dy).all():
        raise SolverError(f"non-finite right-hand side at t={t}",
                          report={"t": t, "max_u": float(np.max(np.abs(u)))})
    return dy[0], dy[1]


def _rk4_step(rhs, stages, dt: float, y, work):
    """One RK4 step of length ``dt`` of the stacked state ``y`` at ``stages = (t0, tm, t1)``;
    stages 2 and 3 share ``tm``.  ``work`` holds the four derivatives and one stage input
    (shape ``(5, *y.shape)``, reused from step to step), and each sum is formed in it in the
    order of ``y + (dt/6) (k1 + 2 k2 + 2 k3 + k4)`` written out.  Returns a new array; ``y``
    is not updated in place."""
    t0, tm, t1 = stages
    k1, k2, k3, k4, z = work
    rhs(t0, y, k1)
    rhs(tm, np.add(y, np.multiply(0.5 * dt, k1, out=z), out=z), k2)
    rhs(tm, np.add(y, np.multiply(0.5 * dt, k2, out=z), out=z), k3)
    rhs(t1, np.add(y, np.multiply(dt, k3, out=z), out=z), k4)
    k1 += np.multiply(2.0, k2, out=k2)
    k1 += np.multiply(2.0, k3, out=k3)
    k1 += k4
    return y + np.multiply(dt / 6.0, k1, out=k1)


def _substeps(disc: Discretization, nodes: np.ndarray, singular: bool, log: dict):
    """``(j, stages, h, last)`` per RK4 substep of the mesh: mesh step ``j`` split into
    substeps of length ``h``, ``last`` on its final one.  ``stages`` are the times
    :func:`_rk4_step` samples, ``(t0, t0 + 0.5 h, t1)`` with ``t1`` bitwise the next ``t0``,
    or ``(tm, tm, tm)`` at the midpoint ``tm`` for the first substep of a ``singular`` start.

    A step violating the CFL bound ``dt <= 0.5 dx / speed_bound`` at its midpoint is
    halved up to ``MAX_HALVINGS`` levels; ``log`` records each halved step's level in
    ``halving_steps`` and the least bound in ``min_cfl_dt``.  One ``speed_bound`` call
    gives the bounds of a chunk of steps, ``_TABLE_VALUES`` values of the symbol."""
    dx, chunk = disc.grid.dx, max(1, _TABLE_VALUES // np.size(disc.space.x))
    for j0 in range(0, nodes.size - 1, chunk):
        t0s = nodes[j0:min(j0 + chunk, nodes.size - 1)]
        t1s = nodes[j0 + 1:j0 + 1 + t0s.size]
        bounds = disc.speed_bound(0.5 * (t0s + t1s))
        # floats made one step at a time: lists of a whole chunk's would raise the peak memory
        for j, t0, t1, s in zip(itertools.count(j0), *(map(float, a) for a in (t0s, t1s, bounds))):
            dt = t1 - t0
            dt_max = CFL_SAFETY * dx / max(s, 1e-300)
            log["min_cfl_dt"] = min(log["min_cfl_dt"], dt_max)
            n_sub = 1
            if dt > dt_max:
                level = math.ceil(math.log2(dt / dt_max))
                if level > MAX_HALVINGS:
                    raise SolverError(
                        f"CFL requires more than {MAX_HALVINGS} halvings at t={t0} "
                        f"(dt={dt:.3e}, dt_max={dt_max:.3e})",
                        report={"t": t0, "dt": dt, "dt_max": dt_max})
                n_sub = 2 ** level
                log["halving_steps"][j] = level
            h = dt / n_sub
            for i in range(n_sub):
                s0, s1 = t0 + i * h, t1 if i == n_sub - 1 else t0 + (i + 1) * h
                tm = s0 + 0.5 * h
                yield j, (tm, tm, tm) if singular else (s0, tm, s1), h, i == n_sub - 1
                singular = False


def integrate(problem: CauchyProblem, grid: GridSpec, mesh: TimeMesh,
              output_times: Sequence[float]) -> Trajectory:
    """RK4 of one stacked state ``(u, v)`` over the graded mesh, replaced (never updated in
    place) by each step, its stages in work buffers allocated once per solve, and checked finite
    once per block, replayed to name the step: a block that ends non-finite is stepped again from
    its start, checking the end of each mesh step, so :class:`SolverError`'s ``report`` names
    the first mesh step that ends non-finite (``t``, ``step``); an overflow or invalid operation
    in the stepping raises no warning first.  Snapshots ``(t, u, v)`` at the
    mesh nodes nearest the requested output times, which must be finite (the stored snapshot
    time is the exact node time; requests nearest the same node share one snapshot, and
    ``stats`` lists the sorted requests as ``requested_times``).  Steps run on the state space
    of :class:`Discretization`, named by ``stats["space"]`` (and ``operator``,
    ``lattice_columns``, ``lattice_evals``).  ``stats["halving_steps"]`` maps each halved mesh
    step to its level, and ``stats["substeps"]`` counts the RK4 substeps.

    The vector field is never sampled at a singular ``t_start``: the first step then uses
    midpoint-only stages.  Steps violating the CFL bound ``dt <= 0.5 dx / speed_bound`` are
    halved up to 20 levels.  The coefficients are evaluated over the stage times
    :func:`_substeps` yields for a block of substeps (:meth:`Discretization.prime`) before
    the block is stepped.
    """
    disc = Discretization(problem, grid)
    nodes = mesh.nodes
    if abs(nodes[0] - problem.t_start) > 1e-14 * max(1.0, problem.t_start):
        raise ValueError("mesh must start at problem.t_start")
    if nodes[-1] > problem.T * (1.0 + 1e-14):
        raise ValueError("mesh must end at or before problem.T")

    out_req = np.sort(np.asarray(output_times, dtype=float))
    if not np.all(np.isfinite(out_req)):
        raise ValueError(f"output_times must be finite, got {out_req.tolist()}")
    idx = np.unique(np.abs(nodes[None, :] - out_req[:, None]).argmin(axis=1))

    y = disc.state(np.array([problem.f1, problem.f2], dtype=complex))
    snapshots = []
    if 0 in idx:
        snapshots.append((float(nodes[0]), *disc.field(y)))

    singular = disc.singular_start()
    log = {"halving_steps": {}, "min_cfl_dt": math.inf}
    substeps = _substeps(disc, nodes, singular, log)
    work = np.empty((5, *y.shape), dtype=complex)

    def step(block, y, check):
        # RK4 over a block, checking the state finite at every mesh step's end if ``check``
        for j, stages, h, last in block:
            y = _rk4_step(disc.rhs, stages, h, y, work)
            if not last:
                continue
            t1 = float(nodes[j + 1])
            if check and not np.isfinite(y).all():
                raise SolverError(f"state became non-finite at t={t1}",
                                  report={"t": t1, "step": j})
            if j + 1 in idx:
                snapshots.append((t1, *disc.field(y)))
        return y

    n = 0
    # an overflowing or NaN state steps on quietly to its block's end, where the check and
    # the replay name its step
    with np.errstate(over="ignore", invalid="ignore"):
        # a block's stage times (three per substep) fill one table of parts
        while block := list(itertools.islice(substeps, disc.times_per_table // 3)):
            disc.prime(np.array([stages for _, stages, _, _ in block]).ravel())
            start, kept = y, len(snapshots)
            y = step(block, start, False)
            if not np.isfinite(y).all():
                # every step ends in y + (...), so a non-finite entry stays non-finite: step
                # the block again from its start, checking each mesh step, to name the first
                # such step (the next block names it if this block ends inside it)
                del snapshots[kept:]
                y = step(block, start, True)
                if np.isfinite(y).all():
                    raise SolverError(f"state became non-finite by t={block[-1][1][2]} but not "
                                      "when its block was stepped again")
            n += len(block)

    halving_steps = log["halving_steps"]
    stats = {
        "steps": mesh.M,
        "substeps": n,
        "halvings": sum(halving_steps.values()),
        "halving_steps": halving_steps,
        "kappa": mesh.kappa,
        "min_cfl_dt": log["min_cfl_dt"],
        "max_dt": float(np.max(np.diff(nodes))),
        "singular_start": bool(singular),
        "space": disc.space.name,
        "operator": disc.apply_principal.path,
        "lattice_columns": disc.apply_principal.lattice_columns,
        "lattice_evals": disc.apply_principal.lattice_evals,
        "rows": 0 if disc.apply_negated is None else disc.apply_negated.formed,
        "requested_times": out_req.tolist(),
    }
    return Trajectory(snapshots=tuple(snapshots), grid=grid, mesh=mesh, stats=stats)


# --------------------------------------------------------------------------
# first-order system
# --------------------------------------------------------------------------


class SystemOperators(_Operators):
    """Quantized building blocks of the 2x2 system.

    Each symbol's operator comes from :func:`symbol_operator` and ``Op(b)`` from
    :func:`lower_operator`, so every block acts on the integrator's states
    (Fourier coefficients for a multiplier family, grid values otherwise).
    Compositions follow the written operator order: ``B0 H u = B0(H(u))``.  The blocks
    ``B0 = Op(defect) M^-1``, ``B1 = (-i Op(dt tau) + Op(atilde) - Op(tau)^2 + Op(b)) M^-1``,
    ``B4 = i lam b0 M^-1`` and ``i[M, tau]M^-1`` all end in ``M^-1``, so each acts on ``M^-1 u``,
    formed once per vector ``u``; ``B3 = b0 (1 - i lam M^-1 H)``, and ``B3 = B4 = 0`` without b0.
    """

    def __init__(self, problem: CauchyProblem, grid: GridSpec, lam: float = 0.0):
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
        super().__init__(problem, grid, self.apply_tau, self.apply_dt_tau, self.apply_H,
                         self.apply_dtH, self.apply_defect, self.apply_excised)
        self._om = np.asarray(fam.pair.omega(self.space.x), dtype=float)
        self._br = _multiplier_values(grid, bracket(grid.xi, grid.k))
        self._br_inv = _multiplier_values(grid, 1.0 / self._br)

    def apply_M(self, u):
        return self._om * self.space.multiply(self._br, u)

    def apply_Minv(self, u):
        return self.space.multiply(self._br_inv, u / self._om)

    def _blocks(self, t, w):
        """``B0 u``, ``B1 u`` and ``i[M, tau]M^-1 u`` from ``w = M^-1 u``: ``Op(defect) w``,
        ``(-i Op(dt tau) + Op(atilde) - Op(tau)^2 + Op(b)) w`` and ``i (M tau - tau M) w``,
        with ``tau w`` formed once."""
        tw = self.apply_tau(t, w)
        b1 = -1j * self.apply_dt_tau(t, w) + self.apply_excised(t, w) - self.apply_tau(t, tw)
        if self.apply_lower is not None:
            b1 = b1 + self.apply_lower(t, w)
        comm = 1j * (self.apply_M(tw) - self.apply_tau(t, self.apply_M(w)))
        return self.apply_defect(t, w), b1, comm

    # system assembly --------------------------------------------------------

    def reduce(self, t, u, v):
        u1 = v + 1j * self.apply_tau(t, u)
        return u1, self.apply_M(u) - self.apply_H(t, u1)

    def system_rhs(self, t, u1, u2):
        """``(D - A0 - A1) U + F`` for ``U = (u1, u2)``, each operator product formed once:
        ``tau u1`` serves ``D`` and ``H tau u1``, the blocks ending in ``M^-1`` act on
        ``M^-1 H u1`` and ``M^-1 u2`` (:meth:`_blocks`), and ``B3`` reuses ``H u1`` and
        ``M^-1 H u1``; without ``b0`` no ``B3`` or ``B4`` term is formed."""
        tu1 = self.apply_tau(t, u1)
        hu1 = self.apply_H(t, u1)
        w_hu1, w_u2 = self.apply_Minv(hu1), self.apply_Minv(u2)
        b0h, b1h, comm_h = self._blocks(t, w_hu1)
        b0u2, b1u2, comm_u2 = self._blocks(t, w_u2)
        # A0 = [[B0 H, B0], [-H B0 H, H B0]]
        a0_1 = b0h + b0u2
        a0_2 = -self.apply_H(t, b0h) + self.apply_H(t, b0u2)
        # B2 = 2i H tau - M + i[M,tau]M^-1 H + i[tau, H] - H B1 H + dt H
        htu1 = self.apply_H(t, tu1)
        b2 = 2j * htu1 - self.apply_M(u1) + comm_h + 1j * (self.apply_tau(t, hu1) - htu1)
        b2 = b2 - self.apply_H(t, b1h) + self.apply_dtH(t, u1)
        # A1 = [[B1 H + B3, B1 + B4], [B2 - H B3, i[M,tau]M^-1 - H(B1 + B4)]]
        if self.apply_b0 is None:
            a1_1, b14u2 = b1h + b1u2, b1u2
        else:
            b3u1 = self.apply_b0(t, u1 - 1j * self.lam * w_hu1)
            b4u2 = 1j * self.lam * self.apply_b0(t, w_u2)
            a1_1, b14u2 = b1h + b3u1 + b1u2 + b4u2, b1u2 + b4u2
            b2 = b2 - self.apply_H(t, b3u1)
        a1_2 = b2 + comm_u2 - self.apply_H(t, b14u2)
        r1 = 1j * tu1 - a0_1 - a1_1
        r2 = -1j * self.apply_tau(t, u2) - a0_2 - a1_2
        if self.problem.forcing is not None:
            f = self.forcing_state(t)
            r1, r2 = r1 + f, r2 - self.apply_H(t, f)
        return r1, r2


def reduce_to_system(t: float, u, v, problem: CauchyProblem, grid: GridSpec):
    """Change of variables ``(u, v) -> (u1, u2)`` of grid fields at time ``t``."""
    ops = SystemOperators(problem, grid)
    u1, u2 = ops.reduce(t, *ops.state(np.array([u, v])))
    return ops.field(u1), ops.field(u2)


def system_residual(traj: Trajectory, problem: CauchyProblem, grid: GridSpec,
                    lam: float = 0.0) -> float:
    """Max over interior snapshots of ``||dU/dt - (D - A0 - A1)U - F|| / ||U||``.

    ``dU/dt`` uses 3-point centered differences on the (possibly non-uniform) snapshot
    times; expected size O(dt^2) plus the quantization-commutator floor.  One pass reduces
    each snapshot, converted once to the states the operators act on (see
    :class:`SystemOperators`), and applies ``system_rhs`` at an interior one while its band
    parts are formed, keeping three reduced snapshots; the coefficient operators are
    evaluated over a chunk of snapshot times at once.  On Fourier coefficients the Parseval
    constant cancels in the ratio.  Zero trajectories return 0; a non-finite residual raises
    :class:`SolverError` naming the snapshot time.
    """
    if len(traj.snapshots) < 3:
        raise ValueError("system_residual needs at least 3 snapshots")
    if grid != traj.grid:
        raise ValueError(f"grid {grid} is not the trajectory's grid {traj.grid}")
    ops = SystemOperators(problem, grid, lam=lam)
    times, per, last = traj.times, ops.times_per_table, len(traj.snapshots) - 1
    reduced, worst = [], 0.0
    for i, (t, u, v) in enumerate(traj.snapshots):
        if i % per == 0:
            # reduce reads tau and H at every snapshot, system_rhs every operator at the
            # interior ones only (a coefficient may be singular at the first)
            interior = times[max(i, 1):min(i + per, last)]
            for op in ops._ops:
                op.prime(times[i:i + per] if op in (ops.apply_tau, ops.apply_H) else interior)
        # the reduced snapshots i - 2, i - 1 and i give dU/dt at i - 1
        reduced = [*reduced[-2:], ops.reduce(float(t), *ops.state(np.array([u, v])))]
        if i >= 2:
            h1, h2 = times[i - 1] - times[i - 2], times[i] - times[i - 1]
            dU = [(h1 * h1 * up - h2 * h2 * um - (h1 * h1 - h2 * h2) * u0) / (h1 * h2 * (h1 + h2))
                  for um, u0, up in zip(*reduced)]
            res = math.sqrt(sum(l2_norm(grid, d - r) ** 2 for d, r in zip(dU, rhs)))
            scale = math.sqrt(sum(l2_norm(grid, w) ** 2 for w in reduced[1]))
            if not (math.isfinite(res) and math.isfinite(scale)):
                raise SolverError(f"non-finite system residual at t={times[i - 1]}",
                                  report={"t": float(times[i - 1]), "res": res, "scale": scale})
            if scale > 0.0:
                worst = max(worst, res / scale)
        if 0 < i < last:
            rhs = ops.system_rhs(float(t), *reduced[-1])
    return worst
