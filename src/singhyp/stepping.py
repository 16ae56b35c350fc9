"""One classical RK4 substep of a stacked state ``y = (u, v)``, the arithmetic that
:func:`singhyp.solver.integrate` drives over its graded mesh.

:func:`_rk4_step` takes the four stages of any right-hand side.  Where every mode of the states
solves ``u'' = -g(t) lam u`` (no ``b0``, ``b1``, ``b2`` or forcing), one substep is exactly a
2x2 matrix per mode whose entries are quadratics in ``lam``, and :func:`_propagator` applies it
in closed form, with no right-hand side call: the rows of a chunk of substeps are one product of
per-substep coefficients with ``(1, lam, lam**2)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__: list[str] = []

# the rows of a chunk of RK4 propagators hold at most this many values (64 KiB of float64),
# or one substep's: from N = 1024 on, no more than the RK4 work buffers they replace
_PROPAGATOR_VALUES = 1 << 13


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


def _propagator_coefficients(part: Callable, chunk) -> list:
    """Per substep ``(j, (t0, tm, t1), h, last)`` of ``chunk``, the coefficients of ``(1, lam,
    lam**2)`` in the rows ``Puu, Pvu, Puv, Pvv`` of its RK4 propagator, with ``g_i = part(t_i)[0]``
    (:func:`singhyp.solver.integrate` writes the rows out in ``r_i = -g_i lam``)."""
    coefficients = []
    for _, stages, h, _ in chunk:
        g0, gm, g1 = (part(t)[0] for t in stages)
        h2 = h * h
        coefficients += [(1.0, -h2 / 6.0 * (g0 + 2.0 * gm), h2 * h2 / 24.0 * gm * g0),
                         (0.0, -h / 6.0 * (g0 + 4.0 * gm + g1), h2 * h / 12.0 * gm * (g0 + g1)),
                         (h, -h2 * h / 6.0 * gm, 0.0),
                         (1.0, -h2 / 6.0 * (2.0 * gm + g1), h2 * h2 / 24.0 * g1 * gm)]
    return coefficients


def _propagator(part: Callable, lam: np.ndarray) -> Callable:
    """``states(block, y)``, the state after each substep of ``block`` from ``y`` (not updated
    in place), each one classical RK4 step of ``(u, v)' = (v, -g(t) lam u)`` in closed form:
    ``(u, v) <- (Puu u + Puv v, Pvu u + Pvv v)`` per mode.  The rows of a chunk of substeps,
    at most ``_PROPAGATOR_VALUES`` values, are one product of their coefficients
    (:func:`_propagator_coefficients`, ``g`` read by ``part``, the principal part's lookup in
    its primed table) with ``(1, lam, lam**2)``, in a buffer allocated once per solve."""
    basis = np.array([np.ones_like(lam), lam, lam * lam])
    per = max(1, _PROPAGATOR_VALUES // (4 * lam.size))
    rows = np.empty((4 * per, lam.size))

    def states(block, y):
        for i in range(0, len(block), per):
            chunk = block[i:i + per]
            np.matmul(_propagator_coefficients(part, chunk), basis, out=rows[:4 * len(chunk)])
            for k in range(0, 4 * len(chunk), 4):
                new = rows[k:k + 2] * y[0]
                new += rows[k + 2:k + 4] * y[1]
                y = new
                yield y
    return states
