"""Host-speed probe: a fixed kernel timed at regular intervals through a run.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes: the same solve, with the same inputs in
the same process, took 3.5 s in one minute and 5.6 s in the next, with CPU
time tracking wall time, so the drift is not descheduling.  To take it out of
the reported times, a SIGPROF timer interrupts the run every ``INTERVAL_S`` of
process CPU time and times one call of a small kernel that uses no library
code, so that changes to the library leave it alone.  ``scaled`` turns a timed
interval into the time it would have taken on a host where the kernel takes
``REFERENCE_S``: its wall time, less the kernel calls inside it, times
``REFERENCE_S / median kernel time around it``.

The kernel is five RK4 steps of a wave equation in Fourier space at N = 1024:
interpreter overhead, small FFTs and array arithmetic.  On five 40 s runs of
spectral_ce on a busy 2-vCPU Xeon VM, the spread (quartile distance over
median) of the runs' median operation time was 0.16 in wall time and 0.06
scaled, and of their median set-up time 0.20 and 0.06.  A kernel of dense
256 x 256 lattice arithmetic, like the Kohn-Nirenberg path, was noisier itself
and tracked the x-dependent workloads no better.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05   # process CPU time between kernel calls
REFERENCE_S = 1.25e-3  # about the kernel's median time on a quiet 2-vCPU Xeon VM
NEAREST = 15          # fewest kernel calls a scaling factor is taken from

_N = 1024
_SPEED2 = 1.0 + 0.01 * np.fft.fftfreq(_N, d=1.0 / _N) ** 2
_U0 = np.exp(-np.linspace(-4.0, 4.0, _N) ** 2) + 0j


def _rhs(t, u, v):
    return v, -(1.0 + 0.5 * t) * np.fft.ifft(_SPEED2 * np.fft.fft(u))


def kernel():
    """Five RK4 steps of ``u_tt = -(1 + t/2) c(D)^2 u``."""
    u, v, dt = _U0, np.zeros_like(_U0), 1e-3
    for step in range(5):
        t = step * dt
        k1u, k1v = _rhs(t, u, v)
        k2u, k2v = _rhs(t + 0.5 * dt, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = _rhs(t + 0.5 * dt, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = _rhs(t + dt, u + dt * k3u, v + dt * k3v)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u


class HostProbe:
    """Times one kernel call on every SIGPROF tick between ``start`` and ``stop``,
    and ``NEAREST`` calls at each of the two, so that every interval of the run
    has calls near it.  ``samples`` holds ``(perf_counter at the call's end,
    duration)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        for _ in range(NEAREST):
            kernel()

    def call(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))
        finally:
            self._busy = False

    def _on_tick(self, signum, frame) -> None:
        self.call()

    def start(self) -> None:
        for _ in range(NEAREST):
            self.call()
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        for _ in range(NEAREST):
            self.call()

    def scaled(self, t0: float, t1: float) -> float:
        """``[t0, t1]``'s wall time less the kernel calls in it, scaled to the
        reference speed by the median of the calls in it, or of the ``NEAREST``
        calls nearest to it when it holds fewer."""
        inside = [d for end, d in self.samples if t0 <= end <= t1]
        near = inside
        if len(near) < NEAREST:
            by_distance = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))
            near = [d for _, d in by_distance[:NEAREST]]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.median(near)
