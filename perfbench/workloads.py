"""The benchmark's workloads.

Each workload builds its inputs from the seed through the library's public API
(``build``), runs one timed operation on them (``op``) and checks the
operation's outputs against the independent references in ``reference.py``
(``check``).  The library is passed in as the module ``sh`` and every name is
looked up on it at call time, so the traced run sees the wrapped functions.

``sizes`` holds the benchmark's problem sizes; ``TINY`` the sizes the
self-test uses.  Tolerances are the same at both sizes.
"""

from __future__ import annotations

import math

import numpy as np

from reference import Lattice, finite_loss_solution, oscillating_speed_solution

DATA_MODES = 8
ENVELOPE_WIDTH = 0.45  # keeps x-dependent data inside |x| <= L/2 on L = 8 for every seed


def localized_data(sh, grid, seed: int):
    """``f1 = p(x) g(x)``, ``f2 = -f1'`` with ``p = random_trig_poly(8, seed)`` and a
    Gaussian envelope ``g`` of width 0.45."""
    p = sh.random_trig_poly(DATA_MODES, seed=seed)
    g = sh.GaussianBump(0.0, ENVELOPE_WIDTH)
    x = grid.x
    f1 = p(x) * g(x)
    f2 = -(p(x, 1) * g(x) + p(x) * g(x, 1))
    return f1.astype(complex), f2.astype(complex)


class SpectralCE:
    """x-independent counterexamples on the multiplier path: 7.3 from the singular
    start t = 0 and 7.1 with m = 3 from t = 1e-3, both checked at t = 1 against
    their closed forms."""

    name = "spectral_ce"
    tolerance = 1e-5
    expects_dense = False
    TINY = {"N": 64, "M": 1024}
    CASES = (("7.3", 0, 0.0), ("7.1", 3, 1e-3))

    def __init__(self, N: int = 1024, M: int = 2048):
        self.sizes = {"N": N, "M": M}

    def build(self, sh, seed: int) -> dict:
        grid = sh.GridSpec(L=math.pi, N=self.sizes["N"], k=1.0)
        u0 = sh.random_trig_poly(DATA_MODES, seed=seed)
        runs = []
        for example, m, t_start in self.CASES:
            fam = sh.counterexample_family(example, m, k=grid.k)
            f1, f2 = self._exact(u0, example, m, t_start, grid.x)
            prob = sh.CauchyProblem(family=fam, f1=f1, f2=f2, t_start=t_start, T=1.0)
            runs.append((example, m, prob, sh.graded_mesh(fam, t_start, 1.0, self.sizes["M"])))
        return {"grid": grid, "u0": u0, "runs": runs, "lattice": Lattice(grid.L, grid.N)}

    @staticmethod
    def _exact(u0, example, m, t, x):
        if example == "7.3":
            return oscillating_speed_solution(u0, t, x)
        return finite_loss_solution(u0, m, t, x)

    def op(self, sh, state):
        return [sh.integrate(prob, state["grid"], mesh, [1.0])
                for _, _, prob, mesh in state["runs"]]

    def check(self, sh, state, trajs) -> list[float]:
        lat = state["lattice"]
        errs = []
        for (example, m, _, _), traj in zip(state["runs"], trajs):
            t, u, _ = traj.snapshots[-1]
            if t != 1.0:
                return [math.inf]
            exact, _ = self._exact(state["u0"], example, m, 1.0, lat.x)
            errs.append(lat.rel_err(u, exact))
        return errs


class _XDependent:
    """Shared inputs of the x-dependent workloads: ``theorem_coefficient(0, 1.25)``
    with ``poly_pair(0.5, 0.5)``, k = 4, L = 8, snapshots at ``linspace(0, 1, 9)``."""

    tolerance = 1e-10
    expects_dense = True
    use_excision = False
    L = 8.0
    K = 4.0
    SNAPSHOTS = 9

    def __init__(self, N: int, M: int):
        self.sizes = {"N": N, "M": M}

    def build(self, sh, seed: int) -> dict:
        pair = sh.poly_pair(0.5, 0.5)
        fam = sh.theorem_coefficient(0.0, 1.25, pair=pair, k=self.K)
        grid = sh.GridSpec(L=self.L, N=self.sizes["N"], k=self.K)
        f1, f2 = localized_data(sh, grid, seed)
        prob = sh.CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0,
                                use_excision=self.use_excision)
        return {"grid": grid, "pair": pair, "family": fam, "problem": prob,
                "mesh": sh.graded_mesh(fam, 0.0, 1.0, self.sizes["M"]),
                "times": np.linspace(0.0, 1.0, self.SNAPSHOTS),
                "excised": sh.excise(fam), "lattice": Lattice(grid.L, grid.N)}

    def _snapshots(self, traj):
        if len(traj.snapshots) != self.SNAPSHOTS:
            raise ValueError(f"expected {self.SNAPSHOTS} snapshots, got {len(traj.snapshots)}")
        return traj.snapshots

    @staticmethod
    def _rhs_errors(sh, state, snapshots, symbol) -> list[float]:
        """Library RHS ``(v, -Op(a)u)`` against ``-KN(a)u`` formed on the reference lattice."""
        lat = state["lattice"]
        errs = []
        for t, u, v in snapshots:
            du, dv = sh.assemble_rhs(t, u, v, state["problem"], state["grid"])
            want = -lat.kn(symbol(t, lat.X, lat.XI), u)
            errs += [lat.rel_err(du, v), lat.rel_err(dv, want)]
        return errs


class ExcisedDense(_XDependent):
    """One excised, x-dependent solve: every RK4 stage goes through the dense KN
    product of a freshly evaluated excised lattice."""

    name = "excised_dense"
    use_excision = True
    TINY = {"N": 32, "M": 32}

    def __init__(self, N: int = 256, M: int = 256):
        super().__init__(N, M)

    def op(self, sh, state):
        return sh.integrate(state["problem"], state["grid"], state["mesh"], state["times"])

    def check(self, sh, state, traj) -> list[float]:
        return self._rhs_errors(sh, state, self._snapshots(traj), state["excised"].a)


class CertifyXdep(_XDependent):
    """The certification pipeline on the x-dependent family without excision in
    the solve: fit_lambda, l1_defect at 16 points, the separable solve from the
    singular start, energy_monitor and system_residual."""

    name = "certify_xdep"
    TINY = {"N": 32, "M": 64}
    DEFECT_X = np.geomspace(0.5, 4.0, 4)
    DEFECT_XI = np.geomspace(1.0, 60.0, 4)

    def __init__(self, N: int = 256, M: int = 1024):
        super().__init__(N, M)

    def op(self, sh, state):
        fam = state["family"]
        lam = sh.fit_lambda(fam, fam.profile)
        defects = [sh.l1_defect(fam, state["excised"], float(x), float(xi))
                   for x in self.DEFECT_X for xi in self.DEFECT_XI]
        traj = sh.integrate(state["problem"], state["grid"], state["mesh"], state["times"])
        energy = sh.energy_monitor(traj, (0.0, 0.0), fam.profile, state["pair"], lam.value)
        residual = sh.system_residual(traj, state["problem"], state["grid"], lam=lam.value)
        return {"lam": lam.value, "defects": defects, "traj": traj,
                "verdict": energy.verdict, "residual": residual}

    def check(self, sh, state, out) -> list[float]:
        verdicts = [out["lam"], out["verdict"], out["residual"], *out["defects"]]
        if not all(math.isfinite(v) for v in verdicts) or out["lam"] <= 0.0:
            return [math.inf]
        snapshots = self._snapshots(out["traj"])
        # the raw coefficient is undefined at the singular start t = 0
        errs = self._rhs_errors(sh, state, [s for s in snapshots if s[0] > 0.0],
                                state["family"].a)
        lat = state["lattice"]
        exc = state["excised"]
        for t, u, v in snapshots:
            u1, _ = sh.reduce_to_system(t, u, v, state["problem"], state["grid"])
            want = v + 1j * lat.kn(np.sqrt(exc.a(t, lat.X, lat.XI)), u)
            errs.append(lat.rel_err(u1, want))
        return errs


WORKLOADS = {w.name: w for w in (SpectralCE, ExcisedDense, CertifyXdep)}
