"""Graded-mesh RK4 integration and the first-order system machinery."""

import dataclasses

import numpy as np
import pytest

from singhyp.quantize import GridSpec, apply_kn, apply_multiplier, l2_norm
import singhyp.solver as solver
from singhyp.solver import (CauchyProblem, Discretization, SolverError, SupportError,
                            SystemOperators, _rk4_step, assemble_rhs, graded_mesh,
                            integrate, reduce_to_system, symbol_operator, system_residual)
from singhyp.structure import bracket, poly_pair
from singhyp.symbols import (char_root, excise, free_wave, h_symbol, reference_wave,
                             theorem_coefficient)
from singhyp.analysis import GaussianBump, closed_form, counterexample_family, \
    random_trig_poly

U0 = random_trig_poly(8, seed=42)


def _band_field(grid, order=0):
    return np.asarray(U0(grid.x, order), dtype=complex)


def _forced_reference_wave():
    # u = sin(t) e^{i3x} for the shifted wave: f = (mu^2 - 1) sin(t) e^{i3x}, mu^2 = 4 + 9
    grid = GridSpec(L=np.pi, N=64, k=2.0)
    mode = np.exp(1j * 3 * grid.x)
    prob = CauchyProblem(family=reference_wave(T=1.0, k=2.0),
                         f1=np.zeros(grid.N, dtype=complex), f2=mode.copy(), t_start=0.0,
                         T=1.0, forcing=lambda t, x: 12.0 * np.sin(t) * mode)
    return prob, grid, 256, False


def _counting(monkeypatch, counts, owner, name):
    # count the calls of ``owner.name`` in ``counts[name]``
    fn = getattr(owner, name)

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapped)


def _physical(fam):
    # the same coefficients flagged x-dependent: every operator acts on grid values
    return dataclasses.replace(fam, x_dependent=True)


def _problem(fam, grid, t_start, M, singular=False, **kw):
    # a small full-band part puts every mode, the Nyquist mode too, in the data
    noise = 1e-3 * np.random.default_rng(7).standard_normal((2, grid.N))
    prob = CauchyProblem(family=fam, f1=_band_field(grid) + noise[0],
                         f2=_band_field(grid, 1) + noise[1], t_start=t_start, T=1.0, **kw)
    return prob, grid, M, singular


class TestMesh:
    def test_endpoints_and_monotonicity(self):
        fam = free_wave()
        mesh = graded_mesh(fam, 0.0, 1.0, 128)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_grading_exponent_invariant(self):
        # kappa >= 1/(1 - max(p, r)) for singular starts
        fam = counterexample_family("7.3")  # p = 0, r = 1/2
        mesh = graded_mesh(fam, 0.0, 1.0, 64)
        assert mesh.kappa >= 1.0 / (1.0 - max(fam.p, fam.r))
        assert mesh.kappa == 4.0

    def test_positive_start_uses_quadratic(self):
        fam = counterexample_family("7.1", 2)  # r = 1, excluded singularity
        mesh = graded_mesh(fam, 1e-3, 1.0, 64)
        assert mesh.kappa == 2.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            graded_mesh(free_wave(), 1.0, 1.0, 16)


class TestAssembleRhs:
    def test_fourier_eigenmode(self):
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        fam = free_wave(1.0, k=1.0)
        u = np.exp(1j * 5 * grid.x)
        prob = CauchyProblem(family=fam, f1=u, f2=np.zeros_like(u), t_start=0.0, T=1.0)
        du, dv = assemble_rhs(0.5, u, np.zeros_like(u), prob, grid)
        assert np.max(np.abs(du)) == 0.0
        assert np.allclose(dv, -25.0 * u, rtol=1e-12)

    def test_zero_state(self):
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        fam = counterexample_family("7.2")
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        du, dv = assemble_rhs(0.5, z, z, prob, grid)
        assert np.max(np.abs(du)) == 0.0 and np.max(np.abs(dv)) == 0.0

    def test_no_loss_drift_operator_form(self):
        # dv = dxx u + 2 dx u at t = 1 for the v-independent part
        grid = GridSpec(L=np.pi, N=128, k=1.0)
        fam = counterexample_family("7.2")
        u = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=u, f2=np.zeros_like(u), t_start=0.0, T=1.0)
        _, dv = assemble_rhs(1.0, u, np.zeros_like(u), prob, grid)
        expect = apply_multiplier(grid, -grid.xi ** 2 + 2j * grid.xi, u)
        assert np.max(np.abs(dv - expect)) <= 1e-11 * np.max(np.abs(expect))


    def test_rebuilt_family_uses_its_new_symbol(self):
        # the solver applies a separable family through its factors, so a family
        # rebuilt with a new ``a`` has to drop them
        fam = free_wave(1.0)
        a = lambda t, x, xi: 4.0 * np.asarray(xi, dtype=float) ** 2
        with pytest.raises(ValueError, match="free-wave"):
            fam.__class__(**{**fam.__dict__, "a": a})
        fam = fam.__class__(**{**fam.__dict__, "a": a, "separable": None})
        grid = GridSpec(L=np.pi, N=32, k=1.0)
        mode = np.exp(3j * grid.x)
        z = np.zeros_like(mode)
        prob = CauchyProblem(family=fam, f1=mode, f2=z, t_start=0.0, T=1.0)
        _, dv = assemble_rhs(0.5, mode, z, prob, grid)
        assert np.max(np.abs(dv / mode + 36.0)) <= 1e-12


class TestIntegrate:
    def test_wave_returns_after_one_period(self):
        grid = GridSpec(L=np.pi, N=128, k=1.0)
        fam = free_wave(1.0, T=2 * np.pi + 0.1, k=1.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0,
                             T=2 * np.pi + 0.1)
        mesh = graded_mesh(fam, 0.0, 2 * np.pi, 4096, kappa=1.0000001)
        traj = integrate(prob, grid, mesh, [2 * np.pi])
        t, u, v = traj.snapshots[-1]
        assert l2_norm(grid, u - f1) / l2_norm(grid, f1) <= 1e-8

    def test_zero_data_zero_trajectory(self):
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        fam = counterexample_family("7.3")
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 128), [0.5, 1.0])
        for _, u, v in traj.snapshots:
            assert np.max(np.abs(u)) == 0.0 and np.max(np.abs(v)) == 0.0

    def test_oscillating_speed_matches_closed_form(self):
        grid = GridSpec(L=np.pi, N=256, k=1.0)
        fam = counterexample_family("7.3", k=1.0)
        sol = closed_form("7.3", 0, U0)
        f1, f2 = sol.initial_data(grid, 0.0)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 2048), [1.0])
        t, u, _ = traj.snapshots[-1]
        exact = np.asarray(sol.u(t, grid.x), dtype=complex)
        assert l2_norm(grid, u - exact) / l2_norm(grid, exact) <= 1e-5

    def test_forced_manufactured_solution(self):
        prob, grid, _, _ = _forced_reference_wave()
        mode = prob.f2
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, 1024), [1.0])
        t, u, v = traj.snapshots[-1]
        assert l2_norm(grid, u - np.sin(t) * mode) / l2_norm(grid, mode) <= 1e-9

    def test_spectral_accuracy_doubling_n(self):
        fam = counterexample_family("7.3", k=1.0)
        sol = closed_form("7.3", 0, U0)
        results = {}
        for N in (128, 256):
            grid = GridSpec(L=np.pi, N=N, k=1.0)
            f1, f2 = sol.initial_data(grid, 0.0)
            prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0)
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 1024), [1.0])
            _, u, _ = traj.snapshots[-1]
            results[N] = u
        coarse = results[128]
        fine = results[256][::2]  # same physical points
        assert np.max(np.abs(fine - coarse)) <= 1e-9 * np.max(np.abs(coarse))

    def test_rk4_order(self):
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        fam = counterexample_family("7.3", k=1.0)
        sol = closed_form("7.3", 0, U0)
        errs = {}
        for M in (128, 256):
            f1, f2 = sol.initial_data(grid, 0.25)
            prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.25, T=1.0)
            traj = integrate(prob, grid, graded_mesh(fam, 0.25, 1.0, M, kappa=1.0000001),
                             [1.0])
            t, u, _ = traj.snapshots[-1]
            errs[M] = l2_norm(grid, u - np.asarray(sol.u(t, grid.x), dtype=complex))
        ratio = errs[128] / errs[256]
        assert 10.0 <= ratio <= 25.0

    def test_time_reversibility(self):
        # b0 = b = 0, time-independent a: flip v and integrate forward again
        grid = GridSpec(L=np.pi, N=128, k=1.0)
        fam = free_wave(1.0, T=1.5, k=1.0)
        f1 = _band_field(grid)
        f2 = _band_field(grid, 1)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.5)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512, kappa=1.0000001),
                         [1.0])
        _, u1, v1 = traj.snapshots[-1]
        back = CauchyProblem(family=fam, f1=u1, f2=-v1, t_start=0.0, T=1.5)
        traj2 = integrate(back, grid, graded_mesh(fam, 0.0, 1.0, 512, kappa=1.0000001),
                          [1.0])
        _, u2, v2 = traj2.snapshots[-1]
        assert l2_norm(grid, u2 - f1) / l2_norm(grid, f1) <= 1e-7
        assert l2_norm(grid, v2 + f2) / max(l2_norm(grid, f2), 1.0) <= 1e-7

    def test_finite_propagation_bound(self):
        from singhyp.analysis import support_radius

        grid = GridSpec(L=12.0, N=512, k=1.0)
        fam = free_wave(1.0, T=2.5, k=1.0)
        bump = GaussianBump(0.0, 0.3)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=2.5)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 2.0, 512),
                         np.linspace(0.0, 2.0, 5))
        r0 = support_radius(grid, f1)
        for t, u, _ in traj.snapshots:
            assert support_radius(grid, u) <= r0 + t + 3.0 * grid.dx

    def test_cfl_halving_and_exhaustion(self):
        grid = GridSpec(L=np.pi, N=256, k=1.0)
        fam = free_wave(40.0, T=1.0, k=1.0)  # fast wave forces halving
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        mesh = graded_mesh(fam, 0.0, 1.0, 16, kappa=1.0000001)
        traj = integrate(prob, grid, mesh, [1.0])
        assert traj.stats["halvings"] > 0
        fam2 = free_wave(1e9, T=1.0, k=1.0)
        prob2 = CauchyProblem(family=fam2, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        with pytest.raises(SolverError, match="CFL"):
            integrate(prob2, grid, graded_mesh(fam2, 0.0, 1.0, 8, kappa=1.0000001), [1.0])

    def test_support_validation_for_x_dependent(self):
        grid = GridSpec(L=8.0, N=128, k=1.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=1.0)
        f1 = np.ones(grid.N, dtype=complex)  # global support
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        with pytest.raises(SupportError):
            integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [1.0])

    def test_snapshot_times_are_node_times(self):
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        fam = free_wave(1.0, k=1.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        mesh = graded_mesh(fam, 0.0, 1.0, 64)
        traj = integrate(prob, grid, mesh, [0.33, 0.8])
        for t, _, _ in traj.snapshots:
            assert np.min(np.abs(mesh.nodes - t)) == 0.0

    def test_merged_requests_are_recorded(self):
        grid = GridSpec(L=np.pi, N=16, k=1.0)
        fam = free_wave(1.0, k=1.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 8), [0.5 + 1e-9, 0.5])
        assert len(traj.snapshots) == 1
        assert traj.stats["requested_times"] == [0.5, 0.5 + 1e-9]
        assert traj.stats["space"] == "fourier"


_PI64 = GridSpec(L=np.pi, N=64, k=1.0)
FOURIER_CASES = {
    **{f"7.1-m{m}": lambda m=m: _problem(counterexample_family("7.1", m), _PI64, 1e-3, 512)
       for m in (0, 1, 3)},
    "7.2": lambda: _problem(counterexample_family("7.2"), _PI64, 1e-3, 512),
    "7.3": lambda: _problem(counterexample_family("7.3"), _PI64, 0.0, 512, singular=True),
    "7.4": lambda: _problem(counterexample_family("7.4"), _PI64, 1e-3, 512),
    "forced-reference": _forced_reference_wave,
    "excised-theorem": lambda: _problem(theorem_coefficient(0.0, 1.25, k=4.0),
                                        GridSpec(L=np.pi, N=64, k=4.0), 0.0, 512,
                                        use_excision=True),
}


class TestFourierState:
    @pytest.mark.parametrize("name", sorted(FOURIER_CASES))
    def test_matches_physical_rk4(self, name):
        # integrate steps Fourier coefficients; the reference steps grid values with
        # the operators of the family rebuilt as x-dependent, on the same nodes
        prob, grid, M, singular = FOURIER_CASES[name]()
        fam = prob.family
        mesh = graded_mesh(fam, prob.t_start, 1.0, M)
        traj = integrate(prob, grid, mesh, np.linspace(prob.t_start, 1.0, 5)[1:])
        assert traj.stats["space"] == "fourier" and traj.stats["halvings"] == 0
        assert traj.stats["singular_start"] == singular

        fam = _physical(fam)
        principal = symbol_operator(grid, fam, excise(fam).a if prob.use_excision else None)
        b1, b2 = (b or (lambda t, x: 0.0) for b in (fam.b1, fam.b2))

        def rhs(t, u, v):
            du = apply_multiplier(grid, 1j * grid.xi_odd, u)
            dv = -principal(t, u) - b1(t, grid.x) * du - b2(t, grid.x) * u
            if fam.b0 is not None:
                dv = dv - fam.b0(t, grid.x) * v
            if prob.forcing is not None:
                dv = dv + prob.forcing(t, grid.x)
            return v, dv

        u, v = prob.f1, prob.f2
        states = [(u, v)]
        for j in range(M):
            t0, t1 = mesh.nodes[j], mesh.nodes[j + 1]
            u, v = _rk4_step(rhs, t0, t1 - t0, u, v, singular and j == 0)
            states.append((u, v))
        for t, u, v in traj.snapshots:
            u_ref, v_ref = states[int(np.searchsorted(mesh.nodes, t))]
            assert l2_norm(grid, u - u_ref) <= 1e-12 * l2_norm(grid, u_ref), t
            assert l2_norm(grid, v - v_ref) <= 1e-12 * l2_norm(grid, v_ref), t

    def test_transforms_only_at_data_and_snapshots(self, monkeypatch):
        counts = {"dft_forward": 0, "dft_inverse": 0, "apply_multiplier": 0, "rhs": 0}
        for name in ("dft_forward", "dft_inverse", "apply_multiplier"):
            _counting(monkeypatch, counts, solver, name)
        _counting(monkeypatch, counts, Discretization, "rhs")
        prob, grid, M, _ = _problem(counterexample_family("7.3"), _PI64, 0.0, 256)
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, M), [0.0, 0.5, 1.0])
        S = len(traj.snapshots)
        assert S == 3 and counts["rhs"] > 0
        assert (counts["dft_forward"], counts["dft_inverse"], counts["apply_multiplier"]) \
            == (2, 2 * S, 0)

        # an x-dependent family keeps the physical path: one multiplier per RHS
        counts.update(dict.fromkeys(counts, 0))
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [0.5, 1.0])
        assert traj.stats["space"] == "physical"
        assert counts["rhs"] > 0 and counts["apply_multiplier"] == counts["rhs"]
        assert counts["dft_forward"] == counts["dft_inverse"] == 0


class TestExcisionSolve:
    def test_on_off_identical_when_window_empty(self):
        # t_start * Phi_min * k >= 2: the excised symbol equals a on the whole run
        grid = GridSpec(L=np.pi, N=128, k=16.0)
        fam = theorem_coefficient(0.0, 1.25, k=16.0)
        f1 = _band_field(grid)
        f2 = np.zeros_like(f1)
        runs = {}
        for flag in (False, True):
            prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.5, T=1.0,
                                 use_excision=flag)
            traj = integrate(prob, grid, graded_mesh(fam, 0.5, 1.0, 256), [1.0])
            runs[flag] = traj.snapshots[-1][1]
        assert np.max(np.abs(runs[True] - runs[False])) \
            <= 1e-12 * np.max(np.abs(runs[False]))

    def test_difference_bounded_from_zero_start(self):
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0)
        f1 = _band_field(grid)
        f2 = np.zeros_like(f1)
        runs = {}
        for flag in (False, True):
            prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0,
                                 use_excision=flag)
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512), [1.0])
            runs[flag] = traj.snapshots[-1][1]
        diff = l2_norm(grid, runs[True] - runs[False]) / l2_norm(grid, runs[False])
        assert diff <= 1.0

    def test_difference_order_one_in_k(self):
        # the integrated excision defect grows like (Phi<xi>_k)^(2-(1-p)/(q-p)), so
        # the on/off difference is an O(1) phase surgery near t = 0 for every k
        # (0.53, 0.48, 0.15 at k = 4, 16, 64; not monotone: 0.52 at k = 256)
        for k in (4.0, 16.0, 64.0):
            grid = GridSpec(L=np.pi, N=64, k=k)
            fam = theorem_coefficient(0.0, 1.25, k=k)
            f1 = _band_field(grid)
            f2 = np.zeros_like(f1)
            runs = {}
            for flag in (False, True):
                prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0,
                                     use_excision=flag)
                traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512), [1.0])
                runs[flag] = traj.snapshots[-1][1]
            diff = l2_norm(grid, runs[True] - runs[False]) / l2_norm(grid, runs[False])
            assert 0.1 <= diff <= 1.0, (k, diff)


# (family, t_start, use_excision) of multiplier families for the system machinery
SYSTEM_CASES = {
    "reference": lambda: (reference_wave(k=4.0), 0.0, False),
    **{f"7.1-m{m}": lambda m=m: (counterexample_family("7.1", m, k=4.0), 1e-3, False)
       for m in (0, 3)},
    **{ex: lambda ex=ex: (counterexample_family(ex, k=4.0), 0.0 if ex == "7.3" else 1e-3, False)
       for ex in ("7.2", "7.3", "7.4")},
    "excised-theorem": lambda: (theorem_coefficient(0.0, 1.25, k=4.0), 0.0, True),
}


class TestSystem:
    def test_zero_state_reduces_to_zero(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        u1, u2 = reduce_to_system(0.5, z, z, prob, grid)
        assert np.max(np.abs(u1)) == 0.0 and np.max(np.abs(u2)) == 0.0

    def test_single_mode_reduction(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        mode = np.exp(1j * 3 * grid.x)
        vmode = 2j * mode
        prob = CauchyProblem(family=fam, f1=mode, f2=vmode, t_start=0.0, T=1.0)
        u1, _ = reduce_to_system(0.5, mode, vmode, prob, grid)
        expect = vmode + 1j * bracket(3.0, 2.0) * mode
        assert np.max(np.abs(u1 - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_u2_equals_mu_where_h_vanishes(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        mode = np.exp(1j * 3 * grid.x)
        prob = CauchyProblem(family=fam, f1=mode, f2=mode, t_start=0.0, T=1.0)
        # t <xi>_k <= 3 across the active spectrum
        _, u2 = reduce_to_system(0.05, mode, mode, prob, grid)
        assert np.max(np.abs(u2 - bracket(3.0, 2.0) * mode)) <= 1e-12

    def test_residual_second_order_in_snapshot_spacing(self):
        grid = GridSpec(L=np.pi, N=128, k=4.0)
        fam = reference_wave(k=4.0, T=1.0)
        f1 = _band_field(grid)
        f2 = _band_field(grid, 1)
        res = {}
        for M, nsnap in ((256, 17), (512, 33)):
            prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0)
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M),
                             np.linspace(0.25, 1.0, nsnap))
            res[M] = system_residual(traj, prob, grid)
        assert res[256] / res[512] >= 3.0

    def test_residual_requires_three_snapshots(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [0.5, 1.0])
        with pytest.raises(ValueError):
            system_residual(traj, prob, grid)

    @pytest.mark.parametrize("nan_at", ["every-snapshot", "one-snapshot"])
    def test_non_finite_residual_raises(self, nan_at):
        # a NaN forcing must fail loudly, not give its snapshots up or read as 0
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), np.linspace(0.2, 1.0, 5))
        t_bad = traj.times[1 if nan_at == "every-snapshot" else 2]
        bad = (lambda t: True) if nan_at == "every-snapshot" else (lambda t: t == t_bad)
        nan_forcing = lambda t, x: np.full(np.shape(x), np.nan if bad(t) else 0.0)
        with pytest.raises(SolverError, match=f"non-finite system residual at t={t_bad}"):
            system_residual(traj, dataclasses.replace(prob, forcing=nan_forcing), grid)

    @pytest.mark.parametrize("extra", [False, True], ids=["plain", "b0-forced"])
    @pytest.mark.parametrize("name", sorted(SYSTEM_CASES))
    def test_fourier_states_match_physical(self, name, extra):
        # a multiplier family's system machinery on Fourier coefficients against the
        # family rebuilt as x-dependent, whose operators act on grid values
        fam, t_start, use_excision = SYSTEM_CASES[name]()
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        forcing = None
        if extra:
            fam = dataclasses.replace(fam, b0=lambda t, x: np.full(np.shape(x), 0.3))
            forcing = lambda t, x, f=_band_field(grid): np.sin(3.0 * t) * f
        prob, _, M, _ = _problem(fam, grid, t_start, 256, forcing=forcing,
                                 use_excision=use_excision)
        phys = dataclasses.replace(prob, family=_physical(fam))
        traj = integrate(prob, grid, graded_mesh(fam, t_start, 1.0, M),
                         np.linspace(0.25, 1.0, 9))
        ops, ops_phys = SystemOperators(prob, grid, lam=0.7), SystemOperators(phys, grid, lam=0.7)
        assert (ops.space.name, ops_phys.space.name) == ("fourier", "physical")

        def close(got, want):
            assert l2_norm(grid, got - want) <= 1e-12 * l2_norm(grid, want)

        t, u, v = traj.snapshots[4]
        reduced = reduce_to_system(t, u, v, phys, grid)
        for got, want in zip(reduce_to_system(t, u, v, prob, grid), reduced):
            close(got, want)
        rhs = ops.system_rhs(t, *map(ops.state, reduced))
        for got, want in zip(rhs, ops_phys.system_rhs(t, *reduced)):
            close(ops.field(got), want)
        want = system_residual(traj, phys, grid, lam=0.7)
        assert abs(system_residual(traj, prob, grid, lam=0.7) - want) <= 1e-12 * want

    def test_residual_transforms_each_snapshot_once(self, monkeypatch):
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        prob, _, M, _ = _problem(counterexample_family("7.3", k=4.0), grid, 0.0, 256)
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, M),
                         np.linspace(0.25, 1.0, 9))
        counts = dict.fromkeys(("dft_forward", "dft_inverse", "apply_multiplier"), 0)
        for name in list(counts):
            _counting(monkeypatch, counts, solver, name)
        system_residual(traj, prob, grid)
        assert counts["dft_forward"] + counts["dft_inverse"] <= 2 * len(traj.snapshots)
        assert counts["apply_multiplier"] == 0

    def test_zero_trajectory_residual_zero(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64),
                         np.linspace(0.2, 1.0, 5))
        assert system_residual(traj, prob, grid) == 0.0

    @pytest.mark.parametrize("name, t", [("reference", 0.7), ("theorem", 0.05),
                                         ("theorem", 0.7), ("theorem-poly", 0.05),
                                         ("theorem-poly", 0.7)])
    def test_operator_paths_match_dense_kn(self, name, t):
        # every path symbol_operator picks (separable, multiplier, dense), and the
        # solver's principal part with and without excision, against the dense
        # KN product on grid values; t = 0.05 is inside the blend window, t = 0.7
        # beyond it
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = {"reference": lambda: reference_wave(k=4.0),
               "theorem": lambda: theorem_coefficient(0.0, 1.25, k=4.0),
               "theorem-poly": lambda: theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5),
                                                           k=4.0)}[name]()
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        excised = excise(fam)
        root = char_root(excised)
        h = h_symbol(root)

        disc = Discretization(CauchyProblem(family=fam, f1=u, f2=u, t_start=0.0, T=1.0), grid)

        def check(op, symbol):
            # operators act on the family's states: Fourier coefficients on a multiplier family
            got = disc.field(op(t, disc.state(u)))
            want = apply_kn(grid, lambda x, xi: symbol(t, x, xi), u)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

        check(symbol_operator(grid, fam), fam.a)
        for symbol in (fam.a, root.value, root.dt, h.value, h.dt, excised.defect, excised.a):
            check(symbol_operator(grid, fam, symbol), symbol)
        for use_excision, symbol in ((False, fam.a), (True, excised.a)):
            prob = CauchyProblem(family=fam, f1=u, f2=u, t_start=0.0, T=1.0,
                                 use_excision=use_excision)
            check(Discretization(prob, grid).apply_principal, symbol)

    @staticmethod
    def _composed_system_rhs(ops, t, u1, u2):
        # the system right-hand side composed block by block, with B2 applied as
        # its own operator: every product it shares with other blocks is recomputed
        tau, H, M, Minv = ops.apply_tau, ops.apply_H, ops.apply_M, ops.apply_Minv

        def comm(u):
            w = Minv(u)
            return 1j * (M(tau(t, w)) - tau(t, M(w)))

        def B2(u):
            hu = H(t, u)
            out = 2j * H(t, tau(t, u)) - M(u)
            out = out + comm(hu)
            out = out + 1j * (tau(t, hu) - H(t, tau(t, u)))
            out = out - H(t, ops.B1(t, hu))
            return out + ops.apply_dtH(t, u)

        hu1 = H(t, u1)
        b0h, b0u2 = ops.B0(t, hu1), ops.B0(t, u2)
        a0_1 = b0h + b0u2
        a0_2 = -H(t, b0h) + H(t, b0u2)
        b1h, b1u2, b4u2 = ops.B1(t, hu1), ops.B1(t, u2), ops.B4(t, u2)
        a1_1 = b1h + ops.B3(t, u1) + b1u2 + b4u2
        a1_2 = B2(u1) - H(t, ops.B3(t, u1)) + comm(u2) - H(t, b1u2 + b4u2)
        r1 = 1j * tau(t, u1) - a0_1 - a1_1
        r2 = -1j * tau(t, u2) - a0_2 - a1_2
        if ops.problem.forcing is not None:
            f = ops.state(ops.problem.forcing(t, ops.grid.x))
            r1, r2 = r1 + f, r2 - H(t, f)
        return r1, r2

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("b0, forced", [(False, False), (True, False), (False, True),
                                            (True, True)])
    @pytest.mark.parametrize("poly", [True, False])
    def test_system_rhs_forms_each_product_once(self, monkeypatch, poly, b0, forced, t):
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0,
                                  pair=poly_pair(0.5, 0.5) if poly else None)
        if b0:
            fam = dataclasses.replace(
                fam, b0=lambda t, x: np.full(np.shape(x), 0.3))
        bump = GaussianBump(0.0, 0.45)(grid.x)
        forcing = (lambda t, x: np.sin(3.0 * t) * bump) if forced else None
        f1, f2 = bump * _band_field(grid), bump * _band_field(grid, 1)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0, forcing=forcing)
        ops = SystemOperators(prob, grid, lam=0.7)
        u1, u2 = ops.state(f1), ops.state(f2)
        want = self._composed_system_rhs(ops, t, u1, u2)

        calls = []
        kn = solver.apply_kn
        monkeypatch.setattr(solver, "apply_kn", lambda *a: calls.append(1) or kn(*a))
        got = ops.system_rhs(t, u1, u2)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the composition above makes 33 dense products, 36 with b0 and forcing
        assert len(calls) == (26 + b0 + forced if poly else 0)
