"""Graded-mesh RK4 integration and the first-order system machinery."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singhyp.quantize import (GridSpec, OverflowGuardError, _kn_trig, apply_kn, apply_multiplier,
                              kn_fold, l2_norm, loss_operator)
import singhyp.solver as solver
import singhyp.stepping as stepping
from singhyp.solver import (CauchyProblem, Discretization, SolverError, SupportError,
                            SystemOperators, TimeMesh, assemble_rhs, graded_mesh,
                            integrate, lower_operator, reduce_to_system, symbol_operator,
                            system_residual)
from singhyp.structure import StructurePair, bracket, constant_pair, one, poly_pair, zero
from singhyp.symbols import (CharacteristicRoot, ExcisedCoefficient, HSymbol, char_root,
                             cut_sides, example_coefficient, excise, free_wave, h_symbol,
                             off_blend, reference_wave, separable_family, theorem_coefficient)
from singhyp.analysis import GaussianBump, closed_form, counterexample_family, \
    random_trig_poly
from dft_reference import dft_matrix_product

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

    @pytest.mark.parametrize("example", ["7.1", "7.2", "7.4"])
    def test_undefined_default_grading(self, example):
        # r = 1: 2/(1-r) has no value, so a start at 0 needs an explicit kappa
        fam = counterexample_family(example)
        msg = r"2/\(1-r\) needs r < 1, got r = 1: give a positive t_start or an explicit kappa"
        with pytest.raises(ValueError, match=msg):
            graded_mesh(fam, 0.0, 1.0, 16)
        assert graded_mesh(fam, 0.0, 1.0, 16, kappa=3.0).kappa == 3.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            graded_mesh(free_wave(), 1.0, 1.0, 16)

    @pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_rejects_non_finite_nodes(self, nodes):
        # np.diff(nodes) <= 0 is False next to a NaN, so only a finiteness check catches these
        with pytest.raises(ValueError, match="mesh nodes must be finite and strictly increasing"):
            TimeMesh(nodes=np.array(nodes), kappa=2.0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_kappa(self, kappa):
        # -1 made 0 ** -1 divide by zero (a RuntimeWarning), and the others ended in "mesh
        # nodes must be finite and strictly increasing", which did not name kappa
        with pytest.raises(ValueError, match=rf"kappa must be finite and > 0, got kappa = {kappa}"):
            graded_mesh(free_wave(), 0.0, 1.0, 16, kappa=kappa)

    def test_infinite_horizon_rejected(self):
        # the nodes of [0, inf] would be [nan, inf, ...]: 0 * inf at j = 0
        with pytest.raises(ValueError, match=r"need 0 <= t_start < t_end < inf"):
            graded_mesh(None, 0.0, np.inf, 4, 2.0)

    @pytest.mark.parametrize("m", [0, -2, 2.5])
    def test_rejects_bad_step_count(self, m):
        # 0 divided by zero, -2 indexed past the nodes and 2.5 built a 3-step mesh
        with pytest.raises(ValueError, match=rf"m must be an integer >= 1, got m = {m}"):
            graded_mesh(free_wave(), 0.0, 1.0, m)


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

    @pytest.mark.parametrize("example, m", [("7.1", 3), ("7.3", 0)])
    def test_real_fields_take_the_half_spectrum(self, monkeypatch, example, m):
        # real fields with no forcing are stepped on the half spectrum, so residual_check
        # certifies that right-hand side; it is the complex full spectrum's to rounding (7.1
        # with m = 3 has b0 and b1)
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        u0 = random_trig_poly(8, seed=3)
        u, v = u0(grid.x), u0(grid.x, 1)
        prob = CauchyProblem(family=counterexample_family(example, m), f1=u, f2=v, t_start=0.0,
                             T=1.0)
        disc = Discretization(prob, grid)
        want = disc.field(disc.rhs(0.5, disc.state(np.array([u, v], dtype=complex))))
        counts = dict.fromkeys(("_rdft_forward", "_rdft_inverse", "dft_forward", "dft_inverse"), 0)
        for name in list(counts):
            _counting(monkeypatch, counts, solver, name)
        got = assemble_rhs(0.5, u, v, prob, grid)
        assert counts == {"_rdft_forward": 1, "_rdft_inverse": 1, "dft_forward": 0,
                          "dft_inverse": 0}
        for g, w in zip(got, want):
            assert g.dtype == complex
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_x_independent_forcing_on_both_state_spaces(self, space):
        # a forcing that returns one value per t acts as that value at every grid point,
        # in the solver's right-hand side and in the first-order system's
        grid = GridSpec(L=8.0, N=64, k=1.0)
        fam = free_wave(1.0, k=1.0)
        fam = _physical(fam) if space == "physical" else fam
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        results = []
        for forcing in (lambda t, x: np.sin(t), lambda t, x: np.full(np.shape(x), np.sin(t))):
            prob = CauchyProblem(family=fam, f1=u, f2=u, t_start=0.0, T=1.0, forcing=forcing)
            ops = SystemOperators(prob, grid)
            assert ops.space.name == space
            results.append([*assemble_rhs(0.5, u, u, prob, grid),
                             *ops.system_rhs(0.5, *ops.state(np.array([u, u])))])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

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

    def test_singular_start_probes_every_grid_x(self, monkeypatch):
        # b2 is finite at x = 0 but infinite for x > 1 at t_start = 0: the first step
        # must sample midpoints only, so the vector field never meets t = 0
        grid = GridSpec(L=8.0, N=64, k=1.0)
        fam = dataclasses.replace(
            free_wave(1.0), x_dependent=True,
            b2=lambda t, x: np.where(np.asarray(x) > 1.0, 1.0 / np.sqrt(t), 0.0))
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        times = []
        rhs = Discretization.rhs
        monkeypatch.setattr(Discretization, "rhs",
                            lambda self, t, y, out=None: times.append(t) or rhs(self, t, y, out))
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [1.0])
        assert traj.stats["singular_start"] and min(times) > 0.0
        assert np.all(np.isfinite(traj.snapshots[-1][1]))

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
        assert traj.stats["halvings"] == sum(traj.stats["halving_steps"].values()) > 0
        assert (traj.stats["operator"], traj.stats["lattice_evals"]) == ("separable", 0)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_time_rejected(self, bad):
        # a NaN or infinite request must not read as a snapshot at t_start
        grid = GridSpec(L=np.pi, N=16, k=1.0)
        fam = free_wave(1.0, k=1.0)
        f1 = _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        with pytest.raises(ValueError, match="output_times must be finite"):
            integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 8), [bad, 0.5])

    @pytest.mark.parametrize("space", ["fourier", "physical", "modal"])
    def test_snapshots_share_no_memory(self, space):
        # each step replaces the stacked state: a step updating it in place would make
        # the snapshots (rows of the states on grid values) alias one another; the free
        # wave flagged x-dependent steps the modal space, and with a b2 grid values
        prob, grid, _, _ = _problem(free_wave(1.0), GridSpec(L=8.0, N=32, k=1.0), 0.0, 16)
        bump = GaussianBump(0.0, 0.45)(grid.x)
        fam = prob.family if space == "fourier" else _physical(prob.family)
        if space == "physical":
            fam = dataclasses.replace(fam, b2=lambda t, x: 0.25 + 0.0 * x)
        prob = dataclasses.replace(prob, family=fam, f1=bump * prob.f1, f2=bump * prob.f2)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 16), np.linspace(0.0, 1.0, 5))
        assert traj.stats["space"] == space and len(traj.snapshots) == 5
        arrays = [prob.f1, prob.f2, *(a for _, u, v in traj.snapshots for a in (u, v))]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_non_finite_state_names_its_step(self, space):
        # b2 is NaN for 0.4 < t < 0.6: the first step that samples it is the first whose
        # end lies past 0.4, and the state is checked once at the end of each mesh step
        fam = dataclasses.replace(
            free_wave(1.0),
            b2=lambda t, x: np.where((t > 0.4) & (t < 0.6), np.nan, 0.0) + 0.0 * np.asarray(x))
        fam = _physical(fam) if space == "physical" else fam
        grid = GridSpec(L=8.0, N=32, k=1.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        mesh = graded_mesh(fam, 0.0, 1.0, 32)
        j = int(np.searchsorted(mesh.nodes, 0.4, side="right")) - 1
        with pytest.raises(SolverError, match="state became non-finite") as err:
            integrate(prob, grid, mesh, [1.0])
        assert err.value.report == {"t": float(mesh.nodes[j + 1]), "step": j}
        assert 0.4 < mesh.nodes[j + 1] < 0.6
        assert np.all(np.isfinite(assemble_rhs(0.3, f1, f1, prob, grid)))
        with pytest.raises(SolverError, match="non-finite right-hand side at t=0.5"):
            assemble_rhs(0.5, f1, f1, prob, grid)

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_overflowing_state_names_its_step(self, space):
        # b2 = 1e300 for t > 0.4 overflows the state in the first step that samples it, in
        # the middle of a block: with RuntimeWarnings raised as errors, the
        # overflow and the invalid operations on the infinite state after it raise no
        # warning, and the block's check and replay name that step
        fam = dataclasses.replace(
            free_wave(1.0), b2=lambda t, x: np.where(t > 0.4, 1e300, 0.0) + 0.0 * np.asarray(x))
        fam = _physical(fam) if space == "physical" else fam
        grid = GridSpec(L=8.0, N=32, k=1.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        mesh = graded_mesh(fam, 0.0, 1.0, 32)
        j = int(np.searchsorted(mesh.nodes, 0.4, side="right")) - 1
        assert Discretization(prob, grid).times_per_table // 3 > mesh.M > j + 1
        with pytest.raises(SolverError, match="state became non-finite") as err:
            integrate(prob, grid, mesh, [1.0])
        assert err.value.report == {"t": float(mesh.nodes[j + 1]), "step": j}

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    @pytest.mark.parametrize("where", ["third-block", "halved-step"])
    def test_non_finite_state_named_across_blocks(self, monkeypatch, space, where):
        # the state is checked once per block, and a non-finite block is stepped again
        # checking each mesh step: b2 turns NaN for t > a in the third block or later, and
        # in "halved-step" on a halved mesh step that the block ends inside, so that the next
        # block names the step; the report is the per-step check's
        counts = dict.fromkeys(("rhs", "_rk4_step"), 0)
        _counting(monkeypatch, counts, Discretization, "rhs")
        _counting(monkeypatch, counts, solver, "_rk4_step")
        speed, M = {"third-block": (1.0, 1024), "halved-step": (40.0, 16)}[where]
        if where == "halved-step":
            monkeypatch.setattr(solver, "_TABLE_TIMES", 30)  # blocks of 10 substeps
        grid = GridSpec(L=8.0, N=32, k=1.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)

        def problem(a):
            fam = dataclasses.replace(
                free_wave(speed),
                b2=lambda t, x: np.where((t > a) & (t < a + 0.2), np.nan, 0.0)
                + 0.0 * np.asarray(x))
            fam = _physical(fam) if space == "physical" else fam
            return CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=1e-3, T=1.0)

        mesh = graded_mesh(free_wave(speed), 1e-3, 1.0, M)
        clean = problem(2.0)
        traj = integrate(clean, grid, mesh, [0.5, 1.0])
        n, per_block = traj.stats["substeps"], Discretization(clean, grid).times_per_table // 3
        assert counts == {"rhs": 4 * n, "_rk4_step": n} and n > 3 * per_block
        # every substep (j, s0, h) in stepping order, as _substeps forms them
        subs = []
        for j, (t0, t1) in enumerate(zip(mesh.nodes[:-1].tolist(), mesh.nodes[1:].tolist())):
            n_sub = 2 ** traj.stats["halving_steps"].get(j, 0)
            subs += [(j, t0 + i * ((t1 - t0) / n_sub), (t1 - t0) / n_sub) for i in range(n_sub)]
        if where == "third-block":
            a = 0.6
        else:
            # a block's last substep, inside its halved mesh step
            a = next(s0 + 0.25 * h for g, (j, s0, h) in enumerate(subs)
                     if g // per_block >= 2 and g % per_block == per_block - 1
                     and g + 1 < len(subs) and subs[g + 1][0] == j)
        # the first substep sampling t > a is the first whose end lies past a
        g = next(g for g, (j, s0, h) in enumerate(subs) if s0 + h > a)
        j = subs[g][0]
        assert g // per_block >= 2 and mesh.nodes[j + 1] < a + 0.2
        assert (where == "halved-step") == (j in traj.stats["halving_steps"])
        with pytest.raises(SolverError, match="state became non-finite") as err:
            integrate(problem(a), grid, mesh, [0.5, 1.0])
        assert err.value.report == {"t": float(mesh.nodes[j + 1]), "step": j}


class TestManufacturedSolution:
    """``u*(t, x) = cos(3t) G(x)``, ``G`` a Gaussian of width 0.45, solves ``u_tt + Op(sigma(t))
    u = F`` for the forcing ``F = u*_tt + Op(sigma(t)) u*``, whose ``Op`` is the tests' DFT
    matrix product: on the grid ``u*`` is the semi-discrete solution, so a solve's error at
    t = 1 is RK4's alone.  A forcing puts every solve on grid values; the modal path is covered
    by its equality with them (``TestModalState::test_matches_physical_integrate``)."""

    @pytest.mark.parametrize("path", ["separable", "banded", "dense", "singular"])
    def test_rk4_order(self, path):
        # theorem family, p = 0, poly pair, default graded mesh: the observed order is 4 once
        # the mesh resolves the start (M = 128 -> 256, measured 3.95) and below 1 on the
        # pre-asymptotic M = 32 -> 64 (0.53 separable and dense, 0.31 banded); the banded
        # path steps the excised symbol and the dense one the family rebuilt undeclared;
        # "singular" is the separable path for p = 0.2, whose a also blows up like t**-0.2 at
        # t = 0 (measured 0.42, 1.98, 3.94).  Every solve here is forced, so it steps grid values
        # stage by stage: the closed-form propagator never steps a forced solve
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.2 if path == "singular" else 0.0, 1.25,
                                  pair=poly_pair(0.5, 0.5), k=4.0)
        if path == "dense":
            fam = dataclasses.replace(fam, separable=None)
        sigma = excise(fam).a if path == "banded" else fam.a
        G = GaussianBump(0.0, 0.45)(grid.x).astype(complex)

        def forcing(t, x):
            lattice = sigma(t, x[:, None], grid.xi[None, :])
            return np.cos(3.0 * t) * (dft_matrix_product(grid, lattice, G) - 9.0 * G)
        prob = CauchyProblem(family=fam, f1=G, f2=np.zeros_like(G), t_start=0.0, T=1.0,
                             forcing=forcing, use_excision=path == "banded")
        want, errs = np.cos(3.0) * G, []
        for M in (32, 64, 128, 256):
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M), [1.0])
            assert (traj.stats["operator"], traj.stats["space"], traj.stats["stepping"]) == (
                "separable" if path == "singular" else path, "physical", "stages")
            t, u, _ = traj.snapshots[-1]
            assert t == 1.0
            errs.append(np.max(np.abs(u - want)) / np.max(np.abs(want)))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert orders[-1] >= 3.8 and orders[0] < 1.0, (errs, orders)


class TestStepBuffers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rk4_step_is_the_written_out_sum(self, seed):
        # the stage sums formed in the reused work buffers are byte for byte the written-out
        # RK4 step, for a linear rhs on seeded random complex states, and y is left as it was
        rng = np.random.default_rng(seed)
        c0, c1 = (rng.standard_normal((2, 2, 64)) + 1j * rng.standard_normal((2, 2, 64))
                  for _ in range(2))

        def rhs(t, y, out=None):
            dy = np.einsum("ijn,jn->in", c0 + t * c1, y)
            if out is None:
                return dy
            out[...] = dy
            return out

        work = np.full((5, 2, 64), np.nan, dtype=complex)
        y = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        for t0, dt in ((0.25, 0.125), (0.375, 0.0625 / 3.0)):
            stages, before = (t0, t0 + 0.5 * dt, t0 + dt), y.tobytes()
            got = solver._rk4_step(rhs, stages, dt, y, work)
            assert y.tobytes() == before and not np.shares_memory(got, work)
            k1 = rhs(stages[0], y)
            k2 = rhs(stages[1], y + 0.5 * dt * k1)
            k3 = rhs(stages[1], y + 0.5 * dt * k2)
            k4 = rhs(stages[2], y + dt * k3)
            want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert got.tobytes() == want.tobytes()
            y = got

    @pytest.mark.parametrize("name", ["7.3-fourier", "7.3-physical", "excised-physical"])
    def test_rhs_into_out_is_rhs(self, name):
        # rhs(t, y, out) writes into out byte for byte what rhs(t, y) returns, with b0
        # and forcing, on Fourier coefficients and on grid values (banded principal part)
        grid = GridSpec(L=8.0, N=64, k=4.0)
        if name.startswith("7.3"):
            fam = counterexample_family("7.3", k=4.0)
        else:
            fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        b0 = ((lambda t, x: np.sqrt(t) + 0.1 * np.cos(x) ** 2) if fam.x_dependent
              else (lambda t, x: np.sqrt(t) + 0.0 * x))
        fam = dataclasses.replace(fam, b0=b0)
        fam = _physical(fam) if name.endswith("physical") else fam
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=0.5 * f1, t_start=0.0, T=1.0,
                             forcing=lambda t, x: np.sin(3.0 * t) * f1,
                             use_excision=name.startswith("excised"))
        disc = Discretization(prob, grid)
        assert disc.space.name == name.split("-")[1]
        assert disc.apply_principal.path == {"7.3-fourier": "separable",
                                             "7.3-physical": "separable",
                                             "excised-physical": "banded"}[name]
        y = disc.state(np.array([prob.f1, prob.f2]))
        for t in (0.05, 0.3):
            out = np.full_like(y, np.nan)
            got = disc.rhs(t, y, out)
            assert got is out and got.tobytes() == disc.rhs(t, y).tobytes()


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
        assert traj.stats["lattice_evals"] == 0 and traj.stats["halving_steps"] == {}

        self._assert_physical_rk4(prob, grid, mesh, traj)

    @staticmethod
    def _assert_physical_rk4(prob, grid, mesh, traj):
        # the reference steps grid values with the operators of the family rebuilt as
        # x-dependent, over the substeps traj.stats["halving_steps"] names
        fam = _physical(prob.family)
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

        def rk4(stages, h, u, v):
            # classical RK4 written out on (u, v), not the library's step
            t0, tm, t1 = stages
            k1u, k1v = rhs(t0, u, v)
            k2u, k2v = rhs(tm, u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u, k3v = rhs(tm, u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u, k4v = rhs(t1, u + h * k3u, v + h * k3v)
            return (u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                    v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

        u, v = prob.f1, prob.f2
        states = [(u, v)]
        for j in range(mesh.M):
            t0, t1 = float(mesh.nodes[j]), float(mesh.nodes[j + 1])
            n_sub = 2 ** traj.stats["halving_steps"].get(j, 0)
            h = (t1 - t0) / n_sub
            for i in range(n_sub):
                s0 = t0 + i * h
                tm = s0 + 0.5 * h
                first = traj.stats["singular_start"] and j == 0 and i == 0
                u, v = rk4((tm, tm, tm) if first else (s0, tm, s0 + h), h, u, v)
            states.append((u, v))
        for t, u, v in traj.snapshots:
            u_ref, v_ref = states[int(np.searchsorted(mesh.nodes, t))]
            assert l2_norm(grid, u - u_ref) <= 1e-12 * l2_norm(grid, u_ref), t
            assert l2_norm(grid, v - v_ref) <= 1e-12 * l2_norm(grid, v_ref), t

    @settings(max_examples=60, deadline=1000)
    @given(name=st.sampled_from([*(f"7.1-m{m}" for m in range(5)), "7.2", "7.3", "7.4",
                                 "reference", "excised-theorem"]),
           b0=st.booleans(), b2=st.booleans(), forced=st.booleans(),
           t=st.floats(1e-100, 1.0), N=st.sampled_from([32, 64, 128]))
    def test_rhs_matches_physical(self, name, b0, b2, forced, t, N):
        # the Fourier-space rhs, one row -(Op(a) + Op(b)) per time, against the grid-value
        # rhs of the family rebuilt as x-dependent, on the same state (t from 1e-100: near
        # 1e-150 the squares that l2_norm sums of the 1/t terms of 7.1, 7.2 and 7.4 overflow)
        if name.startswith("7.1"):
            fam, k = counterexample_family("7.1", int(name[-1])), 1.0
        elif name.startswith("7."):
            fam, k = counterexample_family(name), 1.0
        else:
            k = 4.0
            fam = reference_wave(k=k) if name == "reference" else theorem_coefficient(0.0, 1.25, k=k)
        grid = GridSpec(L=np.pi, N=N, k=k)
        fam = dataclasses.replace(fam, b0=(fam.b0 or (lambda tt, x: np.sqrt(tt) + 0.0 * x))
                                  if b0 else None,
                                  b2=(lambda tt, x: np.cos(tt) + 0.0 * x) if b2 else None)
        forcing = (lambda tt, x, f=_band_field(grid): np.sin(3.0 * tt) * f) if forced else None
        # every mode in the data, inside |x| <= L/2 as the x-dependent rebuild requires
        noise = 1e-3 * np.random.default_rng(N).standard_normal((2, N))
        u, v = (GaussianBump(0.0, 0.2)(grid.x) * (_band_field(grid, i) + noise[i])
                for i in (0, 1))
        prob = CauchyProblem(family=fam, f1=u, f2=v, t_start=0.0, T=1.0, forcing=forcing,
                             use_excision=name == "excised-theorem")
        pfam = _physical(fam)
        disc, phys = Discretization(prob, grid), Discretization(
            dataclasses.replace(prob, family=pfam), grid)
        assert (disc.space.name, phys.space.name) == ("fourier", "physical")
        got = disc.field(disc.rhs(t, disc.state(np.array([u, v]))))
        # and against its terms written out on grid values
        principal = symbol_operator(grid, pfam, excise(pfam).a if prob.use_excision else None)
        terms = ((fam.b1, apply_multiplier(grid, 1j * grid.xi_odd, u)), (fam.b2, u), (fam.b0, v))
        dv = -principal(t, u) - sum(b(t, grid.x) * w for b, w in terms if b is not None)
        dv = dv + (forcing(t, grid.x) if forced else 0.0)
        for want in (phys.rhs(t, np.array([u, v])), (v, dv)):
            for g, w in zip(got, want):
                assert l2_norm(grid, g - w) <= 1e-12 * l2_norm(grid, w)

    def test_one_row_per_stage_time(self):
        # -(Op(a) + Op(b)) is one row per stage time: RK4 stages 2 and 3 share theirs, and
        # each substep's first stage reuses the last stage of the substep before it
        grid = GridSpec(L=np.pi, N=256, k=1.0)
        for fam, t_start, M in ((counterexample_family("7.3"), 0.0, 640),
                                (counterexample_family("7.1", 3), 1e-3, 512)):
            prob = _problem(fam, grid, t_start, M)[0]
            traj = integrate(prob, grid, graded_mesh(fam, t_start, 1.0, M), [1.0])
            n = traj.stats["substeps"]
            assert traj.stats["singular_start"] == (t_start == 0.0)
            assert traj.stats["halvings"] > 0 or t_start > 0.0
            assert 2 * n <= traj.stats["rows"] <= 2 * n + 1
            # the counterexamples are exactly periodic: no torus edge mass
            assert traj.stats["stepping"] == "stages" and traj.stats["edge_mass"] is None
        # on grid values the operators are applied, and no row is formed
        bump = GaussianBump(0.0, 0.2)(grid.x)
        phys = dataclasses.replace(prob, family=_physical(fam), f1=bump, f2=0.0 * bump)
        traj = integrate(phys, grid, graded_mesh(fam, t_start, 1.0, 16), [1.0])
        assert traj.stats["space"] == "physical" and traj.stats["rows"] == 0
        assert 0.0 < traj.stats["edge_mass"] < 1e-6  # x-dependent: recorded (1.2e-8)

    @pytest.mark.parametrize("path", ["separable", "diagonal"])
    @pytest.mark.parametrize("b0, b1, b2, forced",
                             [(b0, b1, b2, f) for b0 in (False, True) for b1 in (False, True)
                              for b2 in (False, True) for f in (False, True)])
    def test_rhs_is_the_operators_row_bitwise(self, path, b0, b1, b2, forced):
        # the row read from the tables is bitwise the row the operators form when applied to
        # -1.0, the b0 term bitwise apply_b0's: at a primed time, again at the same time (one
        # formation, then a hit in the one-entry table), and at a time no table holds
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0)
        fam = dataclasses.replace(fam, b0=(lambda t, x: np.sqrt(t) + 0.0 * x) if b0 else None,
                                  b1=(lambda t, x: np.cos(t) + 0.0 * x) if b1 else None,
                                  b2=(lambda t, x: 0.5 + np.sin(t) + 0.0 * x) if b2 else None)
        forcing = (lambda t, x, f=_band_field(grid): np.sin(3.0 * t) * f) if forced else None
        y = np.random.default_rng(5).standard_normal((2, grid.N, 2)) @ np.array([1.0, 1j])
        prob = CauchyProblem(family=fam, f1=y[0], f2=y[1], t_start=0.0, T=1.0,
                             forcing=forcing, use_excision=path == "diagonal")
        disc = Discretization(prob, grid)
        first, rest = disc.apply_principal, [op for op in (disc.apply_lower,) if op is not None]
        assert (disc.space.name, first.path) == ("fourier", path)
        disc.prime(np.array([0.25, 0.5, 0.5]))
        for t, formed in ((0.5, 1), (0.5, 1), (0.75, 2)):
            got = disc.rhs(t, y)
            assert disc.apply_negated.formed == formed
            want = sum((op(t, -1.0) for op in rest), first(t, -1.0)) * y[0]
            if b0:
                want = want - disc.apply_b0(t, y[1])
            if forced:
                want = want + disc.forcing_state(t)
            assert np.array_equal(got[0], y[1]) and np.array_equal(got[1], want), t

    @pytest.mark.parametrize("table_times", [768, 30])
    @pytest.mark.parametrize("case", ["free-wave-40", "7.3-coarse"])
    def test_halved_steps_match_physical_rk4(self, monkeypatch, case, table_times):
        # CFL halving on Fourier coefficients: the coefficients are evaluated over the
        # stage times of blocks of substeps (of 10 substeps with 30-time tables, which
        # split halved steps), against grid values stepped over the same substeps
        monkeypatch.setattr(solver, "_TABLE_TIMES", table_times)
        fam, t_start, M = {"free-wave-40": (free_wave(40.0), 1e-3, 16),
                           "7.3-coarse": (counterexample_family("7.3"), 0.0, 16)}[case]
        prob, grid, _, _ = _problem(fam, _PI64, t_start, M)
        mesh = graded_mesh(fam, t_start, 1.0, M)
        traj = integrate(prob, grid, mesh, np.linspace(t_start, 1.0, 5)[1:])
        levels = traj.stats["halving_steps"]
        assert traj.stats["space"] == "fourier" and len(set(levels.values())) > 1
        assert traj.stats["substeps"] == M + sum(2 ** lv - 1 for lv in levels.values())
        assert traj.stats["singular_start"] == (t_start == 0.0)
        # the levels of a speed bound taken one step at a time over the whole grid
        want = {}
        for j, (t0, t1) in enumerate(zip(mesh.nodes[:-1], mesh.nodes[1:])):
            a = fam.a(float(0.5 * (t0 + t1)), grid.x, grid.xi_max)
            dt_max = solver.CFL_SAFETY * grid.dx / np.sqrt(np.max(np.abs(a)) / grid.xi_max**2)
            if t1 - t0 > dt_max:
                want[j] = int(np.ceil(np.log2((t1 - t0) / dt_max)))
        assert levels == want
        self._assert_physical_rk4(prob, grid, mesh, traj)

    def test_coefficients_evaluated_per_block(self, monkeypatch):
        # from a singular start with halved steps, on Fourier coefficients (7.3) and on grid
        # values (the theorem family with x-dependent omega): g, b1 and speed_bound are called
        # once per block or chunk, not once per stage, and rhs still 4 times per substep on
        # the first two (the modal space steps propagators, which read g from the same table)
        counts = dict.fromkeys(("g", "b1", "speed_bound", "rhs", "_rk4_step"), 0)

        def counted(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        for name in ("speed_bound", "rhs"):
            _counting(monkeypatch, counts, Discretization, name)
        _counting(monkeypatch, counts, solver, "_rk4_step")
        grid73 = GridSpec(L=np.pi, N=256, k=1.0)
        prob73 = _problem(counterexample_family("7.3"), grid73, 0.0, 640)[0]
        grid = GridSpec(L=8.0, N=128, k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        theorem = CauchyProblem(family=theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5),
                                                           k=4.0),
                                f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        # M = 48 keeps grid values (N**2 > 256 M), and M = 64 steps the modal space, in
        # blocks of 32 substeps
        for space, prob, grid, M in (("fourier", prob73, grid73, 640),
                                     ("physical", theorem, grid, 48),
                                     ("modal", theorem, grid, 64)):
            if space == "modal":
                monkeypatch.setattr(solver, "_TABLE_TIMES", 96)
            fam = prob.family
            g, w, m = fam.separable
            b1 = fam.b1 and counted("b1", fam.b1)
            fam = dataclasses.replace(fam, separable=(counted("g", g), w, m), b1=b1)
            prob = dataclasses.replace(prob, family=fam)
            counts.update(dict.fromkeys(counts, 0))  # the family's construction probes g, b1
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M), [1.0])
            disc = Discretization(prob, grid, solver._modal_space(prob, grid, traj.mesh))
            assert disc.space.name == space
            n = traj.stats["substeps"]
            blocks = -(-n // (disc.times_per_table // 3))
            chunks = -(-M // (solver._TABLE_VALUES // np.size(disc.space.x)))
            assert traj.stats["space"] == space and traj.stats["singular_start"]
            assert traj.stats["halvings"] > 0 and blocks > 1
            # the modal solve steps one closed-form propagator per substep, with no stage
            stepped = (0, 0) if space == "modal" else (n, 4 * n)
            assert (counts["_rk4_step"], counts["rhs"]) == stepped
            assert traj.stats["stepping"] == ("propagator" if space == "modal" else "stages")
            assert counts["speed_bound"] == chunks and (space == "fourier" or chunks > 1)
            assert counts["g"] == blocks
            # b1 (of 7.3 only) is also probed once at t_start for a singular start
            assert counts["b1"] == (blocks + 1 if b1 else 0)

    def test_transforms_only_at_data_and_snapshots(self, monkeypatch):
        names = ("dft_forward", "dft_inverse", "_rdft_forward", "_rdft_inverse", "_fft_multiply",
                 "_modal_basis", "_real_matmul")
        counts = dict.fromkeys((*names, "rhs"), 0)
        for name in names:
            _counting(monkeypatch, counts, solver, name)
        _counting(monkeypatch, counts, Discretization, "rhs")
        prob, grid, M, _ = _problem(counterexample_family("7.3"), _PI64, 0.0, 256)
        # real data step the half spectrum, complex data the full one; the stacked (u, v)
        # converts in one call: once at the data, once per snapshot
        for f2, real in ((prob.f2, True), (prob.f2 + 0.5j * prob.f1, False)):
            counts.update(dict.fromkeys(counts, 0))
            traj = integrate(dataclasses.replace(prob, f2=f2), grid,
                             graded_mesh(prob.family, 0.0, 1.0, M), [0.0, 0.5, 1.0])
            S = len(traj.snapshots)
            assert S == 3 and counts["rhs"] > 0 and traj.stats["real"] is real
            full, half = (0, 0), (1, S)
            assert (counts["dft_forward"], counts["dft_inverse"]) == (full if real else half)
            assert (counts["_rdft_forward"], counts["_rdft_inverse"]) == (half if real else full)
            assert counts["_fft_multiply"] == counts["_modal_basis"] == counts["_real_matmul"] == 0
            assert (traj.stats["operator"], traj.stats["lattice_columns"],
                    traj.stats["lattice_evals"]) == ("separable", 0, 0)

        # an x-dependent family with a b2 keeps the physical path: one multiplier per RHS
        counts.update(dict.fromkeys(counts, 0))
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=dataclasses.replace(fam, b2=lambda t, x: 0.25 + 0.0 * x),
                             f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [0.5, 1.0])
        assert traj.stats["space"] == "physical" and traj.stats["lattice_evals"] == 0
        assert not traj.stats["real"]
        assert counts["rhs"] > 0 and counts["_fft_multiply"] == counts["rhs"]
        assert counts["dft_forward"] == counts["dft_inverse"] == 0
        assert counts["_rdft_forward"] == counts["_rdft_inverse"] == 0
        assert counts["_modal_basis"] == counts["_real_matmul"] == 0

        # without it the modal space: one basis, and one change of basis at the data and one
        # per snapshot, with no transform per substep (and no RHS: each substep is one
        # closed-form propagator), for real and for complex data
        for f2, real in ((prob.f2, True), (0.5j * prob.f1, False)):
            counts.update(dict.fromkeys(counts, 0))
            traj = integrate(dataclasses.replace(prob, family=fam, f2=f2), grid,
                             graded_mesh(fam, 0.0, 1.0, 64), [0.5, 1.0])
            S = len(traj.snapshots)
            assert traj.stats["space"] == "modal" and S == 2 and counts["rhs"] == 0
            assert traj.stats["stepping"] == "propagator" and traj.stats["substeps"] > 0
            assert traj.stats["real"] is real
            assert (counts["_modal_basis"], counts["_real_matmul"]) == (1, 1 + S)
            assert all(counts[name] == 0 for name in names[:5])
            assert (traj.stats["operator"], traj.stats["lattice_columns"],
                    traj.stats["lattice_evals"]) == ("separable", 0, 0)


    @pytest.mark.parametrize("N", [32, 1024])
    def test_stacked_state_is_row_by_row(self, N):
        # state and field convert a stacked (u, v) in one batched FFT, bitwise the
        # transforms of its rows one at a time, on the full spectrum of complex fields and
        # the half spectrum of real ones
        grid = GridSpec(L=np.pi, N=N, k=1.0)
        rng = np.random.default_rng(N)
        y = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N))
        prob = CauchyProblem(family=free_wave(1.0), f1=y[0], f2=y[1], t_start=0.0, T=1.0)
        for real, size, y, forward, inverse in (
                (False, N, y, solver.dft_forward, solver.dft_inverse),
                (True, N // 2 + 1, y.real.copy(), solver._rdft_forward, solver._rdft_inverse)):
            disc = Discretization(prob, grid, solver._state_space(grid, prob.family, real))
            assert (disc.space.name, disc.space.real, disc.space.size) == ("fourier", real, size)
            c = disc.state(y)
            for got, want, shape in ((c, [forward(grid, r) for r in y], (2, size)),
                                     (disc.field(c), [inverse(grid, r) for r in c], (2, N))):
                assert got.shape == shape
                assert all(got[i].tobytes() == want[i].tobytes() for i in (0, 1))

    @settings(max_examples=60, deadline=1000)
    @given(family=st.sampled_from(["theorem", "7.1-m0", "7.1-m3", "7.2", "7.3", "7.4"]),
           symbol=st.sampled_from(["a", "excised.a", "defect", "value", "dt", "h.value",
                                   "h.dt"]),
           N=st.sampled_from([32, 64, 128]), L=st.sampled_from([np.pi, 8.0]),
           t=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 16))
    def test_diagonal_matches_dft_matrix_product(self, family, symbol, N, L, t, seed):
        # the diagonal path on Fourier coefficients of every multiplier family, for its a
        # and the excision-derived symbols, against the DFT-matrix product on grid values
        if family == "theorem":
            fam = theorem_coefficient(0.0, 1.25, k=4.0)
        else:
            fam = counterexample_family(family[:3], int(family[-1]) if "-m" in family else 0)
        grid = GridSpec(L=L, N=N, k=fam.k)
        excised = excise(fam)
        root = char_root(excised)
        h = h_symbol(root)
        sym = {"a": fam.a, "excised.a": excised.a, "defect": excised.defect,
               "value": root.value, "dt": root.dt, "h.value": h.value, "h.dt": h.dt}[symbol]
        space = solver._state_space(grid, fam)
        op = symbol_operator(grid, fam, sym)
        assert (space.name, op.path) == ("fourier", "diagonal")
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        lattice = np.broadcast_to(sym(t, grid.x[:, None], grid.xi[None, :]), (N, N))
        want = dft_matrix_product(grid, lattice, u)
        got = space.field(op(t, space.state(u)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


_MODAL_FAMILIES = {
    "theorem-poly": lambda: theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0),
    "example11": lambda: example_coefficient(0.5, 0.5, k=4.0),  # m(0) = 0: a zero eigenvalue
}


def _modal_problem(name, N, t_start=0.0, **kw):
    grid = GridSpec(L=8.0, N=N, k=4.0)
    f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
    return CauchyProblem(family=_MODAL_FAMILIES[name](), f1=f1, f2=0.5 * f1, t_start=t_start,
                         T=1.0, **kw), grid


class TestModalState:
    @pytest.mark.parametrize("N, M, t_start", [(64, 128, 0.0), (64, 16, 0.0), (64, 128, 1e-3),
                                               (256, 1024, 0.0)])
    @pytest.mark.parametrize("name", sorted(_MODAL_FAMILIES))
    def test_matches_physical_integrate(self, monkeypatch, name, N, M, t_start):
        # the modal space steps the same RK4 as grid values in a fixed basis (one closed-form
        # propagator per mode and substep), so the two agree to rounding at every snapshot,
        # on the same mesh and substeps: from the singular start t = 0 and from t = 1e-3, with
        # CFL halvings at M = 16
        prob, grid = _modal_problem(name, N, t_start)
        mesh = graded_mesh(prob.family, t_start, 1.0, M)
        times = np.linspace(t_start, 1.0, 5)
        modal = integrate(prob, grid, mesh, times)
        monkeypatch.setattr(solver, "_modal_space", lambda *args: None)
        phys = integrate(prob, grid, mesh, times)
        assert (modal.stats["space"], phys.stats["space"]) == ("modal", "physical")
        assert modal.stats["singular_start"] == (t_start == 0.0)
        assert (M == 16) == (modal.stats["halvings"] > 0)
        keys = ("substeps", "halving_steps", "singular_start", "operator", "min_cfl_dt")
        assert all(modal.stats[k] == phys.stats[k] for k in keys)
        # the modal solve steps closed-form propagators, so neither forms a row -mu(t)
        assert (modal.stats["stepping"], phys.stats["stepping"]) == ("propagator", "stages")
        assert modal.stats["rows"] == phys.stats["rows"] == 0
        assert len(modal.snapshots) == len(phys.snapshots) == 5
        for (t, u, v), (t_ref, u_ref, v_ref) in zip(modal.snapshots, phys.snapshots):
            assert t == t_ref
            assert l2_norm(grid, u - u_ref) <= 1e-11 * l2_norm(grid, u_ref), t
            assert l2_norm(grid, v - v_ref) <= 1e-11 * l2_norm(grid, v_ref), t

    @pytest.mark.parametrize("N", [32, 128])
    @pytest.mark.parametrize("name", sorted(_MODAL_FAMILIES))
    def test_basis_reproduces_separable_product(self, name, N):
        # g(t) modes on the modal states is symbol_operator's separable product on grid values,
        # on complex states and on the real states of real fields
        prob, grid = _modal_problem(name, N)
        mesh = graded_mesh(prob.family, 0.0, 1.0, N)
        phys = symbol_operator(grid, prob.family)
        u = np.random.default_rng(N).standard_normal((2, N, 2)) @ np.array([1.0, 1j])
        for real, dtype, u in ((False, complex, u), (True, float, u.real.copy())):
            space = solver._modal_space(prob, grid, mesh, real)
            modal = symbol_operator(grid, prob.family, space=space)
            assert (space.name, phys.path, modal.path) == ("modal", "separable", "separable")
            z = space.state(u)
            assert (space.real, space.size, space.dtype, z.dtype) == (real, N, dtype, dtype)
            assert np.max(np.abs(space.field(z) - u)) <= 1e-12 * np.max(np.abs(u))
            for t in (1e-3, 0.3, 1.0):
                want = phys(t, u)
                got = space.field(modal(t, z))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (real, t)

    @pytest.mark.parametrize("broken", ["b0", "b1", "b2", "excision", "forcing", "N>1024",
                                        "N^2>256M", "w<=0", "m-odd", "m-complex"])
    def test_broken_rule_keeps_grid_values(self, broken):
        # the modal space needs each condition of the rule; the unbroken problem takes it,
        # at N**2 = 256 M exactly
        coefficient = lambda t, x: 0.25 + 0.0 * x  # noqa: E731
        prob, grid = _modal_problem("theorem-poly", 64)
        M = 16
        assert solver._modal_space(prob, grid, graded_mesh(prob.family, 0.0, 1.0, M)) is not None
        fam = prob.family
        if broken in ("b0", "b1", "b2"):
            fam = dataclasses.replace(fam, **{broken: coefficient})
            prob = dataclasses.replace(prob, family=fam)
        elif broken == "excision":
            prob = dataclasses.replace(prob, use_excision=True)
        elif broken == "forcing":
            prob = dataclasses.replace(prob, forcing=coefficient)
        elif broken == "N>1024":
            grid, M = GridSpec(L=8.0, N=2048, k=4.0), 2048 ** 2 // 256
        elif broken == "N^2>256M":
            M = 15
        else:
            g, w, m = fam.separable
            if broken == "w<=0":  # 0 at x = 0
                w = lambda x: np.asarray(x, dtype=float) ** 2  # noqa: E731
            elif broken == "m-odd":
                m = lambda xi: bracket(xi, 4.0) ** 2 + 0.5 * np.asarray(xi)  # noqa: E731
            else:
                m = lambda xi: bracket(xi, 4.0) ** 2 + 0.5j  # noqa: E731
            rebuild = functools.partial(
                separable_family, g, fam.dg, w, lambda x: 0.0 * x, m, lambda xi: 0.0 * xi,
                pair=fam.pair, k=fam.k, p=fam.p, q=fam.q, r=fam.r, T=fam.T, c0=fam.c0,
                spectral_shift=True, x_dependent=True)
            if broken == "m-complex":  # rejected where the family is built, before any rule
                with pytest.raises(ValueError, match="nonzero imaginary part"):
                    rebuild()
                return
            prob = dataclasses.replace(prob, family=rebuild())
        mesh = graded_mesh(prob.family, 0.0, 1.0, M)
        assert solver._modal_space(prob, grid, mesh) is None
        if grid.N <= 64:
            assert integrate(prob, grid, mesh, [1.0]).stats["space"] == "physical"


def _propagator_problem(case):
    # (problem, grid, mesh) of a solve where every mode solves u'' = -g(t) lam u
    if case.startswith("modal"):
        prob, grid = _modal_problem("example11" if "11" in case else "theorem-poly", 64)
        M = 16 if "halved" in case else 128
    else:
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        fam = (theorem_coefficient(0.0, 1.25, k=4.0) if "halved" not in case
               else free_wave(40.0, k=4.0))
        prob, _, M, _ = _problem(fam, grid, 1e-3 if "positive" in case else 0.0,
                                 16 if "halved" in case else 128)
    if "complex" in case:
        prob = dataclasses.replace(prob, f2=prob.f2 + 0.5j * prob.f1)
    return prob, grid, graded_mesh(prob.family, prob.t_start, 1.0, M)


class TestPropagator:
    """Where every mode of the states solves ``u'' = -g(t) lam u``, ``integrate`` steps one
    closed-form RK4 propagator per substep."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_closed_form_is_the_rk4_step(self, monkeypatch, seed, dtype):
        # each propagator is _rk4_step of the diagonal rhs (v, -g(t) lam u) from the same
        # state, to 1e-14 relative: lam holds 0 (Example 1.1's m(0) = 0) and reaches
        # h**2 g lam = 6 (RK4 is stable to 8 here), g is drawn at every stage time, the first
        # substep samples a singular start's (tm, tm, tm), and 40 substeps cross chunks of 8
        monkeypatch.setattr(stepping, "_PROPAGATOR_VALUES", 4 * 8 * 64)
        rng = np.random.default_rng(seed)
        block, t0 = [], 0.0
        for i in range(40):
            h = 0.01 * rng.uniform(0.5, 1.0)
            tm = t0 + 0.5 * h
            block.append((i, (tm, tm, tm) if i == 0 else (t0, tm, t0 + h), h, i % 3 == 0))
            t0 += h
        g = {t: rng.uniform(0.5, 2.0) for _, stages, _, _ in block for t in stages}
        lam = np.concatenate([[0.0], rng.uniform(0.0, 6.0 / (0.01 ** 2 * 2.0), 63)])
        def rhs(t, y, out):
            out[0], out[1] = y[1], -g[t] * lam * y[0]
            return out

        y = rng.standard_normal((2, 64)).astype(dtype)
        if dtype is complex:
            y += 1j * rng.standard_normal((2, 64))
        before, work, prev = y.tobytes(), np.empty((5, 2, 64), dtype=dtype), y
        states = stepping._propagator(lambda t: (g[t],), lam)  # g(t) as the part at t
        for (_, stages, h, _), got in zip(block, states(block, y)):
            want = stepping._rk4_step(rhs, stages, h, prev, work)
            assert got.dtype == dtype
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), stages
            prev = got
        assert y.tobytes() == before

    @pytest.mark.parametrize("case", ["modal", "modal-complex", "modal11-halved",
                                      "fourier", "fourier-complex", "fourier-halved",
                                      "fourier-positive"])
    def test_matches_stage_by_stage(self, monkeypatch, case):
        # the same solve stepped stage by stage (the rule disabled) agrees within 1e-13 at
        # every snapshot, on the same substeps: on real and complex modal states and the half
        # and full spectrum, from the singular start t = 0 (and from 1e-3), with CFL halvings
        prob, grid, mesh = _propagator_problem(case)
        times = np.linspace(prob.t_start, 1.0, 5)
        fast = integrate(prob, grid, mesh, times)
        monkeypatch.setattr(solver, "_propagator_modes", lambda disc: None)
        slow = integrate(prob, grid, mesh, times)
        assert (fast.stats["stepping"], slow.stats["stepping"]) == ("propagator", "stages")
        space = "modal" if case.startswith("modal") else "fourier"
        assert fast.stats["space"] == slow.stats["space"] == space
        assert fast.stats["real"] == slow.stats["real"] == ("complex" not in case)
        assert fast.stats["substeps"] == slow.stats["substeps"]
        assert fast.stats["halving_steps"] == slow.stats["halving_steps"]
        assert (fast.stats["halvings"] > 0) == ("halved" in case)
        assert len(fast.snapshots) == len(slow.snapshots) == 5
        for (t, *got), (t_ref, *want) in zip(fast.snapshots, slow.snapshots):
            assert t == t_ref
            for a, b in zip(got, want):
                assert l2_norm(grid, a - b) <= 1e-13 * l2_norm(grid, b), (case, t)

    @pytest.mark.parametrize("broken", ["b0", "b1", "b2", "forcing", "excision", "grid-values",
                                        "not-separable"])
    def test_rule(self, broken):
        # the propagator needs a separable principal part diagonal on the states, lam its real
        # m (Fourier coefficients, w(0) in g) or modes (modal states), with no b0, b1, b2 or
        # forcing; anything else is stepped stage by stage
        for case in ("fourier", "modal"):
            prob, grid, mesh = _propagator_problem(case)
            disc, _ = solver._discretize(prob, grid, (prob.f1, prob.f2), mesh)
            lam = solver._propagator_modes(disc)
            want = (disc.space.modes if case == "modal"
                    else prob.family.separable[2](grid.xi[:grid.N // 2 + 1]))
            assert disc.space.name == case and lam.dtype == float
            assert lam.tobytes() == np.broadcast_to(want, lam.shape).tobytes()
            fam, coefficient = prob.family, (lambda t, x: 0.25 + 0.0 * x)
            if broken in ("b0", "b1", "b2"):
                prob = dataclasses.replace(prob, family=dataclasses.replace(
                    fam, **{broken: coefficient}))
            elif broken == "forcing":
                prob = dataclasses.replace(prob, forcing=coefficient)
            elif broken == "excision":
                prob = dataclasses.replace(prob, use_excision=True)
            elif broken == "grid-values":  # x-dependent, and N**2 > 256 M
                env = GaussianBump(0.0, 0.2)(grid.x)  # inside |x| <= L/2
                prob = dataclasses.replace(prob, family=_physical(fam), f1=env * prob.f1,
                                           f2=env * prob.f2)
                mesh = graded_mesh(fam, 0.0, 1.0, 8)
            else:
                prob = dataclasses.replace(prob, family=dataclasses.replace(fam, separable=None))
            disc, _ = solver._discretize(prob, grid, (prob.f1, prob.f2), mesh)
            assert solver._propagator_modes(disc) is None, (case, disc.space.name)
        assert integrate(prob, grid, mesh, [1.0]).stats["stepping"] == "stages"

    @pytest.mark.parametrize("N", [1024, 4096])
    def test_rows_add_no_memory(self, monkeypatch, N):
        # the rows of a chunk of propagators are bounded, so a propagator solve peaks no
        # higher than the same solve stepped stage by stage (measured 0.90 and 0.82 of it on
        # real data, caches warm)
        grid = GridSpec(L=np.pi, N=N, k=1.0)
        fam = free_wave(k=1.0)
        prob = CauchyProblem(family=fam, f1=U0(grid.x), f2=U0(grid.x, 1), t_start=0.0, T=1.0)
        mesh, peaks = graded_mesh(fam, 0.0, 1.0, 16), []
        for stepping in ("propagator", "stages"):
            if stepping == "stages":
                monkeypatch.setattr(solver, "_propagator_modes", lambda disc: None)
            assert integrate(prob, grid, mesh, [1.0]).stats["stepping"] == stepping
            tracemalloc.start()
            try:
                integrate(prob, grid, mesh, [1.0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks


class TestEdgeMass:
    def test_recomputed_from_the_snapshots(self):
        # excised_dense's inputs at test sizes (N = 32, M = 32, seed 1): the largest, over
        # snapshots, of max |u| on |x| >= 3L/4 relative to its max |u|, the same in two runs
        grid = GridSpec(L=8.0, N=32, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        p, env = random_trig_poly(8, seed=1), GaussianBump(0.0, 0.45)
        f1 = p(grid.x) * env(grid.x)
        f2 = -(p(grid.x, 1) * env(grid.x) + p(grid.x) * env(grid.x, 1))
        prob = CauchyProblem(family=fam, f1=f1.astype(complex), f2=f2.astype(complex),
                             t_start=0.0, T=1.0, use_excision=True)
        mesh, times = graded_mesh(fam, 0.0, 1.0, 32), np.linspace(0.0, 1.0, 9)
        first, second = (integrate(prob, grid, mesh, times) for _ in range(2))
        edge = np.abs(grid.x) >= 6.0
        want = max(float(np.max(np.abs(u[edge])) / np.max(np.abs(u)))
                   for _, u, _ in first.snapshots)
        assert first.stats["space"] == "physical" and len(first.snapshots) == 9
        assert first.stats["edge_mass"] == second.stats["edge_mass"] == want
        assert 0.0 < want < 1.0


_REAL_CASES = {
    # 7.3 from its singular start with 24 CFL halvings; 7.1 (m = 3) with b0 and b1; Example
    # 1.1 on modal states from its singular start with 20 halvings
    "7.3-halved": lambda: (counterexample_family("7.3"), _PI64, 0.0, 16, None),
    "7.1-m3": lambda: (counterexample_family("7.1", 3), _PI64, 1e-3, 256, None),
    "example11": lambda: (_MODAL_FAMILIES["example11"](), GridSpec(L=8.0, N=64, k=4.0), 0.0, 64,
                          GaussianBump(0.0, 0.45)),
}


class TestRealStates:
    @pytest.mark.parametrize("case", sorted(_REAL_CASES))
    def test_complex_solve_is_two_real_solves(self, case):
        # the solve is linear: integrate(f + i g) on complex states is integrate(f) + i
        # integrate(g) on real states, at every snapshot, to rounding
        fam, grid, t_start, M, envelope = _REAL_CASES[case]()
        e = 1.0 if envelope is None else envelope(grid.x)
        noise = 1e-3 * np.random.default_rng(7).standard_normal((4, grid.N))
        u1 = random_trig_poly(8, seed=3)
        f = ((U0(grid.x) + noise[0]) * e, (U0(grid.x, 1) + noise[1]) * e)
        g = ((u1(grid.x) + noise[2]) * e, (u1(grid.x, 1) + noise[3]) * e)
        mesh, times = graded_mesh(fam, t_start, 1.0, M), np.linspace(t_start, 1.0, 5)
        c, rf, rg = (integrate(CauchyProblem(family=fam, f1=d1, f2=d2, t_start=t_start, T=1.0),
                               grid, mesh, times)
                     for d1, d2 in ((f[0] + 1j * g[0], f[1] + 1j * g[1]), f, g))
        assert (c.stats["real"], rf.stats["real"], rg.stats["real"]) == (False, True, True)
        assert c.stats["space"] == rf.stats["space"] == ("modal" if envelope else "fourier")
        assert c.stats["halving_steps"] == rf.stats["halving_steps"]
        assert (c.stats["halvings"] > 0) == (case != "7.1-m3")
        assert c.stats["singular_start"] == (t_start == 0.0)
        assert len(c.snapshots) == len(rf.snapshots) == len(rg.snapshots) == 5
        for (t, *z), (_, *x), (_, *y) in zip(c.snapshots, rf.snapshots, rg.snapshots):
            for zi, xi, yi in zip(z, x, y):
                assert zi.dtype == xi.dtype == yi.dtype == complex
                assert not (xi.imag.any() or yi.imag.any())
                assert l2_norm(grid, zi - (xi + 1j * yi)) <= 1e-12 * l2_norm(grid, zi), t

    def test_finite_loss_solve_is_real(self):
        # Example 7.1 (m = 3) loses derivatives, which amplifies any rounding asymmetry of
        # complex states; on the half spectrum its solution has no imaginary part at all
        grid = GridSpec(L=np.pi, N=256, k=1.0)
        fam, sol = counterexample_family("7.1", 3), closed_form("7.1", 3, U0)
        f1, f2 = sol.initial_data(grid, 1e-3)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=1e-3, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 1e-3, 1.0, 1024), [1.0])
        t, u, v = traj.snapshots[-1]
        assert traj.stats["real"] and t == 1.0
        assert np.max(np.abs(u.imag)) == 0.0 and np.max(np.abs(v.imag)) == 0.0
        exact = np.asarray(sol.u(t, grid.x), dtype=complex)
        assert l2_norm(grid, u - exact) <= 1e-5 * l2_norm(grid, exact)

    def test_rule(self):
        # real states need real data, no forcing and, on Fourier coefficients, a separable a
        # whose m is real and even on the grid
        prob, grid, M, _ = _problem(counterexample_family("7.3"), _PI64, 1e-3, 16)
        fam = prob.family
        g, w, m = fam.separable

        def family(m):
            return separable_family(g, fam.dg, w, zero, m, zero, pair=fam.pair, k=fam.k, p=fam.p,
                                    q=fam.q, r=fam.r, T=fam.T, c0=fam.c0, b1=fam.b1,
                                    spectral_shift=False, x_dependent=False)
        cases = {"real": (prob, True),
                 "rebuilt": (dataclasses.replace(prob, family=family(m)), True),
                 "imaginary-f1": (dataclasses.replace(prob, f1=prob.f1 + 1e-300j), False),
                 "forcing": (dataclasses.replace(prob, forcing=lambda t, x: 0.0 * x), False),
                 "not-separable": (dataclasses.replace(prob, family=dataclasses.replace(
                     fam, separable=None)), False),
                 "m-odd": (dataclasses.replace(prob, family=family(
                     m=lambda xi: m(xi) + 0.5 * np.asarray(xi))), False)}
        for name, (p, real) in cases.items():
            traj = integrate(p, grid, graded_mesh(p.family, 1e-3, 1.0, M), [1.0])
            assert (traj.stats["space"], traj.stats["real"]) == ("fourier", real), name


def _coefficient_ops(x_dependent, lower):
    # a discretization's separable principal part, Op(b) of the lower-order set ``lower``
    # (b1, b2 or both) and the b0 multiplication, with coefficients that vary in t (and in x
    # on grid values), plus a diagonal operator on Fourier coefficients
    grid = GridSpec(L=8.0, N=32, k=2.0)
    c = 1.0 if x_dependent else 0.0
    fam = theorem_coefficient(0.25, 1.25, pair=poly_pair(0.5, 0.5) if x_dependent else None,
                              k=2.0)
    fam = dataclasses.replace(
        fam, b0=lambda t, x: np.sqrt(t) * (1.0 + c * x * x),
        b1=(lambda t, x: np.cos(t * (1.0 + c * x))) if "b1" in lower else None,
        b2=(lambda t, x: 0.5 + np.sin(t * (1.0 - c * x))) if "b2" in lower else None)
    zero = np.zeros(grid.N)
    disc = Discretization(CauchyProblem(family=fam, f1=zero, f2=zero, t_start=0.0, T=1.0), grid)
    ops = [disc.apply_principal, disc.apply_lower, disc.apply_b0]
    if not x_dependent:
        ops.append(symbol_operator(grid, fam, fam.dt_a))
    state = np.random.default_rng(3).standard_normal(grid.N) + 0j
    return ops, state


class TestCoefficientTables:
    @pytest.mark.parametrize("x_dependent", [False, True], ids=["fourier", "physical"])
    @settings(max_examples=50, deadline=1000)
    @given(data=st.data())
    def test_primed_parts_match_single_time(self, x_dependent, data):
        # the parts tabulated over a column of times, repeats included, are bitwise the
        # parts a fresh operator forms at each time alone, for each of the three Op(b) products
        base = data.draw(st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=6))
        ts = data.draw(st.lists(st.sampled_from(base), min_size=1, max_size=12))
        for lower in ("b1", "b2", "b1+b2"):
            ops, u = _coefficient_ops(x_dependent, lower)
            assert [op.path for op in ops[:3]] == ["separable", "coefficient", "coefficient"]
            assert ops[1].width == lower.count("b") * (u.size if x_dependent else 1)
            for op in ops:
                op.prime(np.array(ts))
            for t in ts:
                for op, fresh in zip(ops, _coefficient_ops(x_dependent, lower)[0]):
                    assert op(t, u).tobytes() == fresh(t, u).tobytes(), (lower, op.path, t)


def _unbounded_multiplier_family():
    # a = m(xi) with m finite at the family's own probes (|xi| <= 7) but not at |xi| > 20
    def m(xi):
        xi = np.asarray(xi, dtype=float)
        return np.where(np.abs(xi) > 20.0, np.inf, xi * xi)

    return separable_family(one, zero, one, zero, m, lambda xi: 2.0 * np.asarray(xi),
                            pair=constant_pair(), k=1.0, p=0.0, q=1.25, r=0.0, T=1.0, c0=1.0,
                            spectral_shift=False, x_dependent=False), m


class TestMultiplierChecks:
    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_non_finite_multiplier_raises_at_construction(self, space):
        # the separable m(xi) is checked where it is formed, with the message
        # apply_multiplier gives for the same multiplier
        fam, m = _unbounded_multiplier_family()
        fam = _physical(fam) if space == "physical" else fam
        grid = GridSpec(L=np.pi, N=64, k=1.0)
        z = np.zeros(grid.N, dtype=complex)
        with pytest.raises(OverflowGuardError) as want:
            apply_multiplier(grid, m, z)
        assert str(want.value).startswith("multiplier not finite on the grid")
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        with pytest.raises(OverflowGuardError) as got:
            Discretization(prob, grid)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_multipliers_read_only_and_checked_once(self, monkeypatch, space):
        # every multiplier is checked when its operator is built, and the grid-value path
        # applies exactly those read-only arrays, with no check per application
        formed, applied = [], []
        check, fft_multiply = solver._multiplier_values, solver._fft_multiply
        monkeypatch.setattr(solver, "_multiplier_values",
                            lambda grid, m: formed.append(check(grid, m)) or formed[-1])
        monkeypatch.setattr(solver, "_fft_multiply",
                            lambda m, u: applied.append(m) or fft_multiply(m, u))
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = counterexample_family("7.3", k=4.0)  # b1 present
        fam = _physical(fam) if space == "physical" else fam
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=f1, t_start=0.0, T=1.0)
        disc, ops = Discretization(prob, grid), SystemOperators(prob, grid, lam=0.7)
        # the separable m, i xi of each Op(b), <xi>_k and its inverse
        assert len(formed) == 5
        assert all(not m.flags.writeable and m.shape == (grid.N,) for m in formed)
        y = ops.state(np.array([prob.f1, prob.f2]))
        for t in (0.3, 0.5):
            disc.rhs(t, y)
            ops.apply_M(ops.apply_Minv(y[0]))
        assert len(formed) == 5
        # on grid values: the principal part and Op(b) per rhs, M and M^-1, at two times
        assert len(applied) == (0 if space == "fourier" else 8)
        assert all(any(m is f for f in formed) for m in applied)


class TestGridValuePaths:
    @settings(max_examples=40, deadline=1000)
    @given(N=st.sampled_from([32, 64, 128]), L=st.sampled_from([np.pi, 8.0]),
           k=st.sampled_from([1.0, 4.0]), kappa=st.lists(st.floats(0.05, 1.0), min_size=2,
                                                        max_size=2),
           p=st.floats(0.0, 0.25), amplitude=st.floats(0.0, 1.0), t=st.floats(1e-3, 1.0),
           symbol=st.sampled_from(["a", "defect", "value", "dt", "h.value", "h.dt"]),
           s=st.floats(-2.0, 2.0), c=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 16),
           twice=st.booleans(), eps=st.floats(0.0, 4.0))
    def test_paths_match_dft_matrix_product(self, N, L, k, kappa, p, amplitude, t, symbol, s,
                                            c, seed, twice, eps):
        # the grid-value separable, banded and dense paths of symbol_operator, lower_operator,
        # apply_multiplier, apply_kn of the banded symbol's lattice and loss_operator against
        # the DFT-matrix product, with dx = 2L/N a power of two (L = 8, where the loss band
        # folds over +-x) and not (L = pi); the banded symbol is of the excision or of the
        # re-excision
        grid = GridSpec(L=L, N=N, k=k)
        fam = theorem_coefficient(p, 1.25, amplitude=amplitude, pair=poly_pair(*sorted(kappa)),
                                  k=k)
        fam = dataclasses.replace(fam, b1=lambda tt, x: np.cos(tt * x) / (1.0 + tt),
                                  b2=lambda tt, x: c * tt * np.hypot(1.0, x))
        excised = excise(excise(fam)) if twice else excise(fam)
        root = char_root(excised)
        h = h_symbol(root)
        banded = {"a": excised.a, "defect": excised.defect, "value": root.value, "dt": root.dt,
                  "h.value": h.value, "h.dt": h.dt}[symbol]
        X, XI = grid.x[:, None], grid.xi[None, :]
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        m = bracket(grid.xi, k) ** s + 1j * c * grid.xi_odd
        band = banded(t, X, XI)
        loss = np.exp(eps * (fam.pair.phi(X) * bracket(XI, k)) ** (1.0 / 3.0))
        cases = [
            (symbol_operator(grid, fam), "separable", fam.a(t, X, XI)),
            (symbol_operator(grid, fam, banded), "banded", band),
            (symbol_operator(grid, fam, fam.a), "dense", fam.a(t, X, XI)),
            (lower_operator(grid, fam), "coefficient",
             fam.b1(t, X) * 1j * grid.xi_odd[None, :] + fam.b2(t, X)),
            (lambda tt, w: apply_multiplier(grid, m, w), None, np.broadcast_to(m, (N, N))),
            (lambda tt, w: apply_kn(grid, band, w), None, band),
            (lambda tt, w: loss_operator(grid, fam.pair, eps, 3.0, w), None, loss)]
        for op, path, lattice in cases:
            assert getattr(op, "path", None) == path
            want = dft_matrix_product(grid, lattice, u)
            got = op(t, u)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), path

    @pytest.mark.parametrize("family, symbol, n_terms",
                             [("theorem-poly", "a", 1), ("theorem-poly", "defect", 1),
                              ("theorem-poly", "value", 1), ("example11", "a", 2)])
    def test_equal_weights_share_one_term(self, family, symbol, n_terms):
        # at t = 0.05 on N = 256 the off-blend terms of excised a and tau lie on both sides of
        # the blend, and defect's two on its low side; the theorem family's w is omega^2
        # bitwise, so its terms are summed in xi into one, and Example 1.1's w is not; the
        # product is the one of the terms applied one by one to rounding
        grid = GridSpec(L=8.0, N=256, k=4.0)
        fam = _MODAL_FAMILIES[family]()
        excised = excise(fam)
        sym = {"a": excised.a, "defect": excised.defect, "value": char_root(excised).value}[symbol]
        t = 0.05
        op = symbol_operator(grid, fam, sym)
        band, _, terms = op.part(t)
        form, f = off_blend(sym, grid.x, grid.xi)
        lo, hi = cut_sides(t, f.phi, f.br, form.scale)
        apart = [(w, solver._multiplier_values(grid, np.where(mask, m, 0.0)))
                 for mask, side in ((lo, form.low), (hi, form.high)) if mask.any()
                 for w, m in side(f, t)]
        assert (len(apart), len(terms)) == (2, n_terms)
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        want = solver._kn_fold_product(grid, u, band, apart)
        assert np.max(np.abs(op(t, u) - want)) <= 1e-14 * np.max(np.abs(want))


_DECLARED = {"excised.a": (ExcisedCoefficient, "a"), "defect": (ExcisedCoefficient, "defect"),
             "value": (CharacteristicRoot, "value"), "dt": (CharacteristicRoot, "dt"),
             "h.value": (HSymbol, "value"), "h.dt": (HSymbol, "dt")}


def _column_counting(monkeypatch, name, fam):
    # the declared symbol ``name`` of ``fam``'s excision, its class method wrapped (keeping
    # __wrapped__, as a tracer's wrapper does) to log the number of xi columns and of x rows
    # of each call
    cls, attr = _DECLARED[name]
    orig, widths, heights = getattr(cls, attr), [], []

    def wrapper(self, t, x, xi):
        widths.append(np.shape(xi)[-1])
        heights.append(np.shape(x)[0])
        return orig(self, t, x, xi)

    wrapper.__wrapped__ = orig
    monkeypatch.setattr(cls, attr, wrapper)
    excised = excise(fam)
    root = char_root(excised)
    owner = {ExcisedCoefficient: excised, CharacteristicRoot: root, HSymbol: h_symbol(root)}
    return getattr(owner[cls], attr), widths, heights


def _even_but(factor, pair=None):
    # the theorem family's g with m = <xi>_4^2, w = 1 and ``pair`` (poly_pair(0.5, 0.5)), but
    # with e(x) = 1.25 + 0.25 tanh(x) (>= 1, not even) as ``factor``: "phi", "omega", "w" or
    # None (no factor replaced)
    base = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
    (g, _, _), dg, pair = base.separable, base.dg, pair or base.pair
    odd = (lambda x: 1.25 + 0.25 * np.tanh(x), lambda x: 0.25 / np.cosh(x) ** 2)
    om, dom = odd if factor == "omega" else (pair.omega, pair.domega)
    phi, dphi = odd if factor == "phi" else (pair.phi, pair.dphi)
    w, dw = odd if factor == "w" else (one, zero)
    return separable_family(g, dg, w, dw, lambda xi: bracket(xi, 4.0) ** 2,
                            lambda xi: 2.0 * xi, pair=StructurePair(om, phi, dom, dphi), k=4.0,
                            p=0.0, q=1.25, r=0.0, T=1.0, c0=1.0, spectral_shift=True,
                            x_dependent=True)


class TestEvenFold:
    @pytest.mark.parametrize("name", list(_DECLARED))
    def test_folded_band_is_the_unfolded_one(self, monkeypatch, name):
        # m = <xi>_k^2 is even: the band's lattice is evaluated on one column per +-xi pair
        # (at most ncols // 2 + 1, the Nyquist column its own pair), bitwise the block of the
        # lattice on every band column that it covers, and its product is the unfolded band's
        # to rounding on the scale of max |symbol| max |u|; at t = 0.1 the band of every
        # symbol holds the Nyquist column
        # poly_pair's Phi and omega and the family's w = omega^2 are bitwise even on x, which
        # holds its own negations on L = 8: the lattice is evaluated on rows 0 ... N/2 too
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        sym, widths, heights = _column_counting(monkeypatch, name, fam)
        lattices = []

        def kn_fold(grid, lattice, *args, _fold=solver.kn_fold):
            lattices.append(lattice)
            return _fold(grid, lattice, *args)
        monkeypatch.setattr(solver, "kn_fold", kn_fold)
        f = off_blend(sym, grid.x, grid.xi)[1]
        assert f.even and f.even_x
        op = symbol_operator(grid, fam, sym)
        assert op.path == "banded"
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        for t in (0.05, 0.1, 0.3):
            del widths[:], heights[:], lattices[:]
            band, cols, terms = op.part(t)
            if t == 0.1:
                assert grid.N // 2 in cols
            assert len(widths) == (cols.size > 0) and all(w <= cols.size // 2 + 1 for w in widths)
            assert heights == ([grid.N // 2 + 1] if cols.size else [])
            lattice = sym(t, grid.x[:, None], grid.xi[cols][None, :])
            assert len(lattices) == (cols.size > 0) and all(
                np.array_equal(got, lattice[:grid.N // 2 + 1, :got.shape[1]]) for got in lattices)
            # the band's lattice on its columns, and the terms' w(x) m(xi) (0 there) elsewhere
            whole = sum((np.multiply.outer(w, m) for w, m in terms),
                        np.zeros((grid.N, grid.N), complex))
            whole[:, cols] += lattice
            want = dft_matrix_product(grid, whole, u)
            full = sym(t, grid.x[:, None], grid.xi[None, :])
            scale = np.max(np.abs(full)) * np.max(np.abs(u))
            assert np.max(np.abs(op(t, u) - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", list(_DECLARED))
    def test_odd_multiplier_keeps_the_unfolded_band(self, monkeypatch, name):
        # m = <xi>_k^2 + xi / 2 (>= 0 for k >= 1) is not even: every band column is evaluated,
        # and the product still matches the DFT-matrix product
        grid = GridSpec(L=8.0, N=64, k=4.0)
        base = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        (g, _, _), dg = base.separable, base.dg
        fam = separable_family(g, dg, one, zero, lambda xi: bracket(xi, 4.0) ** 2 + 0.5 * xi,
                               lambda xi: 2.0 * xi + 0.5, pair=base.pair, k=4.0, p=0.0,
                               q=1.25, r=0.0, T=1.0, c0=1.0, spectral_shift=True,
                               x_dependent=True)
        # (its rows still fold: poly_pair and w = 1 are even)
        sym, widths, heights = _column_counting(monkeypatch, name, fam)
        f = off_blend(sym, grid.x, grid.xi)[1]
        assert not f.even and f.even_x
        op = symbol_operator(grid, fam, sym)
        assert op.path == "banded"
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        for t in (0.05, 0.1, 0.3):
            del widths[:], heights[:]
            got = op(t, u)
            cols = op.part(t)[1]
            assert widths == ([cols.size] if cols.size else [])
            assert heights == ([grid.N // 2 + 1] if cols.size else [])
            want = dft_matrix_product(grid, sym(t, grid.x[:, None], grid.xi[None, :]), u)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def _every_row(monkeypatch, name, grid, fam):
        # the band of ``fam``'s declared symbol ``name`` on an even m: one column per +-xi
        # pair, but every row evaluated, and the product matches the DFT-matrix product to
        # rounding on the scale of max |symbol| max |u|
        sym, widths, heights = _column_counting(monkeypatch, name, fam)
        f = off_blend(sym, grid.x, grid.xi)[1]
        assert f.even and not f.even_x
        op = symbol_operator(grid, fam, sym)
        assert op.path == "banded"
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        for t in (0.05, 0.1, 0.3):
            del widths[:], heights[:]
            got = op(t, u)
            cols = op.part(t)[1]
            assert heights == ([grid.N] if cols.size else [])
            assert all(w <= cols.size // 2 + 1 for w in widths)
            lattice = sym(t, grid.x[:, None], grid.xi[None, :])
            want = dft_matrix_product(grid, lattice, u)
            scale = np.max(np.abs(lattice)) * np.max(np.abs(u))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", list(_DECLARED))
    def test_non_negating_grid_keeps_every_row(self, monkeypatch, name):
        # on L = pi, x[1:] is not exactly -x[:0:-1]: every row is evaluated, even though
        # the constant pair and w = 1 are bitwise even on it
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        assert not np.array_equal(grid.x[1:], -grid.x[:0:-1])
        self._every_row(monkeypatch, name, grid, _even_but(None, constant_pair()))

    @pytest.mark.parametrize("factor", ["phi", "omega", "w"])
    @pytest.mark.parametrize("name", list(_DECLARED))
    def test_odd_factor_keeps_every_row(self, monkeypatch, name, factor):
        # Phi, omega or w with an odd part (the other two even) on L = 8, where x holds its
        # own negations: every row is evaluated
        grid = GridSpec(L=8.0, N=64, k=4.0)
        assert np.array_equal(grid.x[1:], -grid.x[:0:-1])
        self._every_row(monkeypatch, name, grid, _even_but(factor))


def _exact_phase_rows(N):
    # row j -> exp(i xi_j x_n) for every n (j in FFT layout, the grid's x exact), independent
    # of the library: xi_j x_n = pi (2 j n - j N) / N, for j and for j - N alike, is reduced
    # over the integers into [0, 2 pi), and the 2N angles are evaluated in extended precision
    theta = (4.0 * np.arctan(np.longdouble(1.0)) / N) * np.arange(2 * N)
    phases, n = np.cos(theta).astype(float) + 1j * np.sin(theta).astype(float), np.arange(N)
    return lambda j: phases[(2 * j * n - j * N) % (2 * N)]


class TestExcisionSolve:
    def test_banded_principal_part_once_per_stage_time(self, monkeypatch):
        # the excised x-dependent principal part forms its band product at most once
        # per stage time (RK4 stages 2 and 3 share one), and over far fewer than N
        # lattice columns per time
        counts = {"kn_fold": 0, "_rk4_step": 0, "dft_forward": 0, "dft_inverse": 0}
        for name in counts:
            _counting(monkeypatch, counts, solver, name)
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0,
                             use_excision=True)
        mesh = graded_mesh(fam, 0.0, 1.0, 256)
        traj = integrate(prob, grid, mesh, [0.5, 1.0])
        assert traj.stats["halvings"] == 0 and traj.stats["operator"] == "banded"
        assert 0 < counts["kn_fold"] <= 3 * counts["_rk4_step"]
        # the band and each multiplier term share one raw FFT, with no DFT call
        assert counts["dft_forward"] == counts["dft_inverse"] == 0
        assert 0 < traj.stats["lattice_evals"] <= min(counts["kn_fold"],
                                                      2 * counts["_rk4_step"] + 1)
        t0, dt = mesh.nodes[:-1], np.diff(mesh.nodes)
        stage_times = np.unique(np.concatenate([t0, t0 + 0.5 * dt, t0 + dt]))
        assert 0 < traj.stats["lattice_columns"] < grid.N * stage_times.size

    def test_no_phase_matrix(self):
        # an excised solve applies its bands on one cached (cos, sin) table of xi_j x_i,
        # xi_j >= 0, with no N x N exp(i xi_j x_i); the table is that phase to 1e-15, as its
        # argument is reduced exactly (cos and sin of the rounded products xi_j * x_i, which
        # reach N pi / 2, are off by 2.8e-13 at N = 1024), on a grid that holds its own
        # negations (L = 8) and on one that does not (L = pi); (cos, -sin) of its row j is
        # the -xi_j row to the same bound, and bitwise what an unfolded band applies on its
        # -xi columns
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0,
                             use_excision=True)
        _kn_trig.cache_clear()
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), [0.5, 1.0])
        assert traj.stats["operator"] == "banded" and traj.stats["lattice_evals"] > 0
        assert _kn_trig.cache_info().currsize == 1
        for g in (grid, GridSpec(L=np.pi, N=64, k=4.0), GridSpec(L=8.0, N=1024, k=4.0),
                  GridSpec(L=8.0, N=2048, k=4.0)):
            N, half = g.N, g.N // 2 + 1
            cos, sin = _kn_trig(g, N)
            assert np.array_equal(_kn_trig(g, half), _kn_trig(g, N)[:, :, :half])
            row = _exact_phase_rows(N)
            err = max(np.max(np.abs(cos[min(j, N - j)] + 1j * np.sign(half - 0.5 - j)
                                    * sin[min(j, N - j)] - row(j))) for j in range(N))
            assert err <= 1e-15, (N, err)
            if N == 64:
                K, (plus, minus) = kn_fold(g, np.ones((N, N)), np.arange(N), False, False)
                # P = F_j, Q = -F_j on a -xi_j column: F_j (cos - i sin) of row N - j
                assert np.array_equal(K[:, half:], np.stack((cos, sin))[:, half - 2:0:-1])
                assert np.array_equal(plus[half:], np.full(N - half, N))
                assert np.array_equal(minus[half:], np.arange(half, N))
        _kn_trig.cache_clear()

    def test_excised_operator_is_not_local(self):
        # excised_dense's family and seed-1 data on L = 8: one application of Op(atilde) at
        # t = 0.05 already puts 6.8e-5 of its peak beyond |x| = 3L/4, where the torus model
        # is meant to stay clean, while Op(a) (the dense product) is at rounding there
        grid = GridSpec(L=8.0, N=256, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        u = random_trig_poly(8, seed=1)(grid.x) * GaussianBump(0.0, 0.45)(grid.x)
        far = np.abs(grid.x) >= 0.75 * grid.L

        def edge_mass(sym):
            w = symbol_operator(grid, fam, sym)(0.05, u)
            return np.max(np.abs(w[far])) / np.max(np.abs(w))

        assert 3e-5 <= edge_mass(excise(fam).a) <= 1.5e-4
        assert edge_mass(fam.a) < 1e-12

    def test_counters_locate_halvings(self, monkeypatch):
        # a coarse mesh halves the later steps: halving_steps names each one with its
        # level, and the lattice is still formed at most twice per substep plus once
        counts = {"_rk4_step": 0}
        _counting(monkeypatch, counts, solver, "_rk4_step")
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0,
                             use_excision=True)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 32), [1.0])
        levels = traj.stats["halving_steps"]
        assert traj.stats["halvings"] == sum(levels.values()) > 0
        assert counts["_rk4_step"] == 32 + sum(2 ** lv - 1 for lv in levels.values())
        assert traj.stats["substeps"] == counts["_rk4_step"]
        assert all(isinstance(j, int) and 0 <= j < 32 and lv >= 1 for j, lv in levels.items())
        assert 0 < traj.stats["lattice_evals"] <= 2 * counts["_rk4_step"] + 1

    @pytest.mark.parametrize("symbol", ["excised.a", "h.value"])
    @pytest.mark.parametrize("edge", [1.0, 2.0])
    def test_banded_at_window_edge(self, symbol, edge):
        # t with t * Phi_max * <xi>_j / scale == 1.0 exactly (the column is on the low side)
        # or t * Phi_min * <xi>_j / scale == 2.0 exactly (on the high side), for some column
        # j: the banded product still matches the dense KN product
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        excised = excise(fam)
        sym = {"excised.a": excised.a, "h.value": h_symbol(char_root(excised)).value}[symbol]
        form, f = off_blend(sym, grid.x, grid.xi)
        scale, phi, br = form.scale, f.phi, f.br
        ext = np.max(phi) if edge == 1.0 else np.min(phi)

        def at_edge(j):
            t = edge * scale / (ext * br[j])
            for _ in range(64):
                s = t * ext * br[j] / scale
                if s == edge:
                    return t
                t = np.nextafter(t, -np.inf if s > edge else np.inf)
            return None

        j, t = next((j, t) for j in np.argsort(-br) if (t := at_edge(j)) is not None)
        lo, hi = cut_sides(t, phi, br, scale)
        assert (lo if edge == 1.0 else hi)[j] and 0.0 < t < 1.0
        op = symbol_operator(grid, fam, sym)
        assert op.path == "banded"
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        want = dft_matrix_product(grid, sym(t, grid.x[:, None], grid.xi[None, :]), u)
        assert np.max(np.abs(op(t, u) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_wrapped_method_keeps_its_declaration(self, monkeypatch):
        # a plain wrapper on the class that keeps only __wrapped__ (no attributes, no name),
        # as a tracer's does, leaves the declared form readable and the path banded
        orig = ExcisedCoefficient.a

        def wrapper(*args):
            return orig(*args)

        wrapper.__wrapped__ = orig
        monkeypatch.setattr(ExcisedCoefficient, "a", wrapper)
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
        sym = excise(fam).a
        op = symbol_operator(grid, fam, sym)
        assert op.path == "banded"
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        want = dft_matrix_product(grid, sym(0.05, grid.x[:, None], grid.xi[None, :]), u)
        assert np.max(np.abs(op(0.05, u) - want)) <= 1e-12 * np.max(np.abs(want))

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


# the symbol operators of SystemOperators
_SYMBOL_OPERATORS = ("apply_tau", "apply_dt_tau", "apply_H", "apply_dtH", "apply_defect",
                     "apply_excised")

# (family, t_start, use_excision) of multiplier families for the system machinery
SYSTEM_CASES = {
    "reference": lambda: (reference_wave(k=4.0), 0.0, False),
    **{f"7.1-m{m}": lambda m=m: (counterexample_family("7.1", m, k=4.0), 1e-3, False)
       for m in (0, 3)},
    **{ex: lambda ex=ex: (counterexample_family(ex, k=4.0), 0.0 if ex == "7.3" else 1e-3, False)
       for ex in ("7.2", "7.3", "7.4")},
    "excised-theorem": lambda: (theorem_coefficient(0.0, 1.25, k=4.0), 0.0, True),
}


def _two_pass_residual(traj, problem, grid, lam=0.0):
    # the reference system_residual: every snapshot reduced first, then system_rhs applied
    # at the interior ones, with the same tables of parts over chunks of snapshot times
    ops = SystemOperators(problem, grid, lam=lam)
    times = traj.times
    per = ops.times_per_table
    reduced = []
    for i, (t, u, v) in enumerate(traj.snapshots):
        if i % per == 0:
            for op in (ops.apply_tau, ops.apply_H):
                op.prime(times[i:i + per])
        reduced.append(ops.reduce(float(t), ops.state(u), ops.state(v)))
    worst = 0.0
    for i in range(1, len(reduced) - 1):
        if (i - 1) % per == 0:
            ops.prime(times[i:min(i + per, len(reduced) - 1)])
        h1 = times[i] - times[i - 1]
        h2 = times[i + 1] - times[i]
        denom = h1 * h2 * (h1 + h2)
        dU = [(h1 * h1 * up - h2 * h2 * um - (h1 * h1 - h2 * h2) * u0) / denom
              for um, u0, up in zip(reduced[i - 1], reduced[i], reduced[i + 1])]
        r1, r2 = ops.system_rhs(float(times[i]), reduced[i][0], reduced[i][1])
        res = np.sqrt(l2_norm(grid, dU[0] - r1) ** 2 + l2_norm(grid, dU[1] - r2) ** 2)
        scale = np.sqrt(l2_norm(grid, reduced[i][0]) ** 2 + l2_norm(grid, reduced[i][1]) ** 2)
        if scale > 0.0:
            worst = max(worst, res / scale)
    return worst


def _theorem_poly_problem(grid):
    # the x-dependent family whose tau and H are banded on grid values
    fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)
    f1 = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
    return CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)


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

    def test_grid_must_match_problem_and_trajectory(self):
        # the first-order system checks N and k as the integrator does, with its message,
        # and system_residual takes the trajectory's own grid only
        fam = reference_wave(k=4.0)
        p = random_trig_poly(8, seed=1)
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        u, v = np.asarray(p(grid.x), dtype=complex), np.asarray(p(grid.x, 1), dtype=complex)
        prob = CauchyProblem(family=fam, f1=u, f2=v, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 256), np.linspace(0.25, 1.0, 9))
        assert np.isfinite(system_residual(traj, prob, grid))
        for bad, match in ((GridSpec(L=np.pi, N=64, k=1.0), "family.k=4.0 does not match"),
                           (GridSpec(L=np.pi, N=32, k=4.0), "f1 does not match grid size 32")):
            for build in (Discretization, SystemOperators,
                          lambda prob, grid: reduce_to_system(0.5, u, v, prob, grid)):
                with pytest.raises(ValueError, match=match):
                    build(prob, bad)
        for other in (GridSpec(L=np.pi, N=64, k=1.0), GridSpec(L=8.0, N=64, k=4.0)):
            with pytest.raises(ValueError, match="the trajectory's grid"):
                system_residual(traj, prob, other)

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

    def test_system_rhs_evaluates_each_symbol_once(self, monkeypatch):
        # on a multiplier family every operator is diagonal: one system_rhs evaluates
        # each of its six symbols once, however often it applies the operator
        counts = []

        def counting(grid, fam, symbol=None, space=None, _make=solver.symbol_operator):
            i = len(counts)
            counts.append(0)

            def counted(t, x, xi):
                counts[i] += 1
                return symbol(t, x, xi)
            return _make(grid, fam, counted, space)

        monkeypatch.setattr(solver, "symbol_operator", counting)
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        prob, _, _, _ = _problem(counterexample_family("7.3", k=4.0), grid, 0.0, 256)
        ops = SystemOperators(prob, grid, lam=0.7)
        u1, u2 = ops.reduce(0.5, ops.state(prob.f1), ops.state(prob.f2))
        counts[:] = [0] * len(counts)
        ops.system_rhs(0.3, u1, u2)
        assert counts == [1] * 6

    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_one_state_space_per_operator_set(self, monkeypatch, space):
        # every operator of a Discretization (excised or not) or of a SystemOperators is
        # built on the one state space it makes
        calls = []
        make = solver._state_space
        monkeypatch.setattr(solver, "_state_space",
                            lambda *args: calls.append(args) or make(*args))
        if space == "fourier":
            grid = GridSpec(L=np.pi, N=64, k=4.0)
            prob = _problem(counterexample_family("7.1", 3, k=4.0), grid, 1e-3, 64)[0]
        else:
            grid = GridSpec(L=8.0, N=64, k=4.0)
            prob = _theorem_poly_problem(grid)
        excised = dataclasses.replace(prob, use_excision=True)
        for build in (lambda: Discretization(prob, grid), lambda: Discretization(excised, grid),
                      lambda: SystemOperators(prob, grid)):
            calls.clear()
            assert build().space.name == space and len(calls) == 1

    def test_residual_transforms_each_snapshot_once(self, monkeypatch):
        grid = GridSpec(L=np.pi, N=64, k=4.0)
        prob, _, M, _ = _problem(counterexample_family("7.3", k=4.0), grid, 0.0, 256)
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, M),
                         np.linspace(0.25, 1.0, 9))
        counts = dict.fromkeys(("dft_forward", "dft_inverse", "_fft_multiply"), 0)
        for name in list(counts):
            _counting(monkeypatch, counts, solver, name)
        system_residual(traj, prob, grid)
        assert counts["dft_forward"] + counts["dft_inverse"] <= 2 * len(traj.snapshots)
        assert counts["_fft_multiply"] == 0

    @pytest.mark.parametrize("table_times", [768, 4])
    @pytest.mark.parametrize("space", ["fourier", "physical"])
    def test_one_pass_residual_matches_two_pass(self, monkeypatch, space, table_times):
        # with 4-time tables the 9 snapshots fall in chunks of 4, 4 and 1: the last chunk
        # starts at the last snapshot, which system_rhs does not read
        monkeypatch.setattr(solver, "_TABLE_TIMES", table_times)
        grid = GridSpec(L=np.pi if space == "fourier" else 8.0, N=64, k=4.0)
        if space == "fourier":
            prob = _problem(counterexample_family("7.3", k=4.0), grid, 0.0, 256)[0]
        else:
            prob = _theorem_poly_problem(grid)
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, 256),
                         np.linspace(0.0, 1.0, 9))
        ops = SystemOperators(prob, grid)
        assert ops.space.name == space and len(traj.snapshots) == 9
        assert ops.times_per_table == 4 if table_times == 4 else ops.times_per_table >= 9
        for lam in (0.0, 0.7):
            want = _two_pass_residual(traj, prob, grid, lam=lam)
            assert want > 0.0 and system_residual(traj, prob, grid, lam=lam) == want

    def test_residual_forms_each_band_once_per_snapshot(self, monkeypatch):
        # on grid values reduce and system_rhs at one snapshot share the banded tau and H
        # lattices formed at its time
        made, formed = [], {}  # the SystemOperators built; each operator's lattice times

        def record(op):
            parts = op._parts

            def recorded(t):
                part, n = parts(t)
                formed[op] += [t] * (n > 0)
                return part, n
            formed[op], op._parts = [], recorded

        class Recorded(SystemOperators):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)
                for op in self._ops:
                    record(op)

        monkeypatch.setattr(solver, "SystemOperators", Recorded)
        grid = GridSpec(L=8.0, N=64, k=4.0)
        prob = _theorem_poly_problem(grid)
        traj = integrate(prob, grid, graded_mesh(prob.family, 0.0, 1.0, 64),
                         np.linspace(0.0, 1.0, 9))
        system_residual(traj, prob, grid)
        (ops,) = made
        assert ops.apply_tau.path == ops.apply_H.path == "banded"
        assert formed[ops.apply_tau] and formed[ops.apply_H]
        for op in ops._ops:
            assert len(set(formed[op])) == len(formed[op]) == op.lattice_evals
            assert set(formed[op]) <= set(traj.times.tolist())

    def test_zero_trajectory_residual_zero(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(k=2.0)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64),
                         np.linspace(0.2, 1.0, 5))
        assert system_residual(traj, prob, grid) == 0.0

    @pytest.mark.parametrize("name, t", [
        ("reference", 0.7), ("theorem", 0.05), ("theorem", 0.7), ("theorem-poly", 0.05),
        ("theorem-poly", 0.7),
        *[(name, t) for name in ("theorem-poly", "example") for t in (0.0, 0.02, 0.05, 0.3, 0.9)
          if (name, t) != ("theorem-poly", 0.05)],
        ("theorem-poly-N1024", 0.05)])
    def test_operator_paths_match_dense_kn(self, name, t):
        # every path symbol_operator picks (separable, diagonal, banded, dense), and the
        # solver's principal part with and without excision, against the DFT-matrix
        # product on grid values.  With k = 4 and L = 8: at t = 0 every column has
        # cut = 1, t = 0.02 and 0.05 are inside the blend window, at t = 0.9 the
        # excised symbols' band is empty; "example" has w != omega^2 and m = xi^2,
        # which vanishes at xi = 0
        grid = GridSpec(L=8.0, N=1024 if name.endswith("N1024") else 64, k=4.0)
        poly = poly_pair(0.5, 0.5)
        fam = {"reference": lambda: reference_wave(k=4.0),
               "theorem": lambda: theorem_coefficient(0.0, 1.25, k=4.0),
               "theorem-poly": lambda: theorem_coefficient(0.0, 1.25, pair=poly, k=4.0),
               "example": lambda: example_coefficient(0.5, 0.5, k=4.0)}[name.split("-N")[0]]()
        u = GaussianBump(0.0, 0.45)(grid.x) * _band_field(grid)
        excised = excise(fam)
        root = char_root(excised)
        h = h_symbol(root)

        disc = Discretization(CauchyProblem(family=fam, f1=u, f2=u, t_start=0.0, T=1.0), grid)

        def check(op, symbol):
            # operators act on the family's states: Fourier coefficients on a multiplier
            # family; banded operators meet the tighter relative bound,
            try:
                lattice = symbol(t, grid.x[:, None], grid.xi[None, :])
            except RuntimeWarning:  # a, defect undefined at t = 0
                error = RuntimeWarning
            else:
                error = None if np.all(np.isfinite(lattice)) else OverflowGuardError
            if error is not None:
                with pytest.raises(error):
                    op(t, disc.state(u))
                return
            want = dft_matrix_product(grid, lattice, u)
            got = disc.field(op(t, disc.state(u)))
            # or, where larger, 4 ulps of max |symbol| max |u|: no double product is closer
            # to an independent one where |Op(a) u| is that much smaller (H, tau_t and the
            # re-excised defect at t = 0.05 on N = 1024 are 1e-16 to 5e-5 of it)
            tol = 1e-12 if op.path == "banded" else 1e-10
            bound = max(tol * np.max(np.abs(want)),
                        4 * np.finfo(float).eps * np.max(np.abs(lattice)) * np.max(np.abs(u)))
            assert np.max(np.abs(got - want)) <= bound, (op.path, symbol)

        check(symbol_operator(grid, fam), fam.a)
        for symbol in (fam.a, root.value, root.dt, h.value, h.dt, excised.defect, excised.a):
            op = symbol_operator(grid, fam, symbol)
            assert op.path == ("diagonal" if fam.is_multiplier
                               else "dense" if symbol == fam.a else "banded")
            check(op, symbol)
        # re-excision is the identity off the blend: the re-excised symbols declare the
        # innermost family's forms and take the banded path; a lambda declares none
        twice = excise(excised)
        root2 = char_root(twice)
        h2 = h_symbol(root2)
        for symbol in (twice.a, twice.defect, root2.value, root2.dt, h2.value, h2.dt):
            op = symbol_operator(grid, fam, symbol)
            assert op.path == ("diagonal" if fam.is_multiplier else "banded")
            check(op, symbol)
        wrapped = lambda t, x, xi: excised.a(t, x, xi)  # noqa: E731
        op = symbol_operator(grid, fam, wrapped)
        assert op.path == ("diagonal" if fam.is_multiplier else "dense")
        check(op, wrapped)
        if not fam.is_multiplier:  # re-excised under another cutoff: not the identity off it
            other = dataclasses.replace(twice, pair=poly_pair(0.5, 1.0))
            op = symbol_operator(grid, fam, other.a)
            assert op.path == "dense"
            check(op, other.a)
        for use_excision, symbol in ((False, fam.a), (True, excised.a)):
            prob = CauchyProblem(family=fam, f1=u, f2=u, t_start=0.0, T=1.0,
                                 use_excision=use_excision)
            check(Discretization(prob, grid).apply_principal, symbol)

    @staticmethod
    def _composed_system_rhs(ops, t, u1, u2):
        # the system right-hand side composed block by block from the operators, with
        # each block (B2 too) applied as its own operator: every product it shares with
        # other blocks is recomputed
        tau, H, M, Minv, b0 = ops.apply_tau, ops.apply_H, ops.apply_M, ops.apply_Minv, ops.apply_b0

        def B0(u):
            return ops.apply_defect(t, Minv(u))

        def B1(u):
            w = Minv(u)
            out = -1j * ops.apply_dt_tau(t, w) + ops.apply_excised(t, w) - tau(t, tau(t, w))
            return out if ops.apply_lower is None else out + ops.apply_lower(t, w)

        def B3(u):
            return np.zeros_like(u) if b0 is None else b0(t, u - 1j * ops.lam * Minv(H(t, u)))

        def B4(u):
            return np.zeros_like(u) if b0 is None else 1j * ops.lam * b0(t, Minv(u))

        def comm(u):
            w = Minv(u)
            return 1j * (M(tau(t, w)) - tau(t, M(w)))

        def B2(u):
            hu = H(t, u)
            out = 2j * H(t, tau(t, u)) - M(u)
            out = out + comm(hu)
            out = out + 1j * (tau(t, hu) - H(t, tau(t, u)))
            out = out - H(t, B1(hu))
            return out + ops.apply_dtH(t, u)

        hu1 = H(t, u1)
        b0h, b0u2 = B0(hu1), B0(u2)
        a0_1 = b0h + b0u2
        a0_2 = -H(t, b0h) + H(t, b0u2)
        b1h, b1u2, b4u2 = B1(hu1), B1(u2), B4(u2)
        a1_1 = b1h + B3(u1) + b1u2 + b4u2
        a1_2 = B2(u1) - H(t, B3(u1)) + comm(u2) - H(t, b1u2 + b4u2)
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

        calls, inverses = [], []
        for name in _SYMBOL_OPERATORS:
            monkeypatch.setattr(ops, name, lambda t, u, op=getattr(ops, name):
                                calls.append(1) or op(t, u))
        monkeypatch.setattr(ops, "apply_Minv", lambda u, op=ops.apply_Minv:
                            inverses.append(1) or op(u))
        got = ops.system_rhs(t, u1, u2)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the composition above makes 33 operator applications and 6 of M^-1, 36 and 8
        # with b0 and forcing; without b0 no H B3 term is formed
        assert len(calls) == 22 + b0 + forced
        assert len(inverses) == 2
