"""Counterexample oracles, loss slopes, cones, energy monitoring, lambda fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singhyp.quantize import GridSpec
from singhyp.solver import CauchyProblem, graded_mesh, integrate
from singhyp.structure import constant_pair, make_profile, poly_pair
from singhyp.symbols import SampleLattice, free_wave, graded_lattice, theorem_coefficient
from singhyp.analysis import (BandError, ConeSpec, GaussianBump, LambdaFitError, TrigPoly,
                              _denoise, closed_form, cone_check, counterexample_coefficients,
                              counterexample_family, drift_argument, energy_monitor,
                              falling_factorial, fit_lambda, loss_slope, propagation_speed,
                              random_trig_poly, residual_check, support_radius)


class TestFallingFactorial:
    def test_base_cases(self):
        assert falling_factorial(3.7, 0) == 1.0
        assert falling_factorial(-0.5, 2) == pytest.approx(0.75)
        assert falling_factorial(2.0, 2) == pytest.approx(2.0)

    @given(y=st.floats(-5, 5), j=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, y, j):
        assert falling_factorial(y, j + 1) == pytest.approx(
            falling_factorial(y, j) * (y - j), rel=1e-12, abs=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            falling_factorial(1.0, -1)


class TestCounterexampleCoefficients:
    def test_m2_published_values(self):
        assert counterexample_coefficients(2) == pytest.approx([1.0, 8.0, 16.0 / 3.0])

    def test_m0_and_m1(self):
        assert counterexample_coefficients(0) == [1.0]
        assert counterexample_coefficients(1) == pytest.approx([1.0, 4.0])

    def test_initial_slope_consistency(self):
        # ut(0) = (4m+1) u0' forces C_1 = 4m for every m
        for m in range(0, 6):
            c = counterexample_coefficients(m)
            c1 = c[1] if m >= 1 else 0.0
            assert c1 == pytest.approx(4.0 * m)


class TestClosedForms:
    grid = GridSpec(L=np.pi, N=512, k=1.0)
    u0 = random_trig_poly(8, seed=42)

    def test_finite_loss_initial_data(self):
        for m in (0, 1, 2, 3):
            sol = closed_form("7.1", m, self.u0)
            f1, f2 = sol.initial_data(self.grid, 0.0)
            assert np.allclose(f1, self.u0(self.grid.x), atol=1e-14)
            assert np.allclose(f2, (4 * m + 1) * self.u0(self.grid.x, 1), atol=1e-12)

    def test_nonuniqueness_zero_data(self):
        sol = closed_form("7.4", 0, self.u0)
        f1, f2 = sol.initial_data(self.grid, 0.0)
        assert np.max(np.abs(f1)) == 0.0 and np.max(np.abs(f2)) == 0.0
        assert np.max(np.abs(sol.u(1.0, self.grid.x))) > 0.1

    def test_drift_argument(self):
        assert drift_argument(0.0) == 0.0
        ts = np.linspace(0.05, 2.0, 23)
        fd = (drift_argument(ts + 1e-6) - drift_argument(ts - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - (2.0 + np.sin(np.sqrt(ts))))) <= 1e-6

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            closed_form("9.9", 0, self.u0)

    @pytest.mark.parametrize("ex,m", [("7.1", 0), ("7.1", 1), ("7.1", 2), ("7.1", 3),
                                      ("7.2", 0), ("7.3", 0), ("7.4", 0)])
    def test_residuals_certify_formulas(self, ex, m):
        assert residual_check(ex, m, self.u0, self.grid) < 1e-6

    def test_residual_trivial_translation(self):
        # m = 0 collapses the sum to a pure translation
        r = residual_check("7.1", 0, self.u0, self.grid)
        assert r < 1e-6

    def test_residual_rejects_t_zero(self):
        with pytest.raises(ValueError):
            residual_check("7.2", 0, self.u0, self.grid, t_grid=[0.0, 0.5])

    @pytest.mark.parametrize("ex", ["7.1", "7.3"])
    def test_residual_rejects_zero_closed_form(self, ex):
        # zero data give a zero closed form, whose residual 0 / peak would certify nothing
        with pytest.raises(ValueError, match="identically zero"):
            residual_check(ex, 0, TrigPoly({}), self.grid)


class TestAnalyticProfiles:
    def test_trig_poly_derivatives_exact(self):
        tp = TrigPoly({1: 1.0 + 0j, 3: 0.5j})
        y = np.linspace(-2, 2, 41)
        h = 1e-6
        fd = (tp(y + h) - tp(y - h)) / (2 * h)
        assert np.max(np.abs(fd - tp(y, 1))) <= 1e-7

    def test_gaussian_derivatives_match_fd(self):
        g = GaussianBump(0.3, 0.5)
        y = np.linspace(-1, 2, 31)
        h = 1e-6
        for order in (1, 2, 3):
            fd = (g(y + h, order - 1) - g(y - h, order - 1)) / (2 * h)
            assert np.max(np.abs(fd - g(y, order))) <= 1e-6 * np.max(np.abs(g(y, order)) + 1)

    def test_trig_poly_rejects_dc_mode(self):
        with pytest.raises(ValueError):
            TrigPoly({0: 1.0})


class TestLossSlope:
    grid = GridSpec(L=np.pi, N=1024, k=1.0)
    u0 = GaussianBump(0.0, 0.04)

    def test_translation_has_zero_slope(self):
        s = loss_slope(self.grid, self.u0(self.grid.x + 0.3), self.u0(self.grid.x))
        assert abs(s) <= 0.05

    def test_derivative_has_unit_slope(self):
        s = loss_slope(self.grid, self.u0(self.grid.x, 1), self.u0(self.grid.x))
        assert abs(s - 1.0) <= 0.05

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_finite_loss_slope(self, m):
        sol = closed_form("7.1", m, self.u0)
        s = loss_slope(self.grid, sol.u(1.0, self.grid.x), self.u0(self.grid.x))
        assert abs(s - m) <= 0.2

    @pytest.mark.parametrize("ex", ["7.2", "7.3"])
    def test_no_loss_examples(self, ex):
        sol = closed_form(ex, 0, self.u0)
        s = loss_slope(self.grid, sol.u(1.0, self.grid.x), self.u0(self.grid.x))
        assert abs(s) <= 0.05

    def test_band_errors(self):
        with pytest.raises(BandError):
            loss_slope(self.grid, self.u0(self.grid.x), self.u0(self.grid.x),
                       band=(500, 510))
        narrow = random_trig_poly(4, seed=1)  # spectrum empty on the band
        with pytest.raises(BandError):
            loss_slope(self.grid, np.asarray(narrow(self.grid.x)),
                       np.asarray(narrow(self.grid.x)))


class TestPropagationSpeed:
    grid = GridSpec(L=8.0, N=256, k=1.0)

    def test_constant_wave(self):
        assert propagation_speed(free_wave(1.0), self.grid, [0.5]) == pytest.approx(1.0)

    def test_oscillating_speed_sup(self):
        fam = counterexample_family("7.3", T=3.0)
        c = propagation_speed(fam, self.grid, np.linspace(1e-4, 3.0, 30001))
        assert c == pytest.approx(3.0, abs=1e-3)

    def test_chunks_match_per_sample_loop(self):
        # criterion 4's inputs: the chunked evaluation gives the per-sample c* to the bit
        grid = GridSpec(L=12.0, N=1024, k=1.0)
        fam = counterexample_family("7.3", k=1.0, T=3.0)
        ts = np.linspace(1e-4, 3.0, 30001)
        om = np.asarray(fam.pair.omega(grid.x), dtype=float)
        want = max(float(np.max(np.sqrt(np.abs(fam.a(t, grid.x, 1.0))) / om))
                   * float(t) ** (fam.p / 2.0) for t in ts)
        assert propagation_speed(fam, grid, ts) == want

    def test_weight_cancels(self):
        pair = poly_pair(0.5, 0.5)
        fam = free_wave(2.0)
        fam = fam.__class__(**{**fam.__dict__, "separable": None,
                               "a": lambda t, x, xi: 4.0 * np.asarray(pair.omega(x)) ** 2
                               * np.asarray(xi) ** 2,
                               "pair": pair, "x_dependent": True})
        assert propagation_speed(fam, self.grid, [0.3]) == pytest.approx(2.0, rel=1e-12)


class TestConeCheck:
    def test_zero_solution_trivially_passes(self):
        grid = GridSpec(L=8.0, N=128, k=1.0)
        fam = free_wave(1.0, T=1.5)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.5)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 128),
                         np.linspace(0, 1, 5))
        rep = cone_check(traj, ConeSpec(0.0, 1.0, 1.0, constant_pair()))
        assert rep.passed

    def test_gaussian_bump_speed_bound(self):
        grid = GridSpec(L=12.0, N=512, k=1.0)
        fam = free_wave(1.0, T=2.5)
        bump = GaussianBump(0.0, 0.3)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=2.5)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 2.0, 512),
                         np.linspace(0, 2, 9))
        rep = cone_check(traj, ConeSpec(0.0, 1.0, 1.0, constant_pair()))
        assert rep.valid and rep.passed

    def test_wraparound_invalidates(self):
        grid = GridSpec(L=4.0, N=256, k=1.0)  # small torus: support reaches 3L/4
        fam = free_wave(1.0, T=4.0)
        bump = GaussianBump(0.0, 0.3)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=4.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 3.5, 1024),
                         np.linspace(0, 3.5, 8))
        rep = cone_check(traj, ConeSpec(0.0, 1.0, 1.0, constant_pair()))
        assert not rep.valid and not rep.passed

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(0.0, -1.0, 1.0, constant_pair())
        with pytest.raises(ValueError):
            ConeSpec(0.0, 1.0, 0.5, constant_pair())

    def test_rejects_infinite_speed(self):
        # not inf > 0 is False: an infinite speed predicted an infinite radius, and
        # cone_check reported valid and passed for any trajectory
        with pytest.raises(ValueError, match="speed must be finite"):
            ConeSpec(0.0, np.inf, 1.0, constant_pair())

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_centre(self, x0):
        # a NaN centre made every radius NaN, and cone_check reported valid and passed
        with pytest.raises(ValueError, match="x0 must be finite"):
            ConeSpec(x0, 1.0, 1.0, constant_pair())


class TestEnergyMonitor:
    def test_zero_data_zero_verdict(self):
        grid = GridSpec(L=8.0, N=128, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 256),
                         np.linspace(0, 1, 5))
        trace = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 1.0)
        assert trace.verdict == 0.0
        assert np.all(trace.energy == 0.0)

    def test_constant_wave_unweighted_conservation(self):
        # eps = 0, s = (0, 0): standard energy-type quantity, verdict O(1) and
        # refinement-stable within a factor 2
        prof = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
        u0 = random_trig_poly(8, seed=42)
        verdicts = {}
        for N, M in ((128, 512), (256, 1024)):
            grid = GridSpec(L=np.pi, N=N, k=1.0)
            fam = free_wave(1.0, k=1.0)
            f1 = np.asarray(u0(grid.x), dtype=complex)
            prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0,
                                 T=1.0)
            traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M),
                             np.linspace(0, 1, 9))
            trace = energy_monitor(traj, (0.0, 0.0), prof, constant_pair(), 0.0)
            verdicts[N] = trace.verdict
            assert np.isfinite(trace.verdict) and trace.verdict >= 1.0
        assert max(verdicts.values()) / min(verdicts.values()) <= 2.0

    def test_loss_reweighting_monotone(self):
        # replacing Lambda(t) by Lambda(0) pointwise never decreases the energy
        from singhyp.quantize import SobolevIndex, sobolev_norm

        grid = GridSpec(L=8.0, N=128, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0)
        bump = GaussianBump(0.0, 0.7)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512),
                         np.linspace(0, 1, 5))
        trace = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 1.0)
        eps0 = float(trace.lam_values[0])
        for (t, u, v), e_t in zip(traj.snapshots, trace.energy):
            frozen = (sobolev_norm(grid, u, SobolevIndex(1.0, 1.0, eps0, 3.0),
                                   fam.pair)
                      + sobolev_norm(grid, v, SobolevIndex(0.0, 0.0, eps0, 3.0),
                                     fam.pair))
            assert frozen >= e_t * (1.0 - 1e-12)

    def test_verdict_non_increasing_in_lambda(self):
        # a larger loss budget reweights E(t) down relative to the data bound
        grid = GridSpec(L=8.0, N=128, k=16.0)
        fam = theorem_coefficient(0.0, 1.25, k=16.0)
        bump = GaussianBump(0.0, 0.7)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=np.zeros_like(f1), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512),
                         np.linspace(0, 1, 9))
        v1 = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 1.0).verdict
        v2 = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 2.0).verdict
        assert v2 <= v1 * (1.0 + 1e-12)

    def test_forcing_enters_data_bound(self):
        grid = GridSpec(L=np.pi, N=64, k=2.0)
        from singhyp.symbols import reference_wave

        fam = reference_wave(T=1.0, k=2.0)
        mode = np.exp(1j * 3 * grid.x)
        forcing = lambda t, x: (13.0 - 1.0) * np.sin(t) * mode
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=mode.copy(), t_start=0.0, T=1.0,
                             forcing=forcing)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 512),
                         np.linspace(0, 1, 9))
        trace = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 0.0,
                               forcing=forcing)
        assert np.all(np.diff(trace.data_bound) >= 0.0)
        assert trace.data_bound[0] == trace.energy[0]
        assert trace.data_bound[-1] > trace.data_bound[0]
        assert np.isfinite(trace.verdict)

    def test_x_independent_forcing_is_broadcast(self):
        # a forcing that returns one value per t is that value at every grid point
        from singhyp.symbols import reference_wave

        grid = GridSpec(L=np.pi, N=64, k=2.0)
        fam = reference_wave(T=1.0, k=2.0)
        mode = np.exp(1j * 3 * grid.x)
        prob = CauchyProblem(family=fam, f1=mode, f2=np.zeros_like(mode), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), np.linspace(0, 1, 5))
        scalar, field = (energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, 0.5,
                                        forcing=f).data_bound
                         for f in (lambda t, x: np.sin(t),
                                   lambda t, x: np.full(np.shape(x), np.sin(t))))
        assert np.array_equal(scalar, field) and scalar[-1] > scalar[0]

    @pytest.mark.parametrize("pair", [poly_pair(0.5, 0.5), constant_pair()],
                             ids=lambda p: p.label)
    def test_norms_match_sobolev_norm(self, pair):
        # one exp(Lambda(t) S) per snapshot serves u, u_t and the forcing, bit for bit
        from singhyp.quantize import SobolevIndex, sobolev_norm

        fam = theorem_coefficient(0.0, 1.25, pair=pair, k=4.0)
        grid = GridSpec(L=8.0, N=64, k=4.0)
        bump = GaussianBump(0.0, 0.5)
        prob = CauchyProblem(family=fam, f1=np.asarray(bump(grid.x), dtype=complex),
                             f2=-np.asarray(bump(grid.x, 1), dtype=complex), t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 64), np.linspace(0, 1, 5))
        forcing = lambda t, x: 0.1 * (1.0 + t) * np.exp(-x * x)
        trace = energy_monitor(traj, (0.5, 0.25), fam.profile, pair, 1.5, forcing=forcing)
        sig = fam.profile.sigma
        want_u, want_v, want_f = (np.array([
            sobolev_norm(grid, f(t, u, v), SobolevIndex(a, b, eps, sig), pair)
            for (t, u, v), eps in zip(traj.snapshots, trace.lam_values)])
            for f, a, b in ((lambda t, u, v: _denoise(grid, u), 1.5, 1.25),
                            (lambda t, u, v: _denoise(grid, v), 0.5, 0.25),
                            (lambda t, u, v: forcing(t, grid.x), 0.5, 0.25)))
        assert trace.lam_values[0] > 0.0 and trace.lam_values[-1] == 0.0
        assert np.array_equal(trace.norm_u, want_u) and np.array_equal(trace.norm_v, want_v)
        running = np.concatenate([[0.0], np.cumsum(
            0.5 * (want_f[1:] + want_f[:-1]) * np.diff(trace.times))])
        assert np.array_equal(trace.data_bound, want_u[0] + want_v[0] + running)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_rejects_bad_lambda(self, lam):
        # a NaN lambda used to fail `lam > 0` and silently monitor unweighted norms
        grid = GridSpec(L=8.0, N=64, k=4.0)
        fam = theorem_coefficient(0.0, 1.25, k=4.0)
        z = np.zeros(grid.N, dtype=complex)
        prob = CauchyProblem(family=fam, f1=z, f2=z, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, 16), np.linspace(0, 1, 3))
        with pytest.raises(ValueError, match="lam"):
            energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, lam)


class TestFitLambda:
    def test_reference_family_beyond_cutoff_gives_zero(self):
        fam = theorem_coefficient(0.0, 1.25, amplitude=0.0, k=64.0)
        # a = 2 <xi>_k^2 != <xi>_k^2, so use the true reference instead
        from singhyp.symbols import reference_wave, SampleLattice

        ref = reference_wave(k=64.0)
        prof = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
        lattice = SampleLattice(t=np.linspace(0.2, 1.0, 9), x=np.array([0.0]),
                                xi=np.linspace(-64.0, 64.0, 9))
        # every sample has t * <xi>_k >= 0.2 * 64 = 12.8 >= 6: all blocks vanish
        fit = fit_lambda(ref, prof, lattice=lattice)
        assert fit.value == 0.0

    def test_theorem_family_positive_and_stable(self):
        fam = theorem_coefficient(0.0, 1.25, k=16.0)
        base = fit_lambda(fam, fam.profile)
        fine = fit_lambda(fam, fam.profile,
                          lattice=graded_lattice(1.0, nt=48, nx=17, nxi=33))
        assert base.value > 0.0
        assert max(base.value, fine.value) / min(base.value, fine.value) <= 2.0

    def test_lower_order_scaling(self):
        # doubling a dominating b coefficient doubles the fitted lambda (10%)
        def with_b(scale):
            fam = theorem_coefficient(0.0, 1.25, r=0.5, k=16.0)
            return fam.__class__(**{**fam.__dict__,
                                    "b1": lambda t, x: scale / np.sqrt(
                                        np.asarray(t, dtype=float)) + 0.0 * np.asarray(x)})

        prof = make_profile(0.0, 1.25, 0.5, 3.0, 1.0)
        lam1 = fit_lambda(with_b(50.0), prof).value
        lam2 = fit_lambda(with_b(100.0), prof).value
        assert abs(lam2 / lam1 - 2.0) <= 0.2

    @pytest.mark.parametrize("fam", [
        theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0),
        theorem_coefficient(0.25, 1.25, pair=poly_pair(0.3, 0.7), k=2.0)],
        ids=lambda f: f.label)
    def test_open_lattice_matches_dense(self, fam, on_dense_mesh):
        dense = on_dense_mesh(lambda: fit_lambda(fam, fam.profile))
        fit = fit_lambda(fam, fam.profile)
        assert repr(fit) == repr(dense)
        # the witness is where the demand peaks: alone, it demands the same lambda
        t, x, xi = fit.witness
        alone = SampleLattice(t=np.array([t]), x=np.array([x]), xi=np.array([xi]))
        assert fit_lambda(fam, fam.profile, lattice=alone).value == pytest.approx(
            fit.value, rel=1e-14)

    def test_open_lattice_matches_dense_with_b0(self, on_dense_mesh):
        # b0 != 0 iterates the fixed point in lambda; b0 varies in t and x, b1 in x
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), r=0.5, k=4.0)
        fam = fam.__class__(**{**fam.__dict__,
                               "b0": lambda t, x: 0.1 / np.sqrt(t) * np.hypot(1.0, x) ** 0.2,
                               "b1": lambda t, x: 0.3 * np.cos(x) + 0.0 * np.asarray(t)})
        prof = make_profile(0.0, 1.25, 0.5, 3.0, 1.0)
        dense = on_dense_mesh(lambda: fit_lambda(fam, prof))
        fit = fit_lambda(fam, prof)
        assert fit.value > 0.0 and repr(fit) == repr(dense)

    def test_non_finite_demand_raises_with_witness(self):
        # g(0) = inf and sin(pi 0^(1-q)) is NaN: the fit used to return LambdaFit(nan)
        fam = theorem_coefficient(0.25, 1.25)
        lat = graded_lattice(1.0)
        with_zero = SampleLattice(t=np.concatenate([[0.0], lat.t]), x=lat.x, xi=lat.xi)
        with np.errstate(all="ignore"), pytest.raises(LambdaFitError) as err:
            fit_lambda(fam, fam.profile, lattice=with_zero)
        t, x, xi = err.value.witness
        assert t == 0.0 and x in lat.x and xi in lat.xi
        assert isinstance(err.value, ArithmeticError)


class TestSupportRadius:
    def test_zero_field(self):
        grid = GridSpec(L=4.0, N=64, k=1.0)
        assert support_radius(grid, np.zeros(grid.N)) == 0.0

    def test_bump_radius(self):
        grid = GridSpec(L=8.0, N=512, k=1.0)
        bump = GaussianBump(0.0, 0.4)
        r = support_radius(grid, bump(grid.x), threshold=1e-10)
        expect = 0.4 * math.sqrt(2.0 * math.log(1e10))
        assert r == pytest.approx(expect, abs=3 * grid.dx)
