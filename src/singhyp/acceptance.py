"""The acceptance battery: ten pinned criteria, each a function returning a
:class:`CriterionResult` with its tolerances hard-coded.

Every criterion is deterministic (fixed seeds) and self-contained; the pytest
gate and the CLI suite both call :func:`run_all`, so they cannot drift apart.
Nor can the CLI's check experiments: they call the functions the criteria call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import (ConeSpec, GaussianBump, closed_form, cone_check,
                       counterexample_family, energy_monitor, fit_lambda, loss_slope,
                       propagation_speed, random_trig_poly, residual_check)
from .quantize import (GridSpec, SobolevIndex, apply_kn, apply_multiplier, dft_forward,
                       l2_norm, loss_operator, loss_symbol, sobolev_norm)
from .solver import CauchyProblem, graded_mesh, integrate, system_residual
from .structure import (Zone, bracket, classify_zone, constant_pair, lambda_loss,
                        make_profile, planck, poly_pair, time_split)
from .symbols import (char_root, excise, fit_blowup_exponents, fit_power_law, free_wave,
                      l1_defect, reference_wave, root_estimate_report, theorem_coefficient)

__all__ = ["CriterionResult", "CRITERIA", "RESIDUAL_CASES", "RESIDUAL_TOL", "cone_experiment",
           "estimate_checks", "run_all"]

# (example id, m) of every closed form whose residual is certified
RESIDUAL_CASES = (("7.1", 0), ("7.1", 1), ("7.1", 2), ("7.1", 3), ("7.2", 0), ("7.3", 0),
                  ("7.4", 0))
RESIDUAL_TOL = 1e-6


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} [{self.runtime_s:.1f}s]"


def _criterion(number: int, name: str):
    """Make a body returning ``(checks, details)`` criterion ``number``, a function
    returning its timed :class:`CriterionResult`, passed when every check holds."""
    def wrap(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            checks, details = body()
            return CriterionResult(number=number, name=name, passed=all(checks),
                                   runtime_s=time.perf_counter() - t0, details=details)
        return criterion
    return wrap


def cone_experiment(grid: GridSpec, wave_grid: GridSpec, m: int, wave_m: int, bump, T: float):
    """``(c_star, report_7_3, report_wave)``: ``c*`` of example 7.3, and cone
    checks about ``bump.center`` of 7.3 from ``(bump, 2 bump')`` up to ``t = 0.2 L``
    and of the constant wave from ``(bump, -bump')`` up to ``min(2, 0.2 L)``, on
    meshes of ``m`` and ``wave_m`` steps; 7.3's family runs to ``max(3, T, 0.2 L)``."""
    fam = counterexample_family("7.3", k=grid.k, T=max(3.0, T, 0.2 * grid.L))
    c_star = propagation_speed(fam, grid, np.linspace(1e-4, 3.0, 30001))
    famw = free_wave(1.0, T=max(2.5, T), k=wave_grid.k)
    reports = []
    for family, g, mesh_m, velocity, speed, t_end, nsnap in (
            (fam, grid, m, 2.0, 3.0, 0.2 * grid.L, 13),
            (famw, wave_grid, wave_m, -1.0, 1.0, min(2.0, 0.2 * wave_grid.L), 9)):
        prob = CauchyProblem(family=family, f1=np.asarray(bump(g.x), dtype=complex),
                             f2=velocity * np.asarray(bump(g.x, 1), dtype=complex),
                             t_start=0.0, T=family.T)
        traj = integrate(prob, g, graded_mesh(family, 0.0, t_end, mesh_m),
                         np.linspace(0.0, t_end, nsnap))
        reports.append(cone_check(traj, ConeSpec(bump.center, speed=speed, exponent=1.0,
                                                 pair=constant_pair())))
    return (c_star, *reports)


def estimate_checks(family) -> tuple[dict, list[dict]]:
    """``(payload, verdicts)``: the root's interior and exterior time exponents,
    its flat-region ``max |dt tau|`` and the fitted ``(p, q)`` of an admissible family."""
    rep = root_estimate_report(char_root(excise(family)), family.profile)
    p_fit, q_fit = fit_blowup_exponents(family)
    payload = {"interior_exponent": rep.interior_exponent,
               "exterior_exponent": rep.exterior_exponent,
               "dt_tau_flat_max": rep.dt_tau_flat_max, "p_fit": p_fit, "q_fit": q_fit,
               "fit_report": rep.fit.as_dict()}
    p, q = family.p, family.q
    verdicts = [
        {"name": "root-interior-exponent", "pass": bool(abs(rep.interior_exponent) <= 0.1),
         "value": rep.interior_exponent},
        {"name": "root-exterior-exponent",
         "pass": bool(abs(rep.exterior_exponent - p / 2.0) <= 0.1),
         "value": rep.exterior_exponent},
        {"name": "dt-root-flat-zero", "pass": bool(rep.dt_tau_flat_max <= 1e-14),
         "value": rep.dt_tau_flat_max},
        {"name": "blowup-exponents",
         "pass": bool(abs(p_fit - p) <= 0.1 and abs(q_fit - q) <= 0.1),
         "p_fit": p_fit, "q_fit": q_fit},
    ]
    return payload, verdicts


# --------------------------------------------------------------------------


@_criterion(1, "counterexample fidelity (residuals + integration)")
def criterion_1_counterexample_fidelity():
    """Residuals < 1e-6 for all examples; integration matches the closed forms
    to 1e-5 relative L2 at t = 1 (N = 1024, M = 4096)."""
    grid = GridSpec(L=np.pi, N=1024, k=1.0)
    u0 = random_trig_poly(8, seed=42)
    checks, details = [], {}
    for ex, m in RESIDUAL_CASES:
        r = residual_check(ex, m, u0, grid)
        details[f"residual[{ex},m={m}]"] = r
        checks.append(r < RESIDUAL_TOL)
    for ex, m, t_start in [("7.1", 0, 1e-3), ("7.1", 3, 1e-3), ("7.2", 0, 1e-3),
                           ("7.3", 0, 0.0)]:
        fam = counterexample_family(ex, m, k=grid.k)
        sol = closed_form(ex, m, u0)
        f1, f2 = sol.initial_data(grid, t_start)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=t_start, T=1.0)
        t_run = time.perf_counter()
        traj = integrate(prob, grid, graded_mesh(fam, t_start, 1.0, 4096), [1.0])
        elapsed = time.perf_counter() - t_run
        t, u, _ = traj.snapshots[-1]
        exact = np.asarray(sol.u(t, grid.x), dtype=complex)
        err = l2_norm(grid, u - exact) / l2_norm(grid, exact)
        details[f"l2[{ex},m={m}]"] = err
        details[f"time[{ex},m={m}]"] = elapsed
        checks.append(err <= 1e-5)
        checks.append(elapsed <= 60.0)
    return checks, details


@_criterion(2, "loss-of-derivative slopes")
def criterion_2_loss_slopes():
    """Measured derivative loss: m +- 0.2 for the finite-loss family, 0 +- 0.05
    for the no-loss examples.  Needs broadband data, so the oracle profile is a
    narrow Gaussian whose spectrum covers the fitting band above 1e-12."""
    grid = GridSpec(L=np.pi, N=1024, k=1.0)
    u0 = GaussianBump(0.0, 0.04)
    checks, details = [], {}
    for m in (1, 2, 3):
        sol = closed_form("7.1", m, u0)
        s = loss_slope(grid, sol.u(1.0, grid.x), u0(grid.x))
        details[f"slope[7.1,m={m}]"] = s
        checks.append(abs(s - m) <= 0.2)
    for ex in ("7.2", "7.3"):
        sol = closed_form(ex, 0, u0)
        s = loss_slope(grid, sol.u(1.0, grid.x), u0(grid.x))
        details[f"slope[{ex}]"] = s
        checks.append(abs(s) <= 0.05)
    return checks, details


@_criterion(3, "nonuniqueness witness")
def criterion_3_nonuniqueness():
    """t^2 u0(x+t) solves the nonuniqueness example with identically zero data:
    two distinct solutions certified."""
    grid = GridSpec(L=np.pi, N=512, k=1.0)
    u0 = random_trig_poly(8, seed=42)
    sol = closed_form("7.4", 0, u0)
    r = residual_check("7.4", 0, u0, grid)
    f1, f2 = sol.initial_data(grid, 0.0)
    data_peak = max(float(np.max(np.abs(f1))), float(np.max(np.abs(f2))))
    witness_peak = float(np.max(np.abs(sol.u(1.0, grid.x))))
    details = {"residual": r, "data_peak": data_peak, "witness_peak": witness_peak}
    return [r < RESIDUAL_TOL, data_peak == 0.0, witness_peak > 0.1], details


@_criterion(4, "cone condition / finite propagation speed")
def criterion_4_cone_condition():
    """Support growth <= 3t + 3dx for the oscillating-speed example up to
    t = 0.2 L, and <= t + slack for the constant wave; c* = 3 derived."""
    t_run = time.perf_counter()
    c_star, rep, repw = cone_experiment(GridSpec(L=12.0, N=1024, k=1.0),
                                        GridSpec(L=12.0, N=512, k=1.0), 4096, 1024,
                                        GaussianBump(0.0, 0.25), 1.0)
    elapsed = time.perf_counter() - t_run
    details = {"c_star": c_star, "cone_7.3_valid": rep.valid,
               "cone_7.3_rows": rep.to_rows(), "cone_wave_rows": repw.to_rows(),
               "time": elapsed}
    return [abs(c_star - 3.0) <= 1e-3, rep.valid and rep.passed,
            repw.valid and repw.passed, elapsed <= 60.0], details


@_criterion(5, "excision contract and L1 defect exponent")
def criterion_5_excision_contract():
    """atilde equals a exactly where t Phi <xi>_k >= 2 and the elliptic
    reference exactly where <= 1; the L1 defect's fitted exponent against
    Phi <xi>_k stays below 2 - (1-p)/(q-p) + 0.1 = 1.3."""
    t_start = time.perf_counter()
    checks, details = [], {}
    pair = poly_pair(0.5, 0.5)
    fam = theorem_coefficient(0.0, 1.25, pair=pair, k=2.0)
    exc = excise(fam)
    rng = np.random.default_rng(7)
    x = rng.uniform(-50, 50, 400)
    xi = rng.uniform(-80, 80, 400)
    s = np.asarray(pair.phi(x)) * bracket(xi, fam.k)
    t_hi = 2.0 / s * 1.0001  # just above the blend
    t_hi = np.minimum(np.maximum(t_hi, 2.0 / s), 0.999)
    t_lo = np.minimum(1.0 / s * 0.9999, 0.999)
    above = exc.a(t_hi, x, xi) - fam.a(t_hi, x, xi)
    ref = np.asarray(pair.omega(x)) ** 2 * bracket(xi, fam.k) ** 2
    below = exc.a(t_lo, x, xi) - ref
    details["max_dev_above"] = float(np.max(np.abs(above)))
    details["max_dev_below"] = float(np.max(np.abs(below)))
    checks.append(details["max_dev_above"] == 0.0)
    checks.append(details["max_dev_below"] == 0.0)

    xs = np.geomspace(0.5, 200.0, 16)
    xis = np.geomspace(1.0, 300.0, 16)
    scale, defects = [], []
    for xv in xs:
        for wv in xis:
            defects.append(l1_defect(fam, exc, float(xv), float(wv)))
            scale.append(float(np.asarray(pair.phi(xv)) * bracket(wv, fam.k)))
    slope, resid = fit_power_law(np.asarray(scale), np.asarray(defects))
    details["defect_exponent"] = slope
    details["defect_fit_residual"] = resid
    checks.append(slope <= 2.0 - (1.0 - 0.0) / (1.25 - 0.0) + 0.1)
    checks.append(time.perf_counter() - t_start <= 120.0)
    return checks, details


@_criterion(6, "quantizer identities")
def criterion_6_quantizer_identities():
    """Quantizer reductions, Parseval, loss-operator identity at eps = 0,
    single-mode norm closed form, and large-k invertibility ordering."""
    checks, details = [], {}
    grid = GridSpec(L=np.pi, N=256, k=1.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)

    m = lambda xi: bracket(xi, grid.k) ** 2 + 0j
    d_mult = float(np.max(np.abs(
        apply_kn(grid, lambda x, xi: m(xi) + 0.0 * x, u) - apply_multiplier(grid, m, u))))
    g = np.cos(grid.x)
    d_gmult = float(np.max(np.abs(
        apply_kn(grid, lambda x, xi: np.cos(x) * m(xi), u)
        - g * apply_multiplier(grid, m, u))))
    scale = float(np.max(np.abs(apply_multiplier(grid, m, u))))
    details["kn_multiplier_dev"] = d_mult / scale
    details["kn_product_dev"] = d_gmult / scale
    checks.append(d_mult / scale <= 1e-12)
    checks.append(d_gmult / scale <= 1e-12)

    c = dft_forward(grid, u)
    pars = abs(grid.dx * np.sum(np.abs(u) ** 2) - np.sum(np.abs(c) ** 2) / (2 * grid.L))
    details["parseval_dev"] = pars / (grid.dx * float(np.sum(np.abs(u) ** 2)))
    checks.append(details["parseval_dev"] <= 1e-12)

    pair = poly_pair(0.5, 0.5)
    ident = float(np.max(np.abs(loss_operator(grid, pair, 0.0, 3.0, u) - u)))
    details["loss_identity_dev"] = ident / float(np.max(np.abs(u)))
    checks.append(details["loss_identity_dev"] <= 1e-13)

    mode = np.exp(1j * 5 * grid.x)
    idx = SobolevIndex(s1=1.5, s2=0.0, eps=0.2, sigma=3.0)
    n = sobolev_norm(grid, mode, idx, constant_pair())
    expect = np.sqrt(2 * grid.L) * bracket(5.0, grid.k) ** 1.5 \
        * np.exp(0.2 * bracket(5.0, grid.k) ** (1.0 / 3.0))
    details["single_mode_rel_dev"] = abs(n - expect) / expect
    checks.append(details["single_mode_rel_dev"] <= 1e-10)

    band = random_trig_poly(8, seed=3)
    errs = {}
    for k in (4.0, 64.0):
        gk = GridSpec(L=np.pi, N=128, k=k)
        ub = np.asarray(band(gk.x), dtype=complex)
        fwd = loss_operator(gk, pair, 0.4, 3.0, ub)
        w = loss_symbol(gk, pair, 0.4, 3.0)
        back = apply_kn(gk, np.exp(-w), fwd)
        errs[k] = float(l2_norm(gk, back - ub) / l2_norm(gk, ub))
    details["invert_err_k4"] = errs[4.0]
    details["invert_err_k64"] = errs[64.0]
    checks.append(errs[64.0] < errs[4.0])
    return checks, details


@_criterion(7, "energy boundedness surrogate")
def criterion_7_energy_boundedness():
    """Energy monitor verdict for the admissible family (delta = delta* = 1/6),
    lambda from the symbol-level fit; finite and within a factor 2 under
    (N, M) -> (2N, 2M).  The theorem's constant itself is existential and not
    reproduced."""
    checks, details = [], {}
    fam = theorem_coefficient(0.0, 1.25, r=0.0, sigma=3.0, k=16.0, T=1.0)
    details["delta"] = fam.profile.delta
    details["delta_star"] = fam.profile.delta_star
    checks.append(abs(fam.profile.delta - 1.0 / 6.0) <= 1e-12)
    checks.append(abs(fam.profile.delta_star - 1.0 / 6.0) <= 1e-12)
    lam = fit_lambda(fam, fam.profile).value
    details["lambda"] = lam
    checks.append(np.isfinite(lam) and lam > 0)

    bump = GaussianBump(0.0, 0.7)
    verdicts = {}
    for (N, M) in ((256, 2048), (512, 4096)):
        grid = GridSpec(L=8.0, N=N, k=16.0)
        f1 = np.asarray(bump(grid.x), dtype=complex)
        f2 = -np.asarray(bump(grid.x, 1), dtype=complex)
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M),
                         np.linspace(0.0, 1.0, 17))
        trace = energy_monitor(traj, (0.0, 0.0), fam.profile, fam.pair, lam)
        verdicts[(N, M)] = trace.verdict
        details[f"verdict[N={N},M={M}]"] = trace.verdict
        details[f"interior_sup[N={N},M={M}]"] = float(
            np.max(trace.energy[1:] / trace.data_bound[1:]))
        checks.append(np.isfinite(trace.verdict))
    v1, v2 = verdicts[(256, 2048)], verdicts[(512, 4096)]
    ratio = max(v1, v2) / max(min(v1, v2), 1e-300)
    details["refinement_ratio"] = ratio
    checks.append(ratio <= 2.0)
    return checks, details


@_criterion(8, "zone and profile algebra")
def criterion_8_zone_profile_algebra():
    """Dual formulas, zone partition/monotonicity on 1e5 random samples, and
    exact splitting-point consistency."""
    checks, details = [], {}
    prof = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
    gamma_alt = (1.0 - prof.delta - prof.p) / (prof.q - prof.p)
    details["gamma_dual_dev"] = abs(prof.gamma - gamma_alt)
    checks.append(details["gamma_dual_dev"] <= 1e-12)
    delta_alt = (prof.q - prof.p) / prof.sigma - (prof.q - 1.0)
    details["delta_dual_dev"] = abs(prof.delta - delta_alt)
    checks.append(details["delta_dual_dev"] <= 1e-12)

    pair = poly_pair(0.5, 1.0)
    rng = np.random.default_rng(42)
    n = 100_000
    t = rng.uniform(0.0, 1.0, n)
    x = rng.uniform(-100.0, 100.0, n)
    xi = rng.uniform(-200.0, 200.0, n)
    codes = classify_zone(t, x, xi, 2.0, prof, pair, 2.0)
    details["n_samples"] = n
    checks.append(bool(np.all(np.isin(codes, [0, 1, 2]))))
    core = np.abs(x) + np.abs(xi) <= 2.0
    ts = time_split(x, xi, 2.0, prof, pair, 2.0)
    expect = np.where(core, 0, np.where(t <= ts, 1, 2))
    checks.append(bool(np.all(codes == expect)))
    # monotonicity: shrink t on interior samples, stay interior
    interior = codes == int(Zone.INTERIOR)
    t2 = t[interior] * rng.uniform(0.0, 1.0, int(np.count_nonzero(interior)))
    codes2 = classify_zone(t2, x[interior], xi[interior], 2.0, prof, pair, 2.0)
    checks.append(bool(np.all(codes2 == int(Zone.INTERIOR))))

    cons = np.abs(ts ** (prof.q - prof.p) * np.asarray(pair.phi(x)) * bracket(xi, 2.0)
                  - 2.0)
    details["split_consistency_max"] = float(np.max(cons))
    checks.append(details["split_consistency_max"] <= 1e-12 * 2.0)

    h = planck(x, xi, pair, 2.0)
    checks.append(bool(np.all((h > 0) & (h <= 1.0))))

    lam_grid = lambda_loss(np.linspace(0, 1, 257), 1.0, prof)
    checks.append(bool(np.all(np.diff(lam_grid) < 0)))
    checks.append(float(lam_grid[-1]) == 0.0)
    return checks, details


@_criterion(9, "symbol estimate reports")
def criterion_9_symbol_reports():
    """Root estimate fits: exterior t-exponent p/2 +- 0.1, interior exponent
    0 +- 0.1, and dt tau machine-zero on the flat region; blow-up fits of the
    admissible family within +- 0.1 of (p, q)."""
    t_start = time.perf_counter()
    checks, details = [], {}
    for (p, q) in ((0.0, 1.25), (0.25, 1.3)):
        payload, verdicts = estimate_checks(theorem_coefficient(p, q, k=2.0))
        details[f"interior_exp[p={p}]"] = payload["interior_exponent"]
        details[f"exterior_exp[p={p}]"] = payload["exterior_exponent"]
        details[f"dt_tau_flat[p={p}]"] = payload["dt_tau_flat_max"]
        details[f"p_fit[p={p}]"] = payload["p_fit"]
        details[f"q_fit[p={p}]"] = payload["q_fit"]
        checks.extend(v["pass"] for v in verdicts)
    checks.append(time.perf_counter() - t_start <= 120.0)
    return checks, details


@_criterion(10, "first-order system residual")
def criterion_10_system_residual():
    """First-order system residual: >= 3x decrease under snapshot-spacing
    halving for the constant-coefficient problem; < 1e-2 for the
    oscillating-speed example at M = 4096."""
    checks, details = [], {}
    grid = GridSpec(L=np.pi, N=256, k=4.0)
    u0 = random_trig_poly(8, seed=42)
    fam = reference_wave(k=4.0, T=1.0)
    f1 = np.asarray(u0(grid.x), dtype=complex)
    f2 = np.asarray(u0(grid.x, 1), dtype=complex)
    res = {}
    for M, nsnap in ((512, 33), (1024, 65)):
        prob = CauchyProblem(family=fam, f1=f1, f2=f2, t_start=0.0, T=1.0)
        traj = integrate(prob, grid, graded_mesh(fam, 0.0, 1.0, M),
                         np.linspace(0.25, 1.0, nsnap))
        res[M] = system_residual(traj, prob, grid)
    details["residual_coarse"] = res[512]
    details["residual_fine"] = res[1024]
    details["ratio"] = res[512] / res[1024]
    checks.append(res[512] / res[1024] >= 3.0)

    fam73 = counterexample_family("7.3", k=4.0, T=1.0)
    sol = closed_form("7.3", 0, u0)
    f1c, f2c = sol.initial_data(grid, 0.0)
    prob73 = CauchyProblem(family=fam73, f1=f1c, f2=f2c, t_start=0.0, T=1.0)
    traj73 = integrate(prob73, grid, graded_mesh(fam73, 0.0, 1.0, 4096),
                       np.linspace(0.25, 1.0, 513))
    r73 = system_residual(traj73, prob73, grid)
    details["residual_7.3"] = r73
    checks.append(r73 < 1e-2)
    return checks, details


CRITERIA = (
    criterion_1_counterexample_fidelity,
    criterion_2_loss_slopes,
    criterion_3_nonuniqueness,
    criterion_4_cone_condition,
    criterion_5_excision_contract,
    criterion_6_quantizer_identities,
    criterion_7_energy_boundedness,
    criterion_8_zone_profile_algebra,
    criterion_9_symbol_reports,
    criterion_10_system_residual,
)


def run_all() -> list[CriterionResult]:
    """Run every criterion in order, printing each result line as it finishes."""
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    return results
