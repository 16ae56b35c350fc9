"""Coefficient families, excision, characteristic root, H symbol, defect
quadrature and estimate fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singhyp.quantize import GridSpec
from singhyp.structure import bracket, poly_pair
from singhyp.symbols import (EllipticityError, ExcisedCoefficient,
                             QuadratureError, TimeQuadrature, char_root, cut, dcut,
                             example_coefficient, excise, fit_blowup_exponents, fit_power_law,
                             free_wave, graded_lattice, h_symbol, l1_defect, reference_wave,
                             root_estimate_report, symbol_class_report, theorem_coefficient)
from singhyp.analysis import counterexample_family


def _psi(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = np.exp(-1.0 / r[pos])
    return out


def _dpsi(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = np.exp(-1.0 / r[pos]) / (r[pos] * r[pos])
    return out


def _cut_reference(s):
    # psi(2-s) / (psi(2-s) + psi(s-1)) over the whole array, 1 where both vanish
    s = np.asarray(s, dtype=float)
    a, b = _psi(2.0 - s), _psi(s - 1.0)
    den = a + b
    out = np.ones_like(s)
    mid = den > 0
    out[mid] = a[mid] / den[mid]
    out[s >= 2.0] = 0.0
    return out


def _dcut_reference(s):
    s = np.asarray(s, dtype=float)
    a, b, da, db = _psi(2.0 - s), _psi(s - 1.0), _dpsi(2.0 - s), _dpsi(s - 1.0)
    den = (a + b) ** 2
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = -(da[mid] * b[mid] + a[mid] * db[mid]) / den[mid]
    return out


class TestCutoff:
    def test_matches_two_glue_formulas_bitwise(self):
        # cut/dcut evaluate only on the window 1 < s < 2; every entry, NaN positions
        # included, equals the two-psi formulas evaluated everywhere
        edges = [np.nextafter(e, d) for e in (1.0, 2.0) for d in (-np.inf, np.inf)]
        special = np.array([-np.inf, np.inf, np.nan, 1.0, 2.0, 0.0, -1.0, 1.5, *edges])
        grid = GridSpec(L=8.0, N=64, k=4.0)
        phi, br = poly_pair(0.5, 0.5).phi(grid.x), bracket(grid.xi, grid.k)
        h_args = [t * phi[:, None] * br[None, :] / 3.0 for t in (0.02, 0.05, 0.3, 0.9)]
        sweeps = [np.float64(1.5), np.float64(np.nan), np.array(2.0), special,
                  np.linspace(0.5, 2.5, 10_000), *h_args]
        for s in sweeps:
            for fn, ref in ((cut, _cut_reference), (dcut, _dcut_reference)):
                got, want = fn(s), ref(s)
                assert got.shape == want.shape == np.shape(s)
                assert np.array_equal(got, want, equal_nan=True), (fn.__name__, s)
        assert np.array_equal(cut(special)[:3], [1.0, 0.0, 1.0])  # -inf, inf, NaN

    def test_plateaus_are_exact(self):
        s = np.array([-3.0, 0.0, 0.5, 1.0])
        assert np.all(cut(s) == 1.0)
        s = np.array([2.0, 2.5, 10.0])
        assert np.all(cut(s) == 0.0)

    @given(st.floats(1.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_range_and_monotonicity(self, s):
        v = float(cut(np.array([s]))[0])
        assert 0.0 <= v <= 1.0
        v2 = float(cut(np.array([min(s + 0.01, 2.0)]))[0])
        assert v2 <= v + 1e-12

    def test_derivative_matches_finite_difference(self):
        s = np.linspace(0.5, 2.5, 401)
        fd = (cut(s + 1e-6) - cut(s - 1e-6)) / 2e-6
        assert np.max(np.abs(fd - dcut(s))) <= 1e-8


class TestExampleCoefficient:
    def test_value_at_t1_x0(self):
        fam = example_coefficient(1.0, 1.0)
        # coefficient of xi^2 at (t, x) = (1, 0): (2 + cos 1)(2 + sin 1)
        val = fam.a(1.0, 0.0, 1.0)
        assert val == pytest.approx((2.0 + math.cos(1.0)) * (2.0 + math.sin(1.0)), rel=1e-14)

    def test_ellipticity_floor(self):
        fam = example_coefficient(0.5, 0.5)
        rng = np.random.default_rng(2)
        t = rng.uniform(1e-6, 1.0, 200)
        x = rng.uniform(-50.0, 50.0, 200)
        om2 = np.asarray(fam.pair.omega(x)) ** 2
        assert np.all(fam.a(t, x, 1.0) >= om2)  # a >= omega^2 xi^2 at |xi| = 1

    def test_exponents_recorded(self):
        fam = example_coefficient(0.25, 0.75)
        assert fam.p == 0.25 and fam.q == 11.0 / 8.0
        assert fam.profile is None  # sigma window empty for these exponents

    def test_even_in_frequency(self):
        fam = example_coefficient(0.25, 0.75)
        fam2 = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
        rng = np.random.default_rng(12)
        t = rng.uniform(0.05, 1.0, 100)
        x = rng.uniform(-5, 5, 100)
        xi = rng.uniform(0.1, 30, 100)
        for f in (fam, fam2):
            assert np.array_equal(f.a(t, x, xi), f.a(t, x, -xi))

    def test_rejects_bad_kappas(self):
        with pytest.raises(ValueError):
            example_coefficient(0.8, 0.5)
        with pytest.raises(ValueError):
            example_coefficient(0.0, 0.0)

    def test_derivatives_match_finite_differences(self):
        fam = example_coefficient(0.5, 0.75)
        t, x, xi = 0.37, 1.3, 2.1
        h = 1e-6
        for fn, (dt, dx, dxi) in [(fam.a, (fam.dt_a, fam.dx_a, fam.dxi_a))]:
            fd_t = (fn(t + h, x, xi) - fn(t - h, x, xi)) / (2 * h)
            fd_x = (fn(t, x + h, xi) - fn(t, x - h, xi)) / (2 * h)
            fd_xi = (fn(t, x, xi + h) - fn(t, x, xi - h)) / (2 * h)
            assert fd_t == pytest.approx(dt(t, x, xi), rel=1e-6)
            assert fd_x == pytest.approx(dx(t, x, xi), rel=1e-6)
            assert fd_xi == pytest.approx(dxi(t, x, xi), rel=1e-6)


BUILTIN_FAMILIES = {
    "theorem": lambda: theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0),
    "example11": lambda: example_coefficient(0.5, 0.75),
    "free-wave": lambda: free_wave(1.5),
    "reference-wave": lambda: reference_wave(k=2.0),
    **{f"counterexample-{e}": (lambda e=e: counterexample_family(e, 2))
       for e in ("7.1", "7.2", "7.3", "7.4")},
}


@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_family_matches_its_separable_factors(name):
    fam = BUILTIN_FAMILIES[name]()
    rng = np.random.default_rng(5)
    t, x, xi = rng.uniform(0.05, 1.0, 50), rng.uniform(-5, 5, 50), rng.uniform(-30, 30, 50)
    g, w, m = fam.separable
    assert np.array_equal(fam.a(t, x, xi), g(t) * w(x) * m(xi))
    t, x, xi, h = 0.43, 0.7, 1.9, 1e-6
    assert (fam.a(t + h, x, xi) - fam.a(t - h, x, xi)) / (2 * h) \
        == pytest.approx(fam.dt_a(t, x, xi), rel=1e-6)
    assert (fam.a(t, x + h, xi) - fam.a(t, x - h, xi)) / (2 * h) \
        == pytest.approx(fam.dx_a(t, x, xi), rel=1e-6)
    assert (fam.a(t, x, xi + h) - fam.a(t, x, xi - h)) / (2 * h) \
        == pytest.approx(fam.dxi_a(t, x, xi), rel=1e-6)


def test_x_independent_family_must_not_vary_in_x():
    # the solver reads an x-independent family's coefficients at x = 0
    fam = free_wave(1.0)
    with pytest.raises(ValueError, match="free-wave.*x_dependent=False"):
        fam.__class__(**{**fam.__dict__, "b1": lambda t, x: x, "separable": None})


@pytest.mark.parametrize("field", ["a", "b0", "b1", "b2"])
def test_complex_coefficient_is_rejected(field):
    # real data step real states, on which a complex coefficient would act as its Hermitian
    # part: a family with g(t) = 1 + 0.5i built, and its real-data solve went wrong silently
    fam = free_wave(1.0)
    a = fam.a

    def changed(im):
        return ({"a": lambda t, x, xi: (1.0 + im * 1j) * a(t, x, xi), "separable": None}
                if field == "a" else {field: lambda t, x: 0.25 + im * 1j + 0.0 * x})
    with pytest.raises(ValueError, match=r"^free-wave\(c=1\.0\): .*nonzero imaginary part"):
        fam.__class__(**{**fam.__dict__, **changed(0.5)})
    fam.__class__(**{**fam.__dict__, **changed(0.0)})  # a complex dtype, but real


class TestTheoremCoefficient:
    def test_value_at_t1(self):
        fam = theorem_coefficient(0.0, 1.25, k=2.0)
        # phase pi t^(1-q) vanishes mod pi at t = 1: a = 2 omega^2 <xi>_k^2
        assert fam.a(1.0, 0.0, 3.0) == pytest.approx(2.0 * (4.0 + 9.0), rel=1e-13)

    def test_ellipticity_floor(self):
        fam = theorem_coefficient(0.0, 1.25)
        rng = np.random.default_rng(3)
        t = rng.uniform(1e-8, 1.0, 500)
        vals = fam.a(t, 0.0, 0.0) / fam.k ** 2
        assert np.all(vals >= 1.5 - 1e-12)
        assert fam.c0 >= 1.0

    def test_blowup_exponents_fitted(self):
        for (p, q) in ((0.0, 1.25), (0.25, 1.3)):
            pf, qf = fit_blowup_exponents(theorem_coefficient(p, q))
            assert abs(pf - p) <= 0.1
            assert abs(qf - q) <= 0.1

    def test_derivatives_match_finite_differences(self):
        fam = theorem_coefficient(0.25, 1.3, pair=poly_pair(0.5, 0.5), k=2.0)
        t, x, xi = 0.61, 0.8, 1.7
        h = 1e-6
        assert (fam.a(t + h, x, xi) - fam.a(t - h, x, xi)) / (2 * h) \
            == pytest.approx(fam.dt_a(t, x, xi), rel=1e-6)
        assert (fam.a(t, x + h, xi) - fam.a(t, x - h, xi)) / (2 * h) \
            == pytest.approx(fam.dx_a(t, x, xi), rel=1e-6)
        assert (fam.a(t, x, xi + h) - fam.a(t, x, xi - h)) / (2 * h) \
            == pytest.approx(fam.dxi_a(t, x, xi), rel=1e-6)

    def test_rejects_inadmissible_profile(self):
        from singhyp.structure import ProfileError

        with pytest.raises(ProfileError):
            theorem_coefficient(0.25, 11.0 / 8.0)


class TestExcision:
    fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
    exc = excise(fam)

    def _s(self, t, x, xi):
        return t * float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, self.fam.k))

    def test_flat_region_exact(self):
        x, xi = 1.0, 4.0
        t = 0.9 / (float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0)))
        ref = float(np.asarray(self.fam.pair.omega(x))) ** 2 * bracket(xi, 2.0) ** 2
        assert float(self.exc.a(t, x, xi)) == ref

    def test_outside_region_exact(self):
        x, xi = 1.0, 4.0
        t = 2.5 / (float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0)))
        assert float(self.exc.a(t, x, xi)) == float(self.fam.a(t, x, xi))

    def test_blend_is_strict_convex_combination(self):
        x, xi = 1.0, 4.0
        t = 1.5 / (float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0)))
        ref = float(np.asarray(self.fam.pair.omega(x))) ** 2 * bracket(xi, 2.0) ** 2
        a = float(self.fam.a(t, x, xi))
        v = float(self.exc.a(t, x, xi))
        lo, hi = min(ref, a), max(ref, a)
        assert lo < v < hi

    def test_floor_everywhere(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(1e-6, 1.0, 400)
        x = rng.uniform(-30, 30, 400)
        xi = rng.uniform(-50, 50, 400)
        ref = np.asarray(self.fam.pair.omega(x)) ** 2 * bracket(xi, 2.0) ** 2
        assert np.all(self.exc.a(t, x, xi) >= min(1.0, self.fam.c0) * ref * (1 - 1e-12))

    def test_idempotent_outside_blend(self):
        re_exc = excise(self.exc)
        x, xi = 2.0, 8.0
        sfac = float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0))
        for s in (0.5, 0.9, 2.1, 5.0):
            t = s / sfac
            assert float(re_exc.a(t, x, xi)) == float(self.exc.a(t, x, xi))

    def test_idempotent_everywhere_for_reference(self):
        # a == omega^2 <xi>^2 bitwise, so re-excision changes nothing; inside
        # the blend the convex combination still rounds (~1 ulp), hence the
        # machine-relative tolerance there rather than equality
        ref = reference_wave(k=2.0)
        exc1 = excise(ref)
        exc2 = excise(exc1)
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 1.0, 300)
        x = rng.uniform(-10, 10, 300)
        xi = rng.uniform(-40, 40, 300)
        v0, v1, v2 = ref.a(t, x, xi), exc1.a(t, x, xi), exc2.a(t, x, xi)
        assert np.max(np.abs(v2 - v1) / v0) <= 1e-15
        assert np.max(np.abs(v1 - v0) / v0) <= 1e-15

    def test_flat_region_derivatives_at_t_zero(self):
        # the raw coefficient is undefined at t = 0 and must not leak NaNs
        x, xi = 1.0, 2.0
        om, dom = float(self.fam.pair.omega(x)), float(self.fam.pair.domega(x))
        br2 = float(bracket(xi, self.fam.k)) ** 2
        assert float(self.exc.dx_a(0.0, x, xi)) == pytest.approx(2.0 * om * dom * br2,
                                                                 rel=1e-14)
        assert float(self.exc.dxi_a(0.0, x, xi)) == pytest.approx(2.0 * om ** 2 * xi,
                                                                  rel=1e-14)

    def test_derivative_oracles_match_fd(self):
        t, x, xi = 0.21, 1.4, 3.7  # inside the blend for this (x, xi)
        h = 1e-6
        assert (self.exc.a(t + h, x, xi) - self.exc.a(t - h, x, xi)) / (2 * h) \
            == pytest.approx(float(self.exc.dt_a(t, x, xi)), rel=1e-6)
        assert (self.exc.a(t, x + h, xi) - self.exc.a(t, x - h, xi)) / (2 * h) \
            == pytest.approx(float(self.exc.dx_a(t, x, xi)), rel=1e-6)
        assert (self.exc.a(t, x, xi + h) - self.exc.a(t, x, xi - h)) / (2 * h) \
            == pytest.approx(float(self.exc.dxi_a(t, x, xi)), rel=1e-6)


class TestCharRoot:
    def test_square_recovers_symbol(self):
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
        root = char_root(excise(fam))
        rng = np.random.default_rng(6)
        t = rng.uniform(1e-6, 1.0, 300)
        x = rng.uniform(-20, 20, 300)
        xi = rng.uniform(-40, 40, 300)
        tau = root.value(t, x, xi)
        atilde = root.excised.a(t, x, xi)
        assert np.max(np.abs(tau ** 2 - atilde) / np.abs(atilde)) <= 1e-14

    def test_flat_region_value(self):
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
        root = char_root(excise(fam))
        x, xi = 1.0, 4.0
        t = 0.5 / (float(np.asarray(fam.pair.phi(x))) * float(bracket(xi, 2.0)))
        expect = float(np.asarray(fam.pair.omega(x))) * bracket(xi, 2.0)
        assert float(root.value(t, x, xi)) == pytest.approx(expect, rel=1e-15)

    def test_oscillating_speed_root(self):
        # homogeneous family: tau = (2 + sin sqrt t) |xi| outside the excision zone
        fam = counterexample_family("7.3", k=1.0)
        root = char_root(excise(fam))
        t, xi = 0.49, 12.0  # s = t <xi> ~ 5.9 >= 2
        expect = (2.0 + math.sin(math.sqrt(t))) * abs(xi)
        assert float(root.value(t, 0.0, xi)) == pytest.approx(expect, rel=1e-14)
        assert float(root.value(t, 0.0, -xi)) == float(root.value(t, 0.0, xi))

    def test_ellipticity_violation_raises_with_witness(self):
        fam = theorem_coefficient(0.0, 1.25, k=2.0)
        broken = fam.__class__(**{**fam.__dict__, "separable": None,
                                  "a": lambda t, x, xi: -np.ones(np.broadcast(
                                      np.asarray(t), np.asarray(x), np.asarray(xi)).shape)})
        with pytest.raises(EllipticityError) as err:
            char_root(excise(broken))
        assert err.value.witness is not None
        assert len(err.value.witness) == 4

    def test_dt_matches_fd(self):
        fam = theorem_coefficient(0.25, 1.3, k=2.0)
        root = char_root(excise(fam))
        t, x, xi = 0.43, 0.0, 5.0
        h = 1e-7
        fd = (root.value(t + h, x, xi) - root.value(t - h, x, xi)) / (2 * h)
        assert float(fd) == pytest.approx(float(root.dt(t, x, xi)), rel=1e-5)


def _root_d_reference(da, tau):
    # d tau = da / (2 tau) where tau > 0, as CharacteristicRoot first wrote it
    out = np.zeros(np.broadcast(np.asarray(da), np.asarray(tau)).shape)
    np.divide(np.asarray(da, dtype=float), 2.0 * np.asarray(tau, dtype=float), out=out,
              where=np.asarray(tau) > 0.0)
    return out


def _excised_d_reference(exc, t, x, xi):
    # (dt, dx, dxi) of atilde as ExcisedCoefficient first wrote them, one chain rule each
    fam, pair = exc.family, exc.pair
    t, xi = np.asarray(t, dtype=float), np.asarray(xi, dtype=float)
    br = bracket(xi, exc.k)
    phi = np.asarray(pair.phi(x), dtype=float)
    om = np.asarray(pair.omega(x), dtype=float)
    s, ref = t * phi * br, om ** 2 * br ** 2
    c = cut(s)
    with np.errstate(all="ignore"):
        a = fam.a(t, x, xi)
        dc = dcut(s) * phi * br
        dt = np.where(c >= 1.0, 0.0, dc * (ref - a) + (1.0 - c) * fam.dt_a(t, x, xi))
        dc = dcut(s) * t * np.asarray(pair.dphi(x), dtype=float) * br
        dref = 2.0 * om * np.asarray(pair.domega(x), dtype=float) * br ** 2
        dx = np.where(c >= 1.0, dref,
                      dc * (ref - a) + c * dref + (1.0 - c) * fam.dx_a(t, x, xi))
        dc = dcut(s) * t * phi * (xi / br)
        om2 = om ** 2
        dxi = np.where(c >= 1.0, om2 * 2.0 * xi,
                       dc * (ref - a) + c * om2 * 2.0 * xi + (1.0 - c) * fam.dxi_a(t, x, xi))
    return dt, dx, dxi


@pytest.mark.parametrize("fam", [
    theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0),
    example_coefficient(0.5, 0.5, k=2.0), free_wave(1.5, k=40.0),
    excise(theorem_coefficient(0.25, 1.3, pair=poly_pair(0.3, 0.7), k=2.0))],
    ids=["theorem-poly", "example11", "free-wave", "re-excised"])
def test_excised_derivatives_match_reference_formulas_bitwise(fam):
    # one chain rule serves t, x and xi; each keeps its own floating-point grouping
    exc = excise(fam)
    x = np.linspace(-20.0, 20.0, 17)[:, None]
    xi = np.linspace(-40.0, 40.0, 33)[None, :]
    for t in (0.0, 1e-3, 0.05, 0.3, 0.9):
        for got, want in zip((exc.dt_a, exc.dx_a, exc.dxi_a),
                             _excised_d_reference(exc, t, x, xi)):
            assert np.array_equal(got(t, x, xi), want), (got.__name__, t)


def _h_reference(h, t, x, xi):
    # (value, dt) of the H symbol as HSymbol first wrote them, dt through root.dt
    pair, k = h.root.excised.pair, h.root.excised.k
    br = bracket(xi, k)
    s = np.asarray(t, dtype=float) * np.asarray(pair.phi(x), dtype=float) * br
    mask = 1.0 - cut(s / 3.0)
    tau = h.root.value(t, x, xi)
    num = np.asarray(pair.omega(x), dtype=float) * br * mask
    value = np.zeros(np.broadcast(np.asarray(num), np.asarray(tau)).shape)
    np.divide(num, tau, out=value, where=(tau > 0) & (mask > 0))
    dtau = h.root.dt(t, x, xi)
    dmask = -dcut(s / 3.0) * np.asarray(pair.phi(x), dtype=float) * br / 3.0
    num = np.asarray(pair.omega(x), dtype=float) * br
    good = tau > 0
    term = np.zeros(np.broadcast(np.asarray(num * dmask), np.asarray(tau)).shape)
    np.divide(num * dmask, tau, out=term, where=good)
    term2 = np.zeros_like(term)
    np.divide(num * mask * dtau, tau * tau, out=term2, where=good)
    return -0.5j * value, -0.5j * (term - term2)


@pytest.mark.parametrize("fam", [
    theorem_coefficient(0.0, 1.25, k=2.0),
    theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0),
    example_coefficient(0.5, 0.5, k=2.0), free_wave(1.5, k=40.0),
    counterexample_family("7.3", k=1.0)],
    ids=["theorem-constant", "theorem-poly", "example11", "free-wave", "7.3"])
def test_root_and_h_match_reference_formulas_bitwise(fam):
    # the free wave has tau = 0 at xi = 0 once t k >= 2: both guards return 0 there
    root = char_root(excise(fam))
    h = h_symbol(root)
    x = np.linspace(-20.0, 20.0, 17)[:, None]
    xi = np.linspace(-40.0, 40.0, 33)[None, :]
    for t in np.geomspace(5e-4, 0.9, 6):
        tau = root.value(t, x, xi)
        for d, da in ((root.dt, root.excised.dt_a), (root.dx, root.excised.dx_a),
                      (root.dxi, root.excised.dxi_a)):
            assert np.array_equal(d(t, x, xi), _root_d_reference(da(t, x, xi), tau))
        value, dt = _h_reference(h, t, x, xi)
        assert np.array_equal(h.value(t, x, xi), value)
        assert np.array_equal(h.dt(t, x, xi), dt)


def test_excision_parts_formed_once_per_derived_call(monkeypatch):
    # H, its time derivative and the root's read one evaluation of the excision's parts,
    # its cutoff and the family's a, not one per symbol they are built from
    calls = []
    parts = ExcisedCoefficient.parts

    def counted(self, t, x, xi):
        calls.append(1)
        return parts(self, t, x, xi)

    monkeypatch.setattr(ExcisedCoefficient, "parts", counted)
    root = char_root(excise(theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)))
    h = h_symbol(root)
    x, xi = np.linspace(-20.0, 20.0, 17)[:, None], np.linspace(-40.0, 40.0, 33)[None, :]
    exc = root.excised
    for symbol in (h.value, h.dt, root.dt, root.dx, root.dxi, exc.dt_a, exc.dx_a, exc.dxi_a):
        del calls[:]
        symbol(0.3, x, xi)
        assert len(calls) == 1, symbol
    # symbol-report reads tau, d_xi tau, d_x tau and d_t tau on its lattice
    del calls[:]
    root_estimate_report(root, root.excised.family.profile)
    assert len(calls) == 4


class TestHSymbol:
    fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
    root = char_root(excise(fam))
    h = h_symbol(root)

    def test_vanishes_inside_cutoff(self):
        x, xi = 1.0, 4.0
        sfac = float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0))
        assert float(np.abs(self.h.value(2.0 / sfac, x, xi))) == 0.0

    def test_reference_ratio_collapses(self):
        # where atilde = omega^2 <xi>^2 would hold, sigma(H) = -i/2; use the
        # reference family so tau = <xi>_k exactly for all t
        ref = reference_wave(k=2.0)
        hr = h_symbol(char_root(excise(ref)))
        x, xi = 0.0, 10.0
        sfac = float(bracket(xi, 2.0))
        v = hr.value(7.0 / sfac, x, xi)
        assert complex(v) == pytest.approx(-0.5j, rel=1e-14)

    def test_support_disjoint_from_defect(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(1e-6, 1.0, 500)
        x = rng.uniform(-20, 20, 500)
        xi = rng.uniform(-40, 40, 500)
        prod = self.h.value(t, x, xi) * self.root.excised.defect(t, x, xi)
        assert np.max(np.abs(prod)) == 0.0

    def test_bound_by_root_floor(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(1e-6, 1.0, 500)
        x = rng.uniform(-20, 20, 500)
        xi = rng.uniform(-40, 40, 500)
        bound = 0.5 / math.sqrt(self.root.floor)
        assert np.max(np.abs(self.h.value(t, x, xi))) <= bound * (1 + 1e-12)

    def test_dt_matches_fd(self):
        t, x, xi = 0.8, 1.0, 6.0  # inside the H transition for this scale
        h = 1e-7
        fd = (self.h.value(t + h, x, xi) - self.h.value(t - h, x, xi)) / (2 * h)
        assert complex(fd) == pytest.approx(complex(self.h.dt(t, x, xi)), rel=1e-5)


class TestL1Defect:
    fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
    exc = excise(fam)

    def test_zero_for_reference_family(self):
        ref = reference_wave(k=2.0)
        assert l1_defect(ref, excise(ref), 1.0, 5.0) == 0.0

    def test_support_bound(self):
        # integrand is supported below the splitting-like bound
        x, xi = 2.0, 20.0
        sfac = float(np.asarray(self.fam.pair.phi(x))) * float(bracket(xi, 2.0))
        t_supp = (2.0 / sfac) ** (1.0 / (self.fam.q - self.fam.p))
        ts = np.linspace(1.001 * t_supp, 1.0, 64)
        assert np.max(np.abs(self.exc.defect(ts, x, xi))) == 0.0

    def test_large_scale_defect_small(self):
        big = l1_defect(self.fam, self.exc, 100.0, 200.0)
        # window ~ 2/(Phi<xi>) with integrand ~ omega^2 <xi>^2
        assert big <= 2.0 * 1.5 * float(np.asarray(self.fam.pair.omega(100.0))) ** 2 \
            * bracket(200.0, 2.0)

    def test_normalized_defect_monotone_in_scale(self):
        # defect / (omega^2 <xi>_k^2) decreases as Phi <xi>_k grows (10% slack
        # for the oscillatory window average)
        vals = []
        for k in (2.0, 4.0, 8.0, 16.0, 32.0):
            fam = theorem_coefficient(0.0, 1.25, k=k)
            d = l1_defect(fam, excise(fam), 0.0, 0.0)
            vals.append(d / bracket(0.0, k) ** 2)
        for a, b in zip(vals, vals[1:]):
            assert b <= 1.1 * a
        assert vals[-1] < vals[0]

    def test_quadrature_refinement_gate(self):
        quad = TimeQuadrature(panels=8, rtol=1e-12)  # deliberately too coarse
        with pytest.raises(QuadratureError):
            l1_defect(self.fam, self.exc, 0.5, 3.0, quad)

    @pytest.mark.parametrize("settings", [
        {"panels": 0}, {"panels": -4}, {"panels": 2.5}, {"panels": "8"},
        {"rtol": math.nan}, {"rtol": math.inf}, {"rtol": 0.0}, {"rtol": -1e-6}])
    def test_quadrature_rejects_bad_settings(self, settings):
        # no panels would integrate to 0.0, and a NaN rtol passes any refinement check
        with pytest.raises(ValueError):
            TimeQuadrature(**settings)


class TestFitting:
    def test_power_law_recovers_exponent(self):
        t = np.geomspace(1e-4, 1.0, 40)
        slope, resid = fit_power_law(t, 3.0 * t ** -1.25)
        assert slope == pytest.approx(-1.25, abs=1e-12)
        assert resid <= 1e-12

    def test_power_law_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([0.0]))

    def test_class_report_unit_constant(self):
        fam = theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=2.0)
        pair = fam.pair

        derivs = {(0, 0): lambda t, x, xi: np.asarray(pair.omega(x)) * bracket(xi, 2.0)
                  + 0.0 * np.asarray(t)}
        rep = symbol_class_report(derivs, 1.0, 1.0, fam.profile, pair, 2.0, graded_lattice(1.0))
        entry = rep.entry("all", 0, 0)
        assert entry.constant == pytest.approx(1.0, rel=1e-12)
        assert entry.t_exponent == pytest.approx(0.0, abs=1e-12)

    def test_root_report_exponents(self):
        for p, q in ((0.0, 1.25), (0.25, 1.3)):
            fam = theorem_coefficient(p, q, k=2.0)
            rep = root_estimate_report(char_root(excise(fam)), fam.profile)
            assert abs(rep.exterior_exponent - p / 2.0) <= 0.1
            assert abs(rep.interior_exponent) <= 0.1
            assert rep.dt_tau_flat_max <= 1e-14

    def test_report_serializes(self):
        import json

        fam = theorem_coefficient(0.0, 1.25, k=2.0)
        rep = root_estimate_report(char_root(excise(fam)), fam.profile)
        payload = json.loads(json.dumps(rep.fit.as_dict()))
        assert {"zone", "alpha", "beta", "constant", "t_exponent"} <= set(payload["entries"][0])


# Derivatives for a class report: order (0, 0) depends on xi alone (not full-shape on open
# grids), order (1, 0) is infinite at |x| > 50 and t < 1e-2 (a witness)
_REPORT_DERIVATIVES = {
    (0, 0): lambda t, x, xi: bracket(xi, 2.0),
    (1, 0): lambda t, x, xi: np.where((np.abs(x) > 50.0) & (t < 1e-2), np.inf,
                                      t ** -0.3 * np.ones_like(xi)),
}


class TestOpenLattice:
    """Evaluation on ``SampleLattice.mesh()``'s open grids equals the dense lattice's."""

    fam = theorem_coefficient(0.25, 1.25, pair=poly_pair(0.3, 0.7), k=2.0)

    def test_mesh_is_open(self):
        lat = graded_lattice(1.0, nt=5, nx=7, nxi=9)
        tt, xx, ww = lat.mesh()
        assert tt.shape == (lat.t.size, 1, 1) and xx.shape == (1, lat.x.size, 1)
        assert ww.shape == (1, 1, lat.xi.size)
        assert np.array_equal(tt.ravel(), lat.t) and np.array_equal(ww.ravel(), lat.xi)

    def test_point_inverts_the_flat_index(self):
        lat = graded_lattice(1.0, nt=5, nx=7, nxi=9)
        flat = np.ravel_multi_index((3, 1, 6), (lat.t.size, lat.x.size, lat.xi.size))
        assert lat.point(flat) == (lat.t[3], lat.x[1], lat.xi[6])

    @pytest.mark.parametrize("fam", [
        theorem_coefficient(0.25, 1.25, pair=poly_pair(0.3, 0.7), k=2.0),
        free_wave(1.5), counterexample_family("7.3", k=1.0), example_coefficient(0.5, 0.5)],
        ids=lambda f: f.label)
    def test_char_root_floor_matches_dense(self, fam, on_dense_mesh):
        dense = on_dense_mesh(lambda: char_root(excise(fam)).floor)
        assert repr(char_root(excise(fam)).floor) == repr(dense)

    def test_ellipticity_witness_matches_dense(self, on_dense_mesh):
        # negative only for x > 10 and xi < -50, so the witness is not the first sample
        broken = self.fam.__class__(**{**self.fam.__dict__, "separable": None,
                                       "a": lambda t, x, xi: self.fam.a(t, x, xi) * np.where(
                                           (x > 10.0) & (xi < -50.0), -1.0 - t, 1.0)})

        def witness():
            with pytest.raises(EllipticityError) as err:
                char_root(excise(broken))
            return err.value.witness

        dense, open_ = on_dense_mesh(witness), witness()
        assert repr(open_) == repr(dense)
        t, x, xi, floor = open_
        assert x > 10.0 and xi < -50.0 and floor < 0.0
        ref = float(np.asarray(self.fam.pair.omega(x))) ** 2 * bracket(xi, 2.0) ** 2
        # scalar and array evaluation may round differently
        assert float(excise(broken).a(t, x, xi)) / ref == pytest.approx(floor, rel=1e-14)

    def test_class_report_matches_dense(self, on_dense_mesh):
        lat = graded_lattice(1.0)
        args = (_REPORT_DERIVATIVES, 1.0, 0.0, self.fam.profile, self.fam.pair, 2.0, lat)
        dense = on_dense_mesh(lambda: symbol_class_report(*args))
        rep = symbol_class_report(*args)
        assert repr(rep.entries) == repr(dense.entries) and rep.meta == dense.meta
        witness = rep.entry("all", 1, 0).witness
        assert abs(witness[1]) > 50.0
        assert np.isinf(_REPORT_DERIVATIVES[(1, 0)](*witness))

    @pytest.mark.parametrize("fam", [
        theorem_coefficient(0.25, 1.25, pair=poly_pair(0.3, 0.7), k=2.0),
        theorem_coefficient(0.0, 1.25, pair=poly_pair(0.5, 0.5), k=4.0)],
        ids=lambda f: f.label)
    def test_root_report_matches_dense(self, fam, on_dense_mesh):
        root = char_root(excise(fam))
        dense = on_dense_mesh(lambda: root_estimate_report(root, fam.profile))
        assert repr(root_estimate_report(root, fam.profile)) == repr(dense)
