"""Profile algebra, structure pairs, zones and the loss scale."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singhyp.structure import (ProfileError, Zone, bracket, classify_zone, constant_pair,
                               lambda_loss, make_profile, planck, poly_pair, time_split)


class TestMakeProfile:
    def test_derived_quantities(self):
        # direct evaluation of 1/sigma = (q-1+delta)/(q-p), delta* = min(delta, 1-r, 1-p)
        pr = make_profile(p=0.0, q=1.25, r=0.0, sigma=3.0, T=1.0)
        assert pr.delta == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert pr.gamma == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert pr.delta_star == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_sigma_window_is_half_open(self):
        # (q-p)/(q-1) = 5 exactly: sigma = 5 must be rejected
        with pytest.raises(ProfileError, match="sigma"):
            make_profile(p=0.0, q=1.25, r=0.0, sigma=5.0, T=1.0)

    def test_oscillating_example_exponents_rejected(self):
        # (q-p)/(q-1) = 3 exactly for (p, q) = (1/4, 11/8): no admissible sigma
        with pytest.raises(ProfileError, match="sigma"):
            make_profile(p=0.25, q=11.0 / 8.0, r=0.0, sigma=3.0, T=1.0)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(p=0.5, q=1.4, r=0.0, sigma=3.0, T=1.0), "p must"),
        (dict(p=0.0, q=1.5, r=0.0, sigma=3.0, T=1.0), "q must"),
        (dict(p=0.3, q=1.2, r=0.0, sigma=3.0, T=1.0), "p <= q - 1"),
        (dict(p=0.0, q=1.25, r=1.0, sigma=3.0, T=1.0), "r must"),
        (dict(p=0.0, q=1.25, r=0.0, sigma=3.0, T=0.0), "T must"),
        (dict(p=0.0, q=1.25, r=0.0, sigma=3.0, T=float("inf")), "T must be positive and finite"),
    ])
    def test_named_rejections(self, kwargs, match):
        with pytest.raises(ProfileError, match=match):
            make_profile(**kwargs)

    @given(q=st.floats(1.01, 1.49), frac=st.floats(0.0, 0.99), r=st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_dual_formulas_agree(self, q, frac, r):
        p = frac * min(q - 1.0, 0.4999)
        cap = (q - p) / (q - 1.0)
        if cap <= 3.0:
            return
        sigma = 3.0 + 0.5 * (cap - 3.0)
        pr = make_profile(p, q, r, sigma, 1.0)
        assert abs(pr.gamma - (1.0 - pr.delta - pr.p) / (pr.q - pr.p)) <= 1e-12
        assert 0.0 < pr.delta < 1.0
        assert pr.delta_star <= pr.delta


class TestPlanckAndSplit:
    def test_planck_identity_cases(self):
        pair = constant_pair()
        assert planck(0.0, 0.0, pair, 1.0) == pytest.approx(1.0)
        assert planck(0.0, np.sqrt(3.0), pair, 1.0) == pytest.approx(0.5)

    def test_planck_defining_formula(self):
        pair = poly_pair(0.5, 1.0)
        x = 3.0
        xi = np.sqrt((10.0 / float(pair.phi(x))) ** 2 - 4.0)  # Phi * <xi>_2 = 10
        assert planck(x, xi, pair, 2.0) == pytest.approx(0.1, rel=1e-14)

    def test_planck_range(self):
        pair = poly_pair(0.5, 1.0)
        rng = np.random.default_rng(0)
        x, xi = rng.uniform(-50, 50, 500), rng.uniform(-100, 100, 500)
        h = planck(x, xi, pair, 1.0)
        assert np.all((h > 0.0) & (h <= 1.0))

    def test_time_split_trivial_one(self):
        pr = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
        pair = constant_pair()
        # Phi <xi>_k = 2 with N = 2 gives t = 1 regardless of q - p
        xi = np.sqrt(3.0)
        assert time_split(0.0, xi, 2.0, pr, pair, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert time_split(0.0, 0.0, 1.0, pr, pair, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_time_split_derived_value(self):
        # N=2, Phi<xi>=32, q-p=5/4: t = (1/16)^(4/5) = 2^(-16/5)
        pr = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
        pair = constant_pair()
        xi = np.sqrt(32.0 ** 2 - 1.0)
        t = time_split(0.0, xi, 2.0, pr, pair, 1.0)
        assert t == pytest.approx(2.0 ** (-16.0 / 5.0), rel=1e-13)
        assert t ** (pr.q - pr.p) * bracket(xi, 1.0) == pytest.approx(2.0, rel=1e-12)


class TestZones:
    pr = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)
    pair = poly_pair(0.5, 1.0)

    def test_t_zero_is_interior(self):
        assert classify_zone(0.0, 5.0, 5.0, 2.0, self.pr, self.pair, 1.0) == Zone.INTERIOR

    def test_late_time_is_exterior(self):
        assert classify_zone(0.99, 50.0, 50.0, 2.0, self.pr, self.pair, 1.0) == Zone.EXTERIOR

    def test_boundary_goes_to_core(self):
        assert classify_zone(0.5, 1.0, 1.0, 2.0, self.pr, self.pair, 1.0) == Zone.CORE

    @given(t=st.floats(0.0, 1.0), x=st.floats(-30, 30), xi=st.floats(-60, 60),
           n=st.floats(0.5, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_partition_and_split_consistency(self, t, x, xi, n):
        code = classify_zone(t, x, xi, n, self.pr, self.pair, 1.0)
        if abs(x) + abs(xi) <= n:
            assert code == Zone.CORE
        else:
            ts = time_split(x, xi, n, self.pr, self.pair, 1.0)
            assert code == (Zone.INTERIOR if t <= ts else Zone.EXTERIOR)

    @given(t=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0), x=st.floats(-30, 30),
           xi=st.floats(2.1, 60))
    @settings(max_examples=120, deadline=None)
    def test_interior_monotone_in_time(self, t, frac, x, xi):
        if classify_zone(t, x, xi, 2.0, self.pr, self.pair, 1.0) == Zone.INTERIOR:
            assert classify_zone(frac * t, x, xi, 2.0, self.pr, self.pair, 1.0) \
                == Zone.INTERIOR


class TestLossScale:
    pr = make_profile(0.0, 1.25, 0.0, 3.0, 1.0)

    def test_vanishes_at_horizon(self):
        assert lambda_loss(1.0, 3.0, self.pr) == 0.0

    def test_derived_initial_value(self):
        # lambda T^(delta*) / delta* with delta* = 1/6, T = 1
        assert lambda_loss(0.0, 1.0, self.pr) == pytest.approx(6.0, rel=1e-14)

    def test_linear_in_lambda_and_decreasing(self):
        ts = np.linspace(0.0, 1.0, 33)
        v1 = lambda_loss(ts, 1.0, self.pr)
        v2 = lambda_loss(ts, 2.0, self.pr)
        assert np.allclose(v2, 2.0 * v1, rtol=1e-14)
        assert np.all(np.diff(v1) < 0.0)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            lambda_loss(0.5, 0.0, self.pr)
