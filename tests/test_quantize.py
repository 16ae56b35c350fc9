"""DFT conventions, multipliers, Kohn-Nirenberg reductions, loss operator,
and weighted Sobolev norms."""

import numpy as np
import pytest

from singhyp.quantize import (GridSpec, OverflowGuardError, SobolevIndex, _fft_multiply,
                              _multiplier_values, apply_kn, apply_multiplier, dft_forward,
                              dft_inverse, kn_band, l2_norm, loss_operator, loss_symbol,
                              sobolev_norm)
from singhyp.structure import bracket, constant_pair, poly_pair
from singhyp.analysis import random_trig_poly


@pytest.fixture
def grid():
    return GridSpec(L=np.pi, N=128, k=1.0)


@pytest.fixture
def rand_field(grid):
    rng = np.random.default_rng(5)
    return rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(L=1.0, N=100)

    @pytest.mark.parametrize("N", [256.0, "256", None])
    def test_rejects_non_integer_size_naming_n(self, N):
        with pytest.raises(ValueError, match="N must be"):
            GridSpec(L=1.0, N=N)

    def test_accepts_numpy_integer_size(self):
        assert GridSpec(L=1.0, N=np.int64(256)).x.size == 256

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            GridSpec(L=1.0, N=16, k=0.5)

    @pytest.mark.parametrize("field, L, k", [("L", np.inf, 1.0), ("L", np.nan, 1.0),
                                             ("k", 1.0, np.inf), ("k", 1.0, np.nan)])
    def test_rejects_non_finite_length_and_shift(self, field, L, k):
        # inf passes "> 0" and ">= 1", and would give an infinite dx and NaN frequencies
        with pytest.raises(ValueError, match=f" {field} must be finite"):
            GridSpec(L=L, N=16, k=k)

    def test_frequency_layout(self, grid):
        assert grid.xi[0] == 0.0
        assert grid.xi[1] == pytest.approx(np.pi / grid.L)
        # Nyquist mode carries the negative frequency -N/2
        assert grid.xi[grid.N // 2] == pytest.approx(-(np.pi / grid.L) * (grid.N // 2))
        # the odd-multiplier frequencies drop only that convention-bound sign
        odd = np.array(grid.xi)
        odd[grid.N // 2] = 0.0
        assert np.array_equal(grid.xi_odd, odd)


class TestDft:
    def test_constant_field_single_coefficient(self, grid):
        c = dft_forward(grid, np.ones(grid.N))
        assert abs(c[0] - 2.0 * grid.L) <= 1e-12
        assert np.max(np.abs(c[1:])) <= 1e-12

    def test_single_mode_coefficient(self, grid):
        c = dft_forward(grid, np.exp(1j * 7 * grid.x))
        assert abs(c[7] - 2.0 * grid.L) <= 1e-12 * 2.0 * grid.L
        mask = np.ones(grid.N, dtype=bool)
        mask[7] = False
        assert np.max(np.abs(c[mask])) <= 1e-13 * 2.0 * grid.L

    def test_roundtrip_identity(self, grid, rand_field):
        back = dft_inverse(grid, dft_forward(grid, rand_field))
        assert np.max(np.abs(back - rand_field)) <= 1e-13 * np.max(np.abs(rand_field))

    def test_parseval(self, grid, rand_field):
        c = dft_forward(grid, rand_field)
        lhs = grid.dx * np.sum(np.abs(rand_field) ** 2)
        rhs = np.sum(np.abs(c) ** 2) / (2.0 * grid.L)
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_size_mismatch(self, grid):
        with pytest.raises(ValueError):
            dft_forward(grid, np.ones(grid.N + 1))


class TestMultiplier:
    def test_identity(self, grid, rand_field):
        out = apply_multiplier(grid, lambda xi: np.ones_like(xi), rand_field)
        assert np.max(np.abs(out - rand_field)) <= 1e-13 * np.max(np.abs(rand_field))

    def test_eigenfunction(self, grid):
        u = np.exp(1j * 5 * grid.x)
        out = apply_multiplier(grid, lambda xi: bracket(xi, grid.k) ** 2, u)
        assert np.allclose(out, (grid.k ** 2 + 25.0) * u, rtol=1e-12)

    def test_derivative_matches_finite_difference(self, grid):
        u = np.exp(np.cos(grid.x))  # smooth periodic
        spectral = apply_multiplier(grid, 1j * grid.xi_odd, u)
        fd = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * grid.dx)
        # centered difference is O(dx^2); spectral is exact for this bandwidth
        assert np.max(np.abs(spectral.real - fd)) <= 0.7 * grid.dx ** 2 * np.max(np.abs(u))
        exact = -np.sin(grid.x) * u
        assert np.max(np.abs(spectral - exact)) <= 1e-11

    def test_multipliers_compose(self, grid, rand_field):
        m1 = lambda xi: 1.0 / bracket(xi, 2.0)
        m2 = lambda xi: bracket(xi, 2.0) ** 2 + 0j
        seq = apply_multiplier(grid, m1, apply_multiplier(grid, m2, rand_field))
        joint = apply_multiplier(grid, lambda xi: m1(xi) * m2(xi), rand_field)
        assert np.max(np.abs(seq - joint)) <= 1e-12 * np.max(np.abs(joint))

    def test_overflow_guard(self, grid, rand_field):
        with np.errstate(over="ignore"), pytest.raises(OverflowGuardError):
            apply_multiplier(grid, lambda xi: np.exp(20.0 * bracket(xi, 1.0)), rand_field)

    def test_values_are_a_read_only_copy(self, grid):
        m = np.ones(grid.N, dtype=complex)
        vals = _multiplier_values(grid, m)
        assert not vals.flags.writeable and vals is not m and m.flags.writeable
        assert not _multiplier_values(grid, 2.0).flags.writeable

    @pytest.mark.parametrize("L", [8.0, np.pi], ids=["L8", "Lpi"])
    def test_fft_pair_is_the_dft_pair(self, rand_field, L):
        # the (-1)^j phases square to 1 and dx cancels: bitwise when dx = 1/8 is a power of
        # two, to rounding when dx = pi/64 is not
        grid = GridSpec(L=L, N=128, k=1.0)
        m = bracket(grid.xi, 1.0) ** 1.5 + 1j * grid.xi_odd
        got = _fft_multiply(m, rand_field)
        want = dft_inverse(grid, dft_forward(grid, rand_field) * m)
        assert np.array_equal(apply_multiplier(grid, m, rand_field), got)
        if L == 8.0:
            assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestKohnNirenberg:
    def test_reduces_to_multiplier(self, grid, rand_field):
        m = lambda xi: bracket(xi, 1.0) ** 1.5 + 0j
        kn = apply_kn(grid, lambda x, xi: m(xi) + 0.0 * x, rand_field)
        ref = apply_multiplier(grid, m, rand_field)
        assert np.max(np.abs(kn - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_reduces_to_multiplication(self, grid, rand_field):
        g = lambda x: 2.0 + np.sin(x)
        kn = apply_kn(grid, lambda x, xi: g(x) + 0.0 * xi, rand_field)
        ref = g(grid.x) * rand_field
        assert np.max(np.abs(kn - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_product_symbol_orders_multiplier_first(self, grid, rand_field):
        g = lambda x: np.cos(x)
        m = lambda xi: (1j * xi) ** 2
        kn = apply_kn(grid, lambda x, xi: g(x) * m(xi), rand_field)
        ref = g(grid.x) * apply_multiplier(grid, m, rand_field)
        assert np.max(np.abs(kn - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_linearity(self, grid):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        sym = lambda x, xi: np.cos(x) * bracket(xi, 1.0)
        lhs = apply_kn(grid, sym, 2.0 * u + 3j * v)
        rhs = 2.0 * apply_kn(grid, sym, u) + 3j * apply_kn(grid, sym, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_band_layout_matches_dft_matrix_product(self, grid, rand_field, kind):
        # c[cols] @ kn_band(...) / (2L) is the cols part of the Kohn-Nirenberg product
        # written with explicit DFT matrices, for a slice, the two runs of a symmetric
        # xi-window in FFT layout, and no columns at all (the lattice is then 0.0)
        x, xi, N = grid.x, grid.xi, grid.N
        c = grid.dx * np.exp(-1j * np.outer(xi, x)) @ rand_field
        full = np.cos(x)[:, None] * bracket(xi, 1.0)[None, :] + np.sin(xi / 3.0)[None, :]
        if kind == "complex":
            full = full * np.exp(1j * np.outer(x, xi) / 7.0)
        for cols in (slice(5, 40), np.r_[3:20, N - 19:N - 2], np.array([], dtype=int)):
            xi_band = xi[cols]
            lattice = full[:, cols] if xi_band.size else 0.0
            got = c[cols] @ kn_band(grid, lattice, cols) / (2.0 * grid.L)
            want = (np.exp(1j * np.outer(x, xi_band)) * full[:, cols]) @ c[cols] / (2.0 * grid.L)
            assert got.shape == (N,)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_band_rejects_non_finite_lattice(self, grid, bad):
        lattice = np.ones((grid.N, 4), dtype=complex)
        lattice[7, 2] = bad
        with pytest.raises(OverflowGuardError):
            kn_band(grid, lattice, slice(0, 4))
        with pytest.raises(OverflowGuardError):
            kn_band(grid, lattice.real, np.r_[0, 1, grid.N - 2, grid.N - 1])

    def test_unit_symbol_is_identity(self, grid, rand_field):
        out = apply_kn(grid, lambda x, xi: 1.0 + 0.0 * x + 0.0 * xi, rand_field)
        assert np.max(np.abs(out - rand_field)) <= 1e-12 * np.max(np.abs(rand_field))


# every public operator of a grid field, which takes a field or a batch of fields along the
# last axis, its size checked in one place
_FIELD_OPERATORS = {
    "dft_forward": dft_forward,
    "dft_inverse": dft_inverse,
    "apply_multiplier": lambda grid, u: apply_multiplier(grid, bracket(grid.xi, 2.0) ** 1.5
                                                         + 1j * grid.xi_odd, u),
    "apply_kn": lambda grid, u: apply_kn(grid, lambda x, xi: np.cos(x) * bracket(xi, 1.0), u),
    "loss_operator-constant": lambda grid, u: loss_operator(grid, constant_pair(), 0.3, 3.0, u),
    "loss_operator-poly": lambda grid, u: loss_operator(grid, poly_pair(0.5, 0.5), 0.3, 3.0, u),
    "loss_operator-eps0": lambda grid, u: loss_operator(grid, poly_pair(0.5, 0.5), 0.0, 3.0, u),
}


class TestFieldBatches:
    @pytest.mark.parametrize("name", list(_FIELD_OPERATORS))
    def test_batch_is_row_by_row(self, grid, name):
        op = _FIELD_OPERATORS[name]
        rng = np.random.default_rng(23)
        batch = rng.standard_normal((2, grid.N)) + 1j * rng.standard_normal((2, grid.N))
        got = op(grid, batch)
        assert got.shape == batch.shape
        for row, u in zip(got, batch):
            want = op(grid, u)
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", list(_FIELD_OPERATORS))
    def test_wrong_size_names_it(self, grid, name):
        u = np.ones(grid.N + 1, dtype=complex)
        with pytest.raises(ValueError, match=rf"size \({grid.N + 1},\) does not match grid "
                                             rf"N={grid.N}"):
            _FIELD_OPERATORS[name](grid, u)


class TestLossOperator:
    def test_eps_zero_identity(self, grid, rand_field):
        out = loss_operator(grid, poly_pair(0.5, 0.5), 0.0, 3.0, rand_field)
        assert np.max(np.abs(out - rand_field)) <= 1e-13 * np.max(np.abs(rand_field))

    def test_constant_pair_reduces_to_multiplier(self, grid, rand_field):
        out = loss_operator(grid, constant_pair(), 0.3, 3.0, rand_field)
        ref = apply_multiplier(grid, np.exp(0.3 * bracket(grid.xi, grid.k) ** (1.0 / 3.0)),
                               rand_field)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_small_eps_derivative_oracle(self, grid):
        # (L(eps)u - u)/eps -> Op((Phi <xi>)^(1/sigma)) u, Richardson-checked
        pair = poly_pair(0.5, 0.5)
        u = np.asarray(random_trig_poly(8, seed=1)(grid.x), dtype=complex)
        theta = apply_kn(grid, (loss_symbol(grid, pair, 1.0, 3.0)), u)  # linear symbol
        scale = l2_norm(grid, theta)

        def ratio(eps):
            return (loss_operator(grid, pair, eps, 3.0, u) - u) / eps

        err4 = l2_norm(grid, ratio(1e-4) - theta) / scale
        err5 = l2_norm(grid, ratio(1e-5) - theta) / scale
        rich = (10.0 * ratio(1e-5) - ratio(1e-4)) / 9.0
        err_rich = l2_norm(grid, rich - theta) / scale
        assert err5 < err4 < 1e-2
        assert err_rich < err4 / 5.0

    def test_overflow_guard_names_exponent(self, grid, rand_field):
        with pytest.raises(OverflowGuardError, match="exponent"):
            loss_operator(grid, poly_pair(0.5, 0.5), 500.0, 3.0, rand_field)

    def test_invertibility_improves_with_k(self):
        pair = poly_pair(0.5, 0.5)
        band = random_trig_poly(8, seed=3)
        errs = {}
        for k in (4.0, 64.0):
            gk = GridSpec(L=np.pi, N=128, k=k)
            u = np.asarray(band(gk.x), dtype=complex)
            fwd = loss_operator(gk, pair, 0.4, 3.0, u)
            back = apply_kn(gk, np.exp(-loss_symbol(gk, pair, 0.4, 3.0)), fwd)
            errs[k] = l2_norm(gk, back - u) / l2_norm(gk, u)
        assert errs[64.0] < errs[4.0]


class TestSobolevNorm:
    def test_reduces_to_l2(self, grid, rand_field):
        idx = SobolevIndex(0.0, 0.0, 0.0, 3.0)
        assert sobolev_norm(grid, rand_field, idx, poly_pair(0.5, 1.0)) \
            == pytest.approx(l2_norm(grid, rand_field), rel=1e-13)

    def test_single_mode_closed_form(self, grid):
        u = np.exp(1j * 6 * grid.x)
        idx = SobolevIndex(2.0, 0.0, 0.25, 3.0)
        expect = np.sqrt(2 * grid.L) * bracket(6.0, grid.k) ** 2 \
            * np.exp(0.25 * bracket(6.0, grid.k) ** (1.0 / 3.0))
        assert sobolev_norm(grid, u, idx, constant_pair()) == pytest.approx(expect, rel=1e-10)

    def test_zero_decay_index_ignores_pair(self, grid, rand_field):
        # s2 = 0, eps = 0: Phi never enters
        idx = SobolevIndex(1.5, 0.0, 0.0, 3.0)
        a = sobolev_norm(grid, rand_field, idx, poly_pair(0.5, 1.0))
        b = l2_norm(grid, apply_multiplier(grid, bracket(grid.xi, grid.k) ** 1.5, rand_field))
        assert a == pytest.approx(b, rel=1e-13)

    def test_monotone_in_s1_and_eps(self, grid):
        rng = np.random.default_rng(17)
        pair = poly_pair(0.5, 1.0)
        for _ in range(5):
            u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
            base = sobolev_norm(grid, u, SobolevIndex(1.0, 0.0, 0.05, 3.0), pair)
            up_s = sobolev_norm(grid, u, SobolevIndex(1.5, 0.0, 0.05, 3.0), pair)
            up_e = sobolev_norm(grid, u, SobolevIndex(1.0, 0.0, 0.1, 3.0), pair)
            assert up_s >= base * (1.0 - 1e-12)
            assert up_e >= base * (1.0 - 1e-12)

    def test_uses_grid_k(self, grid, rand_field):
        # the index carries no k: <D>_k and the loss weight read the grid's own
        idx = SobolevIndex(1.0, 0.0, 0.2, 3.0)
        for k in (1.0, 4.0):
            gk = GridSpec(L=grid.L, N=grid.N, k=k)
            want = l2_norm(gk, apply_multiplier(gk, bracket(gk.xi, k), loss_operator(
                gk, constant_pair(), 0.2, 3.0, rand_field)))
            assert sobolev_norm(gk, rand_field, idx, constant_pair()) == want
