"""Self-test of the benchmark at tiny problem sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

import hostprobe
import reference
import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    cls = WORKLOADS[name]
    return cls(**cls.TINY)


def metric_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    result, samples = run.run(tiny(name), seed=3, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert metric_units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    assert len(samples["setup_s"]) == 2  # one before and one after the operation

    result, samples = run.run(tiny(name), seed=3, seconds=0.0, trace=True)
    assert result["correct"], samples["problems"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert metric_units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _layer(name, seed=5):
    result, _ = run.run(tiny(name), seed=seed, seconds=0.0, trace=True)
    assert result["correct"]
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_layer_counts_pin_the_operator_paths():
    spectral = _layer("spectral_ce")
    assert spectral["quantize.apply_kn.calls"] == 0
    assert spectral["symbols.lattice_evals"] == 0
    assert spectral["solver.rhs.calls"] == 4 * spectral["solver.substeps"]
    assert spectral["quantize.ffts_per_rhs"] == 4.0  # b1 present: two multiplier pairs

    excised = _layer("excised_dense")
    assert excised["quantize.apply_kn.calls"] == excised["solver.rhs.calls"]
    assert excised["quantize.apply_multiplier.calls"] == 0
    assert 0.0 < excised["symbols.blend_window_share"] < 1.0
    assert excised["symbols.lattice_repeat_ratio"] > 0.0

    certify = _layer("certify_xdep")
    assert certify["solver.system_rhs.calls"] == certify["solver.kn_per_system_rhs.base"] > 0
    assert certify["solver.kn_per_system_rhs"] == 33.0
    assert certify["quantize.loss_operator.calls"] > 0


class _Corrupted:
    """A workload whose library scales every operator result by ``1 + 1e-3``."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def build(self, sh, seed):
        state = self.inner.build(sh, seed)
        for name in ("apply_kn", "apply_multiplier"):
            orig = getattr(sh.solver, name)
            setattr(sh.solver, name, lambda *a, _f=orig, **kw: (1.0 + 1e-3) * _f(*a, **kw))
        return state


class _Raising(_Corrupted):
    def op(self, sh, state):
        raise ArithmeticError("deliberate")


@pytest.mark.parametrize("wrapper", [_Corrupted, _Raising])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bad_operation_counts_as_failed(name, wrapper):
    result, _ = run.run(wrapper(tiny(name)), seed=3, seconds=0.0, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]


def test_references_agree_with_library_closed_forms():
    sh = run.import_library()
    for m in range(5):
        assert np.allclose(reference.finite_loss_coefficients(m),
                           sh.counterexample_coefficients(m), rtol=1e-14, atol=0.0)
    u0 = sh.random_trig_poly(8, seed=9)
    x = np.linspace(-np.pi, np.pi, 17)
    for t in (0.0, 0.3, 1.0):
        want = sh.closed_form("7.3", 0, u0)
        got = reference.oscillating_speed_solution(u0, t, x)
        assert np.allclose(got[0], want.u(t, x)) and np.allclose(got[1], want.ut(t, x))
        want = sh.closed_form("7.1", 3, u0)
        got = reference.finite_loss_solution(u0, 3, t, x)
        assert np.allclose(got[0], want.u(t, x)) and np.allclose(got[1], want.ut(t, x))


def test_reference_kn_matches_library_quantization():
    sh = run.import_library()
    grid = sh.GridSpec(L=8.0, N=32, k=4.0)
    lat = reference.Lattice(grid.L, grid.N)
    u = np.random.default_rng(0).standard_normal(grid.N) + 0j
    assert np.allclose(lat.x, grid.x, rtol=0.0, atol=1e-14)
    symbol = lambda x, xi: np.hypot(1.0, x) * (16.0 + xi ** 2)
    got = lat.kn(symbol(lat.X, lat.XI), u)
    assert lat.rel_err(got, sh.apply_kn(grid, symbol, u)) < 1e-12


def test_probe_scaling_removes_kernel_calls_and_host_speed():
    probe = hostprobe.HostProbe()
    ref = hostprobe.REFERENCE_S
    # a host at half the reference speed: kernel calls take twice the reference
    probe.samples = [(float(end), 2.0 * ref) for end in range(100)]
    # [10, 50] holds 41 calls; the rest of its 40 s is work, which takes half as long
    assert probe.scaled(10.0, 50.0) == pytest.approx((40.0 - 41 * 2.0 * ref) / 2.0)
    # too short to hold NEAREST calls: the nearest ones set the speed
    probe.samples[20:35] = [(float(end), 4.0 * ref) for end in range(20, 35)]
    assert probe.scaled(27.1, 27.2) == pytest.approx(0.1 / 4.0)


def test_nearest_ancestor():
    parent = np.array([-1, 0, 1, 2, 0, 4])
    target = np.array([True, False, True, False, False, False])
    assert tracing._nearest_ancestor(parent, target).tolist() == [-1, 0, 0, 2, 0, 0]


def test_benchmark_json_matches_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [(name, unit) for name, unit, _ in tracing.LAYER_METRICS]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
