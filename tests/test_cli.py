"""Config validation, experiment runs, artifact contracts, determinism."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from singhyp.acceptance import CriterionResult
from singhyp.cli import ConfigError, RunConfig, main, run
from singhyp.runio import write_json, write_trajectory
from singhyp.quantize import GridSpec
from singhyp.symbols import CoefficientFamily


BASE = {
    "experiment": "zones-dump",
    "grid": {"L": 8.0, "N": 64, "k": 2.0},
    "profile": {"p": 0.0, "q": 1.25, "r": 0.0, "sigma": 3.0, "T": 1.0},
}


class TestRunConfig:
    def test_valid_config_builds(self):
        cfg = RunConfig(dict(BASE))
        assert cfg.experiment == "zones-dump"
        assert cfg.profile.delta == pytest.approx(1.0 / 6.0)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig({**BASE, "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="grid"):
            RunConfig({**BASE, "grid": {"L": 8.0, "night": 1}})

    def test_sigma_two_cites_inequality(self):
        with pytest.raises(ConfigError, match="sigma >= 3"):
            RunConfig({**BASE, "profile": {"sigma": 2.0}})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            RunConfig({**BASE, "experiment": "teleport"})

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            RunConfig({**BASE, "family": {"id": "mystery"}})

    def test_largest_sizes_build(self):
        # the upper bounds of the size fields are accepted
        cfg = RunConfig({**BASE, "grid": {"N": 2**14}, "mesh": {"M": 2**20},
                         "data": {"kind": "trig", "modes": 2**13},
                         "zones": {"nt": 2**6, "nx": 2**7, "nxi": 2**7}})
        assert (cfg.grid.N, cfg.mesh_m, cfg.data["modes"]) == (2**14, 2**20, 2**13)


class TestRun:
    def test_invalid_config_status_2(self, tmp_path, capsys):
        assert run({**BASE, "profile": {"sigma": 2.0}}, tmp_path) == 2
        assert "sigma >= 3" in capsys.readouterr().err

    def test_zones_dump(self, tmp_path):
        status = run(dict(BASE), tmp_path)
        assert status == 0
        assert (tmp_path / "zones.csv").exists()
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["verdicts"][0]["name"] == "interior-fraction-decreasing"
        assert verdict["verdicts"][0]["pass"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {e["path"] for e in manifest["artifacts"]}
        assert {"zones.csv", "interior_fraction.csv", "verdict.json"} <= listed

    def test_verify_counterexamples(self, tmp_path):
        cfg = {"experiment": "verify-counterexamples",
               "grid": {"L": float(np.pi), "N": 256, "k": 1.0}}
        assert run(cfg, tmp_path) == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        names = [v["name"] for v in verdict["verdicts"]]
        assert names == [f"counterexample-7.{i}" for i in (1, 2, 3, 4)]
        assert all(v["pass"] for v in verdict["verdicts"])

    def test_solve_writes_snapshots(self, tmp_path):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 128}, "family": {"id": "free-wave"},
               "data": {"kind": "bump", "width": 0.5},
               "output_times": [0.0, 0.5, 1.0]}
        assert run(cfg, tmp_path) == 0
        snaps = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(snaps) == 3
        header = snaps[0].read_text().splitlines()[0]
        assert header == "x,re_u,im_u,re_ut,im_ut"
        stats = json.loads((tmp_path / "solve_stats.json").read_text())["stats"]
        assert stats["space"] == "fourier" and stats["requested_times"] == [0.0, 0.5, 1.0]
        assert (stats["operator"], stats["lattice_columns"]) == ("separable", 0)
        assert (stats["lattice_evals"], stats["halving_steps"]) == (0, {})
        assert stats["substeps"] == 128 and stats["rows"] == 2 * 128 + 1

    def test_determinism_bit_identical(self, tmp_path):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 128}, "family": {"id": "free-wave"},
               "data": {"kind": "trig", "modes": 6, "seed": 9}}
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for fa in sorted((tmp_path / "a").glob("*.csv")):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()
        ida = json.loads((tmp_path / "a" / "manifest.json").read_text())["run_id"]
        idb = json.loads((tmp_path / "b" / "manifest.json").read_text())["run_id"]
        assert ida == idb

    def test_check_energy_small(self, tmp_path):
        cfg = {"experiment": "check-energy", "grid": {"L": 8.0, "N": 128, "k": 16.0},
               "mesh": {"M": 256},
               "profile": {"p": 0.0, "q": 1.25, "r": 0.0, "sigma": 3.0, "T": 1.0,
                           "lambda": "fit"},
               "family": {"id": "theorem"}, "data": {"kind": "bump", "width": 0.7}}
        assert run(cfg, tmp_path) == 0
        trace = (tmp_path / "energy_trace.csv").read_text().splitlines()
        assert trace[0] == "t,norm_u,norm_v,lambda_t,data_bound,support_radius"
        assert len(trace) == 18

    def test_symbol_report_small(self, tmp_path):
        cfg = {"experiment": "symbol-report", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "profile": {"p": 0.0, "q": 1.25, "r": 0.0, "sigma": 3.0, "T": 1.0},
               "family": {"id": "theorem"}}
        assert run(cfg, tmp_path) == 0
        payload = json.loads((tmp_path / "symbol_report.json").read_text())
        assert abs(payload["interior_exponent"]) <= 0.1
        assert payload["dt_tau_flat_max"] <= 1e-14

    def test_numerical_abort_status_3(self, tmp_path, capsys):
        # an absurd wave speed exhausts the CFL halvings
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 1.0},
               "mesh": {"M": 8, "kappa": 1.0000001},
               "family": {"id": "free-wave", "params": {"speed": 1e9}},
               "data": {"kind": "bump", "width": 0.5}}
        assert run(cfg, tmp_path) == 3
        assert "abort" in capsys.readouterr().err
        assert (tmp_path / "abort.json").exists()

    def test_support_violation_status_2(self, tmp_path, capsys):
        # x-dependent family with globally supported trig data
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 1.0},
               "mesh": {"M": 64},
               "family": {"id": "theorem", "params": {"pair": [0.5, 0.5]}},
               "data": {"kind": "trig", "modes": 4, "seed": 1}}
        assert run(cfg, tmp_path) == 2
        assert "|x| <= L/2" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, field", [
        ("mesh", "kappa", 0, "mesh.kappa"), ("mesh", "kappa", -1, "mesh.kappa"),
        ("mesh", "t_start", 2.0, "mesh.t_start"), (None, "output_times", 5, "output_times"),
        ("mesh", "M", "abc", "mesh.M"), ("profile", "T", "x", "profile.T"),
        ("data", "width", -1, "data.width"), ("grid", "N", 64.9, "grid.N"),
        ("mesh", "M", 32.5, "mesh.M"), ("data", "modes", 2.5, "data.modes"),
        (None, "output_times", [float("nan"), 0.5], "output_times"),
        (None, "output_times", [float("inf")], "output_times"),
        ("data", "modes", -1, "data.modes"), ("data", "modes", 0, "data.modes"),
        ("data", "seed", -3, "data.seed"), ("data", "center", float("nan"), "data.center"),
        ("data", "velocity_scale", float("inf"), "data.velocity_scale"),
        ("data", "width", float("inf"), "data.width"),
        (None, "output_times", [2.0], "output_times"),
        (None, "output_times", [-1.0, 0.5], "output_times"),
        (None, "output_times", [], "output_times")])
    def test_malformed_field_status_2(self, tmp_path, capsys, section, key, value, field):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32}, "profile": {"T": 1.0}, "family": {"id": "free-wave"},
               "data": {"kind": "bump", "width": 0.5}}
        (cfg if section is None else cfg[section])[key] = value
        assert run(cfg, tmp_path) == 2
        assert field in capsys.readouterr().err

    def test_check_cone_overflow_status_3(self, tmp_path, capsys):
        # on L = 2**70 example 7.3's state overflows; with RuntimeWarnings raised as errors
        # this was an overflow traceback (exit 1), and is a numerical abort naming the step
        cfg = {"experiment": "check-cone", "grid": {"L": 2.0**70, "N": 32}, "mesh": {"M": 16}}
        assert run(cfg, tmp_path) == 3
        assert "state became non-finite" in capsys.readouterr().err
        report = json.loads((tmp_path / "abort.json").read_text())["report"]
        assert set(report) == {"t", "step"}

    @pytest.mark.parametrize("kappa", ["500.0", "1e999"])
    def test_underflowing_kappa_status_2(self, tmp_path, capsys, kappa):
        # (j/M)**kappa underflows and repeats the first nodes; 1e999 reads as inf
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0}, '
                            f'"mesh": {{"M": 32, "kappa": {kappa}}}, '
                            '"family": {"id": "free-wave"}, "data": {"width": 0.5}}')
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "mesh.kappa" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("field", ["L", "k"])
    def test_infinite_grid_status_2(self, tmp_path, capsys, field):
        # 1e999 reads as inf: a config error naming the field, not a non-finite state
        grid = {"L": 8.0, "N": 64, "k": 2.0, field: "1e999"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "solve", "grid": {'
                            + ", ".join(f'"{key}": {value}' for key, value in grid.items())
                            + '}, "mesh": {"M": 32}, "family": {"id": "free-wave"}, '
                            '"data": {"width": 0.5}}')
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"grid.{field}" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("example", ["7.1", "7.2", "7.4"])
    def test_undefined_default_grading_status_2(self, tmp_path, capsys, example):
        # r = 1: the default grading 2/(1-r) from t_start = 0 is undefined
        cfg = {"experiment": "solve", "family": {"id": f"counterexample-{example}"}}
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert "mesh.t_start/mesh.kappa" in err and "r = 1" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_steep_kappa_still_runs(self, tmp_path):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32, "kappa": 50.0}, "family": {"id": "free-wave"},
               "data": {"width": 0.5}}
        assert run(cfg, tmp_path) == 0
        stats = json.loads((tmp_path / "solve_stats.json").read_text())["stats"]
        assert stats["kappa"] == 50.0

    @pytest.mark.parametrize("family, field", [
        ({"id": "theorem", "params": {"bogus": 1}}, "family.params.bogus"),
        ({"id": "theorem", "params": {"pair": 5}}, "family.params.pair"),
        ({"id": "theorem", "params": {"pair": [0.5]}}, "family.params.pair"),
        ({"id": "theorem", "params": {"r": 0.5}}, "family.params.r"),
        ({"id": "theorem", "params": {"amplitude": 3.0}}, "family.params"),
        ({"id": "counterexample-7.1", "params": {"m": "x"}}, "family.params.m"),
        ({"id": "counterexample-7.1", "params": {"m": -1}}, "family.params"),
        ({"id": "example11", "params": {"kappa1": 0.9, "kappa2": 0.1}}, "family.params"),
        ({"id": "counterexample-7.9"}, "family.id"),
        ({"id": "example11", "params": {"bogus": 1}}, "family.params.bogus"),
        ({"id": "counterexample-7.1", "params": {"m": 1.5}}, "family.params.m"),
        ({"id": "nope", "params": {"a": 1}}, "family.id: unknown family 'nope'")])
    def test_malformed_family_status_2(self, tmp_path, capsys, family, field):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32}, "family": family, "data": {"kind": "bump", "width": 0.5}}
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment, section, key, value", [
        ("zones-dump", "zones", "N", -1.0), ("zones-dump", "zones", "N", 0.0),
        ("zones-dump", "zones", "nt", 0), ("zones-dump", "zones", "nt", 1),
        ("zones-dump", "zones", "nx", 0), ("zones-dump", "zones", "nxi", 0),
        ("check-energy", "profile", "lambda", -1.0),
        ("check-energy", "profile", "lambda", float("nan")),
        ("solve", "profile", "T", float("inf")), ("zones-dump", "zones", "N", float("inf")),
        ("solve", "grid", "N", 2**70), ("solve", "mesh", "M", 1e20),
        ("check-cone", "mesh", "M", 1e20), ("zones-dump", "zones", "nt", 1e15),
        ("verify-counterexamples", "data", "modes", 1e15),
        ("verify-counterexamples", "data", "modes", 33)])
    def test_out_of_range_field_status_2(self, tmp_path, capsys, experiment, section, key,
                                         value):
        # each ran before: a traceback (N < 0), a vacuous or failed verdict (nt, nx, nxi),
        # a pass with a negative or NaN lambda, which the monitor read as unweighted, or,
        # for an absurd size, numpy's refusal to allocate it (exit 1; mesh.M was misnamed
        # mesh.t_start/mesh.kappa); numpy refuses these sizes at once, so a size guard that
        # regresses fails fast instead of filling memory; 33 trig modes exceed N / 2 = 32
        cfg = {"experiment": experiment, "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32}, section: {key: value}}
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("experiment, section, key, value, field", [
        ("solve", "data", "width", 1e-300, "data.width"),
        ("solve", "data", "center", 1e308, "data.center"),
        ("solve", "grid", "L", 1e308, "grid.L"), ("solve", "grid", "L", 1e-300, "grid.L"),
        ("solve", "grid", "k", 1e308, "grid.k"),
        ("solve", "family", "params", {"speed": 1e308}, "family.params.speed"),
        ("solve", "profile", "T", 1e308, "profile.T"),
        ("solve", "profile", "T", 1e-300, "profile.T"),
        ("solve", "data", "velocity_scale", 1e308, "data.velocity_scale"),
        ("check-energy", "profile", "lambda", 1e308, "profile.lambda")])
    def test_extreme_float_status_2(self, tmp_path, capsys, experiment, section, key, value,
                                    field):
        # each ended in an overflow or invalid-value RuntimeWarning traceback (exit 1):
        # in the Gaussian data, the grid's x or <xi>_k^2, the symbols or the loss weight
        cfg = {"experiment": experiment, "grid": {"N": 32}, "mesh": {"M": 64},
               "data": {"velocity": "dx"}}
        if section == "family":
            cfg["family"] = {"id": "free-wave"}
        cfg.setdefault(section, {})[key] = value
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"invalid field '{field}'" in err and "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("experiment, section, key, value", [
        ("solve", "grid", "L", 2.0**100), ("solve", "grid", "L", 2.0**-100),
        ("solve", "grid", "k", 2.0**100), ("solve", "data", "width", 2.0**-100),
        ("solve", "data", "center", -8.0), ("solve", "family", "params", {"speed": -2.0**100}),
        ("solve", "profile", "T", 2.0**100), ("solve", "profile", "T", 2.0**-100),
        ("solve", "data", "velocity_scale", 2.0**100),
        ("check-energy", "profile", "lambda", 2.0**100)])
    def test_extreme_float_in_range_runs_or_aborts(self, tmp_path, capsys, experiment, section,
                                                   key, value):
        # a value at the edge of its range runs, or ends in a named numerical abort (the CFL
        # halvings or the loss exponent), never in a RuntimeWarning
        cfg = {"experiment": experiment, "grid": {"N": 32}, "mesh": {"M": 64},
               "data": {"velocity": "dx"}}
        if section == "family":
            cfg["family"] = {"id": "free-wave"}
        cfg.setdefault(section, {})[key] = value
        status = run(cfg, tmp_path)
        assert status in (0, 3)
        if status == 3:
            assert "numerical abort: " in capsys.readouterr().err
            assert (tmp_path / "abort.json").exists()

    def test_check_cone_failure_status_1(self, tmp_path):
        # a wide bump on a small torus reaches 3L/4: both cone checks are invalid
        cfg = {"experiment": "check-cone", "grid": {"L": 4.0, "N": 64, "k": 1.0},
               "mesh": {"M": 64}, "data": {"width": 1.0}}
        assert run(cfg, tmp_path) == 1
        verdicts = json.loads((tmp_path / "verdict.json").read_text())["verdicts"]
        assert [v["name"] for v in verdicts] == ["cone-oscillating-speed", "cone-constant-wave"]
        assert not any(v["valid"] or v["pass"] for v in verdicts)
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("data", "kind", "trig"), ("mesh", "kappa", 5.0), ("mesh", "t_start", 0.1),
        ("data", "modes", 8), ("data", "seed", 42), ("family", "id", "theorem")])
    def test_check_cone_rejects_ignored_field(self, tmp_path, capsys, section, key, value):
        # check-cone runs a Gaussian bump on the default graded mesh from t = 0, under
        # its own two families: a set family (even the default) is rejected as a whole
        cfg = {"experiment": "check-cone", "grid": {"L": 12.0, "N": 64, "k": 1.0},
               "mesh": {"M": 64}, "data": {"width": 0.25}}
        cfg.setdefault(section, {})[key] = value
        assert run(cfg, tmp_path) == 2
        field = section if section == "family" else f"{section}.{key}"
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()

    @pytest.mark.parametrize("experiment", ["zones-dump", "check-cone", "verify-counterexamples",
                                            "symbol-report"])
    def test_output_times_rejected_where_ignored(self, tmp_path, capsys, experiment):
        # only solve and check-energy take snapshots: the others reject output_times, not ignore it
        cfg = {"experiment": experiment, "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 64}, "output_times": [0.5]}
        assert run(cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "output_times:" in err and experiment in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_check_cone(self, tmp_path):
        cfg = {"experiment": "check-cone", "grid": {"L": 12.0, "N": 256, "k": 1.0},
               "mesh": {"M": 512}, "data": {"width": 0.25}}
        assert run(cfg, tmp_path) == 0
        verdicts = json.loads((tmp_path / "verdict.json").read_text())["verdicts"]
        assert [v["name"] for v in verdicts] == ["cone-oscillating-speed", "cone-constant-wave"]
        assert all(v["valid"] and v["pass"] for v in verdicts)
        assert abs(verdicts[0]["c_star"] - 3.0) <= 1e-3
        for name in ("cone_oscillating.csv", "cone_wave.csv"):
            assert (tmp_path / name).read_text().splitlines()[0] == "t,measured,predicted"

    def test_check_cone_beyond_its_default_horizon(self, tmp_path):
        # 7.3 runs to 0.2 L = 3.2 > 3 here: its family's horizon follows the run's end
        cfg = {"experiment": "check-cone", "grid": {"L": 16.0, "N": 512},
               "mesh": {"M": 512}, "data": {"width": 0.25}}
        assert run(cfg, tmp_path) == 0
        verdicts = json.loads((tmp_path / "verdict.json").read_text())["verdicts"]
        assert all(v["valid"] and v["pass"] for v in verdicts)
        rows = (tmp_path / "cone_oscillating.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == pytest.approx(3.2, rel=1e-15)

    @pytest.mark.parametrize("family", [
        {"id": "free-wave"}, {"id": "reference-wave"},
        {"id": "theorem", "params": {"amplitude": 0}}], ids=lambda f: f["id"])
    def test_symbol_report_rejects_family_constant_in_t(self, tmp_path, capsys, family):
        # a(t) neither blows up nor oscillates, so dt a vanishes and q has nothing to fit
        cfg = {"experiment": "symbol-report", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "family": family}
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert "family:" in err and "constant in t" in err and "Traceback" not in err
        assert not (tmp_path / "verdict.json").exists()

    def test_main_entry_point(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(BASE)))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert main(["--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out2")]) == 2
        capsys.readouterr()


class TestSuite:
    @pytest.mark.parametrize("second_passes", [True, False])
    def test_suite_aggregates_criteria_and_fault(self, tmp_path, monkeypatch, capsys,
                                                 second_passes):
        results = [CriterionResult(1, "one", True, 0.5, {"x": 1.5, "rows": [[0.0, 1.0]],
                                                         "ok": True, "note": "a"}),
                   CriterionResult(2, "two", second_passes, 0.25, {"n": 3, "arr": np.zeros(2)})]
        monkeypatch.setattr("singhyp.cli.run_all", lambda: results)
        assert main(["--suite", "--out", str(tmp_path)]) == (0 if second_passes else 1)
        capsys.readouterr()
        payload = json.loads((tmp_path / "suite.json").read_text())
        assert payload["passed"] is second_passes
        first, second, injected = payload["checks"]
        assert (first["criterion"], first["pass"], first["runtime_s"]) == (1, True, 0.5)
        assert first["details"] == {"x": 1.5, "ok": True, "note": "a"}
        assert (second["pass"], second["details"]) == (second_passes, {"n": 3})
        assert injected["name"] == "injected-ellipticity-fault" and injected["pass"]
        assert len(injected["witness"]) == 4


class TestRunio:
    def test_trajectory_roundtrip_precision(self, tmp_path):
        grid = GridSpec(L=np.pi, N=32, k=1.0)
        rng = np.random.default_rng(3)
        u, v = (rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
                for _ in range(2))
        traj = SimpleNamespace(grid=grid, snapshots=((0.5, u, v),))
        (path,) = write_trajectory(tmp_path, traj)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        back_u = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        back_v = np.array([float(r[3]) + 1j * float(r[4]) for r in rows])
        # repr round-trips exactly
        assert np.array_equal(back_u, u) and np.array_equal(back_v, v)

    def test_json_serializes_numpy(self, tmp_path):
        p = write_json(tmp_path / "x.json", {"a": np.float64(0.1), "b": np.arange(3)})
        data = json.loads(p.read_text())
        assert data["a"] == 0.1 and data["b"] == [0, 1, 2]


class TestReadme:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w+)\n(.*?)```", readme, re.DOTALL)

    def _only(self, lang):
        found = [body for kind, body in self.blocks if kind == lang]
        assert len(found) == 1
        return found[0]

    def test_python_example_builds_a_family(self):
        scope = {}
        exec(self._only("python"), scope)
        assert isinstance(scope["fam"], CoefficientFamily) and scope["fam"].label == "slow-speed"

    def test_json_example_is_a_valid_config(self):
        cfg = RunConfig(json.loads(self._only("json")))
        assert (cfg.experiment, cfg.family_id) == ("check-energy", "theorem")
