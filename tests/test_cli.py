"""Config validation, experiment runs, artifact contracts, determinism."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from singhyp.acceptance import CriterionResult
from singhyp.cli import ConfigError, RunConfig, main, run
from singhyp.runio import write_json, write_trajectory
from singhyp.quantize import GridSpec


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
        cfg = RunConfig({**BASE, "family": {"id": "mystery"}})
        with pytest.raises(ConfigError, match="family"):
            cfg.build_family()


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
        ("data", "width", float("inf"), "data.width")])
    def test_malformed_field_status_2(self, tmp_path, capsys, section, key, value, field):
        cfg = {"experiment": "solve", "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32}, "profile": {"T": 1.0}, "family": {"id": "free-wave"},
               "data": {"kind": "bump", "width": 0.5}}
        (cfg if section is None else cfg[section])[key] = value
        assert run(cfg, tmp_path) == 2
        assert field in capsys.readouterr().err

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
        ({"id": "counterexample-7.1", "params": {"m": 1.5}}, "family.params.m")])
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
        ("solve", "profile", "T", float("inf"))])
    def test_out_of_range_field_status_2(self, tmp_path, capsys, experiment, section, key,
                                         value):
        # each ran before: a traceback (N < 0), a vacuous or failed verdict (nt, nx, nxi)
        # or a pass with a negative or NaN lambda, which the monitor read as unweighted
        cfg = {"experiment": experiment, "grid": {"L": 8.0, "N": 64, "k": 2.0},
               "mesh": {"M": 32}, section: {key: value}}
        assert run(cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "verdict.json").exists()

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
        assert payload["passed"] is second_passes and payload["seed"] == 42
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
