"""Config-driven experiment runner.

One experiment per process invocation, driven by a JSON config::

    singhyp --config run.json --out results/
    singhyp --suite --out results/

Exit status: 0 all verdicts pass, 1 a verdict failed (``verdict.json`` names it), 2 invalid
configuration (message names the offending field), 3 numerical abort (``abort.json``).  Every
run writes ``manifest.json`` (resolved config, derived exponents, versions, wall time, run id)
plus result CSVs and, for check-type experiments, ``verdict.json``.  An identical config
produces bit-identical CSV artifacts (``data.seed`` seeds the trig data).

Config schema (unknown keys are rejected)::

    {
      "experiment": "solve" | "verify-counterexamples" | "check-cone" |
                    "check-energy" | "symbol-report" | "zones-dump",
      "grid":    {"L": 8.0, "N": 256, "k": 16.0},
      "mesh":    {"M": 2048, "kappa": null, "t_start": 0.0},
      "profile": {"p": 0.0, "q": 1.25, "r": 0.0, "sigma": 3.0, "T": 1.0,
                  "lambda": "fit"},
      "family":  {"id": "theorem", "params": {...}},
      "data":    {"kind": "bump", "width": 0.7, "center": 0.0,
                  "modes": 8, "seed": 42, "velocity": "dx",
                  "velocity_scale": -1.0},
      "output_times": [...],
      "zones":   {"nt": 16, "nx": 17, "nxi": 17, "N": 2.0}
    }

Ranges: ``grid.L`` in ``[2**-100, 2**100]``, ``grid.k`` in ``[1, 2**100]``, ``grid.N`` a
power of two in ``[8, 2**14]``, ``mesh.M`` in ``[8, 2**20]``,
``mesh.kappa > 0`` with strictly increasing graded nodes (a large kappa underflows
``(j/M)**kappa``; a null kappa from ``t_start = 0`` needs the family's ``p, r < 1``),
``profile.T`` in ``[2**-100, 2**100]``, ``profile.lambda`` ``"fit"`` or in ``[0, 2**100]``
(0: the unweighted monitor), ``data.width`` in ``[2**-100, 2**100]``, ``data.center`` in
``[-grid.L, grid.L]``, ``data.velocity_scale`` and the free-wave ``speed`` in
``[-2**100, 2**100]`` (so no grid array, symbol value or datum overflows),
``data.modes >= 1`` and, where trig data is built
(``data.kind`` ``"trig"``, ``verify-counterexamples``), ``<= grid.N / 2``,
``data.seed >= 0``, ``zones.nt >= 2``, ``zones.nx, zones.nxi >= 1`` with
``zones.nt * zones.nx * zones.nxi <= 2**20``, ``zones.N`` finite and ``> 0``,
``output_times`` (default: evenly spaced) a non-empty list of times in
``[mesh.t_start, profile.T]``, for ``solve`` and ``check-energy`` only.  ``check-cone``
takes any ``grid.L`` in range; ``symbol-report`` rejects a family constant in t.

Family ids and the ``params`` each accepts, with defaults (an unknown id is rejected
before its params, and so are other keys): ``theorem`` (``pair`` ``[kappa1, kappa2]``,
else the constant pair; ``amplitude`` 0.5), ``example11`` (``kappa1``, ``kappa2`` 0.5),
``free-wave`` (``speed`` 1.0), ``reference-wave`` (none), ``counterexample-7.1`` ...
``-7.4`` (an integer ``m >= 0``, 0; counterexamples use their oracle initial data).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import RESIDUAL_CASES, RESIDUAL_TOL, cone_experiment, estimate_checks, run_all
from .analysis import (EXAMPLE_IDS, GaussianBump, closed_form, counterexample_family,
                       energy_monitor, fit_lambda, random_trig_poly, residual_check)
from .quantize import GridSpec, OverflowGuardError
from .runio import build_manifest, write_csv, write_json, write_trajectory
from .solver import CauchyProblem, SolverError, SupportError, graded_mesh, integrate
from .structure import ProfileError, classify_zone, constant_pair, make_profile, poly_pair
from .symbols import (EllipticityError, QuadratureError, char_root, excise, free_wave,
                      reference_wave, theorem_coefficient, example_coefficient)

__all__ = ["ConfigError", "RunConfig", "run", "suite", "main"]


def _int(value) -> int:
    """``int(value)``, refusing a non-integral number rather than truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _where(conv, ok, need: str):
    """``conv`` refusing a converted value ``v`` unless ``ok(v)``; ``need`` says which pass."""
    def convert(value):
        v = conv(value)
        if not ok(v):
            raise ValueError(f"must be {need}, got {v!r}")
        return v
    return convert


def _int_in(lo: int, hi: float = math.inf):
    """``_int`` refusing a value outside ``[lo, hi]``."""
    return _where(_int, lambda v: lo <= v <= hi,
                  f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]")


_positive = _where(float, lambda v: v > 0.0, "> 0")
_finite = _where(float, math.isfinite, "finite")
_finite_positive = _where(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
# a length, time, width, shift, speed or weight beyond 2**100 (about 1.3e30), or a length,
# time or width below 2**-100, overflows a grid array, a symbol value or the data
_scale = _where(float, lambda v: 2.0**-100 <= v <= 2.0**100, "in [2**-100, 2**100]")
_bounded = _where(float, lambda v: abs(v) <= 2.0**100, "in [-2**100, 2**100]")
_lambda = _where(float, lambda v: 0.0 <= v <= 2.0**100, "'fit' or a number in [0, 2**100]")

# each config section's fields as ``(key, default, conv)``; ``conv`` converts the
# value and checks its range, and the keys are all the section accepts
_SECTIONS = {
    "grid": (("L", 8.0, _scale), ("N", 256, _int_in(8, 2**14)),
             ("k", 1.0, _where(float, lambda v: 1.0 <= v <= 2.0**100, "in [1, 2**100]"))),
    "mesh": (("M", 2048, _int_in(8, 2**20)),
             ("kappa", None, lambda v: v if v is None else _positive(v)),
             ("t_start", 0.0, float)),
    "profile": (("p", 0.0, float), ("q", 1.25, float), ("r", 0.0, float), ("sigma", 3.0, float),
                ("T", 1.0, _scale),
                ("lambda", "fit", lambda v: v if v == "fit" else _lambda(v))),
    "data": (("kind", "bump", _where(str, lambda v: v in ("trig", "bump"), "'trig' or 'bump'")),
             ("modes", 8, _int_in(1)), ("seed", 42, _int_in(0)),
             ("width", 0.7, _scale), ("center", 0.0, _finite),
             ("velocity", "zero", _where(str, lambda v: v in ("zero", "dx"), "'zero' or 'dx'")),
             ("velocity_scale", -1.0, _bounded)),
    "zones": (("nt", 16, _int_in(2)), ("nx", 17, _int_in(1)), ("nxi", 17, _int_in(1)),
              ("N", 2.0, _finite_positive)),
}
_TOP_KEYS = {"experiment", "family", "output_times", *_SECTIONS}

# each family id: its constructor, called with the profile's parameters and the
# family's params plus ``T`` and ``k``, and the params it accepts as ``_SECTIONS`` specs
_FAMILIES = {
    "theorem": (lambda pp, **kw: theorem_coefficient(pp["p"], pp["q"], r=pp["r"],
                                                     sigma=pp["sigma"], **kw),
                (("pair", None, lambda v: v if v is None else poly_pair(*map(float, v))),
                 ("amplitude", 0.5, float))),
    "example11": (lambda pp, **kw: example_coefficient(**kw),
                  (("kappa1", 0.5, float), ("kappa2", 0.5, float))),
    "free-wave": (lambda pp, **kw: free_wave(**kw), (("speed", 1.0, _bounded),)),
    "reference-wave": (lambda pp, **kw: reference_wave(**kw), ()),
    **{f"counterexample-{ex}": (lambda pp, ex=ex, **kw: counterexample_family(ex, **kw),
                                (("m", 0, _int),)) for ex in EXAMPLE_IDS},
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing field '{where}.{key}'")
    return section[key]


def _known(section, allowed: set[str], where: str) -> dict:
    """``section`` itself, once it is an object with no key outside ``allowed``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown field '{where}.{sorted(unknown)[0]}'")
    return section


def _fields(section, where: str, spec) -> dict:
    """``{key: conv(value)}`` per ``(key, default, conv)`` in ``spec``, the value
    defaulting to ``default``, of ``section``, an object with no other key; a value
    that does not convert is a ConfigError naming ``where.key``."""
    _known(section, {key for key, _, _ in spec}, where)
    out = {}
    for key, default, conv in spec:
        try:
            out[key] = conv(section.get(key, default))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid field '{where}.{key}': {e}") from e
    return out


class RunConfig:
    """Validated experiment configuration (validation happens before any
    computation; unknown keys are rejected, and a field that does not convert
    to its type or lies outside its range is a ConfigError naming it)."""

    def __init__(self, raw: dict):
        self.raw = _known(raw, _TOP_KEYS, "config")
        self.experiment = _require(raw, "experiment", "config")
        if self.experiment not in _RUNNERS:
            raise ConfigError(
                f"config.experiment must be one of {tuple(_RUNNERS)}, got {self.experiment!r}")

        sec = {name: _fields(raw.get(name, {}), name, spec) for name, spec in _SECTIONS.items()}
        try:
            self.grid = GridSpec(**sec["grid"])
        except ValueError as e:
            raise ConfigError(f"grid: {e}") from e
        m = sec["mesh"]
        self.mesh_m, self.mesh_kappa, self.t_start = m["M"], m["kappa"], m["t_start"]
        self.lam = sec["profile"].pop("lambda")
        self.profile_params = sec["profile"]
        try:
            self.profile = make_profile(**self.profile_params)
        except ProfileError as e:
            raise ConfigError(f"profile: {e}") from e
        if not 0.0 <= self.t_start < self.profile.T:
            raise ConfigError(f"mesh.t_start must lie in [0, profile.T), got {self.t_start}")
        if self.mesh_kappa is not None:
            # (j/M)**kappa underflows for a large kappa, repeating the first nodes
            try:
                graded_mesh(None, self.t_start, self.profile.T, self.mesh_m, self.mesh_kappa)
            except ValueError as e:
                raise ConfigError(f"mesh.kappa: {self.mesh_kappa!r} is too large for "
                                  f"mesh.M = {self.mesh_m} ({e})") from e
        self.data, self.zones = sec["data"], sec["zones"]
        if abs(self.data["center"]) > self.grid.L:
            raise ConfigError(f"invalid field 'data.center': must lie on the torus [-grid.L, "
                              f"grid.L] = [{-self.grid.L}, {self.grid.L}], got "
                              f"{self.data['center']!r}")
        if ((self.data["kind"] == "trig" or self.experiment == "verify-counterexamples")
                and self.data["modes"] > self.grid.N // 2):
            raise ConfigError(f"invalid field 'data.modes': must be <= grid.N / 2 = "
                              f"{self.grid.N // 2}, got {self.data['modes']}")
        samples = self.zones["nt"] * self.zones["nx"] * self.zones["nxi"]
        if samples > 2**20:
            raise ConfigError("invalid fields 'zones.nt', 'zones.nx', 'zones.nxi': their "
                              f"product must be <= {2**20}, got {samples}")

        f = _known(raw.get("family", {"id": "theorem"}), {"id", "params"}, "family")
        self.family_id = str(_require(f, "id", "family"))
        if self.family_id not in _FAMILIES:
            raise ConfigError(f"family.id: unknown family {self.family_id!r}")
        self.family_params = _fields(f.get("params", {}), "family.params",
                                     _FAMILIES[self.family_id][1])
        self.output_times = _fields({"output_times": raw.get("output_times")}, "config", (
            ("output_times", None,
             lambda ts: ts if ts is None else list(map(_where(float, math.isfinite, "finite"), ts))),
        ))["output_times"]
        ts = self.output_times
        if ts is not None and self.experiment not in ("solve", "check-energy"):
            raise ConfigError(f"output_times: {self.experiment} takes no snapshots")
        if ts is not None and not (ts and all(self.t_start <= t <= self.profile.T for t in ts)):
            raise ConfigError(f"output_times must be a non-empty list of times in [mesh.t_start, "
                              f"profile.T] = [{self.t_start}, {self.profile.T}], got {ts}")

    # ------------------------------------------------------------------

    def build_family(self):
        pp = self.profile_params
        try:
            return _FAMILIES[self.family_id][0](pp, **self.family_params, T=pp["T"],
                                                k=self.grid.k)
        except ValueError as e:
            raise ConfigError(f"family.params: {e}") from e

    def build_profile_fn(self):
        if self.data["kind"] == "trig":
            return random_trig_poly(self.data["modes"], self.data["seed"])
        return GaussianBump(self.data["center"], self.data["width"])

    def build_data(self):
        u0 = self.build_profile_fn()
        if self.family_id.startswith("counterexample-"):
            ex = self.family_id.removeprefix("counterexample-")
            return closed_form(ex, self.family_params["m"], u0).initial_data(
                self.grid, self.t_start)
        f1 = np.asarray(u0(self.grid.x), dtype=complex)
        if self.data["velocity"] == "zero":
            f2 = np.zeros_like(f1)
        else:
            f2 = self.data["velocity_scale"] * np.asarray(u0(self.grid.x, 1), dtype=complex)
        return f1, f2


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


def _derived(cfg: RunConfig) -> dict:
    pr = cfg.profile
    return {"delta": pr.delta, "gamma": pr.gamma, "delta_star": pr.delta_star,
            "version": __version__}


def _trajectory(cfg: RunConfig, family, n_out: int):
    """``family`` integrated from the configured data on the configured mesh, with
    snapshots at ``output_times`` (default ``n_out`` evenly spaced)."""
    try:
        mesh = graded_mesh(family, cfg.t_start, cfg.profile.T, cfg.mesh_m, cfg.mesh_kappa)
    except ValueError as e:  # the family's default grading, undefined from t_start = 0
        raise ConfigError(f"mesh.t_start/mesh.kappa: {e}") from e
    f1, f2 = cfg.build_data()
    prob = CauchyProblem(family=family, f1=f1, f2=f2, t_start=cfg.t_start, T=cfg.profile.T)
    return integrate(prob, cfg.grid, mesh,
                     list(np.linspace(cfg.t_start, cfg.profile.T, n_out))
                     if cfg.output_times is None else cfg.output_times)


def _exp_solve(cfg: RunConfig, out: Path):
    traj = _trajectory(cfg, cfg.build_family(), 9)
    artifacts = write_trajectory(out, traj)
    stats = write_json(out / "solve_stats.json",
                       {"stats": traj.stats, "snapshot_times": list(traj.times)})
    return artifacts + [stats], []


def _exp_verify_counterexamples(cfg: RunConfig, out: Path):
    u0 = random_trig_poly(cfg.data["modes"], cfg.data["seed"])
    residuals = {}
    for ex, m in RESIDUAL_CASES:
        residuals.setdefault(ex, []).append(residual_check(ex, m, u0, cfg.grid))
    verdicts = [{"name": f"counterexample-{ex}", "residual": max(rs),
                 "pass": bool(max(rs) < RESIDUAL_TOL)} for ex, rs in residuals.items()]
    table = write_csv(out / "residuals.csv", ["example", "max_residual"],
                      [(v["name"], v["residual"]) for v in verdicts])
    return [table], verdicts


def _exp_check_cone(cfg: RunConfig, out: Path):
    data = cfg.raw.get("data", {})
    for field, ignored in (("data.kind", cfg.data["kind"] != "bump"),
                           ("data.modes", "modes" in data), ("data.seed", "seed" in data),
                           ("family", "family" in cfg.raw),
                           ("mesh.kappa", cfg.mesh_kappa is not None),
                           ("mesh.t_start", cfg.t_start != 0.0)):
        if ignored:
            raise ConfigError(f"{field}: check-cone ignores it (it runs a Gaussian bump under "
                              "its own families on the default mesh from t = 0)")
    c_star, rep, repw = cone_experiment(
        cfg.grid, cfg.grid, cfg.mesh_m, cfg.mesh_m,
        GaussianBump(cfg.data["center"], cfg.data["width"]), cfg.profile.T)
    artifacts = [write_csv(out / name, ["t", "measured", "predicted"], r.rows)
                 for name, r in (("cone_oscillating.csv", rep), ("cone_wave.csv", repw))]
    verdicts = [{"name": "cone-oscillating-speed", "pass": bool(rep.passed),
                 "valid": rep.valid, "c_star": c_star},
                {"name": "cone-constant-wave", "pass": bool(repw.passed),
                 "valid": repw.valid}]
    return artifacts, verdicts


def _exp_check_energy(cfg: RunConfig, out: Path):
    family = cfg.build_family()
    if family.profile is None:
        raise ConfigError("family: check-energy needs an admissible profile")
    lam = fit_lambda(family, family.profile).value if cfg.lam == "fit" else cfg.lam
    trace = energy_monitor(_trajectory(cfg, family, 17), (0.0, 0.0), family.profile,
                           family.pair, lam)
    rows = zip(trace.times, trace.norm_u, trace.norm_v, trace.lam_values,
               trace.data_bound, trace.support)
    table = write_csv(out / "energy_trace.csv",
                      ["t", "norm_u", "norm_v", "lambda_t", "data_bound", "support_radius"],
                      rows)
    verdicts = [{"name": "energy-bounded", "pass": bool(np.isfinite(trace.verdict)),
                 "verdict": trace.verdict, "lambda": lam}]
    return [table], verdicts


def _exp_symbol_report(cfg: RunConfig, out: Path):
    family = cfg.build_family()
    if family.profile is None:
        raise ConfigError("family: symbol-report needs an admissible profile")
    if family.p == 0.0 and family.osc_exponent is None:
        # neither blow-up nor oscillation: a is constant in t, so dt a has no order to fit
        raise ConfigError(f"family: {family.label} is constant in t, so symbol-report has no "
                          "blow-up exponent q to fit")
    payload, verdicts = estimate_checks(family)
    art = write_json(out / "symbol_report.json", payload)
    return [art], verdicts


def _exp_zones_dump(cfg: RunConfig, out: Path):
    z = cfg.zones
    pair = constant_pair()
    ts = np.linspace(0.0, cfg.profile.T, z["nt"])
    xs = np.linspace(-cfg.grid.L, cfg.grid.L, z["nx"])
    xis = np.linspace(-cfg.grid.xi_max, cfg.grid.xi_max, z["nxi"])
    tt, xx, ww = np.meshgrid(ts, xs, xis, indexing="ij")
    codes = classify_zone(tt, xx, ww, z["N"], cfg.profile, pair, cfg.grid.k)
    rows = zip(tt.ravel(), xx.ravel(), ww.ravel(), codes.ravel())
    table = write_csv(out / "zones.csv", ["t", "x", "xi", "zone"], rows)
    frac = [(float(t), float(np.mean(codes[i] == 1))) for i, t in enumerate(ts)]
    table2 = write_csv(out / "interior_fraction.csv", ["t", "interior_fraction"], frac)
    fr = np.array([f for _, f in frac])
    verdicts = [{"name": "interior-fraction-decreasing",
                 "pass": bool(np.all(np.diff(fr) <= 1e-12)),
                 "values": [float(v) for v in fr]}]
    return [table, table2], verdicts


_RUNNERS = {
    "solve": _exp_solve,
    "verify-counterexamples": _exp_verify_counterexamples,
    "check-cone": _exp_check_cone,
    "check-energy": _exp_check_energy,
    "symbol-report": _exp_symbol_report,
    "zones-dump": _exp_zones_dump,
}


def run(raw_config: dict, out_dir) -> int:
    """Run one experiment; returns the process exit status (0 pass / 1 a verdict failed /
    2 config / 3 numerical)."""
    out = Path(out_dir)
    try:
        cfg = RunConfig(raw_config)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        artifacts, verdicts = _RUNNERS[cfg.experiment](cfg, out)
    except (ConfigError, SupportError) as e:
        where = "data: " if isinstance(e, SupportError) else ""  # data leaking past |x| = L/2
        print(f"config error: {where}{e}", file=sys.stderr)
        return 2
    except (SolverError, EllipticityError, QuadratureError, OverflowGuardError,
            ArithmeticError) as e:
        report = getattr(e, "report", None) or getattr(e, "witness", None)
        write_json(out / "abort.json", {"error": str(e), "report": report})
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    if verdicts:
        artifacts.append(write_json(out / "verdict.json", {"verdicts": verdicts}))
    build_manifest(out, cfg.raw, _derived(cfg), artifacts,
                   wall_time=time.perf_counter() - t0)
    ok = all(v.get("pass", True) for v in verdicts)
    for v in verdicts:
        print(f"{'PASS' if v.get('pass', True) else 'FAIL'} {v['name']}")
    return 0 if ok else 1


def suite(out_dir) -> int:
    """Run the full acceptance battery plus a fault-injection check and write
    one aggregated verdict JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    results = run_all()
    entries = [{"criterion": r.number, "name": r.name, "pass": r.passed,
                "runtime_s": r.runtime_s,
                "details": {k: v for k, v in r.details.items()
                            if isinstance(v, (int, float, bool, str))}}
               for r in results]

    # fault injection: an ellipticity-violating coefficient must surface a witness
    injected = {"name": "injected-ellipticity-fault", "pass": False}
    fam = theorem_coefficient(0.0, 1.25, k=2.0)
    broken = fam.__class__(**{**fam.__dict__, "separable": None,
                              "a": lambda t, x, xi: -np.ones(np.broadcast(
                                  np.asarray(t), np.asarray(x), np.asarray(xi)).shape)})
    try:
        char_root(excise(broken))
    except EllipticityError as e:
        injected.update({"pass": True, "witness": list(e.witness)})
    entries.append(injected)

    passed = all(e["pass"] for e in entries)
    payload = {"passed": passed, "checks": entries, "wall_time_s": time.perf_counter() - t0}
    write_json(out / "suite.json", payload)
    print(f"{'PASS' if passed else 'FAIL'} suite ({len(entries)} checks)")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="singhyp",
        description="Pseudospectral laboratory for singular hyperbolic Cauchy problems")
    parser.add_argument("--config", type=Path, help="experiment config (JSON)")
    parser.add_argument("--out", type=Path, default=Path("singhyp-out"),
                        help="output directory")
    parser.add_argument("--suite", action="store_true",
                        help="run the acceptance battery instead of a config")
    args = parser.parse_args(argv)

    if args.suite:
        return suite(args.out)
    if args.config is None:
        parser.error("--config is required unless --suite is given")
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return 2
    return run(raw, args.out)


if __name__ == "__main__":
    sys.exit(main())
