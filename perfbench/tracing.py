"""Span recorder for the traced run, the wrappers that put it around the
library's public functions, and the per-layer metrics computed from the spans.

The wrappers replace public names where callers look them up (module globals
of every ``singhyp`` module, class attributes for methods, and the fields of
the structure pairs and coefficient families the factories return), so no
library file is edited.  Spans are recorded only while an operation is
running; they stay in memory and are written out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array

import numpy as np

LAYERS = ("quantize", "symbols", "structure", "solver", "analysis")

# layer metrics (lower is better): name, unit, and the end-to-end metric and
# workload each should move
LAYER_METRICS = (
    ("quantize.self_s", "s", "op_s on all; spectral-space stepping lowers it on spectral_ce"),
    ("symbols.self_s", "s", "op_s on excised_dense, certify_xdep; 0 on spectral_ce"),
    ("structure.self_s", "s", "op_s on excised_dense, certify_xdep"),
    ("solver.self_s", "s", "op_s on all three solves"),
    ("analysis.self_s", "s", "op_s on certify_xdep"),
    ("quantize.dft.calls", "count", "op_s on spectral_ce"),
    ("quantize.dft.self_s", "s", "op_s on spectral_ce"),
    ("quantize.apply_multiplier.calls", "count",
     "op_s on spectral_ce, certify_xdep; no change on excised_dense"),
    ("quantize.apply_multiplier.self_s", "s",
     "op_s on spectral_ce, certify_xdep; no change on excised_dense"),
    ("quantize.ffts_per_rhs", "ratio", "op_s on spectral_ce (waste: 4 when b1 is present)"),
    ("quantize.ffts_per_rhs.base", "count", "base of quantize.ffts_per_rhs (RHS calls)"),
    ("quantize.apply_kn.calls", "count",
     "op_s on excised_dense, certify_xdep; must stay 0 on spectral_ce"),
    ("quantize.apply_kn.symbol_s", "s",
     "op_s on excised_dense, certify_xdep (lattice caching); no change on spectral_ce"),
    ("quantize.apply_kn.product_s", "s",
     "op_s on excised_dense (fast KN; the dense floor); no change on spectral_ce"),
    ("quantize.loss_operator.calls", "count", "op_s on certify_xdep; no change on others"),
    ("quantize.loss_operator.self_s", "s", "op_s on certify_xdep; no change on others"),
    ("symbols.lattice_evals", "count",
     "op_s on excised_dense, certify_xdep; must stay 0 on spectral_ce"),
    ("symbols.lattice_eval_s", "s", "op_s on excised_dense, certify_xdep"),
    ("symbols.lattice_repeat_ratio", "ratio",
     "op_s on excised_dense, certify_xdep (upper bound on lattice-cache reuse)"),
    ("symbols.lattice_repeat_ratio.base", "count", "base of symbols.lattice_repeat_ratio"),
    ("symbols.blend_window_share", "ratio",
     "op_s on excised_dense (sizes a fast-KN correction window)"),
    ("symbols.blend_window_share.base", "count",
     "base of symbols.blend_window_share (excised lattice points)"),
    ("symbols.char_root.calls", "count", "op_s on certify_xdep"),
    ("symbols.char_root.self_s", "s", "op_s on certify_xdep"),
    ("symbols.l1_defect.self_s", "s", "op_s on certify_xdep"),
    ("structure.pair_evals", "count",
     "op_s on excised_dense, certify_xdep; no change on spectral_ce"),
    ("structure.bracket.calls", "count",
     "op_s on excised_dense, certify_xdep; no change on spectral_ce"),
    ("solver.rhs.calls", "count", "op_s on all three solves"),
    ("solver.rhs.self_s", "s", "op_s on all three solves"),
    ("solver.speed_bound.self_s", "s", "op_s on all three solves"),
    ("solver.substeps", "count",
     "op_s on spectral_ce (7.3 halvings); no change on excised_dense, certify_xdep"),
    ("solver.halvings", "count",
     "op_s on spectral_ce (7.3); no change on excised_dense, certify_xdep"),
    ("solver.integrate.self_s", "s", "op_s on spectral_ce (RK4 loop overhead)"),
    ("solver.system_rhs.calls", "count", "op_s on certify_xdep; 0 on the others"),
    ("solver.system_rhs.self_s", "s", "op_s on certify_xdep; 0 on the others"),
    ("solver.system_residual.self_s", "s", "op_s on certify_xdep; 0 on the others"),
    ("solver.kn_per_system_rhs", "ratio", "op_s on certify_xdep"),
    ("solver.kn_per_system_rhs.base", "count", "base of solver.kn_per_system_rhs"),
    ("analysis.fit_lambda.self_s", "s", "op_s on certify_xdep"),
    ("analysis.energy_monitor.self_s", "s", "op_s on certify_xdep"),
    ("trace.spans_per_op", "count", "none; sizes trace.overhead_ratio"),
    ("trace.unattributed_share", "ratio", "none; share of op_s outside every span"),
    ("trace.overhead_ratio", "ratio", "none; traced op_s / untraced op_s - 1"),
    ("check.max_rel_err", "1", "none; the worst checked deviation from the references"),
)

_FUNCTIONS = {
    "quantize": ("dft_forward", "dft_inverse", "apply_multiplier", "loss_operator",
                 "sobolev_norm", "l2_norm"),
    "symbols": ("excise", "char_root", "h_symbol", "l1_defect"),
    "structure": ("bracket", "lambda_loss"),
    "solver": ("system_residual", "_rk4_step"),
    "analysis": ("fit_lambda", "energy_monitor", "support_radius"),
}
_METHODS = {
    ("solver", "Discretization"): ("rhs", "speed_bound", "singular_start"),
    ("solver", "SystemOperators"): ("system_rhs", "reduce"),
}
# symbol methods take (t, x, xi); the prefix names the object in span names
_SYMBOL_METHODS = {
    ("symbols", "ExcisedCoefficient", "excised"): ("a", "dt_a", "dx_a", "dxi_a", "defect"),
    ("symbols", "CharacteristicRoot", "root"): ("value", "dt", "dx", "dxi"),
    ("symbols", "HSymbol", "h"): ("value", "dt"),
}
_PAIR_FIELDS = ("omega", "phi", "domega", "dphi", "d2omega", "d2phi")
_PAIR_FACTORIES = (("structure", "poly_pair"), ("structure", "constant_pair"))
_FAMILY_FIELDS = ("a", "dt_a", "dx_a", "dxi_a")
_FAMILY_FACTORIES = (("symbols", "theorem_coefficient"), ("analysis", "counterexample_family"))


def _on_lattice(x, xi) -> bool:
    """True for the ``(N, 1) x (1, N)`` grid lattice that ``apply_kn`` evaluates on."""
    return np.ndim(x) == 2 and np.ndim(xi) == 2 and np.shape(x)[1] == 1 and np.shape(xi)[0] == 1


class Recorder:
    """In-memory spans: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.lattice = []  # (span, name id, owner, t, x, xi, op) per symbol eval on the lattice
        self.notes = []    # (op, key, value)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_symbol(self, name: str, fn, owner=None):
        """Span around a symbol callable ``(t, x, xi)`` (or a method ``(self, t, x, xi)``
        when ``owner`` is None) that also logs each evaluation on the grid lattice."""
        nid = self.name_id(name)
        traced = self.wrap(name, fn)

        def symbol(*args):
            if self.current_op >= 0 and _on_lattice(args[-2], args[-1]):
                self.lattice.append((len(self.start), nid, args[0] if owner is None else owner,
                                     float(args[-3]), args[-2], args[-1], self.current_op))
            return traced(*args)

        symbol.__wrapped__ = fn
        return symbol

    def note(self, key: str, value) -> None:
        if self.current_op >= 0:
            self.notes.append((self.current_op, key, value))

    def run_op(self, op_id: int, fn, *args):
        """Run one operation as a root span ``bench.op``."""
        self.current_op = op_id
        try:
            return self.wrap("bench.op", fn)(*args)
        finally:
            self.current_op = -1

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.intc).astype(np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# --------------------------------------------------------------------------
# instrumentation
# --------------------------------------------------------------------------


def _library_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "singhyp" or name.startswith("singhyp."))]


def _rebind(orig, new) -> None:
    """Point every module-level name bound to ``orig`` at ``new``."""
    for mod in _library_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def instrument(sh, rec: Recorder) -> None:
    """Wrap the library's public layer functions in spans.  Objects built after
    this call (pairs, families) carry traced fields; build inputs afterwards.
    Names the library does not define are skipped."""
    mods = {layer: getattr(sh, layer) for layer in LAYERS}

    for layer, names in _FUNCTIONS.items():
        for name in names:
            orig = getattr(mods[layer], name, None)
            if orig is not None:
                _rebind(orig, rec.wrap(f"{layer}.{name.lstrip('_')}", orig))

    orig_kn = mods["quantize"].apply_kn

    def apply_kn(grid, symbol, values):
        if callable(symbol):
            symbol = rec.wrap("quantize.apply_kn.symbol", symbol)
        return orig_kn(grid, symbol, values)

    _rebind(orig_kn, rec.wrap("quantize.apply_kn", apply_kn))

    orig_integrate = mods["solver"].integrate

    def integrate(*args, **kwargs):
        traj = orig_integrate(*args, **kwargs)
        rec.note("solver.halvings", traj.stats["halvings"])
        return traj

    _rebind(orig_integrate, rec.wrap("solver.integrate", integrate))

    for (layer, cls_name), names in _METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for name in names:
            if hasattr(cls, name):
                setattr(cls, name, rec.wrap(f"{layer}.{name}", getattr(cls, name)))
    for (layer, cls_name, prefix), names in _SYMBOL_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for name in names:
            if hasattr(cls, name):
                setattr(cls, name,
                        rec.wrap_symbol(f"{layer}.{prefix}.{name}", getattr(cls, name)))

    def traced_pair(pair):
        return dataclasses.replace(pair, **{
            f: rec.wrap(f"structure.pair.{f}", getattr(pair, f))
            for f in _PAIR_FIELDS if hasattr(pair, f)})

    def traced_family(fam):
        return dataclasses.replace(fam, **{
            f: rec.wrap_symbol(f"symbols.family.{f}", getattr(fam, f), owner=fam)
            for f in _FAMILY_FIELDS})

    for factories, post in ((_PAIR_FACTORIES, traced_pair), (_FAMILY_FACTORIES, traced_family)):
        for layer, name in factories:
            orig = getattr(mods[layer], name)
            _rebind(orig, _returning(orig, post))


def _returning(fn, post):
    def factory(*args, **kwargs):
        return post(fn(*args, **kwargs))

    factory.__wrapped__ = fn
    return factory


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def _nearest_ancestor(parent: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Index of each span's nearest strict ancestor with ``target`` set, else -1."""
    anc = np.full(parent.size, -1)
    cur = parent.copy()
    live = np.flatnonzero(cur >= 0)
    while live.size:
        c = cur[live]
        hit = target[c]
        anc[live[hit]] = c[hit]
        cur[live] = np.where(hit, -1, parent[c])
        live = live[cur[live] >= 0]
    return anc


def _unwrap(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class SpanTable:
    """Vectorised view of a recorder's spans with per-operation aggregation."""

    def __init__(self, rec: Recorder):
        a = rec.arrays()
        self.rec = rec
        self.name, self.parent, self.op = a["name"], a["parent"], a["op"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        self.n_ops = int(self.op.max()) + 1 if self.op.size else 0

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.rec._ids[n] for n in names if n in self.rec._ids]
        return np.isin(self.name, ids)

    def prefix(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.rec.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def per_op(self, weights) -> float:
        """Median over operations of the per-operation sum of ``weights``."""
        if self.n_ops == 0:
            return 0.0
        return float(np.median(np.bincount(self.op, weights=weights, minlength=self.n_ops)))

    def count(self, mask) -> int:
        return int(round(self.per_op(mask.astype(float))))

    def self_s(self, mask) -> float:
        return self.per_op(np.where(mask, self.self_time, 0.0))

    def total_s(self, mask) -> float:
        return self.per_op(np.where(mask, self.dur, 0.0))

    def under(self, child_mask, ancestor_mask) -> np.ndarray:
        return child_mask & (_nearest_ancestor(self.parent, ancestor_mask) >= 0)


def _noted(rec: Recorder, tb: SpanTable, key: str) -> int:
    """Median over operations of the per-operation sum of a noted value."""
    per_op = np.zeros(max(tb.n_ops, 1))
    for op, k, value in rec.notes:
        if k == key:
            per_op[op] += value
    return int(np.median(per_op))


def _lattice_stats(rec: Recorder, table: SpanTable):
    """Repeat ratio, blend-window share and outermost lattice time, from the
    logged symbol evaluations on the grid lattice (per operation)."""
    records = [r for r in rec.lattice if r[6] == 0]
    seen, repeats = set(), 0
    excised_ids = {i for i, n in enumerate(rec.names) if n.startswith("symbols.excised.")}
    blend_cache = {}
    inside = points = 0
    for _, nid, owner, t, x, xi, _ in records:
        key = (nid, id(owner), t)
        repeats += key in seen
        seen.add(key)
        if nid in excised_ids:
            ck = (id(owner), t, np.asarray(x).tobytes(), np.asarray(xi).tobytes())
            if ck not in blend_cache:
                phi = _unwrap(owner.pair.phi)
                s = t * np.asarray(phi(x), dtype=float) * np.hypot(owner.k, xi)
                blend_cache[ck] = (int(np.count_nonzero(s < 2.0)), s.size)
            n_in, n_all = blend_cache[ck]
            inside += n_in
            points += n_all
    is_lattice = np.zeros(table.name.size, dtype=bool)
    is_lattice[[r[0] for r in rec.lattice]] = True
    outermost = is_lattice & (_nearest_ancestor(table.parent, is_lattice) < 0)
    return {
        "symbols.lattice_evals": table.count(is_lattice),
        "symbols.lattice_eval_s": table.total_s(outermost),
        "symbols.lattice_repeat_ratio": repeats / len(records) if records else 0.0,
        "symbols.lattice_repeat_ratio.base": len(records),
        "symbols.blend_window_share": inside / points if points else 0.0,
        "symbols.blend_window_share.base": points,
    }


def layer_metrics(rec: Recorder) -> tuple[dict, list[str]]:
    """Per-layer metrics (per operation) and the count invariants that failed."""
    tb = SpanTable(rec)
    m = {f"{layer}.self_s": tb.self_s(tb.prefix(layer + ".")) for layer in LAYERS}

    dft = tb.mask("quantize.dft_forward", "quantize.dft_inverse")
    rhs = tb.mask("solver.rhs")
    kn = tb.mask("quantize.apply_kn")
    sys_rhs = tb.mask("solver.system_rhs")
    rhs_calls = tb.count(rhs)
    sys_calls = tb.count(sys_rhs)
    m.update({
        "quantize.dft.calls": tb.count(dft),
        "quantize.dft.self_s": tb.self_s(dft),
        "quantize.apply_multiplier.calls": tb.count(tb.mask("quantize.apply_multiplier")),
        "quantize.apply_multiplier.self_s": tb.self_s(tb.mask("quantize.apply_multiplier")),
        "quantize.ffts_per_rhs": tb.count(tb.under(dft, rhs)) / rhs_calls if rhs_calls else 0.0,
        "quantize.ffts_per_rhs.base": rhs_calls,
        "quantize.apply_kn.calls": tb.count(kn),
        "quantize.apply_kn.symbol_s": tb.total_s(tb.mask("quantize.apply_kn.symbol")),
        "quantize.apply_kn.product_s": tb.self_s(kn),
        "quantize.loss_operator.calls": tb.count(tb.mask("quantize.loss_operator")),
        "quantize.loss_operator.self_s": tb.self_s(tb.mask("quantize.loss_operator")),
        "symbols.char_root.calls": tb.count(tb.mask("symbols.char_root")),
        "symbols.char_root.self_s": tb.self_s(tb.mask("symbols.char_root")),
        "symbols.l1_defect.self_s": tb.self_s(tb.mask("symbols.l1_defect")),
        "structure.pair_evals": tb.count(tb.prefix("structure.pair.")),
        "structure.bracket.calls": tb.count(tb.mask("structure.bracket")),
        "solver.rhs.calls": rhs_calls,
        "solver.rhs.self_s": tb.self_s(rhs),
        "solver.speed_bound.self_s": tb.self_s(tb.mask("solver.speed_bound")),
        "solver.substeps": tb.count(tb.mask("solver.rk4_step")),
        "solver.halvings": _noted(rec, tb, "solver.halvings"),
        "solver.integrate.self_s": tb.self_s(tb.mask("solver.integrate")),
        "solver.system_rhs.calls": sys_calls,
        "solver.system_rhs.self_s": tb.self_s(sys_rhs),
        "solver.system_residual.self_s": tb.self_s(tb.mask("solver.system_residual")),
        "solver.kn_per_system_rhs": tb.count(tb.under(kn, sys_rhs)) / sys_calls
        if sys_calls else 0.0,
        "solver.kn_per_system_rhs.base": sys_calls,
        "analysis.fit_lambda.self_s": tb.self_s(tb.mask("analysis.fit_lambda")),
        "analysis.energy_monitor.self_s": tb.self_s(tb.mask("analysis.energy_monitor")),
        "trace.spans_per_op": tb.count(np.ones(tb.name.size, dtype=bool)),
    })
    m.update(_lattice_stats(rec, tb))
    root = tb.mask("bench.op")
    m["trace.unattributed_share"] = float(np.sum(tb.self_time[root]) / np.sum(tb.dur[root]))
    return m, _invariant_failures(tb, rhs)


def _invariant_failures(tb: SpanTable, rhs) -> list[str]:
    """Every solve makes exactly four RHS calls per RK4 substep."""
    if "solver.rk4_step" not in tb.rec._ids:
        return []
    integ = tb.mask("solver.integrate")
    owner = _nearest_ancestor(tb.parent, integ)
    n = tb.name.size
    steps = np.bincount(owner[tb.mask("solver.rk4_step") & (owner >= 0)], minlength=n)
    calls = np.bincount(owner[rhs & (owner >= 0)], minlength=n)
    bad = np.flatnonzero(integ & (calls != 4 * steps))
    return [f"solve span {i}: {calls[i]} RHS calls for {steps[i]} substeps" for i in bad]
