"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/`` there.
With ``--trace 0`` it times the workload's operation and prints the end-to-end
metrics, its times scaled to a reference host speed (see ``hostprobe.py``);
with ``--trace 1`` it spends half the time untraced and half traced and prints
the per-layer metrics, in unscaled seconds.  BLAS/OpenMP run on one thread and
the allocator's thresholds are fixed (see ``fix_allocator``).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment.  Results, unscaled
times and spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def fix_allocator() -> bool:
    """Serve every array from the heap and keep freed memory in the process.

    glibc adapts its mmap threshold to the blocks freed so far, so whether each
    1 MiB lattice temporary is a fresh mapping, paid for in page faults, depends
    on the process's history: the same dense solve then takes up to twice as
    long, the extra being kernel time that varies with the host.  Fixed
    thresholds remove that dependence; arrays still cost their allocation and
    memory traffic.  Returns False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, 256 << 20))


def import_library():
    """Import ``singhyp`` afresh from the checkout's ``src/``.

    Earlier imports are dropped first, so each call pays the full import cost
    and returns unpatched modules.
    """
    for name in [n for n in sys.modules if n == "singhyp" or n.startswith("singhyp.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import singhyp
    if not Path(singhyp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"singhyp imported from {singhyp.__file__}, not from {src}")
    return singhyp


def setup(workload, seed: int):
    """Import the library afresh and build the inputs; returns the start and end
    times, the library and the inputs."""
    t0 = time.perf_counter()
    sh = import_library()
    state = workload.build(sh, seed)
    return (t0, time.perf_counter()), sh, state


class Outcome:
    """Attempted, failed and timed operations of one run, and what went wrong."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.errors: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.intervals)


def measure(workload, sh, state, seconds: float, outcome: Outcome, run_op=None,
            after_op=None) -> list[float]:
    """Run operations for about ``seconds`` (at least one), checking each after it
    is timed and then calling ``after_op``.  An exception or a failed check
    counts as a failure.  Returns the start and end times of this call's
    operations; the first one warms the process up (allocator, lazily built
    grids) and callers leave it out of medians."""
    run_op = run_op or (lambda i, fn, *args: fn(*args))
    intervals = []
    step_times = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = run_op(len(intervals), workload.op, sh, state)
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        intervals.append((t0, t1))
        ok = False
        if out is not None:
            try:
                errs = workload.check(sh, state, out)
                worst = max(errs)
                ok = math.isfinite(worst) and worst <= workload.tolerance
                outcome.errors.append(worst)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if not ok:
            outcome.failed += 1
            print(f"{workload.name}: operation {len(intervals) - 1} failed", file=sys.stderr)
        if after_op is not None:
            after_op()
        now = time.perf_counter()
        step_times.append(now - t0)
        if now - t_begin + statistics.median(step_times) > seconds:
            break
    outcome.intervals += intervals
    return intervals


def durations(intervals) -> list[float]:
    return [t1 - t0 for t0, t1 in intervals]


def warm_median(values) -> float:
    """Median without the first (warm-up) value, when there are others."""
    return statistics.median(values[1:] or values)


def git_rev() -> str:
    """The checkout's commit from ``.git`` when present (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "git_rev": git_rev()}


def run(workload, seed: int, seconds: float, trace: bool, span_file=None):
    """One benchmark run; returns the result object that ``main`` prints and the
    samples behind it."""
    outcome = Outcome()
    samples = {}
    if not trace:
        import hostprobe

        probe = hostprobe.HostProbe()
        probe.start()
        try:
            setup_interval, sh, state = setup(workload, seed)
            setups = [setup_interval]
            # one more set-up after each operation spreads the samples over the
            # run; the operations keep using the first import
            ops = measure(workload, sh, state, seconds, outcome,
                          after_op=lambda: setups.append(setup(workload, seed)[0]))
        finally:
            probe.stop()
        scaled_ops = [probe.scaled(*i) for i in ops]
        scaled_setups = [probe.scaled(*i) for i in setups]
        metrics = {
            "op_s": warm_median(scaled_ops),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        samples.update({"op_s": scaled_ops, "setup_s": scaled_setups,
                        "op_wall_s": durations(ops), "setup_wall_s": durations(setups),
                        "probe_s": [d for _, d in probe.samples]})
    else:
        import tracing

        _, sh, state = setup(workload, seed)
        plain = measure(workload, sh, state, seconds / 2.0, outcome)
        rec = tracing.Recorder()
        tracing.instrument(sh, rec)
        state = workload.build(sh, seed)
        traced = measure(workload, sh, state, seconds / 2.0, outcome, run_op=rec.run_op)
        metrics, outcome.problems = tracing.layer_metrics(rec)
        if not workload.expects_dense:
            outcome.problems += [
                f"{name} = {metrics[name]} on a multiplier-path workload"
                for name in ("quantize.apply_kn.calls", "symbols.lattice_evals")
                if metrics[name] != 0]
        metrics["trace.overhead_ratio"] = (warm_median(durations(traced))
                                           / warm_median(durations(plain)) - 1.0)
        metrics["check.max_rel_err"] = max(outcome.errors, default=math.inf)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        if span_file is not None:
            rec.save(span_file)
    for p in outcome.problems:
        print(f"{workload.name}: {p}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    samples.update({"max_rel_err": outcome.errors, "problems": outcome.problems})
    return result, samples


def _finite(value) -> float:
    """JSON has no inf or nan: a non-finite value (a failed check) reads as the largest float."""
    value = float(value)
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    allocator_fixed = fix_allocator()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    result, samples = run(workload, args.seed, args.seconds, bool(args.trace),
                          span_file=stem.with_suffix(".spans.npz") if args.trace else None)
    env = dict(environment(args), allocator_fixed=allocator_fixed,
               probe_median_s=statistics.median(samples["probe_s"]) if "probe_s" in samples
               else None)
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "result": result, "samples": samples}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
