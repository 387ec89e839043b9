"""Benchmark runner for avenas.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` sets the workload up several times (the
median is ``setup_s``), then runs its closed loop for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` runs three passes of the same
work from fresh set-ups on the same seed: one untraced, two traced. Per-layer
metrics come from the first traced pass, the work counters of both traced
passes must agree exactly, and the traced minus untraced numbers are the
tracing overhead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_runs"
SETUPS = 7
TRACE_PASS_SHARE = 1 / 3


def _cap_blas_threads() -> int:
    """Run BLAS on one thread; numpy reads these variables when it is first
    imported, so this runs before that. A second thread would run on the
    other core, whose speed other tenants move independently of the main
    thread's, where the speed probe runs (see calibrate.py)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_avenas() -> None:
    src = ROOT / "src"
    if not (src / "avenas" / "__init__.py").is_file():
        sys.exit(f"error: no avenas sources under {src}")
    sys.path.insert(0, str(src))
    import avenas
    if Path(avenas.__file__).resolve().parent != (src / "avenas").resolve():
        sys.exit(f"error: imported avenas from {avenas.__file__}, not {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _blas_info() -> dict:
    """OpenBLAS version, build string and runtime thread count."""
    import numpy as np
    info = {"version": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version")}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        get = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        conf = getattr(dll, "scipy_openblas_get_config64_", None)
        if get is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            info["threads"] = get()
        if conf is not None:
            conf.restype, conf.argtypes = ctypes.c_char_p, []
            info["config"] = conf().decode()
    return info


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _metadata(args, wl, nproc: int) -> dict:
    import numpy as np
    from avenas import kernels
    return {"workload": wl.name, "config": wl.config(args.seed), "loop": wl.loop,
            "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "kernel_backend": kernels.active_backend(), "numpy": np.__version__,
            "blas": _blas_info(), "nproc": nproc,
            "python": platform.python_version(), "git_commit": _git_commit()}


def _percentile(xs, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(xs), q))


def _end_to_end(t) -> dict:
    """The end-to-end metrics of one measured phase (a ``Tally``): medians
    over ops and over units, so a burst of load from other tenants that
    covers less than half the run does not move them."""
    return {"op_ms_p50": (_percentile(t.op_s, 50) * 1e3 / t.slowdown(), "ms"),
            "ops_per_s": (_percentile(t.rates, 50) * t.slowdown(), "1/s")}


def _extra(t) -> dict:
    """Figures printed for reading but kept out of the gated metrics."""
    if not t.op_s:
        return {"units": t.units, "ops": 0}
    return {"units": t.units, "ops": len(t.op_s),
            "op_ms_p90": _percentile(t.op_s, 90) * 1e3 / t.slowdown(),
            "raw_op_ms_p50": _percentile(t.op_s, 50) * 1e3,
            "raw_ops_per_s": _percentile(t.rates, 50),
            "probes": len(t.probe_s), "slowdown": t.slowdown()}


def _measure(wl, st, tally, tracer=None, seconds=None, units=None):
    """Run units until the next one would end past ``seconds`` (at least
    one), or exactly ``units`` of them. An exception ends the phase and
    counts as one failed operation. On a calibrated workload the speed probe
    runs between ops (see ``Tally.between_ops``)."""
    tally.probing = wl.calibrated
    start = time.perf_counter()
    while units is None or tally.units < units:
        tally.between_ops()
        t0, probing = time.perf_counter(), tally.probe_wall_s
        try:
            wl.unit(st, tally, tracer)
        except Exception as e:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc()
            tally.check(False, f"unit {tally.units}: {type(e).__name__}: {e}")
            return tally
        tally.units += 1
        tally.wall_s += time.perf_counter() - t0 - (tally.probe_wall_s - probing)
        if units is None and (time.perf_counter() - start
                              + tally.wall_s / tally.units > seconds):
            break
    wl.finish(st, tally)
    return tally


def _setup(wl, seed: int, tag):
    workdir = RUN_DIR / f"work-{os.getpid()}-{tag}"
    t0 = time.perf_counter()
    try:
        st = wl.setup(seed, workdir)
        dt = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.prepare(st)
    return st, dt


def run_untraced(wl, args):
    from calibrate import NOMINAL_S, probe
    from workloads import Tally
    # set-up is calibrated on every workload, with probes between set-ups
    times, probes = [], [probe()]
    for i in range(SETUPS):
        if i:
            del st
            gc.collect()
        st, dt = _setup(wl, args.seed, i)
        times.append(dt)
        probes.append(probe())
    slowdown = statistics.median(probes) / NOMINAL_S
    tally = _measure(wl, st, Tally(), seconds=args.seconds)
    metrics = {"setup_s": (statistics.median(times) / slowdown, "s")}
    if tally.rates:
        metrics.update(_end_to_end(tally))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return tally, metrics, dict(_extra(tally), setup_runs_s=times,
                                setup_slowdown=slowdown)


def run_traced(wl, args, meta):
    from spans import Tracer, layer_metrics
    from workloads import Tally
    st, _ = _setup(wl, args.seed, "a")
    base = _measure(wl, st, Tally(), seconds=args.seconds * TRACE_PASS_SHARE)
    passes = []
    for tag in ("b", "c"):
        del st
        gc.collect()
        st, _ = _setup(wl, args.seed, tag)
        tracer = Tracer()
        tracer.install()
        try:
            tally = _measure(wl, st, Tally(), tracer, units=base.units)
        finally:
            tracer.restore()
        if not passes:
            layers = layer_metrics(tracer, tally, st.get("skips", []),
                                   training=wl.name == "encoder-toy")
        passes.append((tracer, tally))
    (t_b, traced), (t_c, repeat) = passes
    result = Tally(attempted=base.attempted + traced.attempted + repeat.attempted,
                   failed=base.failed + traced.failed + repeat.failed,
                   errors=base.errors + traced.errors + repeat.errors)
    diff = sorted(k for k in t_b.counts.keys() | t_c.counts.keys()
                  if t_b.counts[k] != t_c.counts[k])
    result.check(not diff and traced.units == repeat.units,
                 f"work counters differ between two traced passes: {diff[:8]}")
    overhead = {}
    if base.rates and traced.rates:
        plain, slow = _end_to_end(base), _end_to_end(traced)
        for k, (v, unit) in plain.items():
            overhead[k] = slow[k][0] - v
            layers[f"trace.overhead.{k}"] = (overhead[k], unit)
        print(f"# untraced {plain}; traced {slow}", flush=True)
    path = RUN_DIR / f"trace-{wl.name}-seed{args.seed}.json.gz"
    t_b.write(path, dict(meta, units=traced.units, norm=traced.norm,
                         counts=dict(t_b.counts), overhead=overhead))
    print(f"# spans written to {path.relative_to(ROOT)}", flush=True)
    return result, layers, _extra(traced)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    nproc = _cap_blas_threads()
    _import_avenas()
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        p.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    RUN_DIR.mkdir(exist_ok=True)
    meta = _metadata(args, wl, nproc)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    if args.trace:
        tally, metrics, extra = run_traced(wl, args, meta)
    else:
        tally, metrics, extra = run_untraced(wl, args)
    for err in tally.errors:
        print(f"# check failed: {err}", file=sys.stderr)
    print(f"# error_rate {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted}); {json.dumps(extra)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": max(tally.attempted, 1), "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
