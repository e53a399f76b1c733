#!/usr/bin/env python3
"""Benchmark of the spintomo pipeline, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` it prints the end-to-end metrics.  A pass is a
sequence of short timed steps (see ``workloads.py``).  ``pass_s`` and
``answer_s`` add up, over the steps of a pass (all of them, or those from
records in hand to the outputs), each step's fastest time among the warm
passes this process runs for ``--seconds``.  Fresh processes (import,
exact state and axes, then one pass with empty caches), spread over the
run, give ``setup_s`` and ``peak_rss_mb`` as medians and ``cold_pass_s``
as the same sum of per-step minima over their cold passes.
``max_drho`` is the workload's reconstruction error on infinite data.

Why per-step minima: on a host whose cores other tenants share, load
from outside the process slows everything by up to half for seconds to
minutes at a time.  A step of tens of milliseconds still meets uncontended moments
many times a minute, so its fastest time repeats within a few per cent
from run to run; the fastest or median time of a whole one-second pass
does not.  The median and quartiles of whole passes are printed
alongside.

With ``--trace 1`` it alternates untraced and traced warm passes and
prints per-layer metrics (medians over traced passes) plus the tracing
overhead; the spans go to ``.bench_out/``.  Every pass is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The load is one process with BLAS/OpenMP
pinned to ``THREADS`` threads and malloc set to keep freed memory
(``keep_freed_memory``).
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def keep_freed_memory():
    """Make glibc malloc keep freed memory for reuse; True if it took.

    By default glibc hands large freed blocks (numpy arrays above 128 KiB)
    back to the kernel, so the next call faults the pages in again: one
    10-axis ``exact_records`` call at two_j = 200 took about 6800 minor
    page faults and a third of its time in the kernel.  In a virtual
    machine the cost of a fault swings with the host's load far more than
    the program's own work does.  Fixing the allocator's thresholds, like
    pinning the BLAS threads, keeps that out of the figures.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30)
                and mallopt(m_top_pad, 64 << 20))


MALLOC_KEPT = keep_freed_memory()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import NullRecorder, Recorder, instrument  # noqa: E402
from workloads import WORKLOADS, Steps, pass_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".bench_out")
COLD_PROCESSES = 12
PROBE_REF_S = 3.0e-4   # the timings are scaled to a host where Probe takes this
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "answer_s": "s",
    "cold_pass_s": "s",
    "peak_rss_mb": "MiB",
    "max_drho": "1",
}

# span name -> whether its self time is reported too (spans with child spans)
SPANS = {
    "forward.sample": True,
    "angular.legendre_sph_table": False,
    "reconstruct.compute_weights": False,
    "reconstruct.fbp": True,
    "reconstruct.fold": False,
    "analysis.squeezing_scan": True,
    "states.build": False,
    "states.wigner_grid": True,
    "io.parse_measurements": False,
    "io.write_measurements": False,
    "io.write_outputs": False,
    "io.read_coefficients": False,
    "cli.simulate": True,
    "cli.reconstruct": True,
    "cli.analyze": True,
    "cli.render": True,
}
COUNTS = {
    "angular.legendre_sph_table.calls": "count",
    "angular.cg_tau_table.hits": "count",
    "angular.cg_tau_table.misses": "count",
    "angular.hemi_overlap.calls": "count",
    "reconstruct.records": "count",
    "reconstruct.groups": "count",
    "reconstruct.axes": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
}
RATES = {
    "reconstruct.records_per_s": "1/s",
    "io.parse_rows_per_s": "1/s",
    "analysis.fit_success_ratio": "1",
    "uncovered_ratio": "1",
    "trace_overhead_ratio": "1",
}


def per_layer_units():
    units = {}
    for name, has_self in SPANS.items():
        units[name + "_s"] = "s"
        if has_self:
            units[name + "_self_s"] = "s"
    units.update(COUNTS)
    units.update(RATES)
    return units


class Tally:
    """Attempted and failed passes, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.details = []

    def add(self, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.details.append(detail)

    def merge(self, other):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.details += other["details"]


def run_checked(wl, inputs, seed, rec, tally, corrupt, probe=None):
    """One pass, timed step by step, then checked outside the timed region.

    Every pass of a run, in this process or a fresh one, draws the same
    records from the run seed, so every pass does the same work and the
    per-step minima compare like with like.  Returns (pass seconds, its
    ``Steps``).  A pass that raises, exits a CLI command non-zero or fails
    its check counts as failed; its time still counts.
    """
    steps = Steps(probe)
    t0 = time.perf_counter()
    try:
        outputs = wl.run_pass(inputs, pass_seed(seed, 0), rec, steps)
        wall = time.perf_counter() - t0
        outputs = wl.collect(outputs)
        if corrupt == "shift" and "rho" in outputs:
            outputs["rho"][1, outputs["kmax"]] += 0.5
        elif corrupt == "zero" and "rho" in outputs:
            outputs["rho"][:] = 0.0
        ok, detail = wl.check(inputs, outputs)
    except Exception:  # the harness keeps running and reports the failure
        wall = time.perf_counter() - t0
        ok, detail = False, traceback.format_exc(limit=3)
    tally.add(ok, detail)
    return wall, steps


def fastest_steps(passes):
    """(all steps, answer steps): sums of each step's fastest time over ``passes``."""
    best, answer = {}, set()
    for steps in passes:
        answer |= steps.answer
        for name, seconds in steps.times.items():
            best[name] = min(seconds, best.get(name, math.inf))
    if not best:
        return math.nan, math.nan
    return sum(best.values()), sum(t for name, t in best.items() if name in answer)


def cold_child(args):
    """Fresh process: set up, run one pass with empty caches, report as JSON."""
    sys.path.insert(0, str(SRC))
    import spintomo  # noqa: F401

    wl = WORKLOADS[args.workload](args.smoke)
    inputs = wl.setup(args.seed, NullRecorder())
    setup_s = time.monotonic() - args.launch
    tally = Tally()
    _, steps = run_checked(wl, inputs, args.seed, NullRecorder(), tally, args.corrupt)
    wl.close(inputs)
    print(json.dumps({"setup_s": setup_s, "steps": steps.times, "peak_rss_mb": peak_rss_mb(),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "details": tally.details}))
    return 0


def peak_rss_mb():
    # VmHWM is the peak of this process's own address space.  ru_maxrss is
    # not: exec carries over the peak of the process that launched it, so a
    # cold process would report the measuring process's memory.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_process(args, index, cold, tally):
    """One fresh process: adds its setup_s, cold pass and peak_rss_mb to ``cold``.

    The measuring process waits meanwhile, so the load stays one process.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--cold-child", str(index)]
    cmd += ["--smoke"] * args.smoke
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    launch = time.monotonic()
    proc = subprocess.run(cmd + ["--launch", repr(launch)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tally.add(False, f"cold process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    steps = Steps()
    steps.times = out["steps"]
    cold["passes"].append(steps)
    cold["setup_s"].append(out["setup_s"])
    cold["peak_rss_mb"].append(out["peak_rss_mb"])
    tally.merge(out)


class Probe:
    """A fixed reference computation that calls no spintomo code.

    Calling it returns the wall time of 16k random reads from a 64 MiB
    table.  The table is far larger than the processor caches, so every
    read goes to memory whatever a step left in the caches, and the time
    follows how hard other tenants load the host.  Its fastest time over a
    run sets the run's speed factor ``PROBE_REF_S / fastest probe``.  Of
    the probes tried (interpreter loops, object allocation, array sums,
    mixes of these), this one followed the passes' slow phases closest,
    though not fully: a phase that slows the passes by 40 % slows it by
    about 25 %.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.random(1 << 23)
        self.index = rng.integers(0, self.table.size, 1 << 14)
        self.offset = 0

    def __call__(self):
        # each call reads other places, so no read finds what an earlier call cached
        self.offset = (self.offset + 1_000_003) % self.table.size
        index = (self.index + self.offset) % self.table.size
        t0 = time.perf_counter()
        self.table[index].sum()
        return time.perf_counter() - t0


def median(values):
    return statistics.median(values) if values else math.nan


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def untraced_run(args, wl, inputs, tally):
    """Warm passes for ``--seconds``, with the fresh processes spread among them.

    Fresh process ``i`` starts once ``i / COLD_PROCESSES`` of the run has
    gone, so that the cold samples meet the host in as many states as the
    warm ones.  The run ends when ``--seconds`` have gone and every fresh
    process has run.
    """
    null = NullRecorder()
    n_cold = 1 if args.smoke else COLD_PROCESSES
    cold = {"setup_s": [], "passes": [], "peak_rss_mb": []}
    run_checked(wl, inputs, args.seed, null, tally, args.corrupt)  # warm-up
    passes = []
    probe = Probe()
    started = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if started < n_cold and elapsed >= started * args.seconds / n_cold:
            cold_process(args, started, cold, tally)
            started += 1
        elif started < n_cold or len(passes) < MIN_PASSES or elapsed < args.seconds:
            passes.append(run_checked(wl, inputs, args.seed, null, tally, args.corrupt,
                                      probe)[1])
        else:
            return passes, cold, min(p for s in passes for p in s.probes)


def layer_metrics(rec, pid, wall):
    total, own, top = rec.layer_times(pid)
    counts = rec.counts[pid]
    m = {}
    for name, has_self in SPANS.items():
        m[name + "_s"] = total.get(name, 0.0)
        if has_self:
            m[name + "_self_s"] = own.get(name, 0.0)
    for name in COUNTS:
        m[name] = counts.get(name, 0.0)
    busy = m["reconstruct.compute_weights_s"] + m["reconstruct.fbp_s"]
    m["reconstruct.records_per_s"] = m["reconstruct.records"] / busy if busy else 0.0
    parse = m["io.parse_measurements_s"]
    m["io.parse_rows_per_s"] = counts.get("io.rows_parsed", 0.0) / parse if parse else 0.0
    fits = counts.get("analysis.fits", 0.0)
    m["analysis.fit_success_ratio"] = counts.get("analysis.fits_ok", 0.0) / fits if fits else 0.0
    m["uncovered_ratio"] = (wall - top) / wall
    return m


def traced_run(args, wl, inputs, tally, rec):
    """Alternate untraced and traced warm passes; per-layer medians."""
    import importlib

    angular = importlib.import_module("spintomo.angular")
    null = NullRecorder()
    # the warm-up is this process's first pass, so it starts with an empty
    # tau-table cache; its hits and misses are the cold-pass counts (warm
    # passes only hit)
    before = angular.cg_tau_table.cache_info()
    run_checked(wl, inputs, args.seed, null, tally, args.corrupt)
    after = angular.cg_tau_table.cache_info()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    index = 1
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, _ = run_checked(wl, inputs, args.seed, null, tally, args.corrupt)
        plain.append(wall)
        index += 1
        rec.pass_id = index
        with instrument(rec):
            wall, _ = run_checked(wl, inputs, args.seed, rec, tally, args.corrupt)
        rec.pass_id = None
        traced.append(wall)
        layers.append(layer_metrics(rec, index, wall))
        index += 1
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["states.build_s"] = rec.layer_times("setup")[0].get("states.build", 0.0)
    metrics["angular.cg_tau_table.hits"] = after.hits - before.hits
    metrics["angular.cg_tau_table.misses"] = after.misses - before.misses
    # adjacent pairs see the same machine load, so the ratio of each pair is steadier
    metrics["trace_overhead_ratio"] = median([t / p for t, p in zip(traced, plain)])
    return metrics, traced


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": THREADS,
            "malloc_keeps_freed_memory": MALLOC_KEPT}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, one cold process")
    p.add_argument("--corrupt", choices=("shift", "zero"), default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--cold-child", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--launch", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "spintomo" / "__init__.py").is_file():
        print(f"error: no spintomo sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.cold_child is not None:
        return cold_child(args)

    tally = Tally()
    sys.path.insert(0, str(SRC))
    import spintomo  # noqa: F401

    wl = WORKLOADS[args.workload](args.smoke)
    rec = Recorder() if args.trace else NullRecorder()
    rec.pass_id = "setup"
    inputs = wl.setup(args.seed, rec)
    rec.pass_id = None
    try:
        if args.trace:
            metrics, walls = traced_run(args, wl, inputs, tally, rec)
            units = per_layer_units()
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            rec.dump(str(path))
        else:
            passes, cold, probe_floor = untraced_run(args, wl, inputs, tally)
            pass_s, answer_s = fastest_steps(passes)
            measured = {
                "setup_s": median(cold["setup_s"]),
                "pass_s": pass_s,
                "answer_s": answer_s,
                "cold_pass_s": fastest_steps(cold["passes"])[0],
            }
            speed = PROBE_REF_S / probe_floor
            metrics = {name: value * speed for name, value in measured.items()}
            metrics.update({
                "peak_rss_mb": median(cold["peak_rss_mb"]),
                "max_drho": wl.accuracy(inputs),
            })
            units = END_TO_END
    finally:
        wl.close(inputs)

    print(f"workload {wl.name} ({wl.roadmap}) seed {args.seed}: {json.dumps(wl.size())}")
    print(f"environment: {json.dumps(environment())}")
    if not args.trace:
        print(f"fastest probe {probe_floor * 1e3:.4f} ms, speed factor {speed:.4f}; as measured: "
              + ", ".join(f"{name} {value:.4f} s" for name, value in measured.items()))
    if not args.trace:
        # the steps of a pass, without the probes between them
        walls = [sum(steps.times.values()) for steps in passes]
    q1, q2, q3 = quartiles(walls)
    print(f"whole-pass wall time: min {min(walls):.4f} s, quartiles {q1:.4f} / "
          f"{q2:.4f} / {q3:.4f} s over {len(walls)} passes")
    print(f"fail_ratio {tally.failed / tally.attempted:.4g} "
          f"({tally.failed} of {tally.attempted} passes)")
    for detail in tally.details[:5]:
        print(f"failure: {detail.strip()}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
