#!/usr/bin/env python3
"""Self-test of the benchmark harness, at smoke sizes (about a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

It checks that
  * every workload prints, with ``--trace 0``, every end-to-end metric of
    BENCHMARK.json with its unit, and passes its correctness checks;
  * every workload prints, with ``--trace 1``, every per-layer metric with
    its unit; ``io.*`` and ``cli.*`` are non-zero on volume-cli-csv only,
    and the Legendre-table calls of paper-inplane-noisy scale with shots;
  * a deliberately corrupted output counts every pass as failed: one
    coefficient shifted (``--corrupt shift``), or all coefficients zeroed
    (``--corrupt zero``), on both workloads;
  * in a directory that holds only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-inplane-noisy", "volume-cli-csv")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    return out


def check_names(out, declared, label):
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: {got} vs {want}"
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], (label, name)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        out = result(run(workload, 0))
        check_names(out, spec["end_to_end"], f"{workload} trace 0")
        assert out["correct"] and out["failed"] == 0, (workload, out)
        for name, m in out["metrics"].items():
            assert m["value"] > 0, (workload, name, m)
        m = {name: v["value"] for name, v in out["metrics"].items()}
        assert m["answer_s"] < m["pass_s"], (workload, m)  # the answer is part of the pass

        out = result(run(workload, 1))
        check_names(out, spec["per_layer"], f"{workload} trace 1")
        assert out["correct"] and out["failed"] == 0, (workload, out)
        m = {name: v["value"] for name, v in out["metrics"].items()}
        touched = [n for n in m if n.startswith(("io.", "cli.")) and m[n] != 0]
        if workload == "volume-cli-csv":
            assert m["io.bytes_written"] > 0 and m["cli.reconstruct_s"] > 0, m
        else:
            assert not touched, (workload, touched)
        if workload == "paper-inplane-noisy":
            # one table per shot in the axis-noise sampler, plus the scan's
            assert m["angular.legendre_sph_table.calls"] >= m["reconstruct.records"], m
        assert 0.0 <= m["uncovered_ratio"] < 0.5, m
        assert m["trace_overhead_ratio"] > 0.0, m
        print(f"ok  {workload}: metrics, units and checks")

    for workload, mode in (("paper-inplane-noisy", "shift"), ("paper-inplane-noisy", "zero"),
                           ("volume-cli-csv", "shift"), ("volume-cli-csv", "zero")):
        out = result(run(workload, 0, "--corrupt", mode))
        assert not out["correct"] and out["failed"] == out["attempted"], (workload, mode, out)
    print("ok  corrupted outputs count as failures")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("paper-inplane-noisy", 0, cwd=bare)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert proc.returncode != 0 and not last[0].startswith("{"), (proc.returncode, last)
    print("ok  without the program it exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
