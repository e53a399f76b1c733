#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

Usage, from the repository root:

    python3 perfbench/stability.py [--runs 10] [--first-seed 1] [--workload NAME]
                                   [--out perfbench/stability.json]

Runs ``run.py`` ``--runs`` times per workload, each with another seed,
and reports for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound.  With ``--out`` it also
records the machine and one traced run per workload, and appends the set
to the sets already in the file, printing how far each median moved
from the first set's.  It exits non-zero when any spread, ``setup_s``
included, is not below a third of its bound, or when a median moved by
more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload")
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    report = {"runs": args.runs, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "run_seconds": spec["run_seconds"], "workloads": {}}
    out = Path(args.out) if args.out else None
    sets = json.loads(out.read_text())["sets"] if out and out.exists() else []
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        failed = attempted = 0
        for i in range(args.runs):
            res = run(name, args.first_seed + i, spec["run_seconds"], 0)
            failed += res["failed"]
            attempted += res["attempted"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rel = (q3 - q1) / med
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bounds[m],
                       "values": vals}
            ok = rel < bounds[m] / 3.0
            steady &= ok
            print(f"{name:22s} {m:12s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {rel:.4f} bound {bounds[m]} {'ok' if ok else 'WIDE'} "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]", flush=True)
        print(f"{name:22s} failed {failed} of {attempted} passes", flush=True)
        report["workloads"][name] = {"metrics": rows, "attempted": attempted, "failed": failed}
        if out:
            traced = run(name, args.first_seed, spec["run_seconds"], 1)
            report["workloads"][name]["traced"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if out:
        for name, rows in report["workloads"].items():
            first = sets[0]["workloads"].get(name) if sets else None
            for m, row in rows["metrics"].items():
                if first:
                    moved = row["median"] / first["metrics"][m]["median"] - 1.0
                    steady &= moved <= bounds[m]
                    print(f"{name:22s} {m:12s} median moved {moved:+.4f} from the first set "
                          f"(bound {bounds[m]})")
        out.write_text(json.dumps({"environment": environment(), "sets": sets + [report]},
                                  indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
