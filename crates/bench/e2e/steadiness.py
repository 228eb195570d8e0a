#!/usr/bin/env python3
"""Measure the benchmark's run-to-run noise floor.

Runs the command in BENCHMARK.json on every workload once per seed (with
`--trace 0`), then reports for each end-to-end metric the median of the
runs and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. It also
records the host's core count and the traced replay's `trace.coverage`
and `trace.overhead_ratio`, which every run prints beside its metrics.

Run from the repository root:

    python3 crates/bench/e2e/steadiness.py --seeds 1-10 --out steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def human_value(stdout, name):
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return float(parts[1])
    return None


def run(cmd, workload, seed, secs):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(secs), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    nproc = next(
        (int(line.split("nproc")[1].split("|")[0]) for line in out.stdout.splitlines() if "nproc" in line),
        None,
    )
    extra = {k: human_value(out.stdout, k) for k in ("trace.coverage", "trace.overhead_ratio")}
    return result, nproc, extra


def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "spread": (q[2] - q[0]) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    ap.add_argument("--out", help="write the record as JSON here")
    a = ap.parse_args()
    bench = json.load(open(a.benchmark))
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "seeds": a.seeds, "workloads": {}}
    for w in names:
        metrics, nprocs, extras, failed = {}, set(), {}, 0
        for s in seeds(a.seeds):
            result, nproc, extra = run(bench["command"], w, s, bench["run_seconds"])
            failed += result["failed"]
            nprocs.add(nproc)
            for k, v in result["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
            for k, v in extra.items():
                extras.setdefault(k, []).append(v)
            print(f"{w} seed {s}: attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
        entry = {
            "nproc": sorted(nprocs),
            "failed": failed,
            "metrics": {k: summary(v) for k, v in metrics.items()},
            "trace": {k: summary(v) for k, v in extras.items()},
        }
        record["workloads"][w] = entry
        for k, s in {**entry["metrics"], **entry["trace"]}.items():
            print(f"{w:15s} {k:22s} median {s['median']:14.6f}  spread {s['spread']:.4f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
