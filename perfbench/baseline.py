"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --workloads train,erase --seeds 10 \
        --seconds 15 [--trace] [--write perfbench/baseline/BENCH_1.json]

Runs `perfbench/run.py` once per (workload, seed), one process at a time, and
prints for every metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, marking an end-to-end metric whose spread
exceeds a third of its bound in BENCHMARK.json, and then the spreads of the
timings before speed scaling.  With --write it stores the summary, every
run's values, the environment and each seed's deterministic output values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{int(trace)}",
                           "result.json")) as f:
        record = json.load(f)
    return json.loads(lines[-1]), elapsed, record


def summarise(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        # A layer the workload never reaches reads 0 and has no spread.
        spread = (q3 - q1) / med if med else None
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "values": values}
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["steady"] = spread is not None and spread < bounds[name] / 3
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="train,erase,evaluate,pipeline")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write", help="file for the per-run results and the summary")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    seeds = range(1, args.seeds + 1)
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        results = [r for r, _, _ in runs]
        elapsed = [e for _, e, _ in runs]
        report.setdefault("environment", runs[0][2]["environment"])
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run failed its output checks", file=sys.stderr)
        summary = summarise(results, bounds)
        entry = report["workloads"][workload] = {
            "seeds": list(seeds), "process_s": elapsed, "summary": summary,
            "config": runs[0][2]["config"],
            "output_values": [rec["rounds"][0]["values"] for _, _, rec in runs]}
        raw = {}
        if not args.trace:
            raw = summarise([{"metrics": {k: {"value": v, "unit": summary[k]["unit"]}
                                          for k, v in rec["raw_metrics"].items()}}
                             for _, _, rec in runs], {})
            entry["raw_summary"] = raw
            entry["speed_median"] = [statistics.median(rec["speed"]) for _, _, rec in runs]
        print(f"== {workload} ({len(results)} runs, {seconds} s each, "
              f"{max(elapsed):.1f} s longest process)")
        for name, s in summary.items():
            flag = "" if s.get("steady", True) else "   SPREAD > bound/3"
            spread = "n/a   " if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread} {s['unit']}{flag}")
        if raw:
            print("unscaled spreads: " + ", ".join(f"{k} {s['spread']:.4f}" for k, s in raw.items()))
        sys.stdout.flush()
    if args.write:
        with open(args.write, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
