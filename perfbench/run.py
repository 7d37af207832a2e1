"""Stage benchmark for ant-lab.

    python3 perfbench/run.py --workload {train,erase,evaluate,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`.  After set-up and an untimed warm-up round, the run repeats one round
of the workload's commands until --seconds of command time are used.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it alternates untraced and traced rounds and reports the per-layer metrics.
The last line of stdout is the JSON result; the full record (environment,
every round, percentiles, spans) goes to --out.  Exit status: 0 when every command and output check
passed, 1 when one failed, 2 when the benchmark could not start.

See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

# Measured decision (README, "BLAS threads"): one BLAS thread is faster here,
# because the evaluation thread pool and OpenBLAS otherwise compete for cores.
# It must be set before NumPy is imported.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["ANT_LAB_THREADS"] = "2"  # the evaluation pool size on a 2-core machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline", "BENCH_1.json")
# Machine-speed reference (README, "Speed scaling").  The shared machine's
# speed drifts by up to 2x over minutes, also within one run.
# `reference_s()` is timed before every set-up and timed round and after the
# last round, and each set-up and round is reported at the speed where it
# takes REFERENCE_S: scaled by REFERENCE_S / the mean of the two reference
# times around it.  REFERENCE_S is near its median on the baseline machine.
REFERENCE_S = 0.1
# Set-ups per run: at least three, and cheap ones repeat until they add up to
# a second, so that setup_s, their median, is not a single noisy instant.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 1.0
# Untraced/traced round pairs in a traced run.
TRACE_PAIRS = 3


def tail(values):
    """Highest percentile with at least ten samples beyond it, as (pct, value), or None."""
    v = sorted(values)
    k = len(v) - 10
    return (100.0 * k / len(v), v[k - 1]) if k >= 1 else None


def reference_s() -> float:
    """Wall time of a fixed NumPy computation shaped like ant_lab's hot paths.

    16-row and 256-row products with a 128-wide layer and a SiLU, as in
    ScoreNet's erase-time and pretraining calls.  It runs NumPy only, never
    ant_lab, so a change to the program cannot move it; the machine can.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.standard_normal((128, 128)) / 16
    small, large = rng.standard_normal((16, 128)), rng.standard_normal((256, 128))
    t0 = time.perf_counter()
    for x, reps in ((small, 900), (large, 180)):
        for _ in range(reps):
            h = x @ w
            h = h / (1.0 + np.exp(-h))
            float(h.sum())
    return time.perf_counter() - t0


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment():
    import numpy
    import scipy

    src = os.path.join(ROOT, "src", "ant_lab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "git_revision": _git_revision(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ANT_LAB_THREADS": os.environ.get("ANT_LAB_THREADS"),
        "loadavg": load,
    }


def _timings(setup_s, timed, speed):
    """Per-item timing series, each set-up and round multiplied by its speed factor."""
    k_setup, k_round = speed[:len(setup_s)], speed[len(setup_s):]
    rounds = list(zip(timed, k_round))
    return {
        "setup_s": [t * k for t, k in zip(setup_s, k_setup)],
        "wall_s": [r.wall * k for r, k in rounds],
        "main_s": [r.main * k for r, k in rounds],
        "second_s": [r.second * k for r, k in rounds],
        "work_per_s": [r.work / (r.work_s * k) for r, k in rounds],
    }


def baseline_values(workload, seed, config):
    """The deterministic output values the baseline recorded for this seed and config, or None."""
    try:
        with open(BASELINE) as f:
            entry = json.load(f)["workloads"][workload]
    except (OSError, ValueError, KeyError):
        return None
    if entry.get("config") != config or seed not in entry.get("seeds", ()):
        return None
    return entry["output_values"][entry["seeds"].index(seed)]


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _want_setup(times, trace):
    if trace:
        return not times
    return len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS)


def parse_args(argv):
    p = argparse.ArgumentParser(description="ant-lab stage benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                   help="directory for run dirs, the result record and spans")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    pkg = os.path.join(ROOT, "src", "ant_lab", "__init__.py")
    if not os.path.isfile(pkg):
        print(f"perfbench: no program source at {os.path.dirname(pkg)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ant_lab.cli as cli

    if os.path.abspath(cli.__file__) != os.path.join(ROOT, "src", "ant_lab", "cli.py"):
        print(f"perfbench: imported ant_lab from {cli.__file__}, not the checkout", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, CommandFailed, Runner, artifact_digests

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(args.out, run_id)
    os.makedirs(out, exist_ok=True)
    runner = Runner(cli, out, args.seed)
    env = environment()

    def check(fn, *fn_args):
        """Run an output check; a malformed artifact that breaks it is a failed check."""
        try:
            fn(*fn_args)
        except Exception:
            runner.check(False, f"{fn.__name__} raised:\n{traceback.format_exc()}")

    setup_s, setup_products, rounds, refs = [], [], [], []
    tracer = None
    try:
        while _want_setup(setup_s, args.trace):
            refs.append(reference_s())
            run_dir = runner.fresh_dir("setup")
            t0 = time.perf_counter()
            workload.setup(runner, run_dir)
            setup_s.append(time.perf_counter() - t0)
            setup_products.append(artifact_digests(run_dir))
        # One untimed round lets lazy imports, allocator pools and page
        # mappings settle before anything is timed.
        warmup = workload.round(runner, run_dir, 0)
        warmup.warmup = True
        rounds.append(warmup)
        check(workload.check_round, runner, run_dir, warmup)
        if args.trace:
            # Untraced and traced rounds alternate, so that the overhead is a
            # difference of medians; the layer table is the first traced round's.
            for traced in (False, True) * TRACE_PAIRS:
                round_tracer = tracing.Tracer(run_id) if traced else None
                if round_tracer is not None:
                    round_tracer.install()
                    tracer = tracer or round_tracer
                try:
                    rnd = workload.round(runner, run_dir, len(rounds))
                finally:
                    if round_tracer is not None:
                        round_tracer.uninstall()
                rnd.traced = traced
                rounds.append(rnd)
                check(workload.check_round, runner, run_dir, rnd)
        else:
            used, timed = 0.0, 0
            while not timed or used + used / timed <= args.seconds:
                refs.append(reference_s())
                rnd = workload.round(runner, run_dir, len(rounds))
                used += rnd.wall
                timed += 1
                rounds.append(rnd)
                check(workload.check_round, runner, run_dir, rnd)
            refs.append(reference_s())
        check(workload.finish, runner, run_dir, setup_products, rounds)
    except CommandFailed:
        pass

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "config": workload.config,
              "environment": env, "setup_s": setup_s, "reference_s": refs,
              "rounds": [{k: v for k, v in vars(r).items() if k != "products"} for r in rounds],
              "errors": runner.errors}
    metrics = {}
    timed = [r for r in rounds if not r.warmup]
    if args.trace and len(timed) == 2 * TRACE_PAIRS:
        layers = tracing.layer_table(tracer.spans, workload.needed_stage_runs(),
                                     len(getattr(cli, "PIPELINE_STAGES", ())))
        layers["trace.overhead_ratio"] = (statistics.median([r.wall for r in timed if r.traced])
                                          / statistics.median([r.wall for r in timed if not r.traced]))
        metrics = layers
        # The result line carries every declared per-layer metric; a layer
        # this workload never reaches reads 0 there and is listed here.
        record["unreached_layers"] = sorted(k for k, v in layers.items() if v == 0)
        record["missing_trace_targets"] = tracer.missing
        tracer.dump(os.path.join(out, "spans.jsonl"))
    elif timed and not args.trace:
        # refs[i] and refs[i + 1] bracket the i-th set-up, then the timed rounds.
        speed = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        raw = _timings(setup_s, timed, [1.0] * len(speed))
        scaled = _timings(setup_s, timed, speed)
        metrics = {k: statistics.median(v) for k, v in scaled.items()}
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["ok_frac"] = (runner.attempted - runner.failed) / max(runner.attempted, 1)
        record["raw_metrics"] = {k: statistics.median(v) for k, v in raw.items()}
        record["speed"] = speed
        record["tails"] = {k: tail(scaled[k]) for k in ("wall_s", "main_s", "second_s")}
    record["metrics"] = metrics
    # A faster change that alters behaviour moves these values at the same
    # seed; they are shown beside the baseline's, not gated on.
    expected = baseline_values(args.workload, args.seed, workload.config)
    record["output_values"] = {
        k: {"value": v, "baseline": None if expected is None else expected.get(k),
            "same": None if expected is None else expected.get(k) == v}
        for k, v in (rounds[0].values.items() if rounds else ())}
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(record, f, indent=1, default=repr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {name: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared if (name := m["name"]) in metrics}
    if runner.failed == 0:  # keep the run dirs only when they explain a failure
        for name in os.listdir(out):
            if os.path.isdir(os.path.join(out, name)):
                shutil.rmtree(os.path.join(out, name))
    _report(args, workload, env, record, result, runner)
    print(json.dumps({"correct": runner.failed == 0 and bool(timed),
                      "attempted": max(runner.attempted, 1),
                      "failed": runner.failed if timed else max(runner.failed, 1),
                      "metrics": result}))
    return 0 if runner.failed == 0 and timed else 1


def _report(args, workload, env, record, result, runner):
    import tracing
    n_timed = sum(not r["warmup"] for r in record["rounds"])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed rounds={n_timed} main={workload.main_cmd!r} second={workload.second_cmd!r}")
    print("# env " + json.dumps(env))
    if "speed" in record:
        print(f"# timings scaled to the reference speed (median factor "
              f"{statistics.median(record['speed']):.4f}); raw values in parentheses")
    raw = record.get("raw_metrics", {})
    for name, m in result.items():
        line = f"{name:40s} {m['value']:<14.6g} {m['unit']:6s}"
        if name in workload.names:
            line += f" = {workload.names[name]}"
        elif args.trace and m["value"] == 0:
            line += " (not reached by this workload)"
        elif name.endswith(tracing.COMPUTED_SUFFIXES):
            line += " (computed)"
        if name in raw:
            line += f" (raw {raw[name]:.6g})"
        t = record.get("tails", {}).get(name)
        if t:
            line += f"   p{t[0]:.0f}={t[1]:.6g} (n={n_timed})"
        print(line.rstrip())
    if "ok_frac" in result:
        print(f"{'failed_frac':40s} {1 - result['ok_frac']['value']:<14.6g} 1      = 1 - ok_frac")
    for k, v in record["output_values"].items():
        line = f"{k:40s} {v['value']:<14.10g} 1      (deterministic output value"
        if v["same"] is None:
            line += "; no baseline for this seed)"
        elif v["same"]:
            line += "; equals the baseline)"
        else:
            line += f"; DIFFERS from the baseline's {v['baseline']!r})"
        print(line)
    for e in runner.errors:
        print(f"FAILED {e}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
