"""Smoke tests of the stage benchmark at tiny sizes: result schema, output
checks, tracing, and refusal to run without the program's source."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Runner, artifact_digests  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(tmp_path, workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--out", str(tmp_path)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def test_benchmark_json_is_consistent():
    assert set(SPEC["command"][1:]) <= {"perfbench/run.py"}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_schema(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.load(open(tmp_path / f"{workload}-seed3-trace{trace}" / "result.json"))
    for key in ("git_revision", "python", "numpy", "scipy", "blas", "cpu_count",
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "ANT_LAB_THREADS", "loadavg"):
        assert key in record["environment"]
    if trace:
        assert record["missing_trace_targets"] == []
    else:
        n_timed = sum(not r["warmup"] for r in record["rounds"])
        assert len(record["speed"]) == len(record["setup_s"]) + n_timed
        lo, hi = min(record["speed"]), max(record["speed"])
        for name, raw in record["raw_metrics"].items():
            factor = result["metrics"][name]["value"] / raw
            if name == "work_per_s":
                factor = 1 / factor
            assert lo * (1 - 1e-9) <= factor <= hi * (1 + 1e-9), name


def test_refuses_to_run_without_program_source(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(tmp_path / "out", "train", 0, root=str(bare))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_lookup_site():
    import ant_lab.cli as cli
    from ant_lab import finetune, fusion, metrics, net, optim, saliency

    sites = [(cli, "load_checkpoint"), (cli, "erase_single"), (cli, "pretrain"),
             (metrics, "bayes_classify_batch"), (metrics, "sample_dataset"),
             (fusion, "erase_single"), (saliency, "ant_loss"), (finetune, "ddim_step"),
             (net.ScoreNet, "loss_and_grad"), (optim.Adam, "step")]
    before = [getattr(owner, name) for owner, name in sites]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert tracer.missing == []
        for (owner, name), original in zip(sites, before):
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in sites] == before


def test_self_time_subtracts_overlapping_children():
    spans = []
    for i, (start, end, parent) in enumerate([(0, 10, None), (1, 4, 1), (3, 6, 1), (8, 9, 1)], 1):
        s = tracing.Span()
        s.id, s.start, s.end, s.parent, s.attrs = i, start, end, parent, {}
        spans.append(s)
    assert tracing.self_times(spans)[1] == pytest.approx(10 - 5 - 1)


def test_masked_erase_that_touches_other_coordinates_fails(tmp_path, monkeypatch):
    import ant_lab.cli as cli
    from ant_lab.optim import Adam

    workload = WORKLOADS["erase"](tiny=True)
    runner = Runner(cli, str(tmp_path), seed=3)
    run_dir = runner.fresh_dir("setup")
    workload.setup(runner, run_dir)
    workload.check_round(runner, run_dir, workload.round(runner, run_dir, 0))
    assert runner.failed == 0, runner.errors

    step = Adam.step

    def unmasked_step(self, params, grad):
        self.idx = None  # "faster": skip the mask gather
        step(self, params, grad)

    monkeypatch.setattr(Adam, "step", unmasked_step)
    workload.check_round(runner, run_dir, workload.round(runner, run_dir, 1))
    assert any("outside the saliency mask" in e for e in runner.errors)


def test_pipeline_stamp_that_ignores_upstream_keys_fails(tmp_path, monkeypatch):
    import ant_lab.cli as cli

    workload = WORKLOADS["pipeline"](tiny=True)
    runner = Runner(cli, str(tmp_path), seed=3)
    run_dir = runner.fresh_dir("setup")
    workload.setup(runner, run_dir)
    setup_products = [artifact_digests(run_dir)]
    rounds = [workload.round(runner, run_dir, 0)]
    fresh = cli._stage_fresh

    def eval_keys_only(cfg, stage, outputs):
        # "faster": only eval reads eval.n_samples, so reuse every other stage
        if stage != "eval" and all(os.path.exists(cli._run_path(cfg, o)) for o in outputs):
            return True
        return fresh(cfg, stage, outputs)

    monkeypatch.setattr(cli, "_stage_fresh", eval_keys_only)
    rounds += [workload.round(runner, run_dir, i) for i in (1, 2)]
    workload.finish(runner, run_dir, setup_products, rounds)
    assert runner.errors == [
        "check failed: pipeline: a re-run after a pretrain.steps change differs from a cold run"]
