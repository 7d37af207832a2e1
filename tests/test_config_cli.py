import dataclasses
import hashlib
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ant_lab import cli, fusion, metrics, workers
from ant_lab.cli import main
from ant_lab.config import (KEYS, MIXTURE_KEYS, ConfigError, DEFAULTS, RunConfig,
                             load_config, parse_value)
from ant_lab.diffusion import infer_ladder
from ant_lab.finetune import LOG_COLUMNS
from ant_lab.net import ScoreNet, clone_frozen, load_checkpoint, save_checkpoint
from ant_lab.saliency import build_concept_mask
from forking import count_forks

TINY = [
    "data.n_samples=600",
    "pretrain.steps=150",
    "ant.steps=5",
    "ant.batch=4",
    "eval.n_samples=100",
    "sweep.grid=0,50,100",
    "sweep.n_samples=100",
    "fuse.steps=3",
]


def _run(run_dir, command, *extra, sets=()):
    args = ["--run-dir", str(run_dir)]
    for kv in TINY + list(sets):
        args += ["--set", kv]
    return main(args + [command, *extra])


def test_importing_the_cli_loads_no_scipy():
    """NumPy is the only runtime dependency: a fresh interpreter that imports the
    command line, and with it every module of the package, loads no scipy module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, ant_lab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_defaults_complete_and_typed():
    cfg = RunConfig()
    assert cfg["ant.lambda1"] == 1.0
    assert cfg["ant.t_prime_train"] == 86
    assert cfg["schedule.T"] == 100
    assert cfg.sweep_grid[0] == 0 and cfg.sweep_grid[-1] == 100
    assert cfg.fuse_concepts == [0, 1, 2]


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig({"nope.key": 1})
    bad = tmp_path / "bad.cfg"
    bad.write_text("data.n_concepts = 8\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_file_parsing(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment\n"
                 "data.n_concepts = 4\n"
                 "ant.lr = 1e-3   # trailing comment\n"
                 "ant.use_mask = true\n")
    cfg = load_config(f)
    assert cfg["data.n_concepts"] == 4
    assert cfg["ant.lr"] == 1e-3
    assert cfg["ant.use_mask"] is True


def test_hash_inside_a_value_is_kept(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("run_dir = runs/exp#2   # the second try\n\t# an indented comment\n")
    assert load_config(f)["run_dir"] == "runs/exp#2"
    f.write_text("seed = 4#5\n")  # not the seed 4 with a comment
    with pytest.raises(ConfigError, match="seed"):
        load_config(f)


def test_key_set_twice_is_rejected_naming_both_lines(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("seed = 1\n# a comment\nseed = 2\n")
    with pytest.raises(ConfigError, match=re.escape(f"{f}:3: seed was set already, on line 1")):
        load_config(f)
    bogus = tmp_path / "bogus"
    assert main(["--run-dir", str(bogus), "--config", str(f), "gen-data"]) == 1
    assert not bogus.exists()


def test_bad_value_types_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("pretrain.steps = many\n")
    with pytest.raises(ConfigError):
        load_config(f)
    f.write_text("ant.use_mask = perhaps\n")
    with pytest.raises(ConfigError):
        load_config(f)
    f.write_text("just a line\n")
    with pytest.raises(ConfigError):
        load_config(f)


def test_resolved_text_covers_every_key():
    cfg = RunConfig({"seed": 3})
    text = cfg.resolved_text()
    for key in DEFAULTS:
        assert f"{key} = " in text
    assert cfg.digest() != RunConfig().digest()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--run-dir", str(tmp_path), "--set", "bogus=1", "gen-data"]) == 1
    assert main(["--run-dir", str(tmp_path), "no-such-command"]) == 1
    # an unknown variant is rejected when the config resolves, before any stage runs
    bogus = tmp_path / "bogus"
    assert main(["--run-dir", str(bogus), "--set", "ant.variant=bogus", "pipeline"]) == 1
    assert not bogus.exists()
    # so is a config file that cannot be read
    missing = tmp_path / "missing.cfg"
    capsys.readouterr()
    assert main(["--run-dir", str(bogus), "--config", str(missing), "gen-data"]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not bogus.exists()
    # so are values out of range, however far into the run they are first read; the
    # config is the only check of each rule (the library takes values as given), so
    # each rule is pinned here by a literal case as well as by its KEYS bound
    for bad, command in [("eval.guidance_scale=-1", "pipeline"),
                         ("ant.target_concept=9", "pipeline"),
                         ("sweep.grid=0,150", "sweep-tprime"),
                         ("fuse.concepts=0,8", "erase-multi"),
                         ("eval.t_prime=101", "eval"),
                         ("ant.t_prime_train=-1", "erase"),
                         ("saliency.n_prompts=4", "saliency"),
                         ("eval.n_samples=50", "pipeline"),
                         ("eval.n_infer_steps=200", "pipeline"),
                         ("ant.n_infer_steps=200", "pipeline"),
                         ("ant.n_infer_steps=0", "erase"),
                         ("pretrain.batch=0", "pipeline"),
                         ("ant.batch=0", "pipeline"),
                         ("data.n_samples=0", "pipeline"),
                         ("sweep.n_samples=0", "sweep-tprime"),
                         ("pretrain.steps=-3", "pipeline"),
                         ("ant.steps=-2", "erase"),
                         ("fuse.steps=-2", "erase-multi"),
                         ("fuse.rank=0", "erase-multi"),
                         ("sweep.grid=", "sweep-tprime"),
                         ("sweep.grid= , ", "sweep-tprime"),
                         ("fuse.concepts=", "erase-multi"),
                         ("fuse.concepts=", "eval"),
                         ("fuse.beta=-1", "erase-multi"),
                         ("ant.eta=-1", "erase"),
                         ("ant.latent_guidance_scale=-2", "erase-multi"),
                         ("seed=-1", "gen-data"),
                         ("pretrain.cond_dropout=1", "pretrain"),
                         ("pretrain.lr=0", "pretrain"),
                         ("ant.lr=0", "erase"),
                         ("fuse.lr=0", "erase-multi"),
                         ("ant.lambda1=-1", "erase"),
                         ("saliency.quantile=1", "saliency"),
                         ("saliency.n_seeds=0", "saliency"),
                         ("data.n_concepts=1", "gen-data"),
                         ("data.n_contexts=0", "gen-data"),
                         ("data.radius_base=0", "gen-data"),
                         ("data.std=0", "gen-data"),
                         ("data.std=5e-324", "gen-data"),  # squares to 0
                         ("data.std=1e200", "gen-data"),  # squares to inf
                         ("eval.n_infer_steps=0", "eval"),
                         ("net.time_embed_dim=3", "pretrain")]:
        assert main(["--run-dir", str(bogus), "--set", bad, command]) == 1, bad
        assert bad.split("=")[0] in capsys.readouterr().err, bad
        assert not bogus.exists(), bad
    # so are a concept and a reversal timestep given on the command line
    for flag, value in [("--t-prime", "150"), ("--t-prime", "-1"),
                        ("--concept", "8"), ("--concept", "-1")]:
        assert main(["--run-dir", str(bogus), "sample", flag, value]) == 1, (flag, value)
        assert not bogus.exists(), (flag, value)
    # pretrain without its dataset artifact is a runtime failure
    assert main(["--run-dir", str(tmp_path / "empty"), "pretrain"]) == 2


@pytest.mark.parametrize("command", ["pretrain", "saliency", "erase", "erase-multi", "ablate",
                                     "sample", "sweep-tprime", "eval", "plot"])
def test_command_failing_before_it_writes_makes_no_run_dir(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    assert _run(run_dir, command) == 2
    assert "failure: " in capsys.readouterr().err
    assert not run_dir.exists()


def test_runtime_value_errors_exit_2(tmp_path, capsys):
    # a ValueError raised while a command runs is a runtime failure, not a bad config
    assert _run(tmp_path, "gen-data") == 0
    assert _run(tmp_path, "pretrain") == 0
    capsys.readouterr()
    # one concept and beta = 0 make a rank-deficient fusion Gram matrix (a LinAlgError)
    assert _run(tmp_path, "erase-multi", sets=["fuse.beta=0", "fuse.concepts=0"]) == 2
    assert "failure: target embeddings do not span" in capsys.readouterr().err
    assert not (tmp_path / "fused.ckpt").exists()
    ckpt = (tmp_path / "pretrained.ckpt").read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(ckpt[:len(ckpt) // 2])
    assert _run(tmp_path, "eval", "--checkpoint", "cut.ckpt") == 2
    assert "cut.ckpt" in capsys.readouterr().err
    assert not (tmp_path / "eval_report.csv").exists()


# lr = 1e300 overflows on purpose: the non-finite loss is what the test is about
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_divergence_exits_2_and_writes_no_checkpoint(tmp_path, capsys):
    assert _run(tmp_path, "gen-data") == 0
    assert _run(tmp_path, "pretrain", sets=["pretrain.lr=1e300"]) == 2
    assert "pretrain diverged: non-finite loss at step" in capsys.readouterr().err
    assert not (tmp_path / "pretrained.ckpt").exists()
    assert not (tmp_path / "pretrain_loss.csv").exists()
    assert _run(tmp_path, "pretrain") == 0
    assert _run(tmp_path, "erase", sets=["ant.lr=1e300"]) == 2
    assert "erase diverged: non-finite loss at step" in capsys.readouterr().err
    assert not (tmp_path / "erased.ckpt").exists()
    assert not (tmp_path / "erase_log.csv").exists()


def test_gen_data_writes_artifacts(tmp_path):
    assert _run(tmp_path, "gen-data") == 0
    assert (tmp_path / "dataset.csv").exists()
    resolved = (tmp_path / "resolved_config.txt").read_text()
    assert "data.n_samples = 600" in resolved


def test_pipeline_skips_and_regenerates(tmp_path):
    assert _run(tmp_path, "pipeline") == 0
    outputs = ["dataset.csv", "pretrained.ckpt", "saliency_mask.txt",
               "erased.ckpt", "eval_report.csv", "summary.csv"]
    for name in outputs:
        assert (tmp_path / name).exists(), name
    mtimes = {name: (tmp_path / name).stat().st_mtime_ns for name in outputs}

    assert _run(tmp_path, "pipeline") == 0
    for name in ["dataset.csv", "pretrained.ckpt", "erased.ckpt", "eval_report.csv"]:
        assert (tmp_path / name).stat().st_mtime_ns == mtimes[name], f"{name} was rebuilt"

    (tmp_path / "eval_report.csv").unlink()
    assert _run(tmp_path, "pipeline") == 0
    assert (tmp_path / "eval_report.csv").exists()
    assert (tmp_path / "erased.ckpt").stat().st_mtime_ns == mtimes["erased.ckpt"]


def test_pipeline_force_reruns(tmp_path):
    assert _run(tmp_path, "pipeline") == 0
    before = (tmp_path / "erased.ckpt").stat().st_mtime_ns
    assert _run(tmp_path, "pipeline", "--force") == 0
    assert (tmp_path / "erased.ckpt").stat().st_mtime_ns > before


def test_sample_and_sweep_and_plot(tmp_path):
    assert _run(tmp_path, "gen-data") == 0
    assert _run(tmp_path, "pretrain") == 0
    assert _run(tmp_path, "sample", "--concept", "1") == 0
    traj = (tmp_path / "trajectories_k1.csv").read_text().splitlines()
    assert traj[0] == "chain,step,t,x,y"
    pts = (tmp_path / "samples_k1.csv").read_text().splitlines()
    assert pts[0] == "x,y,cond"
    assert _run(tmp_path, "sweep-tprime") == 0
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "t_prime,frac_target,off_manifold_frac"
    assert len(sweep) == 4
    assert _run(tmp_path, "plot") == 0
    assert (tmp_path / "sweep.svg").exists()
    assert (tmp_path / "trajectories_k1.svg").exists()


def test_erase_multi_writes_adapters(tmp_path):
    assert _run(tmp_path, "gen-data") == 0
    assert _run(tmp_path, "pretrain") == 0
    assert _run(tmp_path, "erase-multi") == 0
    for k in (0, 1, 2):
        assert (tmp_path / f"adapter_{k}.txt").exists()
    assert (tmp_path / "fused.ckpt").exists()
    assert main(["--run-dir", str(tmp_path)] +
                sum((["--set", kv] for kv in TINY), []) +
                ["eval", "--checkpoint", "fused.ckpt"]) == 0


def test_ablate_writes_one_row_per_variant(tmp_path):
    assert _run(tmp_path, "gen-data") == 0
    assert _run(tmp_path, "pretrain") == 0
    assert _run(tmp_path, "ablate") == 0
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,acc_e,acc_p,h_c"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["A", "B", "C", "D", "E", "full"]
    for ln in lines[1:]:
        assert all(0.0 <= float(v) <= 1.0 for v in ln.split(",")[1:]), ln


def test_gen_data_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(a, "gen-data") == 0
    assert _run(b, "gen-data") == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()



def test_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    x = np.float64(0.1)  # str() would write 0.1
    cli._csv(("a", "b", "c", "d"), [(x, np.int64(7), None, "k"), (1.0, 3, 2.5e-300, None)])(path)
    lines = path.read_text().splitlines()
    assert lines == ["a,b,c,d", "0.10000000000000001,7,,k", "1,3,2.5e-300,"]
    assert float(lines[1].split(",")[0]) == x


def _tiny_config(run_dir):
    sets = dict(kv.split("=", 1) for kv in TINY)
    return load_config(None, {**{k: parse_value(k, v) for k, v in sets.items()},
                              "run_dir": str(run_dir)})


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A TINY `pipeline` run dir; tests that change it work on a copy."""
    run_dir = tmp_path_factory.mktemp("pipeline")
    assert _run(run_dir, "pipeline") == 0
    return run_dir


def test_pipeline_writes_exactly_the_declared_outputs(tiny_pipeline):
    declared = {name for _, outputs in cli.PIPELINE_STAGES for name in outputs}
    stamps = {f".stamp-{stage}" for stage, _ in cli.PIPELINE_STAGES}
    assert set(os.listdir(tiny_pipeline)) == (declared | stamps | {
        cli.THRESHOLD, ".stamp-threshold", "summary.csv", "resolved_config.txt"})


def test_pipeline_csv_artifacts(tiny_pipeline):
    """What each stage's CSV holds: header, one row per record, cell format."""
    def lines(name):
        return (tiny_pipeline / name).read_text().splitlines()

    loss = lines("pretrain_loss.csv")
    assert loss[0] == "step,loss"
    assert [int(ln.split(",")[0]) for ln in loss[1:]] == [100, 150]

    erase = lines("erase_log.csv")
    assert erase[0] == "step,t1,t2,L_preserve,L_erase,L_uncond_early,L_uncond_late,total"
    assert erase[0] == ",".join(LOG_COLUMNS)
    assert [int(ln.split(",")[0]) for ln in erase[1:]] == list(range(5))

    # one `n_maps,active_params` line per intersected map, as build_concept_mask reports it
    cfg = _tiny_config(tiny_pipeline)
    net_cfg, params = load_checkpoint(tiny_pipeline / "pretrained.ckpt")
    _, curve = build_concept_mask(ScoreNet(net_cfg), params, clone_frozen(params),
                                  cfg["ant.target_concept"], cfg.saliency_config,
                                  cfg.ant_config, cfg.schedule, base_seed=cfg["seed"])
    assert len(curve) == cfg["saliency.n_prompts"] * cfg["saliency.n_seeds"]
    assert (tiny_pipeline / "saliency_curve.csv").read_text() == \
        "n_maps,active_params\n" + "".join(f"{n},{a}\n" for n, a in curve)

    # concept rows (erased, then preserved with a w2 cell), then aggregate rows
    report = [ln.split(",") for ln in lines("eval_report.csv")]
    assert report[0] == ["concept", "role", "accuracy", "w2_vs_oracle"]
    assert [r[:2] for r in report[1:9]] == [["0", "erased"]] + [[str(k), "preserved"]
                                                                 for k in range(1, 8)]
    assert report[1][3] == "" and all(r[3] for r in report[2:9])
    assert [r[:2] for r in report[9:]] == [["aggregate", m] for m in
                                          ("acc_e", "acc_p", "h_c", "off_manifold_frac")]
    assert all(len(r) == 4 and r[3] == "" for r in report[9:])
    assert lines("summary.csv") == ["metric,value"] + [f"{r[1]},{r[2]}" for r in report[9:]]


def _mtimes(run_dir):
    return {name: (run_dir / name).stat().st_mtime_ns for name in os.listdir(run_dir)}


def test_copied_run_dir_stays_fresh_until_the_source_changes(tiny_pipeline, tmp_path,
                                                             monkeypatch):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_pipeline, copy)
    before = _mtimes(copy)
    assert _run(copy, "pipeline") == 0
    after = _mtimes(copy)
    # only the two files every run rewrites are new
    assert {n for n in before if after[n] != before[n]} == {"resolved_config.txt", "summary.csv"}
    # the same config under other code: every stage re-runs
    monkeypatch.setattr(cli, "SOURCE_DIGEST", "0" * 64)
    assert _run(copy, "pipeline") == 0
    rerun = _mtimes(copy)
    for stage, outputs in cli.PIPELINE_STAGES:
        for name in outputs + (f".stamp-{stage}",):
            assert rerun[name] != after[name], name
        assert f"source {'0' * 64}\n" in (copy / f".stamp-{stage}").read_text()


def test_failing_command_leaves_resolved_config_alone(tiny_pipeline, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_pipeline, copy)
    before = (copy / "resolved_config.txt").read_bytes()
    assert _run(copy, "erase-multi",
                sets=["pretrain.steps=999", "fuse.beta=0", "fuse.concepts=0"]) == 2
    assert "failure: target embeddings do not span" in capsys.readouterr().err
    assert (copy / "resolved_config.txt").read_bytes() == before


@pytest.mark.parametrize("damage", ["nan delta", "inf target embedding"])
def test_erase_multi_on_non_finite_fusion_input_exits_2(tiny_pipeline, tmp_path, capsys,
                                                        monkeypatch, damage):
    copy = _copy(tiny_pipeline, tmp_path)
    if damage == "nan delta":
        def train_concept_lora(net, pretrained, concept, cfg, schedule, rank=4):
            adapter = net.init_lora(rank, seed=concept)
            adapter.flat[:] = np.nan
            return adapter
        monkeypatch.setattr(fusion, "train_concept_lora", train_concept_lora)
    else:
        embeddings = fusion.concept_target_embeddings
        monkeypatch.setattr(fusion, "concept_target_embeddings", lambda net, params, k: [
            e + (np.inf if k == 0 else 0.0) for e in embeddings(net, params, k)])
    assert _run(copy, "erase-multi") == 2
    assert "failure: fusion inputs are not finite" in capsys.readouterr().err
    assert not (copy / "fused.ckpt").exists()


def _erase_multi_diverging_on_concept_1(run_dir, cpus):
    """`erase-multi` with `cpus` CPUs claimed, concept 1's adapter trained at an
    infinite learning rate: (the exit status, the forks)."""
    workers._cpus = lambda: cpus
    forks = count_forks()
    erase_single = fusion.erase_single

    def diverging(net, pretrained, concept, cfg, *args, **kwargs):
        if concept == 1:
            cfg = dataclasses.replace(cfg, lr=math.inf)
        return erase_single(net, pretrained, concept, cfg, *args, **kwargs)
    fusion.erase_single = diverging
    return _run(run_dir, "erase-multi"), len(forks)


def test_forked_erase_multi_diverging_on_its_second_concept_exits_2_as_the_loop(tmp_path,
                                                                                 fresh):
    """Concept 1's TrainingDivergedError crosses back from its worker process: exit
    2 with the loop's stderr, exactly, and no fused.ckpt or adapter written."""
    errs = []
    for cpus, forks in ((3, 2), (1, 0)):
        run_dir = tmp_path / f"cpus{cpus}"
        run_dir.mkdir()
        save_checkpoint(run_dir / "pretrained.ckpt",
                        ScoreNet(_tiny_config(run_dir).net_config).init_params(seed=0))
        result, err = fresh(_erase_multi_diverging_on_concept_1, str(run_dir), cpus,
                            ignore=["ignore::RuntimeWarning"], stderr=True)
        assert result == (2, forks)
        assert sorted(p.name for p in run_dir.iterdir()) == ["pretrained.ckpt"]
        errs.append(err)
    assert errs[0] == errs[1] == "failure: erase diverged: non-finite loss at step 1\n"


def _copy(tiny_pipeline, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(tiny_pipeline, copy)
    return copy


def test_erase_names_a_mask_made_for_another_width(tiny_pipeline, tmp_path, capsys):
    copy = _copy(tiny_pipeline, tmp_path)
    narrow = ["net.hidden_width=16", "ant.use_mask=true"]
    assert _run(copy, "pretrain", sets=narrow) == 0
    erased = (copy / "erased.ckpt").read_bytes()
    capsys.readouterr()
    assert _run(copy, "erase", sets=narrow) == 2
    err = capsys.readouterr().err
    assert f"saliency mask {copy / 'saliency_mask.txt'} covers" in err
    assert "run saliency again" in err
    assert (copy / "erased.ckpt").read_bytes() == erased


@pytest.mark.parametrize("name, command, damage", [
    ("pretrained.ckpt", "saliency", lambda text: text.replace("\nvalues\n", "\nhello\nvalues\n")),
    ("saliency_mask.txt", "erase", lambda text: text.replace(" active=", " active=9", 1)),
], ids=["checkpoint-extra-line", "mask-wrong-active-count"])
def test_artifact_its_writer_never_writes_exits_2_naming_it(tiny_pipeline, tmp_path, capsys,
                                                            name, command, damage):
    copy = _copy(tiny_pipeline, tmp_path)
    path = copy / name
    path.write_text(damage(path.read_text()))
    before = _files(copy)
    capsys.readouterr()
    assert _run(copy, command, sets=["ant.use_mask=true"]) == 2
    assert str(path) in capsys.readouterr().err
    assert _files(copy) == before


def _rewritten(run_dir, before):
    return {n for n, t in _mtimes(run_dir).items() if before.get(n) != t}


def _stamp_lines(run_dir, stage):
    return (run_dir / f".stamp-{stage}").read_text().splitlines()


def test_stamps_record_the_keys_each_stage_read(tiny_pipeline):
    keys = {ln.split()[1] for ln in _stamp_lines(tiny_pipeline, "gen-data")
            if ln.startswith("key ")}
    assert keys == {"seed", "data.n_concepts", "data.n_contexts", "data.radius_base",
                    "data.std", "data.n_samples"}
    assert "key data.n_samples = 600" in _stamp_lines(tiny_pipeline, "gen-data")
    for stage, outputs in cli.PIPELINE_STAGES:
        lines = _stamp_lines(tiny_pipeline, stage)
        assert not any(ln.startswith("key run_dir ") for ln in lines)
        assert {ln.split()[1] for ln in lines if ln.startswith("output ")} == set(outputs)
    # erase opens no mask with ant.use_mask=false; eval on erased.ckpt reads no fuse.concepts
    assert [ln.split()[1] for ln in _stamp_lines(tiny_pipeline, "erase")
            if ln.startswith("input ")] == ["pretrained.ckpt"]
    eval_stamp = _stamp_lines(tiny_pipeline, "eval")
    assert not any(ln.startswith("key fuse.") for ln in eval_stamp)
    assert "key net.hidden_width = 128" in eval_stamp  # _load_net checks the vocabulary


def test_eval_only_change_reruns_eval_alone(tiny_pipeline, tmp_path):
    copy = _copy(tiny_pipeline, tmp_path)
    before = _mtimes(copy)
    assert _run(copy, "pipeline", sets=["eval.n_samples=101"]) == 0
    assert _rewritten(copy, before) == {"eval_report.csv", ".stamp-eval", "summary.csv",
                                        "resolved_config.txt"}


@pytest.mark.parametrize("use_mask,rerun", [("false", {"saliency"}),
                                            ("true", {"saliency", "erase", "eval"})])
def test_saliency_change_reaches_erase_only_through_the_mask(tiny_pipeline, tmp_path,
                                                             use_mask, rerun):
    copy = _copy(tiny_pipeline, tmp_path)
    mask = [f"ant.use_mask={use_mask}"]
    assert _run(copy, "pipeline", sets=mask) == 0
    before = _mtimes(copy)
    assert _run(copy, "pipeline", sets=mask + ["saliency.quantile=0.9"]) == 0
    assert {n[len(".stamp-"):] for n in _rewritten(copy, before)
            if n.startswith(".stamp-")} == rerun


def test_rerun_giving_identical_bytes_leaves_later_stages_fresh(tiny_pipeline, tmp_path):
    copy = _copy(tiny_pipeline, tmp_path)
    original = (copy / "erased.ckpt").read_bytes()
    (copy / "erased.ckpt").write_bytes(b"other bytes\n")
    before = _mtimes(copy)
    assert _run(copy, "pipeline") == 0
    assert (copy / "erased.ckpt").read_bytes() == original
    assert _rewritten(copy, before) == {"erased.ckpt", "erase_log.csv", ".stamp-erase",
                                        "summary.csv", "resolved_config.txt"}
    before = _mtimes(copy)  # the new stamp holds the digests of the bytes written
    assert _run(copy, "pipeline") == 0
    assert _rewritten(copy, before) == {"summary.csv", "resolved_config.txt"}


def test_ant_steps_change_reruns_erase_and_eval_but_not_saliency(tiny_pipeline, tmp_path,
                                                                 caplog):
    """The saliency loss reads neither ant.steps nor ant.lr, so its stamp holds neither."""
    copy = _copy(tiny_pipeline, tmp_path)
    saliency = _stamp_lines(copy, "saliency")
    assert not any(ln.startswith(("key ant.steps ", "key ant.lr ")) for ln in saliency)
    assert "key ant.batch = 4" in saliency
    before = _mtimes(copy)
    with caplog.at_level(logging.INFO, logger="ant_lab.cli"):
        assert _run(copy, "-v", "pipeline", sets=["ant.steps=4"]) == 0
    assert "stage saliency up to date; skipping" in caplog.messages
    assert {n[len(".stamp-"):] for n in _rewritten(copy, before)
            if n.startswith(".stamp-")} == {"erase", "eval"}
    assert _run(tmp_path / "cold", "pipeline", sets=["ant.steps=4"]) == 0
    assert _artifacts(copy) == _artifacts(tmp_path / "cold")


def test_threshold_file_holds_the_drawn_value(tiny_pipeline):
    cfg = _tiny_config(tiny_pipeline)
    value = metrics.off_manifold_threshold(cfg.mixture_spec)
    text = (tiny_pipeline / cli.THRESHOLD).read_text()
    assert text == f"{value:.17g}\n" and float(text).hex() == value.hex()
    # an ordinary stamp: the source, the mixture keys and the file's digest
    assert _stamp_lines(tiny_pipeline, "threshold") == [
        f"source {cli.SOURCE_DIGEST}", *(f"key {k} = {cfg[k]}" for k in MIXTURE_KEYS),
        f"output {cli.THRESHOLD} {cli._file_digest(tiny_pipeline / cli.THRESHOLD)}"]


def test_eval_and_sweep_read_the_threshold_or_draw_it_alike(tiny_pipeline, tmp_path,
                                                           monkeypatch):
    calls, real = [], metrics.off_manifold_threshold
    monkeypatch.setattr(metrics, "off_manifold_threshold",
                        lambda spec: calls.append(spec) or real(spec))
    runs = {}
    for present in (True, False):
        run_dir = tmp_path / str(present)
        shutil.copytree(tiny_pipeline, run_dir)
        if not present:
            (run_dir / cli.THRESHOLD).unlink()
        before = _mtimes(run_dir)
        for command in ("eval", "sweep-tprime"):
            assert _run(run_dir, command) == 0
        # read, the file is left as it was; drawn, eval writes it and sweep-tprime reads it
        assert len(calls) == (0 if present else 1)
        assert (cli.THRESHOLD in _rewritten(run_dir, before)) is not present
        runs[present] = {n: (run_dir / n).read_bytes()
                         for n in ("eval_report.csv", "sweep.csv", "sweep.svg", cli.THRESHOLD)}
    assert runs[True] == runs[False]
    assert runs[True][cli.THRESHOLD] == (tiny_pipeline / cli.THRESHOLD).read_bytes()


def test_threshold_of_other_keys_is_drawn_again(tiny_pipeline, tmp_path):
    copy = _copy(tiny_pipeline, tmp_path)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(copy / "erased.ckpt", fresh / "erased.ckpt")
    for run_dir in (copy, fresh):
        assert _run(run_dir, "eval", sets=["data.std=0.4"]) == 0
    assert "key data.std = 0.4" in _stamp_lines(copy, "threshold")
    for name in ("eval_report.csv", cli.THRESHOLD, ".stamp-threshold"):
        assert (copy / name).read_bytes() == (fresh / name).read_bytes()
    assert (copy / cli.THRESHOLD).read_bytes() != (tiny_pipeline / cli.THRESHOLD).read_bytes()


def _without_resolved_config(run_dir):
    return {n: b for n, b in _files(run_dir).items() if n != "resolved_config.txt"}


def test_threshold_change_makes_eval_stale(tiny_pipeline, tmp_path, caplog):
    """A deleted or edited threshold file is drawn again, so the re-run equals a cold
    run; a well-formed edited value is not read back."""
    copy = _copy(tiny_pipeline, tmp_path)
    for edit, reason in ((lambda p: p.unlink(), "missing"),
                         (lambda p: p.write_text("-3.5\n"), "changed")):
        edit(copy / cli.THRESHOLD)
        before = _mtimes(copy)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ant_lab.cli"):
            assert _run(copy, "pipeline") == 0
        assert f"stage eval is stale: input {cli.THRESHOLD} {reason}" in caplog.messages
        assert _rewritten(copy, before) == {"eval_report.csv", cli.THRESHOLD,
                                            ".stamp-threshold", ".stamp-eval",
                                            "summary.csv", "resolved_config.txt"}
        assert _without_resolved_config(copy) == _without_resolved_config(tiny_pipeline)


@pytest.fixture(scope="module")
def intact_run(tiny_pipeline, tmp_path_factory):
    """{command: the files, bar resolved_config.txt, that `eval` or `sweep-tprime`
    leaves in a copy of the TINY run dir, reading its intact threshold file}"""
    files = {}
    for command in ("eval", "sweep-tprime"):
        run_dir = _copy(tiny_pipeline, tmp_path_factory.mktemp(command))
        assert _run(run_dir, command) == 0
        files[command] = _without_resolved_config(run_dir)
    return files


@pytest.mark.parametrize("command", ["eval", "sweep-tprime"])
def test_edited_threshold_value_is_drawn_again_by_each_command(tiny_pipeline, intact_run,
                                                               tmp_path, monkeypatch, command):
    calls, real = [], metrics.off_manifold_threshold
    monkeypatch.setattr(metrics, "off_manifold_threshold",
                        lambda spec: calls.append(spec) or real(spec))
    copy = _copy(tiny_pipeline, tmp_path)
    assert _run(copy, command) == 0  # reads the file, hashed in this process
    (copy / cli.THRESHOLD).write_text("-3.5\n")
    assert _run(copy, command) == 0  # an earlier command's digest is not trusted
    assert len(calls) == 1
    assert _without_resolved_config(copy) == intact_run[command]


_BAD_THRESHOLD = pytest.mark.parametrize("bad", [
    lambda text: text[:-5],  # cut mid-value: no final newline
    lambda text: "data.n_concepts = 8\n",  # a file of the older format, cut after a line
    lambda text: "",
    lambda text: "nan\n",
    lambda text: "-inf\n",
    lambda text: "-7.0.1\n",
    lambda text: "-7,015\n",  # a decimal comma
    lambda text: "\n",  # the value's line is blank
    lambda text: "\xff\xfe" + text,
    lambda text: text + "0",  # a partial line after the value
    lambda text: text[:-1] + "0\n",  # the same float, but not as %.17g writes it
], ids=["cut-mid-line", "cut-after-a-line", "empty", "nan", "inf", "bad-number",
        "bad-separator", "missing-line", "not-text", "trailing-partial-line", "not-17g"])


@pytest.mark.parametrize("command", ["eval", "sweep-tprime"])
@_BAD_THRESHOLD
def test_bad_threshold_file_is_drawn_again(tiny_pipeline, intact_run, tmp_path, command, bad):
    """A file whose digest no longer matches its stamp is drawn again, to the bytes a
    run dir with the intact file ends with."""
    copy = _copy(tiny_pipeline, tmp_path)
    path = copy / cli.THRESHOLD
    path.write_bytes(bad(path.read_text()).encode("latin-1"))
    assert _run(copy, command) == 0
    assert _without_resolved_config(copy) == intact_run[command]


@pytest.mark.parametrize("command", ["eval", "sweep-tprime"])
@_BAD_THRESHOLD
def test_bad_threshold_file_exits_2_naming_it(tiny_pipeline, tmp_path, capsys, command, bad):
    """The loader's own check: a bad file whose stamp was rewritten to match it."""
    copy = _copy(tiny_pipeline, tmp_path)
    path = copy / cli.THRESHOLD
    old = cli._file_digest(path)
    path.write_bytes(bad(path.read_text()).encode("latin-1"))
    stamp = copy / ".stamp-threshold"
    stamp.write_text(stamp.read_text().replace(old, cli._file_digest(path)))
    before = _files(copy)
    capsys.readouterr()
    assert _run(copy, command) == 2
    assert str(path) in capsys.readouterr().err
    assert _files(copy) == before


@pytest.mark.parametrize("command", ["eval", "sweep-tprime"])
def test_non_finite_threshold_exits_2_and_writes_nothing(tiny_pipeline, tmp_path, capsys,
                                                         monkeypatch, command):
    """A drawn threshold that is nan: the file is missing, so it is drawn again."""
    copy = _copy(tiny_pipeline, tmp_path)
    (copy / cli.THRESHOLD).unlink()
    monkeypatch.setattr(metrics, "off_manifold_threshold", lambda spec: float("nan"))
    before = _files(copy)
    capsys.readouterr()
    assert _run(copy, command) == 2
    assert "failure: the off-manifold threshold is nan" in capsys.readouterr().err
    assert _files(copy) == before


# the older format held the digest of the whole config, then the output digests
_OLD_STAMP = "config {}\nsource {}\neval_report.csv {}\n"


@pytest.mark.parametrize("stamp", [b"garbage\n", b"", b"\xff\xfe\n", _OLD_STAMP])
def test_unparsable_or_old_stamp_reruns_its_stage(tiny_pipeline, tmp_path, stamp, caplog):
    copy = _copy(tiny_pipeline, tmp_path)
    if stamp is _OLD_STAMP:
        stamp = stamp.format(_tiny_config(copy).digest(), cli.SOURCE_DIGEST,
                             cli._file_digest(copy / "eval_report.csv")).encode()
    (copy / ".stamp-eval").write_bytes(stamp)
    before = _mtimes(copy)
    with caplog.at_level(logging.INFO, logger="ant_lab.cli"):
        assert _run(copy, "pipeline") == 0
    assert "stage eval is stale: unparsable stamp" in caplog.messages
    assert _rewritten(copy, before) == {"eval_report.csv", ".stamp-eval", "summary.csv",
                                        "resolved_config.txt"}
    assert _stamp_lines(copy, "eval") == _stamp_lines(tiny_pipeline, "eval")


def test_pipeline_verbose_explains_each_stage(tiny_pipeline, tmp_path, caplog, monkeypatch):
    copy = _copy(tiny_pipeline, tmp_path)

    def pipeline(*sets):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ant_lab.cli"):
            assert _run(copy, "-v", "pipeline", sets=sets) == 0
        return [m for m in caplog.messages if not m.endswith(" s")], \
            [m.split(" in ")[0] for m in caplog.messages if m.endswith(" s")]

    (copy / "saliency_curve.csv").unlink()
    (copy / ".stamp-erase").unlink()
    assert pipeline("eval.n_samples=101") == (
        ["stage gen-data up to date; skipping", "stage pretrain up to date; skipping",
         "stage saliency is stale: output saliency_curve.csv missing",
         "stage erase is stale: no stamp", "stage eval is stale: eval.n_samples 100 -> 101"],
        ["stage saliency re-ran", "stage erase re-ran", "stage eval re-ran"])
    (copy / "pretrain_loss.csv").write_text("step,loss\n")
    assert pipeline("eval.n_samples=101", "ant.variant=B") == (
        ["stage gen-data up to date; skipping",
         "stage pretrain is stale: output pretrain_loss.csv changed",
         "stage saliency up to date; skipping", "stage erase is stale: ant.variant full -> B",
         "stage eval is stale: input erased.ckpt changed"],
        ["stage pretrain re-ran", "stage erase re-ran", "stage eval re-ran"])
    monkeypatch.setattr(cli, "SOURCE_DIGEST", "0" * 64)
    cfg = _tiny_config(copy)
    with caplog.at_level(logging.INFO, logger="ant_lab.cli"):
        assert not cli._stage_fresh(cfg, "gen-data", ("dataset.csv",))
    assert caplog.messages[-1] == "stage gen-data is stale: source digest changed"


def test_checkpoint_of_another_vocabulary_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "gen-data", sets=["data.n_concepts=7"]) == 0
    assert _run(tmp_path, "pretrain", sets=["data.n_concepts=7"]) == 0
    assert _run(tmp_path, "eval", "--checkpoint", "pretrained.ckpt") == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'pretrained.ckpt'} has n_concepts = 7, but the config gives 8" in err
    assert not (tmp_path / "eval_report.csv").exists()


UNBOUNDED = {"run_dir", "ant.use_mask", "ant.variant"}


def test_every_key_declares_its_bounds():
    assert {key for key, (_, *bounds) in KEYS.items() if not bounds} == UNBOUNDED
    assert DEFAULTS == {key: default for key, (default, *_) in KEYS.items()}
    order = list(KEYS)
    for key, (_, *bounds) in KEYS.items():
        for bound in bounds:
            op, operand = bound.split()
            assert op in (">=", ">", "<=", "<"), (key, bound)
            # a key operand is itself checked before the keys bounded by it
            assert (order.index(operand) < order.index(key) if operand in KEYS
                    else math.isfinite(float(operand))), (key, bound)
    # README's validation sentence points at the table and names the same keys
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = " ".join(f.read().split())
    assert "`ant_lab.config.KEYS`" in readme
    assert "every key but `run_dir`, `ant.use_mask` and `ant.variant`" in readme


def _smallest_std():
    """The smallest data.std whose square is a positive normal float."""
    std = math.sqrt(sys.float_info.min)
    while std * std < sys.float_info.min:
        std = math.nextafter(std, math.inf)
    while math.nextafter(std, -math.inf) ** 2 >= sys.float_info.min:
        std = math.nextafter(std, -math.inf)
    return std


def _edges(key, base):
    """(value, legal) pairs for `key` on config `base`: the nearest legal and
    illegal values at each bound, and for a float key nan and +-inf.  Past
    data.std's `> 0` bound, RunConfig also needs data.std squared to be a
    positive normal float: the values in between are illegal too."""
    is_float = isinstance(DEFAULTS[key], float)
    for bound in KEYS[key][1:]:
        op, operand = bound.split()
        limit = base[operand] if operand in KEYS else float(operand)
        limit = limit if is_float else int(limit)
        below = math.nextafter(limit, -math.inf) if is_float else limit - 1
        above = math.nextafter(limit, math.inf) if is_float else limit + 1
        inside, outside = {">=": (limit, below), ">": (above, limit),
                           "<=": (limit, above), "<": (below, limit)}[op]
        if key == "data.std":
            yield inside, False
            inside = _smallest_std()
            yield math.nextafter(inside, -math.inf), False
        yield inside, True
        yield outside, False
    if is_float:
        yield from ((v, False) for v in (math.nan, math.inf, -math.inf))


_TINY_BASE = _tiny_config("runs/unused")


def test_data_std_edges_are_legal_exactly_when_the_config_accepts_them():
    edges = list(_edges("data.std", _TINY_BASE))
    assert (5e-324, False) in edges
    for value, legal in edges:
        assert _valid("data.std", str(value)) == legal, value


@pytest.mark.parametrize("key,value", [(key, str(v)) for key in KEYS
                                       for v, legal in _edges(key, _TINY_BASE) if not legal])
def test_value_past_a_bound_exits_1_naming_the_key(tmp_path, capsys, key, value):
    run_dir = tmp_path / "run"
    assert _run(run_dir, "gen-data", sets=[f"{key}={value}"]) == 1
    assert key in capsys.readouterr().err
    assert not run_dir.exists()


@given(st.integers(1, 400), st.data())
def test_infer_steps_bound_agrees_with_infer_ladder(T, data):
    """The bound `n_infer_steps <= schedule.T` stands in for building the ladder."""
    n = data.draw(st.integers(1, 2 * T + 2))
    base = {"schedule.T": T, "ant.t_prime_train": 0, "sweep.grid": "0",
            "ant.n_infer_steps": 1, "eval.n_infer_steps": 1}
    try:
        infer_ladder(RunConfig(base).schedule, n)
        ladder = True
    except ValueError:
        ladder = False
    for key in ("ant.n_infer_steps", "eval.n_infer_steps"):
        try:
            RunConfig({**base, key: n})
            accepted = True
        except ConfigError as e:
            assert key in str(e)
            accepted = False
        assert accepted == ladder == (n <= T), (T, n, key)


# Overrides for the contract test: the edge values of every bound on the TINY
# config, legal and not, plus the unbounded keys and two malformed lists.
_LEGAL, _ILLEGAL = ([(key, str(v)) for key in KEYS for v, legal in _edges(key, _TINY_BASE)
                     if legal == wanted] for wanted in (True, False))
_LEGAL += [("ant.use_mask", "true"), ("ant.variant", "B")]
_ILLEGAL += [("ant.variant", "bogus"), ("fuse.concepts", "0,0"), ("sweep.grid", " , ")]
_FLAGS = {"sample": [["--concept", "1"], ["--concept", "8"], ["--t-prime", "100"],
                     ["--t-prime", "101"]],
          "eval": [["--checkpoint", "fused.ckpt"]], "pipeline": [["--force"]]}


def _files(run_dir):
    """{name: bytes} of the run dir's files, or None when there is no run dir."""
    if run_dir.exists():
        return {n: (run_dir / n).read_bytes() for n in os.listdir(run_dir)}


@settings(max_examples=40)
@given(st.data())
def test_cli_contract(tiny_pipeline, tmp_path, capsys, data):
    """Whatever the command and overrides: exit 1 leaves the run dir as it was (or
    absent), exit 2 leaves no artifact of a command that did not finish (and no run
    dir, if it wrote none), exit 0 leaves the declared outputs, and stderr never holds
    a traceback."""
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    flags = data.draw(st.sampled_from([[]] + _FLAGS.get(command, [])))
    sets = (data.draw(st.lists(st.sampled_from(_LEGAL), max_size=2)) +
            data.draw(st.lists(st.sampled_from(_ILLEGAL), max_size=1)))
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path)) / "run"
    if data.draw(st.booleans()):  # else the run dir is fresh
        shutil.copytree(tiny_pipeline, run_dir)
    before, batches, write = _files(run_dir), [], cli._write

    def spy(cfg, artifacts):  # records each batch that was written in full
        write(cfg, artifacts)
        batches.append((cfg, list(artifacts)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_write", spy)
        code = _run(run_dir, command, *flags, sets=[f"{k}={v}" for k, v in sets])
    assert "Traceback" not in capsys.readouterr().err
    after = _files(run_dir)
    if code == 1 or after is None:  # a failure before the first write made no run dir
        assert after == before and code != 0
        return
    assert not any(n.startswith(".tmp-") for n in after)
    changed = {n for n in after if (before or {}).get(n) != after[n]}
    if code == 2:  # a pipeline keeps the stages it finished, with their stamps
        # a stage finished when it wrote its outputs; under --force its stamp may
        # keep its bytes while resolved_config.txt names the new overrides
        written = {n for _, names in batches for n in names}
        finished = {n for stage, outputs in cli.PIPELINE_STAGES
                    if command == "pipeline" and written & set(outputs)
                    for n in outputs + (f".stamp-{stage}", "resolved_config.txt")}
        assert changed <= finished <= set(after)
        return
    assert code == 0
    declared = set(cli.COMMANDS[command].outputs)
    if command == "pipeline":
        declared = {n for _, outputs in cli.PIPELINE_STAGES for n in outputs} | {"summary.csv"}
    assert declared | {n for _, names in batches for n in names} <= set(after)
    assert after["resolved_config.txt"] == batches[-1][0].resolved_text().encode()


def test_forced_pipeline_that_halts_keeps_what_its_finished_stages_wrote(tiny_pipeline,
                                                                         tmp_path):
    """Under --force, gen-data and pretrain re-run to the same bytes and stamps, then
    saliency halts (ant.lambda1=0 leaves an all-zero gradient): only
    resolved_config.txt changes, naming the override its finished stages ran with."""
    copy = _copy(tiny_pipeline, tmp_path)
    before = _files(copy)
    assert _run(copy, "pipeline", "--force", sets=["ant.lambda1=0.0"]) == 2
    after = _files(copy)
    assert {n for n in after if before[n] != after[n]} == {"resolved_config.txt"}
    assert "ant.lambda1 = 0.0" in after["resolved_config.txt"].decode().splitlines()


def _artifacts(run_dir):
    """sha256 of every file but the stamps and resolved_config.txt, which names the run dir."""
    return {n: hashlib.sha256((run_dir / n).read_bytes()).hexdigest()
            for n in os.listdir(run_dir)
            if not n.startswith(".stamp-") and n != "resolved_config.txt"}


def _valid(key, value):
    try:
        RunConfig({**_TINY_BASE.values, key: parse_value(key, value)})
        return True
    except ConfigError:
        return False


@settings(max_examples=10)
@given(st.sampled_from([(k, v) for k, v in _LEGAL if k != "run_dir" and _valid(k, v)]))
def test_incremental_pipeline_equals_a_cold_run(tiny_pipeline, tmp_path, override):
    """Whatever one key changes, re-running `pipeline` on the TINY run dir gives the
    exit code of a cold run of the same config and, on success, its artifacts.  (Some
    legal values fail a stage: ant.lambda1=0 leaves saliency an all-zero gradient.)"""
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(tiny_pipeline, run_dir / "warm")
    sets = ["=".join(override)]
    code = _run(run_dir / "cold", "pipeline", sets=sets)
    assert _run(run_dir / "warm", "pipeline", sets=sets) == code
    if code == 0:
        assert _artifacts(run_dir / "warm") == _artifacts(run_dir / "cold")
