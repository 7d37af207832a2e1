import os

import numpy as np
import pytest

from ant_lab.cli import main
from ant_lab.config import ConfigError, DEFAULTS, RunConfig, load_config

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


def _run(run_dir, command, *extra):
    args = ["--run-dir", str(run_dir)]
    for kv in TINY:
        args += ["--set", kv]
    return main(args + [command, *extra])


def test_defaults_complete_and_typed():
    cfg = RunConfig()
    assert cfg["ant.lambda1"] == 1.0
    assert cfg["ant.t_prime_train"] == 86
    assert cfg["schedule.T"] == 100
    assert cfg.sweep_grid()[0] == 0 and cfg.sweep_grid()[-1] == 100
    assert cfg.fuse_concepts() == [0, 1, 2]


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


def test_cli_exit_codes(tmp_path):
    assert main(["--run-dir", str(tmp_path), "--set", "bogus=1", "gen-data"]) == 1
    assert main(["--run-dir", str(tmp_path), "no-such-command"]) == 1
    # an unknown variant is rejected when the config resolves, before any stage runs
    bogus = tmp_path / "bogus"
    assert main(["--run-dir", str(bogus), "--set", "ant.variant=bogus", "pipeline"]) == 1
    assert not bogus.exists()
    # pretrain without its dataset artifact is a runtime failure
    assert main(["--run-dir", str(tmp_path / "empty"), "pretrain"]) == 2


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


def test_gen_data_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(a, "gen-data") == 0
    assert _run(b, "gen-data") == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
