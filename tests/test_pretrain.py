import numpy as np

from ant_lab import cli
from ant_lab.config import load_config
from ant_lab.diffusion import make_schedule
from ant_lab.mixture import Dataset, make_mixture, sample_dataset
from ant_lab.net import save_checkpoint
from ant_lab.pretrain import PretrainConfig, pretrain


def _single_point_dataset(spec, n=64):
    pts = np.tile(spec.mode_centers[0, 0], (n, 1))
    return Dataset(pts, np.zeros(n, dtype=int), np.zeros(n, dtype=int), spec, 0)


def test_overfit_single_point():
    from ant_lab.net import NetConfig, ScoreNet
    spec = make_mixture(3, 2, 2.0, 0.3)
    net = ScoreNet(NetConfig(3, 2))
    ds = _single_point_dataset(spec, n=256)
    _, curve = pretrain(net, make_schedule(), ds,
                        PretrainConfig(steps=2000, lr=5e-3, seed=0))
    assert curve[-1][1] < 0.05
    assert curve[-1][1] < curve[0][1]
    assert all(np.isfinite(loss) for _, loss in curve)


def test_zero_steps_returns_initialization(tiny):
    spec, net = tiny
    ds = _single_point_dataset(spec)
    params, curve = pretrain(net, make_schedule(), ds, PretrainConfig(steps=0, seed=3))
    rng = np.random.default_rng(3)
    init = net.init_params(int(rng.integers(2**31)))
    assert np.array_equal(params.flat, init.flat)
    assert curve == []


def test_reproducible_under_seed(tiny):
    spec, net = tiny
    ds = _single_point_dataset(spec)
    cfg = PretrainConfig(steps=200, batch=32, seed=11)
    a, _ = pretrain(net, make_schedule(), ds, cfg)
    b, _ = pretrain(net, make_schedule(), ds, cfg)
    assert np.array_equal(a.flat, b.flat)


def test_loss_curve_csv(tmp_path, monkeypatch):
    """`pretrain` writes its loss curve as `step,loss`, one line per curve point."""
    cfg = load_config(None, {"run_dir": str(tmp_path), "data.n_samples": 200,
                             "pretrain.steps": 200, "pretrain.batch": 16})
    cli._write(cfg, cli.cmd_gen_data(cfg))
    curves = []

    def traced(*args):
        params, curve = pretrain(*args)
        curves.append(curve)
        return params, curve
    monkeypatch.setattr(cli, "pretrain", traced)
    cli._write(cfg, cli.cmd_pretrain(cfg))
    lines = (tmp_path / "pretrain_loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == len(curves[0]) + 1
    assert [(int(s), float(v)) for s, v in (ln.split(",") for ln in lines[1:])] == \
        [(s, float(v)) for s, v in curves[0]]


def test_cli_pretrain_equals_the_library_pretrain(tmp_path, bench_spec, bench_net, schedule):
    """The benchmark model (bench_pretrained) is the default pipeline's checkpoint,
    so the CLI's gen-data + pretrain must give the bytes of the library's pretrain
    on bench_spec and save_checkpoint; checked here at 600 points and 150 steps."""
    sets = ["--set", "data.n_samples=600", "--set", "pretrain.steps=150"]
    for command in ("gen-data", "pretrain"):
        assert cli.main(["--run-dir", str(tmp_path), *sets, command]) == 0
    params, _ = pretrain(bench_net, schedule, sample_dataset(bench_spec, 600, 0),
                         PretrainConfig(steps=150, seed=0))
    save_checkpoint(tmp_path / "library.ckpt", params)
    assert (tmp_path / "library.ckpt").read_bytes() == \
        (tmp_path / "pretrained.ckpt").read_bytes()
