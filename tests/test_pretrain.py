import os
import re
import signal
import sys

import numpy as np
import pytest

from ant_lab import cli, workers
from ant_lab.config import load_config
from ant_lab.diffusion import forward_noise, make_schedule
from ant_lab.mixture import Dataset, make_mixture, noised_eps, sample_dataset
from ant_lab.net import save_checkpoint
from ant_lab.pretrain import PretrainConfig, pretrain
from forking import count_forks


def _single_point_dataset(spec, n=64):
    pts = np.tile(spec.mode_centers[0, 0], (n, 1))
    return Dataset(pts, np.zeros(n, dtype=int), np.zeros(n, dtype=int), spec)


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


# The fresh-process cases below: gen-data and pretrain at 600 points and 150
# steps of the default net, through the `ant-lab` entry in a fresh interpreter
# with one BLAS thread, so that pretraining runs shard B on a pinned worker
# where two CPUs are allowed, and on the loop where one is.
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="a shard worker needs two CPUs to fork")
SETS = ["--set", "data.n_samples=600", "--set", "pretrain.steps=150"]


def _pretrain(run_dir, cpus, sets=(), signals=()):
    """gen-data then pretrain through the entry, on `cpus` of the allowed CPUs,
    sending the worker each (step, signal) of `signals` after that step's Adam
    step (waiting until a stopped worker has stopped): (the exit statuses,
    the forks, the shard calls this process ran, whether a child is left)."""
    import ant_lab.__main__ as entry
    from ant_lab import optim
    from ant_lab.net import ScoreNet

    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
    forks, calls, pending = count_forks(), [], dict(signals)
    step, loss_and_grad = optim.Adam.step, ScoreNet.loss_and_grad

    def signalling(opt, *args):
        step(opt, *args)
        if (sig := pending.pop(opt.t, None)) is not None:
            os.kill(forks[-1], sig)
            if sig == signal.SIGSTOP:
                os.waitpid(forks[-1], os.WUNTRACED)

    def counted(*args, **kwargs):
        calls.append(1)
        return loss_and_grad(*args, **kwargs)

    optim.Adam.step, ScoreNet.loss_and_grad = signalling, counted
    statuses = []
    for command in ("gen-data", "pretrain"):
        sys.argv = ["ant-lab", "--run-dir", run_dir, *SETS, *sets, command]
        statuses.append(entry.main())
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    return statuses, len(forks), len(calls), left


def _artifacts(run_dir):
    return [(run_dir / name).read_bytes() for name in ("pretrained.ckpt", "pretrain_loss.csv")]


@TWO_CPUS
def test_forked_pretraining_equals_the_loop_bytewise(fresh, tmp_path, monkeypatch):
    """gen-data + pretrain on two CPUs (shard B on a forked worker) and on one
    CPU (the loop) write the bytes of the in-process loop: pretrained.ckpt and
    pretrain_loss.csv.  The two-CPU run forks once and leaves no process."""
    runs = {}
    for cpus in (2, 1):
        run_dir = tmp_path / f"cpus{cpus}"
        statuses, forks, calls, left = fresh(_pretrain, str(run_dir), cpus)
        assert statuses == [0, 0] and not left
        assert forks == (cpus == 2)
        assert calls == 2 * 150 if cpus == 1 else calls < 2 * 150
        runs[cpus] = _artifacts(run_dir)
    monkeypatch.setattr(workers, "_cpus", lambda: 1)
    for command in ("gen-data", "pretrain"):
        assert cli.main(["--run-dir", str(tmp_path / "loop"), *SETS, command]) == 0
    assert runs[2] == runs[1] == _artifacts(tmp_path / "loop")


@TWO_CPUS
def test_a_stopped_worker_keeps_the_bits(fresh, tmp_path):
    """A worker stopped with SIGSTOP after step 20 and resumed after step 100
    leaves this process to run every shard in between, and the bits are the
    loop's."""
    stopped = [(20, signal.SIGSTOP), (100, signal.SIGCONT)]
    statuses, forks, calls, left = fresh(_pretrain, str(tmp_path / "stopped"), 2, (), stopped)
    assert statuses == [0, 0] and forks == 1 and not left
    assert calls >= 150 + 80
    fresh(_pretrain, str(tmp_path / "loop"), 1)
    assert _artifacts(tmp_path / "stopped") == _artifacts(tmp_path / "loop")


@TWO_CPUS
def test_a_killed_worker_exits_2_and_leaves_no_process(fresh, tmp_path):
    """A worker killed with SIGKILL after step 20 fails pretrain with exit status
    2 and a RuntimeError naming the signal; no checkpoint is written and no
    process is left."""
    run_dir = tmp_path / "killed"
    (statuses, forks, _, left), err = fresh(_pretrain, str(run_dir), 2, (),
                                            [(20, signal.SIGKILL)], stderr=True)
    assert statuses == [0, 2] and forks == 1 and not left
    assert err == "failure: a shard worker process was killed by signal 9\n"
    assert sorted(p.name for p in run_dir.iterdir() if not p.name.startswith(".")) == [
        "dataset.csv", "resolved_config.txt"]


@TWO_CPUS
def test_divergence_exits_2_at_the_same_step_forked_and_on_the_loop(fresh, tmp_path):
    """pretrain.lr=1e300 exits 2 on both paths with the same message, which names
    the step, and writes no checkpoint; the forked run leaves no process."""
    errs = []
    for cpus in (2, 1):
        run_dir = tmp_path / f"cpus{cpus}"
        (statuses, forks, _, left), err = fresh(
            _pretrain, str(run_dir), cpus, ["--set", "pretrain.lr=1e300"],
            ignore=["ignore::RuntimeWarning"], stderr=True)
        assert statuses == [0, 2] and forks == (cpus == 2) and not left
        assert not (run_dir / "pretrained.ckpt").exists()
        assert not (run_dir / "pretrain_loss.csv").exists()
        errs.append(err)
    assert errs[0] == errs[1]
    assert re.fullmatch(r"failure: pretrain diverged: non-finite loss at step \d+\n", errs[0])


# Timestep bands and condition kinds of the score-field check below
BANDS = ((1, 20), (21, 40), (41, 60), (61, 80), (81, 100))
KINDS = ("(k, c)", "(k, null)", "(null, null)")


def score_error_bands(net, params, spec, schedule, n=2000, seed=0) -> dict:
    """{(band, kind): RMS over n points of |net eps - mixture.noised_eps|}, each
    point z_t drawn from the mixture noised to a t of the band, conditioned as
    the kind says on the labels of its x0: concept and context, concept alone
    (context null), or neither (both null)."""
    rng = np.random.default_rng(seed)
    table = {}
    for band in BANDS:
        for kind in KINDS:
            ds = sample_dataset(spec, n, int(rng.integers(2**31)))
            t = rng.integers(band[0], band[1] + 1, size=n)
            z = forward_noise(schedule, ds.points, t, rng.standard_normal((n, 2)))
            kids = spec.n_concepts if kind == "(null, null)" else ds.concepts
            cids = ds.contexts if kind == "(k, c)" else spec.n_contexts
            err = (net.forward_batch(params, z, t / schedule.T, kids, cids) -
                   noised_eps(spec, schedule, z, t, kids, cids))
            table[band, kind] = float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
    return table


# Per kind, about 1.25 times the worst band of the default pretrained.ckpt,
# which read 0.134, 0.156 and 0.329 both before and after pretraining's
# two-shard re-baseline; a model pretrained for 8,000 steps reads 0.168,
# 0.261 and 0.541, and the initial weights 3.9, 2.8 and 1.9
SCORE_ERROR_BOUNDS = {"(k, c)": 0.17, "(k, null)": 0.2, "(null, null)": 0.41}


def test_the_default_model_keeps_near_the_closed_form_score(bench_net, bench_pretrained,
                                                           bench_spec, schedule):
    """The default pipeline's pretrained net predicts the noise of the exact noised
    mixture with an RMS error under a fixed bound per condition kind, in every
    timestep band: a check of meaning that holds across re-baselines, where the
    golden digests are rewritten."""
    table = score_error_bands(bench_net, bench_pretrained, bench_spec, schedule)
    over = {cell: rms for cell, rms in table.items() if rms >= SCORE_ERROR_BOUNDS[cell[1]]}
    assert not over, over
