import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ant_lab import cli, diffusion, metrics, workers
from ant_lab.config import load_config
from ant_lab.diffusion import GuidanceSpec, SampleDivergedError, make_schedule
from ant_lab.metrics import (
    accuracy,
    evaluate,
    harmonic_mean_hc,
    off_manifold_fraction,
    off_manifold_threshold,
    w2_gaussian,
)
from ant_lab.mixture import make_mixture, sample_dataset
from ant_lab.net import NetConfig, ScoreNet, save_checkpoint
from forking import count_forks, wait_for


def test_hc_reference_values():
    assert abs(harmonic_mean_hc(0.0430, 0.8807) - 0.9173) < 1e-4
    assert abs(harmonic_mean_hc(0.0430, 0.8456) - 0.8979) < 1e-4


def test_hc_boundaries():
    assert harmonic_mean_hc(0.0, 1.0) == 1.0
    assert harmonic_mean_hc(1.0, 0.9) == 0.0
    assert harmonic_mean_hc(0.2, 0.0) == 0.0
    with pytest.raises(ValueError):
        harmonic_mean_hc(-0.1, 0.5)
    with pytest.raises(ValueError):
        harmonic_mean_hc(0.1, 1.5)


def test_hc_symmetry_and_monotonicity():
    # harmonic in (1 - acc_e) and acc_p, so swapping those two values is neutral
    assert abs(harmonic_mean_hc(1 - 0.3, 0.7) - harmonic_mean_hc(1 - 0.7, 0.3)) < 1e-15
    assert harmonic_mean_hc(0.1, 0.9) > harmonic_mean_hc(0.1, 0.8)
    assert harmonic_mean_hc(0.1, 0.9) <= 1.0


def test_off_manifold_calibration():
    spec = make_mixture(8, 3, 2.0, 0.3)
    thr = off_manifold_threshold(spec)
    fresh = sample_dataset(spec, 50_000, 99)
    frac = off_manifold_fraction(fresh.points, spec, thr)
    assert abs(frac - 0.01) < 0.005


def test_off_manifold_extremes():
    spec = make_mixture(4, 2, 2.0, 0.1)
    thr = off_manifold_threshold(spec)
    far = spec.mode_centers.reshape(-1, 2).max() + 10 * spec.mode_std
    assert off_manifold_fraction(np.full((100, 2), far + 10), spec, thr) == 1.0
    centers = spec.mode_centers.reshape(-1, 2)
    assert off_manifold_fraction(centers, spec, thr) == 0.0


def test_w2_identical_and_symmetry():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((500, 2))
    b = rng.standard_normal((500, 2)) + 2.0
    assert w2_gaussian(a, a) < 1e-12
    assert abs(w2_gaussian(a, b) - w2_gaussian(b, a)) < 1e-12


def test_w2_pure_mean_shift():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2000, 2))
    d = np.array([3.0, -1.0])
    assert abs(w2_gaussian(a, a + d) - float(d @ d)) < 1e-9


def test_w2_matches_empirical_optimal_transport():
    rng = np.random.default_rng(2)
    cov_a = np.array([[1.0, 0.3], [0.3, 0.5]])
    cov_b = np.array([[0.4, -0.1], [-0.1, 1.2]])
    a = rng.multivariate_normal([0, 0], cov_a, size=10_000)
    b = rng.multivariate_normal([3, 1], cov_b, size=10_000)
    closed = w2_gaussian(a, b)

    idx = rng.choice(10_000, size=2000, replace=False)
    sa, sb = a[idx], b[idx]
    cost = np.sum((sa[:, None, :] - sb[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    empirical = float(cost[rows, cols].mean())
    assert abs(closed - empirical) / empirical < 0.05


def test_w2_requires_two_samples():
    with pytest.raises(ValueError):
        w2_gaussian(np.zeros((1, 2)), np.zeros((5, 2)))


def test_accuracy_deterministic_and_chance_level_when_untrained(schedule, bench_guidance):
    from ant_lab.net import NetConfig, ScoreNet
    spec = make_mixture(8, 3, 2.0, 0.3)
    net = ScoreNet(NetConfig(8, 3))
    params = net.init_params(seed=0)
    a = accuracy(net, params, schedule, bench_guidance, list(range(8)), 200, 5, spec)
    b = accuracy(net, params, schedule, bench_guidance, list(range(8)), 200, 5, spec)
    assert a == b
    # a random-init model cannot beat chance on average over concepts
    assert abs(float(np.mean(list(a.values()))) - 1.0 / 8) < 0.1


def _tiny_pair():
    """The `tiny` fixture's spec and net."""
    return (make_mixture(3, 2, 2.0, 0.3),
            ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4)))


def _sampled_concepts(path, n):
    """evaluate on forked workers (a fresh process, two CPUs), each `sample` call
    appending its concept to `path`: (the accuracies, the concepts, the forks)."""
    workers._cpus = lambda: 2
    spec, net = _tiny_pair()
    real = diffusion.sample

    def spy(*args, **kwargs):
        with open(path, "a") as f:
            f.write(f"{args[4][0]}\n")
        return real(*args, **kwargs)
    diffusion.sample = spy
    forks = count_forks()
    report = evaluate(net, net.init_params(seed=0), make_schedule(), GuidanceSpec(3.0, 0, 10),
                      spec, [0], off_manifold_threshold(spec), n=n, seed=4)
    with open(path) as f:
        return report.per_concept_acc, sorted(int(line) for line in f), len(forks)


def test_evaluate_samples_each_concept_once(tiny, schedule, monkeypatch, fresh, tmp_path):
    """On the loop and on forked workers, which may sample the concepts in any
    order, each concept is sampled once and the accuracies are accuracy's."""
    spec, net = tiny
    params = net.init_params(seed=0)
    guidance = GuidanceSpec(3.0, 0, 10)
    monkeypatch.setattr(workers, "_cpus", lambda: 1)  # the loop, however many threads run here
    conds = []
    real = diffusion.sample
    monkeypatch.setattr(diffusion, "sample", lambda *a, **kw: conds.append(a[4]) or real(*a, **kw))
    report = evaluate(net, params, schedule, guidance, spec, [0],
                      off_manifold_threshold(spec), n=100, seed=4)
    assert sorted(conds) == [(k, None) for k in range(spec.n_concepts)]
    expected = accuracy(net, params, schedule, guidance, list(range(spec.n_concepts)), 100, 4,
                        spec)
    assert report.per_concept_acc == expected
    accs, sampled, forks = fresh(_sampled_concepts, str(tmp_path / "concepts"), 100)
    assert forks == 1
    assert sampled == list(range(spec.n_concepts))
    assert accs == expected


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _report_bits(report):
    return _bits([*report.per_concept_acc.values(), report.acc_e, report.acc_p, report.h_c,
                  report.off_manifold_frac, *report.w2_per_preserved.values()])


def _forked_evaluate(n, path):
    """On forked workers (a fresh process, two CPUs), the bench net of seed 0:
    the concepts' samples, each `sample` call of that map appending its
    process and work arrays to `path`; evaluate's report; accuracy's
    accuracies; the forks."""
    workers._cpus = lambda: 2
    spec, net = make_mixture(8, 3, 2.5, 0.5), ScoreNet(NetConfig(8, 3))
    params, schedule, guidance = net.init_params(seed=0), make_schedule(), GuidanceSpec(3.0, 40, 10)
    concepts = list(range(spec.n_concepts))
    real = diffusion.sample

    def spy(*args, **kwargs):
        with open(path, "a") as f:
            f.write(f"{os.getpid()} {id(kwargs['arrays'])}\n")
        return real(*args, **kwargs)
    diffusion.sample = spy
    forks = count_forks()
    samples = metrics._concept_samples(net, params, schedule, guidance, concepts, n, 9)
    diffusion.sample = real
    report = evaluate(net, params, schedule, guidance, spec, [0, 3],
                      off_manifold_threshold(spec), n=n, seed=9)
    accs = accuracy(net, params, schedule, guidance, concepts, n, 9, spec)
    with open(path) as f:
        calls = [tuple(map(int, line.split())) for line in f]
    return samples, report, accs, len(forks), calls


@pytest.mark.parametrize("n", [100, 256])
def test_pool_equals_the_loop_bitwise(bench_spec, bench_net, schedule, monkeypatch, fresh,
                                      tmp_path, n):
    """evaluate's samples, accuracies and report, and accuracy's, equal those of a
    plain loop of `sample` calls bit for bit, on forked workers in a process
    with one BLAS thread and in this process, whichever path its threads allow
    (forked exactly where it runs one thread).  Each worker process runs its
    concepts on one set of work arrays, the loop's calls each on fresh ones."""
    params = bench_net.init_params(seed=0)
    guidance = GuidanceSpec(3.0, 40, 10)
    concepts = list(range(bench_spec.n_concepts))
    loop = {k: diffusion.sample(bench_net, params, schedule, guidance, (k, None), n,
                                np.random.SeedSequence([9, k]))
            for k in concepts}
    threshold = off_manifold_threshold(bench_spec)
    with monkeypatch.context() as m:
        m.setattr(metrics, "_concept_samples", lambda *args: loop)
        expected = evaluate(bench_net, params, schedule, guidance, bench_spec, [0, 3],
                            threshold, n=n, seed=9)

    samples, report, accs, forks, calls = fresh(_forked_evaluate, n, str(tmp_path / "calls"))
    assert forks == 3
    arrays = {}
    for pid, ident in calls:
        arrays.setdefault(pid, set()).add(ident)
    assert len(calls) == len(concepts) and all(len(ids) == 1 for ids in arrays.values())
    assert list(samples) == concepts
    for k in concepts:
        assert np.array_equal(_bits(samples[k]), _bits(loop[k]))

    monkeypatch.setattr(workers, "_cpus", lambda: 2)  # forks on a one-CPU host too
    monkeypatch.setattr(os, "fork", os.fork)  # so that the wrapper _forks puts there goes
    here = count_forks()
    local = evaluate(bench_net, params, schedule, guidance, bench_spec, [0, 3],
                     threshold, n=n, seed=9)
    assert bool(here) == (workers._threads() == 1)
    for got in (report, local):
        assert list(got.per_concept_acc) == concepts and got.erased == [0, 3]
        assert list(got.w2_per_preserved) == list(expected.w2_per_preserved)
        assert np.array_equal(_report_bits(got), _report_bits(expected))
    assert list(accs) == concepts
    assert np.array_equal(_bits(list(accs.values())),
                          _bits(list(expected.per_concept_acc.values())))


def _eight_workers():
    """Eight concepts on eight worker processes (a fresh process, eight CPUs
    claimed), fresh params: (the samples, the forks)."""
    workers._cpus = lambda: 8
    net = ScoreNet(NetConfig(8, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    forks = count_forks()
    samples = metrics._concept_samples(net, net.init_params(seed=0), make_schedule(),
                                       GuidanceSpec(3.0, 0, 10), list(range(8)), 128, 3)
    return samples, len(forks)


def test_pool_of_more_workers_than_cores_switching_fast_equals_the_loop(schedule, fresh):
    """Eight worker processes for eight concepts, more than the cores, so the
    system switches between them, on fresh params, whose views each process
    makes as it first reads them: the samples still equal the loop's bit for bit."""
    net = ScoreNet(NetConfig(8, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    guidance = GuidanceSpec(3.0, 0, 10)
    pooled, forks = fresh(_eight_workers)
    assert forks == 7
    params = net.init_params(seed=0)
    for k in range(8):
        assert np.array_equal(_bits(pooled[k]), _bits(diffusion.sample(
            net, params, schedule, guidance, (k, None), 128,
            np.random.SeedSequence([3, k]))))


class _DivergingNet:
    """A linear noise predictor over 4 concepts whose conditional noise is inf for
    concept 1 on rung 50 and for concept 2 on rung 80.  Concept 1 waits at its
    first rung until concept 2 has gone non-finite, so the later concept in
    order diverges first.  The concepts run in forked processes, so what they
    do is told through files in `tmp`: the concepts whose rows ran, and the
    concepts in the order they diverged."""

    RUNGS = {1: 50, 2: 80}

    def __init__(self, schedule, tmp):
        self.config = NetConfig(4, 3)
        self.schedule = schedule
        self.tmp = tmp

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        t = round(t_norm * self.schedule.T)
        open(os.path.join(self.tmp, f"seen-{kid}"), "w").close()
        if kid == 1 and t == self.schedule.T:
            wait_for(os.path.join(self.tmp, "first"))  # on the loop concept 2 has not started
        eps = 0.5 * z
        if self.RUNGS.get(kid) == t:
            with open(os.path.join(self.tmp, "diverged"), "a") as f:
                f.write(f"{kid}\n")
            open(os.path.join(self.tmp, "first"), "w").close()
            return eps, np.full_like(eps, np.inf)
        return eps, eps

    def seen(self):
        return {int(name[5:]) for name in os.listdir(self.tmp) if name.startswith("seen-")}

    def diverged(self):
        with open(os.path.join(self.tmp, "diverged")) as f:
            return [int(line) for line in f]


# the inf rung makes inf - inf in the DDIM update: the nan is what the tests are about
_INF_MINUS_INF = "ignore:invalid value encountered:RuntimeWarning"


def _diverging_evaluate(tmp):
    """evaluate on _DivergingNet on forked workers (a fresh process, two CPUs)."""
    workers._cpus = lambda: 2
    net = _DivergingNet(make_schedule(), tmp)
    try:
        evaluate(net, None, net.schedule, GuidanceSpec(3.0, 0, 10), make_mixture(4, 3, 2.0, 0.3),
                 [0], 0.0, n=128, seed=0)
    except SampleDivergedError as e:
        return str(e), net.diverged(), net.seen()


def test_divergence_under_the_pool_raises_the_first_concept_in_order(fresh, tmp_path):
    """Concept 2 diverges first, in one process, while concept 1 runs in another;
    evaluate raises concept 1's error, as the loop would, and concept 3, not
    yet started, never starts."""
    message, diverged, seen = fresh(_diverging_evaluate, str(tmp_path), ignore=[_INF_MINUS_INF])
    assert message.endswith("at timestep 40")
    assert diverged == [2, 1]
    assert seen == {0, 1, 2}


def _diverging_eval(tmp, run_dir):
    """`eval` on _DivergingNet on forked workers (a fresh process, two CPUs)."""
    workers._cpus = lambda: 2
    net = _DivergingNet(make_schedule(), tmp)
    cli._load_net = lambda cfg, name: (net, None)
    sets = ["data.n_concepts=4", "eval.n_infer_steps=10", "eval.n_samples=128"]
    status = cli.main(["--run-dir", run_dir, *(a for kv in sets for a in ("--set", kv)), "eval"])
    return status, net.diverged()


def test_eval_diverging_under_the_pool_exits_2_and_writes_nothing(fresh, tmp_path):
    """The same divergence through `eval`: exit 2, concept 1's error and nothing
    else on stderr, no run dir."""
    run_dir = tmp_path / "run"
    (status, diverged), err = fresh(_diverging_eval, str(tmp_path), str(run_dir),
                                    ignore=[_INF_MINUS_INF], stderr=True)
    assert status == 2
    assert err == "failure: non-finite sample values at timestep 40\n"
    assert diverged == [2, 1]
    assert not run_dir.exists()


def test_eval_report_csv(tmp_path, monkeypatch):
    """`eval` writes concept rows (erased, then preserved with a w2 cell), then aggregates."""
    from ant_lab.metrics import EvalReport
    report = EvalReport({0: 0.05, 1: 0.9}, 0.05, 0.9, harmonic_mean_hc(0.05, 0.9),
                        0.02, {1: 0.1}, erased=[0])
    monkeypatch.setattr(metrics, "evaluate", lambda *args, **kw: report)
    cfg = load_config(None, {"run_dir": str(tmp_path)})
    save_checkpoint(tmp_path / "erased.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    cli._write(cfg, cli.cmd_eval(cfg, "erased.ckpt"))
    lines = (tmp_path / "eval_report.csv").read_text().splitlines()
    assert lines[0] == "concept,role,accuracy,w2_vs_oracle"
    assert lines[1].startswith("0,erased,")
    assert lines[2].startswith("1,preserved,")
    assert any(ln.startswith("aggregate,h_c,") for ln in lines)
    cells = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1], float(r[2]), float(r[3]) if r[3] else None) for r in cells] == [
        ("0", "erased", 0.05, None), ("1", "preserved", 0.9, 0.1),
        ("aggregate", "acc_e", 0.05, None), ("aggregate", "acc_p", 0.9, None),
        ("aggregate", "h_c", report.h_c, None), ("aggregate", "off_manifold_frac", 0.02, None)]
