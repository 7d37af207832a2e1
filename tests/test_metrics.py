import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ant_lab import cli, diffusion, metrics
from ant_lab.config import load_config
from ant_lab.diffusion import GuidanceSpec, SampleDivergedError
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


def test_evaluate_samples_each_concept_once(tiny, schedule, monkeypatch):
    """On the loop (n below POOL_MIN_SAMPLES) and on the pool, whose threads may
    sample the concepts in any order."""
    spec, net = tiny
    params = net.init_params(seed=0)
    guidance = GuidanceSpec(3.0, 0, 10)
    monkeypatch.setattr(metrics, "_cpus", lambda: 2)  # the pool runs on a one-CPU host too
    conds = []
    real = diffusion.sample
    monkeypatch.setattr(diffusion, "sample", lambda *a, **kw: conds.append(a[4]) or real(*a, **kw))
    for n in (metrics.POOL_MIN_SAMPLES - 28, metrics.POOL_MIN_SAMPLES):
        conds.clear()
        report = evaluate(net, params, schedule, guidance, spec, [0],
                          off_manifold_threshold(spec), n=n, seed=4)
        assert sorted(conds) == [(k, None) for k in range(spec.n_concepts)]
        assert report.per_concept_acc == accuracy(net, params, schedule, guidance,
                                                  list(range(spec.n_concepts)), n, 4, spec)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _report_bits(report):
    return _bits([*report.per_concept_acc.values(), report.acc_e, report.acc_p, report.h_c,
                  report.off_manifold_frac, *report.w2_per_preserved.values()])


@pytest.mark.parametrize("n", [metrics.POOL_MIN_SAMPLES - 28, 2 * metrics.POOL_MIN_SAMPLES])
def test_pool_equals_the_loop_bitwise(bench_spec, bench_net, schedule, monkeypatch, n):
    """evaluate's samples, accuracies and report, and accuracy's, equal those of a
    plain loop of `sample` calls bit for bit: below POOL_MIN_SAMPLES the main thread
    samples every concept, from it pool threads do."""
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

    monkeypatch.setattr(metrics, "_cpus", lambda: 2)  # the pool runs on a one-CPU host too
    drawn, threads, real = {}, set(), diffusion.sample

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        drawn[args[4]] = real(*args, **kwargs)
        return drawn[args[4]]
    monkeypatch.setattr(diffusion, "sample", spy)
    report = evaluate(bench_net, params, schedule, guidance, bench_spec, [0, 3],
                      threshold, n=n, seed=9)
    assert (threads == {threading.get_ident()}) == (n < metrics.POOL_MIN_SAMPLES)
    assert drawn.keys() == {(k, None) for k in concepts}
    for k in concepts:
        assert np.array_equal(_bits(drawn[k, None]), _bits(loop[k]))
    assert list(report.per_concept_acc) == concepts and report.erased == [0, 3]
    assert list(report.w2_per_preserved) == list(expected.w2_per_preserved)
    assert np.array_equal(_report_bits(report), _report_bits(expected))
    accs = accuracy(bench_net, params, schedule, guidance, concepts, n, 9, bench_spec)
    assert list(accs) == concepts
    assert np.array_equal(_bits(list(accs.values())),
                          _bits(list(expected.per_concept_acc.values())))


def test_pool_of_more_workers_than_cores_switching_fast_equals_the_loop(schedule, monkeypatch):
    """Eight workers for eight concepts on fresh params, whose views the workers
    make as they first read them, with the interpreter switching threads every
    microsecond: the samples still equal the loop's bit for bit."""
    net = ScoreNet(NetConfig(8, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    guidance = GuidanceSpec(3.0, 0, 10)
    monkeypatch.setattr(metrics, "_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = metrics._concept_samples(net, net.init_params(seed=0), schedule, guidance,
                                          list(range(8)), metrics.POOL_MIN_SAMPLES, 3)
    finally:
        sys.setswitchinterval(interval)
    params = net.init_params(seed=0)
    for k in range(8):
        assert np.array_equal(_bits(pooled[k]), _bits(diffusion.sample(
            net, params, schedule, guidance, (k, None), metrics.POOL_MIN_SAMPLES,
            np.random.SeedSequence([3, k]))))


class _DivergingNet:
    """A linear noise predictor over 4 concepts whose conditional noise is inf for
    concept 1 on rung 50 and for concept 2 on rung 80.  Concept 1 waits at its
    first rung until concept 2 has gone non-finite, so the later concept in
    order diverges first; `seen` collects the concepts whose rows ran."""

    RUNGS = {1: 50, 2: 80}

    def __init__(self, schedule):
        self.config = NetConfig(4, 3)
        self.schedule = schedule
        self.seen, self.diverged = set(), []
        self._first = threading.Event()

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        t = round(t_norm * self.schedule.T)
        self.seen.add(kid)
        if kid == 1 and t == self.schedule.T:
            self._first.wait(timeout=30)  # on the loop concept 2 has not started yet
        eps = 0.5 * z
        if self.RUNGS.get(kid) == t:
            self.diverged.append(kid)
            self._first.set()
            return eps, np.full_like(eps, np.inf)
        return eps, eps


# the inf rung makes inf - inf in the DDIM update: the nan is what the test is about
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_divergence_under_the_pool_raises_the_first_concept_in_order(schedule, monkeypatch):
    """Concept 2 diverges first, while concept 1 runs; evaluate raises concept 1's
    error, as the loop would, and concept 3, still queued, never starts."""
    monkeypatch.setattr(metrics, "_cpus", lambda: 2)
    net = _DivergingNet(schedule)
    with pytest.raises(SampleDivergedError, match="at timestep 40$"):
        evaluate(net, None, schedule, GuidanceSpec(3.0, 0, 10), make_mixture(4, 3, 2.0, 0.3),
                 [0], 0.0, n=metrics.POOL_MIN_SAMPLES, seed=0)
    assert net.diverged == [2, 1]
    assert net.seen == {0, 1, 2}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_eval_diverging_under_the_pool_exits_2_and_writes_nothing(tmp_path, schedule,
                                                                   monkeypatch, capsys):
    """The same divergence through `eval`: exit 2, concept 1's error, no run dir."""
    monkeypatch.setattr(metrics, "_cpus", lambda: 2)
    net = _DivergingNet(schedule)
    monkeypatch.setattr(cli, "_load_net", lambda cfg, name: (net, None))
    run_dir = tmp_path / "run"
    sets = ["data.n_concepts=4", "eval.n_infer_steps=10",
            f"eval.n_samples={metrics.POOL_MIN_SAMPLES}"]
    assert cli.main(["--run-dir", str(run_dir), *(a for kv in sets for a in ("--set", kv)),
                     "eval"]) == 2
    assert capsys.readouterr().err == "failure: non-finite sample values at timestep 40\n"
    assert net.diverged == [2, 1]
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
