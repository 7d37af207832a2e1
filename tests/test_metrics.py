import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ant_lab import cli, diffusion, metrics
from ant_lab.config import load_config
from ant_lab.diffusion import GuidanceSpec
from ant_lab.metrics import (
    accuracy,
    evaluate,
    harmonic_mean_hc,
    off_manifold_fraction,
    off_manifold_threshold,
    w2_gaussian,
)
from ant_lab.mixture import make_mixture, sample_dataset
from ant_lab.net import ScoreNet, save_checkpoint


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
    spec, net = tiny
    params = net.init_params(seed=0)
    guidance = GuidanceSpec(3.0, 0, 10)
    conds = []
    real = diffusion.sample
    monkeypatch.setattr(diffusion, "sample", lambda *a, **kw: conds.append(a[4]) or real(*a, **kw))
    report = evaluate(net, params, schedule, guidance, spec, [0],
                      off_manifold_threshold(spec), n=100, seed=4)
    assert conds == [(k, None) for k in range(spec.n_concepts)]
    assert report.per_concept_acc == accuracy(net, params, schedule, guidance,
                                              list(range(spec.n_concepts)), 100, 4, spec)


def test_eval_report_csv(tmp_path, bench_guidance, monkeypatch):
    """`eval` writes concept rows (erased, then preserved with a w2 cell), then aggregates."""
    from ant_lab.metrics import EvalReport
    report = EvalReport({0: 0.05, 1: 0.9}, 0.05, 0.9, harmonic_mean_hc(0.05, 0.9),
                        0.02, {1: 0.1}, 100, 0, bench_guidance, erased=[0])
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
