"""End-to-end acceptance checks for the erasure laboratory.

Each test covers one acceptance criterion, prints a single PASS/FAIL line with
the measured numbers, and then asserts.  They run on the session-scoped
benchmark model (8 concepts x 3 contexts, 20k pretraining steps) and the
saliency benchmark (8 concepts x 20 contexts), both built in conftest.
"""

import os
import time

import numpy as np
import pytest

from ant_lab import diffusion, metrics
from ant_lab.cli import main
from ant_lab.diffusion import GuidanceSpec, forward_noise, ddim_step, infer_ladder, sample
from ant_lab.finetune import ABLATION_VARIANTS, AntLossConfig, ant_loss, erase_single, \
    make_latents, run_ablation
from ant_lab.fusion import FusionProblem, erase_multi, fuse, fusion_objective
from ant_lab.metrics import harmonic_mean_hc
from ant_lab.mixture import bayes_classify_batch, make_mixture, sample_dataset
from ant_lab.net import NetConfig, ScoreNet, clone_frozen
from ant_lab.saliency import SaliencyConfig, build_concept_mask


def _report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_harmonic_score_reference_values():
    pairs = [((0.0430, 0.8807), 0.9173), ((0.0430, 0.8456), 0.8979)]
    errs = [abs(harmonic_mean_hc(ae, ap) - ref) for (ae, ap), ref in pairs]
    # same quantity in product form, as an internal cross-check
    ae, ap = 0.0430, 0.8807
    alg = abs(harmonic_mean_hc(ae, ap) - 2 * (1 - ae) * ap / ((1 - ae) + ap))
    ok = max(errs) < 1e-4 and alg < 1e-12
    _report(1, ok, f"reference errors {errs[0]:.2e}, {errs[1]:.2e} (tol 1e-4)")
    assert ok


def test_criterion_02_gradients_match_finite_differences(schedule):
    spec = make_mixture(3, 2, 2.0, 0.3)
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    params = net.init_params(seed=1)
    frozen = clone_frozen(params)
    rng = np.random.default_rng(4)
    eps_fd = 1e-5
    worst = 0.0
    checked = 0

    # denoising loss: deterministic in its inputs, so FD applies directly
    z = rng.standard_normal((6, 2))
    kids = rng.integers(0, 3, size=6)
    cids = rng.integers(0, 2, size=6)
    target = rng.standard_normal((6, 2))

    def dsm(p):
        return net.loss_and_grad(p, z, 0.4, kids, cids, target)[0]

    _, g = net.loss_and_grad(params, z, 0.4, kids, cids, target)
    for i in np.argsort(-np.abs(g))[:12]:
        p = params.copy()
        p.flat[i] += eps_fd
        up = dsm(p)
        p.flat[i] -= 2 * eps_fd
        dn = dsm(p)
        fd = (up - dn) / (2 * eps_fd)
        worst = max(worst, abs(fd - g[i]) / max(abs(g[i]), 1e-8))
        checked += 1

    # erasure loss: replay the same rng seed so every call sees identical
    # timesteps and latents (they depend only on the frozen teacher)
    cfg = AntLossConfig(batch=4, seed=0)

    def erl(p):
        return ant_loss(net, p, frozen, (0, 1), cfg, np.random.default_rng(5),
                        schedule)[0]

    _, g2, _, _, _ = ant_loss(net, params, frozen, (0, 1), cfg,
                              np.random.default_rng(5), schedule)
    for i in np.argsort(-np.abs(g2))[:12]:
        p = params.copy()
        p.flat[i] += eps_fd
        up = erl(p)
        p.flat[i] -= 2 * eps_fd
        dn = erl(p)
        fd = (up - dn) / (2 * eps_fd)
        worst = max(worst, abs(fd - g2[i]) / max(abs(g2[i]), 1e-8))
        checked += 1

    ok = checked >= 20 and worst < 1e-4
    _report(2, ok, f"{checked} coordinates, worst relative error {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_03_sampler_matches_analytic_solutions(schedule):
    # (a) one-step inversion identity of the deterministic update
    rng = np.random.default_rng(2)
    inv_err = 0.0
    for _ in range(20):
        x0 = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        z_T = forward_noise(schedule, x0, schedule.T, eps)
        inv_err = max(inv_err, float(np.max(np.abs(ddim_step(schedule, z_T, schedule.T, 0, eps) - x0))))

    # (b) full 50-step ladder against the closed-form affine map of the
    # optimal linear predictor for an isotropic Gaussian data distribution
    class _LinearNet:
        config = NetConfig(2, 1)
        sigma0 = 1.3

        def gain(self, t):
            ab = schedule.alpha_bars[t]
            return np.sqrt(1.0 - ab) / (ab * self.sigma0**2 + 1.0 - ab)

        def forward_batch(self, params, z, t_norm, kids, cids, adapter=None):
            return self.gain(int(round(t_norm * schedule.T))) * z

        def forward_pair(self, params, z, t_norm, kid, cid, adapter=None):
            eps = self.forward_batch(params, z, t_norm, kid, cid)
            return eps, eps

    net = _LinearNet()
    pts = sample(net, None, schedule, GuidanceSpec(3.0, 0, 50), (0, None), 64, seed=7)
    factor = 1.0
    ladder = infer_ladder(schedule, 50)
    for t, t_next in zip(ladder[:-1], ladder[1:]):
        ab_t, ab_n = schedule.alpha_bars[t], schedule.alpha_bars[t_next]
        k = net.gain(int(t))
        factor *= (np.sqrt(ab_n / ab_t) * (1.0 - np.sqrt(1.0 - ab_t) * k)
                   + np.sqrt(1.0 - ab_n) * k)
    endpoint_err = float(np.max(np.abs(pts - factor * np.random.default_rng(7).standard_normal((64, 2)))))

    ok = inv_err < 1e-12 and endpoint_err < 1e-6
    _report(3, ok, f"inversion error {inv_err:.2e} (tol 1e-12), "
                   f"analytic endpoint error {endpoint_err:.2e} (tol 1e-6)")
    assert ok


def test_criterion_04_reversal_sweep_shape(bench_net, bench_pretrained, schedule, bench_spec):
    threshold = metrics.off_manifold_threshold(bench_spec)
    rows = []
    for tp in range(0, 101, 5):
        pts = sample(bench_net, bench_pretrained, schedule, GuidanceSpec(3.0, tp),
                     (0, None), 500, seed=7)
        frac = float(np.mean(bayes_classify_batch(bench_spec, pts) == 0))
        off = metrics.off_manifold_fraction(pts, bench_spec, threshold)
        rows.append((tp, frac, off))

    frac0 = rows[0][1]
    mid = [(tp, f, o) for tp, f, o in rows if 0 < tp < 100]
    good = [(tp, f, o) for tp, f, o in mid if f < 0.2 and o < 0.1]
    off_T = rows[-1][2]
    best_off = min(o for _, _, o in good) if good else float("inf")

    ok = frac0 >= 0.95 and bool(good) and off_T > best_off
    detail = (f"frac(t'=0)={frac0:.3f} (>=0.95); "
              f"{len(good)} intermediate t' with frac<0.2 and off<0.1 "
              f"(e.g. {good[0] if good else None}); "
              f"off(t'=T)={off_T:.3f} > best intermediate off={best_off:.3f}")
    _report(4, ok, detail)
    assert ok


def test_criterion_05_saliency_mask_stable_and_isolating(sal_net, sal_pretrained, schedule):
    frozen = clone_frozen(sal_pretrained)
    loss_cfg = AntLossConfig(seed=0, batch=16)
    mask, curve = build_concept_mask(sal_net, sal_pretrained, frozen, 0,
                                     SaliencyConfig(n_prompts=20, n_seeds=5, quantile=0.95),
                                     loss_cfg, schedule, base_seed=0)
    acts = [a for _, a in curve]
    monotone = all(x >= y for x, y in zip(acts, acts[1:]))
    rel = (acts[-21] - acts[-1]) / max(acts[-1], 1)
    no_fallback = mask.meta.get("fallback") != "union"

    # masked finetuning must leave unmasked coordinates bitwise untouched
    out, _, _ = erase_single(sal_net, sal_pretrained, 0,
                             AntLossConfig(seed=0, batch=16, steps=50), schedule, mask=mask)
    isolated = np.array_equal(out.flat[~mask.bits], sal_pretrained.flat[~mask.bits])
    moved = not np.array_equal(out.flat[mask.bits], sal_pretrained.flat[mask.bits])

    ok = monotone and rel < 0.05 and no_fallback and mask.active > 0 and isolated and moved
    _report(5, ok, f"curve monotone={monotone}, tail relative change over last 20 maps "
                   f"{rel:.3f} (tol 0.05), active={mask.active}, fallback={not no_fallback}, "
                   f"bitwise isolation={isolated}, masked coords updated={moved}")
    assert ok


def test_criterion_06_single_concept_erasure_quality(bench_net, bench_pretrained,
                                                     bench_erased, schedule, bench_spec):
    params, _ = bench_erased
    report = metrics.evaluate(bench_net, params, schedule, GuidanceSpec(3.0, 0),
                              bench_spec, [0], metrics.off_manifold_threshold(bench_spec),
                              n=1000, seed=7)
    cfg = AntLossConfig(seed=0)
    abl = {v: run_ablation(bench_net, bench_pretrained, 0, v, cfg, schedule,
                           bench_spec, GuidanceSpec(3.0, 0), n_eval=500, eval_seed=7)
           for v in ("A", "C")}

    ok = (report.acc_e < 0.10 and report.acc_p > 0.85
          and report.h_c > abl["A"]["h_c"] and report.h_c > abl["C"]["h_c"])
    _report(6, ok, f"acc_e={report.acc_e:.3f} (<0.10), acc_p={report.acc_p:.3f} (>0.85), "
                   f"h_c full={report.h_c:.3f} vs erase-only-all-t={abl['A']['h_c']:.3f} "
                   f"and erase-only-late={abl['C']['h_c']:.3f}")
    assert ok


def test_criterion_07_change_is_confined_to_late_stage(bench_net, bench_pretrained,
                                                       bench_erased, schedule):
    erased, _ = bench_erased
    frozen = clone_frozen(bench_pretrained)
    cfg = AntLossConfig(seed=0)
    rng = np.random.default_rng(11)
    null = (bench_net.config.null_concept, bench_net.config.null_context)

    def mean_diff(ts, conditional):
        vals = []
        for t in ts:
            z = make_latents(bench_net, frozen, schedule, (0, 1), t, rng, 20, cfg)
            ids = (np.full(20, 0), np.full(20, 1)) if conditional else \
                  (np.full(20, null[0]), np.full(20, null[1]))
            a = bench_net.forward_batch(erased, z, t / schedule.T, *ids)
            b = bench_net.forward_batch(frozen, z, t / schedule.T, *ids)
            vals.append(float(np.mean(np.linalg.norm(a - b, axis=1))))
        return float(np.mean(vals))

    early = mean_diff(range(87, 101, 2), True)
    late = mean_diff(range(5, 86, 10), True)
    uncond_late = mean_diff(range(5, 86, 10), False)
    ratio = late / max(early, 1e-12)

    ok = ratio >= 5.0 and uncond_late < 0.1 * late
    _report(7, ok, f"conditional change late/early ratio {ratio:.2f} (>=5); "
                   f"unconditional late change {uncond_late:.3f} < 0.1 x {late:.3f}")
    assert ok


def test_criterion_08_fusion_matches_iterative_optimum():
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    worst_res = 0.0
    for _ in range(20):
        h = int(rng.integers(3, 9))
        d = int(rng.integers(2, 7))
        q = int(rng.integers(1, 4))
        W = rng.standard_normal((h, d))
        deltas = [rng.standard_normal((h, d)) for _ in range(q)]
        targets = [[rng.standard_normal(d) for _ in range(int(rng.integers(1, 4)))]
                   for _ in range(q)]
        preserve = [rng.standard_normal(d) for _ in range(int(rng.integers(1, 5)))]
        problem = FusionProblem(W, deltas, targets, preserve, float(rng.uniform(0.05, 5.0)))
        W_star = fuse(problem)

        # normal-equation residual of the closed form (stationarity)
        B = np.zeros((d, d))
        A = np.zeros((h, d))
        for dw, group in zip(deltas, targets):
            E = np.asarray(group)
            B += E.T @ E
            A += (W + dw) @ (E.T @ E)
        E = np.asarray(preserve)
        B += problem.beta * (E.T @ E)
        A += W @ (problem.beta * (E.T @ E))
        worst_res = max(worst_res, np.linalg.norm(W_star @ B - A) / np.linalg.norm(A))

        # long-run gradient descent on the same objective
        lr = 0.9 / np.linalg.eigvalsh(B).max()
        Wg = W.copy()
        for _ in range(30_000):
            Wg -= lr * 2.0 * (Wg @ B - A)
        gap = fusion_objective(problem, W_star) - fusion_objective(problem, Wg)
        worst_gap = max(worst_gap, gap / (1.0 + abs(fusion_objective(problem, Wg))))

    ok = worst_gap <= 1e-9 and worst_res < 1e-8
    _report(8, ok, f"20 random instances: worst objective gap vs gradient descent "
                   f"{worst_gap:.2e} (<=1e-9), worst stationarity residual {worst_res:.2e} (<1e-8)")
    assert ok


def test_criterion_09_fused_multi_erasure_beats_sequential(bench_net, bench_pretrained,
                                                           schedule, bench_spec):
    concepts = [0, 1, 2]
    lora_cfg = AntLossConfig(steps=50, lr=3e-2, seed=0)
    fused, adapters, _ = erase_multi(bench_net, bench_pretrained, concepts, lora_cfg,
                                     schedule, beta=0.1, rank=4)

    seq = bench_pretrained
    for k in concepts:
        seq, _, _ = erase_single(bench_net, seq, k, AntLossConfig(seed=0), schedule)

    g = GuidanceSpec(3.0, 0)
    threshold = metrics.off_manifold_threshold(bench_spec)
    rep_f = metrics.evaluate(bench_net, fused, schedule, g, bench_spec, concepts, threshold,
                             n=500, seed=7)
    rep_s = metrics.evaluate(bench_net, seq, schedule, g, bench_spec, concepts, threshold,
                             n=500, seed=7)

    ok = (rep_f.acc_e < 0.15 and rep_f.acc_p > 0.80 and rep_f.h_c >= rep_s.h_c)
    _report(9, ok, f"fused: acc_e={rep_f.acc_e:.3f} (<0.15), acc_p={rep_f.acc_p:.3f} (>0.80), "
                   f"h_c={rep_f.h_c:.3f} >= sequential h_c={rep_s.h_c:.3f}")
    assert ok


def test_criterion_10_pipeline_reproducible_and_bounded(default_pipeline, tmp_path):
    """Two default-config pipeline runs, the first shared with the benchmark model,
    give the same bytes in every file but resolved_config.txt, which names the run dir."""
    run_a, time_a = default_pipeline
    run_b = tmp_path / "b"
    start = time.monotonic()
    assert main(["--run-dir", str(run_b), "pipeline"]) == 0
    times = [time_a, time.monotonic() - start]
    compare = sorted(set(os.listdir(run_a)) - {"resolved_config.txt"})
    identical = (sorted(os.listdir(run_a)) == sorted(os.listdir(run_b)) and
                 all((run_a / n).read_bytes() == (run_b / n).read_bytes() for n in compare))

    ok = identical and max(times) < 900.0
    _report(10, ok, f"two default-config pipeline runs byte-identical over "
                    f"{len(compare)} files: {identical}; wall times "
                    f"{times[0]:.0f}s/{times[1]:.0f}s (<900s)")
    assert ok
