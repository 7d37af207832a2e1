import numpy as np
import pytest

from ant_lab.diffusion import GuidanceSpec, infer_ladder, make_schedule, sample
from ant_lab.finetune import (
    ABLATION_VARIANTS,
    AntLossConfig,
    ant_loss,
    erase_single,
    make_latents,
    save_erase_log,
)
from ant_lab.net import ModelParams, checksum, clone_frozen


@pytest.fixture()
def setup(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    return spec, net, params, clone_frozen(params), make_schedule()


def test_variant_toggle_grid():
    grid = {  # (preserve, erase_late, erase_all, uncond_early, uncond_late)
        "A": (False, False, True, False, False),
        "B": (False, False, True, True, True),
        "C": (False, True, False, False, False),
        "D": (False, True, False, False, True),
        "E": (True, True, False, False, False),
        "full": (True, True, False, True, True),
    }
    for name, flags in grid.items():
        v = ABLATION_VARIANTS[name]
        assert (v.preserve, v.erase_late, v.erase_all, v.uncond_early, v.uncond_late) == flags


def test_make_latents_boundaries(setup):
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(batch=4, seed=0)
    rng = np.random.default_rng(0)
    z = make_latents(net, frozen, sched, (0, 0), sched.T, rng, 4, cfg)
    assert np.array_equal(z, np.random.default_rng(0).standard_normal((4, 2)))
    with pytest.raises(ValueError):
        make_latents(net, frozen, sched, (0, 0), 0, rng, 4, cfg)


def test_make_latents_stops_on_the_sampler_ladder(setup):
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(latent_guidance_scale=2.0, n_infer_steps=20)
    guidance = GuidanceSpec(cfg.latent_guidance_scale, 0, cfg.n_infer_steps)
    _, traj = sample(net, frozen, sched, guidance, (1, 0), 6, 3, record_trajectory=True)
    for i, t in enumerate(infer_ladder(sched, cfg.n_infer_steps)[:-1]):
        z = make_latents(net, frozen, sched, (1, 0), int(t), np.random.default_rng(3), 6, cfg)
        assert np.array_equal(z, traj[i]), t


def test_make_latents_noised_data_mode(setup):
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(batch=8, seed=0, latent_source="noised_data")
    rng = np.random.default_rng(1)
    z = make_latents(net, frozen, sched, (1, 0), 50, rng, 8, cfg, data_spec=spec)
    assert z.shape == (8, 2)
    assert np.all(np.isfinite(z))
    with pytest.raises(ValueError):
        make_latents(net, frozen, sched, (1, 0), 50, rng, 8, cfg)  # spec required


def test_live_equals_frozen_identities(setup):
    """With the live net equal to the teacher, the preservation and both
    unconditional terms vanish and the erase term reduces to 4*mean||delta||^2."""
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(batch=6, seed=5, eta=1.0, t_prime_train=sched.T)
    rng = np.random.default_rng(9)
    _, _, bd, _, t2 = ant_loss(net, params, frozen, (0, 1), cfg, rng, sched)

    assert bd["L_preserve"] == 0.0
    assert bd["L_uncond_early"] == 0.0
    assert bd["L_uncond_late"] == 0.0

    # replay the rng to rebuild the same (t2, z2) pair and compute delta there
    rng2 = np.random.default_rng(9)
    t2_replay = int(rng2.integers(1, sched.T + 1))
    assert t2_replay == t2
    z2 = make_latents(net, frozen, sched, (0, 1), t2, rng2, cfg.batch, cfg)
    n = cfg.batch
    eu = net.forward_batch(frozen, z2, t2 / sched.T, np.full(n, net.config.null_concept),
                           np.full(n, net.config.null_context))
    ec = net.forward_batch(frozen, z2, t2 / sched.T, np.full(n, 0), np.full(n, 1))
    delta = ec - eu
    expected = 4.0 * float(np.mean(np.sum(delta * delta, axis=1)))
    assert abs(bd["L_erase"] - expected) < 1e-12


def test_degenerate_t_prime_skips_terms(setup):
    spec, net, params, frozen, sched = setup
    live = params.copy()
    live.flat += 0.01
    for tp in (0, sched.T):
        cfg = AntLossConfig(batch=4, seed=1, t_prime_train=tp)
        total, _, bd, t1, t2 = ant_loss(net, live, frozen, (0, 0), cfg,
                                        np.random.default_rng(4), sched)
        assert np.isfinite(total)
        if tp == 0:
            assert t2 == -1 and bd["L_erase"] == 0.0
        else:
            assert t1 == -1 and bd["L_preserve"] == 0.0


def test_ant_loss_gradient_matches_finite_differences(setup):
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(batch=3, seed=8, t_prime_train=60)

    def fn(flat):
        live = ModelParams(flat, net.layout, net.config)
        total, grad, _, _, _ = ant_loss(net, live, frozen, (2, 1), cfg,
                                        np.random.default_rng(8), sched)
        return total, grad

    x0 = params.flat + 0.05 * np.random.default_rng(6).standard_normal(net.n_params)
    _, grad = fn(x0)
    rng = np.random.default_rng(7)
    coords = rng.choice(np.flatnonzero(np.abs(grad) > 1e-7), size=10, replace=False)
    step = 1e-5
    for i in coords:
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        fd = (fn(xp)[0] - fn(xm)[0]) / (2 * step)
        assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i])) < 1e-4


def test_erase_single_zero_steps_is_identity(setup):
    spec, net, params, frozen, sched = setup
    out, rows, (before, after) = erase_single(net, params, 0,
                                              AntLossConfig(steps=0, seed=0), sched)
    assert np.array_equal(out.flat, params.flat)
    assert rows == []
    assert before == after


def test_erase_single_all_zero_mask_is_identity(setup):
    spec, net, params, frozen, sched = setup
    mask = np.zeros(net.n_params, dtype=bool)
    out, _, _ = erase_single(net, params, 0, AntLossConfig(steps=5, batch=2, seed=0),
                             sched, mask=mask)
    assert np.array_equal(out.flat, params.flat)


def test_erase_single_teacher_checksum_stable(setup):
    spec, net, params, frozen, sched = setup
    out, rows, (before, after) = erase_single(net, params, 1,
                                              AntLossConfig(steps=10, batch=2, seed=0), sched)
    assert before == after
    assert len(rows) == 10
    assert not np.array_equal(out.flat, params.flat)


def test_erase_single_rejects_bad_concept(setup):
    spec, net, params, frozen, sched = setup
    with pytest.raises(ValueError):
        erase_single(net, params, 99, AntLossConfig(steps=1), sched)


def test_erase_log_csv(setup, tmp_path):
    spec, net, params, frozen, sched = setup
    _, rows, _ = erase_single(net, params, 0, AntLossConfig(steps=3, batch=2, seed=0), sched)
    path = tmp_path / "log.csv"
    save_erase_log(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t1,t2,L_preserve,L_erase,L_uncond_early,L_uncond_late,total"
    assert len(lines) == 4


def test_adapter_training_leaves_base_untouched(setup):
    spec, net, params, frozen, sched = setup
    adapter = net.init_lora(rank=2, seed=0)
    ck = checksum(params)
    out, _, _ = erase_single(net, params, 0, AntLossConfig(steps=5, batch=2, seed=0),
                             sched, adapter=adapter)
    assert checksum(params) == ck
    assert np.array_equal(out.flat, params.flat)
    assert np.any(adapter.delta() != 0)
