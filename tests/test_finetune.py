import math
import os

import numpy as np
import pytest

from ant_lab import cli, finetune, workers
from ant_lab.config import load_config
from ant_lab.diffusion import (
    GuidanceSpec,
    SampleDivergedError,
    guided_ladder,
    infer_ladder,
    make_schedule,
    sample,
)
from ant_lab.finetune import (
    ABLATION_VARIANTS,
    AntLossConfig,
    ant_loss,
    erase_single,
    make_latents,
)
from ant_lab.net import ModelParams, NetConfig, ScoreNet, checksum, clone_frozen, save_checkpoint
from ant_lab.optim import Adam, TrainingDivergedError
from forking import children_left, count_forks, wait_for


@pytest.fixture()
def setup(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    return spec, net, params, clone_frozen(params), make_schedule()


def test_variant_toggle_grid():
    early, late, every = "early", "late", "all"
    grid = {  # each variant's (timestep range, term) pairs
        "A": {(every, "L_erase")},
        "B": {(every, "L_erase"), (early, "L_uncond_early"), (late, "L_uncond_late")},
        "C": {(late, "L_erase")},
        "D": {(late, "L_erase"), (late, "L_uncond_late")},
        "E": {(early, "L_preserve"), (late, "L_erase")},
        "full": {(early, "L_preserve"), (late, "L_erase"),
                 (early, "L_uncond_early"), (late, "L_uncond_late")},
    }
    assert list(ABLATION_VARIANTS) == list(grid)
    for name, pairs in grid.items():
        assert len(ABLATION_VARIANTS[name]) == len(pairs)
        assert set(ABLATION_VARIANTS[name]) == pairs, name


# Out-of-place reference: the loss as it was written before the term table,
# one hand-written block per timestep range and the ablation variants as flags.
_REFERENCE_FLAGS = {  # (preserve, erase_late, erase_all, uncond_early, uncond_late)
    "A": (False, False, True, False, False),
    "B": (False, False, True, True, True),
    "C": (False, True, False, False, False),
    "D": (False, True, False, False, True),
    "E": (True, True, False, False, False),
    "full": (True, True, False, True, True),
}


def _reference_teacher_outputs(net, frozen, z, t_norm, kid, cid):
    eu = net.forward_batch(frozen, z, t_norm, net.config.null_concept, net.config.null_context)
    ec = net.forward_batch(frozen, z, t_norm, kid, cid)
    return eu, ec - eu


def _per_range_latents(net, frozen, cond, cfg, rng, schedule, ranges):
    """Today's teacher side before the shared ladder: per range, its t, then
    make_latents, then two forward_batch calls."""
    out = {}
    for name, lo, hi in ranges:
        t = int(rng.integers(lo, hi + 1))
        z = make_latents(net, frozen, schedule, cond, t, rng, cfg.batch, cfg)
        out[name] = (t, z, *_reference_teacher_outputs(net, frozen, z, t / schedule.T, *cond))
    return out


def _stacked_latents(net, frozen, cond, cfg, rng, schedule, ranges):
    """The shipped teacher side: every range's t and z_T drawn in range order,
    one guided_ladder call over the stacked rows with a stop per row, and one
    forward_pair per range."""
    draws = []
    for name, lo, hi in ranges:
        t = int(rng.integers(lo, hi + 1))
        draws.append((name, t, rng.standard_normal((cfg.batch, 2))))
    out = {}
    if not draws:
        return out
    zs = guided_ladder(net, frozen, schedule, np.concatenate([z for _, _, z in draws]), *cond,
                       cfg.latent_guidance_scale, 0, cfg.n_infer_steps,
                       stop=np.repeat([t for _, t, _ in draws], cfg.batch))
    for i, (name, t, _) in enumerate(draws):
        z = zs[i * cfg.batch:(i + 1) * cfg.batch]
        eu, ec = net.forward_pair(frozen, z, t / schedule.T, *cond)
        out[name] = (t, z, eu, ec - eu)
    return out


def _reference_ant_loss(net, live, frozen, cond, cfg, rng, schedule, flags, adapter=None,
                        latents=_per_range_latents):
    preserve, erase_late, erase_all, uncond_early, uncond_late = flags
    kid, cid = cond
    T, tp = schedule.T, cfg.t_prime_train
    grad = np.zeros(net.n_params if adapter is None else adapter.flat.size)
    breakdown = {"L_preserve": 0.0, "L_erase": 0.0, "L_uncond_early": 0.0, "L_uncond_late": 0.0}
    null = (net.config.null_concept, net.config.null_context)

    t1 = t2 = -1
    want_early = (preserve or uncond_early) and tp < T
    want_late = (erase_late or uncond_late) and tp > 0
    ranges = [r for want, r in ((want_early, ("early", tp + 1, T)), (want_late, ("late", 1, tp)),
                                (erase_all, ("all", 1, T))) if want]
    teacher = latents(net, frozen, cond, cfg, rng, schedule, ranges)

    def add_term(z, t, conditional, target, weight, key):
        ids = (kid, cid) if conditional else null
        loss_i, grad_i = net.loss_and_grad(live, z, t / T, ids[0], ids[1], target, adapter)
        breakdown[key] = loss_i
        if weight != 0.0:
            grad[:] = grad + weight * grad_i

    if want_early:
        t1, z1, eu1, delta1 = teacher["early"]
        if preserve:
            add_term(z1, t1, True, eu1 + cfg.eta * delta1, 1.0, "L_preserve")
        if uncond_early:
            add_term(z1, t1, False, eu1, cfg.lambda2, "L_uncond_early")
    if want_late:
        t2, z2, eu2, delta2 = teacher["late"]
        if erase_late:
            add_term(z2, t2, True, eu2 - cfg.eta * delta2, cfg.lambda1, "L_erase")
        if uncond_late:
            add_term(z2, t2, False, eu2, cfg.lambda3, "L_uncond_late")
    if erase_all:
        t2, z2, eu2, delta2 = teacher["all"]
        add_term(z2, t2, True, eu2 - cfg.eta * delta2, cfg.lambda1, "L_erase")

    total = (breakdown["L_preserve"] + cfg.lambda1 * breakdown["L_erase"]
             + cfg.lambda2 * breakdown["L_uncond_early"] + cfg.lambda3 * breakdown["L_uncond_late"])
    return total, grad, breakdown, t1, t2


def _loss_case(setup, variant, t_prime, with_adapter, latents):
    """ant_loss and the reference with the given teacher side, from one seed."""
    spec, net, params, frozen, sched = setup
    live = params.copy()
    live.flat += 0.02 * np.random.default_rng(1).standard_normal(net.n_params)
    adapter = None
    if with_adapter:
        adapter = net.init_lora(rank=2, seed=0)
        adapter.flat += 0.05 * np.random.default_rng(2).standard_normal(adapter.flat.size)
    cfg = AntLossConfig(lambda1=0.7, lambda2=0.3, lambda3=0.45, eta=0.8, t_prime_train=t_prime,
                        batch=4, latent_guidance_scale=1.5, n_infer_steps=10)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = ant_loss(net, live, frozen, (1, 0), cfg, rng, sched, ABLATION_VARIANTS[variant],
                   adapter)
    ref = _reference_ant_loss(net, live, frozen, (1, 0), cfg, ref_rng, sched,
                              _REFERENCE_FLAGS[variant], adapter, latents)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws
    return got, ref


@pytest.mark.parametrize("with_adapter", [False, True])
@pytest.mark.parametrize("t_prime", [0, 43, 100])
@pytest.mark.parametrize("variant", list(_REFERENCE_FLAGS))
def test_ant_loss_equals_reference_bitwise(setup, variant, t_prime, with_adapter):
    """The shipped pass, against the flag reference with the stacked teacher side."""
    (total, grad, bd, t1, t2), ref = _loss_case(setup, variant, t_prime, with_adapter,
                                                _stacked_latents)
    assert np.float64(total).tobytes() == np.float64(ref[0]).tobytes()
    assert grad.tobytes() == ref[1].tobytes()
    assert list(bd.items()) == list(ref[2].items())
    assert (t1, t2) == ref[3:]


@pytest.mark.parametrize("with_adapter", [False, True])
@pytest.mark.parametrize("t_prime", [0, 43, 100])
@pytest.mark.parametrize("variant", list(_REFERENCE_FLAGS))
def test_ant_loss_agrees_with_the_per_range_reference(setup, variant, t_prime, with_adapter):
    """One teacher ladder for every range gives the per-range latents and
    teacher outputs up to matmul rounding, from the same draws."""
    (total, grad, bd, t1, t2), ref = _loss_case(setup, variant, t_prime, with_adapter,
                                                _per_range_latents)

    def rel(a, b):
        scale = np.max(np.abs(b))
        return np.max(np.abs(np.subtract(a, b))) / scale if scale else np.max(np.abs(a))

    assert rel(total, ref[0]) <= 1e-12
    assert rel(grad, ref[1]) <= 1e-12
    assert list(bd) == list(ref[2])
    assert all(rel(bd[k], ref[2][k]) <= 1e-12 for k in bd), (bd, ref[2])
    assert (t1, t2) == ref[3:]


@pytest.mark.parametrize("variant", ["C", "D"])
def test_ant_loss_with_no_range_drawn_runs_no_ladder(setup, variant):
    """t_prime_train = 0 empties the late range, the only one C and D use."""
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(batch=4, t_prime_train=0)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state

    class NoCalls(ScoreNet):
        def forward_pair(self, *args, **kwargs):
            raise AssertionError("a teacher pass ran with no range drawn")
        forward_batch = forward_pair  # a guided rung of weight 1

    total, grad, bd, t1, t2 = ant_loss(NoCalls(net.config), params, frozen, (0, 1), cfg, rng,
                                       sched, ABLATION_VARIANTS[variant])
    assert total == 0.0 and not np.any(grad)
    assert all(v == 0.0 for v in bd.values())
    assert (t1, t2) == (-1, -1)
    assert rng.bit_generator.state == state


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


def test_erase_log_csv(tmp_path):
    """`erase` writes its log with the term columns, one line per step."""
    cfg = load_config(None, {"run_dir": str(tmp_path), "ant.steps": 3, "ant.batch": 2})
    save_checkpoint(tmp_path / "pretrained.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    cli._write(cfg, cli.cmd_erase(cfg))
    lines = (tmp_path / "erase_log.csv").read_text().splitlines()
    assert lines[0] == "step,t1,t2,L_preserve,L_erase,L_uncond_early,L_uncond_late,total"
    assert len(lines) == 4
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [0, 1, 2]


def test_adapter_training_leaves_base_untouched(setup):
    spec, net, params, frozen, sched = setup
    adapter = net.init_lora(rank=2, seed=0)
    ck = checksum(params)
    out, _, _ = erase_single(net, params, 0, AntLossConfig(steps=5, batch=2, seed=0),
                             sched, adapter=adapter)
    assert checksum(params) == ck
    assert np.array_equal(out.flat, params.flat)
    assert np.any(adapter.delta() != 0)


# erase_single as it ran before its teacher ladders were batched: per step, the
# context, then ant_loss with its own teacher ladder, then the Adam step.
def _per_step_erase(net, pretrained, concept, cfg, schedule, mask=None,
                    toggles=ABLATION_VARIANTS["full"], adapter=None):
    frozen, live = clone_frozen(pretrained), pretrained.copy()
    trained = live.flat if adapter is None else adapter.flat
    opt = Adam(trained.size, cfg.lr, mask=mask)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for step in range(cfg.steps):
        c = int(rng.integers(0, net.config.n_contexts + 1))
        total, grad, bd, t1, t2 = ant_loss(net, live, frozen, (concept, c), cfg, rng, schedule,
                                           toggles, adapter)
        opt.step(trained, grad)
        rows.append((step, t1, t2, *bd.values(), total))
    return live, rows, rng.bit_generator.state


def _batched_erase(net, pretrained, concept, cfg, schedule, **kwargs):
    """erase_single, with the final state of the rng it made."""
    made, default_rng = [], np.random.default_rng
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed))
                  or made[-1])
        params, rows, _ = erase_single(net, pretrained, concept, cfg, schedule, **kwargs)
    assert len(made) == 1
    return params, rows, made[0].bit_generator.state


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def default_net():
    """The default architecture with fresh weights, and its teacher rows per
    step at the default batch of 16 for the full loss: two ranges."""
    net = ScoreNet(NetConfig(8, 3))
    return net, net.init_params(seed=4)


@pytest.mark.bitwise
@pytest.mark.parametrize("mode", ["base", "masked", "lora"])
@pytest.mark.parametrize("variant,scale", [(v, 1.0) for v in ABLATION_VARIANTS]
                         + [("full", 1.5)])
def test_batched_teacher_ladders_equal_the_per_step_loop_bitwise(default_net, variant, scale,
                                                                 mode):
    """At the default batch of 16, one teacher ladder per chunk of steps gives the
    per-step loop's params, log rows and rng state bit for bit.  17 steps end on
    a short chunk for every variant (k is 16, 8 or 5); scale 1.5 runs [null;
    cond] rungs instead of conditional ones."""
    net, pretrained = default_net
    cfg = AntLossConfig(steps=17, seed=5, latent_guidance_scale=scale)
    sched = make_schedule()
    mask = np.random.default_rng(6).random(net.n_params) < 0.3 if mode == "masked" else None
    adapters = [net.init_lora(2, seed=7) if mode == "lora" else None for _ in range(2)]
    toggles = ABLATION_VARIANTS[variant]
    got = _batched_erase(net, pretrained, 1, cfg, sched, mask=mask,
                         toggles=toggles, adapter=adapters[0])
    want = _per_step_erase(net, pretrained, 1, cfg, sched, mask, toggles, adapters[1])
    assert _bits(got[0].flat) == _bits(want[0].flat)
    if mode == "lora":
        assert _bits(adapters[0].flat) == _bits(adapters[1].flat)
        assert _bits(got[0].flat) == _bits(pretrained.flat)
    assert [_bits(row) for row in got[1]] == [_bits(row) for row in want[1]]
    assert got[2] == want[2]


def test_chunks_of_teacher_rows(monkeypatch, setup):
    """k = TEACHER_ROWS // (rows per step), at least 1; the last chunk may be short."""
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(steps=7, batch=4, seed=2)  # full loss: two ranges, 8 rows a step
    # the loop: sizes records the ladders of this process only, and a forked
    # worker would run some of them
    monkeypatch.setattr(workers, "_cpus", lambda: 1)
    sizes, ladder = [], finetune.guided_ladder
    monkeypatch.setattr(finetune, "guided_ladder",
                        lambda net, params, sched, z, *a, **kw: sizes.append(len(z))
                        or ladder(net, params, sched, z, *a, **kw))
    want = _per_step_erase(net, params, 0, cfg, sched)
    for budget, chunks in ((24, [24, 24, 8]), (8, [8] * 7), (5, [8] * 7), (256, [56])):
        monkeypatch.setattr(finetune, "TEACHER_ROWS", budget)
        sizes.clear()
        got = _batched_erase(net, params, 0, cfg, sched)
        assert sizes == chunks, budget
        assert _bits(got[0].flat) == _bits(want[0].flat)
        assert got[1:] == want[1:]


def test_steps_that_draw_no_range_run_no_teacher(setup):
    """t_prime_train = 0 empties the late range, the only one variant C uses."""
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(steps=5, batch=4, seed=2, t_prime_train=0)

    class NoPasses(ScoreNet):
        def forward_batch(self, *args, **kwargs):
            raise AssertionError("a net pass ran with no range drawn")
        forward_pair = loss_and_grad = forward_batch

    no_passes = NoPasses(net.config)
    got = _batched_erase(no_passes, params, 0, cfg, sched,
                         toggles=ABLATION_VARIANTS["C"])
    want = _per_step_erase(no_passes, params, 0, cfg, sched, toggles=ABLATION_VARIANTS["C"])
    assert np.array_equal(got[0].flat, params.flat)
    assert got[1:] == want[1:]
    assert [row[1:] for row in got[1]] == [(-1, -1, 0.0, 0.0, 0.0, 0.0, 0.0)] * 5


# the inf rows make inf - inf in the net and the DDIM update: the nan is the point
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_teacher_diverging_mid_chunk_raises_before_the_chunk_trains(monkeypatch, setup):
    """A teacher that diverges on the rows of step 3 of an 8-step chunk raises
    SampleDivergedError, and no step of the chunk has trained: the earlier steps'
    updates come after the chunk's one ladder."""
    spec, net, params, frozen, sched = setup
    cfg = AntLossConfig(steps=8, batch=16, seed=2)  # two ranges, 32 rows a step: k = 8
    monkeypatch.setattr(finetune, "guided_ladder", _diverging_on_step(3, 32))
    adam_steps = []
    monkeypatch.setattr(Adam, "step", lambda self, p, g: adam_steps.append(1))
    with pytest.raises(SampleDivergedError):
        erase_single(net, params, 0, cfg, sched)
    assert adam_steps == []


def _diverging_on_step(step, rows):
    """guided_ladder with z_T set to inf on the rows of one step of the first chunk."""
    ladder = finetune.guided_ladder

    def diverging(net, params, sched, z, *args, **kwargs):
        z = np.array(z)
        z[step * rows:(step + 1) * rows] = np.inf
        return ladder(net, params, sched, z, *args, **kwargs)
    return diverging


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_erase_with_a_diverging_teacher_exits_2_and_keeps_the_run_dir(monkeypatch, tmp_path):
    cfg = load_config(None, {"run_dir": str(tmp_path), "ant.steps": 8})
    save_checkpoint(tmp_path / "pretrained.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(finetune, "guided_ladder", _diverging_on_step(3, 32))
    assert cli.main(["--run-dir", str(tmp_path), "--set", "ant.steps=8", "erase"]) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# The fresh-process cases below: 40 steps of the full loss at batch 16 make 32
# teacher rows a step, so chunked_losses streams 5 chunks of 8 steps, and a
# process claiming 2 CPUs forks one worker for them.

def _erase(mode, cpus):
    """erase_single on the default architecture with `cpus` CPUs claimed: the
    params, the adapter's vector, the log rows, the checksums and the forks."""
    workers._cpus = lambda: cpus
    forks = count_forks()
    net = ScoreNet(NetConfig(8, 3))
    adapter = net.init_lora(2, seed=7) if mode == "lora" else None
    params, rows, checks = erase_single(net, net.init_params(seed=4), 1,
                                        AntLossConfig(steps=40, seed=5), make_schedule(),
                                        adapter=adapter)
    return params.flat, None if adapter is None else adapter.flat, rows, checks, len(forks)


@pytest.mark.parametrize("mode", ["base", "lora"])
def test_forked_erase_equals_the_loop_bitwise(fresh, mode):
    """Teacher chunks streamed from a forked worker (2 CPUs) and run on the loop
    (1 CPU) give the same params, adapter, log rows and teacher checksums.
    test_golden's modes compare a masked `erase` forked and on the loop."""
    forked, loop = fresh(_erase, mode, 2), fresh(_erase, mode, 1)
    assert forked[4] == 1 and loop[4] == 0
    assert _bits(forked[0]) == _bits(loop[0])
    if mode == "lora":
        assert _bits(forked[1]) == _bits(loop[1]) and np.any(loop[1])
    assert len(loop[2]) == 40
    assert [_bits(row) for row in forked[2]] == [_bits(row) for row in loop[2]]
    assert forked[3] == loop[3] and loop[3][0] == loop[3][1]


def _tiny_erase(cfg, cpus):
    """erase_single of concept 0 on the `tiny` net with `cpus` CPUs claimed."""
    workers._cpus = lambda: cpus
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    return erase_single(net, net.init_params(seed=0), 0, cfg, make_schedule())


def _erase_with_a_worker_mutating_frozen(tmp):
    """The teacher ladder of a forked worker adds 1 to its copy of frozen; the
    parent's first ladder waits until a worker has begun one.  (The error, the
    forks.)"""
    parent, began, ladder = os.getpid(), os.path.join(tmp, "began"), finetune._teacher_ladder

    def mutating(net, frozen, *args):
        if os.getpid() != parent:
            open(began, "w").close()
            frozen.flat.flags.writeable = True
            frozen.flat[0] += 1.0
        elif not wait_for(began):
            raise TimeoutError("no worker ran a teacher chunk")
        return ladder(net, frozen, *args)
    finetune._teacher_ladder = mutating
    forks = count_forks()
    try:
        _tiny_erase(AntLossConfig(steps=40, batch=16, seed=2), 2)
    except RuntimeError as e:
        return str(e), len(forks)


def test_a_worker_mutating_the_teacher_raises(fresh, tmp_path):
    """Each chunk's teacher returns its own process's checksum of frozen, so a
    forked worker that changed its copy is seen, though the caller's is intact."""
    assert fresh(_erase_with_a_worker_mutating_frozen, str(tmp_path)) == (
        "frozen teacher mutated during erasure", 1)


def _erase_diverging_on_chunk(tmp, k, cpus):
    """erase_single whose teacher raises SampleDivergedError on chunk k, found by
    its first z_T row; with 2 CPUs the parent's first ladder waits until a
    worker has begun chunk k, so a worker runs it.  (The error's type, the Adam
    steps, the forks.)"""
    cfg = AntLossConfig(steps=40, batch=16, seed=2)
    rng, schedule = np.random.default_rng(cfg.seed), make_schedule()
    ranges = finetune._ranges(cfg, schedule.T, ABLATION_VARIANTS["full"])
    for _ in range(8 * k + 1):  # the draws of chunk k's first step are the last
        rng.integers(0, 3)
        first = finetune._draw(ranges, rng, cfg.batch)[0][3][0]
    parent, began = os.getpid(), os.path.join(tmp, f"began-{cpus}")
    ladder = finetune._teacher_ladder

    def diverging(net, frozen, schedule, cond, z, *args):
        if np.array_equal(z[0], first):
            open(began, "w").close()
            raise SampleDivergedError(f"chunk {k} diverged")
        if cpus > 1 and os.getpid() == parent and not wait_for(began):
            raise TimeoutError(f"no worker began chunk {k}")
        return ladder(net, frozen, schedule, cond, z, *args)
    finetune._teacher_ladder = diverging
    adam_steps, forks = [], count_forks()
    Adam.step = lambda self, p, g: adam_steps.append(1)
    try:
        _tiny_erase(cfg, cpus)
    except SampleDivergedError as e:
        return str(e), len(adam_steps), len(forks)


def test_teacher_diverging_in_a_worker_raises_after_the_loops_steps(fresh, tmp_path):
    """Chunk 2's teacher, run by a forked worker, diverges: the stream yields
    chunks 0 and 1 first, so the 16 Adam steps the loop takes run, and the
    error raises at the step of chunk 2, as on the loop."""
    forked = fresh(_erase_diverging_on_chunk, str(tmp_path), 2, 2)
    loop = fresh(_erase_diverging_on_chunk, str(tmp_path), 2, 1)
    assert forked == ("chunk 2 diverged", 16, 1)
    assert loop == ("chunk 2 diverged", 16, 0)


def _student_diverging_mid_stream():
    """erase_single at an infinite learning rate on 2 CPUs: (the error, whether a
    child is left while the error's traceback still holds erase_single's frame,
    the forks)."""
    forks = count_forks()
    try:
        _tiny_erase(AntLossConfig(steps=40, batch=16, seed=2, lr=math.inf), 2)
    except TrainingDivergedError as e:
        return str(e), children_left(), len(forks)


def test_a_student_diverging_mid_stream_leaves_no_worker(fresh):
    """The student diverges at step 1, while the worker still has chunks to run:
    erase_single closes the stream as the error leaves it, so no child is left
    once it has raised, not only once the generator is collected."""
    assert fresh(_student_diverging_mid_stream, ignore=["ignore::RuntimeWarning"]) == (
        "erase diverged: non-finite loss at step 1", False, 1)
