"""Trajectory-aware erasure finetuning.

Each gradient step samples one early timestep t1 ~ U(t', T] and one late
timestep t2 ~ U(0, t'], builds latents for both, and combines four squared
errors against stop-gradient targets from the frozen teacher:

  preserve     (early, conditional):   target = eps*(z1, t1) + eta * delta*(c)
  erase        (late,  conditional):   target = eps*(z2, t2) - eta * delta*(c)
  uncond-early (early, unconditional): target = eps*(z1, t1)
  uncond-late  (late,  unconditional): target = eps*(z2, t2)

with delta*(c) = eps*(z, t, c) - eps*(z, t) computed from the teacher.  The
ablation variants A-E toggle subsets of these terms; variant A and B replace
the late-only erase range with all timesteps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# ddim_step is not called here; perfbench's tracer looks it up as
# finetune.ddim_step among the module's names.
from .diffusion import NoiseSchedule, ddim_step, guided_ladder  # noqa: F401
from .net import ModelParams, ScoreNet, checksum, clone_frozen
from .optim import Adam

__all__ = [
    "AntLossConfig",
    "AblationConfig",
    "ABLATION_VARIANTS",
    "make_latents",
    "ant_loss",
    "erase_single",
    "run_ablation",
    "save_erase_log",
]

log = logging.getLogger(__name__)

LOG_COLUMNS = ("step", "t1", "t2", "L_preserve", "L_erase",
               "L_uncond_early", "L_uncond_late", "total")


@dataclass(frozen=True)
class AntLossConfig:
    lambda1: float = 1.0
    lambda2: float = 0.5
    lambda3: float = 0.5
    eta: float = 1.0
    t_prime_train: int = 86  # training-schedule image of t' = 43 on the 50-step ladder
    steps: int = 250
    lr: float = 5e-4
    batch: int = 16
    seed: int = 0
    latent_source: str = "teacher_partial_ddim"
    latent_guidance_scale: float = 1.0
    n_infer_steps: int = 50

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("lambda weights must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.latent_source not in ("teacher_partial_ddim", "noised_data"):
            raise ValueError(f"unknown latent_source {self.latent_source!r}")


@dataclass(frozen=True)
class AblationConfig:
    variant: str
    preserve: bool
    erase_late: bool
    erase_all: bool
    uncond_early: bool
    uncond_late: bool


ABLATION_VARIANTS = {
    "A": AblationConfig("A", False, False, True, False, False),
    "B": AblationConfig("B", False, False, True, True, True),
    "C": AblationConfig("C", False, True, False, False, False),
    "D": AblationConfig("D", False, True, False, False, True),
    "E": AblationConfig("E", True, True, False, False, False),
    "full": AblationConfig("full", True, True, False, True, True),
}


def make_latents(net: ScoreNet, frozen: ModelParams, schedule: NoiseSchedule,
                 cond, t: int, rng, n: int, cfg: AntLossConfig, data_spec=None):
    """Batch of n latents at timestep t for the given (concept, context) ids.

    Default mode runs the teacher's DDIM sampler with plain CFG from z_T down
    to t; the alternate mode noises fresh draws from the data mixture.
    """
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t={t} outside 1..{schedule.T}")
    kid, cid = cond
    if cfg.latent_source == "noised_data":
        if data_spec is None:
            raise ValueError("noised_data latents need the mixture spec")
        if cid == net.config.null_context:
            w = data_spec.mode_weights[kid]
            cids = rng.choice(data_spec.n_contexts, size=n, p=w / w.sum())
        else:
            cids = np.full(n, cid)
        x0 = data_spec.mode_centers[kid, cids] + data_spec.mode_std * rng.standard_normal((n, 2))
        ab = schedule.alpha_bars[t]
        z = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * rng.standard_normal((n, 2))
    else:
        z = rng.standard_normal((n, 2))
        if t < schedule.T:  # z_T is the untouched Gaussian draw
            # t' = 0 keeps the guidance sign at +1 on every rung above t >= 1
            z = guided_ladder(net, frozen, schedule, z, np.full(n, kid), np.full(n, cid),
                              cfg.latent_guidance_scale, 0, cfg.n_infer_steps, stop=t)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError(f"non-finite latents at timestep {t}")
    return z


def _teacher_outputs(net, frozen, z, t_norm, kid, cid):
    n = len(z)
    eu = net.forward_batch(frozen, z, t_norm, np.full(n, net.config.null_concept),
                           np.full(n, net.config.null_context))
    ec = net.forward_batch(frozen, z, t_norm, np.full(n, kid), np.full(n, cid))
    return eu, ec - eu


def ant_loss(net: ScoreNet, live: ModelParams, frozen: ModelParams, cond,
             cfg: AntLossConfig, rng, schedule: NoiseSchedule,
             toggles: AblationConfig = ABLATION_VARIANTS["full"],
             adapter=None, data_spec=None):
    """One stochastic evaluation of the four-term loss and its gradient.

    Returns (total, grad, breakdown, t1, t2) where breakdown holds the raw
    (unweighted) per-term values; total applies the lambda weights.  The grad
    aligns with live.flat, or with the adapter's flat vector when training one.
    """
    kid, cid = cond
    T, tp = schedule.T, cfg.t_prime_train
    if not 0 <= tp <= T:
        raise ValueError(f"t_prime_train={tp} outside 0..{T}")
    n_grad = adapter.flat().size if adapter is not None else net.n_params
    grad = np.zeros(n_grad)
    breakdown = {"L_preserve": 0.0, "L_erase": 0.0, "L_uncond_early": 0.0, "L_uncond_late": 0.0}
    null = (net.config.null_concept, net.config.null_context)

    t1 = t2 = -1
    want_early = toggles.preserve or toggles.uncond_early
    want_late = toggles.erase_late or toggles.uncond_late
    if want_early and tp >= T:
        log.info("t_prime_train == T: early-stage terms skipped (empty range)")
        want_early = False
    if want_late and tp <= 0:
        log.info("t_prime_train == 0: late-stage terms skipped (empty range)")
        want_late = False

    def add_term(z, t, conditional, target, weight, key):
        t_norm = t / T
        ids = (np.full(len(z), kid), np.full(len(z), cid)) if conditional else \
              (np.full(len(z), null[0]), np.full(len(z), null[1]))
        loss_i, grad_i = net.loss_and_grad(live, z, t_norm, ids[0], ids[1], target, adapter)
        breakdown[key] = loss_i
        if weight != 0.0:
            np.add(grad, weight * grad_i, out=grad)

    if want_early:
        t1 = int(rng.integers(tp + 1, T + 1))
        z1 = make_latents(net, frozen, schedule, cond, t1, rng, cfg.batch, cfg, data_spec)
        eu1, delta1 = _teacher_outputs(net, frozen, z1, t1 / T, kid, cid)
        if toggles.preserve:
            add_term(z1, t1, True, eu1 + cfg.eta * delta1, 1.0, "L_preserve")
        if toggles.uncond_early:
            add_term(z1, t1, False, eu1, cfg.lambda2, "L_uncond_early")

    if want_late:
        t2 = int(rng.integers(1, tp + 1))
        z2 = make_latents(net, frozen, schedule, cond, t2, rng, cfg.batch, cfg, data_spec)
        eu2, delta2 = _teacher_outputs(net, frozen, z2, t2 / T, kid, cid)
        if toggles.erase_late:
            add_term(z2, t2, True, eu2 - cfg.eta * delta2, cfg.lambda1, "L_erase")
        if toggles.uncond_late:
            add_term(z2, t2, False, eu2, cfg.lambda3, "L_uncond_late")

    if toggles.erase_all:
        t2 = int(rng.integers(1, T + 1))
        z2 = make_latents(net, frozen, schedule, cond, t2, rng, cfg.batch, cfg, data_spec)
        eu2, delta2 = _teacher_outputs(net, frozen, z2, t2 / T, kid, cid)
        add_term(z2, t2, True, eu2 - cfg.eta * delta2, cfg.lambda1, "L_erase")

    total = (breakdown["L_preserve"] + cfg.lambda1 * breakdown["L_erase"]
             + cfg.lambda2 * breakdown["L_uncond_early"] + cfg.lambda3 * breakdown["L_uncond_late"])
    return total, grad, breakdown, t1, t2


def erase_single(net: ScoreNet, pretrained: ModelParams, target_concept: int,
                 cfg: AntLossConfig, schedule: NoiseSchedule, mask=None,
                 toggles: AblationConfig = ABLATION_VARIANTS["full"],
                 data_spec=None, adapter=None):
    """Finetune against one concept; returns (params, log rows, teacher checksums).

    With a mask, updates (and Adam state) touch only masked coordinates.  With
    an adapter, only the adapter is trained and the returned params are the
    untouched base.  Contexts cycle randomly over the vocabulary plus null.
    """
    if not 0 <= target_concept < net.config.n_concepts:
        raise ValueError(f"target concept {target_concept} out of vocabulary")
    frozen = clone_frozen(pretrained)
    check_before = checksum(frozen)
    live = pretrained.copy()
    bits = None
    if mask is not None:
        bits = mask.bits if hasattr(mask, "bits") else np.asarray(mask, dtype=bool)
    if adapter is not None:
        opt = Adam(adapter.flat().size, cfg.lr)
    else:
        opt = Adam(net.n_params, cfg.lr, mask=bits)
    rng = np.random.default_rng(cfg.seed)
    C = net.config.n_contexts

    rows = []
    last_good = live.copy() if adapter is None else None
    for step in range(cfg.steps):
        c = int(rng.integers(0, C + 1))
        cid = net.config.null_context if c == C else c
        total, grad, bd, t1, t2 = ant_loss(net, live, frozen, (target_concept, cid),
                                           cfg, rng, schedule, toggles, adapter, data_spec)
        if not np.isfinite(total):
            log.warning("loss diverged at step %d; returning last finite checkpoint", step)
            return (last_good if adapter is None else live), rows, (check_before, checksum(frozen))
        if adapter is not None:
            v = adapter.flat()
            opt.step(v, grad)
            adapter.set_flat(v)
        else:
            opt.step(live.flat, grad)
            if (step + 1) % 50 == 0:
                last_good = live.copy()
        rows.append((step, t1, t2, bd["L_preserve"], bd["L_erase"],
                     bd["L_uncond_early"], bd["L_uncond_late"], total))

    check_after = checksum(frozen)
    if check_after != check_before:
        raise RuntimeError("frozen teacher mutated during erasure")
    return live, rows, (check_before, check_after)


def run_ablation(net: ScoreNet, pretrained: ModelParams, target_concept: int,
                 variant: str, cfg: AntLossConfig, schedule: NoiseSchedule,
                 oracle, guidance, n_eval: int = 500, eval_seed: int = 0,
                 data_spec=None):
    """Erase with one ablation loss configuration and score the result."""
    from .metrics import accuracy, harmonic_mean_hc

    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    toggles = ABLATION_VARIANTS[variant]
    params, rows, _ = erase_single(net, pretrained, target_concept, cfg, schedule,
                                   toggles=toggles, data_spec=data_spec)
    accs = accuracy(net, params, schedule, guidance,
                    list(range(net.config.n_concepts)), n_eval, eval_seed, oracle)
    acc_e = accs[target_concept]
    preserved = [accs[k] for k in range(net.config.n_concepts) if k != target_concept]
    acc_p = float(np.mean(preserved))
    return {"variant": variant, "acc_e": acc_e, "acc_p": acc_p,
            "h_c": harmonic_mean_hc(acc_e, acc_p)}


def save_erase_log(rows, path) -> None:
    with open(path, "w") as f:
        f.write(",".join(LOG_COLUMNS) + "\n")
        for r in rows:
            f.write(f"{r[0]},{r[1]},{r[2]}," + ",".join(f"{v:.17g}" for v in r[3:]) + "\n")
