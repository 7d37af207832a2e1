"""Trajectory-aware erasure finetuning.

Each gradient step combines four squared errors against stop-gradient
targets from the frozen teacher, on latents drawn at one timestep per range:

  preserve     (conditional):   target = eps*(z, t) + eta * delta*(c)
  erase        (conditional):   target = eps*(z, t) - eta * delta*(c)
  uncond-early (unconditional): target = eps*(z, t)
  uncond-late  (unconditional): target = eps*(z, t)

with delta*(c) = eps*(z, t, c) - eps*(z, t) computed from the teacher.
`ABLATION_VARIANTS` pairs each term with its timestep range -- early
t in (t', T], late [1, t'] or all [1, T]: the full loss puts preserve and
uncond-early early and erase and uncond-late late, and variants A-E drop
terms or move erase to all timesteps.  The teacher's side of a step -- its
latents and the [null; cond] outputs on them -- depends only on the step's
draws, never on the student.  So `chunked_losses` draws every step up front,
and one teacher ladder carries a chunk of k steps' ranges' latents, each row
under its step's (concept, context) and leaving at its range's timestep.  The
chunks' teachers stream from `workers.fork_imap`: a forked worker runs the
later chunks' ladders while the calling process trains on the earlier ones.
`erase_single` and the saliency maps take their losses from it.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

# ddim_step is not called here; perfbench's tracer looks it up as
# finetune.ddim_step among the module's names.
from .diffusion import NoiseSchedule, ddim_step, guided_ladder  # noqa: F401
from .net import ModelParams, ScoreNet, checksum, clone_frozen
from .optim import Adam, TrainingDivergedError
from .workers import fork_imap

__all__ = [
    "AntLossConfig",
    "ABLATION_VARIANTS",
    "make_latents",
    "ant_loss",
    "chunked_losses",
    "erase_single",
    "run_ablation",
]

log = logging.getLogger(__name__)

# Loss terms in breakdown, total and erase-log order:
# term -> (conditioned on the target concept, sign of eta * delta*(c) in the target)
TERMS = {"L_preserve": (True, 1.0), "L_erase": (True, -1.0),
         "L_uncond_early": (False, 0.0), "L_uncond_late": (False, 0.0)}
LOG_COLUMNS = ("step", "t1", "t2", *TERMS, "total")
# Rows per erasure teacher ladder: erase_single carries k = TEACHER_ROWS // (rows
# per step) steps down one ladder.  A [null; cond] rung stacks twice as many, and
# on OpenBLAS's SkylakeX kernel the output matmul rounds a row otherwise than a
# 16-row call does from 601 rows on (every B from 601 to 1296 tried).
TEACHER_ROWS = 256

# Each variant's (timestep range, term) pairs.
ABLATION_VARIANTS = {
    "A": (("all", "L_erase"),),
    "B": (("early", "L_uncond_early"), ("late", "L_uncond_late"), ("all", "L_erase")),
    "C": (("late", "L_erase"),),
    "D": (("late", "L_erase"), ("late", "L_uncond_late")),
    "E": (("early", "L_preserve"), ("late", "L_erase")),
    "full": (("early", "L_preserve"), ("early", "L_uncond_early"),
             ("late", "L_erase"), ("late", "L_uncond_late")),
}


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
    latent_guidance_scale: float = 1.0
    n_infer_steps: int = 50


def make_latents(net: ScoreNet, frozen: ModelParams, schedule: NoiseSchedule,
                 cond, t: int, rng, n: int, cfg: AntLossConfig):
    """Batch of n latents at timestep t for cond, a (concept, context) pair of
    scalar ids that every row shares.

    The frozen teacher runs its DDIM sampler with plain CFG from z_T down to t.
    `ant_loss` draws the same way for each of its ranges and rolls them all
    down one shared ladder.
    """
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t={t} outside 1..{schedule.T}")
    return _teacher_ladder(net, frozen, schedule, cond, rng.standard_normal((n, 2)), t, cfg)


def _teacher_ladder(net, frozen, schedule, cond, z, stop, cfg):
    # cond's ids are scalars or one per row of z.  t' = 0 keeps the guidance
    # sign at +1 on every rung above a stop >= 1
    return guided_ladder(net, frozen, schedule, z, *cond, cfg.latent_guidance_scale, 0,
                         cfg.n_infer_steps, stop=stop)


def _ranges(cfg: AntLossConfig, T: int, toggles):
    """The timestep ranges the terms in toggles use, in draw order (early, late,
    all): (range name, its terms, lo, hi).  An empty range is skipped."""
    tp = cfg.t_prime_train
    ranges = []
    for name, lo, hi in (("early", tp + 1, T), ("late", 1, tp), ("all", 1, T)):
        terms = [term for term in TERMS if (name, term) in toggles]
        if not terms:
            continue
        if lo > hi:
            log.info("t_prime_train == %d: %s-stage terms skipped (empty range)", tp, name)
            continue
        ranges.append((name, terms, lo, hi))
    return ranges


def _draw(ranges, rng, n: int):
    """Each range's t and then its n rows of z_T: (range name, its terms, t, z_T)."""
    drawn = []
    for name, terms, lo, hi in ranges:
        t = int(rng.integers(lo, hi + 1))
        drawn.append((name, terms, t, rng.standard_normal((n, 2))))
    return drawn


def _stacked(drawn, n: int):
    """The z_T rows of drawn, stacked, and each row's stop: its range's t."""
    return np.concatenate([z for *_, z in drawn]), np.repeat([t for _, _, t, _ in drawn], n)


def ant_loss(net: ScoreNet, live: ModelParams, frozen: ModelParams, cond,
             cfg: AntLossConfig, rng, schedule: NoiseSchedule,
             toggles=ABLATION_VARIANTS["full"], adapter=None):
    """One stochastic evaluation of the loss terms in toggles and its gradient.

    Ranges are visited early, late, all; each one a term uses draws its t and
    its z_T batch once, in that order, and an empty range is skipped.  All the
    drawn batches then go down one teacher ladder, each row leaving at its
    range's t (as `make_latents` would take it there), and `_loss` takes it
    from there.  Returns (total, grad, breakdown, t1, t2) as `_loss` does.
    """
    drawn = _draw(_ranges(cfg, schedule.T, toggles), rng, cfg.batch)
    zs = None
    if drawn:
        zs = _teacher_ladder(net, frozen, schedule, cond, *_stacked(drawn, cfg.batch), cfg)
    teacher = _pairs(net, frozen, schedule, cond, drawn, zs, cfg.batch)
    return _loss(net, live, cond, cfg, schedule, drawn, teacher, adapter)


def _pairs(net, frozen, schedule, cond, drawn, zs, n: int):
    """Each drawn range's (z, eu, ec): its rows of the teacher latents zs (in
    drawn's order) and the teacher's null and cond outputs on them, from one
    [null; cond] pass."""
    pairs = []
    for i, (_, _, t, _) in enumerate(drawn):
        z = zs[i * n:(i + 1) * n]
        pairs.append((z, *net.forward_pair(frozen, z, t / schedule.T, *cond)))
    return pairs


def _loss(net, live, cond, cfg, schedule, drawn, teacher, adapter):
    """The loss terms and gradient given drawn's teacher side, `_pairs`' (z, eu,
    ec) for each range.  Returns (total, grad, breakdown, t1, t2) where
    breakdown holds the raw (unweighted) per-term values, total applies the
    weights, and t1 / t2 are the early and the last late-or-all timestep (-1
    when not drawn).  The grad aligns with live.flat, or with adapter.flat
    when training an adapter.
    """
    T = schedule.T
    grad = np.zeros(net.n_params if adapter is None else adapter.flat.size)
    weights = dict(zip(TERMS, (1.0, cfg.lambda1, cfg.lambda2, cfg.lambda3)))
    breakdown = dict.fromkeys(weights, 0.0)
    ids = {True: cond, False: (net.config.null_concept, net.config.null_context)}

    t1 = t2 = -1
    for (name, terms, t, _), (z, eu, ec) in zip(drawn, teacher):
        delta = ec - eu
        for term in terms:
            conditional, sign = TERMS[term]
            target = eu + sign * cfg.eta * delta if sign else eu
            breakdown[term], grad_i = net.loss_and_grad(live, z, t / T, *ids[conditional],
                                                        target, adapter)
            if weights[term] != 0.0:
                np.add(grad, weights[term] * grad_i, out=grad)
        if name == "early":
            t1 = t
        else:
            t2 = t

    total = sum(w * breakdown[term] for term, w in weights.items())
    return total, grad, breakdown, t1, t2


def chunked_losses(net, live, frozen, concept: int, entries, cfg, schedule, toggles, adapter=None):
    """Yield `_loss`'s (total, grad, breakdown, t1, t2) for each (context, rng)
    of entries, in order; live may change between yields.

    Every entry first draws its ranges' t and z_T from its rng, as `ant_loss`
    would, in entry order.  The teacher side then runs in chunks of k =
    TEACHER_ROWS // (rows per entry) entries: one ladder takes the chunk's
    rows, each under its entry's context, and each entry's ranges get their
    [null; cond] passes.  The chunks stream from `workers.fork_imap`, so a
    forked worker runs the later chunks while the caller trains on the earlier
    ones; a chunk's teacher that raises (SampleDivergedError) raises before
    the chunk's first yield.  Each chunk's teacher also returns the checksum
    of its process's `frozen` after its passes: any change raises
    RuntimeError.  A caller that may stop early closes this generator
    (`contextlib.closing`), which stops the workers.
    """
    ranges = _ranges(cfg, schedule.T, toggles)
    per_entry = len(ranges) * cfg.batch
    k = max(1, TEACHER_ROWS // max(per_entry, 1))
    drawn = [(c, _draw(ranges, rng, cfg.batch)) for c, rng in entries]
    chunks = [drawn[i:i + k] for i in range(0, len(drawn), k)]
    before = checksum(frozen)

    def teacher(chunk):
        zs = [None] * len(chunk)
        if ranges:
            z, stop = _stacked([d for _, ds in chunk for d in ds], cfg.batch)
            cids = np.repeat([c for c, _ in chunk], per_entry)
            zs = np.split(_teacher_ladder(net, frozen, schedule, (concept, cids), z, stop, cfg),
                          len(chunk))
        return ([_pairs(net, frozen, schedule, (concept, c), ds, z, cfg.batch)
                 for (c, ds), z in zip(chunk, zs)], checksum(frozen))

    with contextlib.closing(fork_imap(teacher, chunks)) as teachers:
        for chunk, (pairs, after) in zip(chunks, teachers):
            if after != before:
                raise RuntimeError("frozen teacher mutated during erasure")
            for (c, ds), p in zip(chunk, pairs):
                yield _loss(net, live, (concept, c), cfg, schedule, ds, p, adapter)


def erase_single(net: ScoreNet, pretrained: ModelParams, target_concept: int,
                 cfg: AntLossConfig, schedule: NoiseSchedule, mask=None,
                 toggles=ABLATION_VARIANTS["full"], adapter=None):
    """Finetune against one concept; returns (params, log rows, teacher checksums).

    With a mask, updates (and Adam state) touch only masked coordinates.  With
    an adapter, only adapter.flat is trained and the returned params are the
    untouched base.  Contexts cycle randomly over the vocabulary plus null.

    Each step draws its context and then its ranges' t and z_T from one rng,
    in the order of a step-by-step loop, all before the first step trains.
    `chunked_losses` runs the steps' teacher ladders in chunks, streamed from
    a forked worker where `workers.fork_imap` forks, while the steps train
    here: a diverging teacher raises SampleDivergedError before any step of
    its chunk trains; a non-finite loss raises TrainingDivergedError naming
    the step, and the workers are stopped before it propagates.  Inside a
    forked map (`erase-multi`'s adapters, `ablate`'s variants) the chunks run
    on the plain loop.
    """
    if not 0 <= target_concept < net.config.n_concepts:
        raise ValueError(f"target concept {target_concept} out of vocabulary")
    frozen = clone_frozen(pretrained)
    check_before = checksum(frozen)
    live = pretrained.copy()
    trained = live.flat if adapter is None else adapter.flat
    opt = Adam(trained.size, cfg.lr, mask=getattr(mask, "bits", mask))
    rng = np.random.default_rng(cfg.seed)
    C = net.config.n_contexts
    steps = ((int(rng.integers(0, C + 1)), rng) for _ in range(cfg.steps))  # C: the null context
    rows = []
    with contextlib.closing(chunked_losses(net, live, frozen, target_concept, steps, cfg,
                                           schedule, toggles, adapter)) as losses:
        for step, (total, grad, bd, t1, t2) in enumerate(losses):
            if not np.isfinite(total):
                raise TrainingDivergedError("erase", step)
            opt.step(trained, grad)
            rows.append((step, t1, t2, *bd.values(), total))

    check_after = checksum(frozen)
    if check_after != check_before:
        raise RuntimeError("frozen teacher mutated during erasure")
    return live, rows, (check_before, check_after)


def run_ablation(net: ScoreNet, pretrained: ModelParams, target_concept: int,
                 variant: str, cfg: AntLossConfig, schedule: NoiseSchedule,
                 oracle, guidance, n_eval: int = 500, eval_seed: int = 0):
    """Erase with one ablation loss configuration and score the result."""
    from .metrics import accuracy, harmonic_mean_hc

    params, _, _ = erase_single(net, pretrained, target_concept, cfg, schedule,
                                toggles=ABLATION_VARIANTS[variant])
    accs = accuracy(net, params, schedule, guidance,
                    list(range(net.config.n_concepts)), n_eval, eval_seed, oracle)
    acc_e = accs[target_concept]
    preserved = [accs[k] for k in range(net.config.n_concepts) if k != target_concept]
    acc_p = float(np.mean(preserved))
    return {"variant": variant, "acc_e": acc_e, "acc_p": acc_p,
            "h_c": harmonic_mean_hc(acc_e, acc_p)}
