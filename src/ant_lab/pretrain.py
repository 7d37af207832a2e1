"""Denoising score matching with condition dropout.

Produces the pretrained conditional model that erasure operates on.  Dropout
replaces the full condition or just the context with the null rows, so the
model learns unconditional and concept-only predictions alongside the fully
conditioned one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, forward_noise
from .net import ScoreNet
from .optim import Adam, TrainingDivergedError

__all__ = ["PretrainConfig", "pretrain"]


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 20000
    batch: int = 256
    lr: float = 1e-3
    cond_dropout: float = 0.1
    seed: int = 0


def pretrain(net: ScoreNet, schedule: NoiseSchedule, dataset, config: PretrainConfig):
    """Returns (trained params, loss curve) with the curve smoothed per 100 steps.

    The curve is a list of (step, mean loss over the last 100 steps).  A
    non-finite loss raises TrainingDivergedError naming the step.
    """
    cfg = net.config
    rng = np.random.default_rng(config.seed)
    params = net.init_params(int(rng.integers(2**31)))
    opt = Adam(net.n_params, config.lr)

    window = []
    curve = []
    p = config.cond_dropout
    for step in range(config.steps):
        idx = rng.integers(0, len(dataset), size=config.batch)
        x0 = dataset.points[idx]
        kids = dataset.concepts[idx].copy()
        cids = dataset.contexts[idx].copy()
        u = rng.random(config.batch)
        both = u < p
        ctx_only = (u >= p) & (u < 2 * p)
        kids[both] = cfg.null_concept
        cids[both | ctx_only] = cfg.null_context

        t = rng.integers(1, schedule.T + 1, size=config.batch)
        eps = rng.standard_normal((config.batch, 2))
        z_t = forward_noise(schedule, x0, t, eps)
        loss, grad = net.loss_and_grad(params, z_t, t / schedule.T, kids, cids, eps)
        if not np.isfinite(loss):
            raise TrainingDivergedError("pretrain", step)
        opt.step(params.flat, grad)

        window.append(loss)
        if (step + 1) % 100 == 0:
            curve.append((step + 1, float(np.mean(window))))
            window = []
    if window:
        curve.append((config.steps, float(np.mean(window))))
    return params, curve
