"""Denoising score matching with condition dropout.

Produces the pretrained conditional model that erasure operates on.  Dropout
replaces the full condition or just the context with the null rows, so the
model learns unconditional and concept-only predictions alongside the fully
conditioned one.

A step's loss and gradient are those of two fixed shards of its batch of B
rows, shard A (rows [0, ceil(B/2))) plus shard B (the rest), each averaged
over the full B and summed A then B; a batch of one row has one shard.  The
grouping is the same on every machine, so the bits do not depend on where a
shard runs: `workers.shard_worker` runs shard B on a pinned worker process
where it can, on the params and batch kept in MAP_SHARED memory, while this
process runs shard A.  Each shard keeps its arrays across steps in its own
`loss_and_grad` work dict.  The draws stay in this process, in one RNG order.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .diffusion import NoiseSchedule, forward_noise
from .net import ModelParams, ScoreNet
from .optim import Adam, TrainingDivergedError
from .workers import shard_worker

__all__ = ["PretrainConfig", "pretrain"]


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 20000
    batch: int = 256
    lr: float = 1e-3
    cond_dropout: float = 0.1
    seed: int = 0


def _shared(shape, dtype=float) -> np.ndarray:
    """Zeros on anonymous MAP_SHARED memory, which a forked worker shares."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(1, math.prod(shape)) * dtype.itemsize),
                         dtype, math.prod(shape)).reshape(shape)


def pretrain(net: ScoreNet, schedule: NoiseSchedule, dataset, config: PretrainConfig):
    """Returns (trained params, loss curve) with the curve smoothed per 100 steps.

    The curve is a list of (step, mean loss over the last 100 steps).  A
    non-finite loss raises TrainingDivergedError naming the step.  A step's
    loss and gradient are its two shards' sums (see the module docstring).
    """
    cfg = net.config
    rng = np.random.default_rng(config.seed)
    init = net.init_params(int(rng.integers(2**31)))
    params = ModelParams(_shared(init.flat.shape), net.layout, cfg)
    params.flat[:] = init.flat
    opt = Adam(net.n_params, config.lr)

    n = config.batch
    z_t, t_norm, eps = _shared((n, 2)), _shared((n,)), _shared((n, 2))
    kids, cids = _shared((n,), dataset.concepts.dtype), _shared((n,), dataset.contexts.dtype)
    rows_a, rows_b = slice(0, (n + 1) // 2), slice((n + 1) // 2, n)

    def shard(rows, work):
        return net.loss_and_grad(params, z_t[rows], t_norm[rows], kids[rows], cids[rows],
                                 eps[rows], work=work, denom=n)

    work_a = {}
    # shard B's gradient and loss land where this process reads them
    work_b = {"arrays": {"grad": _shared((net.n_params,))}}
    loss_b = _shared((1,))

    def shard_b():
        loss_b[0] = shard(rows_b, work_b)[0]

    window = []
    curve = []
    p = config.cond_dropout
    with shard_worker(shard_b if n > 1 else None) as run:
        for step in range(config.steps):
            idx = rng.integers(0, len(dataset), size=n)
            x0 = dataset.points[idx]
            kids[:] = dataset.concepts[idx]
            cids[:] = dataset.contexts[idx]
            u = rng.random(n)
            both = u < p
            ctx_only = (u >= p) & (u < 2 * p)
            kids[both] = cfg.null_concept
            cids[both | ctx_only] = cfg.null_context

            t = rng.integers(1, schedule.T + 1, size=n)
            eps[:] = rng.standard_normal((n, 2))
            z_t[:] = forward_noise(schedule, x0, t, eps)
            t_norm[:] = t / schedule.T
            loss, grad = run(lambda: shard(rows_a, work_a))
            if n > 1:
                loss += float(loss_b[0])
                grad += work_b["arrays"]["grad"]
            if not np.isfinite(loss):
                raise TrainingDivergedError("pretrain", step)
            opt.step(params.flat, grad)

            window.append(loss)
            if (step + 1) % 100 == 0:
                curve.append((step + 1, float(np.mean(window))))
                window = []
    if window:
        curve.append((config.steps, float(np.mean(window))))
    return params.copy(), curve
