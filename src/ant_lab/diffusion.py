"""Noise schedule, DDIM sampling, and sign-reversed classifier-free guidance.

Guidance combines the unconditional and conditional noise predictions as
eps_u + s * sign * (eps_c - eps_u), where the sign flips from +1 to -1 once
the (descending) timestep drops to the reversal point t_prime.  t_prime is
expressed in training-timestep units (0..T); 0 disables reversal entirely.

`guided_ladder` is the one guided-DDIM loop: `sample` runs it from z_T to
t = 0, and the erasure latents (`finetune.make_latents`) run it down to an
intermediate timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSchedule",
    "GuidanceSpec",
    "make_schedule",
    "infer_ladder",
    "sgn_schedule",
    "cfg_combine",
    "forward_noise",
    "ddim_step",
    "guided_ladder",
    "sample",
]


class SampleDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    betas: np.ndarray       # (T+1,), betas[0] unused (= 0)
    alpha_bars: np.ndarray  # (T+1,), alpha_bars[0] = 1

    def __post_init__(self):
        b = self.betas[1:]
        if not (np.all(b > 0) and np.all(b < 1) and np.all(np.diff(b) > 0)):
            raise ValueError("betas must be strictly increasing in (0, 1)")
        if self.alpha_bars[0] != 1.0 or np.any(np.diff(self.alpha_bars) >= 0):
            raise ValueError("alpha_bars must start at 1 and strictly decrease")


def make_schedule(T: int = 100, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    betas = np.zeros(T + 1)
    betas[1:] = np.linspace(beta_min, beta_max, T)
    alpha_bars = np.concatenate([[1.0], np.cumprod(1.0 - betas[1:])])
    return NoiseSchedule(T, betas, alpha_bars)


@dataclass(frozen=True)
class GuidanceSpec:
    s: float = 3.0
    t_prime: int = 0
    n_infer_steps: int = 50

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("guidance scale must be >= 0")
        if self.t_prime < 0:
            raise ValueError("t_prime must be >= 0")
        if self.n_infer_steps < 1:
            raise ValueError("n_infer_steps must be >= 1")


def infer_ladder(schedule: NoiseSchedule, n_infer_steps: int) -> np.ndarray:
    """Strictly decreasing timestep ladder T = t_0 > t_1 > ... > t_n = 0."""
    ladder = np.round(np.linspace(schedule.T, 0, n_infer_steps + 1)).astype(int)
    if np.any(np.diff(ladder) >= 0):
        raise ValueError(f"n_infer_steps={n_infer_steps} does not give a strictly decreasing ladder")
    return ladder


def sgn_schedule(t: int, t_prime: int) -> int:
    return 1 if t > t_prime else -1


def cfg_combine(eps_uncond, eps_cond, s: float, sign: int):
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    eps_cond = np.asarray(eps_cond, dtype=float)
    return eps_uncond + s * sign * (eps_cond - eps_uncond)


def forward_noise(schedule: NoiseSchedule, x0, t: int, eps):
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t={t} outside 0..{schedule.T}")
    ab = schedule.alpha_bars[t]
    return np.sqrt(ab) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - ab) * np.asarray(eps, dtype=float)


def ddim_step(schedule: NoiseSchedule, z_t, t: int, t_next: int, eps_hat):
    """Deterministic (eta = 0) DDIM update from timestep t down to t_next."""
    if not t > t_next >= 0:
        raise ValueError(f"need t > t_next >= 0, got t={t}, t_next={t_next}")
    ab_t = schedule.alpha_bars[t]
    ab_n = schedule.alpha_bars[t_next]
    if ab_t <= 0:
        raise FloatingPointError(f"degenerate schedule entry alpha_bar[{t}] = {ab_t}")
    z_t = np.asarray(z_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    x0_hat = (z_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_n) * x0_hat + np.sqrt(1.0 - ab_n) * eps_hat


def guided_ladder(net, params, schedule: NoiseSchedule, z, kids, cids, s: float,
                  t_prime: int, n_infer_steps: int, stop: int = 0, adapter=None,
                  trajectory=None):
    """Run guided DDIM on z from t = T down to `stop`; returns z at `stop`.

    Every rung predicts noise for the null rows, then for the (kids, cids)
    rows, and combines the two with scale s and the reversal sign at t_prime.
    A rung that would pass `stop` ends there with a partial step.  z after
    each rung is appended to the `trajectory` list when one is given.
    """
    null_k = np.full(len(z), net.config.null_concept)
    null_c = np.full(len(z), net.config.null_context)
    ladder = infer_ladder(schedule, n_infer_steps)
    for t, t_next in zip(ladder[:-1], ladder[1:]):
        if t <= stop:
            break
        t_next = max(int(t_next), stop)
        t_norm = t / schedule.T
        eps_u = net.forward_batch(params, z, t_norm, null_k, null_c, adapter)
        eps_c = net.forward_batch(params, z, t_norm, kids, cids, adapter)
        eps_hat = cfg_combine(eps_u, eps_c, s, sgn_schedule(int(t), t_prime))
        z = ddim_step(schedule, z, int(t), t_next, eps_hat)
        if not np.all(np.isfinite(z)):
            raise SampleDivergedError(f"non-finite sample values at timestep {t_next}")
        if trajectory is not None:
            trajectory.append(z.copy())
    return z


def sample(net, params, schedule: NoiseSchedule, guidance: GuidanceSpec, cond,
           n: int, seed: int, record_trajectory: bool = False, adapter=None):
    """Sample n points along the DDIM ladder with (possibly reversed) CFG.

    cond is (concept id | None, context id | None); returns (n, 2) points, and
    with record_trajectory also a (n_steps+1, n, 2) array of intermediate z.
    """
    cfg = net.config
    kid = cfg.null_concept if cond[0] is None else int(cond[0])
    cid = cfg.null_context if cond[1] is None else int(cond[1])
    z = np.random.default_rng(seed).standard_normal((n, 2))
    traj = [z.copy()] if record_trajectory else None
    z = guided_ladder(net, params, schedule, z, np.full(n, kid), np.full(n, cid), guidance.s,
                      guidance.t_prime, guidance.n_infer_steps, adapter=adapter,
                      trajectory=traj)
    if record_trajectory:
        return z, np.stack(traj)
    return z
