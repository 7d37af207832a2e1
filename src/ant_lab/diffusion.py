"""Noise schedule, DDIM sampling, and sign-reversed classifier-free guidance.

Guidance combines the unconditional and conditional noise predictions as
eps_u + s * sign * (eps_c - eps_u), where the sign flips from +1 to -1 once
the (descending) timestep drops to the reversal point t_prime.  t_prime is
expressed in training-timestep units (0..T); 0 disables reversal entirely.

`guided_ladder` is the one guided-DDIM loop.  It runs the rungs of the
inference ladder from `start` (default T; z is the state at that rung) down
to `stop` (default 0), ending with a partial step when `stop` falls between
two rungs; each rung makes one stacked [null; cond] net pass, or only the
conditional pass where the guidance weight s * sign is 1 and CFG gives the
conditional prediction.  `stop` may differ per row: a row leaves the ladder at
its own stop, and the ids may differ per row too.  The rungs' net passes share
one `work` dict, for what the net plans from the ladder's ids, and the arrays
they write live in an `arrays` dict that a caller may share across ladders.
`sample` runs it from z_T to t = 0, and the erasure latents
(`finetune.make_latents` and the teacher ladders of `finetune.ant_loss` and of
`finetune.chunked_losses`, which erasure and saliency share) run it down to
intermediate timesteps.
`sample_sweep` gives `sample`'s points for many reversal points at once:
above its t_prime every reversal point follows the t_prime = 0 trajectory, so
that shared trunk runs once and each t_prime resumes from it at its first rung
with t <= t_prime, on forked worker processes where `workers.fork_map` can,
each process on its copy of the trunk's work arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .net import check_ids
from .workers import fork_map

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
    "sample_sweep",
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


def infer_ladder(schedule: NoiseSchedule, n_infer_steps: int) -> np.ndarray:
    """Strictly decreasing timestep ladder T = t_0 > t_1 > ... > t_n = 0."""
    if n_infer_steps < 1:
        raise ValueError(f"n_infer_steps={n_infer_steps} must be >= 1")
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


def forward_noise(schedule: NoiseSchedule, x0, t, eps):
    """z_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps, for one t or one t per row of x0."""
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t > schedule.T):
        raise ValueError(f"t={t} outside 0..{schedule.T}")
    ab = schedule.alpha_bars[t][..., None]
    return np.sqrt(ab) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - ab) * np.asarray(eps, dtype=float)


def ddim_step(schedule: NoiseSchedule, z_t, t: int, t_next, eps_hat):
    """Deterministic (eta = 0) DDIM update from timestep t down to t_next, for
    one t_next or one per row of z_t."""
    t_next = np.asarray(t_next)
    if not (np.all(t > t_next) and np.all(t_next >= 0)):
        raise ValueError(f"need t > t_next >= 0, got t={t}, t_next={t_next}")
    ab_t = schedule.alpha_bars[t]
    ab_n = schedule.alpha_bars[t_next][..., None]
    if ab_t <= 0:
        raise FloatingPointError(f"degenerate schedule entry alpha_bar[{t}] = {ab_t}")
    z_t = np.asarray(z_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    x0_hat = (z_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_n) * x0_hat + np.sqrt(1.0 - ab_n) * eps_hat


def guided_ladder(net, params, schedule: NoiseSchedule, z, kid, cid, s: float,
                  t_prime: int, n_infer_steps: int, stop=0, trajectory=None,
                  start: int | None = None, arrays: dict | None = None):
    """Run guided DDIM on z from rung `start` down to `stop`; returns z at `stop`.

    z is the state at `start`, which must be a rung of the ladder (default T):
    rungs with t > start are skipped.  kid and cid are each one id that every
    row shares or one id per row of z.  Every rung predicts noise for all rows
    under the null condition and under (kid, cid) in one pass over the stacked
    rows (`net.forward_pair`), and combines the two with scale s and the
    reversal sign at t_prime; a rung whose weight s * sign is 1 runs the (kid,
    cid) pass alone (`net.forward_batch`), whose output that combination
    equals in exact arithmetic.  stop is one timestep or one per row of z.  The
    rows run in non-increasing stop order, per-row ids with them, so the rows
    still on the ladder are the tail of the stack; a rung that would pass a
    row's stop takes it there with a partial step, and the row leaves.  Per-row
    ids other in number than z's rows raise ValueError, and any id outside the
    net's vocabulary VocabularyError, before any rung, whatever the rows' stops.
    The result is in z's row order.  z after each rung is appended to the
    `trajectory` list when one is given.

    The rungs' passes share one work dict: the net plans the ladder's
    conditions there on the first pass, and writes every pass's (rows, hidden)
    arrays into `arrays`, a dict that a caller running many ladders passes to
    each so that they reuse one set (one thread's ladders at a time).  The plan
    is the ladder's own, so no ladder sees another's ids.
    """
    ladder = infer_ladder(schedule, n_infer_steps)
    if start is not None:
        if start not in ladder:
            raise ValueError(f"start={start} is not a rung of the {n_infer_steps}-step ladder")
        ladder = ladder[ladder <= start]
    for i in (kid, cid):
        if np.ndim(i) != 0 and len(i) != len(z):
            raise ValueError(f"{len(i)} per-row ids for {len(z)} rows")
    stops = np.broadcast_to(np.asarray(stop, dtype=int), (len(z),))
    order = np.argsort(-stops, kind="stable")
    back = np.argsort(order)
    z, stops = np.array(z, dtype=float)[order], stops[order]
    ids = [i if np.ndim(i) == 0 else np.asarray(i)[order] for i in (kid, cid)]
    check_ids(net.config, *ids)  # every row's, also those that reach no pass
    # this ladder's condition plan, and the caller's arrays, kept across the rungs
    work = {"arrays": {} if arrays is None else arrays}
    for t, t_next in zip(ladder[:-1], ladder[1:]):
        left = int(np.count_nonzero(stops >= t))
        if left == len(z):
            break
        rows = z[left:]
        kids, cids = (i if np.ndim(i) == 0 else i[left:] for i in ids)
        sign = sgn_schedule(int(t), t_prime)
        if s * sign == 1:  # eps_u + 1 * (eps_c - eps_u) is eps_c: no null pass
            eps_hat = net.forward_batch(params, rows, t / schedule.T, kids, cids, work=work)
        else:
            eps_u, eps_c = net.forward_pair(params, rows, t / schedule.T, kids, cids, work=work)
            eps_hat = cfg_combine(eps_u, eps_c, s, sign)
        to = np.maximum(stops[left:], t_next)
        rows[...] = ddim_step(schedule, rows, int(t), to, eps_hat)
        if not np.all(np.isfinite(rows)):
            raise SampleDivergedError(f"non-finite sample values at timestep {to[-1]}")
        if trajectory is not None:
            trajectory.append(z[back])
    return z[back]


def sample(net, params, schedule: NoiseSchedule, guidance: GuidanceSpec, cond,
           n: int, seed: int, record_trajectory: bool = False, arrays: dict | None = None):
    """Sample n points along the DDIM ladder with (possibly reversed) CFG.

    cond is (concept id | None, context id | None); returns (n, 2) points, and
    with record_trajectory also a (n_steps+1, n, 2) array of intermediate z.
    `arrays` is guided_ladder's.
    """
    z, kid, cid = _prior(net, cond, n, seed)
    traj = [z.copy()] if record_trajectory else None
    z = guided_ladder(net, params, schedule, z, kid, cid, guidance.s,
                      guidance.t_prime, guidance.n_infer_steps, trajectory=traj,
                      arrays=arrays)
    if record_trajectory:
        return z, np.stack(traj)
    return z


def sample_sweep(net, params, schedule: NoiseSchedule, guidance: GuidanceSpec, cond,
                 n: int, seed: int, t_primes) -> list:
    """`sample` with guidance's t_prime replaced by each entry of t_primes.

    Returns one (n, 2) array per entry, in order, each bit-identical to that
    `sample` call.  Rungs with t > t_prime take the +1 sign whatever t_prime
    is, so the t_prime = 0 trunk runs once, down to the deepest rung any entry
    branches from, and each entry resumes from z at its first rung with
    t <= t_prime.  The branches run through `workers.fork_map`, on forked
    worker processes where it can; the trunk and every branch of one process
    run on one set of work arrays (guided_ladder's `arrays`).
    """
    specs = [replace(guidance, t_prime=int(tp)) for tp in t_primes]
    if not specs:
        raise ValueError("t_primes is empty")
    ladder = infer_ladder(schedule, guidance.n_infer_steps)
    branch = [int(np.argmax(ladder <= g.t_prime)) for g in specs]  # ladder ends at 0
    z, kid, cid = _prior(net, cond, n, seed)
    arrays = {}
    trunk = [z]
    guided_ladder(net, params, schedule, z, kid, cid, guidance.s, 0, guidance.n_infer_steps,
                  stop=int(ladder[max(branch)]), trajectory=trunk, arrays=arrays)

    def resume(entry):
        g, i = entry
        return guided_ladder(net, params, schedule, trunk[i], kid, cid, g.s, g.t_prime,
                             g.n_infer_steps, start=int(ladder[i]), arrays=arrays)

    return fork_map(resume, zip(specs, branch))


def _prior(net, cond, n: int, seed):
    """z_T drawn from `seed`, and cond's concept and context ids as two scalars
    (the null ids where cond holds None)."""
    cfg = net.config
    kid = cfg.null_concept if cond[0] is None else int(cond[0])
    cid = cfg.null_context if cond[1] is None else int(cond[1])
    return np.random.default_rng(seed).standard_normal((n, 2)), kid, cid
