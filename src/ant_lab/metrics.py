"""Erasure/preservation metrics against the exact mixture oracles.

The Bayes classifier plays the detector, a closed-form 2-Wasserstein distance
between fitted Gaussians plays the FID stand-in, and the off-manifold
fraction (log-density below a data-calibrated percentile) quantifies samples
that left the data manifold.  W2 and off-manifold are stand-ins, not
reproductions of any image-space metric.

`evaluate` and `accuracy` sample each concept from its own seed, so the
concepts are independent: they run through `workers.fork_map`, which gives
them to forked worker processes, one per CPU this process may use (at most one
per concept), where the process has no other thread, and runs them one after
another otherwise.  The points, and so every report and artifact, are
byte-identical either way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import diffusion
from .mixture import MixtureSpec, bayes_classify_batch, log_density_batch, sample_dataset
from .workers import fork_map

__all__ = [
    "EvalReport",
    "accuracy",
    "harmonic_mean_hc",
    "off_manifold_fraction",
    "off_manifold_threshold",
    "w2_gaussian",
    "evaluate",
]

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    per_concept_acc: dict
    acc_e: float
    acc_p: float
    h_c: float
    off_manifold_frac: float
    w2_per_preserved: dict
    erased: list = field(default_factory=list)


def _concept_samples(net, params, schedule, guidance, concepts, n: int, seed: int) -> dict:
    """n conditional samples per concept, each drawn from SeedSequence([seed, k]).

    A failing concept raises as a loop over `concepts` would: no concept that
    has not started when it fails starts afterwards, and the error raised is
    the first in concept order.  Each process runs its concepts' ladders on
    one set of work arrays.
    """
    arrays = {}  # each worker process fills its own copy

    def draw(k):
        return diffusion.sample(net, params, schedule, guidance, (k, None), n,
                                np.random.SeedSequence([seed, k]), arrays=arrays)

    return dict(zip(concepts, fork_map(draw, concepts)))


def _hit_rates(oracle: MixtureSpec, samples: dict) -> dict:
    return {k: float(np.mean(bayes_classify_batch(oracle, pts) == k))
            for k, pts in samples.items()}


def accuracy(net, params, schedule, guidance, concepts, n: int, seed: int,
             oracle: MixtureSpec):
    """Per-concept fraction of n conditional samples the Bayes oracle returns as
    the conditioning concept.  Deterministic per (seed, concept)."""
    return _hit_rates(oracle, _concept_samples(net, params, schedule, guidance, concepts,
                                               n, seed))


def harmonic_mean_hc(acc_e: float, acc_p: float) -> float:
    """Harmonic mean of erasure success (1 - acc_e) and preservation acc_p.

    Carries the conventional factor 2, which is what reproduces the reference
    values this score is calibrated against.
    """
    if not 0 <= acc_e <= 1 or not 0 <= acc_p <= 1:
        raise ValueError("accuracies must lie in [0, 1]")
    if acc_e >= 1.0 or acc_p <= 0.0:
        return 0.0
    return 2.0 / (1.0 / (1.0 - acc_e) + 1.0 / acc_p)


def off_manifold_threshold(oracle: MixtureSpec) -> float:
    """Log-density threshold: the 1st percentile of the oracle log-density over a
    fixed draw of 100,000 oracle points (seed 12345).  Depends on the oracle alone."""
    ds = sample_dataset(oracle, 100_000, 12345)
    return float(np.percentile(log_density_batch(oracle, ds.points), 1.0))


def off_manifold_fraction(samples, oracle: MixtureSpec, threshold: float) -> float:
    """Fraction of samples whose oracle log-density lies below threshold."""
    ld = log_density_batch(oracle, np.asarray(samples, dtype=float))
    return float(np.mean(ld < threshold))


def _sqrtm_2x2(m: np.ndarray) -> np.ndarray:
    # principal square root of a 2x2 SPD matrix
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    s = np.sqrt(max(det, 0.0))
    tr = m[0, 0] + m[1, 1]
    denom = np.sqrt(tr + 2.0 * s)
    if denom == 0.0:
        return np.zeros((2, 2))
    return (m + s * np.eye(2)) / denom


def _fit_gaussian(x: np.ndarray):
    mu = x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    if np.linalg.det(cov) <= 0 or not np.all(np.isfinite(cov)):
        log.warning("degenerate sample covariance; adding 1e-9 jitter")
        cov = cov + 1e-9 * np.eye(2)
    return mu, cov


def w2_gaussian(samples_a, samples_b) -> float:
    """Squared 2-Wasserstein distance between Gaussians fitted to each set."""
    a = np.atleast_2d(np.asarray(samples_a, dtype=float))
    b = np.atleast_2d(np.asarray(samples_b, dtype=float))
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least 2 samples on each side")
    mu1, s1 = _fit_gaussian(a)
    mu2, s2 = _fit_gaussian(b)
    r2 = _sqrtm_2x2(s2)
    cross = _sqrtm_2x2(r2 @ s1 @ r2)
    val = float(np.sum((mu1 - mu2) ** 2) + np.trace(s1 + s2 - 2.0 * cross))
    return max(val, 0.0)


def evaluate(net, params, schedule, guidance, oracle: MixtureSpec, erased,
             threshold: float, n: int = 1000, seed: int = 0) -> EvalReport:
    """Full report: per-concept accuracy, Acc_e/Acc_p aggregates, H_c,
    off-manifold fraction over all samples, and per-preserved-concept W2
    against oracle draws restricted to that concept.  Each concept is sampled
    once, and those points feed all three.  `threshold` is the oracle's
    off_manifold_threshold, which depends on the oracle alone: a caller that
    evaluates often computes it once (the CLI keeps it in oracle_threshold.txt)."""
    concepts = list(range(net.config.n_concepts))
    samples = _concept_samples(net, params, schedule, guidance, concepts, n, seed)
    accs = _hit_rates(oracle, samples)
    erased = list(erased)
    preserved = [k for k in concepts if k not in erased]
    acc_e = float(np.mean([accs[k] for k in erased])) if erased else 0.0
    acc_p = float(np.mean([accs[k] for k in preserved])) if preserved else 0.0

    w2s = {}
    ref = sample_dataset(oracle, max(n, 2000), 54321)
    for k in preserved:
        ref_k = ref.points[ref.concepts == k]
        if len(ref_k) >= 2:
            w2s[k] = w2_gaussian(samples[k], ref_k)
    off = off_manifold_fraction(np.concatenate(list(samples.values())), oracle, threshold)
    return EvalReport(accs, acc_e, acc_p, harmonic_mean_hc(acc_e, acc_p), off, w2s, erased)
