"""Labeled 2-D Gaussian mixture data with exact oracles.

Concepts sit at angular positions on concentric rings, contexts select the
ring radius.  Because the mixture is fully known we get an exact Bayes
classifier and log-density for free, which all evaluation leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textfile import csv_text, read_exact

__all__ = [
    "MixtureSpec",
    "Dataset",
    "make_mixture",
    "sample_dataset",
    "bayes_classify_batch",
    "log_density_batch",
    "save_dataset_csv",
    "load_dataset_csv",
]


class InvalidMixtureError(ValueError):
    pass


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth mixture: centers[k, c] is the mode of (concept k, context c)."""

    n_concepts: int
    n_contexts: int
    mode_centers: np.ndarray  # (K, C, 2)
    mode_std: float
    mode_weights: np.ndarray  # (K, C), sums to 1

    def __post_init__(self):
        K, C = self.n_concepts, self.n_contexts
        if self.mode_centers.shape != (K, C, 2):
            raise InvalidMixtureError(f"mode_centers shape {self.mode_centers.shape} != {(K, C, 2)}")
        if self.mode_weights.shape != (K, C):
            raise InvalidMixtureError(f"mode_weights shape {self.mode_weights.shape} != {(K, C)}")
        if np.any(self.mode_weights < 0):
            raise InvalidMixtureError("mode weights must be nonnegative")
        if abs(float(self.mode_weights.sum()) - 1.0) > 1e-12:
            raise InvalidMixtureError(f"mode weights sum to {self.mode_weights.sum()}, expected 1")


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray  # (n, 2)
    concepts: np.ndarray  # (n,) int
    contexts: np.ndarray  # (n,) int
    spec: MixtureSpec

    def __post_init__(self):
        if np.any(self.concepts < 0) or np.any(self.concepts >= self.spec.n_concepts):
            raise InvalidMixtureError("concept label out of vocabulary")
        if np.any(self.contexts < 0) or np.any(self.contexts >= self.spec.n_contexts):
            raise InvalidMixtureError("context label out of vocabulary")

    def __len__(self):
        return len(self.points)


def make_mixture(n_concepts: int, n_contexts: int, radius_base: float, std: float) -> MixtureSpec:
    """Concept k at angle 2*pi*k/K, context c on ring radius_base*(1 + c/2)."""
    K, C = n_concepts, n_contexts
    theta = 2.0 * np.pi * np.arange(K) / K
    radii = radius_base * (1.0 + np.arange(C) / 2.0)
    centers = np.empty((K, C, 2))
    centers[:, :, 0] = np.cos(theta)[:, None] * radii[None, :]
    centers[:, :, 1] = np.sin(theta)[:, None] * radii[None, :]
    weights = np.full((K, C), 1.0 / (K * C))
    return MixtureSpec(K, C, centers, float(std), weights)


def sample_dataset(spec: MixtureSpec, n: int, seed: int) -> Dataset:
    """Mode-first sampling: pick a (concept, context) mode, then an isotropic Gaussian draw."""
    rng = np.random.default_rng(seed)
    K, C = spec.n_concepts, spec.n_contexts
    flat_idx = rng.choice(K * C, size=n, p=spec.mode_weights.reshape(-1))
    concepts = flat_idx // C
    contexts = flat_idx % C
    centers = spec.mode_centers[concepts, contexts]
    points = centers + spec.mode_std * rng.standard_normal((n, 2))
    return Dataset(points, concepts, contexts, spec)


def _per_mode_log_terms(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """log(w_kc * N(x; mu_kc, sigma^2 I)) for every mode; x is (..., 2), out (..., K, C)."""
    var = spec.mode_std**2
    with np.errstate(divide="ignore"):
        logw = np.where(spec.mode_weights > 0, np.log(np.maximum(spec.mode_weights, 1e-300)), -np.inf)
    dx = x[..., 0, None, None] - spec.mode_centers[:, :, 0]  # (..., K, C)
    dy = x[..., 1, None, None] - spec.mode_centers[:, :, 1]
    # logw - log(2 pi var) - (dx*dx + dy*dy) / (2 var), computed in place on dx
    dx *= dx
    dy *= dy
    dx += dy
    dx /= 2.0 * var
    return np.subtract(logw - np.log(2.0 * np.pi * var), dx, out=dx)


# Points per block of the oracles, whose (block, K, C) mode terms are made and
# freed in turn.  The 100,000-point off-manifold draw, default mixture, shared
# 2-core Xeon, five draws in one process (min time, minor faults, peak RSS
# rise): one block 87 ms (first draw 141 ms), 24.8 k, +121.3 MB; blocks of 256
# 124 ms, 5.5 k, +6.8 MB; 1,024 69-87 ms, 5.5 k, +6.7-6.9 MB; 4,096 87 ms,
# 95 k, +9.9 MB; 16,384 137 ms, 146 k, +24.7 MB.
ORACLE_BLOCK = 1024


def _blocked(spec: MixtureSpec, x, reduce, dtype) -> np.ndarray:
    """reduce(mode terms) for each point of x (..., 2), taken ORACLE_BLOCK points
    at a time: each point's value comes from the same operations on its own terms."""
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, 2)
    out = np.empty(len(points), dtype)
    for i in range(0, len(points), ORACLE_BLOCK):
        out[i:i + ORACLE_BLOCK] = reduce(_per_mode_log_terms(spec, points[i:i + ORACLE_BLOCK]))
    return out.reshape(x.shape[:-1])[()]


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, in the float order of SciPy 1.17.1's
    real-valued `scipy.special.logsumexp`, so that every oracle value keeps its
    bits: the maxima, counted in m, are taken out of the sum, the result is
    log1p(s / m) + log(m) + max, and log(sum(exp(a))) stands where that is not
    finite (an all -inf row, or a nan)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=-1, keepdims=True, dtype=a.dtype)
        e = np.exp(np.where(at_max, -np.inf, a) - a_max)
        s = np.sum(e, axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=-1))
    return out


def _log_density(terms):
    return _logsumexp(terms.reshape(len(terms), -1))


def _bayes_class(terms):
    return np.argmax(_logsumexp(terms), axis=-1)  # per concept, over contexts


def log_density_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact mixture log-density at each point of x (..., 2)."""
    return _blocked(spec, x, _log_density, float)


def bayes_classify_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """argmax_k p(concept | x) per point, contexts marginalized; ties go to the lowest id."""
    return _blocked(spec, x, _bayes_class, np.intp)


def _dataset_text(ds: Dataset) -> str:
    columns = (*ds.points.T.tolist(), ds.concepts.tolist(), ds.contexts.tolist())
    return csv_text(("x", "y", "concept", "context"), zip(*columns), "%.17g,%.17g,%d,%d")


def save_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w") as f:
        f.write(_dataset_text(ds))


def load_dataset_csv(path, spec: MixtureSpec) -> Dataset:
    """Read a dataset that save_dataset_csv wrote, by the rule of textfile.read_exact."""
    def parse(text):
        # the cells after the header, row by row; a row of another width misaligns them
        cells = text.partition("\n")[2].replace("\n", ",").split(",")[:-1]
        points = np.ascontiguousarray(np.array([cells[0::4], cells[1::4]], dtype=float).T)
        labels = np.array([cells[2::4], cells[3::4]], dtype=np.int64)
        # a round trip cannot reject nan or a file without rows; Dataset checks the labels
        if not len(points) or not np.all(np.isfinite(points)):
            raise ValueError("no rows, or a non-finite point")
        return Dataset(points, labels[0], labels[1], spec)

    return read_exact(path, "dataset", parse, _dataset_text)
