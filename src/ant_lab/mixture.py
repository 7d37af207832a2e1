"""Labeled 2-D Gaussian mixture data with exact oracles.

Concepts sit at angular positions on concentric rings, contexts select the
ring radius.  Because the mixture is fully known we get an exact Bayes
classifier and log-density for free, which all evaluation leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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
        if K < 2 or C < 1:
            raise InvalidMixtureError(f"need n_concepts >= 2 and n_contexts >= 1, got K={K} C={C}")
        if not self.mode_std > 0:
            raise InvalidMixtureError(f"mode_std must be positive, got {self.mode_std}")
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
    seed: int

    def __post_init__(self):
        if np.any(self.concepts < 0) or np.any(self.concepts >= self.spec.n_concepts):
            raise InvalidMixtureError("concept label out of vocabulary")
        if np.any(self.contexts < 0) or np.any(self.contexts >= self.spec.n_contexts):
            raise InvalidMixtureError("context label out of vocabulary")

    def __len__(self):
        return len(self.points)


def make_mixture(n_concepts: int, n_contexts: int, radius_base: float, std: float) -> MixtureSpec:
    """Concept k at angle 2*pi*k/K, context c on ring radius_base*(1 + c/2)."""
    if n_concepts < 2:
        raise InvalidMixtureError(f"n_concepts must be >= 2, got {n_concepts}")
    if n_contexts < 1:
        raise InvalidMixtureError(f"n_contexts must be >= 1, got {n_contexts}")
    if not radius_base > 0:
        raise InvalidMixtureError(f"radius_base must be positive, got {radius_base}")
    if not std > 0:
        raise InvalidMixtureError(f"std must be positive, got {std}")
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
    if n < 1:
        raise InvalidMixtureError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    K, C = spec.n_concepts, spec.n_contexts
    flat_idx = rng.choice(K * C, size=n, p=spec.mode_weights.reshape(-1))
    concepts = flat_idx // C
    contexts = flat_idx % C
    centers = spec.mode_centers[concepts, contexts]
    points = centers + spec.mode_std * rng.standard_normal((n, 2))
    return Dataset(points, concepts, contexts, spec, seed)


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


def log_density_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact mixture log-density at each point of x (..., 2)."""
    terms = _per_mode_log_terms(spec, np.asarray(x, dtype=float))
    return logsumexp(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)


def bayes_classify_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """argmax_k p(concept | x) per point, contexts marginalized; ties go to the lowest id."""
    terms = _per_mode_log_terms(spec, np.asarray(x, dtype=float))
    per_concept = logsumexp(terms, axis=-1)  # (..., K)
    return np.argmax(per_concept, axis=-1)


def save_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w") as f:
        f.write("x,y,concept,context\n")
        for p, k, c in zip(ds.points, ds.concepts, ds.contexts):
            f.write(f"{p[0]:.17g},{p[1]:.17g},{k},{c}\n")


def load_dataset_csv(path, spec: MixtureSpec, seed: int = -1) -> Dataset:
    """Read a dataset written by save_dataset_csv; a malformed or truncated
    file raises ValueError naming it."""
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n"):
        raise ValueError(f"dataset {path} does not end in a newline (truncated)")
    header, *lines = text.splitlines()
    if header != "x,y,concept,context" or not lines:
        raise ValueError(f"dataset {path}: expected the header x,y,concept,context "
                         "and at least one row")
    points = np.empty((len(lines), 2))
    labels = np.empty((len(lines), 2), dtype=int)
    for i, line in enumerate(lines):
        try:
            x, y, k, c = line.split(",")
            points[i] = float(x), float(y)
            labels[i] = int(k), int(c)
        except ValueError as e:
            raise ValueError(f"dataset {path}, line {i + 2}: {e}") from None
    if not np.all(np.isfinite(points)):
        raise ValueError(f"dataset {path} holds a non-finite point")
    try:
        return Dataset(points, labels[:, 0].copy(), labels[:, 1].copy(), spec, seed)
    except InvalidMixtureError as e:
        raise ValueError(f"dataset {path}: {e}") from None
