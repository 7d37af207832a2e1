"""Labeled 2-D Gaussian mixture data with exact oracles.

Concepts sit at angular positions on concentric rings, contexts select the
ring radius.  Because the mixture is fully known we get an exact Bayes
classifier and log-density for free, which all evaluation leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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


def log_density_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact mixture log-density at each point of x (..., 2)."""
    terms = _per_mode_log_terms(spec, np.asarray(x, dtype=float))
    return logsumexp(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)


def bayes_classify_batch(spec: MixtureSpec, x: np.ndarray) -> np.ndarray:
    """argmax_k p(concept | x) per point, contexts marginalized; ties go to the lowest id."""
    terms = _per_mode_log_terms(spec, np.asarray(x, dtype=float))
    per_concept = logsumexp(terms, axis=-1)  # (..., K)
    return np.argmax(per_concept, axis=-1)


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
