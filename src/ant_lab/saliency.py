"""Concept-specific saliency masks over the flat parameter vector.

One map per (prompt context, seed): threshold the absolute gradient of the
erasure loss at its q-quantile, keep the top coordinates.  Intersecting the
maps across contexts and seeds yields the definitive mask; the active count
shrinks monotonically and flattens out as maps accumulate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .finetune import AntLossConfig, ant_loss

__all__ = [
    "SaliencyMask",
    "SaliencyConfig",
    "single_map",
    "build_concept_mask",
    "save_mask",
    "load_mask",
]

log = logging.getLogger(__name__)


class DegenerateMapError(RuntimeError):
    pass


@dataclass
class SaliencyMask:
    bits: np.ndarray  # bool, aligned with ModelParams.flat
    meta: dict = field(default_factory=dict)

    @property
    def active(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __len__(self):
        return len(self.bits)


@dataclass(frozen=True)
class SaliencyConfig:
    n_prompts: int = 20
    n_seeds: int = 5
    quantile: float = 0.95  # keep |grad| at or above this quantile per map

    def __post_init__(self):
        if self.n_prompts * self.n_seeds < 1:
            raise ValueError("need at least one (prompt, seed) pair")
        if not 0 < self.quantile < 1:
            raise ValueError("quantile must be in (0, 1)")


def single_map(net, params, frozen, target_concept: int, prompt_context: int,
               seed: int, loss_cfg: AntLossConfig, schedule,
               quantile: float = 0.95) -> SaliencyMask:
    if not 0 <= prompt_context <= net.config.null_context:
        raise ValueError(f"context {prompt_context} out of vocabulary")
    rng = np.random.default_rng(seed)
    _, grad, _, _, _ = ant_loss(net, params, frozen, (target_concept, prompt_context),
                                loss_cfg, rng, schedule)
    g = np.abs(grad)
    if not np.any(g > 0):
        raise DegenerateMapError("all-zero gradient: saliency map is undefined")
    gamma = float(np.quantile(g, quantile))
    return SaliencyMask(g >= gamma, {"n_maps_intersected": 1,
                                     "gamma_rule": f"quantile q={quantile}"})


def build_concept_mask(net, params, frozen, target_concept: int, cfg: SaliencyConfig,
                       loss_cfg: AntLossConfig, schedule, base_seed: int = 0):
    """Intersect n_prompts x n_seeds maps; returns (mask, active-count curve).

    The curve lists (n_maps, active_params) after each intersection.  An empty
    intersection falls back, with a logged warning, to the union of all
    per-map top sets rather than a silent all-zeros mask.
    """
    if net.config.n_contexts < cfg.n_prompts:
        raise ValueError(f"need >= {cfg.n_prompts} contexts, have {net.config.n_contexts}")
    running = None
    union = None
    curve = []
    for i in range(cfg.n_prompts):
        for j in range(cfg.n_seeds):
            m = single_map(net, params, frozen, target_concept, i,
                           base_seed + i * cfg.n_seeds + j, loss_cfg, schedule,
                           cfg.quantile)
            running = m.bits.copy() if running is None else (running & m.bits)
            union = m.bits.copy() if union is None else (union | m.bits)
            curve.append((len(curve) + 1, int(np.count_nonzero(running))))
    meta = {"n_maps_intersected": len(curve), "gamma_rule": m.meta["gamma_rule"]}
    if not np.any(running):
        log.warning("empty saliency intersection; falling back to the union of per-map top sets")
        meta["fallback"] = "union"
        return SaliencyMask(union, meta), curve
    return SaliencyMask(running, meta), curve


def save_mask(mask: SaliencyMask, path) -> None:
    """Run-length encoding: alternating run lengths, starting with a 0-run."""
    bits = mask.bits.astype(np.int8)
    edges = np.flatnonzero(np.diff(bits)) + 1
    bounds = np.concatenate([[0], edges, [len(bits)]])
    runs = np.diff(bounds)
    first = int(bits[0]) if len(bits) else 0
    if first == 1:  # normalize to start with a zero run
        runs = np.concatenate([[0], runs])
    with open(path, "w") as f:
        fallback = f" fallback={mask.meta['fallback']}" if "fallback" in mask.meta else ""
        f.write(f"# saliency mask v1 length={len(bits)} active={mask.active}{fallback}\n")
        f.write(f"# n_maps={mask.meta.get('n_maps_intersected', 0)} "
                f"gamma_rule={mask.meta.get('gamma_rule', '')}\n")
        f.write(" ".join(str(int(r)) for r in runs) + "\n")


def load_mask(path) -> SaliencyMask:
    """Read a mask written by save_mask; a malformed file raises ValueError naming it."""
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n"):
        raise ValueError(f"saliency mask {path} does not end in a newline (truncated)")
    first, *rest = text.splitlines()
    header = dict(tok.split("=", 1) for tok in first.split() if "=" in tok)
    body = [ln for ln in rest if not ln.startswith("#")]
    try:
        length = int(header["length"])
        runs = [int(tok) for tok in body[0].split()]
    except (KeyError, IndexError, ValueError) as e:
        raise ValueError(f"malformed saliency mask {path}: {e!r}") from None
    if sum(runs) != length or any(r < 0 for r in runs):
        raise ValueError(f"saliency mask {path}: runs cover {sum(runs)} entries, "
                         f"header says length={length}")
    bits = np.zeros(length, dtype=bool)
    pos, val = 0, False
    for r in runs:
        bits[pos:pos + r] = val
        pos += r
        val = not val
    return SaliencyMask(bits, {"fallback": header["fallback"]} if "fallback" in header else {})
