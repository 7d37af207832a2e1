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

from .finetune import ABLATION_VARIANTS, AntLossConfig, ant_loss, chunked_losses
from .textfile import read_exact

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


def _top(grad, quantile: float) -> np.ndarray:
    """|grad| >= its q-quantile."""
    g = np.abs(grad)
    if not np.any(g > 0):
        raise DegenerateMapError("all-zero gradient: saliency map is undefined")
    return g >= float(np.quantile(g, quantile))


def single_map(net, params, frozen, target_concept: int, prompt_context: int,
               seed: int, loss_cfg: AntLossConfig, schedule,
               quantile: float = 0.95) -> SaliencyMask:
    if not 0 <= prompt_context <= net.config.null_context:
        raise ValueError(f"context {prompt_context} out of vocabulary")
    rng = np.random.default_rng(seed)
    _, grad, _, _, _ = ant_loss(net, params, frozen, (target_concept, prompt_context),
                                loss_cfg, rng, schedule)
    return SaliencyMask(_top(grad, quantile), {"n_maps_intersected": 1,
                                               "gamma_rule": f"quantile q={quantile}"})


def build_concept_mask(net, params, frozen, target_concept: int, cfg: SaliencyConfig,
                       loss_cfg: AntLossConfig, schedule, base_seed: int = 0):
    """Intersect n_prompts x n_seeds maps; returns (mask, active-count curve).

    Map (i, j) is `single_map` for context i and seed base_seed + i * n_seeds
    + j, bit for bit, but the maps share teacher ladders as erasure steps do
    (`finetune.chunked_losses`).  The curve lists (n_maps, active_params)
    after each intersection.  An empty intersection falls back, with a logged
    warning, to the union of all per-map top sets rather than a silent
    all-zeros mask.
    """
    if net.config.n_contexts < cfg.n_prompts:
        raise ValueError(f"need >= {cfg.n_prompts} contexts, have {net.config.n_contexts}")
    maps = [(i, np.random.default_rng(base_seed + i * cfg.n_seeds + j))
            for i in range(cfg.n_prompts) for j in range(cfg.n_seeds)]
    running = union = None
    curve = []
    for _, grad, *_ in chunked_losses(net, params, frozen, target_concept, maps, loss_cfg,
                                      schedule, ABLATION_VARIANTS["full"]):
        bits = _top(grad, cfg.quantile)
        running = bits if running is None else running & bits
        union = bits if union is None else union | bits
        curve.append((len(curve) + 1, int(np.count_nonzero(running))))
    meta = {"n_maps_intersected": len(curve), "gamma_rule": f"quantile q={cfg.quantile}"}
    if not np.any(running):
        log.warning("empty saliency intersection; falling back to the union of per-map top sets")
        meta["fallback"] = "union"
        return SaliencyMask(union, meta), curve
    return SaliencyMask(running, meta), curve


def _mask_text(mask: SaliencyMask) -> str:
    """A mask file's text: two header lines, then the run lengths, alternating and
    starting with a run of zeros."""
    fallback = f" fallback={mask.meta['fallback']}" if "fallback" in mask.meta else ""
    changes = np.flatnonzero(np.diff(mask.bits, prepend=False))  # where a run starts
    runs = np.diff(changes, prepend=0, append=len(mask))
    return (f"# saliency mask v1 length={len(mask)} active={mask.active}{fallback}\n"
            f"# n_maps={mask.meta.get('n_maps_intersected', 0)} "
            f"gamma_rule={mask.meta.get('gamma_rule', '')}\n"
            + " ".join(map(str, runs.tolist())) + "\n")


def save_mask(mask: SaliencyMask, path) -> None:
    with open(path, "w") as f:
        f.write(_mask_text(mask))


def load_mask(path) -> SaliencyMask:
    """Read a mask that save_mask wrote, by the rule of textfile.read_exact."""
    def parse(text) -> SaliencyMask:
        first, second, body, _ = text.split("\n")
        runs = np.array(body.split(), dtype=np.int64)
        bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs)  # a negative run raises
        n_maps, _, gamma_rule = second.removeprefix("# n_maps=").partition(" gamma_rule=")
        meta = {"n_maps_intersected": int(n_maps), "gamma_rule": gamma_rule}
        if fallback := first.partition(" fallback=")[2]:
            meta["fallback"] = fallback
        return SaliencyMask(bits, meta)

    return read_exact(path, "saliency mask", parse, _mask_text)
