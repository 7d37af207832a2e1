"""Per-concept LoRA training and closed-form multi-adapter fusion.

Each erased concept gets its own low-rank adapter on the condition-projection
matrix, trained with the trajectory-aware loss while the base stays frozen.
Fusing solves the ridge-regularized least squares

    min_W* sum_i sum_j ||W* e_ij^f - (W + dW_i) e_ij^f||^2
         + beta * sum_j ||W* e_j^p - W e_j^p||^2

whose solution is W* = A B^{-1} with Gram matrices accumulated over the
target and preservation embeddings; the system is solved symmetrically,
never by explicit inversion.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .finetune import AntLossConfig, erase_single
from .net import LoraAdapter, ModelParams, ScoreNet

__all__ = [
    "FusionProblem",
    "RankDeficiencyError",
    "train_concept_lora",
    "fuse",
    "fusion_objective",
    "erase_multi",
    "save_adapter",
    "load_adapter",
]

log = logging.getLogger(__name__)


class RankDeficiencyError(np.linalg.LinAlgError):
    pass


@dataclass
class FusionProblem:
    W: np.ndarray                 # (h, d_e) base matrix
    deltas: list                  # q matrices (h, d_e)
    target_embeddings: list       # q lists of d_e-vectors (targets of delta i)
    preserve_embeddings: list     # m d_e-vectors
    beta: float = 0.1

    def __post_init__(self):
        if len(self.deltas) != len(self.target_embeddings):
            raise ValueError("one target-embedding list per delta required")
        h, d = self.W.shape
        for dw in self.deltas:
            if dw.shape != (h, d):
                raise ValueError("delta shape mismatch")
        for group in self.target_embeddings:
            if len(group) < 1:
                raise ValueError("every concept needs at least one target embedding")


def fusion_objective(problem: FusionProblem, W_star: np.ndarray) -> float:
    val = 0.0
    for dw, group in zip(problem.deltas, problem.target_embeddings):
        tgt = problem.W + dw
        for e in group:
            r = (W_star - tgt) @ e
            val += float(r @ r)
    for e in problem.preserve_embeddings:
        r = (W_star - problem.W) @ e
        val += problem.beta * float(r @ r)
    return val


def fuse(problem: FusionProblem) -> np.ndarray:
    """Closed-form minimizer of the fusion objective, solved as an SPD system."""
    d = problem.W.shape[1]
    B = np.zeros((d, d))
    A = np.zeros_like(problem.W)
    for dw, group in zip(problem.deltas, problem.target_embeddings):
        E = np.asarray(group, dtype=float)  # (p_i, d)
        G = E.T @ E
        B += G
        A += (problem.W + dw) @ G
    if problem.preserve_embeddings:
        E = np.asarray(problem.preserve_embeddings, dtype=float)
        G = problem.beta * (E.T @ E)
        B += G
        A += problem.W @ G

    eigs = np.linalg.eigvalsh(B)
    if problem.beta == 0.0 and (eigs[-1] <= 0 or eigs[0] <= 1e-12 * eigs[-1]):
        raise RankDeficiencyError(
            "target embeddings do not span the embedding space: Gram matrix is "
            f"rank deficient (eigenvalue range {eigs[0]:.3g}..{eigs[-1]:.3g}) and "
            "beta = 0 provides no preservation anchor")

    jitter = 0.0
    base_jitter = 1e-10 * np.trace(B) / d
    for attempt in range(4):
        try:
            c, low = cho_factor(B + jitter * np.eye(d), lower=True)
            return cho_solve((c, low), A.T).T
        except np.linalg.LinAlgError:
            jitter = base_jitter * (10.0 ** attempt) if base_jitter > 0 else 10.0 ** (attempt - 12)
            log.warning("fusion Gram matrix numerically singular; adding jitter %g", jitter)
    raise RankDeficiencyError(
        "fusion Gram matrix stayed rank deficient after jitter escalation")


def train_concept_lora(net: ScoreNet, pretrained: ModelParams, concept: int,
                       cfg: AntLossConfig, schedule, rank: int = 4) -> LoraAdapter:
    """Train one zero-initialized adapter with the erasure loss; base untouched."""
    adapter = net.init_lora(rank, seed=int(np.random.SeedSequence([cfg.seed, concept]).generate_state(1)[0]))
    cfg_k = dataclasses.replace(cfg, seed=cfg.seed + 1000 * (concept + 1))
    erase_single(net, pretrained, concept, cfg_k, schedule, adapter=adapter)
    return adapter


def concept_target_embeddings(net: ScoreNet, params: ModelParams, concept: int):
    """Condition embeddings of the concept in every context, plus context-null."""
    ce = params.view("concept_emb")
    xe = params.view("context_emb")
    return [ce[concept] + xe[c] for c in range(net.config.n_contexts + 1)]


def erase_multi(net: ScoreNet, pretrained: ModelParams, concepts, cfg: AntLossConfig,
                schedule, beta: float = 0.1, rank: int = 4):
    """Train one LoRA per concept, fuse into the condition projection.

    Returns (fused params, adapters dict, fusion problem).  Preservation
    embeddings are every non-erased concept's context combinations plus the
    pure null condition.
    """
    concepts = list(concepts)
    adapters = {k: train_concept_lora(net, pretrained, k, cfg, schedule, rank)
                for k in concepts}

    targets = [concept_target_embeddings(net, pretrained, k) for k in concepts]
    preserve = [e for k in range(net.config.n_concepts) if k not in concepts
                for e in concept_target_embeddings(net, pretrained, k)]
    preserve.append(pretrained.view("concept_emb")[net.config.null_concept]
                    + pretrained.view("context_emb")[net.config.null_context])

    problem = FusionProblem(pretrained.view("w_cond").copy(),
                            [adapters[k].delta() for k in concepts],
                            targets, preserve, beta)
    w_star = fuse(problem)
    fused = pretrained.copy()
    fused.view("w_cond")[...] = w_star
    return fused, adapters, problem


def save_adapter(adapter: LoraAdapter, concept: int, path) -> None:
    with open(path, "w") as f:
        f.write(f"# lora adapter concept={concept} rank={adapter.rank} "
                f"down={adapter.down.shape[0]}x{adapter.down.shape[1]} "
                f"up={adapter.up.shape[0]}x{adapter.up.shape[1]}\n")
        for row in adapter.down:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        for row in adapter.up:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_adapter(path) -> tuple[int, LoraAdapter]:
    """Read an adapter written by save_adapter; a malformed file, a header
    whose rank= is not the number of down rows, or a nan or inf value raises
    ValueError naming it."""
    with open(path) as f:
        text = f.read()
    if not text.endswith("\n"):
        raise ValueError(f"LoRA adapter {path} does not end in a newline (truncated)")
    header, *lines = text.splitlines()
    rows = [ln.split() for ln in lines if ln.strip()]
    try:
        fields = dict(tok.split("=", 1) for tok in header.lstrip("# ").split() if "=" in tok)
        r_down = tuple(int(x) for x in fields["down"].split("x"))
        r_up = tuple(int(x) for x in fields["up"].split("x"))
        concept, rank = int(fields["concept"]), int(fields["rank"])
        down = np.array([[float(v) for v in row] for row in rows[:r_down[0]]])
        up = np.array([[float(v) for v in row] for row in rows[r_down[0]:]])
    except (KeyError, ValueError) as e:
        raise ValueError(f"malformed LoRA adapter {path}: {e!r}") from None
    if down.shape != r_down or up.shape != r_up:
        raise ValueError(f"LoRA adapter {path}: read down {down.shape} and up {up.shape}, "
                         f"header says down={r_down} up={r_up}")
    if not rank == r_down[0] == r_up[1]:
        raise ValueError(f"LoRA adapter {path}: header says rank={rank}, but down has "
                         f"{r_down[0]} rows and up {r_up[1]} columns")
    if not (np.all(np.isfinite(down)) and np.all(np.isfinite(up))):
        raise ValueError(f"LoRA adapter {path} has non-finite values")
    return concept, LoraAdapter(np.concatenate([down.ravel(), up.ravel()]), r_down, r_up)
