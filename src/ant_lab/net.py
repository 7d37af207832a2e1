"""Conditional noise predictor: small MLP, flat parameter vector, exact gradients.

The network predicts the noise added to a 2-D point given the noisy point,
a normalized timestep, and a (concept, context) condition.  The condition
embedding (concept row + context row) enters the first hidden layer through a
dedicated projection matrix `w_cond`; a LoRA adapter, when present, adds a
low-rank delta to that one matrix.  Everything is float64 and backprop is
written out by hand so gradients line up exactly with the flat vector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetConfig",
    "ModelParams",
    "LoraAdapter",
    "ScoreNet",
    "clone_frozen",
    "checksum",
    "save_checkpoint",
    "load_checkpoint",
]


class VocabularyError(ValueError):
    pass


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


@dataclass(frozen=True)
class NetConfig:
    n_concepts: int
    n_contexts: int
    hidden_width: int = 128
    n_hidden_layers: int = 2
    time_embed_dim: int = 16
    cond_embed_dim: int = 8
    activation: str = "silu"

    def __post_init__(self):
        for name in ("n_concepts", "n_contexts", "hidden_width", "n_hidden_layers",
                     "time_embed_dim", "cond_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even (sin/cos pairs)")
        if self.activation != "silu":
            raise ValueError(f"unknown activation {self.activation!r}")

    # reserved null-condition rows sit one past the real vocabulary
    @property
    def null_concept(self) -> int:
        return self.n_concepts

    @property
    def null_context(self) -> int:
        return self.n_contexts

    @property
    def input_dim(self) -> int:
        return 2 + self.time_embed_dim


@dataclass
class ModelParams:
    flat: np.ndarray
    layout: tuple  # ((name, offset, shape), ...)
    config: NetConfig

    def view(self, name: str) -> np.ndarray:
        for n, off, shape in self.layout:
            if n == name:
                size = int(np.prod(shape))
                return self.flat[off:off + size].reshape(shape)
        raise KeyError(name)

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layout, self.config)


class LoraAdapter:
    """Low-rank delta up @ down on w_cond, held like ModelParams in one flat
    vector: `down` (r, d_e) and `up` (h, r) are views of `flat`."""

    def __init__(self, flat: np.ndarray, down_shape, up_shape):
        n_down = down_shape[0] * down_shape[1]
        self.flat = flat
        self.down = flat[:n_down].reshape(down_shape)
        self.up = flat[n_down:].reshape(up_shape)

    @property
    def rank(self) -> int:
        return self.down.shape[0]

    def delta(self) -> np.ndarray:
        return self.up @ self.down


class ScoreNet:
    """Architecture descriptor plus pure forward/backward over explicit params."""

    def __init__(self, config: NetConfig):
        self.config = config
        self.layout = self._build_layout()
        self.n_params = self.layout[-1][1] + int(np.prod(self.layout[-1][2]))

    def _build_layout(self):
        cfg = self.config
        h, de = cfg.hidden_width, cfg.cond_embed_dim
        entries = [
            ("concept_emb", (cfg.n_concepts + 1, de)),
            ("context_emb", (cfg.n_contexts + 1, de)),
            ("w_cond", (h, de)),
            ("w_in", (h, cfg.input_dim)),
            ("b_in", (h,)),
        ]
        for i in range(1, cfg.n_hidden_layers):
            entries.append((f"w_h{i}", (h, h)))
            entries.append((f"b_h{i}", (h,)))
        entries.append(("w_out", (2, h)))
        entries.append(("b_out", (2,)))
        layout = []
        off = 0
        for name, shape in entries:
            layout.append((name, off, shape))
            off += int(np.prod(shape))
        return tuple(layout)

    def init_params(self, seed: int) -> ModelParams:
        rng = np.random.default_rng(seed)
        flat = np.zeros(self.n_params)
        params = ModelParams(flat, self.layout, self.config)
        for name, _, shape in self.layout:
            v = params.view(name)
            if name.startswith("b_"):
                continue
            if name.endswith("_emb"):
                v[...] = rng.standard_normal(shape)
            else:
                fan_in = shape[-1]
                v[...] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        return params

    def init_lora(self, rank: int, seed: int) -> LoraAdapter:
        rng = np.random.default_rng(seed)
        cfg = self.config
        down = rng.standard_normal((rank, cfg.cond_embed_dim)) / np.sqrt(cfg.cond_embed_dim)
        # up is zero-initialized so the fresh delta is 0
        return LoraAdapter(np.concatenate([down.ravel(), np.zeros(cfg.hidden_width * rank)]),
                           down.shape, (cfg.hidden_width, rank))

    def time_features(self, t_norm: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t_norm, dtype=float))
        freqs = 2.0 ** np.arange(self.config.time_embed_dim // 2)
        ang = np.pi * t[:, None] * freqs[None, :]
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)

    def _check_ids(self, kids, cids):
        cfg = self.config
        if np.any(kids < 0) or np.any(kids > cfg.null_concept):
            raise VocabularyError(f"concept id out of vocabulary (0..{cfg.null_concept})")
        if np.any(cids < 0) or np.any(cids > cfg.null_context):
            raise VocabularyError(f"context id out of vocabulary (0..{cfg.null_context})")

    def _forward_cached(self, params, z, t_norm, kids, cids, adapter):
        cfg = self.config
        z = np.atleast_2d(np.asarray(z, dtype=float))
        n = len(z)
        t = np.broadcast_to(np.atleast_1d(np.asarray(t_norm, dtype=float)), (n,))
        kids = np.broadcast_to(np.atleast_1d(np.asarray(kids, dtype=int)), (n,))
        cids = np.broadcast_to(np.atleast_1d(np.asarray(cids, dtype=int)), (n,))
        self._check_ids(kids, cids)

        x_in = np.concatenate([z, self.time_features(t)], axis=1)
        e = params.view("concept_emb")[kids] + params.view("context_emb")[cids]
        w_cond = params.view("w_cond")
        w_eff = w_cond + adapter.delta() if adapter is not None else w_cond

        pre = [x_in @ params.view("w_in").T + params.view("b_in") + e @ w_eff.T]
        acts = [_silu(pre[0])]
        for i in range(1, cfg.n_hidden_layers):
            pre.append(acts[-1] @ params.view(f"w_h{i}").T + params.view(f"b_h{i}"))
            acts.append(_silu(pre[-1]))
        out = acts[-1] @ params.view("w_out").T + params.view("b_out")
        cache = (x_in, e, w_eff, pre, acts, kids, cids)
        return out, cache

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None):
        out, _ = self._forward_cached(params, z, t_norm, kids, cids, adapter)
        return out

    def loss_and_grad(self, params, z, t_norm, kids, cids, targets, adapter=None):
        """MSE (mean over batch of squared 2-norms) and its exact gradient.

        With an adapter the gradient is over the adapter's flat vector only
        and base parameters receive none.
        """
        out, cache = self._forward_cached(params, z, t_norm, kids, cids, adapter)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(targets) != len(out):
            raise ValueError("batch/target length mismatch")
        if len(out) == 0:
            raise ValueError("empty batch")
        diff = out - targets
        n = len(out)
        loss = float(np.sum(diff * diff) / n)
        grad = self._backward(params, cache, 2.0 * diff / n, adapter)
        return loss, grad

    def _backward(self, params, cache, dout, adapter):
        cfg = self.config
        x_in, e, w_eff, pre, acts, kids, cids = cache

        if adapter is None:
            grad = np.zeros(self.n_params)
            gp = ModelParams(grad, self.layout, cfg)

        d_act = dout @ params.view("w_out")
        if adapter is None:
            gp.view("w_out")[...] = dout.T @ acts[-1]
            gp.view("b_out")[...] = dout.sum(axis=0)
        for i in range(cfg.n_hidden_layers - 1, 0, -1):
            d_pre = d_act * _silu_grad(pre[i])
            if adapter is None:
                gp.view(f"w_h{i}")[...] = d_pre.T @ acts[i - 1]
                gp.view(f"b_h{i}")[...] = d_pre.sum(axis=0)
            d_act = d_pre @ params.view(f"w_h{i}")
        d_pre0 = d_act * _silu_grad(pre[0])
        d_w_eff = d_pre0.T @ e

        if adapter is not None:
            d_up = d_w_eff @ adapter.down.T
            d_down = adapter.up.T @ d_w_eff
            return np.concatenate([d_down.ravel(), d_up.ravel()])

        gp.view("w_in")[...] = d_pre0.T @ x_in
        gp.view("b_in")[...] = d_pre0.sum(axis=0)
        gp.view("w_cond")[...] = d_w_eff
        d_e = d_pre0 @ w_eff
        np.add.at(gp.view("concept_emb"), kids, d_e)
        np.add.at(gp.view("context_emb"), cids, d_e)
        return grad


def clone_frozen(params: ModelParams) -> ModelParams:
    """Deep, read-only copy; the live vector can never reach it."""
    flat = params.flat.copy()
    flat.flags.writeable = False
    return ModelParams(flat, params.layout, params.config)


def checksum(params: ModelParams) -> str:
    return hashlib.sha256(np.ascontiguousarray(params.flat).tobytes()).hexdigest()


_CONFIG_FIELDS = ("n_concepts", "n_contexts", "hidden_width", "n_hidden_layers",
                  "time_embed_dim", "cond_embed_dim", "activation")


def save_checkpoint(path, params: ModelParams) -> None:
    cfg = params.config
    lines = ["# ant-lab checkpoint v1"]
    for f in _CONFIG_FIELDS:
        lines.append(f"config {f}={getattr(cfg, f)}")
    for name, off, shape in params.layout:
        lines.append(f"layout {name} {off} {' '.join(str(s) for s in shape)}")
    lines.append("values")
    vals = [f"{v:.17g}" for v in params.flat]
    for i in range(0, len(vals), 8):
        lines.append(" ".join(vals[i:i + 8]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[NetConfig, ModelParams]:
    """Read a checkpoint written by save_checkpoint; a malformed or truncated
    file raises ValueError naming it."""
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError(f"checkpoint {path} does not end in a newline (truncated)")
    cfg_kv = {}
    values = []
    stored_layout = []
    in_values = False
    try:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if in_values:
                values.extend(float(tok) for tok in line.split())
            elif line.startswith("config "):
                key, val = line[len("config "):].split("=", 1)
                cfg_kv[key] = val
            elif line.startswith("layout "):
                parts = line.split()
                stored_layout.append((parts[1], int(parts[2]), tuple(int(p) for p in parts[3:])))
            elif line == "values":
                in_values = True
        if set(cfg_kv) != set(_CONFIG_FIELDS):
            raise ValueError(f"config keys {sorted(cfg_kv)}, expected {sorted(_CONFIG_FIELDS)}")
        cfg = NetConfig(**{k: (v if k == "activation" else int(v)) for k, v in cfg_kv.items()})
    except (ValueError, IndexError) as e:
        raise ValueError(f"malformed checkpoint {path}: {e}") from None
    net = ScoreNet(cfg)
    if tuple(stored_layout) != net.layout:
        raise ValueError(f"checkpoint layout does not match config arithmetic in {path}")
    if len(values) != net.n_params:
        raise ValueError(f"checkpoint {path} has {len(values)} values, expected {net.n_params}")
    return cfg, ModelParams(np.array(values), net.layout, cfg)
