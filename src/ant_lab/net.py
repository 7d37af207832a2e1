"""Conditional noise predictor: small MLP, flat parameter vector, exact gradients.

The network predicts the noise added to a 2-D point given the noisy point,
a normalized timestep, and a (concept, context) condition.  The condition
embedding (concept row + context row) enters the first hidden layer through a
dedicated projection matrix `w_cond`; a LoRA adapter, when present, adds a
low-rank delta to that one matrix.  Everything is float64 and backprop is
written out by hand so gradients line up exactly with the flat vector.

Layer 1 has two passes.  Per-row calls, as in pretraining, give t once per
row and concatenate z with the time features.  Shared-row calls give t as a
scalar that every row shares, as on a guided DDIM rung: layer 1's time and
bias terms are then one h-vector, and its condition term one h-vector per
distinct condition, added to z's term on that condition's rows; the ids are
scalars (no gather) or one per row, as on an erasure teacher ladder that
carries many steps' contexts.  The gradients of the shared terms are sums
over the rows.  A shared-row call has one condition block, or two for
`forward_pair`, which serves a guided rung: the null block ahead of the block
of the given ids, whose 2B rows the hidden and output layers take in one
pass.  The passes agree to float64 rounding, and tests/test_net.py keeps an
out-of-place reference of each.  A guided ladder passes its rungs' shared-row
calls one `work` dict: the first plans each block's conditions there once, and
each writes its (rows, hidden) arrays into slices of the arrays in
work["arrays"], which the ladder's caller may share across ladders.
`loss_and_grad` takes a `work` dict too, as each of pretraining's two shards
passes its own: there it keeps the forward's and the backward's (rows,
hidden) arrays and the gradient vector across calls, and plans every call's
conditions afresh.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .textfile import read_exact

__all__ = [
    "NetConfig",
    "ModelParams",
    "LoraAdapter",
    "ScoreNet",
    "check_ids",
    "clone_frozen",
    "checksum",
    "save_checkpoint",
    "load_checkpoint",
]


class VocabularyError(ValueError):
    pass


def _sigmoid(x, out):
    s = np.negative(x, out=out)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_grad(x, s, out):
    """SiLU'(x) = s * (1 + x * (1 - s)) given the forward sigmoid s of x, into out."""
    g = np.subtract(1.0, s, out=out)
    g *= x
    g += 1.0
    g *= s
    return g


def _rows(arrays, name, n, width):
    """A leading (n, width) slice of arrays[name], made when missing or too short."""
    a = arrays.get(name)
    if a is None or len(a) < n:
        a = arrays[name] = np.empty((n, width))
    return a[:n]


@functools.cache
def _slices(layout: tuple) -> dict:
    return {name: (slice(off, off + math.prod(shape)), shape) for name, off, shape in layout}


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
    # each named view of flat, made on first use; flat is never rebound
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def view(self, name: str) -> np.ndarray:
        v = self._views.get(name)
        if v is None:
            sl, shape = _slices(self.layout)[name]
            v = self._views[name] = self.flat[sl].reshape(shape)
        return v

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


def check_ids(config: NetConfig, kids, cids) -> None:
    """Raise VocabularyError unless every id, an int shared by every row or an
    array with one id per row, lies in 0..the null id."""
    for ids, top, what in ((kids, config.null_concept, "concept"),
                           (cids, config.null_context, "context")):
        if (not 0 <= ids <= top) if isinstance(ids, int) else np.any((ids < 0) | (ids > top)):
            raise VocabularyError(f"{what} id out of vocabulary (0..{top})")


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

    def _condition_plan(self, params, w_eff, n, kids, cids):
        """e @ w_eff.T once per distinct condition embedding e, each row's index
        into them (None for scalar ids), and e and the ids as the backward pass
        reads them: one e per call or per row (per-row ids broadcast to n).
        The ids are checked here for every caller; a guided ladder's reach it
        already checked, before the ladder's first rung."""
        check_ids(self.config, kids, cids)
        emb_k, emb_c = params.view("concept_emb"), params.view("context_emb")
        if np.ndim(kids) == np.ndim(cids) == 0:
            e = emb_k[kids] + emb_c[cids]
            return (e @ w_eff.T)[None], None, e, int(kids), int(cids)
        kids, cids = (np.broadcast_to(ids, (n,)) for ids in (kids, cids))
        width = self.config.null_context + 1
        conds, index = np.unique(kids * width + cids, return_inverse=True)
        proj = np.array([(emb_k[k] + emb_c[c]) @ w_eff.T for k, c in zip(*np.divmod(conds, width))])
        return proj, index, emb_k[kids] + emb_c[cids], kids, cids

    def _forward_cached(self, params, z, t_norm, kids, cids, adapter, pair=False, work=None):
        """The output and what the backward pass reads.  Calls that share a work
        dict pass the same params and adapter and a tail of the first call's
        rows and ids: the first call's condition plans are kept there.  The
        (rows, hidden) arrays are written into leading slices of the arrays in
        work["arrays"], a dict that calls with other plans may share."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        n, h = len(z), self.config.hidden_width
        work = {} if work is None else work
        arrays = work.setdefault("arrays", {})
        w_in = params.view("w_in")
        w_cond = params.view("w_cond")
        w_eff = w_cond + adapter.delta() if adapter is not None else w_cond

        if np.ndim(t_norm) == 0:
            # shared t: layer 1's time and bias terms are one h-vector, and its
            # condition term one h-vector per condition, added to z's term on
            # that condition's rows.  A pair puts the null block ahead of the
            # block of the given ids, which leave their embedding in e for the
            # backward pass.
            blocks = [("null", self.config.null_concept, self.config.null_context)] if pair else []
            blocks.append(("cond", kids, cids))
            tf = self.time_features(t_norm)[0]
            c_t = tf @ w_in[:, 2:].T
            c_t += params.view("b_in")
            zw = np.matmul(z, w_in[:, :2].T, out=_rows(arrays, "zw", n, h))
            # (blocks, B, h); one block is added in place, with no second (B, h) array
            pre = _rows(arrays, "pair", 2 * n, h).reshape(2, n, h) if pair else zw[None]
            for block, (name, *ids) in zip(pre, blocks):
                if name not in work:
                    work[name] = self._condition_plan(params, w_eff, n, *ids)
                proj, index, e, kids, cids = work[name]
                terms = c_t + proj
                if index is not None:  # this call's rows are the tail of the plan's
                    e, kids, cids, index = (a[len(a) - n:] for a in (e, kids, cids, index))
                    terms = np.take(terms, index, axis=0, out=_rows(arrays, "terms", n, h),
                                    mode="clip")
                np.add(zw, terms, out=block)
            pre = pre.reshape(-1, h)
            x_in = (z, tf)
        else:
            t = np.broadcast_to(np.atleast_1d(np.asarray(t_norm, dtype=float)), (n,))
            kids = np.broadcast_to(np.atleast_1d(np.asarray(kids, dtype=int)), (n,))
            cids = np.broadcast_to(np.atleast_1d(np.asarray(cids, dtype=int)), (n,))
            check_ids(self.config, kids, cids)
            x_in = np.concatenate([z, self.time_features(t)], axis=1)
            e = params.view("concept_emb")[kids]
            e += params.view("context_emb")[cids]
            pre = np.matmul(x_in, w_in.T, out=_rows(arrays, "zw", n, h))
            pre += params.view("b_in")
            pre += np.matmul(e, w_eff.T, out=_rows(arrays, "terms", n, h))
        # per layer: pre-activation, its sigmoid and the SiLU output
        m, layers = len(pre), []
        for i in range(self.config.n_hidden_layers):
            if i:
                pre = np.matmul(layers[-1][2], params.view(f"w_h{i}").T,
                                out=_rows(arrays, f"pre{i}", m, h))
                pre += params.view(f"b_h{i}")
            sig = _sigmoid(pre, _rows(arrays, f"sig{i}", m, h))
            layers.append((pre, sig, np.multiply(pre, sig, out=_rows(arrays, f"act{i}", m, h))))
        out = layers[-1][2] @ params.view("w_out").T
        out += params.view("b_out")
        cache = (x_in, e, w_eff, layers, kids, cids, arrays)
        return out, cache

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None, work=None):
        out, _ = self._forward_cached(params, z, t_norm, kids, cids, adapter, work=work)
        return out

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        """(null-condition output, (kid, cid) output) for rows that share the
        scalar t_norm, from one pass over the stacked [null; cond] rows.  kid
        and cid are each one id for every row or one per row.

        Layer 1 is the shared-row pass with a null block ahead of the (kid,
        cid) block; the hidden and output layers then run once on the 2B
        stack.  Each half agrees with forward_batch to float64 rounding: a
        2B-row matmul need not round like a B-row one.
        """
        out, _ = self._forward_cached(params, z, t_norm, kid, cid, None, pair=True, work=work)
        n = len(out) // 2
        return out[:n], out[n:]

    def loss_and_grad(self, params, z, t_norm, kids, cids, targets, adapter=None, work=None,
                      denom=None):
        """MSE (sum over rows of squared 2-norms, over denom, by default the
        row count) and its exact gradient.

        With an adapter the gradient is over the adapter's flat vector only
        and base parameters receive none.  Calls that pass one `work` dict keep
        their (rows, hidden) arrays in work["arrays"], as a guided ladder's
        rungs do, and the base gradient vector as work["arrays"]["grad"] (made
        when missing), so the next call sharing the dict overwrites the
        gradient returned here.  Every such call plans its own conditions.
        """
        arrays = None if work is None else {"arrays": work.setdefault("arrays", {})}
        out, cache = self._forward_cached(params, z, t_norm, kids, cids, adapter, work=arrays)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(targets) != len(out):
            raise ValueError("batch/target length mismatch")
        if len(out) == 0:
            raise ValueError("empty batch")
        diff = out - targets
        n = len(out) if denom is None else denom
        loss = float(np.sum(diff * diff) / n)
        grad = self._backward(params, cache, 2.0 * diff / n, adapter)
        return loss, grad

    def _backward(self, params, cache, dout, adapter):
        """Gradient of the loss given dL/d(out).  Every slot of the returned
        vector is written, in the same float64 order as a plain out-of-place
        backward pass (tests/test_net.py keeps that pass, per-row and shared,
        as the reference)."""
        cfg = self.config
        x_in, e, w_eff, layers, kids, cids, arrays = cache
        train_base = adapter is None
        if train_base:
            grad = arrays.get("grad")
            if grad is None or len(grad) != self.n_params:
                grad = arrays["grad"] = np.empty(self.n_params)
            gp = ModelParams(grad, self.layout, cfg)

        # d_act and the SiLU' of each layer take turns in two (rows, hidden) arrays
        m, h = len(dout), cfg.hidden_width
        d_act = np.matmul(dout, params.view("w_out"), out=_rows(arrays, "d_act", m, h))
        spare = _rows(arrays, "d_spare", m, h)
        if train_base:
            np.matmul(dout.T, layers[-1][2], out=gp.view("w_out"))
            np.sum(dout, axis=0, out=gp.view("b_out"))
        for i in range(cfg.n_hidden_layers - 1, 0, -1):
            pre, sig, _ = layers[i]
            d_act *= _silu_grad(pre, sig, spare)
            if train_base:
                np.matmul(d_act.T, layers[i - 1][2], out=gp.view(f"w_h{i}"))
                np.sum(d_act, axis=0, out=gp.view(f"b_h{i}"))
            d_act, spare = np.matmul(d_act, params.view(f"w_h{i}"), out=spare), d_act
        pre, sig, _ = layers[0]
        d_act *= _silu_grad(pre, sig, spare)
        d_pre0 = d_act
        shared = e.ndim == 1  # one condition for every row; see _condition_plan
        s = np.sum(d_pre0, axis=0)
        d_w_eff = np.outer(s, e) if shared else d_pre0.T @ e

        if not train_base:
            d_up = d_w_eff @ adapter.down.T
            d_down = adapter.up.T @ d_w_eff
            return np.concatenate([d_down.ravel(), d_up.ravel()])

        gp.view("b_in")[...] = s
        gp.view("w_cond")[...] = d_w_eff
        if isinstance(x_in, tuple):  # shared t
            z, tf = x_in
            g = gp.view("w_in")
            g[:, :2] = d_pre0.T @ z
            np.outer(s, tf, out=g[:, 2:])
        else:
            np.matmul(d_pre0.T, x_in, out=gp.view("w_in"))
        if shared:
            d_e = s @ w_eff
            for name, i in (("concept_emb", kids), ("context_emb", cids)):
                g = gp.view(name)
                g[...] = 0.0
                g[i] = d_e
            return grad
        d_e = d_pre0 @ w_eff
        # one bincount over the (id, column) bins sums each bin in batch order
        # from 0.0, as np.add.at does; a one-hot matmul would leave it to BLAS
        cols = np.arange(d_e.shape[1])
        for name, ids in (("concept_emb", kids), ("context_emb", cids)):
            g = gp.view(name)
            g[...] = np.bincount((ids[:, None] * len(cols) + cols).ravel(), d_e.ravel(),
                                 minlength=g.size).reshape(g.shape)
        return grad


def clone_frozen(params: ModelParams) -> ModelParams:
    """Deep, read-only copy; the live vector can never reach it."""
    flat = params.flat.copy()
    flat.flags.writeable = False
    return ModelParams(flat, params.layout, params.config)


def checksum(params: ModelParams) -> str:
    return hashlib.sha256(np.ascontiguousarray(params.flat).tobytes()).hexdigest()


@functools.cache
def _values_format(n: int) -> str:
    """The `%` format of n checkpoint values: eight `%.17g` a line."""
    lines = [" ".join(["%.17g"] * min(8, n - i)) for i in range(0, n, 8)]
    return "".join(f"{ln}\n" for ln in lines)


def _checkpoint_text(params: ModelParams) -> str:
    """A checkpoint's text: the version line, a `config` line per NetConfig field, a
    `layout` line per parameter block, then `values` and the values, eight a line."""
    lines = ["# ant-lab checkpoint v1",
             *(f"config {f.name}={getattr(params.config, f.name)}" for f in fields(NetConfig)),
             *(f"layout {name} {off} {' '.join(map(str, shape))}"
               for name, off, shape in params.layout),
             "values"]
    values = params.flat.tolist()
    return "\n".join(lines) + "\n" + _values_format(len(values)) % tuple(values)


def save_checkpoint(path, params: ModelParams) -> None:
    with open(path, "w") as fh:
        fh.write(_checkpoint_text(params))


def load_checkpoint(path) -> tuple[NetConfig, ModelParams]:
    """Read a checkpoint that save_checkpoint wrote, by the rule of textfile.read_exact."""
    def parse(text) -> ModelParams:
        head, _, body = text.partition("\nvalues\n")
        kv = dict(ln[len("config "):].split("=", 1) for ln in head.splitlines()
                  if ln.startswith("config "))
        cfg = NetConfig(**{f.name: (int if f.type == "int" else str)(kv[f.name])
                           for f in fields(NetConfig)})
        net, values = ScoreNet(cfg), np.array(body.split(), dtype=float)
        # what a round trip cannot check: nan renders back as nan, and the values' count
        if len(values) != net.n_params or not np.all(np.isfinite(values)):
            raise ValueError(f"{len(values)} values, expected {net.n_params} and all finite")
        return ModelParams(values, net.layout, cfg)

    params = read_exact(path, "checkpoint", parse, _checkpoint_text)
    return params.config, params
