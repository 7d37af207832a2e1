"""Flat key=value run configuration.

One `key = value` per line, `#` comments (a `#` that starts a line or follows
whitespace), no key set twice, namespaced keys (data.*, net.*, schedule.*,
pretrain.*, saliency.*, ant.*, fuse.*, eval.*, sweep.*).  Unknown keys are
rejected outright, and every run writes the fully resolved config (defaults
included) next to its artifacts for provenance.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
import sys
from dataclasses import replace

from .diffusion import GuidanceSpec, make_schedule
from .finetune import ABLATION_VARIANTS, AntLossConfig
from .mixture import make_mixture
from .net import NetConfig
from .pretrain import PretrainConfig
from .saliency import SaliencyConfig

__all__ = ["ConfigError", "RunConfig", "KEYS", "DEFAULTS", "MIXTURE_KEYS", "load_config",
           "parse_value"]


class ConfigError(ValueError):
    pass


# key: (default, *bounds).  A bound is "op operand": op is >=, >, <= or <, and the
# operand a number or a key earlier in the table.  See RunConfig.check.  Only
# run_dir, ant.use_mask and ant.variant (one of ABLATION_VARIANTS) have no bounds.
KEYS = {
    "seed": (0, ">= 0"),
    "run_dir": ("runs/default",),
    "data.n_concepts": (8, ">= 2"),
    "data.n_contexts": (3, ">= 1"),
    "data.radius_base": (2.5, "> 0"),
    "data.std": (0.5, "> 0"),
    "data.n_samples": (8000, ">= 1"),
    "net.hidden_width": (128, ">= 1"),
    "net.n_hidden_layers": (2, ">= 1"),
    "net.time_embed_dim": (16, ">= 2"),
    "net.cond_embed_dim": (8, ">= 1"),
    "schedule.T": (100, ">= 1"),
    "pretrain.steps": (20000, ">= 0"),
    "pretrain.batch": (256, ">= 1"),
    "pretrain.lr": (1e-3, "> 0"),
    "pretrain.cond_dropout": (0.1, ">= 0", "< 1"),
    "saliency.n_prompts": (3, ">= 1", "<= data.n_contexts"),
    "saliency.n_seeds": (5, ">= 1"),
    "saliency.quantile": (0.95, "> 0", "< 1"),
    "ant.target_concept": (0, ">= 0", "< data.n_concepts"),
    "ant.lambda1": (1.0, ">= 0"),
    "ant.lambda2": (0.5, ">= 0"),
    "ant.lambda3": (0.5, ">= 0"),
    "ant.eta": (1.0, ">= 0"),
    "ant.t_prime_train": (86, ">= 0", "<= schedule.T"),
    "ant.steps": (250, ">= 0"),
    "ant.lr": (5e-4, "> 0"),
    "ant.batch": (16, ">= 1"),
    "ant.latent_guidance_scale": (1.0, ">= 0"),
    "ant.n_infer_steps": (50, ">= 1", "<= schedule.T"),
    "ant.use_mask": (False,),
    "ant.variant": ("full",),
    "fuse.concepts": ("0,1,2", ">= 0", "< data.n_concepts"),
    "fuse.beta": (0.1, ">= 0"),
    "fuse.rank": (4, ">= 1"),
    "fuse.steps": (50, ">= 0"),
    "fuse.lr": (3e-2, "> 0"),
    # per-concept accuracy and the off-manifold fraction need this many samples each
    "eval.n_samples": (1000, ">= 100"),
    "eval.guidance_scale": (3.0, ">= 0"),
    "eval.t_prime": (0, ">= 0", "<= schedule.T"),
    "eval.n_infer_steps": (50, ">= 1", "<= schedule.T"),
    "sweep.grid": (",".join(str(t) for t in range(0, 101, 5)), ">= 0", "<= schedule.T"),
    "sweep.n_samples": (500, ">= 1"),
}
DEFAULTS = {key: default for key, (default, *_) in KEYS.items()}
# make_mixture's arguments, in order: all that the data mixture and its oracle depend on
MIXTURE_KEYS = ("data.n_concepts", "data.n_contexts", "data.radius_base", "data.std")
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_COMMENT = re.compile(r"(?:^|\s)#")  # a `#` inside a value, as in exp#2, is kept


def parse_value(key: str, raw: str):
    """Coerce a raw string to the type of the key's default."""
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None
    return raw


class RunConfig:
    """Resolved configuration: defaults overlaid with file and CLI overrides.

    Every key is checked against KEYS and the rules the table cannot state, here,
    so a bad value raises ConfigError before any stage runs or file is written;
    the library takes the derived configs as given.
    """

    def __init__(self, overrides: dict | None = None):
        self.reads = set()  # every key read through [], the derived values' included
        self.values = dict(DEFAULTS)
        for k, v in (overrides or {}).items():
            if k not in KEYS:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        if self["ant.variant"] not in ABLATION_VARIANTS:
            raise ConfigError(f"ant.variant must be one of {', '.join(ABLATION_VARIANTS)}, "
                              f"got {self['ant.variant']!r}")
        for key, (_, *bounds) in KEYS.items():
            if bounds:
                self.check(key, self[key], bounds)
        if len(set(self.fuse_concepts)) != len(self.fuse_concepts):
            raise ConfigError("fuse.concepts contains duplicates")
        if self["net.time_embed_dim"] % 2:
            raise ConfigError("net.time_embed_dim must be even (sin/cos pairs), "
                              f"got {self['net.time_embed_dim']}")
        # the oracle divides by the mode variance; a subnormal, 0 or inf one makes it nan
        var = self["data.std"] * self["data.std"]
        if not (math.isfinite(var) and var >= sys.float_info.min):
            raise ConfigError(f"data.std must square to a positive normal float, got "
                              f"{self['data.std']} (square {var})")

    def check(self, key: str, value, bounds) -> list:
        """Raise ConfigError naming `key` unless `value` is finite and meets every
        bound, or return its entries: a comma-list string's ints, one at least."""
        try:
            items = ([int(t) for t in value.split(",") if t.strip()]
                     if isinstance(value, str) else [value])
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None
        if not items:
            raise ConfigError(f"{key} must list at least one value, got {value!r}")
        for item in items:
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(f"{key} must be finite, got {item}")
            for bound in bounds:
                op, operand = bound.split()
                limit = self[operand] if operand in KEYS else float(operand)
                if not _OPS[op](item, limit):
                    shown = f" = {limit}" if operand in KEYS else ""
                    raise ConfigError(f"{key} must be {bound}{shown}, got {value}")
        return items

    # built on each use, so `reads` names the keys behind every derived value used
    fuse_concepts = property(lambda self: self.check("fuse.concepts", self["fuse.concepts"], ()))
    sweep_grid = property(lambda self: self.check("sweep.grid", self["sweep.grid"], ()))
    mixture_spec = property(lambda self: make_mixture(*(self[k] for k in MIXTURE_KEYS)))
    net_config = property(lambda self: NetConfig(
        self["data.n_concepts"], self["data.n_contexts"], self["net.hidden_width"],
        self["net.n_hidden_layers"], self["net.time_embed_dim"], self["net.cond_embed_dim"]))
    schedule = property(lambda self: make_schedule(self["schedule.T"]))
    pretrain_config = property(lambda self: PretrainConfig(
        self["pretrain.steps"], self["pretrain.batch"], self["pretrain.lr"],
        self["pretrain.cond_dropout"], self["seed"]))
    saliency_config = property(lambda self: SaliencyConfig(
        self["saliency.n_prompts"], self["saliency.n_seeds"], self["saliency.quantile"]))
    # the fields ant_loss reads; steps, lr and seed keep their defaults, which it never reads
    loss_config = property(lambda self: AntLossConfig(
        self["ant.lambda1"], self["ant.lambda2"], self["ant.lambda3"], self["ant.eta"],
        self["ant.t_prime_train"], batch=self["ant.batch"],
        latent_guidance_scale=self["ant.latent_guidance_scale"],
        n_infer_steps=self["ant.n_infer_steps"]))
    ant_config = property(lambda self: replace(self.loss_config, steps=self["ant.steps"],
                                               lr=self["ant.lr"], seed=self["seed"]))
    lora_config = property(lambda self: replace(self.loss_config, steps=self["fuse.steps"],
                                                lr=self["fuse.lr"], seed=self["seed"]))

    def __getitem__(self, key):
        self.reads.add(key)
        return self.values[key]

    def guidance(self, t_prime: int | None = None) -> GuidanceSpec:
        tp = self["eval.t_prime"] if t_prime is None else t_prime
        return GuidanceSpec(self["eval.guidance_scale"], tp, self["eval.n_infer_steps"])

    def resolved_text(self) -> str:
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """sha256 of the resolved text bar `run_dir`: a moved run dir keeps its stamps."""
        text = "".join(ln for ln in self.resolved_text().splitlines(True)
                       if not ln.startswith("run_dir = "))
        return hashlib.sha256(text.encode()).hexdigest()


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse a key=value file (optional) and apply typed overrides on top."""
    parsed, set_on = {}, {}  # set_on: the line that set each key
    if path is not None:
        try:
            with open(path) as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from None
        for ln, line in enumerate(lines, 1):
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key in set_on:
                raise ConfigError(f"{path}:{ln}: {key} was set already, on line {set_on[key]}")
            set_on[key] = ln
            try:
                parsed[key] = parse_value(key, raw)
            except ConfigError as e:
                raise ConfigError(f"{path}:{ln}: {e}") from None
    parsed.update(overrides or {})
    return RunConfig(parsed)
