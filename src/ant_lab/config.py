"""Flat key=value run configuration.

One `key = value` per line, `#` comments, namespaced keys (data.*, net.*,
schedule.*, pretrain.*, saliency.*, ant.*, fuse.*, eval.*, sweep.*).  Unknown
keys are rejected outright, and every run writes the fully resolved config
(defaults included) next to its artifacts for provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from .diffusion import GuidanceSpec, make_schedule
from .finetune import ABLATION_VARIANTS, AntLossConfig
from .mixture import make_mixture
from .net import NetConfig
from .pretrain import PretrainConfig
from .saliency import SaliencyConfig

__all__ = ["ConfigError", "RunConfig", "DEFAULTS", "load_config", "parse_value"]


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "run_dir": "runs/default",
    "data.n_concepts": 8,
    "data.n_contexts": 3,
    "data.radius_base": 2.5,
    "data.std": 0.5,
    "data.n_samples": 8000,
    "net.hidden_width": 128,
    "net.n_hidden_layers": 2,
    "net.time_embed_dim": 16,
    "net.cond_embed_dim": 8,
    "schedule.T": 100,
    "pretrain.steps": 20000,
    "pretrain.batch": 256,
    "pretrain.lr": 1e-3,
    "pretrain.cond_dropout": 0.1,
    "saliency.n_prompts": 3,
    "saliency.n_seeds": 5,
    "saliency.quantile": 0.95,
    "ant.target_concept": 0,
    "ant.lambda1": 1.0,
    "ant.lambda2": 0.5,
    "ant.lambda3": 0.5,
    "ant.eta": 1.0,
    "ant.t_prime_train": 86,
    "ant.steps": 250,
    "ant.lr": 5e-4,
    "ant.batch": 16,
    "ant.latent_source": "teacher_partial_ddim",
    "ant.latent_guidance_scale": 1.0,
    "ant.n_infer_steps": 50,
    "ant.use_mask": False,
    "ant.variant": "full",
    "fuse.concepts": "0,1,2",
    "fuse.beta": 0.1,
    "fuse.rank": 4,
    "fuse.steps": 50,
    "fuse.lr": 3e-2,
    "eval.n_samples": 1000,
    "eval.guidance_scale": 3.0,
    "eval.t_prime": 0,
    "eval.n_infer_steps": 50,
    "sweep.grid": ",".join(str(t) for t in range(0, 101, 5)),
    "sweep.n_samples": 500,
}


def parse_value(key: str, raw: str):
    """Coerce a raw string to the type of the key's default."""
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
    """Resolved configuration: defaults overlaid with file and CLI overrides."""

    def __init__(self, overrides: dict | None = None):
        self.values = dict(DEFAULTS)
        for k, v in (overrides or {}).items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        if self["ant.variant"] not in ABLATION_VARIANTS:
            raise ConfigError(f"ant.variant must be one of {', '.join(ABLATION_VARIANTS)}, "
                              f"got {self['ant.variant']!r}")

    def __getitem__(self, key):
        return self.values[key]

    def mixture_spec(self):
        return make_mixture(self["data.n_concepts"], self["data.n_contexts"],
                            self["data.radius_base"], self["data.std"])

    def net_config(self) -> NetConfig:
        return NetConfig(self["data.n_concepts"], self["data.n_contexts"],
                         self["net.hidden_width"], self["net.n_hidden_layers"],
                         self["net.time_embed_dim"], self["net.cond_embed_dim"])

    def schedule(self):
        return make_schedule(self["schedule.T"])

    def pretrain_config(self) -> PretrainConfig:
        return PretrainConfig(self["pretrain.steps"], self["pretrain.batch"],
                              self["pretrain.lr"], self["pretrain.cond_dropout"],
                              self["seed"])

    def saliency_config(self) -> SaliencyConfig:
        return SaliencyConfig(self["saliency.n_prompts"], self["saliency.n_seeds"],
                              self["saliency.quantile"])

    def ant_config(self) -> AntLossConfig:
        return AntLossConfig(self["ant.lambda1"], self["ant.lambda2"], self["ant.lambda3"],
                             self["ant.eta"], self["ant.t_prime_train"], self["ant.steps"],
                             self["ant.lr"], self["ant.batch"], self["seed"],
                             self["ant.latent_source"], self["ant.latent_guidance_scale"],
                             self["ant.n_infer_steps"])

    def lora_config(self) -> AntLossConfig:
        return replace(self.ant_config(), steps=self["fuse.steps"], lr=self["fuse.lr"])

    def guidance(self, t_prime: int | None = None) -> GuidanceSpec:
        tp = self["eval.t_prime"] if t_prime is None else t_prime
        return GuidanceSpec(self["eval.guidance_scale"], tp, self["eval.n_infer_steps"])

    def fuse_concepts(self) -> list:
        toks = [t for t in str(self["fuse.concepts"]).split(",") if t.strip()]
        ks = [int(t) for t in toks]
        if len(set(ks)) != len(ks):
            raise ConfigError("fuse.concepts contains duplicates")
        return ks

    def sweep_grid(self) -> list:
        return [int(t) for t in str(self["sweep.grid"]).split(",") if t.strip()]

    def resolved_text(self) -> str:
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse a key=value file (optional) and apply typed overrides on top."""
    parsed = {}
    if path is not None:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected 'key = value'")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
                parsed[key] = parse_value(key, raw)
    parsed.update(overrides or {})
    return RunConfig(parsed)
