"""Flat key=value run configuration.

One `key = value` per line, `#` comments, namespaced keys (data.*, net.*,
schedule.*, pretrain.*, saliency.*, ant.*, fuse.*, eval.*, sweep.*).  Unknown
keys are rejected outright, and every run writes the fully resolved config
(defaults included) next to its artifacts for provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from .diffusion import GuidanceSpec, infer_ladder, make_schedule
from .finetune import ABLATION_VARIANTS, AntLossConfig
from .metrics import MIN_SAMPLES_PER_CONCEPT
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
    """Resolved configuration: defaults overlaid with file and CLI overrides.

    Every derived config is built and range-checked once, here, so a bad
    value raises ConfigError before any stage runs or any file is written.
    """

    def __init__(self, overrides: dict | None = None):
        self.values = dict(DEFAULTS)
        for k, v in (overrides or {}).items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown config key {k!r}")
            self.values[k] = v
        if self["ant.variant"] not in ABLATION_VARIANTS:
            raise ConfigError(f"ant.variant must be one of {', '.join(ABLATION_VARIANTS)}, "
                              f"got {self['ant.variant']!r}")
        try:
            self._derive()
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def _derive(self):
        self.mixture_spec = make_mixture(self["data.n_concepts"], self["data.n_contexts"],
                                         self["data.radius_base"], self["data.std"])
        self.net_config = NetConfig(self["data.n_concepts"], self["data.n_contexts"],
                                    self["net.hidden_width"], self["net.n_hidden_layers"],
                                    self["net.time_embed_dim"], self["net.cond_embed_dim"])
        self.schedule = make_schedule(self["schedule.T"])
        self.pretrain_config = PretrainConfig(self["pretrain.steps"], self["pretrain.batch"],
                                              self["pretrain.lr"], self["pretrain.cond_dropout"],
                                              self["seed"])
        self.saliency_config = SaliencyConfig(self["saliency.n_prompts"],
                                              self["saliency.n_seeds"], self["saliency.quantile"])
        self.ant_config = AntLossConfig(
            self["ant.lambda1"], self["ant.lambda2"], self["ant.lambda3"], self["ant.eta"],
            self["ant.t_prime_train"], self["ant.steps"], self["ant.lr"], self["ant.batch"],
            self["seed"], self["ant.latent_guidance_scale"], self["ant.n_infer_steps"])
        self.lora_config = replace(self.ant_config, steps=self["fuse.steps"], lr=self["fuse.lr"])
        self.guidance()  # checks eval.guidance_scale, eval.t_prime and eval.n_infer_steps
        self.fuse_concepts = [int(t) for t in str(self["fuse.concepts"]).split(",") if t.strip()]
        if len(set(self.fuse_concepts)) != len(self.fuse_concepts):
            raise ConfigError("fuse.concepts contains duplicates")
        self.sweep_grid = [int(t) for t in str(self["sweep.grid"]).split(",") if t.strip()]

        for key, values in (("fuse.concepts", self.fuse_concepts), ("sweep.grid", self.sweep_grid)):
            if not values:
                raise ConfigError(f"{key} must list at least one value, got {self[key]!r}")
        K, T = self["data.n_concepts"], self["schedule.T"]
        for key, values, hi in (("ant.target_concept", [self["ant.target_concept"]], K - 1),
                                ("fuse.concepts", self.fuse_concepts, K - 1),
                                ("sweep.grid", self.sweep_grid, T),
                                ("ant.t_prime_train", [self["ant.t_prime_train"]], T)):
            if any(not 0 <= v <= hi for v in values):
                raise ConfigError(f"{key} must lie in 0..{hi}, got {self[key]}")
        for key, lo in (("seed", 0), ("pretrain.steps", 0), ("ant.steps", 0), ("fuse.steps", 0),
                        ("pretrain.batch", 1), ("ant.batch", 1), ("data.n_samples", 1),
                        ("sweep.n_samples", 1), ("saliency.n_prompts", 1), ("saliency.n_seeds", 1),
                        ("fuse.rank", 1), ("eval.n_samples", MIN_SAMPLES_PER_CONCEPT),
                        ("fuse.beta", 0)):
            if self[key] < lo:
                raise ConfigError(f"{key} must be >= {lo}, got {self[key]}")
        for key in ("ant.n_infer_steps", "eval.n_infer_steps"):
            try:
                infer_ladder(self.schedule, self[key])
            except ValueError as e:
                raise ConfigError(f"{key}: {e}") from None
        if self["saliency.n_prompts"] > self["data.n_contexts"]:
            raise ConfigError(f"saliency.n_prompts={self['saliency.n_prompts']} exceeds "
                              f"data.n_contexts={self['data.n_contexts']}")

    def __getitem__(self, key):
        return self.values[key]

    def guidance(self, t_prime: int | None = None) -> GuidanceSpec:
        key, tp = ("eval.t_prime", self["eval.t_prime"]) if t_prime is None else ("t_prime", t_prime)
        if not 0 <= tp <= self["schedule.T"]:
            raise ConfigError(f"{key} must lie in 0..{self['schedule.T']}, got {tp}")
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
