"""Span tracing of ant_lab from outside the package, and the per-layer table.

`Tracer.install()` replaces the public functions of each ant_lab module with
timing wrappers at every place the function can be looked up: the defining
module and every other ant_lab module that imported it by name.  Methods are
patched on their class.  `metrics.accuracy` samples concepts in a thread pool;
the pool is swapped for one that runs each task in a copy of the submitting
context, so spans opened in pool threads attach to the `accuracy` span.

Spans are kept in memory; `Tracer.dump()` writes them out at the end of a run
and `layer_table()` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _n_rows(x):
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(x.size // shape[-1]) if len(shape) > 1 else 1


def _mlp_cost(net, rows, backward, adapter):
    """Matmul FLOPs and operand bytes of one ScoreNet call, from the layer shapes.

    Counts every float64 matrix product in `_forward_cached` and `_backward`:
    2*m*k*n FLOPs and 8*(m*k + k*n + m*n) bytes for an (m x k) @ (k x n).
    Elementwise work (SiLU, bias adds, embedding gathers) is not counted.
    """
    cfg = net.config
    h, de, d_in, L = cfg.hidden_width, cfg.cond_embed_dim, cfg.input_dim, cfg.n_hidden_layers
    b = rows
    prods = [(b, d_in, h), (b, de, h)] + [(b, h, h)] * (L - 1) + [(b, h, 2)]
    if backward:
        prods += [(b, 2, h)]                      # d_act = dout @ w_out
        prods += [(b, h, h)] * (L - 1)            # d_act through hidden layers
        prods += [(h, b, de)]                     # d_w_eff = d_pre0.T @ e
        if adapter is None:
            prods += [(2, b, h)]                  # w_out grad
            prods += [(h, b, h)] * (L - 1)        # hidden weight grads
            prods += [(h, b, d_in), (b, h, de)]   # w_in grad, d_e
    flop = sum(2 * m * k * n for m, k, n in prods)
    byte = sum(8 * (m * k + k * n + m * n) for m, k, n in prods)
    return flop, byte


def _probe_forward(args, kwargs):
    net, z = args[0], _arg(args, kwargs, 2, "z")
    rows = _n_rows(z)
    flop, byte = _mlp_cost(net, rows, False, _arg(args, kwargs, 6, "adapter"))
    return {"rows": rows, "flop": flop, "bytes": byte}


def _probe_loss_and_grad(args, kwargs):
    net, z = args[0], _arg(args, kwargs, 2, "z")
    rows = _n_rows(z)
    flop, byte = _mlp_cost(net, rows, True, _arg(args, kwargs, 7, "adapter"))
    return {"rows": rows, "flop": flop, "bytes": byte}


def _probe_n(index, name):
    def probe(args, kwargs):
        return {"rows": int(_arg(args, kwargs, index, name))}
    return probe


def _probe_x(args, kwargs):
    return {"rows": _n_rows(_arg(args, kwargs, 1, "x"))}


def _seed_key(seed):
    entropy = getattr(seed, "entropy", None)
    if entropy is None:
        return repr(seed)
    return repr((entropy, getattr(seed, "spawn_key", ())))


def _probe_sample(args, kwargs):
    params = _arg(args, kwargs, 1, "params")
    n = int(_arg(args, kwargs, 5, "n"))
    # A call repeating an earlier call's arguments within one command
    # recomputes the same points: that is what useful_ratio counts as waste.
    key = repr((id(params), _arg(args, kwargs, 3, "guidance"), _arg(args, kwargs, 4, "cond"),
                n, _seed_key(_arg(args, kwargs, 6, "seed")),
                id(_arg(args, kwargs, 8, "adapter"))))
    return {"rows": n, "key": key}


def _probe_file(args, kwargs):
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except (OSError, TypeError):
        return {}


# (span name, module, attribute path, probe).  A probe maps a call's
# (args, kwargs) to the counts stored on its span; it runs after the call.
TARGETS = (
    ("net.ScoreNet.forward_batch", "ant_lab.net", "ScoreNet.forward_batch", _probe_forward),
    ("net.ScoreNet.loss_and_grad", "ant_lab.net", "ScoreNet.loss_and_grad", _probe_loss_and_grad),
    ("net.save_checkpoint", "ant_lab.net", "save_checkpoint", _probe_file),
    ("net.load_checkpoint", "ant_lab.net", "load_checkpoint", _probe_file),
    ("optim.Adam.step", "ant_lab.optim", "Adam.step", None),
    ("mixture.sample_dataset", "ant_lab.mixture", "sample_dataset", _probe_n(1, "n")),
    ("mixture.log_density_batch", "ant_lab.mixture", "log_density_batch", _probe_x),
    ("mixture.bayes_classify_batch", "ant_lab.mixture", "bayes_classify_batch", _probe_x),
    ("mixture.save_dataset_csv", "ant_lab.mixture", "save_dataset_csv", None),
    ("mixture.load_dataset_csv", "ant_lab.mixture", "load_dataset_csv", None),
    ("diffusion.sample", "ant_lab.diffusion", "sample", _probe_sample),
    ("diffusion.ddim_step", "ant_lab.diffusion", "ddim_step", None),
    ("pretrain.pretrain", "ant_lab.pretrain", "pretrain", None),
    ("finetune.make_latents", "ant_lab.finetune", "make_latents", _probe_n(6, "n")),
    ("finetune.ant_loss", "ant_lab.finetune", "ant_loss", None),
    ("finetune.erase_single", "ant_lab.finetune", "erase_single", None),
    ("saliency.build_concept_mask", "ant_lab.saliency", "build_concept_mask", None),
    ("saliency.single_map", "ant_lab.saliency", "single_map", None),
    ("fusion.train_concept_lora", "ant_lab.fusion", "train_concept_lora", None),
    ("fusion.fuse", "ant_lab.fusion", "fuse", None),
    ("metrics.evaluate", "ant_lab.metrics", "evaluate", None),
    ("metrics.accuracy", "ant_lab.metrics", "accuracy", None),
    ("metrics.off_manifold_threshold", "ant_lab.metrics", "off_manifold_threshold", None),
    ("config.load_config", "ant_lab.config", "load_config", None),
    ("config.RunConfig.digest", "ant_lab.config", "RunConfig.digest", None),
) + tuple((f"cli.{name}", "ant_lab.cli", name, None) for name in (
    "cmd_gen_data", "cmd_pretrain", "cmd_saliency", "cmd_erase", "cmd_erase_multi",
    "cmd_eval", "cmd_sweep_tprime", "cmd_pipeline"))

# Per-layer metrics derived from shapes and counts rather than timed.
COMPUTED_SUFFIXES = (".gflop", ".gbyte", ".rows_per_call", ".useful_ratio", ".rerun_ratio")

CLI_STAGES = tuple(name for name, _, _, _ in TARGETS
                   if name.startswith("cli.") and name != "cli.cmd_pipeline")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "run", "attrs")

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "run": self.run,
                **self.attrs}


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the context that submitted them."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.name = name
            span.parent = tracer._current.get()
            span.thread = threading.get_ident()
            span.run = tracer.run_id
            with tracer._lock:
                span.id = next(tracer._ids)
            token = tracer._current.set(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._current.reset(token)
                span.attrs = probe(args, kwargs) if probe is not None else {}
                with tracer._lock:
                    tracer.spans.append(span)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target; targets the program no longer has are listed in `missing`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ant_lab" or n.startswith("ant_lab."))]
        for name, module_name, path, probe in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, attr = path.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, attr, None) if holder is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            traced = self._wrap(name, fn, probe)
            if owner:
                self._set(holder, attr, traced)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, traced)
        metrics = sys.modules.get("ant_lab.metrics")
        if metrics is not None and getattr(metrics, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._set(metrics, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps(span.as_dict()) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length([iv for iv in kids if iv[1] > iv[0]])
    return out


def layer_table(spans, needed_stage_runs: int, pipeline_stages: int) -> dict:
    """Reduce spans to the per-layer metrics (name -> value).

    `needed_stage_runs` is how many pipeline stages the traced work actually
    had to re-run; `pipeline_stages` is the number of stages per pipeline.
    """
    self_s = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def dur(group_spans):
        return sum(s.end - s.start for s in group_spans)

    def selft(group_spans):
        return sum(self_s[s.id] for s in group_spans)

    def attr(group_spans, key):
        return sum(s.attrs.get(key, 0) for s in group_spans)

    m = {}
    for layer, span_name in (("net.loss_and_grad", "net.ScoreNet.loss_and_grad"),
                             ("net.forward_batch", "net.ScoreNet.forward_batch")):
        g = group(span_name)
        m[f"{layer}.calls"] = len(g)
        m[f"{layer}.rows"] = attr(g, "rows")
        m[f"{layer}.rows_per_call"] = attr(g, "rows") / len(g) if g else 0.0
        m[f"{layer}.self_s"] = selft(g)
        m[f"{layer}.gflop"] = attr(g, "flop") / 1e9
        m[f"{layer}.gbyte"] = attr(g, "bytes") / 1e9
    g = group("net.save_checkpoint", "net.load_checkpoint")
    m["net.checkpoint_io.s"] = dur(g)
    m["net.checkpoint_io.bytes"] = attr(g, "bytes")
    g = group("optim.Adam.step")
    m["optim.adam_step.calls"] = len(g)
    m["optim.adam_step.self_s"] = selft(g)
    g = group("mixture.sample_dataset")
    m["mixture.sample_dataset.rows"] = attr(g, "rows")
    m["mixture.sample_dataset.self_s"] = selft(g)
    g = group("mixture.log_density_batch", "mixture.bayes_classify_batch")
    m["mixture.oracle.rows"] = attr(g, "rows")
    m["mixture.oracle.self_s"] = selft(g)
    m["mixture.dataset_csv.s"] = dur(group("mixture.save_dataset_csv", "mixture.load_dataset_csv"))

    def root(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
        return s.id

    g = group("diffusion.sample")
    seen, useful = set(), 0
    for s in sorted(g, key=lambda s: s.start):
        key = (root(s), s.attrs.get("key"))
        if key not in seen:
            seen.add(key)
            useful += s.attrs.get("rows", 0)
    m["diffusion.sample.calls"] = len(g)
    m["diffusion.sample.rows"] = attr(g, "rows")
    m["diffusion.sample.self_s"] = selft(g)
    m["diffusion.sample.useful_ratio"] = useful / attr(g, "rows") if g else 0.0
    m["diffusion.ddim_step.calls"] = len(group("diffusion.ddim_step"))
    m["pretrain.pretrain.self_s"] = selft(group("pretrain.pretrain"))
    g = group("finetune.make_latents")
    m["finetune.make_latents.calls"] = len(g)
    m["finetune.make_latents.rows"] = attr(g, "rows")
    m["finetune.make_latents.self_s"] = selft(g)
    g = group("finetune.ant_loss")
    m["finetune.ant_loss.calls"] = len(g)
    m["finetune.ant_loss.self_s"] = selft(g)
    m["finetune.erase_single.self_s"] = selft(group("finetune.erase_single"))
    m["saliency.build_concept_mask.s"] = dur(group("saliency.build_concept_mask"))
    m["saliency.single_map.calls"] = len(group("saliency.single_map"))
    m["fusion.train_concept_lora.s"] = dur(group("fusion.train_concept_lora"))
    m["fusion.fuse.s"] = dur(group("fusion.fuse"))
    m["metrics.evaluate.s"] = dur(group("metrics.evaluate"))
    acc = group("metrics.accuracy")
    acc_ids = {s.id for s in acc}
    pooled = [s for s in group("diffusion.sample") if s.parent in acc_ids]
    m["metrics.accuracy.s"] = dur(acc)
    m["metrics.accuracy.concurrency"] = dur(pooled) / dur(acc) if acc else 0.0
    g = group("metrics.off_manifold_threshold")
    m["metrics.off_manifold_threshold.calls"] = len(g)
    m["metrics.off_manifold_threshold.s"] = dur(g)
    for name in CLI_STAGES + ("cli.cmd_pipeline",):
        m[f"{name}.s"] = dur(group(name))
    pipelines = group("cli.cmd_pipeline")
    pipeline_ids = {s.id for s in pipelines}
    runs = sum(1 for s in group(*CLI_STAGES) if s.parent in pipeline_ids)
    m["cli.cmd_pipeline.self_s"] = selft(pipelines)
    m["cli.stage.runs"] = runs
    m["cli.stage.skips"] = max(0, len(pipelines) * pipeline_stages - runs)
    m["cli.stage.rerun_ratio"] = runs / needed_stage_runs if needed_stage_runs else 0.0
    g = group("config.RunConfig.digest")
    m["config.digest.calls"] = len(g)
    m["config.digest.s"] = dur(g)
    m["config.load_config.s"] = dur(group("config.load_config"))
    m["trace.spans"] = len(spans)
    return m
