"""Command-line pipeline driver.

Subcommands cover the whole experiment flow: data generation, pretraining,
saliency, single- and multi-concept erasure, ablations, reversal-timestep
sweeps, evaluation, and SVG plotting.  Every command returns its artifacts,
which one writer puts atomically into --run-dir, made on the first write, next
to the fully resolved config; a command that fails before it writes makes no run dir.
The `pipeline` command re-runs a stage only when a config key it read, an input
artifact it opened, its own outputs or the package source changed since its stamp.
`eval` and `sweep-tprime` reuse the off-manifold threshold in oracle_threshold.txt
under the same rule, through the stamp .stamp-threshold.

Exit codes: 0 success, 1 validation error (ConfigError), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import diffusion, fusion, metrics, plots
from .config import KEYS, MIXTURE_KEYS, ConfigError, RunConfig, load_config, parse_value
from .finetune import ABLATION_VARIANTS, LOG_COLUMNS, erase_single, run_ablation
from .mixture import bayes_classify_batch, load_dataset_csv, sample_dataset, save_dataset_csv
from .net import ScoreNet, clone_frozen, load_checkpoint, save_checkpoint
from .pretrain import pretrain
from .saliency import build_concept_mask, load_mask, save_mask
from .textfile import csv_text, read_exact

log = logging.getLogger(__name__)

def _atomic(path, write_fn):
    """Write via a temp file in the same directory, then rename into place."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _source_digest() -> str:
    """sha256 over the package's own .py files, by name and content."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    names = sorted(n for n in os.listdir(pkg) if n.endswith(".py"))
    text = "".join(f"{n} {_file_digest(os.path.join(pkg, n))}\n" for n in names)
    return hashlib.sha256(text.encode()).hexdigest()


# Stamped with every stage, so a stage made by other code is never fresh.
SOURCE_DIGEST = _source_digest()


def _csv(header, rows):
    return lambda path: Path(path).write_text(csv_text(header, rows))


def _run_path(cfg, name):
    return os.path.join(cfg["run_dir"], name)


def _write(cfg, artifacts: dict) -> None:
    """Write {name: writer(path)} artifacts atomically, in order, then resolved_config.txt,
    into the run dir, made if missing.  Nothing else writes into the run dir."""
    os.makedirs(cfg["run_dir"], exist_ok=True)
    for name, write in artifacts.items():
        _atomic(_run_path(cfg, name), write)
    _atomic(_run_path(cfg, "resolved_config.txt"),
            lambda p: Path(p).write_text(cfg.resolved_text()))


_opened: set = set()  # the inputs that the running `pipeline` stage opened
_seen: dict = {}  # sha256 (None: missing) of each artifact path this command hashed


def _require(cfg, name):
    path = _run_path(cfg, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing artifact {path}; run the producing stage first")
    _opened.add(name)
    return path


def _load_net(cfg, name):
    path = _require(cfg, name)
    net_cfg, params = load_checkpoint(path)
    ours = vars(cfg.net_config)
    for field, theirs in vars(net_cfg).items():
        if theirs != ours[field]:
            raise ValueError(f"checkpoint {path} has {field} = {theirs}, "
                             f"but the config gives {ours[field]}")
    return ScoreNet(net_cfg), params


THRESHOLD = "oracle_threshold.txt"


def _finite_threshold(value: float) -> float:
    if not np.isfinite(value):  # a round trip cannot reject nan
        raise ValueError(f"the off-manifold threshold is {value}, not a finite number")
    return value


def _threshold_text(value: float) -> str:
    return f"{value:.17g}\n"


def _threshold(cfg) -> tuple[float, dict]:
    """The off-manifold threshold and the artifacts to write for it.  THRESHOLD is
    read ({}) by the rule of textfile.read_exact while `.stamp-threshold` holds, and
    drawn again otherwise: then the value and its stamp are written, in that order,
    so the stamp hashes the bytes on disk.  A value read or drawn that is not finite
    raises ValueError.  Either way THRESHOLD counts as opened, so a stage's stamp
    reads the same whether the value was drawn or read."""
    _opened.add(THRESHOLD)
    if not _stale(cfg, "threshold", (THRESHOLD,)):
        return read_exact(_run_path(cfg, THRESHOLD), "off-manifold threshold file",
                          lambda text: _finite_threshold(float(text)), _threshold_text), {}
    value = _finite_threshold(metrics.off_manifold_threshold(cfg.mixture_spec))
    return value, {THRESHOLD: lambda p: Path(p).write_text(_threshold_text(value)),
                   ".stamp-threshold": lambda p: Path(p).write_text(
                       _stamp(cfg, MIXTURE_KEYS, (), (THRESHOLD,)))}


def cmd_gen_data(cfg: RunConfig) -> dict:
    ds = sample_dataset(cfg.mixture_spec, cfg["data.n_samples"], cfg["seed"])
    return {"dataset.csv": lambda p: save_dataset_csv(ds, p)}


def cmd_pretrain(cfg: RunConfig) -> dict:
    ds = load_dataset_csv(_require(cfg, "dataset.csv"), cfg.mixture_spec)
    net = ScoreNet(cfg.net_config)
    params, curve = pretrain(net, cfg.schedule, ds, cfg.pretrain_config)
    return {"pretrained.ckpt": lambda p: save_checkpoint(p, params),
            "pretrain_loss.csv": _csv(("step", "loss"), curve)}


def cmd_saliency(cfg: RunConfig) -> dict:
    net, params = _load_net(cfg, "pretrained.ckpt")
    mask, curve = build_concept_mask(net, params, clone_frozen(params),
                                     cfg["ant.target_concept"], cfg.saliency_config,
                                     cfg.loss_config, cfg.schedule,
                                     base_seed=cfg["seed"])
    return {"saliency_mask.txt": lambda p: save_mask(mask, p),
            "saliency_curve.csv": _csv(("n_maps", "active_params"), curve)}


def cmd_erase(cfg: RunConfig) -> dict:
    net, params = _load_net(cfg, "pretrained.ckpt")
    mask = load_mask(_require(cfg, "saliency_mask.txt")) if cfg["ant.use_mask"] else None
    if mask is not None and len(mask) != net.n_params:
        raise ValueError(f"saliency mask {_run_path(cfg, 'saliency_mask.txt')} covers {len(mask)} "
                         f"coordinates, but pretrained.ckpt has {net.n_params}; run saliency again")
    erased, rows, _ = erase_single(net, params, cfg["ant.target_concept"],
                                   cfg.ant_config, cfg.schedule, mask=mask,
                                   toggles=ABLATION_VARIANTS[cfg["ant.variant"]])
    return {"erased.ckpt": lambda p: save_checkpoint(p, erased),
            "erase_log.csv": _csv(LOG_COLUMNS, rows)}


def cmd_erase_multi(cfg: RunConfig) -> dict:
    net, params = _load_net(cfg, "pretrained.ckpt")
    concepts = cfg.fuse_concepts
    fused, adapters, _ = fusion.erase_multi(net, params, concepts, cfg.lora_config,
                                            cfg.schedule, beta=cfg["fuse.beta"],
                                            rank=cfg["fuse.rank"])
    return {"fused.ckpt": lambda p: save_checkpoint(p, fused),
            **{f"adapter_{k}.txt": lambda p, k=k: fusion.save_adapter(adapters[k], k, p)
               for k in concepts}}


def cmd_ablate(cfg: RunConfig) -> dict:
    net, params = _load_net(cfg, "pretrained.ckpt")
    oracle = cfg.mixture_spec
    results = [run_ablation(net, params, cfg["ant.target_concept"], v, cfg.ant_config,
                            cfg.schedule, oracle, cfg.guidance(),
                            n_eval=max(100, cfg["eval.n_samples"] // 2),
                            eval_seed=cfg["seed"])
               for v in ABLATION_VARIANTS]
    columns = ("variant", "acc_e", "acc_p", "h_c")
    return {"ablation.csv": _csv(columns, [[r[c] for c in columns] for r in results])}


def cmd_sample(cfg: RunConfig, concept: int | None, t_prime: int | None,
               checkpoint: str) -> dict:
    # the flags take the bounds of ant.target_concept and eval.t_prime
    concept = cfg["ant.target_concept"] if concept is None else concept
    t_prime = cfg["eval.t_prime"] if t_prime is None else t_prime
    cfg.check("--concept", concept, KEYS["ant.target_concept"][1:])
    cfg.check("--t-prime", t_prime, KEYS["eval.t_prime"][1:])
    guidance = cfg.guidance(t_prime)
    net, params = _load_net(cfg, checkpoint)
    n = cfg["sweep.n_samples"]
    schedule = cfg.schedule
    pts, traj = diffusion.sample(net, params, schedule, guidance, (concept, None),
                                 n, cfg["seed"], record_trajectory=True)
    ladder = diffusion.infer_ladder(schedule, guidance.n_infer_steps)
    chains = [(c, s, ladder[s], *traj[s, c])
              for c in range(min(10, n)) for s in range(traj.shape[0])]
    return {f"samples_k{concept}.csv": _csv(("x", "y", "cond"),
                                            [(x, y, concept) for x, y in pts]),
            f"trajectories_k{concept}.csv": _csv(("chain", "step", "t", "x", "y"), chains)}


def cmd_sweep_tprime(cfg: RunConfig) -> dict:
    net, params = _load_net(cfg, "pretrained.ckpt")
    oracle = cfg.mixture_spec
    target = cfg["ant.target_concept"]
    threshold, drawn = _threshold(cfg)
    sweep = diffusion.sample_sweep(net, params, cfg.schedule, cfg.guidance(), (target, None),
                                   cfg["sweep.n_samples"], cfg["seed"], cfg.sweep_grid)
    rows = [(tp, float(np.mean(bayes_classify_batch(oracle, pts) == target)),
             metrics.off_manifold_fraction(pts, oracle, threshold))
            for tp, pts in zip(cfg.sweep_grid, sweep)]
    # the plot reads sweep.csv, which is written first
    return {"sweep.csv": _csv(("t_prime", "frac_target", "off_manifold_frac"), rows),
            "sweep.svg": lambda p: plots.plot_sweep(_run_path(cfg, "sweep.csv"), p),
            **drawn}


def cmd_eval(cfg: RunConfig, checkpoint: str) -> dict:
    net, params = _load_net(cfg, checkpoint)
    erased = cfg.fuse_concepts if checkpoint == "fused.ckpt" else [cfg["ant.target_concept"]]
    threshold, drawn = _threshold(cfg)
    report = metrics.evaluate(net, params, cfg.schedule, cfg.guidance(),
                              cfg.mixture_spec, erased, threshold,
                              n=cfg["eval.n_samples"], seed=cfg["seed"])
    rows = [(k, "erased" if k in report.erased else "preserved", acc,
             report.w2_per_preserved.get(k))
            for k, acc in sorted(report.per_concept_acc.items())]
    rows += [("aggregate", m, getattr(report, m), None)
             for m in ("acc_e", "acc_p", "h_c", "off_manifold_frac")]
    return {"eval_report.csv": _csv(("concept", "role", "accuracy", "w2_vs_oracle"), rows),
            **drawn}


def cmd_plot(cfg: RunConfig) -> dict:
    plotters = {"sweep": plots.plot_sweep, "saliency_curve": plots.plot_saliency_curve,
                **{f"trajectories_k{k}": plots.plot_trajectories
                   for k in range(cfg["data.n_concepts"])}}
    made = {f"{stem}.svg": lambda p, fn=fn, s=_run_path(cfg, f"{stem}.csv"): fn(s, p)
            for stem, fn in plotters.items() if os.path.exists(_run_path(cfg, f"{stem}.csv"))}
    if not made:
        raise FileNotFoundError(f"no plottable CSV artifacts in {cfg['run_dir']}")
    return made


def _stamp_line(cfg, kind, name) -> str:
    """A stamp line as it reads now: `key <key> = <value>`, or `<kind> <name> <sha256>`
    for an input or output artifact ("None" if missing), hashed once per command."""
    if kind == "key":
        return f"key {name} = {cfg.values.get(name)}"
    path = _run_path(cfg, name)
    if path not in _seen:
        _seen[path] = _file_digest(path) if os.path.exists(path) else None
    return f"{kind} {name} {_seen[path]}"


def _stale(cfg, stage, outputs) -> str:
    """Why `.stamp-<stage>` no longer vouches for the outputs (the stage must re-run),
    or "" while every line of it holds."""
    try:
        source, *lines = Path(_run_path(cfg, f".stamp-{stage}")).read_text().splitlines()
        stamp = {(kind, name): ln for ln in lines for kind, name, _ in [ln.split(" ", 2)]}
    except FileNotFoundError:
        return "no stamp"
    except ValueError:  # empty, not text, or a line of fewer than three words
        return "unparsable stamp"
    if not source.startswith("source "):  # also a stamp of the older format
        return "unparsable stamp"
    if source != f"source {SOURCE_DIGEST}":
        return "source digest changed"
    # in stamp order: a changed key re-runs the stage before any artifact is hashed
    for kind, name in [*stamp, *(("output", n) for n in outputs)]:
        old, now = stamp.get((kind, name)), _stamp_line(cfg, kind, name)
        if old != now:
            return (f"{name} {old.partition(' = ')[2]} -> {now.partition(' = ')[2]}"
                    if kind == "key" else
                    f"{kind} {name} {'missing' if now.endswith(' None') else 'changed'}")
    return ""


def _stage_fresh(cfg, stage, outputs) -> bool:
    if reason := _stale(cfg, stage, outputs):
        log.info("stage %s is stale: %s", stage, reason)
    return not reason


def _stamp(cfg, keys, inputs, outputs) -> str:
    """A stamp's text: the source digest, then a line for each key read, each input
    opened and each output, hashed again since the caller has just written it."""
    _seen.update((p, _file_digest(p)) for p in (_run_path(cfg, n) for n in outputs))
    entries = [*(("key", k) for k in keys), *(("input", n) for n in inputs),
               *(("output", n) for n in outputs)]
    return "".join(f"{ln}\n" for ln in [f"source {SOURCE_DIGEST}",
                                        *(_stamp_line(cfg, *e) for e in entries)])


def cmd_pipeline(cfg: RunConfig, force: bool) -> dict:
    for stage, outputs in PIPELINE_STAGES:
        if not force and _stage_fresh(cfg, stage, outputs):
            log.info("stage %s up to date; skipping", stage)
            continue
        t0 = time.perf_counter()
        cfg.reads.clear()
        _opened.clear()
        try:
            # a stage runs as its own command would with default options
            artifacts = COMMANDS[stage].run(cfg, build_parser().parse_args([stage]))
            # stamped last: the keys the stage read bar run_dir, the inputs it opened,
            # its outputs as just written
            artifacts[f".stamp-{stage}"] = lambda p: Path(p).write_text(
                _stamp(cfg, sorted(cfg.reads - {"run_dir"}), sorted(_opened), outputs))
            _write(cfg, artifacts)
        except Exception as e:
            raise RuntimeError(f"pipeline halted at stage {stage!r}: {e}") from e
        log.info("stage %s re-ran in %.2f s", stage, time.perf_counter() - t0)
    with open(_run_path(cfg, "eval_report.csv")) as f:
        agg = [ln.split(",")[1:3] for ln in f if ln.startswith("aggregate,")]
    return {"summary.csv": _csv(("metric", "value"), agg)}


class Command(NamedTuple):
    # run(cfg, args) returns the artifacts, {name: writer(path)}; it looks its cmd_*
    # function up by name at call time, so a wrapper on the module attribute sees it
    run: Callable
    outputs: tuple = ()  # artifacts stamped when `pipeline` runs it as a stage


# Every command, in help order; `pipeline` runs those with outputs, in this order.
COMMANDS = {
    "gen-data": Command(lambda cfg, args: cmd_gen_data(cfg), ("dataset.csv",)),
    "pretrain": Command(lambda cfg, args: cmd_pretrain(cfg),
                        ("pretrained.ckpt", "pretrain_loss.csv")),
    "saliency": Command(lambda cfg, args: cmd_saliency(cfg),
                        ("saliency_mask.txt", "saliency_curve.csv")),
    "erase": Command(lambda cfg, args: cmd_erase(cfg), ("erased.ckpt", "erase_log.csv")),
    "eval": Command(lambda cfg, args: cmd_eval(cfg, args.checkpoint), ("eval_report.csv",)),
    "erase-multi": Command(lambda cfg, args: cmd_erase_multi(cfg)),
    "ablate": Command(lambda cfg, args: cmd_ablate(cfg)),
    "sample": Command(lambda cfg, args: cmd_sample(cfg, args.concept, args.t_prime,
                                                   args.checkpoint)),
    "sweep-tprime": Command(lambda cfg, args: cmd_sweep_tprime(cfg)),
    "plot": Command(lambda cfg, args: cmd_plot(cfg)),
    "pipeline": Command(lambda cfg, args: cmd_pipeline(cfg, args.force)),
}
PIPELINE_STAGES = tuple((name, c.outputs) for name, c in COMMANDS.items() if c.outputs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argument problems are validation errors
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ant-lab", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--run-dir", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="global seed (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single config key")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name) for name in COMMANDS}
    subs["sample"].add_argument("--concept", type=int, default=None)
    subs["sample"].add_argument("--t-prime", type=int, default=None)
    subs["sample"].add_argument("--checkpoint", default="pretrained.ckpt")
    subs["eval"].add_argument("--checkpoint", default="erased.ckpt")
    subs["pipeline"].add_argument("--force", action="store_true",
                                  help="re-run every stage even if artifacts are up to date")
    return parser


def _resolve(args) -> RunConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (s.strip() for s in item.split("=", 1))
        overrides[key] = parse_value(key, raw)
    if args.run_dir is not None:
        overrides["run_dir"] = args.run_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    _seen.clear()  # a digest is trusted within one command only
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        cfg = _resolve(args)
        _write(cfg, COMMANDS[args.command].run(cfg, args))
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
