"""Command-line pipeline driver.

Subcommands cover the whole experiment flow: data generation, pretraining,
saliency, single- and multi-concept erasure, ablations, reversal-timestep
sweeps, evaluation, and SVG plotting.  Every stage writes its artifacts
atomically into --run-dir together with the fully resolved config, and the
`pipeline` command skips completed stages by artifact checksum.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from . import diffusion, fusion, metrics, plots
from .config import DEFAULTS, ConfigError, RunConfig, load_config, parse_value
from .finetune import ABLATION_VARIANTS, erase_single, run_ablation, save_erase_log
from .mixture import bayes_classify_batch, load_dataset_csv, sample_dataset, save_dataset_csv
from .net import ScoreNet, clone_frozen, load_checkpoint, save_checkpoint
from .pretrain import pretrain, save_loss_curve
from .saliency import build_concept_mask, load_mask, save_mask, save_saliency_curve

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


def _run_path(cfg, name):
    return os.path.join(cfg["run_dir"], name)


def _prepare_run_dir(cfg: RunConfig) -> None:
    os.makedirs(cfg["run_dir"], exist_ok=True)
    _atomic(_run_path(cfg, "resolved_config.txt"),
            lambda p: open(p, "w").write(cfg.resolved_text()))


def _require(cfg, name):
    path = _run_path(cfg, name)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing artifact {path}; run the producing stage first")
    return path


def _load_net(cfg, name):
    net_cfg, params = load_checkpoint(_require(cfg, name))
    return ScoreNet(net_cfg), params


def cmd_gen_data(cfg: RunConfig) -> None:
    ds = sample_dataset(cfg.mixture_spec(), cfg["data.n_samples"], cfg["seed"])
    _atomic(_run_path(cfg, "dataset.csv"), lambda p: save_dataset_csv(ds, p))


def cmd_pretrain(cfg: RunConfig) -> None:
    ds = load_dataset_csv(_require(cfg, "dataset.csv"), cfg.mixture_spec(), cfg["seed"])
    net = ScoreNet(cfg.net_config())
    params, curve = pretrain(net, cfg.schedule(), ds, cfg.pretrain_config())
    _atomic(_run_path(cfg, "pretrained.ckpt"), lambda p: save_checkpoint(p, params))
    _atomic(_run_path(cfg, "pretrain_loss.csv"), lambda p: save_loss_curve(curve, p))


def cmd_saliency(cfg: RunConfig) -> None:
    net, params = _load_net(cfg, "pretrained.ckpt")
    mask, curve = build_concept_mask(net, params, clone_frozen(params),
                                     cfg["ant.target_concept"], cfg.saliency_config(),
                                     cfg.ant_config(), cfg.schedule(),
                                     base_seed=cfg["seed"], data_spec=cfg.mixture_spec())
    _atomic(_run_path(cfg, "saliency_mask.txt"), lambda p: save_mask(mask, p))
    _atomic(_run_path(cfg, "saliency_curve.csv"), lambda p: save_saliency_curve(curve, p))


def cmd_erase(cfg: RunConfig) -> None:
    net, params = _load_net(cfg, "pretrained.ckpt")
    mask = load_mask(_require(cfg, "saliency_mask.txt")) if cfg["ant.use_mask"] else None
    toggles = ABLATION_VARIANTS[cfg["ant.variant"]]
    erased, rows, _ = erase_single(net, params, cfg["ant.target_concept"],
                                   cfg.ant_config(), cfg.schedule(), mask=mask,
                                   toggles=toggles, data_spec=cfg.mixture_spec())
    _atomic(_run_path(cfg, "erased.ckpt"), lambda p: save_checkpoint(p, erased))
    _atomic(_run_path(cfg, "erase_log.csv"), lambda p: save_erase_log(rows, p))


def cmd_erase_multi(cfg: RunConfig) -> None:
    net, params = _load_net(cfg, "pretrained.ckpt")
    concepts = cfg.fuse_concepts()
    fused, adapters, _ = fusion.erase_multi(net, params, concepts, cfg.lora_config(),
                                            cfg.schedule(), beta=cfg["fuse.beta"],
                                            rank=cfg["fuse.rank"],
                                            data_spec=cfg.mixture_spec())
    _atomic(_run_path(cfg, "fused.ckpt"), lambda p: save_checkpoint(p, fused))
    for k in concepts:
        _atomic(_run_path(cfg, f"adapter_{k}.txt"),
                lambda p, k=k: fusion.save_adapter(adapters[k], k, p))


def cmd_ablate(cfg: RunConfig) -> None:
    net, params = _load_net(cfg, "pretrained.ckpt")
    oracle = cfg.mixture_spec()
    results = [run_ablation(net, params, cfg["ant.target_concept"], v, cfg.ant_config(),
                            cfg.schedule(), oracle, cfg.guidance(),
                            n_eval=max(100, cfg["eval.n_samples"] // 2),
                            eval_seed=cfg["seed"], data_spec=oracle)
               for v in ABLATION_VARIANTS]

    def write(p):
        with open(p, "w") as f:
            f.write("variant,acc_e,acc_p,h_c\n")
            for r in results:
                f.write(f"{r['variant']},{r['acc_e']:.17g},{r['acc_p']:.17g},{r['h_c']:.17g}\n")
    _atomic(_run_path(cfg, "ablation.csv"), write)


def cmd_sample(cfg: RunConfig, concept: int | None, t_prime: int | None,
               checkpoint: str) -> None:
    concept = cfg["ant.target_concept"] if concept is None else concept
    net, params = _load_net(cfg, checkpoint)
    guidance = cfg.guidance(t_prime)
    n = cfg["sweep.n_samples"]
    schedule = cfg.schedule()
    pts, traj = diffusion.sample(net, params, schedule, guidance, (concept, None),
                                 n, cfg["seed"], record_trajectory=True)
    ladder = diffusion.infer_ladder(schedule, guidance.n_infer_steps)

    def write_pts(p):
        with open(p, "w") as f:
            f.write("x,y,cond\n")
            for x, y in pts:
                f.write(f"{x:.17g},{y:.17g},{concept}\n")

    def write_traj(p):
        n_chains = min(10, n)
        with open(p, "w") as f:
            f.write("chain,step,t,x,y\n")
            for c in range(n_chains):
                for s in range(traj.shape[0]):
                    f.write(f"{c},{s},{ladder[s]},"
                            f"{traj[s, c, 0]:.17g},{traj[s, c, 1]:.17g}\n")

    _atomic(_run_path(cfg, f"samples_k{concept}.csv"), write_pts)
    _atomic(_run_path(cfg, f"trajectories_k{concept}.csv"), write_traj)


def cmd_sweep_tprime(cfg: RunConfig) -> None:
    net, params = _load_net(cfg, "pretrained.ckpt")
    oracle = cfg.mixture_spec()
    schedule = cfg.schedule()
    target = cfg["ant.target_concept"]
    n = cfg["sweep.n_samples"]
    threshold = metrics.off_manifold_threshold(oracle)
    rows = []
    for tp in cfg.sweep_grid():
        pts = diffusion.sample(net, params, schedule, cfg.guidance(tp), (target, None),
                               n, cfg["seed"])
        frac = float(np.mean(bayes_classify_batch(oracle, pts) == target))
        off = metrics.off_manifold_fraction(pts, oracle, threshold)
        rows.append((tp, frac, off))

    def write(p):
        with open(p, "w") as f:
            f.write("t_prime,frac_target,off_manifold_frac\n")
            for tp, frac, off in rows:
                f.write(f"{tp},{frac:.17g},{off:.17g}\n")
    _atomic(_run_path(cfg, "sweep.csv"), write)
    _atomic(_run_path(cfg, "sweep.svg"),
            lambda p: plots.plot_sweep(_run_path(cfg, "sweep.csv"), p))


def cmd_eval(cfg: RunConfig, checkpoint: str) -> None:
    net, params = _load_net(cfg, checkpoint)
    erased = cfg.fuse_concepts() if checkpoint == "fused.ckpt" else [cfg["ant.target_concept"]]
    report = metrics.evaluate(net, params, cfg.schedule(), cfg.guidance(),
                              cfg.mixture_spec(), erased,
                              n=cfg["eval.n_samples"], seed=cfg["seed"])
    _atomic(_run_path(cfg, "eval_report.csv"), lambda p: metrics.save_eval_report(report, p))


def cmd_plot(cfg: RunConfig) -> None:
    made = []
    pairs = [("sweep.csv", "sweep.svg", plots.plot_sweep),
             ("saliency_curve.csv", "saliency_curve.svg", plots.plot_saliency_curve)]
    for k in range(cfg["data.n_concepts"]):
        pairs.append((f"trajectories_k{k}.csv", f"trajectories_k{k}.svg",
                      plots.plot_trajectories))
    for src, dst, fn in pairs:
        src_path = _run_path(cfg, src)
        if os.path.exists(src_path):
            _atomic(_run_path(cfg, dst), lambda p, fn=fn, s=src_path: fn(s, p))
            made.append(dst)
    if not made:
        raise FileNotFoundError(f"no plottable CSV artifacts in {cfg['run_dir']}")


def _stamp_path(cfg, stage):
    return _run_path(cfg, f".stamp-{stage}")


def _stage_fresh(cfg, stage, outputs) -> bool:
    stamp = _stamp_path(cfg, stage)
    if not os.path.exists(stamp):
        return False
    with open(stamp) as f:
        lines = dict(ln.strip().split(" ", 1) for ln in f if ln.strip())
    if lines.get("config") != cfg.digest():
        return False
    for name in outputs:
        path = _run_path(cfg, name)
        if not os.path.exists(path) or _file_digest(path) != lines.get(name):
            return False
    return True


def _write_stamp(cfg, stage, outputs) -> None:
    def write(p):
        with open(p, "w") as f:
            f.write(f"config {cfg.digest()}\n")
            for name in outputs:
                f.write(f"{name} {_file_digest(_run_path(cfg, name))}\n")
    _atomic(_stamp_path(cfg, stage), write)


def cmd_pipeline(cfg: RunConfig, force: bool) -> None:
    for stage, outputs in PIPELINE_STAGES:
        if not force and _stage_fresh(cfg, stage, outputs):
            log.info("stage %s up to date; skipping", stage)
            continue
        log.info("running stage %s", stage)
        try:
            # a stage runs as its own command would with default options
            COMMANDS[stage].run(cfg, build_parser().parse_args([stage]))
        except Exception as e:
            raise RuntimeError(f"pipeline halted at stage {stage!r}: {e}") from e
        _write_stamp(cfg, stage, outputs)

    def write_summary(p):
        with open(_run_path(cfg, "eval_report.csv")) as f:
            agg = [ln for ln in f if ln.startswith("aggregate,")]
        with open(p, "w") as f:
            f.write("metric,value\n")
            for ln in agg:
                _, key, val, _ = ln.strip().split(",")
                f.write(f"{key},{val}\n")
    _atomic(_run_path(cfg, "summary.csv"), write_summary)


class Command(NamedTuple):
    # run(cfg, args) looks its cmd_* function up by name at call time, so a
    # wrapper installed on the module attribute (perfbench's tracer) sees it
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
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = parse_value(key, raw)
    if args.run_dir is not None:
        overrides["run_dir"] = args.run_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        cfg = _resolve(args)
        _prepare_run_dir(cfg)
        COMMANDS[args.command].run(cfg, args)
        return 0
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
