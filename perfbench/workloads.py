"""The benchmark's workloads: config, set-up, one timed round, output checks.

Every workload drives the program from outside and in process, through
`ant_lab.cli.main`, with a config file the benchmark writes; the workload
seed reaches the program only as `--seed`.  One round is the command
sequence a user of that stage would issue; only the commands are timed.
The checks run after each round and after the timed window, untimed, and
each check counts as one attempt.

All workloads use the default net (K=8 concepts, C=3 contexts, width 128, two
hidden layers, about 20k parameters); they shorten only the step and sample
counts so that one round takes a second or a few.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Shrinks every workload to a seconds-long smoke run; used by the tests.
TINY = {
    "data.n_concepts": 4, "data.n_samples": 500,
    "net.hidden_width": 16, "net.time_embed_dim": 8, "net.cond_embed_dim": 4,
    "pretrain.batch": 64, "saliency.n_seeds": 2,
    "ant.n_infer_steps": 10, "eval.n_infer_steps": 10,
}


class CommandFailed(RuntimeError):
    pass


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def artifact_digests(run_dir) -> dict:
    """Digest of every artifact in a run dir.

    Skips the stamps and resolved config, which embed the run dir's path,
    and the benchmark's own config file.
    """
    return {name: file_digest(os.path.join(run_dir, name))
            for name in sorted(os.listdir(run_dir))
            if not name.startswith(".") and name not in ("resolved_config.txt", "bench.cfg")}


class Runner:
    """One benchmark run: seed, output dir, and its attempt and failure counts."""

    def __init__(self, cli, out_dir: str, seed: int):
        self.cli = cli
        self.out_dir = out_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.out_dir, f"{self._dirs:02d}-{label}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def write_config(self, run_dir: str, values: dict) -> None:
        path = os.path.join(run_dir, "bench.cfg")
        with open(path + ".tmp", "w") as f:
            for key in sorted(values):
                v = values[key]
                f.write(f"{key} = {str(v).lower() if isinstance(v, bool) else v}\n")
        os.replace(path + ".tmp", path)

    def command(self, run_dir: str, *argv: str, seed: int | None = None) -> float:
        """Run one CLI command on the run dir; returns its wall time in seconds."""
        seed = self.seed if seed is None else seed
        args = ["--config", os.path.join(run_dir, "bench.cfg"), "--run-dir", run_dir,
                "--seed", str(seed), *argv]
        self.attempted += 1
        t0 = time.perf_counter()
        rc = self.cli.main(args)
        dt = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            self.errors.append(f"`ant-lab {' '.join(argv)}` exited {rc}")
            raise CommandFailed(self.errors[-1])
        return dt

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")
        return ok


@dataclass
class Round:
    wall: float          # the whole timed command sequence
    main: float          # the workload's main command
    second: float        # its second command
    work: float          # work units done by the commands timed in work_s
    work_s: float
    phase: object = 0    # rounds of one phase must give identical artifacts
    products: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    traced: bool = False
    warmup: bool = False


def _read_csv(path):
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    return rows[0], rows[1:]


def _bitwise_equal(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Workload:
    name = ""
    main_cmd = ""
    second_cmd = ""
    names: dict = {}     # generic metric -> this workload's own name for it
    overrides: dict = {}
    tiny_overrides: dict = {}

    def __init__(self, tiny: bool = False):
        self.config = dict(self.overrides)
        if tiny:
            self.config.update(TINY)
            self.config.update(self.tiny_overrides)

    def __getitem__(self, key):
        from ant_lab.config import DEFAULTS
        return self.config.get(key, DEFAULTS[key])

    def setup(self, s: Runner, run_dir: str) -> None:
        raise NotImplementedError

    def round(self, s: Runner, run_dir: str, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, s: Runner, run_dir: str, rnd: Round) -> None:
        pass

    def needed_stage_runs(self) -> int:
        """Pipeline stages whose inputs one round changes; see cli.stage.rerun_ratio."""
        return 0

    def finish(self, s: Runner, run_dir: str, setup_products: list, rounds: list) -> None:
        """Cross-round checks: rounds of a phase agree, and inputs stay untouched."""
        for p in setup_products[1:]:
            s.check(p == setup_products[0], f"{self.name}: repeated set-ups gave different artifacts")
        first = {}
        for r in rounds:
            ref = first.setdefault(r.phase, r.products)
            label = "traced" if r.traced else "untraced"
            s.check(r.products == ref,
                    f"{self.name}: {label} round artifacts differ from the first round's")
            kept = {k: v for k, v in r.products.items() if k in setup_products[0]}
            s.check(kept == setup_products[0],
                    f"{self.name}: a round changed the artifacts it started from")


class Train(Workload):
    """gen-data then pretrain: ScoreNet.loss_and_grad at B=256 and full-vector Adam."""

    name = "train"
    main_cmd, second_cmd = "pretrain", "gen-data"
    names = {"work_per_s": "pretrain_steps_per_s"}
    overrides = {"pretrain.steps": 250}
    tiny_overrides = {"pretrain.steps": 20}

    def setup(self, s, run_dir):
        s.write_config(run_dir, self.config)
        s.command(run_dir, "gen-data")

    def round(self, s, run_dir, index):
        t0 = time.perf_counter()
        gen = s.command(run_dir, "gen-data")
        pre = s.command(run_dir, "pretrain")
        wall = time.perf_counter() - t0
        return Round(wall, pre, gen, self["pretrain.steps"], pre,
                     products=artifact_digests(run_dir))

    def check_round(self, s, run_dir, rnd):
        from ant_lab.net import load_checkpoint, save_checkpoint
        _, rows = _read_csv(os.path.join(run_dir, "pretrain_loss.csv"))
        losses = [float(r[1]) for r in rows]
        steps = self["pretrain.steps"]
        s.check(len(losses) == math.ceil(steps / 100) and int(rows[-1][0]) == steps,
                "train: pretrain_loss.csv does not cover every step")
        s.check(all(math.isfinite(v) for v in losses), "train: non-finite pretraining loss")
        rnd.values["pretrain_loss"] = losses[-1]
        ckpt = os.path.join(run_dir, "pretrained.ckpt")
        copy = os.path.join(s.out_dir, "reload.ckpt")
        save_checkpoint(copy, load_checkpoint(ckpt)[1])
        s.check(file_digest(copy) == file_digest(ckpt),
                "train: pretrained.ckpt does not reload to identical bytes")
        os.unlink(copy)


class Erase(Workload):
    """saliency, masked erase, erase-multi: teacher passes and Adam at B=16."""

    name = "erase"
    main_cmd, second_cmd = "erase", "erase-multi"
    names = {"main_s": "erase_s", "second_s": "erase_multi_s", "work_per_s": "erase_steps_per_s"}
    overrides = {"pretrain.steps": 300, "ant.use_mask": True, "ant.steps": 40,
                 "fuse.steps": 15}
    tiny_overrides = {"pretrain.steps": 20, "ant.steps": 4, "fuse.steps": 2}
    # The seed draws each step's timesteps, and so the length of every DDIM
    # ladder in make_latents: one seed's erase costs up to 20 % more than
    # another's.  Rounds therefore cycle through ROUND_SEEDS seeds derived
    # from --seed, two consecutive rounds per seed, so that a run's median
    # does not rest on one draw and a traced round repeats an untraced one.
    ROUND_SEEDS = 4

    def setup(self, s, run_dir):
        s.write_config(run_dir, self.config)
        s.command(run_dir, "gen-data")
        s.command(run_dir, "pretrain")

    def round(self, s, run_dir, index):
        phase = (index + 1) // 2 % self.ROUND_SEEDS
        seed = s.seed * self.ROUND_SEEDS + phase
        t0 = time.perf_counter()
        s.command(run_dir, "saliency", seed=seed)
        erase = s.command(run_dir, "erase", seed=seed)
        multi = s.command(run_dir, "erase-multi", seed=seed)
        wall = time.perf_counter() - t0
        n_fuse = len([t for t in str(self["fuse.concepts"]).split(",") if t.strip()])
        work = self["ant.steps"] + n_fuse * self["fuse.steps"]
        return Round(wall, erase, multi, work, erase + multi, phase=phase,
                     products=artifact_digests(run_dir))

    def check_round(self, s, run_dir, rnd):
        from ant_lab.net import load_checkpoint
        from ant_lab.saliency import load_mask

        def flat(name):
            return load_checkpoint(os.path.join(run_dir, name))[1]

        pre, erased, fused = flat("pretrained.ckpt"), flat("erased.ckpt"), flat("fused.ckpt")
        mask = load_mask(os.path.join(run_dir, "saliency_mask.txt")).bits
        if not s.check(len(mask) == len(pre.flat), "erase: mask length != parameter count"):
            return
        keep = ~mask
        s.check(_bitwise_equal(erased.flat[keep], pre.flat[keep]),
                "erase: erased.ckpt changed coordinates outside the saliency mask")
        s.check(not _bitwise_equal(erased.flat[mask], pre.flat[mask]),
                "erase: erased.ckpt left every masked coordinate unchanged")
        w_cond = np.zeros(len(pre.flat), dtype=bool)
        for name, off, shape in pre.layout:
            if name == "w_cond":
                w_cond[off:off + int(np.prod(shape))] = True
        s.check(_bitwise_equal(fused.flat[~w_cond], pre.flat[~w_cond]),
                "erase: fused.ckpt differs from pretrained.ckpt outside w_cond")
        s.check(not _bitwise_equal(fused.flat[w_cond], pre.flat[w_cond]),
                "erase: fused.ckpt left w_cond unchanged")
        _, rows = _read_csv(os.path.join(run_dir, "erase_log.csv"))
        rnd.values["mask_active"] = int(mask.sum())
        rnd.values["erase_loss"] = float(rows[-1][-1])


class Evaluate(Workload):
    """eval and sweep-tprime: forward-only guided DDIM at B=100-250, oracles, thread pool."""

    name = "evaluate"
    main_cmd, second_cmd = "eval", "sweep-tprime"
    names = {"main_s": "eval_s", "second_s": "sweep_s", "work_per_s": "samples_per_s"}
    overrides = {"pretrain.steps": 300, "ant.steps": 40, "eval.n_samples": 250,
                 "sweep.n_samples": 100, "sweep.grid": "0,10,20,30,40,50,60,70,80,90,100"}
    tiny_overrides = {"pretrain.steps": 20, "ant.steps": 4, "eval.n_samples": 100}

    def setup(self, s, run_dir):
        s.write_config(run_dir, self.config)
        s.command(run_dir, "gen-data")
        s.command(run_dir, "pretrain")
        s.command(run_dir, "erase")

    def _grid(self):
        return [int(t) for t in str(self["sweep.grid"]).split(",") if t.strip()]

    def round(self, s, run_dir, index):
        t0 = time.perf_counter()
        ev = s.command(run_dir, "eval")
        sw = s.command(run_dir, "sweep-tprime")
        wall = time.perf_counter() - t0
        # requested samples; the resampling inside evaluate() does not count
        work = (self["data.n_concepts"] * self["eval.n_samples"]
                + len(self._grid()) * self["sweep.n_samples"])
        return Round(wall, ev, sw, work, ev + sw, products=artifact_digests(run_dir))

    def check_round(self, s, run_dir, rnd):
        K, target = self["data.n_concepts"], self["ant.target_concept"]
        header, rows = _read_csv(os.path.join(run_dir, "eval_report.csv"))
        concepts = [r for r in rows if r[0] != "aggregate"]
        agg = {r[1]: r[2] for r in rows if r[0] == "aggregate"}
        ok = (header == ["concept", "role", "accuracy", "w2_vs_oracle"]
              and [r[0] for r in concepts] == [str(k) for k in range(K)]
              and all(r[1] == ("erased" if int(r[0]) == target else "preserved")
                      for r in concepts)
              and set(agg) == {"acc_e", "acc_p", "h_c", "off_manifold_frac"})
        if not s.check(ok, "evaluate: eval_report.csv is malformed"):
            return
        values = [float(r[2]) for r in concepts] + [float(v) for v in agg.values()]
        s.check(all(0.0 <= v <= 1.0 for v in values),
                "evaluate: an accuracy or aggregate lies outside [0, 1]")
        acc = {int(r[0]): float(r[2]) for r in concepts}
        acc_e = acc[target]
        acc_p = sum(v for k, v in acc.items() if k != target) / (K - 1)
        h_c = 2.0 / (1.0 / (1.0 - acc_e) + 1.0 / acc_p) if acc_e < 1 and acc_p > 0 else 0.0
        s.check(all(math.isclose(float(agg[k]), v, rel_tol=1e-12, abs_tol=1e-15)
                    for k, v in (("acc_e", acc_e), ("acc_p", acc_p), ("h_c", h_c))),
                "evaluate: eval_report.csv aggregates disagree with its per-concept rows")
        header, rows = _read_csv(os.path.join(run_dir, "sweep.csv"))
        ok = (header == ["t_prime", "frac_target", "off_manifold_frac"]
              and [int(r[0]) for r in rows] == self._grid()
              and all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:]))
        s.check(ok, "evaluate: sweep.csv is malformed")
        rnd.values["h_c"] = float(agg["h_c"])
        rnd.values["off_manifold_frac"] = float(agg["off_manifold_frac"])


class Pipeline(Workload):
    """Re-run `pipeline` after changing only eval.n_samples: stamps and artifact I/O."""

    name = "pipeline"
    main_cmd, second_cmd = "pipeline (after eval.n_samples changed)", "pipeline (no change)"
    names = {"main_s": "rerun_s"}
    overrides = {"pretrain.steps": 100, "ant.steps": 20}
    tiny_overrides = {"pretrain.steps": 20, "ant.steps": 4}
    # Two eval sizes a sample apart, so alternating rounds do the same work.
    N_EVAL = (100, 101)
    # A no-op re-run takes a few milliseconds, too short for one timing per
    # round to be steady: each round times this many and keeps their median.
    NOOP_REPEATS = 9
    # Extra pretraining steps for the untimed upstream-change check in finish().
    UPSTREAM_STEPS = 10

    def __init__(self, tiny=False):
        super().__init__(tiny)
        self.config["eval.n_samples"] = self.N_EVAL[0]

    def setup(self, s, run_dir):
        s.write_config(run_dir, self.config)
        s.command(run_dir, "pipeline")

    def needed_stage_runs(self):
        return 1  # only eval reads eval.n_samples

    def round(self, s, run_dir, index):
        n = self.N_EVAL[(index + 1) % 2]
        s.write_config(run_dir, {**self.config, "eval.n_samples": n})
        rerun = s.command(run_dir, "pipeline")
        products = artifact_digests(run_dir)
        noops = [s.command(run_dir, "pipeline") for _ in range(self.NOOP_REPEATS)]
        noop = statistics.median(noops)
        wall = rerun + noop
        s.check(artifact_digests(run_dir) == products,
                "pipeline: a no-change re-run changed artifacts")
        work = self["data.n_concepts"] * n
        return Round(wall, rerun, noop, work, rerun, phase=n, products=products)

    def check_round(self, s, run_dir, rnd):
        _, rows = _read_csv(os.path.join(run_dir, "eval_report.csv"))
        agg = {r[1]: float(r[2]) for r in rows if r[0] == "aggregate"}
        rnd.values["h_c"] = agg.get("h_c", float("nan"))

    def _cold(self, s, values):
        cold_dir = s.fresh_dir("cold")
        s.write_config(cold_dir, values)
        s.command(cold_dir, "pipeline")
        return artifact_digests(cold_dir)

    def finish(self, s, run_dir, setup_products, rounds):
        """Every re-run's artifacts equal a cold pipeline run of the same config."""
        for p in setup_products[1:]:
            s.check(p == setup_products[0], "pipeline: repeated cold runs gave different artifacts")
        cold = {self.N_EVAL[0]: setup_products[0]}
        for r in rounds:
            if r.phase not in cold:
                cold[r.phase] = self._cold(s, {**self.config, "eval.n_samples": r.phase})
            label = "traced" if r.traced else "untraced"
            s.check(r.products == cold[r.phase],
                    f"pipeline: {label} re-run artifacts differ from a cold run")
        # The rounds change only eval.n_samples, so every stage before eval
        # gives the same bytes whether it re-runs or not.  An upstream change
        # must reach every stage after it: a stamp that ignores pretrain.steps
        # would leave a stale checkpoint and reports behind.
        upstream = {**self.config, "pretrain.steps": self["pretrain.steps"] + self.UPSTREAM_STEPS}
        s.write_config(run_dir, upstream)
        s.command(run_dir, "pipeline")
        s.check(artifact_digests(run_dir) == self._cold(s, upstream),
                "pipeline: a re-run after a pretrain.steps change differs from a cold run")


WORKLOADS = {w.name: w for w in (Train, Erase, Evaluate, Pipeline)}
