"""fork_map and shard_worker: the loop's results and failures on forked worker
processes, no process left behind, the loop wherever forking is not safe, and
the `ant-lab` entry's one BLAS thread.

The forked cases run in a fresh interpreter with one BLAS thread (the `fresh`
fixture), since a test process with BLAS threads takes the loop.  This module
imports no NumPy at its top, so that the entry's subprocess loads NumPy only
after the entry has set its thread variables.
"""

import importlib
import inspect
import os
import pickle
import pkgutil
import sys
import threading
import time
from pathlib import Path

import pytest

import ant_lab
from ant_lab import workers
from forking import count_forks, wait_for


def _map_then_reap(tmp, case):
    """A two-item map on two CPUs whose parent item waits until the child's item
    has begun, so that each process runs one; then whether a child is left."""
    workers._cpus = lambda: 2
    parent, began = os.getpid(), os.path.join(tmp, "began")

    def fn(x):
        if os.getpid() == parent:
            if not wait_for(began):
                raise TimeoutError("no child took an item")
            if case == "parent raises":
                raise ValueError("in the parent")
            return "parent", x
        open(began, "w").close()
        if case == "child raises":
            raise ValueError("in a child")
        if case == "child dies":
            os._exit(3)
        return "child", x

    try:
        outcome = "returned", workers.fork_map(fn, [0, 1])
    except Exception as e:
        outcome = type(e).__name__, str(e)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    return outcome, left


@pytest.mark.parametrize("case, raised", [
    ("returns", None),
    ("child raises", ("ValueError", "in a child")),
    ("parent raises", ("ValueError", "in the parent")),
    ("child dies", ("RuntimeError", "a fork_map worker process exited with status 3")),
])
def test_no_worker_outlives_a_call(fresh, tmp_path, case, raised):
    """Whether the call returns, an item raises in a child or in the parent's
    own share, or a child dies inside fn: every child has been waited for
    afterwards.  A failure raises with its own type and message; a dead child
    makes the call raise RuntimeError naming its status, with no partial result."""
    outcome, left = fresh(_map_then_reap, str(tmp_path), case)
    assert not left
    if raised is None:
        assert outcome[0] == "returned"
        assert [x for _, x in outcome[1]] == [0, 1]
        assert sorted(who for who, _ in outcome[1]) == ["child", "parent"]
    else:
        assert outcome == raised


def _close_after_the_first_item():
    """fork_imap over eight slow items on two CPUs, closed after its first item:
    (that item, whether a child is left right after the close, the forks)."""
    workers._cpus = lambda: 2
    forks = count_forks()
    stream = workers.fork_imap(lambda x: time.sleep(0.05) or x, range(8))
    first = next(stream)
    stream.close()
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    return first, left, len(forks)


def test_closing_the_stream_early_leaves_no_worker(fresh):
    """A caller that stops after an item and closes the generator has no child
    left once close returns: the worker still running items is killed, and so
    never meets the closed pipe (a broken pipe would print its traceback)."""
    assert fresh(_close_after_the_first_item, stderr=True) == ((0, False, 1), "")


def _failure_empties_the_queue(tmp):
    """Six items on two processes: item 1 raises, while item 0 holds the other
    process until well after that.  (The error, the items that started.)"""
    workers._cpus = lambda: 2

    def fn(x):
        open(os.path.join(tmp, f"started-{x}"), "w").close()
        if x == 1:
            open(os.path.join(tmp, "failing"), "w").close()
            raise ValueError("item 1")
        if x == 0:
            wait_for(os.path.join(tmp, "failing"))
            time.sleep(0.5)  # the failing process empties the queue in far less
        return x

    try:
        workers.fork_map(fn, range(6))
    except ValueError as e:
        return str(e), sorted(int(n[8:]) for n in os.listdir(tmp) if n.startswith("started-"))


def test_no_item_starts_after_a_failure(fresh, tmp_path):
    """The process whose item fails empties the queue, so the other process,
    done with its own item, starts none of the four that had not started."""
    assert fresh(_failure_empties_the_queue, str(tmp_path)) == ("item 1", [0, 1])


def _map(case):
    """fork_map in a fresh process under `case`: (its result, the forks it made)."""
    import numpy  # noqa: F401  (loads OpenBLAS, with the threads the environment gives it)

    workers._cpus = lambda: 1 if case == "one CPU" else 4
    items = range(workers._MAX_ITEMS + 1 if case == "too many items" else
                  1 if case == "one item" else 8)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a thread of the caller":
        thread.start()
    forks = count_forks()
    try:
        return workers.fork_map(lambda x: 2 * x + 1, items), len(forks)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=30)


@pytest.mark.parametrize("case", ["forks", "BLAS threads", "a thread of the caller",
                                  "one item", "one CPU", "too many items"])
def test_the_map_forks_only_where_that_is_safe_and_useful(fresh, case):
    """A one-thread process on several CPUs forks; a process with OpenBLAS's
    threads (OMP_NUM_THREADS=2), one whose caller runs a thread, one item, one
    CPU and more item numbers than a pipe page holds take the loop.  Every
    warning is an error in the process, so a fork of a threaded process that
    Python 3.12 warns about fails here.  The results are the loop's."""
    env = {"OMP_NUM_THREADS": "2"} if case == "BLAS threads" else None
    result, forks = fresh(_map, case, env=env)
    n = workers._MAX_ITEMS + 1 if case == "too many items" else 1 if case == "one item" else 8
    assert result == [2 * x + 1 for x in range(n)]
    assert forks == (3 if case == "forks" else 0)


def _shards(case):
    """1,000 run() calls of a shard_worker in a fresh process under `case`: (own()'s
    results, the times fn ran, counted in shared memory, and the forks)."""
    import mmap

    import numpy  # (loads OpenBLAS, with the threads the environment gives it)

    workers._cpus = lambda: 1 if case == "one CPU" else 2
    # one count per process: a nested block's fn runs in the caller while the
    # worker runs the outer fn
    ran, parent = numpy.frombuffer(mmap.mmap(-1, 16), numpy.int64), os.getpid()

    def fn():
        ran[int(os.getpid() != parent)] += 1

    def own(i):
        if case == "nested":  # a block inside a block's own() takes the loop
            with workers.shard_worker(fn) as inner:
                inner(lambda: None)
        return i * i

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "a thread of the caller":
        thread.start()
    forks = count_forks()
    try:
        with workers.shard_worker(None if case == "no fn" else fn) as run:
            results = [run(lambda i=i: own(i)) for i in range(1000)]
        return results, int(ran.sum()), len(forks)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=30)


@pytest.mark.parametrize("case", ["forks", "nested", "BLAS threads", "a thread of the caller",
                                  "one CPU", "no fn"])
def test_the_shard_worker_forks_only_where_that_is_safe_and_useful(fresh, case):
    """A one-thread process on two CPUs forks one shard worker, and a block inside
    it forks none; OpenBLAS's threads, a thread of the caller and one CPU take
    the loop.  Either way each run() returns own()'s result after fn has run
    once, whichever process took the token (twice per call where a nested
    block runs its own fn too); with no fn, run() is own()."""
    env = {"OMP_NUM_THREADS": "2"} if case == "BLAS threads" else None
    results, ran, forks = fresh(_shards, case, env=env)
    assert results == [i * i for i in range(1000)]
    assert ran == {"nested": 2000, "no fn": 0}.get(case, 1000)
    assert forks == (case in ("forks", "nested"))


def _cpu_list() -> str:
    return ",".join(map(str, sorted(os.sched_getaffinity(0))))


def _lines(path) -> list:
    return Path(path).read_text().splitlines() if os.path.exists(path) else []


def _shard_then_reap(tmp, case):
    """Three run() calls of a shard worker on two CPUs, each own() waiting until
    the child has begun that call's fn: (the outcome, the masks of own() and
    of the child's fn, whether the caller's mask came back, whether a child
    is left)."""
    workers._cpus = lambda: 2
    parent, mask = os.getpid(), os.sched_getaffinity(0)
    began, calls, masks = os.path.join(tmp, "began"), iter(range(3)), []

    def fn():
        if os.getpid() == parent:  # the caller took the token back: no call waits for it
            return
        with open(began, "a") as f:
            f.write(f"{_cpu_list()}\n")
        if case == "child raises":
            raise ValueError("in the shard worker")
        if case == "child dies":
            os._exit(3)

    def own():
        i = next(calls)
        while len(_lines(began)) <= i:
            time.sleep(0.001)
        masks.append(_cpu_list())

    try:
        with workers.shard_worker(fn) as run:
            for _ in range(3):
                run(own)
        outcome = ("returned",)
    except Exception as e:
        outcome = type(e).__name__, str(e)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    return outcome, masks, _lines(began), os.sched_getaffinity(0) == mask, left


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="pinning needs two CPUs")
@pytest.mark.parametrize("case, raised", [
    ("returns", ("returned",)),
    ("child raises", ("RuntimeError", "a shard worker process exited with status 1")),
    ("child dies", ("RuntimeError", "a shard worker process exited with status 3")),
])
def test_a_shard_worker_is_pinned_apart_and_outlives_no_block(fresh, tmp_path, case, raised):
    """The caller and its shard worker run pinned to different CPUs; whether the
    block ends, fn raises in the worker or the worker dies inside fn, the
    caller's mask comes back and no child is left.  A failure in the worker
    makes run() raise RuntimeError naming the worker's exit status."""
    outcome, masks, child, restored, left = fresh(_shard_then_reap, str(tmp_path), case,
                                                  stderr=True)[0]
    assert outcome == raised
    assert restored and not left
    assert len(masks) == len(child) == (3 if case == "returns" else 1)
    assert set(masks) == {masks[0]} and set(child) == {child[0]} != {masks[0]}
    assert "," not in masks[0] + child[0]  # one CPU each


def test_every_exception_class_survives_pickling():
    """A worker sends an item's exception back pickled: every exception class
    of the package comes back with its type and message, and
    TrainingDivergedError with its stage and step."""
    from ant_lab.optim import TrainingDivergedError

    classes = {cls for info in pkgutil.iter_modules(ant_lab.__path__)
               for _, cls in inspect.getmembers(importlib.import_module(f"ant_lab.{info.name}"),
                                                inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__.startswith("ant_lab.")}
    assert {cls.__name__ for cls in classes} == {
        "ConfigError", "DegenerateMapError", "InvalidMixtureError", "PlotDataError",
        "RankDeficiencyError", "SampleDivergedError", "TrainingDivergedError",
        "VocabularyError"}
    for cls in classes:
        error = cls("erase", 3) if cls is TrainingDivergedError else cls("a message")
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls and str(back) == str(error)
    back = pickle.loads(pickle.dumps(TrainingDivergedError("erase", 3)))
    assert (back.stage, back.step) == ("erase", 3)
    assert str(back) == "erase diverged: non-finite loss at step 3"


def _entry(run_dir):
    """`ant-lab eval` through the console entry: its exit status, the thread count
    at each fork_map call, the forks, and the thread variables afterwards."""
    assert "numpy" not in sys.modules
    import ant_lab.__main__ as entry

    workers._cpus = lambda: 2
    threads, count = [], workers._threads
    workers._threads = lambda: threads.append(count()) or threads[-1]
    forks = count_forks()
    sys.argv = ["ant-lab", "--run-dir", run_dir, "--set", "eval.n_samples=100",
                "--set", "eval.n_infer_steps=5", "eval", "--checkpoint", "pretrained.ckpt"]
    status = entry.main()
    return (status, threads, len(forks),
            [os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")])


@pytest.mark.parametrize("env, forked, variables", [
    ({}, True, ["1", "1"]),
    ({"OMP_NUM_THREADS": "2"}, False, ["2", None]),
], ids=["unset", "OMP_NUM_THREADS=2"])
def test_the_entry_gives_its_process_one_blas_thread_unless_the_user_chose(
        fresh, tmp_path, env, forked, variables):
    """With no thread variable, the entry sets both to 1 before NumPy loads, so the
    process runs one OS thread when `eval` maps its concepts, and forks.  A
    user's OMP_NUM_THREADS=2 is kept: OpenBLAS's thread makes the process
    threaded, and the map takes the loop."""
    from ant_lab.config import load_config
    from ant_lab.net import ScoreNet, save_checkpoint

    cfg = load_config(None, {"run_dir": str(tmp_path)})
    save_checkpoint(tmp_path / "pretrained.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    status, threads, forks, after = fresh(_entry, str(tmp_path), env=env)
    assert status == 0 and (tmp_path / "eval_report.csv").exists()
    assert after == variables
    assert threads and all((n == 1) == forked for n in threads)
    assert (forks > 0) == forked
