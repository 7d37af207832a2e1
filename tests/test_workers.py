"""fork_map: the loop's results and failures on forked worker processes, no
process left behind, the loop wherever forking is not safe, and the `ant-lab`
entry's one BLAS thread.

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
