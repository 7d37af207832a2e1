"""`fork_map`: a command's independent ladders on forked worker processes.

`fork_map(fn, items)` returns `[fn(x) for x in items]`.  The calling process
and up to (CPUs - 1) forked children take the items in order, each reading
the next item number from one pipe filled before the fork, and each runs its
items on its own copy of the caller's memory (the ladder work arrays among
it), with no interpreter lock between them.  A child sends its results back
pickled over a pipe of its own and leaves by `os._exit`.

fork copies only the calling thread, so the map forks only a process that
runs one OS thread, counted from /proc/self/task.  A process with BLAS
threads, a caller with threads of its own, a platform without that directory,
one item, one CPU, or more items than one pipe page holds take the plain loop.

Failures keep the loop's semantics.  A process whose item raises empties the
pipe of numbers, so no item that has not started by then starts afterwards,
and the call raises the first failure in item order with its own type and
message (so an exception must survive pickling).  A child that dies makes the
call raise RuntimeError naming its exit status.  Every child has been waited
for when the call returns or raises.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import traceback

__all__ = ["fork_map"]

_NUMBER = struct.Struct("=I")
# the numbers are written before any process reads them, so they must fit in
# the smallest buffer a Linux pipe gets: one 4 KiB page
_PIPE_PAGE = 4096
_MAX_ITEMS = _PIPE_PAGE // _NUMBER.size


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _threads() -> int | None:
    """This process's OS threads, or None where /proc does not say."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _take(fn, items, numbers) -> dict:
    """Run the items whose numbers this process reads until the pipe is empty:
    {number: (True, result) or (False, exception)}.  A failure empties the
    pipe and ends the run."""
    done = {}
    while number := os.read(numbers, _NUMBER.size):
        i, = _NUMBER.unpack(number)
        try:
            done[i] = True, fn(items[i])
        except Exception as e:
            done[i] = False, e
            while os.read(numbers, _PIPE_PAGE):
                pass
            break
    return done


def _child(fn, items, numbers, out) -> None:
    """A forked child's whole life: take items, send the results back, exit."""
    status = 1
    try:
        done = _take(fn, items, numbers)
        with os.fdopen(out, "wb") as f:
            pickle.dump(done, f, pickle.HIGHEST_PROTOCOL)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    except BaseException:  # reported here; the parent sees only the status
        traceback.print_exc()
    finally:
        os._exit(status)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], on forked worker processes where that is safe
    (see the module docstring)."""
    items = list(items)
    workers = min(len(items), _cpus())
    if workers <= 1 or len(items) > _MAX_ITEMS or _threads() != 1:
        return [fn(x) for x in items]
    numbers, fill = os.pipe()
    try:
        os.write(fill, b"".join(_NUMBER.pack(i) for i in range(len(items))))
    finally:
        os.close(fill)
    sys.stdout.flush()  # so that a child flushes only what it wrote itself
    sys.stderr.flush()
    children = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(fn, items, numbers, w)
            os.close(w)
            children.append((pid, r))
        done = _take(fn, items, numbers)
    except BaseException:  # not an item's failure: stop the children first
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(numbers)
        sent, dead = [], None
        for pid, r in children:
            with os.fdopen(r, "rb") as f:
                sent.append(f.read())
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code and dead is None:
                dead = (f"a fork_map worker process exited with status {code}" if code > 0
                        else f"a fork_map worker process was killed by signal {-code}")
    if dead is not None:
        raise RuntimeError(dead)
    for data in sent:  # bytes that this module's children wrote
        done.update(pickle.loads(data))
    failed = [i for i, (ok, _) in done.items() if not ok]
    if failed:
        raise done[min(failed)][1]
    return [done[i][1] for i in range(len(items))]
