"""`fork_imap`: a command's independent ladders on forked worker processes.

`fork_imap(fn, items)` yields `fn(x)` for each x of items, in item order, and
`fork_map(fn, items)` is `list(fork_imap(fn, items))`.  Before any fork, one
pipe receives every item number.  Up to (CPUs - 1) forked children take the
numbers in order, each running its items on its own copy of the caller's
memory (the ladder work arrays among it), with no interpreter lock between
them.  A child sends each result back as soon as it is done, as one
length-prefixed pickled message on a pipe of its own, and leaves by
`os._exit` once no number is left.  When the caller asks for an item whose
result has not arrived, the calling process takes the next number and runs
that item itself; it waits on the children's pipes only once no number is
left.  So `list` keeps every process busy, and a caller that works between
items (erasure's student steps) overlaps the children's items.

A map never nests.  While a forked map runs, every `fork_imap` call in its
children, in the caller's own items and in what the caller does between
items takes the plain loop, so the processes never outnumber the CPUs.

fork copies only the calling thread, so the map forks only a process that
runs one OS thread, counted from /proc/self/task.  A process with BLAS
threads, a caller with threads of its own, a platform without that directory,
one item, one CPU, or more items than one pipe page holds take the plain loop.

Failures keep the loop's semantics.  A process whose item raises empties the
pipe of numbers, so no item that has not started by then starts afterwards;
the items before it are yielded, and then the failure raises with its own type
and message (so an exception must survive pickling).  A child that dies makes
the map raise RuntimeError naming its exit status.  Every child has been
waited for once the generator is exhausted, raises or is closed; it kills the
children it leaves early.  A caller that may stop early closes it
(`contextlib.closing`), so that happens then and not when it is collected.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import traceback

__all__ = ["fork_imap", "fork_map"]

_NUMBER = struct.Struct("=I")
_LENGTH = struct.Struct("=Q")
# the numbers are written before any process reads them, so they must fit in
# the smallest buffer a Linux pipe gets: one 4 KiB page
_PIPE_PAGE = 4096
_MAX_ITEMS = _PIPE_PAGE // _NUMBER.size

_forked = False  # a forked map runs in this process, or this process is its child


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


def _take(fn, items, numbers):
    """Run the item whose number this process reads next: (number, (True, result)
    or (False, exception)), or None when no number is left.  A failure empties
    the pipe."""
    number = os.read(numbers, _NUMBER.size)
    if not number:
        return None
    i, = _NUMBER.unpack(number)
    try:
        return i, (True, fn(items[i]))
    except Exception as e:
        while os.read(numbers, _PIPE_PAGE):
            pass
        return i, (False, e)


def _child(fn, items, numbers, out) -> None:
    """A forked child's whole life: take items and send each result back, exit."""
    status = 1
    try:
        while (done := _take(fn, items, numbers)) is not None:
            data = pickle.dumps(done, pickle.HIGHEST_PROTOCOL)
            message = memoryview(_LENGTH.pack(len(data)) + data)
            while message:
                message = message[os.write(out, message):]
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    except BaseException:  # reported here; the parent sees only the status
        traceback.print_exc()
    finally:
        os._exit(status)


def _receive(children, done, timeout) -> None:
    """Read what the children have sent within timeout seconds (None: until one
    sends) into done, {number: (ok, result)}.  A child whose pipe ends is waited
    for and leaves children; one that did not exit 0 raises RuntimeError."""
    ready, _, _ = select.select(list(children), [], [], timeout)
    for r in ready:
        pid, buffer = children[r]
        if data := os.read(r, 1 << 16):
            buffer += data
            while len(buffer) >= _LENGTH.size:
                n, = _LENGTH.unpack_from(buffer)
                if len(buffer) < _LENGTH.size + n:
                    break
                i, result = pickle.loads(buffer[_LENGTH.size:_LENGTH.size + n])
                done[i] = result  # bytes that this module's children wrote
                del buffer[:_LENGTH.size + n]
            continue
        del children[r]
        os.close(r)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise RuntimeError(f"a fork_map worker process exited with status {code}"
                               if code > 0 else
                               f"a fork_map worker process was killed by signal {-code}")


def fork_imap(fn, items):
    """Yield fn(x) for each x of items, in order, on forked worker processes
    where that is safe (see the module docstring)."""
    global _forked
    items = list(items)
    workers = min(len(items), _cpus())
    if _forked or workers <= 1 or len(items) > _MAX_ITEMS or _threads() != 1:
        yield from map(fn, items)
        return
    numbers, fill = os.pipe()
    try:
        os.write(fill, b"".join(_NUMBER.pack(i) for i in range(len(items))))
    finally:
        os.close(fill)
    sys.stdout.flush()  # so that a child flushes only what it wrote itself
    sys.stderr.flush()
    children = {}  # read end of a child's pipe -> (its pid, bytes not yet parsed)
    done = {}
    _forked = True
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
            children[r] = pid, bytearray()
        for i in range(len(items)):
            while i not in done:
                _receive(children, done, 0)
                if i in done:
                    break
                if (took := _take(fn, items, numbers)) is None:
                    _receive(children, done, None)
                else:
                    done[took[0]] = took[1]
            ok, result = done.pop(i)
            if not ok:
                raise result
            yield result
        while children:  # each leaves once no number is left
            _receive(children, done, None)
    finally:
        _forked = False
        os.close(numbers)
        for r, (pid, _) in children.items():  # only where the map stops early
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], on forked worker processes where that is safe
    (see the module docstring)."""
    return list(fork_imap(fn, items))
