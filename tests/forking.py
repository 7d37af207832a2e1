"""Helpers for the tests of `workers.fork_map`, shared by the test modules and
the fresh interpreters that the `fresh` fixture starts."""

import os
import time


def count_forks() -> list:
    """A list that gains the child's pid at each os.fork call from here on (in the
    calling process; a child's own copy gains 0)."""
    forks, fork = [], os.fork

    def counted():
        forks.append(fork())
        return forks[-1]
    os.fork = counted
    return forks


def wait_for(path, timeout=30.0) -> bool:
    """Whether `path` exists within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def children_left() -> bool:
    """Whether this process has a child that has not been waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True
