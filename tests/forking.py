"""Helpers for the tests of `workers.fork_map`, shared by the test modules and
the fresh interpreters that the `fresh` fixture starts."""

import os
import time


def count_forks() -> list:
    """A list that gains an entry at each os.fork call from here on."""
    forks, fork = [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    return forks


def wait_for(path, timeout=30.0) -> bool:
    """Whether `path` exists within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True
