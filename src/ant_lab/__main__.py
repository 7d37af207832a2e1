"""The `ant-lab` command, also run as `python -m ant_lab`.

It gives its process one BLAS thread, unless the user set OMP_NUM_THREADS or
OPENBLAS_NUM_THREADS, before anything loads NumPy: OpenBLAS's own threads
would make the process threaded, and `workers.fork_map` forks only a process
with one thread.  Importing `ant_lab` as a library sets nothing.
"""

import os
import sys


def main() -> int:
    if "OMP_NUM_THREADS" not in os.environ and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
