"""Every execution mode writes the same bytes, and those are golden_digests.txt's.

Each mode runs golden_digests.manifest(), every command on one small run dir,
in a fresh interpreter that sets its thread variables, OPENBLAS_CORETYPE (set
or removed, never inherited) and its CPUs before NumPy loads:
`loop` (one CPU), `forked` (two CPUs and one BLAS thread, so each of the eight
fork sites forks once), `two-blas-threads` (threaded, so none forks), and
`haswell-loop` and `haswell-forked`, the first two on OpenBLAS's Haswell core.
Each mode's artifacts equal its core's loop mode byte for byte, and the
Haswell modes equal the committed manifest.  That holds bits made with one
NumPy, one OpenBLAS and one kernel core; where any of the three differs, the
bits may differ for that reason alone, so that comparison alone skips, naming
the difference.  A mode of more CPUs than this process may use skips.  A change
that moves bits rewrites the manifest with `python tests/golden_digests.py
--write`.  The tests that compare bits made in the test process itself carry
the `bitwise` marker: `pytest -m bitwise` runs them under another core or
thread count.
"""

import os
from pathlib import Path

import pytest

import golden_digests
from forking import children_left, count_forks

HERE = Path(__file__).parent
BUILD = ("numpy", "openblas", "core")
# name: (CPUs, BLAS threads, OPENBLAS_CORETYPE or None to remove it)
MODES = {
    "loop": (1, 1, None),
    "forked": (2, 1, None),
    "two-blas-threads": (2, 2, None),
    "haswell-loop": (1, 1, golden_digests.CORE),
    "haswell-forked": (2, 1, golden_digests.CORE),
}
# The commands that the sequence runs, pipeline's stages among them, in order,
# with the forks each makes where the process forks
SITES = [("gen_data", 0), ("pretrain", 1), ("saliency", 1), ("erase", 1), ("eval", 1),
         ("erase_multi", 1), ("eval", 1), ("sweep_tprime", 1), ("ablate", 1),
         ("sample", 0), ("sample", 0), ("plot", 0)]
_runs = {}


def _manifest(cpus):
    """golden_digests.manifest() on the first `cpus` allowed CPUs: (the manifest,
    each command and the forks it made, this process's threads, whether a child
    is left)."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
    forks, made = count_forks(), []
    from ant_lab import cli

    def counting(name, cmd):
        def run(*args):
            before = len(forks)
            artifacts = cmd(*args)
            made.append((name, len(forks) - before))
            return artifacts
        return run
    for name, cmd in list(vars(cli).items()):
        if name.startswith("cmd_") and name != "cmd_pipeline":
            setattr(cli, name, counting(name[4:], cmd))
    text = golden_digests.manifest()
    return text, made, len(os.listdir("/proc/self/task")), children_left()


def _run(fresh, mode):
    """The mode's _manifest result, run once per session."""
    cpus, threads, core = MODES[mode]
    if len(os.sched_getaffinity(0)) < cpus:
        pytest.skip(f"the {mode} mode needs {cpus} CPUs; this process may use "
                    f"{len(os.sched_getaffinity(0))}")
    if mode not in _runs:
        env = {"OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads),
               "OPENBLAS_CORETYPE": core}
        _runs[mode] = fresh(_manifest, cpus, env=env)
    return _runs[mode]


def _parse(text):
    return dict(line.split(" ", 1) for line in text.splitlines())


def _moved(want, got):
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_writes_the_loops_bytes(fresh, mode):
    """The mode is what it says (threaded or not, forking at every site or at
    none), leaves no process and writes its core's loop bytes, and on Haswell
    the manifest's."""
    cpus, threads, core = MODES[mode]
    text, made, threaded, left = _run(fresh, mode)
    assert not left
    assert (threaded > 1) == (threads > 1)
    forking = cpus > 1 and threads == 1
    assert made == [(name, forks * forking) for name, forks in SITES]
    got = _parse(text)
    loop = _parse(_run(fresh, "loop" if core is None else "haswell-loop")[0])
    assert _moved(loop, got) == []
    if core is None:
        return
    want = _parse((HERE / "golden_digests.txt").read_text())
    differ = [f"{key} {got[key]} here, {want[key]} in the manifest"
              for key in BUILD if got[key] != want[key]]
    if differ:
        pytest.skip("the golden bits belong to another build: " + "; ".join(differ))
    moved = _moved(want, got)
    assert not moved, (f"artifacts whose sha256 moved: {moved}; if the change means to move "
                       f"bits, rewrite the manifest with python tests/golden_digests.py --write")
