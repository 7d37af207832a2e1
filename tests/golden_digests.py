"""Golden artifact digests: the sha256 of every artifact of one small run.

In a fresh run dir this runs `pipeline`, `erase-multi`, `eval --checkpoint
fused.ckpt` and `sweep-tprime` on the TINY config below with ant.use_mask=true
and seed 3, with one BLAS thread and OpenBLAS's Haswell kernels.  It prints a
manifest: the NumPy version, the OpenBLAS version and the kernel core OpenBLAS
runs, then one `name sha256` line per artifact.  Before it prints, it reads the
checkpoints, the mask, the adapters, dataset.csv and the threshold back through
the program's own readers, and fails if one does not load.  The program runs on
NumPy alone, so NumPy and the OpenBLAS it bundles decide every artifact bit; the
last bits of every checkpoint depend on the kernels that OpenBLAS picks at run
time, so the core is pinned and recorded.

    python tests/golden_digests.py           # print the manifest
    python tests/golden_digests.py --write   # rewrite tests/golden_digests.txt

tests/test_golden.py compares a fresh manifest with the committed one.  A
change that moves bits rewrites it with --write, and the manifest's diff names
the artifacts that moved.
"""

import ctypes
import glob
import hashlib
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_digests.txt"
CORE = "Haswell"  # needs AVX2 and FMA, which x86-64 CI runners have
TINY = ["data.n_samples=600", "pretrain.steps=150", "ant.steps=5", "ant.batch=4",
        "eval.n_samples=100", "sweep.grid=0,50,100", "sweep.n_samples=100",
        "fuse.steps=3", "ant.use_mask=true", "seed=3"]
COMMANDS = (["pipeline"], ["erase-multi"], ["eval", "--checkpoint", "fused.ckpt"],
            ["sweep-tprime"])
# Stamps hold the digest of the package source, so any edit changes them, and
# resolved_config.txt holds the run dir's path.
SKIPPED = "resolved_config.txt"


def _openblas_core(np) -> str:
    """The core OpenBLAS chose when it loaded, or "unknown" where NumPy's
    bundled library (a manylinux wheel's numpy.libs) is not there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _openblas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # NumPy before 1.26, or another BLAS
        return "unknown"


def manifest() -> str:
    """Run the sequence in a temporary run dir and return the manifest text.
    Call it in a process whose environment pins the threads and the core
    before NumPy loads (see __main__)."""
    sys.path.insert(0, str(HERE.parent / "src"))  # the checkout, not an installed copy
    import numpy as np

    from ant_lab import cli
    from ant_lab.config import load_config, parse_value
    from ant_lab.fusion import load_adapter
    from ant_lab.mixture import load_dataset_csv
    from ant_lab.net import load_checkpoint
    from ant_lab.saliency import load_mask

    lines = [f"numpy {np.__version__}", f"openblas {_openblas_version(np)}",
             f"core {_openblas_core(np)}"]
    sets = [arg for kv in TINY for arg in ("--set", kv)]
    with tempfile.TemporaryDirectory() as run_dir:
        for command in COMMANDS:
            if cli.main(["--run-dir", run_dir, *sets, *command]) != 0:
                raise SystemExit(f"{' '.join(command)} failed")
        cfg = load_config(None, {"run_dir": run_dir, **{
            key: parse_value(key, raw) for key, raw in (kv.split("=", 1) for kv in TINY)}})

        def read_threshold(path):
            if cli._threshold(cfg)[1]:  # artifacts to write: the file was drawn again
                raise ValueError(f"{path} was drawn again, not read")

        readers = {**dict.fromkeys(("pretrained.ckpt", "erased.ckpt", "fused.ckpt"),
                                   load_checkpoint),
                   "saliency_mask.txt": load_mask,
                   **{f"adapter_{k}.txt": load_adapter for k in cfg.fuse_concepts},
                   "dataset.csv": lambda path: load_dataset_csv(path, cfg.mixture_spec),
                   cli.THRESHOLD: read_threshold}
        for name, read in readers.items():
            try:
                read(os.path.join(run_dir, name))
            except (OSError, ValueError) as e:
                raise SystemExit(f"{name} does not reload: {e}") from None
        for name in sorted(os.listdir(run_dir)):
            if not name.startswith(".") and name != SKIPPED:
                digest = hashlib.sha256(Path(run_dir, name).read_bytes()).hexdigest()
                lines.append(f"{name} {digest}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    # OpenBLAS reads these once, when NumPy loads it
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=CORE)
    text = manifest()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(text)
    else:
        sys.stdout.write(text)
