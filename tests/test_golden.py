"""Every artifact of one small run keeps the sha256 recorded in golden_digests.txt.

The manifest holds bits made with one NumPy, one OpenBLAS and one OpenBLAS
kernel core.  Where any of the three differs, the bits may differ for that
reason alone, so the test skips and names the difference; it never passes
without comparing.  A change that moves bits rewrites the manifest with
`python tests/golden_digests.py --write`.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
BUILD = ("numpy", "openblas", "core")


def _parse(text):
    return dict(line.split(" ", 1) for line in text.splitlines())


def test_artifacts_keep_their_golden_digests():
    want = _parse((HERE / "golden_digests.txt").read_text())
    run = subprocess.run([sys.executable, str(HERE / "golden_digests.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = _parse(run.stdout)
    differ = [f"{key} {got[key]} here, {want[key]} in the manifest"
              for key in BUILD if got[key] != want[key]]
    if differ:
        pytest.skip("the golden bits belong to another build: " + "; ".join(differ))
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (f"artifacts whose sha256 moved: {moved}; if the change means to move "
                       f"bits, rewrite the manifest with python tests/golden_digests.py --write")
