"""The test directory's own hooks, run in a separate pytest process."""

import os
from pathlib import Path

import ant_lab

CONFTEST = Path(__file__).with_name("conftest.py")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_property_prints_its_example_and_the_next_test_runs(pytester, monkeypatch):
    """Under the every-warning-is-an-error hook, a failing @given test reports its
    falsifying example and the session goes on (no INTERNALERROR)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ant_lab.__file__)))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
