import contextlib
import itertools
import os
import pickle
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, settings

from ant_lab.cli import main
from ant_lab.diffusion import GuidanceSpec, make_schedule
from ant_lab.finetune import AntLossConfig, erase_single
from ant_lab.mixture import make_mixture, sample_dataset
from ant_lab.net import NetConfig, ScoreNet, load_checkpoint
from ant_lab.pretrain import PretrainConfig, pretrain

# One Hypothesis profile for every property test: no deadline, since an example's
# time can drift 2x on a shared machine, and function-scoped fixtures (tmp_path,
# capsys) are allowed, since each example makes its own files under them.
settings.register_profile("ant-lab", deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])
settings.load_profile("ant-lab")

pytest_plugins = ["pytester"]


def pytest_configure(config):
    """Import the module Hypothesis loads to print a failing example's patch now,
    with its dependencies' DeprecationWarnings ignored: imported first under a
    test's filterwarnings("error"), one of them fails the report hook and pytest
    stops with INTERNALERROR before it prints the example or runs the next test.
    Without libcst the module does not import, and Hypothesis skips the patch."""
    with warnings.catch_warnings(), contextlib.suppress(ImportError):
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401


def pytest_collection_modifyitems(items):
    """Every warning fails the tests in this directory; prepended, so a test's
    own filterwarnings mark for a warning it expects still takes precedence."""
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.path).startswith(here + os.sep):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def schedule():
    return make_schedule()


@pytest.fixture(scope="session")
def bench_spec():
    return make_mixture(8, 3, 2.5, 0.5)


@pytest.fixture(scope="session")
def bench_net():
    return ScoreNet(NetConfig(8, 3))


@pytest.fixture(scope="session")
def default_pipeline(tmp_path_factory):
    """A default-config `pipeline` run dir and its wall time in seconds: criterion
    10's first run, whose pretrained.ckpt is also the benchmark model."""
    run_dir = tmp_path_factory.mktemp("default_pipeline")
    start = time.monotonic()
    assert main(["--run-dir", str(run_dir), "pipeline"]) == 0
    return run_dir, time.monotonic() - start


@pytest.fixture(scope="session")
def bench_pretrained(bench_net, default_pipeline):
    """The default pipeline's 20k-step model, which is the library's pretrain on
    bench_spec (see test_cli_pretrain_equals_the_library_pretrain)."""
    net_cfg, params = load_checkpoint(default_pipeline[0] / "pretrained.ckpt")
    assert net_cfg == bench_net.config
    return params


@pytest.fixture(scope="session")
def bench_guidance():
    return GuidanceSpec(s=3.0, t_prime=0)


@pytest.fixture(scope="session")
def bench_erased(bench_net, bench_pretrained, schedule):
    """Default full-loss erasure of concept 0 on the benchmark model."""
    params, rows, _ = erase_single(bench_net, bench_pretrained, 0,
                                   AntLossConfig(seed=0), schedule)
    return params, rows


@pytest.fixture(scope="session")
def sal_spec():
    # many contexts so the 20-prompt saliency contract applies
    return make_mixture(8, 20, 0.3, 0.2)


@pytest.fixture(scope="session")
def sal_net():
    return ScoreNet(NetConfig(8, 20))


@pytest.fixture(scope="session")
def sal_pretrained(sal_net, sal_spec):
    ds = sample_dataset(sal_spec, 8000, 0)
    return pretrain(sal_net, make_schedule(), ds, PretrainConfig(steps=3000, seed=0))[0]


@pytest.fixture()
def tiny():
    """Small spec/net pair for cheap unit tests."""
    spec = make_mixture(3, 2, 2.0, 0.3)
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    return spec, net


# Runs a test module's function in a fresh interpreter: argv is the module's
# directory, the module, the function, and a file holding the pickled
# arguments, which receives the pickled return value.
_FRESH = """
import pickle, sys
path, module, name, io = sys.argv[1:]
sys.path.insert(0, path)
with open(io, "rb") as f:
    args = pickle.load(f)
value = getattr(__import__(module), name)(*args)
with open(io, "wb") as f:
    pickle.dump(value, f)
"""


@pytest.fixture()
def fresh(tmp_path):
    """Call fresh(fn, *args) to run the module-level test function fn in a new
    interpreter.  Its OMP_NUM_THREADS and OPENBLAS_NUM_THREADS are 1, so that
    the process has one thread and `workers.fork_map` forks, unless `env`
    gives the variables to set instead ({} sets none of the two; a variable
    given as None is removed, not inherited).  Every warning
    is an error there, except those named in `ignore` (-W filters).  fn must
    return; fresh returns its return value, and with stderr=True also the
    process's whole stderr."""
    calls = itertools.count()

    def run(fn, *args, env=None, ignore=(), stderr=False):
        io = tmp_path / f"fresh-{next(calls)}.pickle"
        io.write_bytes(pickle.dumps(args))
        given = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"} if env is None else env
        env = {k: v for k, v in {**os.environ, "OMP_NUM_THREADS": None,
                                 "OPENBLAS_NUM_THREADS": None, **given}.items() if v is not None}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        module = sys.modules[fn.__module__]
        flags = ["-W", "error", *(f for rule in ignore for f in ("-W", rule))]
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _FRESH, os.path.dirname(module.__file__),
             fn.__module__.rpartition(".")[2], fn.__name__, str(io)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        value = pickle.loads(io.read_bytes())
        return (value, proc.stderr) if stderr else value

    return run
