import contextlib
import os
import time
import warnings

import pytest
from hypothesis import HealthCheck, settings

from ant_lab.cli import main
from ant_lab.diffusion import GuidanceSpec, make_schedule
from ant_lab.finetune import AntLossConfig, erase_single
from ant_lab.mixture import make_mixture, sample_dataset
from ant_lab.net import NetConfig, ScoreNet, load_checkpoint, save_checkpoint
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


def _cached_pretrain(name, spec, net, steps):
    """Pretrain deterministically; reuse a cached checkpoint when the optional
    ANT_LAB_TEST_CACHE directory is set (outputs are seed-determined, so the
    cache only skips recomputation, never changes results)."""
    cache = os.environ.get("ANT_LAB_TEST_CACHE", "")
    path = os.path.join(cache, name) if cache else None
    if path and os.path.exists(path):
        cfg, params = load_checkpoint(path)
        if cfg == net.config:
            return params
    ds = sample_dataset(spec, 8000, 0)
    params, _ = pretrain(net, make_schedule(), ds, PretrainConfig(steps=steps, seed=0))
    if path:
        os.makedirs(cache, exist_ok=True)
        save_checkpoint(path, params)
    return params


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
    return _cached_pretrain("sal_pretrained.ckpt", sal_spec, sal_net, 3000)


@pytest.fixture()
def tiny():
    """Small spec/net pair for cheap unit tests."""
    spec = make_mixture(3, 2, 2.0, 0.3)
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    return spec, net
