import os

import pytest
from hypothesis import HealthCheck, settings

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
def bench_pretrained(bench_net, bench_spec):
    return _cached_pretrain("bench_pretrained.ckpt", bench_spec, bench_net, 20000)


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
