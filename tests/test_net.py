import numpy as np
import pytest

from ant_lab.net import (
    NetConfig,
    ScoreNet,
    VocabularyError,
    checksum,
    clone_frozen,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture()
def small():
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    return net, net.init_params(seed=0)


def _batch(rng, n):
    return (rng.standard_normal((n, 2)), rng.uniform(0, 1, size=n))


def test_layout_contiguous_and_covering(small):
    net, params = small
    offset = 0
    for name, off, shape in net.layout:
        assert off == offset
        offset += int(np.prod(shape))
    assert offset == net.n_params == len(params.flat)


def test_view_round_trip(small):
    net, params = small
    rebuilt = np.concatenate([params.view(n).ravel() for n, _, _ in net.layout])
    assert np.array_equal(rebuilt, params.flat)
    params.view("w_out")[0, 0] = 7.0
    assert params.flat[net.layout[-2][1]] == 7.0  # views alias the flat vector


def test_forward_deterministic(small):
    net, params = small
    a = net.forward_batch(params, [0.3, -0.2], 0.5, 1, 0)[0]
    b = net.forward_batch(params, [0.3, -0.2], 0.5, 1, 0)[0]
    assert np.array_equal(a, b)
    assert a.shape == (2,)


def test_zero_init_adapter_is_identity(small):
    net, params = small
    adapter = net.init_lora(rank=2, seed=1)
    assert np.all(adapter.delta() == 0)
    z = np.array([0.5, 0.1])
    with_a = net.forward_batch(params, z, 0.3, 2, 1, adapter)[0]
    without = net.forward_batch(params, z, 0.3, 2, 1)[0]
    assert np.array_equal(with_a, without)


def test_unused_embedding_rows_do_not_leak(small):
    net, params = small
    z = np.array([0.2, 0.4])
    base = net.forward_batch(params, z, 0.7, 0, 0)[0]
    poked = params.copy()
    poked.view("concept_emb")[2] += 100.0
    poked.view("context_emb")[1] += 100.0
    assert np.array_equal(net.forward_batch(poked, z, 0.7, 0, 0)[0], base)


def test_null_condition_independence(small):
    net, params = small
    z = np.array([0.2, -0.5])
    null = (net.config.null_concept, net.config.null_context)
    base = net.forward_batch(params, z, 0.4, *null)[0]
    poked = params.copy()
    for k in range(net.config.n_concepts):
        poked.view("concept_emb")[k] += 10.0
    for c in range(net.config.n_contexts):
        poked.view("context_emb")[c] += 10.0
    assert np.array_equal(net.forward_batch(poked, z, 0.4, *null)[0], base)


def test_out_of_vocabulary_rejected(small):
    net, params = small
    with pytest.raises(VocabularyError):
        net.forward_batch(params, [0, 0], 0.5, 5, 0)
    with pytest.raises(VocabularyError):
        net.forward_batch(params, [0, 0], 0.5, 0, 9)


def test_perfect_target_gives_zero_loss_and_grad(small):
    net, params = small
    rng = np.random.default_rng(0)
    z, t = _batch(rng, 4)
    kids = np.array([0, 1, 2, 3])
    cids = np.array([0, 1, 2, 0])
    out = net.forward_batch(params, z, t, kids, cids)
    loss, grad = net.loss_and_grad(params, z, t, kids, cids, out)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_duplicated_batch_leaves_loss_and_grad_unchanged(small):
    net, params = small
    rng = np.random.default_rng(1)
    z, t = _batch(rng, 5)
    kids = np.full(5, 1)
    cids = np.full(5, 0)
    tgt = rng.standard_normal((5, 2))
    l1, g1 = net.loss_and_grad(params, z, t, kids, cids, tgt)
    l2, g2 = net.loss_and_grad(params, np.tile(z, (2, 1)), np.tile(t, 2),
                               np.tile(kids, 2), np.tile(cids, 2), np.tile(tgt, (2, 1)))
    assert abs(l1 - l2) < 1e-12
    assert np.allclose(g1, g2, atol=1e-12)


def _fd_check(fn, x0, coords, step=1e-5, tol=1e-4):
    _, grad = fn(x0)
    worst = 0.0
    for i in coords:
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        fd = (fn(xp)[0] - fn(xm)[0]) / (2 * step)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(fd - grad[i]) / denom)
    assert worst < tol, f"max relative FD error {worst}"


def test_gradient_matches_finite_differences(small):
    net, params = small
    rng = np.random.default_rng(2)
    z, t = _batch(rng, 6)
    kids = rng.integers(0, 4, size=6)
    cids = rng.integers(0, 3, size=6)
    tgt = rng.standard_normal((6, 2))

    def fn(flat):
        from ant_lab.net import ModelParams
        return net.loss_and_grad(ModelParams(flat, net.layout, net.config),
                                 z, t, kids, cids, tgt)

    coords = rng.choice(net.n_params, size=25, replace=False)
    _fd_check(fn, params.flat.copy(), coords)


def test_adapter_gradient_matches_finite_differences(small):
    net, params = small
    adapter = net.init_lora(rank=2, seed=3)
    adapter.up[:] = np.random.default_rng(4).standard_normal(adapter.up.shape) * 0.1
    rng = np.random.default_rng(5)
    z, t = _batch(rng, 4)
    kids = np.full(4, 1)
    cids = np.full(4, 1)
    tgt = rng.standard_normal((4, 2))

    def fn(flat):
        a = adapter.copy()
        a.set_flat(flat)
        return net.loss_and_grad(params, z, t, kids, cids, tgt, a)

    v = adapter.flat()
    _fd_check(fn, v, range(len(v)))


def test_adapter_gradient_is_adapter_sized(small):
    net, params = small
    adapter = net.init_lora(rank=2, seed=0)
    rng = np.random.default_rng(6)
    z, t = _batch(rng, 3)
    before = params.flat.copy()
    _, grad = net.loss_and_grad(params, z, t, np.full(3, 0), np.full(3, 0),
                                rng.standard_normal((3, 2)), adapter)
    assert grad.shape == adapter.flat().shape
    assert np.array_equal(params.flat, before)


def test_clone_frozen_immutable(small):
    net, params = small
    frozen = clone_frozen(params)
    ck = checksum(frozen)
    assert np.array_equal(net.forward_batch(params, [0.1, 0.2], 0.5, 0, 0)[0],
                          net.forward_batch(frozen, [0.1, 0.2], 0.5, 0, 0)[0])
    params.flat += 1.0
    assert checksum(frozen) == ck
    with pytest.raises(ValueError):
        frozen.flat[0] = 3.0


def test_checkpoint_round_trip(small, tmp_path):
    net, params = small
    params.flat[:] = np.random.default_rng(8).standard_normal(net.n_params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    cfg, back = load_checkpoint(path)
    assert cfg == net.config
    assert np.array_equal(back.flat, params.flat)
    assert back.layout == net.layout
