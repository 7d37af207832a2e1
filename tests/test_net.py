import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ant_lab.net import (
    LoraAdapter,
    ModelParams,
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
        a = LoraAdapter(flat, adapter.down.shape, adapter.up.shape)
        return net.loss_and_grad(params, z, t, kids, cids, tgt, a)

    v = adapter.flat.copy()
    _fd_check(fn, v, range(len(v)))


def test_adapter_gradient_is_adapter_sized(small):
    net, params = small
    adapter = net.init_lora(rank=2, seed=0)
    rng = np.random.default_rng(6)
    z, t = _batch(rng, 3)
    before = params.flat.copy()
    _, grad = net.loss_and_grad(params, z, t, np.full(3, 0), np.full(3, 0),
                                rng.standard_normal((3, 2)), adapter)
    assert grad.shape == adapter.flat.shape
    assert np.array_equal(params.flat, before)


def test_adapter_factors_are_views_of_its_flat_vector(small):
    net, _ = small
    adapter = net.init_lora(rank=2, seed=0)
    assert np.shares_memory(adapter.down, adapter.flat)
    assert np.shares_memory(adapter.up, adapter.flat)
    adapter.flat[:] = np.arange(adapter.flat.size)
    assert np.array_equal(np.concatenate([adapter.down.ravel(), adapter.up.ravel()]),
                          adapter.flat)
    assert adapter.rank == adapter.down.shape[0] == 2


# Plain out-of-place forward and backward as the net computed them before the
# hot path went in place: the sigmoid recomputed in both SiLU helpers, a
# zeroed gradient vector and np.add.at scatters.  The in-place pass must equal
# it to the last bit.  A call whose t and ids are scalars shares them across
# its rows, and layer 1 has its own reference there: the t and condition terms
# as one h-vector, and their gradients as sums over the rows.
def _ref_silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _ref_silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _ref_layer1(net, params, z, t, kids, cids, w_eff):
    x_in = np.concatenate([z, net.time_features(t)], axis=1)
    e = params.view("concept_emb")[kids] + params.view("context_emb")[cids]
    return x_in @ params.view("w_in").T + params.view("b_in") + e @ w_eff.T, (x_in, e)


def _ref_layer1_shared(net, params, z, t, kid, cid, w_eff):
    tf = net.time_features(t)[0]
    w_in = params.view("w_in")
    e = params.view("concept_emb")[kid] + params.view("context_emb")[cid]
    c = tf @ w_in[:, 2:].T + params.view("b_in") + e @ w_eff.T
    return z @ w_in[:, :2].T + c, (z, tf, e)


def _ref_w_eff(params, adapter):
    w_cond = params.view("w_cond")
    return w_cond + adapter.delta() if adapter is not None else w_cond


def _ref_trunk(net, params, pre0):
    pre = [pre0]
    acts = [_ref_silu(pre[0])]
    for i in range(1, net.config.n_hidden_layers):
        pre.append(acts[-1] @ params.view(f"w_h{i}").T + params.view(f"b_h{i}"))
        acts.append(_ref_silu(pre[-1]))
    out = acts[-1] @ params.view("w_out").T + params.view("b_out")
    return out, pre, acts


def _ref_forward(net, params, z, t, kids, cids, adapter, layer1=_ref_layer1):
    w_eff = _ref_w_eff(params, adapter)
    pre0, inputs = layer1(net, params, z, t, kids, cids, w_eff)
    out, pre, acts = _ref_trunk(net, params, pre0)
    return out, (inputs, w_eff, pre, acts)


def _ref_pair(net, params, z, t, kid, cid, adapter):
    """The pair pass: each condition's shared layer 1, stacked [null; cond],
    then the trunk once over the 2B rows."""
    w_eff = _ref_w_eff(params, adapter)
    null = (net.config.null_concept, net.config.null_context)
    pre0 = np.concatenate([_ref_layer1_shared(net, params, z, t, *ids, w_eff)[0]
                           for ids in (null, (kid, cid))])
    out = _ref_trunk(net, params, pre0)[0]
    return out[:len(z)], out[len(z):]


def _ref_loss_and_grad(net, params, z, t, kids, cids, targets, adapter, shared=False):
    cfg = net.config
    layer1 = _ref_layer1_shared if shared else _ref_layer1
    out, (inputs, w_eff, pre, acts) = _ref_forward(net, params, z, t, kids, cids, adapter, layer1)
    diff = out - targets
    n = len(out)
    loss = float(np.sum(diff * diff) / n)
    dout = 2.0 * diff / n
    grad = np.zeros(net.n_params)
    gp = ModelParams(grad, net.layout, cfg)
    d_act = dout @ params.view("w_out")
    gp.view("w_out")[...] = dout.T @ acts[-1]
    gp.view("b_out")[...] = dout.sum(axis=0)
    for i in range(cfg.n_hidden_layers - 1, 0, -1):
        d_pre = d_act * _ref_silu_grad(pre[i])
        gp.view(f"w_h{i}")[...] = d_pre.T @ acts[i - 1]
        gp.view(f"b_h{i}")[...] = d_pre.sum(axis=0)
        d_act = d_pre @ params.view(f"w_h{i}")
    d_pre0 = d_act * _ref_silu_grad(pre[0])
    if shared:
        z, tf, e = inputs
        s = d_pre0.sum(axis=0)
        d_w_eff = np.outer(s, e)
    else:
        x_in, e = inputs
        d_w_eff = d_pre0.T @ e
    if adapter is not None:
        d_up = d_w_eff @ adapter.down.T
        d_down = adapter.up.T @ d_w_eff
        return loss, np.concatenate([d_down.ravel(), d_up.ravel()])
    gp.view("b_in")[...] = d_pre0.sum(axis=0)
    gp.view("w_cond")[...] = d_w_eff
    if shared:
        gp.view("w_in")[:, :2] = d_pre0.T @ z
        gp.view("w_in")[:, 2:] = np.outer(s, tf)
        d_e = s @ w_eff
    else:
        gp.view("w_in")[...] = d_pre0.T @ x_in
        d_e = d_pre0 @ w_eff
    np.add.at(gp.view("concept_emb"), kids, d_e)
    np.add.at(gp.view("context_emb"), cids, d_e)
    return loss, grad


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _case_net(batch, with_adapter, n_hidden_layers, rng):
    net = ScoreNet(NetConfig(4, 3, hidden_width=32, n_hidden_layers=n_hidden_layers,
                             time_embed_dim=8, cond_embed_dim=4))
    adapter = None
    if with_adapter:
        adapter = net.init_lora(rank=2, seed=1)
        adapter.up[:] = rng.standard_normal(adapter.up.shape) * 0.1
    return net, net.init_params(seed=batch), adapter


@pytest.mark.parametrize("n_hidden_layers", [1, 3])
@pytest.mark.parametrize("with_adapter", [False, True], ids=["base", "lora"])
@pytest.mark.parametrize("batch", [1, 16, 256])
def test_hot_path_equals_out_of_place_reference_bitwise(batch, with_adapter, n_hidden_layers):
    rng = np.random.default_rng(100 + batch)
    net, params, adapter = _case_net(batch, with_adapter, n_hidden_layers, rng)
    z = rng.standard_normal((batch, 2))
    t = rng.integers(1, 101, size=batch) / 100
    kids = rng.integers(0, 5, size=batch)  # null rows included
    cids = rng.integers(0, 4, size=batch)
    tgt = rng.standard_normal((batch, 2))

    ref_out, _ = _ref_forward(net, params, z, t, kids, cids, adapter)
    assert _bits(net.forward_batch(params, z, t, kids, cids, adapter)) == _bits(ref_out)
    ref_loss, ref_grad = _ref_loss_and_grad(net, params, z, t, kids, cids, tgt, adapter)
    loss, grad = net.loss_and_grad(params, z, t, kids, cids, tgt, adapter)
    assert _bits(loss) == _bits(ref_loss)
    assert _bits(grad) == _bits(ref_grad)


def _shared_case(batch, with_adapter, n_hidden_layers):
    """A net and one call's inputs whose rows share t and the condition."""
    rng = np.random.default_rng(200 + batch)
    net, params, adapter = _case_net(batch, with_adapter, n_hidden_layers, rng)
    params.flat += 0.1 * rng.standard_normal(net.n_params)  # biases too, which start at 0
    z = rng.standard_normal((batch, 2))
    t = int(rng.integers(1, 101)) / 100
    kid, cid = int(rng.integers(0, 5)), int(rng.integers(0, 4))  # null ids included
    return net, params, adapter, (z, t, kid, cid, rng.standard_normal((batch, 2)))


@pytest.mark.parametrize("n_hidden_layers", [1, 3])
@pytest.mark.parametrize("with_adapter", [False, True], ids=["base", "lora"])
@pytest.mark.parametrize("batch", [1, 16, 256])
def test_shared_pass_equals_out_of_place_reference_bitwise(batch, with_adapter, n_hidden_layers):
    net, params, adapter, (z, t, kid, cid, tgt) = _shared_case(batch, with_adapter,
                                                              n_hidden_layers)
    ref_out, _ = _ref_forward(net, params, z, t, kid, cid, adapter, _ref_layer1_shared)
    assert _bits(net.forward_batch(params, z, t, kid, cid, adapter)) == _bits(ref_out)
    ref_loss, ref_grad = _ref_loss_and_grad(net, params, z, t, kid, cid, tgt, adapter,
                                            shared=True)
    loss, grad = net.loss_and_grad(params, z, t, kid, cid, tgt, adapter)
    assert _bits(loss) == _bits(ref_loss)
    assert _bits(grad) == _bits(ref_grad)


@pytest.mark.parametrize("n_hidden_layers", [1, 3])
@pytest.mark.parametrize("with_adapter", [False, True], ids=["base", "lora"])
@pytest.mark.parametrize("batch", [1, 16, 256])
def test_shared_pass_agrees_with_the_per_row_pass(batch, with_adapter, n_hidden_layers):
    """Scalar t and ids, and the same values given once per row (a length-1
    array takes the per-row pass too), differ only in float64 rounding."""
    net, params, adapter, (z, t, kid, cid, tgt) = _shared_case(batch, with_adapter,
                                                              n_hidden_layers)
    rows = (np.full(batch, t), np.full(batch, kid), np.full(batch, cid))

    def rel(a, b):
        return np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b))

    shared = net.forward_batch(params, z, t, kid, cid, adapter)
    assert rel(shared, net.forward_batch(params, z, *rows, adapter)) <= 1e-12
    loss, grad = net.loss_and_grad(params, z, t, kid, cid, tgt, adapter)
    row_loss, row_grad = net.loss_and_grad(params, z, *rows, tgt, adapter)
    assert rel(loss, row_loss) <= 1e-12
    assert rel(grad, row_grad) <= 1e-12


# forward_pair takes no adapter (a guided rung runs base or fused weights), so
# the pair cases are the "base" cases of the shared-row tests
@pytest.mark.parametrize("n_hidden_layers", [1, 3])
@pytest.mark.parametrize("with_adapter", [False], ids=["base"])
@pytest.mark.parametrize("batch", [1, 16, 250])
def test_pair_pass_equals_out_of_place_reference_bitwise(batch, with_adapter, n_hidden_layers):
    net, params, adapter, (z, t, kid, cid, _) = _shared_case(batch, with_adapter,
                                                            n_hidden_layers)
    got = net.forward_pair(params, z, t, kid, cid)
    ref = _ref_pair(net, params, z, t, kid, cid, adapter)
    assert [_bits(a) for a in got] == [_bits(a) for a in ref]


@pytest.mark.parametrize("n_hidden_layers", [1, 3])
@pytest.mark.parametrize("with_adapter", [False], ids=["base"])
@pytest.mark.parametrize("batch", [1, 16, 250])
def test_pair_pass_agrees_with_two_forward_calls(batch, with_adapter, n_hidden_layers):
    """Each half of the stacked pass is forward_batch under its condition, up
    to the rounding of a 2B-row matmul against a B-row one."""
    net, params, adapter, (z, t, kid, cid, _) = _shared_case(batch, with_adapter,
                                                            n_hidden_layers)
    null = (net.config.null_concept, net.config.null_context)
    eps_u, eps_c = net.forward_pair(params, z, t, kid, cid)
    for got, ids in ((eps_u, null), (eps_c, (kid, cid))):
        want = net.forward_batch(params, z, t, *ids)
        assert got.shape == want.shape == (batch, 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pair_pass_rejects_out_of_vocabulary_ids(small):
    net, params = small
    z = np.zeros((3, 2))
    with pytest.raises(VocabularyError, match="concept"):
        net.forward_pair(params, z, 0.5, 4, 0)
    with pytest.raises(VocabularyError, match="context"):
        net.forward_pair(params, z, 0.5, 0, 3)
    with pytest.raises(VocabularyError, match="concept"):
        net.forward_pair(params, z, 0.5, -1, 0)


@pytest.mark.parametrize("with_adapter", [False, True], ids=["base", "lora"])
def test_shared_gradient_matches_finite_differences(small, with_adapter):
    net, params = small
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 2))
    t, kid, cid = 0.35, 2, 1
    tgt = rng.standard_normal((5, 2))
    if with_adapter:
        adapter = net.init_lora(rank=2, seed=3)
        adapter.up[:] = rng.standard_normal(adapter.up.shape) * 0.1

        def fn(flat):
            a = LoraAdapter(flat, adapter.down.shape, adapter.up.shape)
            return net.loss_and_grad(params, z, t, kid, cid, tgt, a)

        _fd_check(fn, adapter.flat.copy(), range(adapter.flat.size))
        return

    def fn(flat):
        return net.loss_and_grad(ModelParams(flat, net.layout, net.config), z, t, kid, cid, tgt)

    # flat indices of w_in's time columns, b_in, w_cond, the concept and context
    # rows in use, and concept row 0, which is not in use and gets a zero gradient
    at = ModelParams(np.arange(net.n_params), net.layout, net.config)
    coords = np.concatenate([at.view("w_in")[::3, 2:].ravel(), at.view("b_in"),
                             at.view("w_cond")[::2].ravel(),
                             at.view("concept_emb")[[kid, 0]].ravel(), at.view("context_emb")[cid]])
    _fd_check(fn, params.flat.copy(), coords)


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


# 23 parameters, so a checkpoint is a few hundred bytes
_MICRO = ScoreNet(NetConfig(2, 1, hidden_width=2, n_hidden_layers=1, time_embed_dim=2,
                            cond_embed_dim=1))
_micro_values = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=_MICRO.n_params, max_size=_MICRO.n_params)


@given(_micro_values)
def test_checkpoint_round_trip_is_exact(tmp_path, values):
    params = _MICRO.init_params(0)
    params.flat[:] = values
    path = tmp_path / "micro.ckpt"
    save_checkpoint(path, params)
    cfg, back = load_checkpoint(path)
    assert cfg == _MICRO.config
    assert back.flat.tobytes() == params.flat.tobytes()


@settings(max_examples=10)
@given(_micro_values)
def test_every_strict_prefix_of_a_checkpoint_is_rejected(tmp_path, values):
    params = _MICRO.init_params(0)
    params.flat[:] = values
    path = tmp_path / "micro.ckpt"
    save_checkpoint(path, params)
    text = path.read_text()
    for cut in range(len(text)):
        path.write_text(text[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)


_CHECKPOINT_DAMAGE = {
    "missing config line": lambda ls: [ln for ln in ls if not ln.startswith("config n_contexts")],
    "non-numeric value": lambda ls: ls[:-1] + ["abc " + ls[-1].split(" ", 1)[1]],
    "nan value": lambda ls: ls[:-1] + ["nan " + ls[-1].split(" ", 1)[1]],
    "inf value": lambda ls: ls[:-1] + ["-inf " + ls[-1].split(" ", 1)[1]],
    "short value list": lambda ls: ls[:-1],
    "extra value": lambda ls: ls + ["0.5"],
    "non-numeric layout": lambda ls: [ln.replace(" 0 ", " zero ") for ln in ls],
    "no values section": lambda ls: ls[:ls.index("values")],
    "extra line before values": lambda ls: (ls[:ls.index("values")] + ["hello world"]
                                            + ls[ls.index("values"):]),
    "repeated config line": lambda ls: ls[:2] + ls[1:],
    "other first line": lambda ls: ["# ant-lab checkpoint v2"] + ls[1:],
    "comment among values": lambda ls: ls[:-1] + ["# note"] + ls[-1:],
    "value written 1_000": lambda ls: ls[:-1] + ["1_000 " + ls[-1].split(" ", 1)[1]],
    "blank line among values": lambda ls: ls[:-1] + [""] + ls[-1:],
    "values re-wrapped 7 a line": lambda ls: _rewrap(ls, 7),
}


def _rewrap(lines, per_line):
    head = lines[:lines.index("values") + 1]
    vals = " ".join(lines[len(head):]).split()
    return head + [" ".join(vals[i:i + per_line]) for i in range(0, len(vals), per_line)]


@pytest.mark.parametrize("damage", _CHECKPOINT_DAMAGE.values(), ids=_CHECKPOINT_DAMAGE.keys())
def test_malformed_checkpoint_rejected_naming_file(small, tmp_path, damage):
    net, params = small
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)
