import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ant_lab import fusion, workers
from ant_lab.diffusion import make_schedule
from ant_lab.finetune import AntLossConfig
from ant_lab.fusion import (
    FusionProblem,
    RankDeficiencyError,
    concept_target_embeddings,
    erase_multi,
    fuse,
    fusion_objective,
    load_adapter,
    save_adapter,
    train_concept_lora,
)
from ant_lab.net import LoraAdapter, NetConfig, ScoreNet, checksum
from forking import count_forks


def _random_problem(rng, h=6, d=4, q=3, p=2, m=3, beta=0.5):
    W = rng.standard_normal((h, d))
    deltas = [rng.standard_normal((h, d)) for _ in range(q)]
    targets = [[rng.standard_normal(d) for _ in range(p)] for _ in range(q)]
    preserve = [rng.standard_normal(d) for _ in range(m)]
    return FusionProblem(W, deltas, targets, preserve, beta)


def _gd_oracle(problem, steps=20_000):
    """Plain gradient descent on the fusion objective, step size from the Gram
    spectrum so the quadratic converges monotonically."""
    d = problem.W.shape[1]
    B = np.zeros((d, d))
    A = np.zeros_like(problem.W)
    for dw, group in zip(problem.deltas, problem.target_embeddings):
        E = np.asarray(group, dtype=float)
        G = E.T @ E
        B += G
        A += (problem.W + dw) @ G
    if problem.preserve_embeddings:
        E = np.asarray(problem.preserve_embeddings, dtype=float)
        B += problem.beta * (E.T @ E)
        A += problem.W @ (problem.beta * (E.T @ E))
    lr = 0.9 / np.linalg.eigvalsh(B).max()
    W = problem.W.copy()
    for _ in range(steps):
        W -= lr * 2.0 * (W @ B - A)
    return W


def test_all_zero_deltas_returns_base():
    rng = np.random.default_rng(0)
    problem = _random_problem(rng)
    problem.deltas = [np.zeros_like(problem.W) for _ in problem.deltas]
    W_star = fuse(problem)
    assert np.allclose(W_star, problem.W, atol=1e-10)


def test_single_spanning_adapter_exact():
    rng = np.random.default_rng(1)
    h, d = 6, 4
    W = rng.standard_normal((h, d))
    dw = rng.standard_normal((h, d))
    targets = [[rng.standard_normal(d) for _ in range(d + 1)]]  # spans R^d
    W_star = fuse(FusionProblem(W, [dw], targets, [], beta=0.0))
    assert np.allclose(W_star, W + dw, atol=1e-9)


def test_closed_form_beats_gd_oracle():
    rng = np.random.default_rng(2)
    problem = _random_problem(rng)
    W_star = fuse(problem)
    W_gd = _gd_oracle(problem)
    assert fusion_objective(problem, W_star) <= fusion_objective(problem, W_gd) + 1e-9


def test_objective_gradient_vanishes_at_solution():
    rng = np.random.default_rng(3)
    problem = _random_problem(rng)
    W_star = fuse(problem)
    eps = 1e-6
    grad = np.zeros_like(W_star)
    for i in range(W_star.shape[0]):
        for j in range(W_star.shape[1]):
            Wp, Wm = W_star.copy(), W_star.copy()
            Wp[i, j] += eps
            Wm[i, j] -= eps
            grad[i, j] = (fusion_objective(problem, Wp) - fusion_objective(problem, Wm)) / (2 * eps)
    scale = max(np.linalg.norm(W_star), 1.0)
    assert np.linalg.norm(grad) / scale < 1e-6  # FD noise floor; exact check in acceptance


def test_beta_monotonicity():
    rng = np.random.default_rng(4)
    dists = []
    for beta in (0.1, 1.0, 10.0, 100.0, 1e4):
        rng2 = np.random.default_rng(4)
        problem = _random_problem(rng2, beta=beta)
        # preserve embeddings must span for beta to dominate in the limit
        problem.preserve_embeddings = [np.eye(4)[i] for i in range(4)]
        dists.append(np.linalg.norm(fuse(problem) - problem.W))
    assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_rank_deficiency_reported():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((6, 4))
    dw = rng.standard_normal((6, 4))
    # one target embedding cannot span a 4-dimensional space
    problem = FusionProblem(W, [dw], [[rng.standard_normal(4)]], [], beta=0.0)
    with pytest.raises(RankDeficiencyError, match="rank"):
        fuse(problem)


@pytest.mark.parametrize("damage", ["nan delta", "inf target embedding"])
def test_non_finite_fusion_input_raises_before_any_lapack_call(monkeypatch, damage):
    problem = _random_problem(np.random.default_rng(8))
    if damage == "nan delta":
        problem.deltas[1][2, 0] = np.nan
    else:
        problem.target_embeddings[0][1][3] = np.inf

    def lapack(*args, **kwargs):
        raise AssertionError("a LAPACK routine ran on non-finite input")

    for name in ("eigvalsh", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, lapack)
    with pytest.raises(ValueError, match="fusion inputs are not finite"):
        fuse(problem)


def test_jitter_escalation_logs_each_jitter_it_tries(monkeypatch, caplog):
    tried = []

    def failing_cholesky(M):
        tried.append(M[0, 0] - 1.0)  # the Gram matrix is the identity
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    W = np.random.default_rng(7).standard_normal((6, 4))
    problem = FusionProblem(W, [np.zeros((6, 4))], [list(np.eye(4))], [], beta=0.1)
    with caplog.at_level(logging.WARNING, logger="ant_lab.fusion"), \
            pytest.raises(RankDeficiencyError, match="jitter up to 1e-08 "):
        fuse(problem)
    assert tried == pytest.approx([0.0, 1e-10, 1e-9, 1e-8], abs=1e-15)
    assert [r.args[0] for r in caplog.records] == pytest.approx(tried[1:], abs=1e-15)


def test_problem_validation():
    rng = np.random.default_rng(6)
    W = rng.standard_normal((6, 4))
    with pytest.raises(ValueError):
        FusionProblem(W, [np.zeros((3, 3))], [[np.zeros(4)]], [], 0.1)


def test_train_concept_lora_leaves_base_untouched(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    sched = make_schedule()
    ck = checksum(params)
    cfg = AntLossConfig(steps=5, batch=2, seed=0)
    adapter = train_concept_lora(net, params, 0, cfg, sched, rank=2)
    assert checksum(params) == ck
    assert np.any(adapter.delta() != 0)


def test_adapter_training_order_independent(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    sched = make_schedule()
    cfg = AntLossConfig(steps=5, batch=2, seed=0)
    a0 = train_concept_lora(net, params, 0, cfg, sched, rank=2)
    a1 = train_concept_lora(net, params, 1, cfg, sched, rank=2)
    b1 = train_concept_lora(net, params, 1, cfg, sched, rank=2)
    b0 = train_concept_lora(net, params, 0, cfg, sched, rank=2)
    assert np.array_equal(a0.flat, b0.flat)
    assert np.array_equal(a1.flat, b1.flat)


def test_erase_multi_installs_fused_matrix(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    sched = make_schedule()
    cfg = AntLossConfig(steps=5, batch=2, seed=0)
    fused, adapters, problem = erase_multi(net, params, [0, 2], cfg, sched, rank=2)
    assert set(adapters) == {0, 2}
    for a in adapters.values():  # down and up are views of the vector that came back
        assert np.shares_memory(a.down, a.flat) and np.shares_memory(a.up, a.flat)
        assert np.array_equal(a.delta(), a.up @ a.down) and np.any(a.flat)
    assert not np.array_equal(fused.view("w_cond"), params.view("w_cond"))
    untouched = [n for n, _, _ in net.layout if n != "w_cond"]
    for name in untouched:
        assert np.array_equal(fused.view(name), params.view(name))
    assert len(problem.preserve_embeddings) == 1 * (net.config.n_contexts + 1) + 1


def _erase_multi_forks():
    """The forks of erase_multi on the `tiny` net, three concepts, 2 CPUs claimed,
    with 24 steps at batch 16 an adapter: three teacher chunks each."""
    workers._cpus = lambda: 2
    forks = count_forks()
    net = ScoreNet(NetConfig(3, 2, hidden_width=16, time_embed_dim=8, cond_embed_dim=4))
    erase_multi(net, net.init_params(seed=0), [0, 1, 2],
                AntLossConfig(steps=24, batch=16, seed=0), make_schedule(), rank=2)
    return len(forks)


def test_erase_multi_forks_once(fresh):
    """A map never nests: the adapters' map forks one worker, and the teacher
    chunks of every adapter, the caller's own included, take the loop, so two
    processes share the two CPUs."""
    assert fresh(_erase_multi_forks) == 1


def test_concept_target_embeddings_cover_contexts(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    es = concept_target_embeddings(net, params, 1)
    assert len(es) == net.config.n_contexts + 1
    ce, xe = params.view("concept_emb"), params.view("context_emb")
    assert np.array_equal(es[0], ce[1] + xe[0])


def test_adapter_save_load_round_trip(tiny, tmp_path):
    spec, net = tiny
    adapter = net.init_lora(rank=3, seed=7)
    adapter.up[:] = np.random.default_rng(8).standard_normal(adapter.up.shape)
    path = tmp_path / "adapter.txt"
    save_adapter(adapter, 2, path)
    concept, back = load_adapter(path)
    assert concept == 2
    assert back.rank == 3
    assert np.array_equal(back.down, adapter.down)
    assert np.array_equal(back.up, adapter.up)


def test_truncated_adapter_rejected_naming_file(tiny, tmp_path):
    spec, net = tiny
    path = tmp_path / "adapter.txt"
    save_adapter(net.init_lora(rank=3, seed=7), 2, path)
    lines = path.read_text().splitlines()
    for cut in (lines[:-1], lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]):  # lost row, short row
        path.write_text("\n".join(cut) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_adapter(path)


@pytest.mark.parametrize("value, row", [("nan", 1), ("inf", -1)], ids=["nan-down", "inf-up"])
def test_non_finite_adapter_rejected_naming_file(tiny, tmp_path, value, row):
    spec, net = tiny
    path = tmp_path / "adapter.txt"
    save_adapter(net.init_lora(rank=3, seed=7), 2, path)
    lines = path.read_text().splitlines()  # the header, the down rows, then the up rows
    lines[row] = " ".join([value] + lines[row].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_adapter(path)


def test_adapter_rank_must_match_down_rows(tiny, tmp_path):
    spec, net = tiny
    path = tmp_path / "adapter.txt"
    save_adapter(net.init_lora(rank=3, seed=7), 2, path)
    path.write_text(path.read_text().replace("rank=3", "rank=2", 1))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_adapter(path)


_ADAPTER_DAMAGE = {
    "header without its prefix": lambda ls: [ls[0].removeprefix("# lora adapter ")] + ls[1:],
    "header with another word": lambda ls: [ls[0].replace("lora adapter", "lora thing")] + ls[1:],
    "blank line among the rows": lambda ls: ls[:2] + [""] + ls[2:],
}


@pytest.mark.parametrize("damage", _ADAPTER_DAMAGE.values(), ids=_ADAPTER_DAMAGE.keys())
def test_malformed_adapter_rejected_naming_file(tiny, tmp_path, damage):
    spec, net = tiny
    path = tmp_path / "adapter.txt"
    save_adapter(net.init_lora(rank=3, seed=7), 2, path)
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_adapter(path)


@st.composite
def _adapters(draw):
    rank, d_e, h = (draw(st.integers(1, 3)) for _ in range(3))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=rank * (d_e + h), max_size=rank * (d_e + h)))
    return draw(st.integers(0, 9)), LoraAdapter(np.array(values), (rank, d_e), (h, rank))


@given(_adapters())
def test_adapter_round_trip_is_exact(tmp_path, case):
    concept, adapter = case
    path = tmp_path / "adapter.txt"
    save_adapter(adapter, concept, path)
    back_concept, back = load_adapter(path)
    assert back_concept == concept
    assert back.down.shape == adapter.down.shape and back.up.shape == adapter.up.shape
    assert back.flat.tobytes() == adapter.flat.tobytes()


@settings(max_examples=10)
@given(_adapters())
def test_every_strict_prefix_of_an_adapter_is_rejected(tmp_path, case):
    concept, adapter = case
    path = tmp_path / "adapter.txt"
    save_adapter(adapter, concept, path)
    text = path.read_text()
    for cut in range(len(text)):
        path.write_text(text[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_adapter(path)
