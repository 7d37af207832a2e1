import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ant_lab import cli, finetune
from ant_lab.config import load_config
from ant_lab.diffusion import SampleDivergedError, make_schedule
from ant_lab.finetune import AntLossConfig, erase_single
from ant_lab.net import NetConfig, ScoreNet, clone_frozen, save_checkpoint
from ant_lab.saliency import (
    SaliencyConfig,
    SaliencyMask,
    build_concept_mask,
    load_mask,
    save_mask,
    single_map,
)


@pytest.fixture()
def setup(tiny):
    spec, net = tiny
    params = net.init_params(seed=0)
    return spec, net, params, clone_frozen(params), make_schedule()


def _loss_cfg(**kw):
    kw.setdefault("batch", 2)
    kw.setdefault("seed", 0)
    return AntLossConfig(**kw)


def test_threshold_rule_is_geq_quantile():
    g = np.array([0.5, -0.2, 0.05])
    gamma = 0.1
    assert np.array_equal(np.abs(g) >= gamma, [True, True, False])


def test_tiny_quantile_gives_all_ones(setup):
    spec, net, params, frozen, sched = setup
    m = single_map(net, params, frozen, 0, 0, 1, _loss_cfg(), sched, quantile=1e-9)
    # every strictly positive |grad| coordinate survives a near-zero quantile
    assert m.active > 0.99 * net.n_params


def test_active_count_matches_sort_oracle(setup):
    spec, net, params, frozen, sched = setup
    from ant_lab.finetune import ABLATION_VARIANTS, ant_loss
    q = 0.9
    _, grad, _, _, _ = ant_loss(net, params, frozen, (0, 0), _loss_cfg(),
                                np.random.default_rng(1), sched,
                                ABLATION_VARIANTS["full"])
    m = single_map(net, params, frozen, 0, 0, 1, _loss_cfg(), sched, quantile=q)
    g = np.sort(np.abs(grad))
    gamma = float(np.quantile(np.abs(grad), q))
    assert m.active == int(np.sum(g >= gamma))


def test_single_map_rejects_bad_context(setup):
    spec, net, params, frozen, sched = setup
    with pytest.raises(ValueError):
        single_map(net, params, frozen, 0, 99, 1, _loss_cfg(), sched)


def test_build_single_pair_equals_single_map(setup):
    spec, net, params, frozen, sched = setup
    cfg = SaliencyConfig(n_prompts=1, n_seeds=1, quantile=0.9)
    mask, curve = build_concept_mask(net, params, frozen, 0, cfg, _loss_cfg(), sched,
                                     base_seed=3)
    single = single_map(net, params, frozen, 0, 0, 3, _loss_cfg(), sched, quantile=0.9)
    assert np.array_equal(mask.bits, single.bits)
    assert curve == [(1, single.active)]


def test_build_curve_monotone_and_bounded(setup):
    spec, net, params, frozen, sched = setup
    cfg = SaliencyConfig(n_prompts=2, n_seeds=3, quantile=0.8)
    mask, curve = build_concept_mask(net, params, frozen, 1, cfg, _loss_cfg(), sched)
    acts = [a for _, a in curve]
    assert all(x >= y for x, y in zip(acts, acts[1:]))
    assert mask.active == acts[-1]
    singles = [single_map(net, params, frozen, 1, i, i * 3 + j, _loss_cfg(), sched, 0.8)
               for i in range(2) for j in range(3)]
    assert mask.active <= min(s.active for s in singles)


def _mask_by_single_maps(net, params, frozen, concept, cfg, loss_cfg, sched, base_seed):
    """build_concept_mask as a loop of single_map calls, one teacher ladder per map."""
    running = union = None
    curve = []
    for i in range(cfg.n_prompts):
        for j in range(cfg.n_seeds):
            m = single_map(net, params, frozen, concept, i, base_seed + i * cfg.n_seeds + j,
                           loss_cfg, sched, cfg.quantile)
            running = m.bits if running is None else running & m.bits
            union = m.bits if union is None else union | m.bits
            curve.append((len(curve) + 1, int(np.count_nonzero(running))))
    meta = {"n_maps_intersected": len(curve), "gamma_rule": m.meta["gamma_rule"]}
    if not np.any(running):
        return SaliencyMask(union, {**meta, "fallback": "union"}), curve
    return SaliencyMask(running, meta), curve


# (saliency config, loss config): the default maps (15 maps of two 16-row ranges, 480
# rows: two teacher ladders of 256 and 224 rows), [null; cond] rungs at scale 1.5,
# one range a map, and a quantile whose intersection empties out
_MASK_CASES = {
    "default": (SaliencyConfig(3, 5, 0.95), AntLossConfig()),
    "scale-1.5": (SaliencyConfig(2, 6, 0.9), AntLossConfig(latent_guidance_scale=1.5)),
    "one-range": (SaliencyConfig(3, 4, 0.8), AntLossConfig(batch=24, t_prime_train=100)),
    "union": (SaliencyConfig(3, 5, 0.9995), AntLossConfig(batch=8)),
}


@pytest.mark.bitwise
@pytest.mark.parametrize("case", _MASK_CASES.values(), ids=_MASK_CASES.keys())
def test_concept_mask_equals_a_loop_of_single_maps_bitwise(case):
    cfg, loss_cfg = case
    net = ScoreNet(NetConfig(8, 3))
    params = net.init_params(seed=4)
    frozen, sched = clone_frozen(params), make_schedule()
    mask, curve = build_concept_mask(net, params, frozen, 2, cfg, loss_cfg, sched, base_seed=7)
    want, want_curve = _mask_by_single_maps(net, params, frozen, 2, cfg, loss_cfg, sched, 7)
    assert np.array_equal(mask.bits, want.bits)
    assert mask.meta == want.meta
    assert curve == want_curve


def _diverging_on_map(index, rows):
    """finetune.guided_ladder with z_T set to inf on the rows of one map of the
    first teacher ladder."""
    ladder = finetune.guided_ladder

    def diverging(net, params, sched, z, *args, **kwargs):
        z = np.array(z)
        z[index * rows:(index + 1) * rows] = np.inf
        return ladder(net, params, sched, z, *args, **kwargs)
    return diverging


# the inf rows make inf - inf in the net and the DDIM update: the nan is the point
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_teacher_diverging_in_a_saliency_ladder_raises(monkeypatch, setup):
    spec, net, params, frozen, sched = setup
    monkeypatch.setattr(finetune, "guided_ladder", _diverging_on_map(2, 4))
    with pytest.raises(SampleDivergedError):
        build_concept_mask(net, params, frozen, 0, SaliencyConfig(2, 3), _loss_cfg(), sched)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_saliency_with_a_diverging_teacher_exits_2_and_writes_nothing(monkeypatch, tmp_path):
    cfg = load_config(None, {"run_dir": str(tmp_path)})
    save_checkpoint(tmp_path / "pretrained.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(finetune, "guided_ladder", _diverging_on_map(3, 32))
    assert cli.main(["--run-dir", str(tmp_path), "saliency"]) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_empty_intersection_falls_back_to_union(setup, caplog):
    spec, net, params, frozen, sched = setup
    cfg = SaliencyConfig(n_prompts=2, n_seeds=5, quantile=0.9995)
    with caplog.at_level(logging.WARNING, logger="ant_lab.saliency"):
        mask, curve = build_concept_mask(net, params, frozen, 0, cfg, _loss_cfg(), sched)
    if curve[-1][1] == 0:
        assert mask.meta.get("fallback") == "union"
        assert mask.active > 0
        assert any("empty saliency intersection" in r.message for r in caplog.records)
    else:
        pytest.skip("intersection did not empty out at this quantile")


def test_too_few_contexts_rejected(setup):
    spec, net, params, frozen, sched = setup
    with pytest.raises(ValueError):
        build_concept_mask(net, params, frozen, 0, SaliencyConfig(n_prompts=50),
                           _loss_cfg(), sched)


def test_mask_rle_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    bits = rng.random(500) < 0.2
    mask = SaliencyMask(bits, {"n_maps_intersected": 7, "gamma_rule": "quantile q=0.9"})
    path = tmp_path / "mask.txt"
    save_mask(mask, path)
    back = load_mask(path)
    assert np.array_equal(back.bits, bits)


def test_mask_rle_edge_patterns(tmp_path):
    for bits in (np.ones(10, dtype=bool), np.zeros(10, dtype=bool),
                 np.array([True, False] * 5)):
        path = tmp_path / "m.txt"
        save_mask(SaliencyMask(bits), path)
        assert np.array_equal(load_mask(path).bits, bits)


def test_mask_fallback_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    bits = np.array([True, False, True])
    save_mask(SaliencyMask(bits, {"fallback": "union"}), path)
    assert load_mask(path).meta == {"n_maps_intersected": 0, "gamma_rule": "",
                                    "fallback": "union"}
    save_mask(SaliencyMask(bits), path)
    assert load_mask(path).meta == {"n_maps_intersected": 0, "gamma_rule": ""}


def test_truncated_mask_rejected_naming_file(tmp_path):
    path = tmp_path / "m.txt"
    save_mask(SaliencyMask(np.array([True, False] * 5)), path)
    *header, runs = path.read_text().splitlines()
    for body in ([runs.rsplit(" ", 3)[0]], []):  # short run list, no run list
        path.write_text("\n".join(header + body) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_mask(path)


_MASK_DAMAGE = {
    "a fourth line of runs": lambda ls: ls + ["1 2"],
    "another first line": lambda ls: ["# any line length=" + ls[0].split("length=")[1]] + ls[1:],
    "wrong active count": lambda ls: [ls[0].replace(" active=5", " active=999")] + ls[1:],
    "second line not n_maps": lambda ls: ls[:1] + ["# hello"] + ls[2:],
    "a run written +1": lambda ls: ls[:2] + [ls[2].replace(" 1", " +1", 1)],
}


@pytest.mark.parametrize("damage", _MASK_DAMAGE.values(), ids=_MASK_DAMAGE.keys())
def test_malformed_mask_rejected_naming_file(tmp_path, damage):
    path = tmp_path / "m.txt"
    save_mask(SaliencyMask(np.array([True, False] * 5)), path)
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_mask(path)


_words = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_masks = st.builds(
    lambda bits, n_maps, gamma_rule, fallback: SaliencyMask(
        np.array(bits, dtype=bool), {"n_maps_intersected": n_maps, "gamma_rule": gamma_rule,
                                     **({} if fallback is None else {"fallback": fallback})}),
    st.lists(st.booleans(), max_size=64), st.integers(0, 200),
    st.sampled_from(["", "quantile q=0.95"]) | _words, st.none() | _words)


@given(_masks)
def test_mask_round_trip_is_exact(tmp_path, mask):
    path = tmp_path / "m.txt"
    save_mask(mask, path)
    back = load_mask(path)
    assert back.bits.dtype == bool and np.array_equal(back.bits, mask.bits)
    assert back.meta == mask.meta


@settings(max_examples=10)
@given(_masks)
def test_every_strict_prefix_of_a_mask_is_rejected(tmp_path, mask):
    path = tmp_path / "m.txt"
    save_mask(mask, path)
    text = path.read_text()
    for cut in range(len(text)):
        path.write_text(text[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_mask(path)


def test_saliency_curve_csv(tmp_path, monkeypatch):
    """`saliency` writes one `n_maps,active_params` line per intersected map."""
    cfg = load_config(None, {"run_dir": str(tmp_path), "saliency.n_prompts": 1,
                             "saliency.n_seeds": 2})
    save_checkpoint(tmp_path / "pretrained.ckpt", ScoreNet(cfg.net_config).init_params(seed=0))
    curves = []

    def traced(*args, **kw):
        mask, curve = build_concept_mask(*args, **kw)
        curves.append(curve)
        return mask, curve
    monkeypatch.setattr(cli, "build_concept_mask", traced)
    cli._write(cfg, cli.cmd_saliency(cfg))
    assert [n for n, _ in curves[0]] == [1, 2]
    assert (tmp_path / "saliency_curve.csv").read_text() == \
        "n_maps,active_params\n" + "".join(f"{n},{a}\n" for n, a in curves[0])


def test_masked_erasure_touches_only_masked_coords(setup):
    spec, net, params, frozen, sched = setup
    rng = np.random.default_rng(2)
    bits = rng.random(net.n_params) < 0.1
    mask = SaliencyMask(bits)
    out, _, _ = erase_single(net, params, 0, _loss_cfg(steps=20), sched, mask=mask)
    assert np.array_equal(out.flat[~bits], params.flat[~bits])
    assert not np.array_equal(out.flat[bits], params.flat[bits])
