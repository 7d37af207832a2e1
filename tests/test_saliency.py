import logging
import re

import numpy as np
import pytest

from ant_lab.diffusion import make_schedule
from ant_lab.finetune import AntLossConfig, erase_single
from ant_lab.net import clone_frozen
from ant_lab.saliency import (
    SaliencyConfig,
    SaliencyMask,
    build_concept_mask,
    load_mask,
    save_mask,
    save_saliency_curve,
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
    assert load_mask(path).meta == {"fallback": "union"}
    save_mask(SaliencyMask(bits), path)
    assert load_mask(path).meta == {}


def test_truncated_mask_rejected_naming_file(tmp_path):
    path = tmp_path / "m.txt"
    save_mask(SaliencyMask(np.array([True, False] * 5)), path)
    *header, runs = path.read_text().splitlines()
    for body in ([runs.rsplit(" ", 3)[0]], []):  # short run list, no run list
        path.write_text("\n".join(header + body) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_mask(path)


def test_saliency_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    save_saliency_curve([(1, 100), (2, 50)], path)
    assert path.read_text() == "n_maps,active_params\n1,100\n2,50\n"


def test_masked_erasure_touches_only_masked_coords(setup):
    spec, net, params, frozen, sched = setup
    rng = np.random.default_rng(2)
    bits = rng.random(net.n_params) < 0.1
    mask = SaliencyMask(bits)
    out, _, _ = erase_single(net, params, 0, _loss_cfg(steps=20), sched, mask=mask)
    assert np.array_equal(out.flat[~bits], params.flat[~bits])
    assert not np.array_equal(out.flat[bits], params.flat[bits])
