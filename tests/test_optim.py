import numpy as np
import pytest

from ant_lab.optim import Adam


def _run(mask, steps=50, n=200, seed=0):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(n)
    opt = Adam(n, 1e-2, mask=mask)
    for _ in range(steps):
        opt.step(params, rng.standard_normal(n))
    return params


def test_unmasked_coordinates_bitwise_constant():
    rng = np.random.default_rng(1)
    mask = rng.random(200) < 0.3
    start = np.random.default_rng(0).standard_normal(200)
    end = _run(mask)
    assert np.array_equal(end[~mask], start[~mask])
    assert not np.array_equal(end[mask], start[mask])


def test_all_zero_mask_is_identity():
    start = np.random.default_rng(0).standard_normal(200)
    assert np.array_equal(_run(np.zeros(200, dtype=bool)), start)


def test_all_ones_mask_equals_unmasked():
    assert np.array_equal(_run(np.ones(200, dtype=bool)), _run(None))


def test_mask_of_another_length_rejected():
    for n_mask in (199, 201):
        with pytest.raises(ValueError, match="mask covers"):
            Adam(200, 1e-2, mask=np.ones(n_mask, dtype=bool))


def _check_out_of_place_formula_bitwise(mask):
    # the out-of-place update the in-place step must reproduce to the last bit on the
    # masked coordinates (all of them without a mask); the others keep their values
    rng = np.random.default_rng(3)
    n, lr, b1, b2, eps = 300, 1e-3, 0.9, 0.999, 1e-8
    on = np.ones(n, dtype=bool) if mask is None else mask
    params = rng.standard_normal(n)
    ref = params.copy()
    m = np.zeros(n)
    v = np.zeros(n)
    opt = Adam(n, lr, betas=(b1, b2), eps=eps, mask=mask)
    for t in range(1, 51):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)
        opt.step(params, g)
        m[on] = b1 * m[on] + (1 - b1) * g[on]
        v[on] = b2 * v[on] + (1 - b2) * g[on] * g[on]
        ref[on] -= lr * (m[on] / (1 - b1**t)) / (np.sqrt(v[on] / (1 - b2**t)) + eps)
        assert params.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_unmasked_step_equals_out_of_place_formula_bitwise():
    _check_out_of_place_formula_bitwise(None)


def test_masked_step_equals_out_of_place_formula_bitwise():
    _check_out_of_place_formula_bitwise(np.random.default_rng(4).random(300) < 0.3)
