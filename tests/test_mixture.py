import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from ant_lab import metrics
from ant_lab.mixture import (
    Dataset,
    InvalidMixtureError,
    MixtureSpec,
    bayes_classify_batch,
    load_dataset_csv,
    log_density_batch,
    make_mixture,
    _per_mode_log_terms,
    sample_dataset,
    save_dataset_csv,
)


def test_mode_centers_on_rings():
    spec = make_mixture(4, 1, 2.0, 0.1)
    assert np.allclose(spec.mode_centers[0, 0], [2.0, 0.0], atol=1e-12)
    assert np.allclose(spec.mode_centers[1, 0], [0.0, 2.0], atol=1e-12)


def test_uniform_weights():
    spec = make_mixture(8, 3, 1.0, 0.05)
    assert spec.mode_weights.shape == (8, 3)
    assert np.allclose(spec.mode_weights, 1.0 / 24)


def test_weights_must_sum_to_one():
    spec = make_mixture(2, 1, 1.0, 0.1)
    with pytest.raises(InvalidMixtureError):
        MixtureSpec(2, 1, spec.mode_centers, 0.1, spec.mode_weights * 2.0)


def test_sampling_deterministic():
    spec = make_mixture(8, 3, 2.0, 0.1)
    a = sample_dataset(spec, 500, 42)
    b = sample_dataset(spec, 500, 42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.concepts, b.concepts)
    assert np.array_equal(a.contexts, b.contexts)


def test_sampling_sigma_limit():
    spec = make_mixture(4, 2, 2.0, 1e-14)
    ds = sample_dataset(spec, 200, 0)
    centers = spec.mode_centers[ds.concepts, ds.contexts]
    assert np.allclose(ds.points, centers, atol=1e-12)


def test_concept_frequencies():
    spec = make_mixture(8, 3, 2.0, 0.1)
    ds = sample_dataset(spec, 10_000, 1)
    freqs = np.bincount(ds.concepts, minlength=8) / len(ds)
    assert np.all(np.abs(freqs - 1.0 / 8) < 0.02)


def test_dataset_label_validation():
    spec = make_mixture(2, 1, 1.0, 0.1)
    with pytest.raises(InvalidMixtureError):
        Dataset(np.zeros((1, 2)), np.array([5]), np.array([0]), spec)


def test_bayes_at_mode_centers():
    spec = make_mixture(8, 3, 2.0, 0.1)
    for k in range(8):
        for c in range(3):
            assert bayes_classify_batch(spec, spec.mode_centers[k, c][None])[0] == k


def test_bayes_tie_breaks_to_lowest_id():
    # only concepts 1 and 3 carry weight; the origin is equidistant from both
    base = make_mixture(4, 1, 2.0, 0.5)
    w = np.zeros((4, 1))
    w[1, 0] = w[3, 0] = 0.5
    spec = MixtureSpec(4, 1, base.mode_centers, 0.5, w)
    assert bayes_classify_batch(spec, np.zeros((1, 2)))[0] == 1


def test_bayes_matches_brute_force_posterior():
    spec = make_mixture(8, 3, 2.0, 0.3)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5, 5, size=(200, 2))
    var = spec.mode_std**2
    post = np.zeros((200, 8))
    for k in range(8):
        for c in range(3):
            d2 = np.sum((xs - spec.mode_centers[k, c]) ** 2, axis=1)
            post[:, k] += spec.mode_weights[k, c] * np.exp(-d2 / (2 * var))
    assert np.array_equal(bayes_classify_batch(spec, xs), np.argmax(post, axis=1))


def test_log_density_peak_value():
    base = make_mixture(2, 1, 1.0, 0.2)
    w = np.array([[1.0], [0.0]])
    spec = MixtureSpec(2, 1, base.mode_centers, 0.2, w)
    expected = np.log(1.0 / (2.0 * np.pi * 0.2**2))
    assert abs(log_density_batch(spec, spec.mode_centers[0, 0]) - expected) < 1e-12


def test_log_density_decays_far_away():
    spec = make_mixture(4, 2, 2.0, 0.1)
    far = log_density_batch(spec, [100.0, 100.0])
    peaks = log_density_batch(spec, spec.mode_centers)
    assert far < peaks.min()
    assert np.isfinite(far)


def test_log_density_vs_naive_extended_precision():
    spec = make_mixture(8, 3, 2.0, 0.3)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-6, 6, size=(100, 2))
    var = np.longdouble(spec.mode_std) ** 2
    for x in xs:
        total = np.longdouble(0.0)
        for k in range(8):
            for c in range(3):
                d2 = np.sum((np.longdouble(x) - spec.mode_centers[k, c]) ** 2)
                total += spec.mode_weights[k, c] / (2 * np.pi * var) * np.exp(-d2 / (2 * var))
        assert abs(log_density_batch(spec, x) - float(np.log(total))) < 1e-10


def test_density_normalization_monte_carlo():
    spec = make_mixture(4, 2, 1.5, 0.2)
    lo = spec.mode_centers.reshape(-1, 2).min(axis=0) - 6 * spec.mode_std
    hi = spec.mode_centers.reshape(-1, 2).max(axis=0) + 6 * spec.mode_std
    rng = np.random.default_rng(9)
    xs = rng.uniform(lo, hi, size=(1_000_000, 2))
    box = np.prod(hi - lo)
    integral = float(np.mean(np.exp(log_density_batch(spec, xs)))) * box
    assert abs(integral - 1.0) < 0.02


def _reference_log_terms(spec, x):
    """The (..., K, C, 2) difference form the per-coordinate terms must equal bitwise."""
    var = spec.mode_std**2
    diff = x[..., None, None, :] - spec.mode_centers
    sq = np.sum(diff * diff, axis=-1)
    with np.errstate(divide="ignore"):
        logw = np.where(spec.mode_weights > 0, np.log(np.maximum(spec.mode_weights, 1e-300)), -np.inf)
    return logw - np.log(2.0 * np.pi * var) - sq / (2.0 * var)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_oracle_equals_difference_form_bitwise():
    base = make_mixture(8, 3, 2.5, 0.5)
    w = base.mode_weights.copy()
    w[2, 1] = 0.0  # a zero-weight mode takes the -inf path
    w /= w.sum()
    rng = np.random.default_rng(5)
    for spec in (base, MixtureSpec(8, 3, base.mode_centers, 0.3, w)):
        for x in (rng.uniform(-7, 7, size=(500, 2)), rng.normal(0, 3, size=(6, 7, 2)),
                  np.array([0.3, -1.2])):
            ref = _reference_log_terms(spec, x)
            assert np.array_equal(_bits(_per_mode_log_terms(spec, x)), _bits(ref))
            lse = logsumexp(ref.reshape(ref.shape[:-2] + (-1,)), axis=-1)
            assert np.array_equal(_bits(log_density_batch(spec, x)), _bits(lse))
            post = np.argmax(logsumexp(ref, axis=-1), axis=-1)
            assert np.array_equal(bayes_classify_batch(spec, x), post)
    ds = sample_dataset(base, 100_000, 12345)  # off_manifold_threshold's default draw
    ref = _reference_log_terms(base, ds.points)
    expected = np.percentile(logsumexp(ref.reshape(len(ref), -1), axis=-1), 1.0)
    assert metrics.off_manifold_threshold(base).hex() == float(expected).hex()


def test_dataset_csv_round_trip(tmp_path):
    spec = make_mixture(4, 2, 2.0, 0.1)
    ds = sample_dataset(spec, 50, 5)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    assert path.read_text().splitlines()[0] == "x,y,concept,context"
    back = load_dataset_csv(path, spec)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.concepts, ds.concepts)
    assert np.array_equal(back.contexts, ds.contexts)


_SPEC = make_mixture(4, 2, 2.0, 0.1)
_rows = st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(0, 3), st.integers(0, 1)), min_size=1, max_size=20)


def _dataset(rows):
    return Dataset(np.array([r[:2] for r in rows]), np.array([r[2] for r in rows]),
                   np.array([r[3] for r in rows]), _SPEC)


@given(_rows)
def test_dataset_csv_round_trip_is_exact(tmp_path, rows):
    ds = _dataset(rows)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path, _SPEC)
    assert back.points.tobytes() == ds.points.tobytes()
    assert np.array_equal(back.concepts, ds.concepts)
    assert np.array_equal(back.contexts, ds.contexts)


@given(_rows, st.data())
def test_dataset_csv_cut_mid_line_is_rejected(tmp_path, rows, data):
    path = tmp_path / "ds.csv"
    save_dataset_csv(_dataset(rows), path)
    text = path.read_text()
    cut = data.draw(st.sampled_from([i for i in range(len(text)) if text[i - 1:i] != "\n"]))
    path.write_text(text[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_dataset_csv(path, _SPEC)


_DATASET_DAMAGE = {
    "non-numeric cell": lambda ls: ls[:2] + ["abc," + ls[2].split(",", 1)[1]] + ls[3:],
    "two-column row": lambda ls: ls[:2] + [",".join(ls[2].split(",")[:2])] + ls[3:],
    "non-finite point": lambda ls: ls[:2] + ["nan," + ls[2].split(",", 1)[1]] + ls[3:],
    "label out of vocabulary": lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0] + ",7"] + ls[3:],
    "label written 01": lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0] + ",01"] + ls[3:],
    "label beyond int64": lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0] + ",1" + "0" * 20]
                                     + ls[3:],
    "header only": lambda ls: ls[:1],
    "missing header": lambda ls: ls[1:],
}


@pytest.mark.parametrize("damage", _DATASET_DAMAGE.values(), ids=_DATASET_DAMAGE.keys())
def test_malformed_dataset_csv_rejected_naming_file(tmp_path, damage):
    path = tmp_path / "ds.csv"
    save_dataset_csv(sample_dataset(_SPEC, 5, 0), path)
    path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_dataset_csv(path, _SPEC)
