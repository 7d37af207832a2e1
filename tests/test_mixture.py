import numpy as np
import pytest

from ant_lab.mixture import (
    Dataset,
    InvalidMixtureError,
    MixtureSpec,
    bayes_classify_batch,
    load_dataset_csv,
    log_density_batch,
    make_mixture,
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


@pytest.mark.parametrize("kwargs", [
    dict(n_concepts=1, n_contexts=1, radius_base=1.0, std=0.1),
    dict(n_concepts=4, n_contexts=0, radius_base=1.0, std=0.1),
    dict(n_concepts=4, n_contexts=1, radius_base=-1.0, std=0.1),
    dict(n_concepts=4, n_contexts=1, radius_base=1.0, std=0.0),
])
def test_invalid_mixture_rejected(kwargs):
    with pytest.raises(InvalidMixtureError):
        make_mixture(**kwargs)


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
        Dataset(np.zeros((1, 2)), np.array([5]), np.array([0]), spec, 0)


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
