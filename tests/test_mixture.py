import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from ant_lab import metrics, mixture
from ant_lab.mixture import (
    Dataset,
    InvalidMixtureError,
    MixtureSpec,
    bayes_classify_batch,
    load_dataset_csv,
    log_density_batch,
    make_mixture,
    noised_eps,
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


def _scipy_takes_the_maxima_out() -> bool:
    # log(1 + e^-40) rounds to 0; log1p(e^-40), after the maximum is taken out, does not
    return logsumexp([0.0, -40.0]) != 0.0


@pytest.mark.skipif(not _scipy_takes_the_maxima_out(),
                    reason="the installed SciPy's logsumexp does not take the maxima out of "
                           "the sum; mixture._logsumexp follows SciPy 1.17.1's order")
def test_logsumexp_equals_scipys_bitwise():
    """mixture._logsumexp, the oracles' reduction, equals SciPy's real-valued
    logsumexp bit for bit on 1,024-point blocks of mode terms, reduced over every
    mode and per concept over contexts, edge rows included: a zero-weight mode,
    tied maxima, an all -inf row and a point whose terms overflow."""
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    centers = axes[:, None, :] * np.array([1.0, 3.0])[:, None]  # rings 1 and 3, exact
    zero = np.full((4, 2), 1.0 / 5)
    zero[1, 0] = zero[3, :] = 0.0  # a zero-weight mode, and a concept whose row is all -inf
    edge = np.array([[0.0, 0.0],    # the four modes of ring 1 tie
                     [2.0, 0.0],    # concept 0's two contexts tie
                     [1e300, 0.0],  # every term overflows to -inf
                     [1.0, 0.0]])   # on a mode's center
    rng = np.random.default_rng(13)
    specs = [MixtureSpec(4, 2, centers, 0.4, np.full((4, 2), 1.0 / 8)),
             MixtureSpec(4, 2, centers, 0.4, zero), make_mixture(8, 3, 2.0, 0.3)]
    for spec in specs:
        for _ in range(3):
            x = rng.normal(0, 3, size=(1024, 2))
            x[:len(edge)] = edge
            with np.errstate(over="ignore"):
                terms = _per_mode_log_terms(spec, x)
            for a in (terms.reshape(len(x), -1), terms):
                assert np.array_equal(_bits(mixture._logsumexp(a)), _bits(logsumexp(a, axis=-1)))
    # the edge rows are what they claim to be
    terms = _per_mode_log_terms(specs[0], edge[:2])
    assert np.sum(terms[0] == terms[0].max()) == 4 and terms[1, 0, 0] == terms[1, 0, 1]
    with np.errstate(over="ignore"):
        terms = _per_mode_log_terms(specs[1], edge)
    assert np.all(terms[2] == -np.inf) and np.all(terms[:, 3] == -np.inf)


@pytest.mark.parametrize("shape", [(1, 2), (1023, 2), (1024, 2), (1025, 2),
                                   (3 * 1024 + 7, 2), (3, 700, 2)])
def test_blocked_oracles_equal_one_pass_over_every_point_bitwise(shape):
    """Both oracles, taken in blocks of ORACLE_BLOCK points, equal their values
    from one pass over all the points' mode terms, bit for bit, around and across
    block edges and for a (k, m, 2) input."""
    assert mixture.ORACLE_BLOCK == 1024
    base = make_mixture(8, 3, 2.5, 0.4)
    w = base.mode_weights.copy()
    w[5, 0] = 0.0  # a zero-weight mode takes the -inf path
    w /= w.sum()
    x = np.random.default_rng(11).normal(0, 3, size=shape)
    for spec in (base, MixtureSpec(8, 3, base.mode_centers, 0.3, w)):
        terms = _per_mode_log_terms(spec, x)
        density = mixture._logsumexp(terms.reshape(terms.shape[:-2] + (-1,)))
        classes = np.argmax(mixture._logsumexp(terms), axis=-1)
        got = log_density_batch(spec, x)
        assert got.shape == shape[:-1] and np.array_equal(_bits(got), _bits(density))
        got = bayes_classify_batch(spec, x)
        assert got.shape == shape[:-1] and np.array_equal(got, classes)


def test_threshold_draw_peaks_under_8_mb_traced(monkeypatch):
    """off_manifold_threshold's 100,000 points hold their mode terms one block at a
    time: the traced peak over the draw, NumPy's domain included, stays under 8 MB.
    Taken in one block, the terms alone are 19.2 MB an array."""
    spec = make_mixture(8, 3, 2.0, 0.3)

    def traced_peak():
        tracemalloc.start()
        try:
            metrics.off_manifold_threshold(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak() < 8 * 2**20
    monkeypatch.setattr(mixture, "ORACLE_BLOCK", 100_000)
    assert traced_peak() > 8 * 2**20  # the bound sees NumPy's arrays


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
            lse = mixture._logsumexp(ref.reshape(ref.shape[:-2] + (-1,)))
            assert np.array_equal(_bits(log_density_batch(spec, x)), _bits(lse))
            post = np.argmax(mixture._logsumexp(ref), axis=-1)
            assert np.array_equal(bayes_classify_batch(spec, x), post)
    ds = sample_dataset(base, 100_000, 12345)  # off_manifold_threshold's default draw
    ref = _reference_log_terms(base, ds.points)
    expected = np.percentile(mixture._logsumexp(ref.reshape(len(ref), -1)), 1.0)
    assert metrics.off_manifold_threshold(base).hex() == float(expected).hex()


def _noised_spec(spec, schedule, t, kid, cid):
    """The mixture noised to t and conditioned on (kid, cid), null ids free, as a
    MixtureSpec: centers sqrt(ab) mu, std sqrt(ab sigma^2 + 1 - ab), and the
    weights of the condition's modes renormalized."""
    ab = schedule.alpha_bars[t]
    w = spec.mode_weights.copy()
    if kid < spec.n_concepts:
        w[np.arange(spec.n_concepts) != kid] = 0.0
    if cid < spec.n_contexts:
        w[:, np.arange(spec.n_contexts) != cid] = 0.0
    return MixtureSpec(spec.n_concepts, spec.n_contexts, np.sqrt(ab) * spec.mode_centers,
                       float(np.sqrt(ab * spec.mode_std**2 + 1 - ab)), w / w.sum())


@pytest.mark.parametrize("t", [1, 3, 10, 60])
def test_noised_eps_is_the_scaled_score_of_the_noised_density(schedule, t):
    """eps* = -sqrt(1 - ab) grad log p_t: against central differences of
    log_density_batch on the noised, conditioned mixture, at small t where the
    field is sharpest and at one larger t; for a full condition, a concept with
    its context null, the full null, and a context with its concept null."""
    spec = make_mixture(4, 2, 2.0, 0.3)
    rng = np.random.default_rng(t)
    h = 1e-5
    for kid, cid in ((1, 0), (2, 2), (4, 2), (4, 1)):
        noised = _noised_spec(spec, schedule, t, kid, cid)
        z = 3.0 * rng.standard_normal((50, 2))
        score = np.stack([(log_density_batch(noised, z + h * e) -
                           log_density_batch(noised, z - h * e)) / (2 * h)
                          for e in np.eye(2)], axis=-1)
        want = -np.sqrt(1 - schedule.alpha_bars[t]) * score
        got = noised_eps(spec, schedule, z, t, kid, cid)
        assert got.shape == z.shape
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def test_noised_eps_per_point_arguments_equal_scalar_calls_bitwise(schedule):
    """t and the ids one per point, across an ORACLE_BLOCK edge and for a (k, m, 2)
    input, give each point the value of a call with its own scalars."""
    spec = make_mixture(8, 3, 2.5, 0.5)
    rng = np.random.default_rng(4)
    z = rng.normal(0, 3, size=(3, 700, 2))
    t = rng.integers(0, 101, size=(3, 700))
    kids, cids = rng.integers(0, 9, size=(3, 700)), rng.integers(0, 4, size=(3, 700))
    got = noised_eps(spec, schedule, z, t, kids, cids)
    assert got.shape == z.shape
    for i in (0, 1, 1023, 1024, 2099):
        j = np.unravel_index(i, t.shape)
        assert np.array_equal(_bits(got[j]),
                              _bits(noised_eps(spec, schedule, z[j], t[j], kids[j], cids[j])))


def test_noised_eps_equals_a_monte_carlo_posterior_mean_on_two_modes(schedule):
    """E[eps | z_t = z] on a two-mode mixture, estimated by weighting 400,000
    draws of x0 by N(z; sqrt(ab) x0, 1 - ab), at points between the modes and
    near each: within four of the estimate's standard errors."""
    spec = MixtureSpec(2, 1, np.array([[[-1.5, 0.0]], [[1.5, 0.5]]]), 0.4,
                       np.array([[0.3], [0.7]]))
    rng = np.random.default_rng(0)
    x0 = sample_dataset(spec, 400_000, 1).points
    for t in (20, 50, 80):
        ab = schedule.alpha_bars[t]
        for z in ([0.0, 0.2], [-0.8, 0.0], [1.0, 0.6]):
            z = np.asarray(z) + 0.1 * rng.standard_normal(2)
            eps = (z - np.sqrt(ab) * x0) / np.sqrt(1 - ab)
            w = np.exp(-0.5 * np.sum(eps * eps, axis=1))
            mc = w @ eps / w.sum()
            se = np.sqrt(w**2 @ (eps - mc) ** 2) / w.sum()
            assert np.all(np.abs(noised_eps(spec, schedule, z, t, 2, 1) - mc) <= 4 * se)


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
