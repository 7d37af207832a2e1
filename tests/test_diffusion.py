import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ant_lab.diffusion import (
    GuidanceSpec,
    NoiseSchedule,
    SampleDivergedError,
    cfg_combine,
    ddim_step,
    forward_noise,
    guided_ladder,
    infer_ladder,
    make_schedule,
    sample,
    sample_sweep,
    sgn_schedule,
)
from ant_lab import workers
from ant_lab.net import NetConfig, ScoreNet, VocabularyError
from forking import count_forks


def test_schedule_invariants():
    sched = make_schedule()
    assert sched.T == 100
    assert sched.alpha_bars[0] == 1.0
    assert np.all(np.diff(sched.alpha_bars) < 0)
    assert np.all((sched.betas[1:] > 0) & (sched.betas[1:] < 1))
    with pytest.raises(ValueError):
        NoiseSchedule(2, np.array([0.0, 0.5, 0.2]), np.array([1.0, 0.5, 0.4]))


def test_infer_ladder_strictly_decreasing():
    sched = make_schedule()
    ladder = infer_ladder(sched, 50)
    assert ladder[0] == 100 and ladder[-1] == 0
    assert np.all(np.diff(ladder) < 0)
    assert len(ladder) == 51


def test_sgn_schedule_cases():
    assert sgn_schedule(44, 43) == 1
    assert sgn_schedule(43, 43) == -1
    assert sgn_schedule(1, 0) == 1


def test_cfg_combine_cases():
    eu = np.array([0.0, 0.0])
    ec = np.array([1.0, 0.0])
    assert np.array_equal(cfg_combine(eu, eu, 5.0, -1), eu)
    assert np.array_equal(cfg_combine(eu, ec, 0.0, 1), eu)
    assert np.array_equal(cfg_combine(eu, ec, 2.0, -1), [-2.0, 0.0])


def test_cfg_sign_algebra():
    rng = np.random.default_rng(0)
    eu = rng.standard_normal(2)
    ec = rng.standard_normal(2)
    assert np.allclose(cfg_combine(eu, ec, 1.7, -1), cfg_combine(eu, ec, -1.7, 1))


def test_forward_noise_boundaries():
    sched = make_schedule()
    x0 = np.array([1.0, -2.0])
    assert np.array_equal(forward_noise(sched, x0, 0, np.zeros(2)), x0)
    z = forward_noise(sched, x0, 40, np.zeros(2))
    assert np.allclose(z, np.sqrt(sched.alpha_bars[40]) * x0)


def test_forward_noise_takes_one_t_per_row():
    sched = make_schedule()
    rng = np.random.default_rng(2)
    x0, eps = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    t = np.array([0, 1, 40, 99, 100, 7])
    rows = [forward_noise(sched, x0[i], t[i], eps[i]) for i in range(6)]
    assert np.array_equal(forward_noise(sched, x0, t, eps), np.stack(rows))
    for bad in ([0, 101], [-1, 3]):
        with pytest.raises(ValueError):
            forward_noise(sched, x0[:2], np.array(bad), eps[:2])


def test_forward_noise_variance_monte_carlo():
    sched = make_schedule()
    rng = np.random.default_rng(1)
    t = 70
    eps = rng.standard_normal((100_000, 2))
    z = forward_noise(sched, np.zeros(2), t, eps)
    expect = 2.0 * (1.0 - sched.alpha_bars[t])
    assert abs(np.mean(np.sum(z * z, axis=1)) - expect) / expect < 0.02


def test_ddim_zero_eps_closed_form():
    sched = make_schedule()
    z = np.array([0.5, -0.3])
    out = ddim_step(sched, z, 60, 30, np.zeros(2))
    assert np.allclose(out, z * np.sqrt(sched.alpha_bars[30] / sched.alpha_bars[60]))


def test_ddim_inversion_identity():
    sched = make_schedule()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        z_T = forward_noise(sched, x0, sched.T, eps)
        back = ddim_step(sched, z_T, sched.T, 0, eps)
        assert np.max(np.abs(back - x0)) < 1e-12


def test_ddim_rejects_bad_timesteps():
    sched = make_schedule()
    with pytest.raises(ValueError):
        ddim_step(sched, np.zeros(2), 10, 10, np.zeros(2))


class _LinearScoreNet:
    """Optimal noise predictor for x0 ~ N(0, sigma0^2 I): a scalar gain on z."""

    def __init__(self, schedule, sigma0):
        self.config = NetConfig(2, 1)
        self.schedule = schedule
        self.sigma0 = sigma0

    def gain(self, t):
        ab = self.schedule.alpha_bars[t]
        return np.sqrt(1.0 - ab) / (ab * self.sigma0**2 + 1.0 - ab)

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None, work=None):
        t = int(round(t_norm * self.schedule.T))
        return self.gain(t) * z

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        null = (self.config.null_concept, self.config.null_context)
        return (self.forward_batch(params, z, t_norm, *null),
                self.forward_batch(params, z, t_norm, kid, cid))


class _ShiftedScoreNet(_LinearScoreNet):
    """The linear predictor plus a concept-dependent shift on conditional rows,
    so the guidance sign changes the samples."""

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None, work=None):
        shift = np.where(kids == self.config.null_concept, 0.0, 0.1 * (kids + 1.0))
        return super().forward_batch(params, z, t_norm, kids, cids) + shift[..., None]


def test_linear_score_fifty_step_endpoint():
    sched = make_schedule()
    net = _LinearScoreNet(sched, sigma0=1.3)
    guidance = GuidanceSpec(s=3.0, t_prime=0, n_infer_steps=50)
    pts = sample(net, None, sched, guidance, (0, None), 64, seed=7)

    # closed-form affine map: every DDIM step is multiplication by a scalar
    factor = 1.0
    ladder = infer_ladder(sched, 50)
    for t, t_next in zip(ladder[:-1], ladder[1:]):
        ab_t, ab_n = sched.alpha_bars[t], sched.alpha_bars[t_next]
        k = net.gain(int(t))
        factor *= (np.sqrt(ab_n / ab_t) * (1.0 - np.sqrt(1.0 - ab_t) * k)
                   + np.sqrt(1.0 - ab_n) * k)
    z_T = np.random.default_rng(7).standard_normal((64, 2))
    assert np.max(np.abs(pts - factor * z_T)) < 1e-6


def test_ladder_ends_at_an_off_rung_stop_with_a_partial_step():
    sched = make_schedule()
    net = _LinearScoreNet(sched, sigma0=1.3)
    z_T = np.random.default_rng(7).standard_normal((8, 2))
    ids = 0  # concept and context id 0
    stop = 45  # between the rungs 50 and 40 of the 10-step ladder
    z = guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 0, 10, stop=stop)

    rungs = [int(t) for t in infer_ladder(sched, 10) if t > stop] + [stop]
    factor = 1.0
    for t, t_next in zip(rungs[:-1], rungs[1:]):
        ab_t, ab_n = sched.alpha_bars[t], sched.alpha_bars[t_next]
        k = net.gain(t)
        factor *= (np.sqrt(ab_n / ab_t) * (1.0 - np.sqrt(1.0 - ab_t) * k)
                   + np.sqrt(1.0 - ab_n) * k)
    assert np.max(np.abs(z - factor * z_T)) < 1e-9


def test_ladder_resumes_from_a_start_rung():
    sched = make_schedule()
    net = _LinearScoreNet(sched, sigma0=1.3)
    z_T = np.random.default_rng(7).standard_normal((8, 2))
    ids = 0  # concept and context id 0
    trajectory = []
    full = guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 60, 10, trajectory=trajectory)
    # trajectory[4] is z at rung 50, five steps down from 100: resuming there repeats the rest
    rest = guided_ladder(net, None, sched, trajectory[4], ids, ids, 3.0, 60, 10, start=50)
    assert np.array_equal(rest, full)
    assert np.array_equal(guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 60, 10,
                                        start=100), full)
    # from 50 down to an off-rung stop: the rungs 50 and 40, then a partial step to 35
    z = guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 0, 10, start=50, stop=35)
    factor = 1.0
    for t, t_next in ((50, 40), (40, 35)):
        ab_t, ab_n = sched.alpha_bars[t], sched.alpha_bars[t_next]
        k = net.gain(t)
        factor *= (np.sqrt(ab_n / ab_t) * (1.0 - np.sqrt(1.0 - ab_t) * k)
                   + np.sqrt(1.0 - ab_n) * k)
    assert np.max(np.abs(z - factor * z_T)) < 1e-9
    assert np.array_equal(guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 0, 10,
                                        start=0), z_T)
    with pytest.raises(ValueError, match="not a rung"):
        guided_ladder(net, None, sched, z_T, ids, ids, 3.0, 0, 10, start=45)


class _InfOnRung50(_LinearScoreNet):
    """The linear predictor, but the conditional noise is inf on rung 50."""

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        eps_u, eps_c = super().forward_pair(params, z, t_norm, kid, cid)
        if round(t_norm * self.schedule.T) == 50:
            eps_c = np.full_like(eps_c, np.inf)
        return eps_u, eps_c


# the inf rung makes inf - inf in the DDIM update: the nan is what the test is about
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ladder_raises_on_a_non_finite_rung():
    sched = make_schedule()
    z_T = np.random.default_rng(7).standard_normal((8, 2))
    trajectory = []
    with pytest.raises(SampleDivergedError, match="non-finite sample values at timestep 40"):
        guided_ladder(_InfOnRung50(sched, sigma0=1.3), None, sched, z_T, 0, 0, 3.0, 0, 10,
                      trajectory=trajectory)
    assert len(trajectory) == 5  # the rungs 100 to 60 ran, and rung 50 raised


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_ddim_step_takes_one_t_next_per_row():
    sched = make_schedule()
    rng = np.random.default_rng(4)
    z, eps = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    t_next = np.array([60, 45, 45, 1, 0])
    got = ddim_step(sched, z, 70, t_next, eps)
    for i, tn in enumerate(t_next):
        assert np.array_equal(got[i], ddim_step(sched, z[i:i + 1], 70, int(tn), eps[i:i + 1])[0])
    with pytest.raises(ValueError):
        ddim_step(sched, z, 70, np.array([60, 45, 70, 1, 0]), eps)


# One ladder call over groups of rows, each group with its own stop, on the
# 10-step ladder (rungs 100, 90, ..., 0): T, a rung, two equal off-rung stops,
# another off-rung stop and 1.  t' = 60 flips the guidance sign on the way.
GROUP_STOPS = (100, 50, 45, 45, 37, 1)


def _stacked_and_alone(net, params, stops, rows=3):
    sched = make_schedule()
    z_T = np.random.default_rng(7).standard_normal((rows * len(stops), 2))
    stacked = guided_ladder(net, params, sched, z_T, 1, 0, 3.0, 60, 10,
                            stop=np.repeat(stops, rows))
    alone = [guided_ladder(net, params, sched, z_T[i * rows:(i + 1) * rows], 1, 0, 3.0, 60,
                           10, stop=stop) for i, stop in enumerate(stops)]
    return z_T, stacked.reshape(len(stops), rows, 2), alone


def test_ladder_with_per_row_stops_equals_one_call_per_group():
    net = _ShiftedScoreNet(make_schedule(), sigma0=1.3)
    z_T, stacked, alone = _stacked_and_alone(net, None, GROUP_STOPS)
    for stop, got, want in zip(GROUP_STOPS, stacked, alone):
        assert np.array_equal(_bits(got), _bits(want)), stop
    assert np.array_equal(stacked[0], z_T[:3])  # stop T: no rung runs


def test_ladder_maps_unordered_stops_back_to_their_rows():
    net = _ShiftedScoreNet(make_schedule(), sigma0=1.3)
    z_T, stacked, _ = _stacked_and_alone(net, None, GROUP_STOPS)
    stops = np.repeat(GROUP_STOPS, 3)
    for perm in (np.arange(len(stops))[::-1], np.random.default_rng(2).permutation(len(stops))):
        got = guided_ladder(net, None, make_schedule(), z_T[perm], 1, 0, 3.0, 60, 10,
                            stop=stops[perm])
        assert np.array_equal(_bits(got), _bits(stacked.reshape(-1, 2)[perm]))


class _PassLog(_ShiftedScoreNet):
    """The shifted predictor, logging which pass each rung ran."""

    def __init__(self, schedule, sigma0):
        super().__init__(schedule, sigma0)
        self.passes = []

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None, work=None):
        self.passes.append(("cond", round(t_norm * self.schedule.T)))
        return super().forward_batch(params, z, t_norm, kids, cids)

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        self.passes.append(("pair", round(t_norm * self.schedule.T)))
        cond = super().forward_batch
        return (cond(params, z, t_norm, self.config.null_concept, self.config.null_context),
                cond(params, z, t_norm, kid, cid))


@pytest.mark.parametrize("s", [1.0, -1.0, 3.0])
def test_rung_of_guidance_weight_one_runs_no_null_pass(s):
    """A rung whose weight s * sign is 1 takes the conditional prediction as its
    noise, and every other rung combines the pair; t' = 50 flips the sign."""
    sched = make_schedule()
    net = _PassLog(sched, sigma0=1.3)
    z_T = np.random.default_rng(7).standard_normal((6, 2))
    got = guided_ladder(net, None, sched, z_T, 1, 0, s, 50, 10)

    z, want = z_T, []
    for t, t_next in zip(infer_ladder(sched, 10)[:-1], infer_ladder(sched, 10)[1:]):
        w = s * sgn_schedule(int(t), 50)
        eps_c = _ShiftedScoreNet.forward_batch(net, None, z, t / sched.T, 1, 0)
        eps_u = _ShiftedScoreNet.forward_batch(net, None, z, t / sched.T,
                                               net.config.null_concept, net.config.null_context)
        z = ddim_step(sched, z, int(t), int(t_next),
                      eps_c if w == 1 else cfg_combine(eps_u, eps_c, s, sgn_schedule(int(t), 50)))
        want.append(("cond" if w == 1 else "pair", int(t)))
    assert net.passes == want
    assert np.array_equal(_bits(got), _bits(z))


def test_ladder_with_per_row_stops_agrees_on_a_real_net():
    """On a ScoreNet a group's rows share each net call with the other groups'
    rows, so they agree with the one-group call up to matmul rounding."""
    net = ScoreNet(NetConfig(3, 2, hidden_width=32, time_embed_dim=8, cond_embed_dim=4))
    params = net.init_params(seed=5)
    params.flat += 0.1 * np.random.default_rng(6).standard_normal(net.n_params)
    _, stacked, alone = _stacked_and_alone(net, params, GROUP_STOPS)
    for stop, got, want in zip(GROUP_STOPS, stacked, alone):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), stop




# (concept, context) conditions and the stops of each one's two groups of 16 rows
MIXED = (((2, 0), (90, 45)), ((2, 1), (100, 7)), ((2, 3), (45, 1)), ((5, 1), (60, 33)))


@pytest.mark.parametrize("s,t_prime", [(1.0, 50), (3.0, 0)])
def test_ladder_with_per_row_conditions_equals_one_ladder_per_condition_bitwise(s, t_prime):
    """Rows of several conditions and stops, shuffled into one ladder call, take
    each condition's own ladder to the last bit.  s = 1 with t' = 50 runs
    conditional rungs down to 60 and [null; cond] rungs below; s = 3 runs pairs
    throughout."""
    sched = make_schedule()
    net = ScoreNet(NetConfig(8, 3))
    params = net.init_params(seed=8)
    rng = np.random.default_rng(9)
    z_T = rng.standard_normal((len(MIXED), 32, 2))
    alone = [guided_ladder(net, params, sched, z, k, c, s, t_prime, 50, stop=np.repeat(stops, 16))
             for z, ((k, c), stops) in zip(z_T, MIXED)]

    kids, cids = (np.repeat([cond[i] for cond, _ in MIXED], 32) for i in (0, 1))
    stops = np.concatenate([np.repeat(stops, 16) for _, stops in MIXED])
    perm = rng.permutation(len(stops))
    mixed = guided_ladder(net, params, sched, z_T.reshape(-1, 2)[perm], kids[perm], cids[perm],
                          s, t_prime, 50, stop=stops[perm])
    assert np.array_equal(_bits(mixed), _bits(np.concatenate(alone)[perm]))
    # one concept for every row, as on an erasure teacher ladder
    rows = kids == 2
    mixed = guided_ladder(net, params, sched, z_T.reshape(-1, 2)[rows], 2, cids[rows], s,
                          t_prime, 50, stop=stops[rows])
    assert np.array_equal(_bits(mixed), _bits(np.concatenate(alone[:3])))


@pytest.mark.parametrize("n_ids", [25, 15])
def test_ladder_rejects_per_row_ids_of_another_length_before_any_rung(n_ids):
    sched = make_schedule()
    net = _PassLog(sched, sigma0=1.3)
    z_T = np.random.default_rng(7).standard_normal((20, 2))
    for kid, cid in ((1, np.zeros(n_ids, dtype=int)), (np.ones(n_ids, dtype=int), 0)):
        with pytest.raises(ValueError, match=f"{n_ids} per-row ids for 20 rows"):
            guided_ladder(net, None, sched, z_T, kid, cid, 3.0, 50, 10)
    assert net.passes == []


def test_ladder_rejects_an_out_of_vocabulary_per_row_id_before_any_rung():
    sched = make_schedule()
    net = ScoreNet(NetConfig(8, 3))
    z_T = np.random.default_rng(7).standard_normal((20, 2))
    cids = np.zeros(20, dtype=int)
    cids[13] = net.config.null_context + 1
    for s in (1.0, 3.0):  # the first pass is forward_batch at s = 1, forward_pair at s = 3
        trajectory = []
        with pytest.raises(VocabularyError):
            guided_ladder(net, net.init_params(seed=0), sched, z_T, 2, cids, s, 0, 50,
                          trajectory=trajectory)
        assert trajectory == []


@pytest.mark.parametrize("what", ["scalar", "per-row"])
def test_ladder_checks_every_id_before_any_rung_whatever_the_stops(what):
    """An out-of-vocabulary id raises VocabularyError before any rung, also on a
    row whose stop is at or above `start`, which never reaches a pass, and when
    no row reaches one."""
    sched = make_schedule()
    net = ScoreNet(NetConfig(8, 3))
    params = net.init_params(seed=0)
    z_T = np.random.default_rng(7).standard_normal((4, 2))
    cids = [0, 1, 99, 2] if what == "per-row" else 99
    for stop in ([0, 0, 100, 0], 100):
        trajectory = []
        with pytest.raises(VocabularyError):
            guided_ladder(net, params, sched, z_T, 2, cids, 3.0, 0, 50, stop=stop,
                          trajectory=trajectory)
        assert trajectory == []


class _NoWork(ScoreNet):
    """A ScoreNet that drops the ladder's work dict: every pass plans its
    conditions and allocates its arrays afresh."""

    def forward_batch(self, params, z, t_norm, kids, cids, adapter=None, work=None):
        return super().forward_batch(params, z, t_norm, kids, cids, adapter)

    def forward_pair(self, params, z, t_norm, kid, cid, work=None):
        return super().forward_pair(params, z, t_norm, kid, cid)


@pytest.mark.parametrize("s,t_prime", [(1.0, 50), (3.0, 0), (-1.0, 30)])
def test_ladder_plan_and_work_arrays_keep_every_bit(s, t_prime):
    """The ladder's condition plan and work arrays give each rung's pass the bits
    of a pass that plans and allocates afresh: per-row and scalar ids, per-row
    stops, 500 rows; s = 1 with t' = 50 runs conditional rungs and then [null;
    cond] rungs, whose work arrays outgrow the first rung's."""
    sched = make_schedule()
    config = NetConfig(8, 3)
    params = ScoreNet(config).init_params(seed=8)
    rng = np.random.default_rng(9)
    z_T = rng.standard_normal((500, 2))
    kids, cids = rng.integers(0, 9, 500), rng.integers(0, 4, 500)
    stops = rng.integers(0, 101, 500)
    for ids, stop in (((kids, cids), stops), ((2, cids), stops), ((3, 1), 0), ((2, 3), stops)):
        got, want = (guided_ladder(net, params, sched, z_T, *ids, s, t_prime, 50, stop=stop)
                     for net in (ScoreNet(config), _NoWork(config)))
        assert np.array_equal(_bits(got), _bits(want))


def test_ladders_sharing_work_arrays_equal_ladders_on_fresh_arrays_bitwise():
    """Ladders of other ids, guidance and row counts run in turn on one set of
    work arrays each give the bits of a run on fresh arrays, and so does a
    sweep, whose trunk and branches share one set.  Each ladder plans its own
    conditions: a plan kept from one ladder to the next would condition the
    next on the last one's ids."""
    sched = make_schedule()
    config = NetConfig(8, 3)
    net = ScoreNet(config)
    params = net.init_params(seed=8)
    rng = np.random.default_rng(10)
    ladders = [(rng.standard_normal((500, 2)), rng.integers(0, 9, 500),
                rng.integers(0, 4, 500), 3.0, 0, rng.integers(0, 101, 500)),
               (rng.standard_normal((300, 2)), 2, 1, 3.0, 40, 0),
               (rng.standard_normal((300, 2)), 5, 0, 3.0, 40, 0),
               (rng.standard_normal((300, 2)), 2, rng.integers(0, 4, 300), 3.0, 40, 0),
               (rng.standard_normal((700, 2)), 6, 3, 1.0, 0, 0)]
    arrays = {}
    for z, kid, cid, s, t_prime, stop in ladders:
        got, want = (guided_ladder(net, params, sched, z, kid, cid, s, t_prime, 50,
                                   stop=stop, arrays=a) for a in (arrays, None))
        assert np.array_equal(_bits(got), _bits(want)), (kid, cid)
        assert {"zw", "sig0", "act1"} <= arrays.keys()
    grid = [0, 30, 60, 100]
    branches = sample_sweep(net, params, sched, GuidanceSpec(3.0, 0), (4, None), 200, 3, grid)
    for tp, pts in zip(grid, branches):
        ref = sample(net, params, sched, GuidanceSpec(3.0, tp), (4, None), 200, 3)
        assert np.array_equal(_bits(pts), _bits(ref)), tp


class _AllocLog(ScoreNet):
    """A ScoreNet that records, per pass, its rows and either NumPy's blocks of
    at least rows x hidden_width float64 that are new since the pass began,
    taken while the pass's arrays are alive (with `blocks`), or the traced peak
    over the pass above its start, taken with no snapshot to inflate it."""

    def __init__(self, config, blocks):
        super().__init__(config)
        self.blocks, self.passes = blocks, []

    def _numpy_blocks(self):
        size = self._rows * self.config.hidden_width * 8
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        traces = tracemalloc.take_snapshot().filter_traces([domain]).traces
        return sorted((t.size, str(t.traceback)) for t in traces if t.size >= size)

    def _forward_cached(self, params, z, *args, **kwargs):
        out, cache = super()._forward_cached(params, z, *args, **kwargs)
        if self.blocks:
            self._during = self._numpy_blocks()
        return out, cache

    def _logged(self, forward, rows):
        self._rows = rows
        if self.blocks:
            before = self._numpy_blocks()
            out = forward()
            new = list(self._during)
            for block in before:
                if block in new:
                    new.remove(block)
            self.passes.append((rows, new))
            return out
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = forward()
        self.passes.append((rows, tracemalloc.get_traced_memory()[1] - start))
        return out

    def forward_batch(self, params, z, *args, **kwargs):
        forward = super().forward_batch
        return self._logged(lambda: forward(params, z, *args, **kwargs), len(z))

    def forward_pair(self, params, z, *args, **kwargs):
        forward = super().forward_pair
        return self._logged(lambda: forward(params, z, *args, **kwargs), 2 * len(z))


@pytest.mark.parametrize("blocks", [True, False], ids=["numpy-blocks", "traced-peak"])
def test_rungs_after_the_first_allocate_no_rows_by_hidden_array(blocks):
    """A 500-row ladder at s = 3 (a [null; cond] pass of 1,000 rows a rung) and a
    256-row erasure teacher ladder with one context and one stop per row (a
    conditional pass a rung, over fewer rows as rows leave).  After the first
    rung no pass keeps a new NumPy array of its rows x hidden_width float64,
    and none makes and frees one: the peak, traced over every domain, rises by
    less than one such array.  A broadcast add (a bias row) takes a ufunc
    buffer of up to 8,192 elements, so that bound holds for passes of more
    than twice as many elements."""
    sched = make_schedule()
    net = _AllocLog(NetConfig(8, 3), blocks)
    params = net.init_params(seed=8)
    rng = np.random.default_rng(9)
    tracemalloc.start(3)
    try:
        guided_ladder(net, params, sched, rng.standard_normal((500, 2)), 2, 1, 3.0, 0, 50)
        sample_passes, net.passes = net.passes, []
        guided_ladder(net, params, sched, rng.standard_normal((256, 2)), 2,
                      np.repeat(rng.integers(0, 4, 16), 16), 1.0, 0, 50,
                      stop=np.repeat(rng.integers(1, 101, 16), 16))
    finally:
        tracemalloc.stop()
    assert [rows for rows, _ in sample_passes] == [1000] * 50
    assert len(net.passes) > 10 and net.passes[0][0] == 256
    for rows, seen in sample_passes[1:] + net.passes[1:]:
        if blocks:
            assert seen == [], rows
        else:
            size = rows * net.config.hidden_width
            assert size <= 2 * 8192 or seen < 8 * size, (rows, seen)


@settings(max_examples=100)
@given(st.integers(1, 100), st.lists(st.integers(0, 100) | st.sampled_from([0, 100]),
                                     min_size=1, max_size=8),
       st.floats(0.0, 6.0), st.integers(0, 2**32 - 1))
def test_sweep_branches_equal_sample_bitwise(n_infer_steps, t_primes, s, seed):
    sched = make_schedule()
    net = _ShiftedScoreNet(sched, sigma0=1.3)
    branches = sample_sweep(net, None, sched, GuidanceSpec(s, 0, n_infer_steps), (1, None),
                            5, seed, t_primes)
    assert len(branches) == len(t_primes)
    for tp, pts in zip(t_primes, branches):
        ref = sample(net, None, sched, GuidanceSpec(s, tp, n_infer_steps), (1, None), 5, seed)
        assert np.array_equal(_bits(pts), _bits(ref)), tp


def _forked_sweep(grid):
    """sample_sweep on forked workers (a fresh process, three CPUs), the default
    net of seed 8: (the branches, the forks)."""
    workers._cpus = lambda: 3
    forks = count_forks()
    net = ScoreNet(NetConfig(8, 3))
    branches = sample_sweep(net, net.init_params(seed=8), make_schedule(), GuidanceSpec(3.0, 0),
                            (4, None), 200, 3, grid)
    return branches, len(forks)


def test_forked_sweep_branches_equal_sample_bitwise(fresh):
    """The branches that forked workers resume from the trunk give each t_prime's
    `sample` bit for bit."""
    grid = list(range(0, 101, 10))
    branches, forks = fresh(_forked_sweep, grid)
    assert forks == 2 and len(branches) == len(grid)
    net = ScoreNet(NetConfig(8, 3))
    params = net.init_params(seed=8)
    for tp, pts in zip(grid, branches):
        ref = sample(net, params, make_schedule(), GuidanceSpec(3.0, tp), (4, None), 200, 3)
        assert np.array_equal(_bits(pts), _bits(ref)), tp


def test_sweep_rejects_an_empty_grid():
    sched = make_schedule()
    with pytest.raises(ValueError, match="empty"):
        sample_sweep(_LinearScoreNet(sched, 1.3), None, sched, GuidanceSpec(), (0, None),
                     4, 0, [])


def test_sweep_equals_sample_on_the_trained_net(bench_net, bench_pretrained, schedule):
    grid = list(range(0, 101, 5))
    guidance = GuidanceSpec(s=3.0, t_prime=0)
    branches = sample_sweep(bench_net, bench_pretrained, schedule, guidance, (0, None),
                            64, 3, grid)
    for tp, pts in zip(grid, branches):
        ref = sample(bench_net, bench_pretrained, schedule, GuidanceSpec(3.0, tp), (0, None),
                     64, 3)
        assert np.array_equal(_bits(pts), _bits(ref)), tp


def test_sample_deterministic_and_reversal_local(bench_net, bench_pretrained, schedule):
    tau = 60
    g0 = GuidanceSpec(s=3.0, t_prime=0)
    g_tau = GuidanceSpec(s=3.0, t_prime=tau)
    _, traj0 = sample(bench_net, bench_pretrained, schedule, g0, (0, None), 8, 3,
                      record_trajectory=True)
    _, traj_tau = sample(bench_net, bench_pretrained, schedule, g_tau, (0, None), 8, 3,
                         record_trajectory=True)
    ladder = infer_ladder(schedule, 50)
    for i, t in enumerate(ladder):
        if t > tau:
            assert np.array_equal(traj0[i], traj_tau[i])
    assert not np.array_equal(traj0[-1], traj_tau[-1])

    again = sample(bench_net, bench_pretrained, schedule, g_tau, (0, None), 8, 3)
    assert np.array_equal(again, traj_tau[-1])


def test_sample_s_zero_ignores_condition(bench_net, bench_pretrained, schedule):
    g = GuidanceSpec(s=0.0, t_prime=0)
    a = sample(bench_net, bench_pretrained, schedule, g, (0, None), 16, 5)
    b = sample(bench_net, bench_pretrained, schedule, g, (3, None), 16, 5)
    assert np.allclose(a, b, atol=1e-12)
