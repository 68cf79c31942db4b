"""Tests for the MAP process class and standard constructors."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrival.map_process import MAP, erlang_map, hyperexp_map, poisson_map
from repro.arrival.mmpp import mmpp2, mmpp2_with_burstiness
from repro.arrival.traces import STANDARD_TRACES
from repro.utils.rng import as_rng


def per_event_sample(proc, n_arrivals=None, duration=None, seed=None, start_phase=None):
    """The reference for ``MAP.sample``: the background CTMC walked one
    event per Python iteration, over blocks of 8192 draws refilled only
    when another step is needed."""
    if (n_arrivals is None) == (duration is None):
        raise ValueError("specify exactly one of n_arrivals or duration")
    rng = as_rng(seed)
    m = proc.order
    exit_rate, cum = proc.jump_cdf()
    if start_phase is None:
        phase = int(rng.choice(m, p=proc.stationary_phase()))
    else:
        phase = start_phase
    arrivals: list[float] = []
    t = 0.0
    block = 8192
    exp_buf = rng.exponential(size=block)
    uni_buf = rng.random(size=block)
    i = 0
    target_n = n_arrivals if n_arrivals is not None else np.inf
    target_t = duration if duration is not None else np.inf
    while len(arrivals) < target_n and t < target_t:
        if i >= block:
            exp_buf = rng.exponential(size=block)
            uni_buf = rng.random(size=block)
            i = 0
        t += exp_buf[i] / exit_rate[phase]
        outcome = int(np.searchsorted(cum[phase], uni_buf[i]))
        i += 1
        if outcome >= m:  # arrival transition
            if t < target_t:
                arrivals.append(t)
            phase = outcome - m
        else:
            phase = outcome
    return np.asarray(arrivals, dtype=float)


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MAP(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MAP(-np.eye(2), np.ones((3, 3)))

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            MAP(np.array([[-2.0]]), np.array([[1.0]]))

    def test_rejects_negative_d1(self):
        d0 = np.array([[-1.0, 2.0], [0.5, -1.5]])
        d1 = np.array([[0.0, -1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MAP(d0, d1)

    def test_rejects_nonnegative_diagonal(self):
        with pytest.raises(ValueError):
            MAP(np.array([[0.0]]), np.array([[0.0]]))

    def test_rejects_map_without_arrivals(self):
        # It used to construct, and sample(n_arrivals=1) never returned.
        with pytest.raises(ValueError, match=r"phases \[0, 1\] cannot reach"):
            MAP([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]])

    def test_rejects_closed_class_without_arrivals(self):
        # Phase 0 arrives, but once in {1, 2} the chain never leaves.
        d0 = [[-3.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]
        d1 = [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"phases \[1, 2\] cannot reach"):
            MAP(d0, d1)

    def test_accepts_silent_phase_that_reaches_an_arrival(self):
        m = MAP([[-1.0, 1.0], [0.0, -2.0]], [[0.0, 0.0], [2.0, 0.0]])
        assert m.sample(n_arrivals=5, seed=0).size == 5


class TestPoisson:
    def test_moments(self):
        m = poisson_map(5.0)
        assert m.arrival_rate() == pytest.approx(5.0)
        assert m.mean_interarrival() == pytest.approx(0.2)
        assert m.scv() == pytest.approx(1.0)
        np.testing.assert_allclose(m.autocorrelation(5), np.zeros(5), atol=1e-12)

    def test_idi_is_one(self):
        assert poisson_map(3.0).idi() == pytest.approx(1.0, abs=1e-9)

    def test_sample_rate(self):
        ts = poisson_map(50.0).sample(duration=100.0, seed=0)
        assert ts.size == pytest.approx(5000, rel=0.1)
        assert np.all(np.diff(ts) >= 0)
        assert ts[-1] <= 100.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_map(0.0)


class TestErlang:
    def test_scv_below_one(self):
        m = erlang_map(2.0, stages=4)
        assert m.mean_interarrival() == pytest.approx(0.5)
        assert m.scv() == pytest.approx(0.25, rel=1e-6)

    def test_renewal_no_autocorrelation(self):
        m = erlang_map(1.0, stages=3)
        np.testing.assert_allclose(m.autocorrelation(3), np.zeros(3), atol=1e-10)


class TestHyperexp:
    def test_matches_mean_and_scv(self):
        m = hyperexp_map(4.0, scv=8.0)
        assert m.mean_interarrival() == pytest.approx(0.25, rel=1e-9)
        assert m.scv() == pytest.approx(8.0, rel=1e-6)

    def test_renewal_no_autocorrelation(self):
        m = hyperexp_map(1.0, scv=3.0)
        np.testing.assert_allclose(m.autocorrelation(4), np.zeros(4), atol=1e-10)

    def test_requires_scv_above_one(self):
        with pytest.raises(ValueError):
            hyperexp_map(1.0, scv=0.8)


class TestMMPP2:
    def test_stationary_phase_closed_form(self):
        m = mmpp2(10.0, 1.0, switch12=0.5, switch21=1.5)
        theta = m.stationary_phase()
        np.testing.assert_allclose(theta, [0.75, 0.25], atol=1e-9)

    def test_arrival_rate_closed_form(self):
        m = mmpp2(10.0, 1.0, switch12=0.5, switch21=1.5)
        assert m.arrival_rate() == pytest.approx(0.75 * 10 + 0.25 * 1, rel=1e-9)

    def test_positive_autocorrelation(self):
        m = mmpp2(50.0, 1.0, switch12=0.2, switch21=0.2)
        rho = m.autocorrelation(5)
        assert np.all(rho > 0)
        assert np.all(np.diff(rho) < 0)  # geometric-like decay

    def test_idi_exceeds_one_for_bursty(self):
        m = mmpp2(50.0, 1.0, switch12=0.2, switch21=0.2)
        assert m.idi(max_lag=500) > 5.0

    def test_sample_duration_vs_count_modes(self):
        m = mmpp2(20.0, 2.0, 1.0, 1.0)
        by_count = m.sample(n_arrivals=100, seed=1)
        assert by_count.size == 100
        by_time = m.sample(duration=10.0, seed=1)
        assert by_time.size > 0 and by_time[-1] <= 10.0
        with pytest.raises(ValueError):
            m.sample()
        with pytest.raises(ValueError):
            m.sample(n_arrivals=10, duration=1.0)

    def test_sampled_rate_matches_analytic(self):
        m = mmpp2(100.0, 10.0, 0.5, 0.5)
        ts = m.sample(duration=200.0, seed=3)
        assert ts.size / 200.0 == pytest.approx(m.arrival_rate(), rel=0.15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mmpp2(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mmpp2(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mmpp2(1.0, 1.0, 0.0, 1.0)


class TestSamplingDeterminism:
    def test_same_seed_same_trace(self):
        m = mmpp2(20.0, 2.0, 1.0, 1.0)
        np.testing.assert_allclose(
            m.sample(n_arrivals=50, seed=7), m.sample(n_arrivals=50, seed=7)
        )

    def test_different_seeds_differ(self):
        m = mmpp2(20.0, 2.0, 1.0, 1.0)
        a = m.sample(n_arrivals=50, seed=1)
        b = m.sample(n_arrivals=50, seed=2)
        assert not np.allclose(a, b)

    def test_start_phase_validation(self):
        m = mmpp2(20.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            m.sample(n_arrivals=5, start_phase=5)

    def test_rows_short_of_one_do_not_overrun(self):
        """Rows of D0 + D1 may sum to up to 1e-8 off zero; a uniform draw
        above such a row's total once indexed past the last phase."""
        m = MAP([[-0.01, 0.005], [0.005, -0.01]], [[0.005 - 9e-9, 0], [0, 0.005]])
        _, cum = m.jump_cdf()
        assert np.all(cum[:, -1] >= 1.0)
        ts = m.sample(n_arrivals=1_000_000, seed=0)
        assert ts.size == 1_000_000
        assert np.all(np.diff(ts) >= 0)


class TestBlockWalk:
    """``MAP.sample`` against the per-event reference walk: bit-identical
    timestamps and the same generator state afterwards."""

    @staticmethod
    def assert_same_walk(proc, seed=0, **kw):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = proc.sample(seed=rng, **kw)
        expect = per_event_sample(proc, seed=ref_rng, **kw)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expect)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 16384, 16385])
    def test_count_stops_at_block_edges(self, n):
        # Every step of a Poisson MAP is an arrival: n arrivals take n steps.
        assert self.assert_same_walk(poisson_map(3.0), n_arrivals=n).size == n

    def test_duration_stops_at_block_edges(self):
        proc = poisson_map(3.0)
        step_end = per_event_sample(proc, n_arrivals=8193, seed=5)
        for d in (0.0, step_end[8190], step_end[8191], np.nextafter(step_end[8191], np.inf),
                  step_end[8192], np.nextafter(step_end[8192], np.inf)):
            self.assert_same_walk(proc, seed=5, duration=d)

    def test_unusual_targets(self):
        proc = poisson_map(3.0)
        assert self.assert_same_walk(proc, n_arrivals=-1).size == 0
        assert self.assert_same_walk(proc, duration=-1.0).size == 0
        assert self.assert_same_walk(proc, n_arrivals=2.5).size == 3
        assert self.assert_same_walk(proc, n_arrivals=8192.5).size == 8193


@st.composite
def _maps(draw):
    """Named MAPs and random MAP(1-4) with sparse rates in which an
    arrival is reachable from every phase."""
    named = draw(st.sampled_from(["random", "poisson", "erlang", "h2", "mmpp2"]))
    if named == "poisson":
        return poisson_map(draw(st.floats(0.5, 50.0)))
    if named == "erlang":
        return erlang_map(draw(st.floats(0.5, 50.0)), stages=draw(st.integers(1, 4)))
    if named == "h2":
        return hyperexp_map(draw(st.floats(0.5, 50.0)), scv=draw(st.floats(1.5, 20.0)))
    if named == "mmpp2":
        return mmpp2_with_burstiness(draw(st.floats(5.0, 200.0)), draw(st.floats(1.0, 4.0)),
                                     cycle_time=draw(st.floats(0.5, 15.0)),
                                     duty=draw(st.floats(0.1, 0.5)))
    m = draw(st.integers(1, 4))
    rate = st.one_of(st.just(0.0), st.floats(0.1, 20.0))
    off = np.array([[draw(rate) for _ in range(m)] for _ in range(m)])
    np.fill_diagonal(off, 0.0)
    d1 = np.array([[draw(rate) for _ in range(m)] for _ in range(m)])
    if d1.sum() == 0:
        d1[0, 0] = 1.0
    for i in range(m):  # a phase without arrivals moves on to the next one
        if d1[i].sum() == 0:
            off[i, (i + 1) % m] = max(off[i, (i + 1) % m], 1.0)
    return MAP(off - np.diag(off.sum(axis=1) + d1.sum(axis=1)), d1)


def _per_step(proc):
    """Share of steps that are arrivals and mean time per step, from the
    stationary jump chain: used to aim a stop near a given step count."""
    exit_rate, cum = proc.jump_cdf()
    m = proc.order
    prob = np.diff(cum, prepend=0.0, axis=1)
    jump = prob[:, :m] + prob[:, m:]
    a = np.vstack([(jump - np.eye(m)).T, np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
    pi /= pi.sum()
    return float(pi @ prob[:, m:].sum(axis=1)), float(pi @ (1.0 / exit_rate))


@pytest.mark.parametrize("by_count", [True, False])
@given(
    proc=_maps(),
    seed=st.integers(0, 2**32 - 1),
    start=st.one_of(st.none(), st.integers(0, 3)),
    steps=st.one_of(st.integers(0, 40), st.integers(7900, 8500), st.integers(16100, 16700)),
)
@settings(max_examples=40, deadline=None)
def test_block_walk_matches_per_event_walk(proc, seed, start, by_count, steps):
    """Property: for MAPs of order 1-4, both stop modes, drawn or given
    start phase, and stops aimed at 0 steps or either side of the first and
    second block boundary, the block walk gives the reference's timestamps
    and leaves the generator in the reference's state."""
    share, step_time = _per_step(proc)
    kw = {"n_arrivals": int(round(steps * share))} if by_count else {"duration": steps * step_time}
    start_phase = None if start is None else start % proc.order
    TestBlockWalk.assert_same_walk(proc, seed=seed, start_phase=start_phase, **kw)


@given(
    st.floats(1.0, 100.0),
    st.floats(0.01, 1.0),
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
)
@settings(max_examples=30, deadline=None)
def test_mmpp2_moment_identities(r1, r2_frac, s12, s21):
    """Property: analytic mean interarrival equals 1/arrival_rate, SCV >= 1
    for any MMPP2, and the stationary phase vector is a distribution."""
    m = mmpp2(r1, r1 * r2_frac, s12, s21)
    theta = m.stationary_phase()
    assert theta.shape == (2,)
    assert abs(theta.sum() - 1) < 1e-8
    lam = m.arrival_rate()
    assert m.mean_interarrival() == pytest.approx(1.0 / lam, rel=1e-6)
    assert m.scv() >= 1.0 - 1e-9  # MMPPs are never smoother than Poisson


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


#: sha256 over the float64 timestamps of each standard trace at its default
#: arguments. A digest changes only by a hand edit whose commit says why.
TRACE_DIGESTS = {
    "azure": (166826, "356ed34502946ccc87c79971b3f1cb83ffc4a0c04844f9f1456829925b614c11"),
    "twitter": (201180, "8d6d3bbdea1f74de80a9c46e05af927813f4bd113244bf777dd0d989db828924"),
    "alibaba": (183895, "6e987b0d277c829c9ebd66d709ab9b6f83aad7566bab153df171080cbc5ab30a"),
    "synthetic": (175593, "757b1f2f1ac4827bbbe5c35529849b4fd6447a1dcb78399a619b2c30f58295bf"),
}


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_standard_trace_digest(name):
    ts = STANDARD_TRACES[name]().timestamps
    assert (ts.size, _sha256(ts)) == TRACE_DIGESTS[name]


@pytest.mark.golden
def test_count_mode_sample_digest():
    """One segment drawn the way the perf benchmark's shaped trace draws
    it: ``n_arrivals`` mode from a generator spawned off a SeedSequence;
    the generator's next draw is pinned too."""
    rng = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
    proc = mmpp2_with_burstiness(120.0, 1.4, cycle_time=1.0, duty=0.45)
    ts = proc.sample(n_arrivals=7201, seed=rng)
    assert ts.size == 7201
    assert _sha256(ts) == "0019efb9385c7990dea64afc879fd478b1d5a61433396d55b2fda629da040d52"
    assert _sha256(rng.random(4)) == (
        "bc72bea02c5660b1640c7438fe75c0ab51dc953c824341781bd0ebe53c6933c7")
