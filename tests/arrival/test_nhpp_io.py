"""Tests for NHPP sampling, stream thinning, and trace persistence."""

import numpy as np
import pytest

from repro.arrival.io import export_csv, load_trace, save_trace
from repro.arrival.nhpp import diurnal_rate, sample_nhpp, thin
from repro.arrival.traces import Trace, azure_like


class TestSampleNhpp:
    def test_constant_rate_matches_poisson(self):
        ts = sample_nhpp(lambda t: np.full_like(t, 50.0), duration=100.0,
                         rate_bound=50.0, seed=0)
        assert ts.size == pytest.approx(5000, rel=0.1)
        assert np.all(np.diff(ts) >= 0)
        assert ts[-1] < 100.0

    def test_diurnal_modulation_visible(self):
        rate = diurnal_rate(100.0, amplitude=0.9, period=100.0, phase=0.0)
        ts = sample_nhpp(rate, duration=100.0, rate_bound=200.0, seed=1)
        # First half-period (rising sine) should be busier than the second.
        first = (ts < 50).sum()
        second = (ts >= 50).sum()
        assert first > 1.3 * second

    def test_rate_bound_violation_rejected(self):
        with pytest.raises(ValueError):
            sample_nhpp(lambda t: np.full_like(t, 100.0), duration=10.0,
                        rate_bound=50.0, seed=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_nhpp(lambda t: np.full_like(t, -1.0), duration=10.0,
                        rate_bound=50.0, seed=0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_nhpp(lambda t: t, duration=0.0, rate_bound=1.0)
        with pytest.raises(ValueError):
            diurnal_rate(0.0)
        with pytest.raises(ValueError):
            diurnal_rate(1.0, amplitude=1.5)


class TestComposition:
    def test_thin_keeps_fraction(self):
        ts = np.linspace(0, 100, 100_000)
        kept = thin(ts, 0.3, seed=0)
        assert kept.size == pytest.approx(30_000, rel=0.05)
        assert np.all(np.diff(kept) >= 0)

    def test_thin_probability_one_is_identity(self):
        ts = np.arange(10.0)
        np.testing.assert_allclose(thin(ts, 1.0, seed=0), ts)

    def test_thin_invalid_probability(self):
        with pytest.raises(ValueError):
            thin(np.arange(3.0), 0.0)


class TestTraceIO:
    @pytest.fixture()
    def trace(self):
        return azure_like(seed=0, n_segments=3, segment_duration=10.0, base_rate=40.0)

    def test_npz_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        np.testing.assert_allclose(loaded.timestamps, trace.timestamps)
        assert loaded.name == trace.name
        assert loaded.segment_duration == trace.segment_duration
        assert loaded.n_segments == trace.n_segments

    def test_csv_export_format(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        header, *lines = path.read_text().splitlines()
        assert header == (
            f"# {trace.name},{trace.segment_duration},{trace.n_segments}")
        assert len(lines) == trace.timestamps.size
        assert lines[0] == f"{trace.timestamps[0]:.9f}"
        np.testing.assert_allclose(
            [float(x) for x in lines], trace.timestamps, atol=1e-9)
