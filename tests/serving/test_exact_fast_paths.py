"""Exact fast paths of the serving data plane, against their numpy oracles.

* :class:`~repro.serving.degrade.HedgeWindow` keeps the hedge window
  sorted and interpolates in pure Python; its percentile must equal
  ``np.percentile`` over the same durations bit for bit, ties and window
  turnover included;
* :meth:`~repro.serving.engine.ServingEngine._batch_rng` sets states
  computed 256 rows at a time on one reused generator; it must draw what
  ``platform.spawn_rng(row, *tail)`` draws, for one- and two-word keys,
  rows on both sides of 2**32, and an unseeded platform.
"""

from collections import deque

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.serverless.platform import ServerlessPlatform
from repro.serving import ServingEngine
from repro.serving.degrade import HedgeWindow
from repro.serving.engine import _RunContext
from repro.telemetry.metrics import get_registry

pytestmark = pytest.mark.serving


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestHedgeWindowPercentile:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_np_percentile(self, seed):
        # Durations from a small grid (many ties) or continuous values,
        # through windows short enough to turn over many times.
        rng = np.random.default_rng(seed)
        maxlen = int(rng.integers(1, 40))
        if seed % 2:
            values = rng.integers(0, 6, size=150) * 0.125 + 0.5
        else:
            values = rng.lognormal(-2.0, 0.7, size=150)
        window = HedgeWindow(maxlen)
        oracle = deque(maxlen=maxlen)
        ps = (50.0, 95.0, 99.0, 100.0, 75, float(rng.uniform(0.1, 100.0)))
        for v in values.tolist():
            window.append(v)
            oracle.append(v)
            assert len(window) == len(oracle)
            assert window.sorted == sorted(oracle)
            for p in ps:
                assert same_float(window.percentile(p),
                                  np.percentile(oracle, p)), (p, list(oracle))

    def test_one_value(self):
        window = HedgeWindow(4)
        window.append(0.3)
        assert window.percentile(50.0) == 0.3
        assert window.percentile(100.0) == 0.3


class TestBatchRng:
    ROWS = (list(range(0, 300, 7)) + [255, 256, 511, 1000]
            + [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 5])

    @pytest.mark.parametrize("seed", [None, 0, 3, 2**32 + 7])
    @pytest.mark.parametrize("tail", [(), (1,), (2,)])
    def test_draws_match_spawn_rng(self, seed, tail):
        platform = ServerlessPlatform(seed=seed)
        engine = ServingEngine(BatchConfig(2048.0, 8, 0.05),
                               platform=platform)
        ctx = _RunContext(registry=get_registry())
        # Rows out of order too: a block is recomputed on every change.
        for row in self.ROWS + self.ROWS[::-3]:
            got = engine._batch_rng(ctx, row, *tail)
            want = platform.spawn_rng(row, *tail)
            np.testing.assert_array_equal(got.random(5), want.random(5))
            np.testing.assert_array_equal(got.integers(0, 2**40, 3),
                                          want.integers(0, 2**40, 3))
