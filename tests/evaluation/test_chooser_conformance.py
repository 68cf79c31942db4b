"""Conformance tests: every shipped chooser honours the Decision API.

Parametrized over all three choosers (DeepBAT, BATCH, oracle):
each must return a (subclass of) :class:`repro.core.types.Decision` from
``choose(history, slo)`` with a non-negative ``decision_time``, and must
round-trip through :func:`run_segment` without any per-chooser special
cases in the harness.
"""

import dataclasses

import numpy as np
import pytest

from repro.arrival.map_process import poisson_map
from repro.arrival.stats import interarrivals
from repro.arrival.traces import azure_like
from repro.baseline.controller import BATCHController
from repro.batching.config import config_grid
from repro.core.controller import DeepBATController
from repro.core.dataset import generate_dataset
from repro.core.surrogate import DeepBATSurrogate
from repro.core.training import TrainConfig, train_surrogate
from repro.core.types import Decision
from repro.evaluation.harness import OracleChooser, run_segment
from repro.serverless.platform import ServerlessPlatform

SLO = 0.1
TRACE = azure_like(seed=0, n_segments=3, segment_duration=20.0, base_rate=80.0)
PLAT = ServerlessPlatform()
GRID = config_grid(memories=(1024.0, 1792.0), batch_sizes=(1, 8), timeouts=(0.0, 0.05))
CHOOSERS = ["deepbat", "batch", "oracle"]


@pytest.fixture(scope="module")
def trained_tiny():
    hist = np.diff(poisson_map(200.0).sample(duration=60.0, seed=0))
    ds = generate_dataset(hist, n_samples=80, seq_len=16, configs=GRID, seed=0)
    model = DeepBATSurrogate(seq_len=16, d_model=8, num_heads=2, ff_hidden=16,
                             num_layers=1, seed=0)
    return train_surrogate(ds, model=model,
                           config=TrainConfig(epochs=6, patience=None, seed=0))


@pytest.fixture(scope="module")
def choosers(trained_tiny):
    oracle = OracleChooser(GRID, PLAT, percentile=95.0)
    oracle.set_future(TRACE.segment(1, relative=False))
    return {
        "deepbat": DeepBATController(trained_tiny, configs=GRID),
        "batch": BATCHController(configs=GRID, profile=PLAT.profile,
                                 pricing=PLAT.pricing),
        "oracle": oracle,
    }


@pytest.mark.parametrize("name", CHOOSERS)
class TestChooserConformance:
    def test_choose_returns_decision(self, choosers, name):
        chooser = choosers[name]
        hist = interarrivals(TRACE.segment(0, relative=False))
        decision = chooser.choose(hist, SLO)
        assert isinstance(decision, Decision)
        assert decision.config in GRID
        assert isinstance(decision.decision_time, float)
        assert decision.decision_time >= 0.0

    def test_decision_is_frozen(self, choosers, name):
        chooser = choosers[name]
        hist = interarrivals(TRACE.segment(0, relative=False))
        decision = chooser.choose(hist, SLO)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.decision_time = 0.0

    def test_round_trips_through_run_segment(self, choosers, name):
        chooser = choosers[name]
        out = run_segment(TRACE, 1, chooser, slo=SLO, platform=PLAT)
        assert out.n_requests == TRACE.segment(1).size
        assert out.latencies.size == out.n_requests
        assert len(out.decision_times) == 1
        assert out.decision_times[0] >= 0.0
        assert out.configs[0] in GRID


def test_oracle_requires_future():
    oracle = OracleChooser(GRID, PLAT)
    with pytest.raises(RuntimeError):
        oracle.choose(np.array([0.01]), SLO)
