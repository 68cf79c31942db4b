"""Tests for the closed-loop harness and the oracle baseline."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.arrival.traces import azure_like
from repro.batching.config import BatchConfig, config_grid
from repro.core.types import Decision
from repro.evaluation.harness import (
    ExperimentLog,
    run_experiment,
    run_segment,
)
from repro.serverless.platform import ServerlessPlatform

TRACE = azure_like(seed=0, n_segments=4, segment_duration=20.0, base_rate=80.0)
PLAT = ServerlessPlatform()
GRID = config_grid(memories=(1024.0, 1792.0), batch_sizes=(1, 8), timeouts=(0.0, 0.05))


@dataclass
class FixedChooser:
    """Always returns the same configuration (test double)."""

    config: BatchConfig
    decision_time: float = 0.001
    calls: int = 0

    def choose(self, interarrival_history, slo):
        self.calls += 1
        return Decision(config=self.config, decision_time=self.decision_time)


class TestRunSegment:
    def test_serves_every_request(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT)
        assert out.n_requests == TRACE.segment(1).size
        assert out.latencies.size == out.n_requests
        assert out.total_cost > 0

    def test_single_decision_without_updates(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT)
        assert chooser.calls == 1
        assert len(out.configs) == 1

    def test_update_every_triggers_reoptimization(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        n = TRACE.segment(1).size
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT, update_every=n // 4)
        assert chooser.calls >= 4
        assert len(out.configs) == chooser.calls
        assert out.latencies.size == n

    def test_segment_zero_rejected(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        with pytest.raises(ValueError):
            run_segment(TRACE, 0, chooser, slo=0.1, platform=PLAT)

    def test_percentile_and_vcr_accessors(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT)
        assert out.p(50) <= out.p(95)
        assert 0.0 <= out.vcr(0.1) <= 100.0
        assert out.cost_per_request > 0


class TestRunExperiment:
    def test_logs_all_segments(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        log = run_experiment(TRACE, chooser, slo=0.1, platform=PLAT, name="fixed")
        assert len(log.outcomes) == TRACE.n_segments - 1
        assert log.vcr_series().shape == (3,)
        assert log.cost_series().shape == (3,)
        assert log.latency_series().shape == (3,)
        assert log.all_latencies().size == sum(o.n_requests for o in log.outcomes)
        assert log.mean_decision_time == pytest.approx(0.001)

    def test_segment_range(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        log = run_experiment(TRACE, chooser, slo=0.1, platform=PLAT, segments=range(2, 4))
        assert [o.segment for o in log.outcomes] == [2, 3]


class TestResolveSequenceLength:
    """Regression: ``window_length = 0`` used to be falsy and silently fell
    back to the Eq. 11 default instead of being rejected."""

    def test_explicit_argument_wins(self):
        from repro.evaluation.harness import _resolve_sequence_length

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        chooser.window_length = 64
        assert _resolve_sequence_length(chooser, 32) == 32

    def test_chooser_window_used(self):
        from repro.evaluation.harness import _resolve_sequence_length

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        chooser.window_length = 64
        assert _resolve_sequence_length(chooser, None) == 64

    def test_no_window_falls_back_to_default(self):
        from repro.evaluation.harness import (
            DEFAULT_SEQUENCE_LENGTH,
            _resolve_sequence_length,
        )

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        assert _resolve_sequence_length(chooser, None) == DEFAULT_SEQUENCE_LENGTH

    def test_zero_window_rejected(self):
        from repro.evaluation.harness import _resolve_sequence_length

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        chooser.window_length = 0
        with pytest.raises(ValueError, match="window_length"):
            _resolve_sequence_length(chooser, None)

    def test_negative_window_rejected(self):
        from repro.evaluation.harness import _resolve_sequence_length

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        chooser.window_length = -5
        with pytest.raises(ValueError, match="window_length"):
            _resolve_sequence_length(chooser, None)

    def test_zero_explicit_rejected(self):
        from repro.evaluation.harness import _resolve_sequence_length

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        with pytest.raises(ValueError, match="sequence_length"):
            _resolve_sequence_length(chooser, 0)

    def test_run_segment_surfaces_zero_window(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        chooser.window_length = 0
        with pytest.raises(ValueError, match="window_length"):
            run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT)


@pytest.mark.faults
class TestSegmentResilience:
    """run_segment records retries / failed requests / degraded decisions."""

    def test_fault_free_run_records_zeros(self):
        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT)
        assert out.n_retries == 0
        assert out.n_failed == 0
        assert out.degraded_decisions == 0

    def test_faulty_platform_records_retries(self):
        from repro.serverless.faults import FaultModel

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        plat = ServerlessPlatform(seed=0, faults=FaultModel(failure_rate=0.3))
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=plat)
        assert out.n_retries > 0
        assert out.n_failed >= 0

    def test_degraded_decisions_counted(self):
        @dataclass
        class DegradedChooser:
            config: BatchConfig
            calls: int = 0

            def choose(self, interarrival_history, slo):
                self.calls += 1
                diagnostics = (
                    {"degraded": True, "reason": "test"}
                    if self.calls > 1 else None
                )
                return Decision(config=self.config, decision_time=0.0,
                                diagnostics=diagnostics)

        chooser = DegradedChooser(BatchConfig(1024.0, 8, 0.05))
        n = TRACE.segment(1).size
        out = run_segment(TRACE, 1, chooser, slo=0.1, platform=PLAT,
                          update_every=n // 4)
        assert chooser.calls >= 4
        assert out.degraded_decisions == chooser.calls - 1

    def test_experiment_log_totals(self):
        from repro.serverless.faults import FaultModel

        chooser = FixedChooser(BatchConfig(1024.0, 8, 0.05))
        plat = ServerlessPlatform(seed=0, faults=FaultModel(failure_rate=0.3))
        log = run_experiment(TRACE, chooser, slo=0.1, platform=plat)
        assert log.total_retries == sum(o.n_retries for o in log.outcomes)
        assert log.total_failed == sum(o.n_failed for o in log.outcomes)
        assert log.total_degraded_decisions == 0
        assert log.total_retries > 0


class TestOracle:
    def test_oracle_requires_future(self):
        from repro.evaluation.harness import OracleChooser

        oracle = OracleChooser(GRID, PLAT)
        with pytest.raises(RuntimeError):
            oracle.choose(np.array([0.01]), slo=0.1)
