"""Chaos drills: seeded random kills, full restore, equivalence oracle.

Where ``test_checkpoint.py`` kills the engine at hand-picked boundaries,
these tests run :func:`repro.serving.chaos.run_with_crashes` — random kill
points drawn from a seeded generator, multiple crashes per run, faults and
the guardrail in the mix — and assert the completed run is bit-identical
to one that never crashed. Marked ``chaos`` (``make test-chaos``) on top
of the ``serving`` marker; they stay in tier-1 because they are fast.

``TestLogEquality`` mutation-tests the oracle itself: perturbing any one
:class:`ServingLog` field must make it fail and name that field.
"""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    GuardrailConfig,
    ServingDecision,
    ServingEngine,
    ServingLog,
    WarmPoolConfig,
    assert_serving_logs_equal,
    run_with_crashes,
)

pytestmark = [pytest.mark.serving, pytest.mark.chaos]

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=4096.0, batch_size=16, timeout=0.02)


class FlipFlopChooser:
    def __init__(self):
        self.calls = 0

    def choose(self, history, slo):
        self.calls += 1
        config = OTHER if self.calls % 2 else CONFIG
        return Decision(config=config, decision_time=1e-3,
                        diagnostics={"predicted_p95": 0.08})


def trace(seed=5, n=1200, lam=250.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / lam, size=n))


def build_engine(faults=False, guardrail=False):
    platform = ServerlessPlatform(
        cold_start=ColdStartModel(),
        faults=FaultModel(failure_rate=0.2) if faults else None,
        concurrency_limit=4,
        seed=123,
    )
    return ServingEngine(
        CONFIG,
        platform=platform,
        chooser=FlipFlopChooser(),
        pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                            max_queued_batches=2),
        deploy_delay_s=0.25,
        decision_interval_s=0.5,
        min_history=16,
        guardrail=(GuardrailConfig(window=32, k=2, cooldown_s=2.0)
                   if guardrail else None),
    )


class TestChaos:
    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("chaos_seed", [0, 1])
    def test_random_kills_are_bit_identical(self, tmp_path, faults,
                                            chaos_seed):
        ts = trace()
        baseline = build_engine(faults=faults).run(ts, record_trace=True)
        log, crashes = run_with_crashes(
            lambda: build_engine(faults=faults),
            ts,
            tmp_path / "chaos.ckpt",
            n_crashes=3,
            seed=chaos_seed,
            checkpoint_every=64,
            max_events=baseline.n_events,
            record_trace=True,
        )
        assert crashes, "the drill must actually kill the engine"
        assert_serving_logs_equal(baseline, log)

    def test_kills_with_guardrail_active(self, tmp_path):
        ts = trace()
        baseline = build_engine(guardrail=True).run(ts, record_trace=True)
        log, crashes = run_with_crashes(
            lambda: build_engine(guardrail=True),
            ts,
            tmp_path / "chaos-guard.ckpt",
            n_crashes=2,
            seed=3,
            checkpoint_every=64,
            max_events=baseline.n_events,
            record_trace=True,
        )
        assert crashes
        assert_serving_logs_equal(baseline, log)

    def test_zero_crashes_degenerates_to_a_plain_run(self, tmp_path):
        ts = trace(n=400)
        baseline = build_engine().run(ts, record_trace=True)
        log, crashes = run_with_crashes(
            lambda: build_engine(), ts, tmp_path / "none.ckpt",
            n_crashes=0, max_events=baseline.n_events, record_trace=True,
        )
        assert crashes == []
        assert_serving_logs_equal(baseline, log)


def perturbed(value):
    """A value of a log or decision field that differs from ``value``."""
    if value is None:
        return np.zeros(1)
    if isinstance(value, np.ndarray):
        if value.size == 0:
            return np.zeros(1, dtype=value.dtype)
        out = value.copy()
        first = out.flat[0]
        if out.dtype == bool:
            out.flat[0] = not first
        else:
            out.flat[0] = 0 if np.isnan(first) else first + 1
        return out
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-"
    if is_dataclass(value):
        return replace(value, batch_size=value.batch_size + 1)
    if isinstance(value, list):
        return [("perturbed",), *value[1:]]
    raise TypeError(f"no perturbation for {value!r}")


@pytest.fixture(scope="module")
def seeded_log():
    log = build_engine(faults=True).run(trace(n=400), record_trace=True)
    assert log.decisions and log.event_trace
    return log


class TestLogEquality:
    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(ServingLog)
         if f.name not in ("checkpoints", "decisions")],
    )
    def test_every_field_is_compared(self, seeded_log, name):
        changed = replace(seeded_log,
                          **{name: perturbed(getattr(seeded_log, name))})
        with pytest.raises(AssertionError, match=rf"ServingLog\.{name}\b"):
            assert_serving_logs_equal(seeded_log, changed)
        # An array or a trace present in one log only.
        if isinstance(getattr(seeded_log, name), (np.ndarray, list)):
            with pytest.raises(AssertionError,
                               match=rf"ServingLog\.{name}\b"):
                assert_serving_logs_equal(seeded_log,
                                          replace(seeded_log, **{name: None}))

    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(ServingDecision)
         if f.name != "decision_time"],
    )
    def test_every_decision_field_is_compared(self, seeded_log, name):
        first = seeded_log.decisions[0]
        decisions = [replace(first, **{name: perturbed(getattr(first, name))}),
                     *seeded_log.decisions[1:]]
        changed = replace(seeded_log, decisions=decisions)
        with pytest.raises(AssertionError,
                           match=rf"ServingLog\.decisions\[0\]\.{name}\b"):
            assert_serving_logs_equal(seeded_log, changed)

    def test_decision_count_is_compared(self, seeded_log):
        changed = replace(seeded_log, decisions=seeded_log.decisions[:-1])
        with pytest.raises(AssertionError, match=r"ServingLog\.decisions"):
            assert_serving_logs_equal(seeded_log, changed)

    def test_checkpoints_and_decision_times_may_differ(self, seeded_log):
        first = seeded_log.decisions[0]
        decisions = [replace(first, decision_time=first.decision_time + 1.0),
                     *seeded_log.decisions[1:]]
        changed = replace(seeded_log, decisions=decisions,
                          checkpoints=seeded_log.checkpoints + 3)
        assert_serving_logs_equal(seeded_log, changed)
        with pytest.raises(AssertionError, match=r"decision_time"):
            assert_serving_logs_equal(seeded_log, changed,
                                      compare_decision_times=True)
