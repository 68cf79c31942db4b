"""Checkpoint/restore: the keystone kill-and-resume equivalence.

The contract under test: a run killed at an arbitrary event boundary and
resumed from its latest snapshot (plus journal replay) produces a
:class:`ServingLog` bit-identical to an uninterrupted run — with faults on
and off, across multiple distinct kill points, and even when the restored
leg is itself killed again. Plus the supporting machinery: atomic snapshot
writes, journal round-trips and torn-tail tolerance, fingerprint rejection
of mismatched engines, and replay divergence detection.
"""

import dataclasses
import inspect
import json
import os
import pickle

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel, RetryPolicy
from repro.serverless.generation import TokenLengthModel, TokenServiceProfile
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.pricing import DEFAULT_GB_SECOND_PRICE, LambdaPricing
from repro.serverless.service_profile import ColdStartModel, ServiceProfile
from repro.serving import (
    CheckpointError,
    DegradeConfig,
    DriftConfig,
    EmpiricalRateForecaster,
    GenerationConfig,
    GuardrailConfig,
    HedgeConfig,
    Journal,
    JournalReplayError,
    OracleForecaster,
    PredictionDriftConfig,
    PrewarmConfig,
    ServingEngine,
    SimulatedCrash,
    WarmPoolConfig,
    assert_serving_logs_equal,
    journal_path,
    read_snapshot,
    write_snapshot,
)
from repro.serving.checkpoint import SNAPSHOT_FORMAT, jsonable

pytestmark = pytest.mark.serving

CONFIG = BatchConfig(memory_mb=2048.0, batch_size=8, timeout=0.05)
OTHER = BatchConfig(memory_mb=4096.0, batch_size=16, timeout=0.02)


class FlipFlopChooser:
    """Alternates configs; its mutable call counter is exactly the kind of
    controller state a snapshot must capture for the resume to be exact."""

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


def build_engine(seed=123, faults=False):
    fault_model = FaultModel(failure_rate=0.2) if faults else None
    platform = ServerlessPlatform(
        cold_start=ColdStartModel(),
        faults=fault_model,
        concurrency_limit=4,
        seed=seed,
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
    )


class TestKillRestoreEquivalence:
    """The keystone property, at explicit distinct event boundaries."""

    @pytest.mark.parametrize("faults", [False, True])
    def test_kill_and_restore_is_bit_identical(self, tmp_path, faults):
        ts = trace()
        baseline = build_engine(faults=faults).run(ts, record_trace=True)
        assert baseline.n_events > 900
        # Three distinct boundaries: right after the initial snapshot, deep
        # mid-run between snapshots, and near the end of the run.
        held = []
        for crash_at in (3, baseline.n_events // 2, baseline.n_events - 5):
            ck = tmp_path / f"faults{faults}-crash{crash_at}.ckpt"
            with pytest.raises(SimulatedCrash):
                build_engine(faults=faults).run(
                    ts, record_trace=True, checkpoint_path=ck,
                    checkpoint_every=64, crash_after_events=crash_at,
                )
            st = read_snapshot(ck)["state"]
            busy = (st.pool.live_containers(st.clock)
                    - st.pool.warm_containers(st.clock))
            held.append((len(st.queue), busy))
            resumed = build_engine(faults=faults).restore(ck)
            assert_serving_logs_equal(baseline, resumed)
        # Some restore starts from dispatched batches in the snapshot, both
        # queued (pickled ``Batch`` records) and in flight (busy containers
        # with their completions on the heap).
        assert any(queued and busy for queued, busy in held), held

    def test_restore_of_a_restored_run(self, tmp_path):
        # The resumed leg checkpoints too, so it can be killed again.
        ts = trace()
        baseline = build_engine().run(ts, record_trace=True)
        ck = tmp_path / "twice.ckpt"
        with pytest.raises(SimulatedCrash):
            build_engine().run(ts, record_trace=True, checkpoint_path=ck,
                               checkpoint_every=64, crash_after_events=300)
        with pytest.raises(SimulatedCrash):
            build_engine().restore(ck, crash_after_events=800)
        resumed = build_engine().restore(ck)
        assert_serving_logs_equal(baseline, resumed)

    def test_checkpointing_does_not_change_the_run(self, tmp_path):
        # Snapshots and the journal are pure observers of the event stream.
        ts = trace()
        plain = build_engine(faults=True).run(ts, record_trace=True)
        observed = build_engine(faults=True).run(
            ts, record_trace=True,
            checkpoint_path=tmp_path / "observer.ckpt", checkpoint_every=128,
        )
        assert_serving_logs_equal(plain, observed)
        assert observed.checkpoints > 1  # it did actually snapshot

    def test_chooser_state_survives_the_crash(self, tmp_path):
        # FlipFlop alternates per *call*: if the restored engine's chooser
        # restarted from zero, every decision after the crash would flip
        # parity and the decision stream would diverge.
        ts = trace()
        baseline = build_engine().run(ts)
        ck = tmp_path / "chooser.ckpt"
        with pytest.raises(SimulatedCrash):
            build_engine().run(ts, checkpoint_path=ck, checkpoint_every=64,
                               crash_after_events=baseline.n_events // 2)
        resumed = build_engine().restore(ck)
        assert [d.config for d in resumed.decisions] == \
            [d.config for d in baseline.decisions]

    def test_journal_records_every_event(self, tmp_path):
        ts = trace(n=400)
        ck = tmp_path / "journal.ckpt"
        log = build_engine().run(ts, record_trace=True, checkpoint_path=ck,
                                 checkpoint_every=64)
        entries = Journal(journal_path(ck)).read()
        assert entries == [jsonable(e) for e in log.event_trace]


class TestRestoreValidation:
    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        ts = trace(n=400)
        ck = tmp_path / "fp.ckpt"
        with pytest.raises(SimulatedCrash):
            build_engine().run(ts, checkpoint_path=ck, checkpoint_every=32,
                               crash_after_events=100)
        other = build_engine()
        other.slo = 0.2  # differently-configured engine
        with pytest.raises(CheckpointError, match="slo"):
            other.restore(ck)

    def test_missing_snapshot_is_a_clear_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            build_engine().restore(tmp_path / "nope.ckpt")

    def test_wrong_format_is_rejected(self, tmp_path):
        # A snapshot restores only into a build that writes its format:
        # format 1 predates the current layout, and a newer format is
        # unknown to this build.
        path = tmp_path / "other.ckpt"
        for fmt in (1, SNAPSHOT_FORMAT + 1):
            with open(path, "wb") as fh:
                pickle.dump({"format": fmt}, fh)
            with pytest.raises(CheckpointError, match="unsupported format"):
                build_engine().restore(path)

    def test_corrupt_snapshot_is_a_clear_error(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"\x80\x05 definitely not a full pickle")
        with pytest.raises(CheckpointError, match="cannot read"):
            build_engine().restore(path)

    def test_tampered_journal_tail_raises_replay_error(self, tmp_path):
        ts = trace(n=600)
        ck = tmp_path / "tamper.ckpt"
        with pytest.raises(SimulatedCrash):
            build_engine().run(ts, checkpoint_path=ck, checkpoint_every=64,
                               crash_after_events=200)
        jpath = journal_path(ck)
        with open(jpath, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        # Corrupt an entry *after* the snapshot boundary (the replay tail).
        entries = int(read_snapshot(ck)["journal_entries"])
        assert len(lines) > entries
        doctored = json.loads(lines[-1])
        doctored[1] = float(doctored[1]) + 1.0  # shift its timestamp
        lines[-1] = json.dumps(doctored) + "\n"
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(JournalReplayError, match="diverged"):
            build_engine().restore(ck)
        # With verification off the same restore succeeds.
        with pytest.raises(SimulatedCrash):
            build_engine().run(ts, checkpoint_path=ck, checkpoint_every=64,
                               crash_after_events=200)
        assert build_engine().restore(ck, verify_journal=False) is not None

    def test_run_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            build_engine().run(trace(n=50), checkpoint_every=0)
        with pytest.raises(ValueError, match="crash_after_events"):
            build_engine().run(trace(n=50), crash_after_events=0)


def crashed_checkpoint(tmp_path, engine, ts, name="crash.ckpt"):
    ck = tmp_path / name
    with pytest.raises(SimulatedCrash):
        engine.run(ts, checkpoint_path=ck, checkpoint_every=32,
                   crash_after_events=100)
    return ck


#: Every optional field set, so each one has a value to change.
FULL_PLATFORM = ServerlessPlatform(
    profile=ServiceProfile(),
    pricing=LambdaPricing(),
    cold_start=ColdStartModel(cold_probability=0.5),
    concurrency_limit=4,
    seed=123,
    faults=FaultModel(failure_rate=0.1, timeout_s=1.0),
    retry_policy=RetryPolicy(max_total_delay_s=2.0),
)
FULL_ENGINE = dict(
    config=CONFIG,
    platform=FULL_PLATFORM,
    slo=0.1,
    pool=WarmPoolConfig(keep_alive_s=2.0, max_containers=4,
                        max_queued_batches=2),
    deploy_delay_s=0.25,
    decision_interval_s=0.5,
    history_tail=512,
    min_history=16,
    drift=DriftConfig(window=48, check_every=24, cooldown_s=9.0,
                      retrain_delay_s=1.5),
    prediction=PredictionDriftConfig(baseline_error=0.2, tolerance=4.0,
                                     min_samples=16),
    sequence_length=64,
    guardrail=GuardrailConfig(fallback=OTHER),
    prewarm=PrewarmConfig(forecaster=EmpiricalRateForecaster(),
                          horizon_s=2.0, max_per_tick=3),
    outages=OutageModel(
        windows=(OutageWindow(0.5, 1.0),),
        crash=CrashHazard(rate=0.01, outage_rate=0.05),
        straggler=StragglerModel(rate=0.1, slowdown=2.0),
        seed=3,
    ),
    degrade=DegradeConfig(backoff=RetryPolicy(max_total_delay_s=1.0),
                          hedge=HedgeConfig()),
)
#: Generation excludes faults and outages, so it gets its own engine.
GEN_ENGINE = dict(
    config=CONFIG,
    platform=dataclasses.replace(FULL_PLATFORM, faults=None),
    generation=GenerationConfig(
        token_profile=TokenServiceProfile(),
        length_model=TokenLengthModel(),
        max_batch_tokens=4096,
        max_waiting=8,
        ttft_slo=0.2,
        tpot_slo=0.05,
        seed=1,
    ),
)
#: Members with no value equality; they are not part of the identity
#: (the prewarm forecaster enters by class name, tested on its own).
OPAQUE = {("drift", "detector"), ("drift", "on_retrain"),
          ("prewarm", "forecaster")}


def _different(value):
    """Valid replacement candidates for a scalar field value."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, str):
        return [{"continuous": "buffer", "buffer": "continuous"}[value]]
    if isinstance(value, int):
        return [value + 1, value * 2]
    return [value * 1.5, value * 0.5, value + 0.5]


def _changed(value, key, path=()):
    """Yield ``(path, changed)``: ``value`` with one leaf field set to a
    valid different value, for every leaf of a nested config."""
    if isinstance(value, tuple):
        # A tuple of configs (outage windows): change its first member.
        for sub, member in _changed(value[0], key, path + ("0",)):
            yield sub, (member,) + value[1:]
        return
    if not dataclasses.is_dataclass(value):
        for candidate in _different(value):
            yield path, candidate
        return
    for name, inner in _members(value, key):
        for sub, changed in _changed(inner, key, path + (name,)):
            try:
                outer = dataclasses.replace(value, **{name: changed})
            except ValueError:
                continue  # an invalid candidate; the next one is tried
            yield sub, outer


def _members(value, key):
    for f in dataclasses.fields(value):
        if (key, f.name) not in OPAQUE:
            inner = getattr(value, f.name)
            assert inner is not None, f"{key}.{f.name} must be set"
            yield f.name, inner


def _leaves(value, key, path=()):
    if isinstance(value, tuple):
        return _leaves(value[0], key, path + ("0",))
    if not dataclasses.is_dataclass(value):
        return {path}
    return {leaf for name, inner in _members(value, key)
            for leaf in _leaves(inner, key, path + (name,))}


def _one_change_per_leaf(base, key):
    changes = {}
    for path, changed in _changed(base, key):
        changes.setdefault(path, changed)
    assert set(changes) == _leaves(base, key), "a field has no valid change"
    return changes


@pytest.mark.chaos
class TestRestoreIdentity:
    """A checkpoint restores only into an engine whose every config field
    matches the one that wrote it: a different bill, profile or model
    must be refused up front, not discovered (or missed) later."""

    @pytest.mark.parametrize("field, value", [
        ("pricing", LambdaPricing(gb_second_price=10 * DEFAULT_GB_SECOND_PRICE)),
        ("profile", ServiceProfile(base_time=0.01)),
        ("cold_start", ColdStartModel(base_delay=0.5)),
    ])
    def test_platform_models_are_part_of_the_identity(self, tmp_path,
                                                      field, value):
        ck = crashed_checkpoint(tmp_path, build_engine(), trace(n=400))
        other = build_engine()
        other.platform = dataclasses.replace(other.platform, **{field: value})
        # Without journal replay nothing but the fingerprint stands between
        # the snapshot and a resumed run billed under the wrong platform.
        with pytest.raises(CheckpointError, match=r"\['platform'\]"):
            other.restore(ck, verify_journal=False)

    def test_every_constructor_parameter_is_fingerprinted(self):
        # The chooser travels inside the snapshot, and the metrics prefix
        # only names telemetry.
        params = set(inspect.signature(ServingEngine).parameters)
        fp = ServingEngine(**FULL_ENGINE)._fingerprint()
        assert set(fp) == params - {"chooser", "metrics_prefix"}

    @pytest.mark.parametrize("base, key", [
        *((FULL_ENGINE, k) for k in FULL_ENGINE),
        (GEN_ENGINE, "generation"),
    ], ids=[*FULL_ENGINE, "generation-config"])
    def test_every_config_field_is_fingerprinted(self, tmp_path, base, key):
        ck = crashed_checkpoint(tmp_path, ServingEngine(**base), trace(n=400))
        theirs = ServingEngine(**base)._fingerprint()
        changes = _one_change_per_leaf(base[key], key)
        for path, changed in changes.items():
            where = ".".join((key, *path))
            engine = ServingEngine(**{**base, key: changed})
            ours = engine._fingerprint()
            assert [k for k in ours if ours[k] != theirs[k]] == [key], where
            with pytest.raises(CheckpointError,
                               match=rf"parameters: \['{key}'\]"):
                engine.restore(ck, verify_journal=False)

    def test_prewarm_forecaster_enters_by_class(self):
        def fingerprint(forecaster):
            prewarm = dataclasses.replace(FULL_ENGINE["prewarm"],
                                          forecaster=forecaster)
            return ServingEngine(**{**FULL_ENGINE, "prewarm": prewarm}
                                 )._fingerprint()

        base = ServingEngine(**FULL_ENGINE)._fingerprint()
        assert fingerprint(EmpiricalRateForecaster()) == base
        other = fingerprint(OracleForecaster(np.arange(3.0)))
        assert [k for k in other if other[k] != base[k]] == ["prewarm"]


class TestJournal:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(path).open()
        events = [("arrival", 0.12345678901234567, 0),
                  ("start", 1.5, 3, 8, True, 2048.0, 1.7),
                  ("drift", 2.0, "workload", 0.25)]
        for e in events:
            journal.append(e)
        journal.close()
        assert Journal(path).read() == [jsonable(e) for e in events]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.journal"
        journal = Journal(path).open()
        journal.append(("arrival", 1.0, 0))
        journal.append(("arrival", 2.0, 1))
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('["arrival", 3.0')  # the crash-interrupted write
        assert Journal(path).read() == [["arrival", 1.0, 0],
                                        ["arrival", 2.0, 1]]

    def test_truncate_to_keeps_a_prefix(self, tmp_path):
        path = tmp_path / "t.journal"
        journal = Journal(path).open()
        for i in range(5):
            journal.append(("arrival", float(i), i))
        journal.close()
        journal = Journal(path).open(truncate_to=2)
        assert journal.entries == 2
        journal.close()
        assert Journal(path).read() == [["arrival", 0.0, 0],
                                        ["arrival", 1.0, 1]]

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(CheckpointError, match="not open"):
            Journal(tmp_path / "x.journal").append(("arrival", 0.0, 0))


class TestSnapshotFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"state": [1, 2, 3]})
        payload = read_snapshot(path)
        assert payload["state"] == [1, 2, 3]
        assert payload["format"] == SNAPSHOT_FORMAT

    def test_write_is_atomic(self, tmp_path):
        # A failed write must leave the previous snapshot untouched and no
        # temp litter behind.
        path = tmp_path / "s.ckpt"
        write_snapshot(path, {"state": "old"})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("refuses to pickle")

        with pytest.raises(RuntimeError):
            write_snapshot(path, {"state": Unpicklable()})
        assert read_snapshot(path)["state"] == "old"
        assert os.listdir(tmp_path) == ["s.ckpt"]


class TestJsonable:
    def test_numpy_scalars_and_tuples_normalize(self):
        event = ("start", np.float64(1.5), np.int64(3), (np.bool_(True),))
        assert jsonable(event) == ["start", 1.5, 3, [True]]

    def test_floats_survive_json_round_trip_exactly(self):
        values = [0.1 + 0.2, 1e-17, 123456.789012345678, np.pi]
        assert json.loads(json.dumps(jsonable(values))) == values
