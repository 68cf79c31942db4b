"""Checkpoint/restore: the keystone kill-and-resume equivalence.

The contract under test: a run killed at an arbitrary event boundary and
resumed from its latest snapshot (plus journal replay) produces a
:class:`ServingLog` bit-identical to an uninterrupted run — with faults on
and off, across multiple distinct kill points, and even when the restored
leg is itself killed again. Plus the supporting machinery: atomic snapshot
writes, journal round-trips and torn-tail tolerance, fingerprint rejection
of mismatched engines, and replay divergence detection.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.batching.config import BatchConfig
from repro.core.types import Decision
from repro.serverless.faults import FaultModel
from repro.serverless.platform import ServerlessPlatform
from repro.serverless.service_profile import ColdStartModel
from repro.serving import (
    CheckpointError,
    Journal,
    JournalReplayError,
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
        for crash_at in (3, baseline.n_events // 2, baseline.n_events - 5):
            ck = tmp_path / f"faults{faults}-crash{crash_at}.ckpt"
            with pytest.raises(SimulatedCrash):
                build_engine(faults=faults).run(
                    ts, record_trace=True, checkpoint_path=ck,
                    checkpoint_every=64, crash_after_events=crash_at,
                )
            resumed = build_engine(faults=faults).restore(ck)
            assert_serving_logs_equal(baseline, resumed)

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
