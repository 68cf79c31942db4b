"""Crash-safe persistence for the serving runtime: snapshots + journal.

A :class:`~repro.serving.engine.ServingEngine` run is a deterministic
discrete-event system, which makes it *exactly* recoverable: persist the
complete mutable state at an event boundary and the continuation is
bit-identical to never having crashed. This module supplies the two
artifacts that make that real (DeepServe treats recoverability as a
first-class property of serverless serving; we inherit the stance):

* **snapshot** — the full run state (event heap, buffer contents, warm
  pool, in-flight completions, pending reconfigurations, controller
  history tail, drift-detector envelope, breaker state, output arrays, and
  the platform's NumPy bit-generator state), pickled and written through
  :func:`repro.utils.io.atomic_write`. A crash mid-snapshot leaves the
  previous snapshot intact — there is never a torn checkpoint.
* **journal** — an append-only JSONL file of every event the engine emits,
  flushed per event and fsynced at each snapshot. On restore the journal
  is truncated back to the snapshot boundary, and the entries beyond it —
  events the crashed run processed but whose state died with it — become
  the *replay expectation*: the resumed run must regenerate them verbatim
  (it is deterministic), and :class:`JournalReplayError` flags any
  divergence, which would mean the snapshot and journal disagree (torn
  write, mixed-up files, or non-determinism — all bugs worth crashing on).

The snapshot is authoritative for state; the journal is authoritative for
what was already observed. Together they give the chaos harness
(:mod:`repro.serving.chaos`) its equivalence oracle.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np

from repro.utils.io import atomic_write

#: Bump when the snapshot layout changes; restore refuses other formats,
#: so a snapshot only restores into a build that writes its layout.
SNAPSHOT_FORMAT = 7


class CheckpointError(RuntimeError):
    """A snapshot could not be read, or does not fit this engine."""


class JournalReplayError(CheckpointError):
    """A resumed run diverged from the journal written before the crash."""


class SimulatedCrash(RuntimeError):
    """Raised by the engine's chaos hook (``crash_after_events``).

    Models a process dying at an event boundary: no flush, no final
    snapshot, no cleanup beyond what the OS would do. The chaos harness
    catches it and exercises the restore path.
    """


def journal_path(snapshot_path: str | os.PathLike) -> str:
    """The journal that rides along with ``snapshot_path``."""
    return os.fspath(snapshot_path) + ".journal"


def jsonable(value):
    """Normalize an event payload to pure-JSON types.

    Tuples become lists and NumPy scalars become Python scalars, so an
    event compares equal (``==``) to its own journal round-trip — the
    property the replay check in :meth:`ServingEngine.restore` relies on.
    Python's ``json`` emits shortest-roundtrip float literals, so float
    equality after the round-trip is exact, not approximate.
    """
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


class Journal:
    """Append-only JSONL event journal with truncate-on-restore.

    One JSON array per line, one line per emitted event. ``append`` writes
    and flushes (the OS has the bytes even if we die); ``sync`` fsyncs
    (the *disk* has them — called at snapshot boundaries so the journal is
    never behind the snapshot that references it).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._handle = None
        self.entries = 0

    def open(self, truncate_to: int | None = None) -> "Journal":
        """Open for appending; ``truncate_to`` first rewrites the file to
        its first that-many entries (the restore path discarding the
        post-snapshot tail it is about to regenerate)."""
        if truncate_to is not None:
            kept = self.read()[:truncate_to]
            with atomic_write(self.path, mode="w") as handle:
                for entry in kept:
                    handle.write(json.dumps(entry) + "\n")
            self.entries = len(kept)
        else:
            self.entries = 0
            with open(self.path, "w", encoding="utf-8"):
                pass
        self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def append(self, event) -> None:
        if self._handle is None:
            raise CheckpointError("journal is not open")
        self._handle.write(json.dumps(jsonable(event)) + "\n")
        self._handle.flush()
        self.entries += 1

    def sync(self) -> None:
        if self._handle is not None:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def read(self) -> list:
        """All journal entries currently on disk (tolerates a torn final
        line — the one write a crash can actually interrupt)."""
        if not os.path.exists(self.path):
            return []
        entries = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    break  # torn tail: everything before it is intact
        return entries


def write_snapshot(path: str | os.PathLike, payload: dict) -> None:
    """Atomically persist one snapshot payload (pickle, temp + replace)."""
    payload = dict(payload)
    payload["format"] = SNAPSHOT_FORMAT
    with atomic_write(path) as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def read_snapshot(path: str | os.PathLike) -> dict:
    """Load a snapshot written by :func:`write_snapshot`."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {os.fspath(path)!r}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has unsupported format "
            f"{payload.get('format') if isinstance(payload, dict) else '?'!r} "
            f"(this build reads format {SNAPSHOT_FORMAT})"
        )
    return payload
