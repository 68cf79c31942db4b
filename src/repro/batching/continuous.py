"""Continuous (iteration-level) batching for token-streaming generation.

The size/timeout :class:`~repro.batching.buffer.BatchingBuffer` forms a
batch once and runs it to completion — every member waits for batch
formation up front and the container is held until the *longest* decode in
the batch finishes. Continuous batching (Orca-style iteration-level
scheduling) instead admits requests into a *running* batch at token
boundaries and retires each one the moment its own decode completes:

* a **session** is one warm container executing back-to-back iterations;
* each iteration is either a **prefill** (new admissions evaluate their
  prompts and produce their first token — TTFT) or a **decode step** (all
  running requests emit one token — TPOT);
* at every iteration boundary, finished requests leave and waiting
  requests join, subject to the batch-size cap and a ``max_batch_tokens``
  admission budget (the KV-cache footprint proxy: each admitted request
  reserves ``prompt_tokens + output_tokens``);
* when the running batch and the wait queue are both empty the session
  ends and the container goes back to the warm pool.

This module is the engine-independent state machine; the serving engine
(:mod:`repro.serving.engine`) drives :meth:`ContinuousSession.step` from
its event heap and owns queues, pools, logging, and telemetry. Timing
comes from :class:`~repro.serverless.generation.TokenServiceProfile`:
prefill iterations cost ``ttft(M, n_admitted)``, decode iterations cost
``tpot(M, n_running)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.serverless.generation import TokenServiceProfile

__all__ = ["ContinuousSession", "GenRequest"]


class GenRequest(NamedTuple):
    """One generation request waiting for or occupying a batch slot."""

    index: int
    arrival: float
    prompt_tokens: int
    output_tokens: int

    @property
    def footprint(self) -> int:
        """Admission-budget reservation: the final KV-cache size."""
        return self.prompt_tokens + self.output_tokens


@dataclass
class ContinuousSession:
    """Iteration-level batching state for one container.

    Drive it by calling :meth:`step` at each iteration boundary with the
    shared FIFO wait queue; the caller schedules the next boundary as
    many seconds later as it returns. The session plans one iteration at a
    time and applies its effects at the *next* boundary, so state never
    runs ahead of simulated time (checkpoints taken between events see a
    consistent picture). Iteration durations go through ``durations``:
    the serving engine passes one memo per run and memory size, shared
    by all its sessions; a session built without one keeps its own.

    A boundary costs the same whatever the batch holds. Running requests
    are filed under the decode count at which they finish, so a decode
    boundary pops the ones due at ``n_decodes`` and touches no other
    slot; a *quiet* boundary, where nothing finishes and nothing joins,
    allocates nothing.
    """

    profile: TokenServiceProfile
    memory_mb: float
    batch_size: int
    max_batch_tokens: "int | None" = None

    #: Running requests by the value of ``n_decodes`` at the boundary where
    #: they finish, each list in admission order.
    running: "dict[int, list[GenRequest]]" = field(default_factory=dict)
    #: Slots held: running requests plus ``pending_admits``.
    slots: int = 0
    #: Reserved admission budget (sum of the held slots' footprints).
    tokens: int = 0
    #: The iteration currently executing, applied at the next boundary.
    pending_kind: str = ""
    pending_admits: "list[GenRequest]" = field(default_factory=list)
    #: The last boundary's effects: ``prefilled`` requests produced their
    #: first token (record TTFT), in admission order; ``finished`` ones
    #: completed their decode (record latency — a one-token request is in
    #: both). A decode boundary where nothing finished sets both to ``()``.
    prefilled: "tuple | list[GenRequest]" = ()
    finished: "tuple | list[GenRequest]" = ()
    #: Session totals for the log's batch row. ``n_decodes`` counts the
    #: decode iterations planned so far, so at a boundary it is the number
    #: applied: the decode counter ``running`` is keyed by.
    n_served: int = 0
    n_prefills: int = 0
    n_decodes: int = 0
    #: Iteration-duration memo, prefill keys ``-n`` and decode keys ``n``.
    #: The profile is pure in ``(memory_mb, n)``, so sessions at one
    #: ``memory_mb`` may share one dict: the serving engine passes a
    #: run-level memo per memory tier, and the profile math (NumPy scalars,
    #: expensive at heap-event frequency) runs once per run and key.
    durations: "dict[int, float]" = field(default_factory=dict, repr=False,
                                          compare=False)

    def step(self, queue: "deque[GenRequest]") -> "float | None":
        """Close the current iteration, admit from ``queue``, plan the next.

        Sets :attr:`prefilled` and :attr:`finished` to the boundary's
        effects, which the caller records against the boundary time, and
        returns the next iteration's duration (its kind is
        :attr:`pending_kind`); ``None`` means the session drained and the
        container should be released.
        """
        # 1. Apply the iteration that just ended.
        if self.pending_kind == "decode":
            self.prefilled = ()
            finished = self.finished = self.running.pop(self.n_decodes, ())
        elif self.pending_kind == "prefill":
            self.prefilled = prefilled = self.pending_admits
            self.pending_admits = []
            finished = self.finished = []
            running = self.running
            # A request needing k tokens finishes k - 1 decodes from now.
            due0 = self.n_decodes - 1
            for req in prefilled:
                if req.output_tokens == 1:
                    finished.append(req)
                    continue
                running.setdefault(due0 + req.output_tokens, []).append(req)
        else:
            finished = self.prefilled = self.finished = ()
        if finished:
            self.slots -= len(finished)
            self.n_served += len(finished)
            for req in finished:
                self.tokens -= req.footprint

        # 2. Admit waiting requests (FIFO, capacity- and budget-gated).
        admits = self.pending_admits
        while queue and self.slots < self.batch_size:
            footprint = queue[0].footprint
            if (
                self.max_batch_tokens is not None and self.slots
                and self.tokens + footprint > self.max_batch_tokens
            ):
                # The budget only blocks *joining* a non-empty batch; a
                # request bigger than the whole budget still runs alone,
                # so nothing starves behind an unreachable admission gate.
                break
            admits.append(queue.popleft())
            self.tokens += footprint
            self.slots += 1

        # 3. Plan the next iteration: prefill preempts decode (new
        #    admissions must produce their first token before rejoining
        #    the decode cadence), decode runs the whole batch one step.
        #    Prefill keys are negative, decode keys positive (n >= 1).
        if admits:
            self.pending_kind = "prefill"
            self.n_prefills += 1
            key = -len(admits)
        elif self.slots:
            self.pending_kind = "decode"
            self.n_decodes += 1
            key = self.slots
        else:
            self.pending_kind = ""
            return None
        duration = self.durations.get(key)
        if duration is None:
            duration = float(self.profile.ttft(self.memory_mb, -key) if key < 0
                             else self.profile.tpot(self.memory_mb, key))
            self.durations[key] = duration
        return duration
