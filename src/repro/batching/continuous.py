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

__all__ = ["ContinuousSession", "GenRequest", "StepResult"]


@dataclass(frozen=True)
class GenRequest:
    """One generation request waiting for or occupying a batch slot."""

    index: int
    arrival: float
    prompt_tokens: int
    output_tokens: int

    @property
    def footprint(self) -> int:
        """Admission-budget reservation: the final KV-cache size."""
        return self.prompt_tokens + self.output_tokens


class StepResult(NamedTuple):
    """What happened at one iteration boundary.

    ``prefilled`` requests produced their first token at the boundary
    time (record TTFT); ``finished`` requests completed their decode
    (record latency — a one-token request appears in both). With
    ``next_duration`` set, the next iteration ends that many seconds
    after the boundary; ``None`` means the session drained and the
    container should be released.
    """

    prefilled: "tuple[GenRequest, ...]" = ()
    finished: "tuple[GenRequest, ...]" = ()
    next_duration: "float | None" = None
    next_kind: str = ""


@dataclass
class ContinuousSession:
    """Iteration-level batching state for one container.

    Drive it by calling :meth:`step` at each iteration boundary with the
    shared FIFO wait queue; the caller schedules the next boundary
    ``next_duration`` seconds later. The session plans one iteration at a
    time and applies its effects at the *next* boundary, so state never
    runs ahead of simulated time (checkpoints taken between events see a
    consistent picture). Iteration durations go through ``durations``:
    the serving engine passes one memo per run and memory size, shared
    by all its sessions; a session built without one keeps its own.
    """

    profile: TokenServiceProfile
    memory_mb: float
    batch_size: int
    max_batch_tokens: "int | None" = None

    #: Running requests and their remaining decode steps.
    running: "list[list]" = field(default_factory=list)
    #: Reserved admission budget (sum of running footprints).
    tokens: int = 0
    #: The iteration currently executing, applied at the next boundary.
    pending_kind: str = ""
    pending_admits: "tuple[GenRequest, ...]" = ()
    #: Session totals for the log's batch row.
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

    def can_accept(self, request: GenRequest) -> bool:
        """Whether ``request`` would fit if it joined at the next boundary."""
        if len(self.running) + len(self.pending_admits) >= self.batch_size:
            return False
        if self.max_batch_tokens is None:
            return True
        return self.tokens + request.footprint <= self.max_batch_tokens

    def step(self, queue: "deque[GenRequest]") -> StepResult:
        """Close the current iteration, admit from ``queue``, plan the next.

        Returns the boundary's effects; the caller records TTFT/latency
        against the boundary time and schedules the next boundary.
        """
        prefilled: "list[GenRequest]" = []
        finished: "list[GenRequest]" = []

        # 1. Apply the iteration that just ended.
        if self.pending_kind == "prefill":
            for req in self.pending_admits:
                prefilled.append(req)
                remaining = req.output_tokens - 1
                if remaining == 0:
                    finished.append(req)
                    self.tokens -= req.footprint
                    self.n_served += 1
                else:
                    self.running.append([req, remaining])
        elif self.pending_kind == "decode":
            still: "list[list]" = []
            for slot in self.running:
                slot[1] -= 1
                if slot[1] == 0:
                    finished.append(slot[0])
                    self.tokens -= slot[0].footprint
                    self.n_served += 1
                else:
                    still.append(slot)
            self.running = still
        self.pending_kind = ""
        self.pending_admits = ()

        # 2. Admit waiting requests (FIFO, capacity- and budget-gated).
        admits: "list[GenRequest]" = []
        while queue:
            head = queue[0]
            if len(self.running) + len(admits) >= self.batch_size:
                break
            if (
                self.max_batch_tokens is not None
                and self.tokens + head.footprint > self.max_batch_tokens
                and (self.running or admits)
            ):
                # The budget only blocks *joining* a non-empty batch; a
                # request bigger than the whole budget still runs alone,
                # so nothing starves behind an unreachable admission gate.
                break
            admits.append(queue.popleft())
            self.tokens += head.footprint

        # 3. Plan the next iteration: prefill preempts decode (new
        #    admissions must produce their first token before rejoining
        #    the decode cadence), decode runs the whole batch one step.
        if admits:
            self.pending_kind = "prefill"
            self.pending_admits = tuple(admits)
            self.n_prefills += 1
            # Prefill keys are negative, decode keys positive (n >= 1).
            key = -len(admits)
            duration = self.durations.get(key)
            if duration is None:
                duration = float(self.profile.ttft(self.memory_mb, -key))
                self.durations[key] = duration
        elif self.running:
            self.pending_kind = "decode"
            self.n_decodes += 1
            key = len(self.running)
            duration = self.durations.get(key)
            if duration is None:
                duration = float(self.profile.tpot(self.memory_mb, key))
                self.durations[key] = duration
        else:
            return StepResult(tuple(prefilled), tuple(finished))
        return StepResult(tuple(prefilled), tuple(finished), duration,
                          self.pending_kind)
