"""The continuous-batching session against a per-slot reference.

:class:`ContinuousSession` files running requests under the decode count
at which they finish and touches only those at a boundary.
:class:`SlotWalkSession` is the reference it must equal: every boundary
walks every running slot and decrements its remaining decode steps.
"""

from collections import deque
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batching.continuous import ContinuousSession, GenRequest
from repro.serverless.generation import DEFAULT_TOKEN_PROFILE, TokenServiceProfile


@dataclass
class SlotWalkSession:
    """The reference session: one ``[request, remaining]`` slot per running
    request, each decremented at every decode boundary."""

    profile: TokenServiceProfile
    memory_mb: float
    batch_size: int
    max_batch_tokens: "int | None" = None
    running: list = field(default_factory=list)
    tokens: int = 0
    pending_kind: str = ""
    pending_admits: tuple = ()
    n_served: int = 0
    n_prefills: int = 0
    n_decodes: int = 0

    def step(self, queue):
        """Returns ``(prefilled, finished, next_duration, next_kind)``."""
        prefilled, finished = [], []
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
            still = []
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

        admits = []
        while queue:
            head = queue[0]
            if len(self.running) + len(admits) >= self.batch_size:
                break
            if (
                self.max_batch_tokens is not None
                and self.tokens + head.footprint > self.max_batch_tokens
                and (self.running or admits)
            ):
                break
            admits.append(queue.popleft())
            self.tokens += head.footprint

        if admits:
            self.pending_kind = "prefill"
            self.pending_admits = tuple(admits)
            self.n_prefills += 1
            duration = float(self.profile.ttft(self.memory_mb, len(admits)))
        elif self.running:
            self.pending_kind = "decode"
            self.n_decodes += 1
            duration = float(self.profile.tpot(self.memory_mb,
                                               len(self.running)))
        else:
            return prefilled, finished, None, ""
        return prefilled, finished, duration, self.pending_kind


def _requests(draw, first_index, n):
    return [
        GenRequest(first_index + k, float(first_index + k),
                   draw(st.integers(1, 40)),
                   draw(st.sampled_from((1, 1, 2, 3, 5, 9))))
        for k in range(n)
    ]


@st.composite
def scenarios(draw):
    """A session shape and the arrivals that join before each boundary;
    the first boundary opens the session on a non-empty queue."""
    batch_size = draw(st.integers(1, 16))
    budget = draw(st.one_of(st.none(), st.integers(1, 60)))
    rounds, index = [], 0
    for r in range(draw(st.integers(1, 40))):
        n = draw(st.integers(1 if r == 0 else 0, 4))
        rounds.append(_requests(draw, index, n))
        index += n
    return batch_size, budget, rounds


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_session_matches_the_slot_walk(scenario):
    batch_size, budget, rounds = scenario
    kwargs = dict(profile=DEFAULT_TOKEN_PROFILE, memory_mb=2048.0,
                  batch_size=batch_size, max_batch_tokens=budget)
    sess, ref = ContinuousSession(**kwargs), SlotWalkSession(**kwargs)
    queue, ref_queue = deque(), deque()
    delivered = 0
    for boundary in range(len(rounds) * 64):
        if boundary < len(rounds):
            queue.extend(rounds[boundary])
            ref_queue.extend(rounds[boundary])
            delivered += len(rounds[boundary])
        duration = sess.step(queue)
        prefilled, finished, ref_duration, kind = ref.step(ref_queue)
        assert list(sess.prefilled) == prefilled
        assert sorted(sess.finished) == sorted(finished)
        assert duration == ref_duration
        assert sess.pending_kind == kind
        assert (sess.n_served, sess.n_prefills, sess.n_decodes) == (
            ref.n_served, ref.n_prefills, ref.n_decodes)
        assert sess.tokens == ref.tokens
        assert queue == ref_queue
        if duration is None:
            break
    # The session drained, having served every request it was given.
    assert duration is None
    assert sess.n_served == delivered and not queue
    assert not sess.running and sess.slots == 0
