"""Token-level service model for autoregressive (LLM) generation.

The paper's service model is one-request-one-response with a deterministic
``s(M, B)``. The workload that dominates serverless inference today is
autoregressive generation: a compute-bound *prefill* that produces the
first token (time-to-first-token, **TTFT**) followed by a bandwidth-bound
*decode* loop emitting one token per step (time-per-output-token,
**TPOT**), with variable output lengths per request.

:class:`TokenServiceProfile` extends the calibrated
:class:`~repro.serverless.service_profile.ServiceProfile` to that regime:

* ``ttft(M, B)`` **is** the old ``s(M, B)`` — prefill is the same
  compute-bound batch evaluation the paper profiled, so the request-level
  model is exactly the ``output_tokens == 1`` special case and every
  existing calibration carries over unchanged.
* ``tpot(M, B)`` models one decode step across a batch of ``B`` running
  requests. Decode is memory-bandwidth-bound, so it benefits *less* from
  extra memory/CPU than prefill (``decode_memory_dampening`` flattens the
  speedup curve) and batches more gracefully (``decode_exponent`` below
  the prefill ``batch_exponent``).

:class:`TokenLengthModel` samples per-request ``(prompt_tokens,
output_tokens)`` pairs with the same per-sample ``SeedSequence`` spawning
discipline as dataset labeling (:mod:`repro.core.dataset`): request ``i``
gets its own ``SeedSequence(entropy=seed, spawn_key=(i,))``, so the trace
is independent of sampling order and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serverless.service_profile import (
    DEFAULT_PROFILE,
    ServiceProfile,
)
from repro.utils.rng import spawned_pcg64_states

__all__ = [
    "TokenLengthModel",
    "TokenServiceProfile",
    "DEFAULT_TOKEN_PROFILE",
]


@dataclass(frozen=True)
class TokenServiceProfile:
    """Deterministic prefill/decode timing model for one deployed model.

    Parameters
    ----------
    profile:
        The request-level :class:`ServiceProfile` supplying the prefill
        calibration. ``ttft(M, B)`` delegates to its ``service_time``.
    decode_time:
        Per-decode-step coefficient (seconds) at the vCPU knee for a
        single-request batch.
    decode_exponent:
        Sublinearity of decode batch computation. Decode is dominated by
        weight streaming that is shared across the batch, so it batches
        better than prefill (default 0.5 < prefill's 0.7).
    decode_memory_dampening:
        Exponent applied to the prefill speedup curve for decode steps.
        1.0 = decode scales with memory exactly like prefill; 0.0 =
        decode is fully bandwidth-bound and memory buys nothing. The
        default 0.5 keeps decode partially memory-sensitive.
    """

    profile: ServiceProfile = field(default_factory=ServiceProfile)
    decode_time: float = 0.002
    decode_exponent: float = 0.5
    decode_memory_dampening: float = 0.5

    def __post_init__(self) -> None:
        if self.decode_time < 0:
            raise ValueError("decode_time must be non-negative")
        if not 0 < self.decode_exponent <= 1:
            raise ValueError("decode_exponent must be in (0, 1]")
        if not 0 <= self.decode_memory_dampening <= 1:
            raise ValueError("decode_memory_dampening must be in [0, 1]")

    def ttft(
        self, memory_mb: "float | np.ndarray", batch_size: "int | np.ndarray"
    ) -> "float | np.ndarray":
        """Prefill time for a batch of ``B`` prompts — identically the
        request-level ``s(M, B)``, so ``output_tokens == 1`` reproduces
        the old model bit-for-bit."""
        return self.profile.service_time(memory_mb, batch_size)

    def tpot(
        self, memory_mb: "float | np.ndarray", batch_size: "int | np.ndarray"
    ) -> "float | np.ndarray":
        """One decode step for ``B`` concurrently running requests."""
        b = np.asarray(batch_size)
        if np.any(b < 1):
            raise ValueError("batch_size must be >= 1")
        s = np.asarray(self.profile.speedup(memory_mb), dtype=float)
        t = (
            self.decode_time
            * b**self.decode_exponent
            / s**self.decode_memory_dampening
        )
        return float(t) if np.ndim(t) == 0 else t

    def generation_time(
        self,
        memory_mb: "float | np.ndarray",
        batch_size: "int | np.ndarray",
        output_tokens: "int | np.ndarray",
    ) -> "float | np.ndarray":
        """End-to-end service time: prefill plus ``output_tokens - 1``
        decode steps (the first token is produced by the prefill)."""
        out = np.asarray(output_tokens)
        if np.any(out < 1):
            raise ValueError("output_tokens must be >= 1")
        t = self.ttft(memory_mb, batch_size) + (out - 1) * self.tpot(
            memory_mb, batch_size
        )
        return float(t) if np.ndim(t) == 0 else t


@dataclass(frozen=True)
class TokenLengthModel:
    """Seeded per-request ``(prompt_tokens, output_tokens)`` sampler.

    Lengths are geometric (the standard heavy-ish-tailed fit for chat
    output lengths) with means ``prompt_mean`` / ``output_mean``, capped
    at ``prompt_max`` / ``output_max``. ``output_mean = 1.0`` degenerates
    to the request-level workload: every request emits exactly one token.

    Request ``i`` draws from ``SeedSequence(entropy=seed, spawn_key=(i,))``
    — the same discipline as parallel dataset labeling — so the sampled
    trace is a pure function of ``(seed, i)``, independent of iteration
    order and worker count. The children are not constructed one by one:
    :func:`~repro.utils.rng.spawned_pcg64_states` computes every request's
    PCG64 seeding in one vectorized pass, and the draws run on one reused
    generator. SeedSequence and PCG64 streams are frozen across numpy
    releases (NEP 19), so this is exactly numpy's own construction.
    """

    prompt_mean: float = 128.0
    prompt_max: int = 4096
    output_mean: float = 16.0
    output_max: int = 1024

    def __post_init__(self) -> None:
        for name in ("prompt_mean", "prompt_max", "output_mean", "output_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.prompt_mean > self.prompt_max:
            raise ValueError(
                f"prompt_mean must be <= prompt_max ({self.prompt_max})"
            )
        if self.output_mean > self.output_max:
            raise ValueError(
                f"output_mean must be <= output_max ({self.output_max})"
            )

    def sample_one(self, seed: int, index: int) -> "tuple[int, int]":
        """Lengths for request ``index`` — a pure function of (seed, index)."""
        prompts, outputs = self._draw(seed, (index,))
        return int(prompts[0]), int(outputs[0])

    def sample(self, n: int, seed: int) -> "tuple[np.ndarray, np.ndarray]":
        """Lengths for requests ``0..n-1`` as int64 arrays."""
        return self._draw(seed, np.arange(n))

    def _draw(self, seed: int, indices) -> "tuple[np.ndarray, np.ndarray]":
        # Constructing a SeedSequence and a PCG64 per request costs ~22 µs
        # each; the same states come out of one vectorized pass and are
        # set on a single reused generator.
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)
        p_prompt = 1.0 / self.prompt_mean
        p_output = 1.0 / self.output_mean
        prompts = np.empty(len(indices), dtype=np.int64)
        outputs = np.empty(len(indices), dtype=np.int64)
        for i, (state, inc) in enumerate(spawned_pcg64_states(seed, indices)):
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            prompts[i] = rng.geometric(p_prompt)
            outputs[i] = rng.geometric(p_output)
        np.minimum(prompts, self.prompt_max, out=prompts)
        np.minimum(outputs, self.output_max, out=outputs)
        return prompts, outputs


#: Token profile wrapping the TED-LIUM-like default calibration.
DEFAULT_TOKEN_PROFILE = TokenServiceProfile(profile=DEFAULT_PROFILE)
