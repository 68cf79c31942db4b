"""Grouped configuration for the serving engines (the PR 6 API redesign).

:class:`~repro.serving.engine.ServingEngine` grew one keyword argument per
feature across PRs 4–5 — nine of them belonged to just two concerns, drift
detection and prediction-drift monitoring. This module groups them into
cohesive, validated config dataclasses shared by both the single-endpoint
engine and the fleet (:mod:`repro.serving.fleet`):

* :class:`DriftConfig` — the workload-drift trigger: which fitted detector
  to consult, how often, the cooldown between triggers, and the optional
  delayed retrain;
* :class:`PredictionDriftConfig` — the §III-D prediction-error trigger:
  the training-time baseline error, the tolerance multiplier, and the
  minimum observation count;
* :class:`PrewarmConfig` — predictive warm-pool prewarming: which rate
  forecaster drives it, how often the policy ticks, how far ahead it
  looks, and the headroom / retire knobs (see
  :mod:`repro.serving.prewarm`);
* :class:`GenerationConfig` — the token-streaming workload: the
  prefill/decode timing profile, the seeded output-length model, which
  dispatcher forms batches (the size/timeout buffer or the
  continuous-batching sessions of :mod:`repro.batching.continuous`),
  and the TTFT/TPOT SLOs that define goodput (see
  :mod:`repro.serving.generation`).

They sit alongside the pre-existing groups
:class:`~repro.serving.pool.WarmPoolConfig` and
:class:`~repro.serving.guardrail.GuardrailConfig`, completing the
config-driven engine API. Validation lives in ``__post_init__`` (the
scattered ``if ... raise ValueError`` checks moved out of
``ServingEngine.__init__``), so a malformed group fails at construction —
before any engine exists. The grouped configs are the only spelling the
engine accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.serverless.generation import TokenLengthModel, TokenServiceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import numpy as np

    from repro.core.drift import WorkloadDriftDetector
    from repro.serving.prewarm import RateForecaster


@dataclass(frozen=True)
class DriftConfig:
    """The workload-drift trigger's policy knobs.

    * ``detector`` — fitted :class:`WorkloadDriftDetector`; ``None`` keeps
      the cadence parameters (which also pace the prediction-drift check)
      but never fires a workload trigger;
    * ``window`` — live interarrivals scored per check;
    * ``check_every`` — arrivals between checks;
    * ``cooldown_s`` — minimum simulated time between triggers;
    * ``retrain_delay_s`` — with a value set, each trigger also schedules a
      ``RetrainComplete`` (envelope refit on recent traffic) after this
      long; ``None`` disables retraining;
    * ``on_retrain`` — optional hook called with the recent interarrivals
      when a retrain completes.
    """

    detector: "WorkloadDriftDetector | None" = None
    window: int = 64
    check_every: int = 32
    cooldown_s: float = 30.0
    retrain_delay_s: float | None = None
    on_retrain: "Callable[[np.ndarray], None] | None" = None

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.retrain_delay_s is not None and self.retrain_delay_s < 0:
            raise ValueError(
                f"retrain_delay_s must be >= 0 or None, got {self.retrain_delay_s}"
            )


@dataclass(frozen=True)
class PredictionDriftConfig:
    """The prediction-error trigger's policy knobs (§III-D, second trigger).

    * ``baseline_error`` — the surrogate's training-time relative p95
      error; the trigger fires when the live error exceeds
      ``tolerance × baseline_error``;
    * ``tolerance`` — the multiplier on the baseline;
    * ``min_samples`` — completed requests required under the active
      decision before the observed p95 is trusted.
    """

    baseline_error: float
    tolerance: float = 2.0
    min_samples: int = 64

    def __post_init__(self) -> None:
        if self.baseline_error <= 0:
            raise ValueError(
                f"baseline_error must be > 0, got {self.baseline_error}"
            )
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class PrewarmConfig:
    """Predictive warm-pool prewarming policy knobs.

    * ``forecaster`` — a :class:`~repro.serving.prewarm.RateForecaster`
      supplying the near-future arrival-rate estimate (empirical window,
      NHPP profile, MAP local rate, or the oracle upper bound);
    * ``interval_s`` — simulated time between prewarm ticks;
    * ``horizon_s`` — how far ahead the forecast looks; ``None`` defaults
      to ``interval_s`` plus the active tier's cold-start delay (provision
      lead time covers the next tick and the spin-up it replaces);
    * ``headroom`` — multiplier on the forecast target (1.0 = size exactly
      to the expected load; >1 buys burst insurance at provisioning cost);
    * ``max_per_tick`` — cap on containers provisioned per tick (rate
      limiter against a forecast spike); ``None`` = uncapped;
    * ``retire`` — also retire idle containers above the target, ahead of
      their keep-alive expiry;
    * ``window`` — recent inter-arrivals handed to the forecaster.
    """

    forecaster: "RateForecaster"
    interval_s: float = 1.0
    horizon_s: float | None = None
    headroom: float = 1.0
    max_per_tick: int | None = None
    retire: bool = False
    window: int = 256

    def __post_init__(self) -> None:
        if self.forecaster is None:
            raise ValueError("forecaster must be set")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be > 0 or None, got {self.horizon_s}"
            )
        if self.headroom <= 0:
            raise ValueError(f"headroom must be > 0, got {self.headroom}")
        if self.max_per_tick is not None and self.max_per_tick < 1:
            raise ValueError("max_per_tick must be >= 1 or None")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def fingerprint(self) -> tuple:
        """Scalar identity for checkpoint compatibility checks.

        Deliberately excludes the forecaster object (object identity would
        never match across processes — the detector is likewise left out of
        the drift fingerprint) in favour of its class name.
        """
        return (
            type(self.forecaster).__name__,
            self.interval_s,
            self.horizon_s,
            self.headroom,
            self.max_per_tick,
            self.retire,
            self.window,
        )


#: Dispatcher strategies a :class:`GenerationConfig` may select.
GENERATION_DISPATCHERS = ("buffer", "continuous")


@dataclass(frozen=True)
class GenerationConfig:
    """Token-streaming generation workload knobs.

    * ``token_profile`` — the prefill/decode timing model
      (:class:`~repro.serverless.generation.TokenServiceProfile`); its
      ``ttft(M, B)`` is the request-level ``s(M, B)``, so the old engine
      is the ``output_tokens == 1`` special case;
    * ``length_model`` — seeded per-request ``(prompt, output)`` token
      sampler (:class:`~repro.serverless.generation.TokenLengthModel`);
    * ``dispatcher`` — ``"buffer"`` runs the existing size/timeout
      :class:`~repro.batching.buffer.BatchingBuffer` with generation
      timing (each batch holds its container for the *longest* decode);
      ``"continuous"`` runs iteration-level sessions
      (:class:`~repro.batching.continuous.ContinuousSession`) where
      requests join and leave a running batch at token boundaries;
    * ``max_batch_tokens`` — continuous-mode admission budget: a request
      joins only while the running KV footprint (``prompt + output``
      tokens per member) stays within it; ``None`` = size cap only;
    * ``max_waiting`` — continuous-mode admission control: with the pool
      exhausted, an arrival that would leave more than this many requests
      waiting is shed; ``None`` = never shed;
    * ``ttft_slo`` — the time-to-first-token objective that defines
      goodput; ``None`` falls back to the engine's latency SLO;
    * ``tpot_slo`` — optional per-output-token objective; a served
      request counts toward goodput only if it meets both;
    * ``seed`` — entropy for the per-request length sampling.
    """

    token_profile: TokenServiceProfile = field(
        default_factory=TokenServiceProfile
    )
    length_model: TokenLengthModel = field(default_factory=TokenLengthModel)
    dispatcher: str = "continuous"
    max_batch_tokens: int | None = None
    max_waiting: int | None = None
    ttft_slo: float | None = None
    tpot_slo: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dispatcher not in GENERATION_DISPATCHERS:
            raise ValueError(
                f"dispatcher must be one of {GENERATION_DISPATCHERS}, "
                f"got {self.dispatcher!r}"
            )
        if self.max_batch_tokens is not None and self.max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1 or None")
        if self.max_waiting is not None and self.max_waiting < 0:
            raise ValueError("max_waiting must be >= 0 or None")
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ValueError(f"ttft_slo must be > 0 or None, got {self.ttft_slo}")
        if self.tpot_slo is not None and self.tpot_slo <= 0:
            raise ValueError(f"tpot_slo must be > 0 or None, got {self.tpot_slo}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
