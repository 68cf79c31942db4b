"""Validated JSON generation configuration (``repro serve --generation``).

One JSON object declares the token-streaming workload: the dispatcher
(size/timeout buffer or continuous batching), the admission knobs, the
TTFT/TPOT SLOs, the seeded length model, and the decode-side timing
coefficients. The same object appears in two places:

* ``repro serve --generation gen.json`` — the whole file is the object;
* a fleet document's per-endpoint ``"generation": {...}`` entry
  (:mod:`repro.serving.fleet_config` delegates here; every serving config
  error is one :class:`~repro.serving.schema.ConfigError`).

Validation follows the fleet-config house style: every violation raises
:class:`~repro.serving.schema.ConfigError` naming the *path* of the
offending field (``generation.length_model.output_mean: must be >= 1``),
unknown keys are rejected, and the CLI converts the error into ``exit 2``.

The prefill side of the timing model is always the platform's calibrated
:class:`~repro.serverless.service_profile.ServiceProfile` — JSON cannot
name a fitted profile, the same reasoning that pins file-driven prewarming
to the empirical forecaster. The ``profile`` object only tunes the
decode-side coefficients.

Example::

    {
      "dispatcher": "continuous",
      "max_batch_tokens": 4096,
      "max_waiting": 64,
      "ttft_slo": 0.05,
      "tpot_slo": 0.01,
      "seed": 0,
      "length_model": {"prompt_mean": 128, "output_mean": 16},
      "profile": {"decode_time": 0.002, "decode_exponent": 0.5}
    }
"""

from __future__ import annotations

import os

from repro.serverless.generation import TokenLengthModel, TokenServiceProfile
from repro.serving.config import GENERATION_DISPATCHERS, GenerationConfig
from repro.serving.schema import (
    ConfigError,
    as_object,
    check_keys,
    fail,
    integer,
    load_json,
    number,
)

__all__ = [
    "load_generation_config",
    "validate_generation_config",
]


_GENERATION_KEYS = {
    "dispatcher", "max_batch_tokens", "max_waiting", "ttft_slo", "tpot_slo",
    "seed", "length_model", "profile",
}
_LENGTH_KEYS = {"prompt_mean", "prompt_max", "output_mean", "output_max"}
_PROFILE_KEYS = {"decode_time", "decode_exponent", "decode_memory_dampening"}


def _length_model(obj, path: str) -> TokenLengthModel:
    as_object(obj, path)
    check_keys(obj, _LENGTH_KEYS, path)
    prompt_mean = number(obj, "prompt_mean", path, default=128.0, minimum=1.0)
    prompt_max = integer(obj, "prompt_max", path, default=4096, minimum=1)
    output_mean = number(obj, "output_mean", path, default=16.0, minimum=1.0)
    output_max = integer(obj, "output_max", path, default=1024, minimum=1)
    # Cross-field checks before construction: the dataclass raises its own
    # (pathless) ValueError for these, which would skip the path label.
    if prompt_mean > prompt_max:
        fail(f"{path}.prompt_mean", f"must be <= prompt_max ({prompt_max})")
    if output_mean > output_max:
        fail(f"{path}.output_mean", f"must be <= output_max ({output_max})")
    return TokenLengthModel(
        prompt_mean=prompt_mean, prompt_max=prompt_max,
        output_mean=output_mean, output_max=output_max,
    )


def _profile(obj, path: str) -> TokenServiceProfile:
    as_object(obj, path)
    check_keys(obj, _PROFILE_KEYS, path)
    return TokenServiceProfile(
        decode_time=number(obj, "decode_time", path, default=0.002,
                           minimum=0.0),
        decode_exponent=number(obj, "decode_exponent", path, default=0.5,
                               minimum=0.0, maximum=1.0, strict=True),
        decode_memory_dampening=number(obj, "decode_memory_dampening", path,
                                       default=0.5, minimum=0.0, maximum=1.0),
    )


def validate_generation_config(doc, path: str = "generation") -> GenerationConfig:
    """Validate a parsed generation object into a :class:`GenerationConfig`.

    Raises :class:`ConfigError` with a path-qualified message on
    any violation; ``path`` prefixes the reported locations (the fleet
    passes ``endpoints[i].generation``).
    """
    if not isinstance(doc, dict):
        fail(path, f"must be a JSON object, got {type(doc).__name__}")
    check_keys(doc, _GENERATION_KEYS, path)
    dispatcher = doc.get("dispatcher", "continuous")
    if dispatcher not in GENERATION_DISPATCHERS:
        fail(f"{path}.dispatcher",
             f"must be one of {list(GENERATION_DISPATCHERS)}, "
             f"got {dispatcher!r}")
    length_model = (
        _length_model(doc["length_model"], f"{path}.length_model")
        if doc.get("length_model") is not None else TokenLengthModel()
    )
    profile = (
        _profile(doc["profile"], f"{path}.profile")
        if doc.get("profile") is not None else TokenServiceProfile()
    )
    return GenerationConfig(
        token_profile=profile,
        length_model=length_model,
        dispatcher=dispatcher,
        max_batch_tokens=integer(doc, "max_batch_tokens", path, minimum=1,
                                 nullable=True),
        max_waiting=integer(doc, "max_waiting", path, minimum=0,
                            nullable=True),
        ttft_slo=number(doc, "ttft_slo", path, minimum=0.0, strict=True,
                        nullable=True),
        tpot_slo=number(doc, "tpot_slo", path, minimum=0.0, strict=True,
                        nullable=True),
        seed=integer(doc, "seed", path, default=0, minimum=0),
    )


def load_generation_config(path: str | os.PathLike) -> GenerationConfig:
    """Read and validate a generation JSON file.

    Raises :class:`ConfigError` with an actionable,
    path-qualified message on any problem — unreadable file, invalid
    JSON, or a schema violation.
    """
    return validate_generation_config(load_json(path))
