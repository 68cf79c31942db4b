"""Validated JSON generation configuration (``repro serve --generation``).

One JSON object declares the token-streaming workload: the dispatcher
(size/timeout buffer or continuous batching), the admission knobs, the
TTFT/TPOT SLOs, the seeded length model, and the decode-side timing
coefficients. The same object appears in two places:

* ``repro serve --generation gen.json`` — the whole file is the object;
* a fleet document's per-endpoint ``"generation": {...}`` entry
  (:mod:`repro.serving.fleet_config` delegates here; every serving config
  error is one :class:`~repro.serving.schema.ConfigError`).

The object's keys are the fields of :class:`~repro.serving.config
.GenerationConfig` and its nested :class:`~repro.serverless.generation
.TokenLengthModel`, built by :func:`~repro.serving.schema.build` and
validated by their own ``__post_init__``: every violation raises
:class:`~repro.serving.schema.ConfigError` naming the *path* of the
offending field (``generation.length_model.output_mean: must be >= 1,
got 0.0``), unknown keys are rejected, and the CLI converts the error into
``exit 2``.

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
from repro.serving.config import GenerationConfig
from repro.serving.schema import DEFAULT, as_object, build, load_json

__all__ = [
    "load_generation_config",
    "validate_generation_config",
]


def validate_generation_config(doc, path: str = "generation") -> GenerationConfig:
    """Build a parsed generation object into a :class:`GenerationConfig`.

    The object's keys are :class:`GenerationConfig`'s fields, except that
    ``profile`` holds the decode coefficients of its ``token_profile``
    (a :class:`TokenServiceProfile` on the default prefill profile); a
    null ``profile`` or ``length_model`` takes the default. Raises
    :class:`~repro.serving.schema.ConfigError` with a path-qualified
    message on any violation; ``path`` prefixes the reported locations
    (the fleet passes ``endpoints[i].generation``).
    """
    doc = as_object(doc, path)
    profile, lengths = doc.get("profile"), doc.get("length_model")
    return build(
        GenerationConfig, doc, path, handled=("profile", "length_model"),
        token_profile=(
            DEFAULT if profile is None else
            build(TokenServiceProfile, profile, f"{path}.profile",
                  profile=DEFAULT)
        ),
        length_model=(
            DEFAULT if lengths is None else
            build(TokenLengthModel, lengths, f"{path}.length_model")
        ),
    )


def load_generation_config(path: str | os.PathLike) -> GenerationConfig:
    """Read and build a generation JSON file.

    Raises :class:`~repro.serving.schema.ConfigError` with an actionable,
    path-qualified message on any problem — unreadable file, invalid
    JSON, or a schema violation.
    """
    return validate_generation_config(load_json(path))
