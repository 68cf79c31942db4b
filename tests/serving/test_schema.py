"""Every config dataclass a JSON document can reach, swept through its loader.

The documents are built by :func:`repro.serving.schema.build`, which takes
the keys, types and defaults from the dataclass and leaves every range rule
to its ``__post_init__``. For each dataclass this suite checks that an
object holding only the required fields builds the constructor's defaults,
that each numeric field just outside its range is refused with a message
starting ``<path>.<field>:``, and that a bool for an int and a NaN for a
float are refused.
"""

import dataclasses
import importlib
import json
import math
import re
import textwrap

import pytest

from repro.batching.config import BatchConfig
from repro.serverless.faults import RetryPolicy
from repro.serverless.generation import TokenLengthModel, TokenServiceProfile
from repro.serverless.outages import (
    CrashHazard,
    OutageModel,
    OutageWindow,
    StragglerModel,
)
from repro.serving import (
    BrownoutConfig,
    ConfigError,
    DegradeConfig,
    EmpiricalRateForecaster,
    EndpointSpec,
    FailoverConfig,
    GenerationConfig,
    HedgeConfig,
    PrewarmConfig,
    WarmPoolConfig,
    validate_fleet_degrade,
    validate_generation_config,
    validate_outage_config,
)
from repro.serving.fleet_config import validate_fleet_config
from repro.serving.schema import build

pytestmark = [pytest.mark.serving]

BATCH = {"memory_mb": 1024, "batch_size": 4, "timeout": 0.0}


def endpoint(obj):
    return validate_fleet_config({"endpoints": [obj]}).endpoints[0]


# (cls, path, load(obj) -> instance, required fields, expected instance,
#  {field: values just outside its range}, numeric fields with no range or
#  that no document can set)
CASES = [
    (BatchConfig, "endpoints[0]",
     lambda obj: endpoint({"name": "a", **obj}).config,
     BATCH, BatchConfig(1024.0, 4, 0.0),
     {"memory_mb": [127.99, 10240.01], "batch_size": [0],
      "timeout": [-1e-9]}, ()),
    (WarmPoolConfig, "endpoints[0]",
     lambda obj: endpoint({"name": "a", **BATCH, **obj}).pool,
     {}, WarmPoolConfig(),
     {"keep_alive_s": [-1e-9], "max_containers": [0],
      "max_queued_batches": [-1]}, ()),
    (EndpointSpec, "endpoints[0]",
     lambda obj: endpoint({**BATCH, **obj}),
     {"name": "a"},
     EndpointSpec(name="a", config=BatchConfig(1024.0, 4, 0.0),
                  pool=WarmPoolConfig()),
     {"slo": [0.0], "percentile": [0.0, 100.01], "share": [0.0, 1.01],
      "decision_interval_s": [0.0]}, ("priority", "min_history")),
    (PrewarmConfig, "endpoints[0].prewarm",
     lambda obj: endpoint({"name": "a", **BATCH, "prewarm": obj}).prewarm,
     {}, PrewarmConfig(forecaster=EmpiricalRateForecaster()),
     {"interval_s": [0.0], "horizon_s": [0.0], "headroom": [0.0],
      "max_per_tick": [0], "window": [0]}, ()),
    (GenerationConfig, "generation", validate_generation_config,
     {}, GenerationConfig(),
     {"max_batch_tokens": [0], "max_waiting": [-1], "ttft_slo": [0.0],
      "tpot_slo": [0.0], "seed": [-1]}, ()),
    (TokenLengthModel, "generation.length_model",
     lambda obj: validate_generation_config({"length_model": obj})
     .length_model,
     {}, TokenLengthModel(),
     {"prompt_mean": [0.99, 4096.01], "prompt_max": [0],
      "output_mean": [0.99, 1024.01], "output_max": [0]}, ()),
    (TokenServiceProfile, "generation.profile",
     lambda obj: validate_generation_config({"profile": obj}).token_profile,
     {}, TokenServiceProfile(),
     {"decode_time": [-1e-9], "decode_exponent": [0.0, 1.01],
      "decode_memory_dampening": [-1e-9, 1.01]}, ()),
    (OutageModel, "outages",
     lambda obj: validate_outage_config(obj)[0],
     {}, OutageModel(), {"seed": [-1]}, ()),
    (OutageWindow, "outages.windows[0]",
     lambda obj: validate_outage_config({"windows": [obj]})[0].windows[0],
     {"start": 1.0, "end": 2.0}, OutageWindow(1.0, 2.0),
     {"start": [-1e-9], "end": [1.0]}, ()),
    (CrashHazard, "outages.crash",
     lambda obj: validate_outage_config({"crash": obj})[0].crash,
     {}, CrashHazard(),
     {"rate": [-1e-9, 1.0], "outage_rate": [-1e-9, 1.0]}, ()),
    (StragglerModel, "outages.straggler",
     lambda obj: validate_outage_config({"straggler": obj})[0].straggler,
     {}, StragglerModel(),
     {"rate": [-1e-9, 1.01], "slowdown": [0.99]}, ()),
    (RetryPolicy, "outages.degrade.backoff",
     lambda obj: validate_outage_config(
         {"degrade": {"backoff": obj}})[1].backoff,
     {}, RetryPolicy(),
     {"max_attempts": [0], "base_backoff_s": [-1e-9], "multiplier": [0.99],
      "jitter": [-1e-9], "max_total_delay_s": [0.0]}, ()),
    (HedgeConfig, "outages.degrade.hedge",
     lambda obj: validate_outage_config(
         {"degrade": {"hedge": obj}})[1].hedge,
     {}, HedgeConfig(),
     {"percentile": [0.0, 100.01], "multiplier": [0.0],
      "min_observations": [0], "window": [15]}, ()),
    # The loader drops a disabled stack; build it as the loader does.
    (DegradeConfig, "outages.degrade",
     lambda obj: build(DegradeConfig, obj, "outages.degrade"),
     {}, DegradeConfig(), {}, ()),
    (BrownoutConfig, "degrade.brownout",
     lambda obj: validate_fleet_degrade({"brownout": obj})[0],
     {"max_total_queued": 0}, BrownoutConfig(max_total_queued=0),
     {"max_total_queued": [-1]}, ()),
    (FailoverConfig, "degrade.failover",
     lambda obj: validate_fleet_degrade({"failover": obj})[1],
     {}, FailoverConfig(), {"min_queue": [0]}, ()),
]
IDS = [case[0].__name__ for case in CASES]


def numeric_fields(cls, kind):
    """Field names annotated ``kind`` or ``kind | None``."""
    return {f.name for f in dataclasses.fields(cls)
            if str(f.type).removesuffix(" | None") == kind}


@pytest.mark.parametrize("cls, path, load, required, expected, bad, free",
                         CASES, ids=IDS)
class TestSchemaSweep:
    def test_required_fields_build_the_defaults(self, cls, path, load,
                                                required, expected, bad,
                                                free):
        assert load(dict(required)) == expected

    def test_every_numeric_field_is_swept(self, cls, path, load, required,
                                          expected, bad, free):
        numeric = numeric_fields(cls, "int") | numeric_fields(cls, "float")
        assert set(bad) | set(free) == numeric

    def test_values_just_outside_the_range(self, cls, path, load, required,
                                           expected, bad, free):
        for field, values in bad.items():
            for value in values:
                with pytest.raises(ConfigError) as err:
                    load({**required, field: value})
                assert str(err.value).startswith(f"{path}.{field}: "), (
                    field, value, str(err.value))

    def test_bool_for_int_and_nan_refused(self, cls, path, load, required,
                                          expected, bad, free):
        refusals = [(field, True, "must be an integer")
                    for field in numeric_fields(cls, "int") & set(bad)]
        refusals += [(field, math.nan, "must be finite")
                     for field in numeric_fields(cls, "float") & set(bad)]
        for field, value, message in refusals:
            with pytest.raises(ConfigError) as err:
                load({**required, field: value})
            assert str(err.value).startswith(f"{path}.{field}: {message}")


def test_crash_rate_one_is_labelled_at_the_rate():
    """``CrashHazard`` refuses rate 1.0; the error used to be labelled
    ``outages.windows``."""
    with pytest.raises(ConfigError) as err:
        validate_outage_config({"crash": {"rate": 1.0}})
    assert str(err.value).startswith("outages.crash.rate: ")


@pytest.mark.parametrize("load, key", [
    (lambda obj: endpoint({"name": "a", **BATCH, **obj}), "min_history"),
    (lambda obj: endpoint({"name": "a", **BATCH, **obj}), "platform"),
    (lambda obj: endpoint({"name": "a", **BATCH, "prewarm": obj}),
     "forecaster"),
    (lambda obj: validate_generation_config({"profile": obj}), "profile"),
    (lambda obj: validate_generation_config(obj), "token_profile"),
])
def test_fields_a_document_cannot_set_are_unknown_keys(load, key):
    with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
        load({key: 1})


@pytest.mark.parametrize("module, load", [
    ("fleet_config", validate_fleet_config),
    ("degrade", validate_outage_config),
    ("generation", validate_generation_config),
])
def test_docstring_examples_load(module, load):
    """Every ``::`` block of the module docstring is a JSON document its
    loader accepts, so the documented examples cannot drift."""
    doc = importlib.import_module(f"repro.serving.{module}").__doc__
    blocks = re.findall(r"::\n\n((?:[ ]{4}.*\n|\n)+)", doc)
    assert blocks
    for block in blocks:
        load(json.loads(textwrap.dedent(block)))
