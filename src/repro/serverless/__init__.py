"""Serverless platform substrate: Lambda pricing, deterministic service
profiles, cold starts, and the invocation/billing model."""

from repro.serverless.faults import (
    DEFAULT_RETRY_POLICY,
    FaultModel,
    FaultOutcome,
    RetryPolicy,
    inject_faults,
    rejecting_starts,
)
from repro.serverless.generation import (
    DEFAULT_TOKEN_PROFILE,
    TokenLengthModel,
    TokenServiceProfile,
)
from repro.serverless.platform import (
    BatchExecution,
    ServerlessPlatform,
)
from repro.serverless.pricing import (
    DEFAULT_BILLING_GRANULARITY,
    DEFAULT_GB_SECOND_PRICE,
    DEFAULT_REQUEST_PRICE,
    LambdaPricing,
    cost_per_million,
)
from repro.serverless.service_profile import (
    DEFAULT_PROFILE,
    MAX_MEMORY_MB,
    MIN_MEMORY_MB,
    VCPU_KNEE_MB,
    ColdStartModel,
    ServiceProfile,
)

__all__ = [
    "DEFAULT_BILLING_GRANULARITY",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_GB_SECOND_PRICE",
    "DEFAULT_PROFILE",
    "DEFAULT_REQUEST_PRICE",
    "DEFAULT_TOKEN_PROFILE",
    "MAX_MEMORY_MB",
    "MIN_MEMORY_MB",
    "VCPU_KNEE_MB",
    "BatchExecution",
    "ColdStartModel",
    "FaultModel",
    "FaultOutcome",
    "LambdaPricing",
    "RetryPolicy",
    "ServerlessPlatform",
    "ServiceProfile",
    "TokenLengthModel",
    "TokenServiceProfile",
    "cost_per_million",
    "inject_faults",
    "rejecting_starts",
]
