"""Fault models, golden traces, differential injection and campaigns."""

from .batch import BatchInjectionEngine
from .campaign import (
    CampaignConfig,
    CampaignResult,
    cached_campaign,
    records_digest,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from .golden import CAMPAIGN_MEM_WORDS, GoldenTrace, LoggingMemory
from .injector import InjectionEngine, PruneStats
from .kernels import cext_available, cext_build_error, resolve_kernel
from .parallel import (
    DEFAULT_BATCH,
    ExecPlan,
    Shard,
    plan_shards,
    resolve_chunk,
    sampling_rng,
    schedule_rng,
)
from .models import ErrorRecord, ErrorType, Fault, FaultKind, error_type_of
from .stats import (
    Spread,
    diverged_set_size_ratio,
    manifestation_rates,
    mean_detection_time,
    rate_spread,
    table1,
    time_spread,
)

__all__ = [
    "BatchInjectionEngine",
    "CampaignConfig", "CampaignResult", "cached_campaign", "records_digest",
    "run_campaign", "sample_flops", "schedule_faults",
    "CAMPAIGN_MEM_WORDS", "GoldenTrace", "LoggingMemory",
    "InjectionEngine", "PruneStats",
    "cext_available", "cext_build_error", "resolve_kernel",
    "DEFAULT_BATCH", "ExecPlan", "Shard", "plan_shards", "resolve_chunk",
    "sampling_rng", "schedule_rng",
    "ErrorRecord", "ErrorType", "Fault", "FaultKind", "error_type_of",
    "Spread", "diverged_set_size_ratio", "manifestation_rates",
    "mean_detection_time", "rate_spread", "table1", "time_spread",
]
