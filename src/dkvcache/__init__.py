"""Delayed KV-cache inference engine for masked diffusion language models.

A desk-scale toy transformer plus a cache engine implementing delayed
key/value reuse for masked-denoising generation, with an always-recompute
baseline, exact compute counters, and representation-dynamics analysis.
"""

from .model_core import (
    ConfigError,
    ForwardResult,
    KVSlab,
    ModelConfig,
    ModelWeights,
    attention,
    forward_full,
    forward_partial,
    init_weights,
    rope_rotate,
    rope_rows,
)
from .cache_engine import (
    CacheEngine,
    CacheVariant,
    ComputePlan,
    VariantKind,
    WindowCenter,
    greedy_window,
    scatter_outputs,
)
from .sampler import (
    GenerationError,
    GenerationState,
    NoiseSchedule,
    Remasking,
    SamplerConfig,
    alpha_bar,
    corrupt,
    decode_step,
    generate,
    predict_x0,
    select_to_unmask,
    tokens_per_step_schedule,
)
from .trace import RunReport, StepRecord, StepTrace
from . import analysis

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "analysis",
    "alpha_bar",
    "attention",
    "CacheEngine",
    "CacheVariant",
    "ComputePlan",
    "ConfigError",
    "corrupt",
    "decode_step",
    "forward_full",
    "forward_partial",
    "ForwardResult",
    "generate",
    "GenerationError",
    "GenerationState",
    "greedy_window",
    "init_weights",
    "KVSlab",
    "ModelConfig",
    "ModelWeights",
    "NoiseSchedule",
    "predict_x0",
    "Remasking",
    "rope_rotate",
    "rope_rows",
    "RunReport",
    "SamplerConfig",
    "scatter_outputs",
    "select_to_unmask",
    "StepRecord",
    "StepTrace",
    "tokens_per_step_schedule",
    "VariantKind",
    "WindowCenter",
]
