"""Delayed KV-cache inference engine for masked diffusion language models.

A desk-scale toy transformer plus a cache engine implementing delayed
key/value reuse for masked-denoising generation, with an always-recompute
baseline, exact compute counters, and representation-dynamics analysis.

The package republishes the public names of ``model_core``,
``cache_engine``, ``sampler`` and ``trace``: each module's ``__all__`` is
the one list of its names. ``analysis`` is exported as a module.
"""

from . import analysis, cache_engine, model_core, sampler, trace
from .model_core import *
from .cache_engine import *
from .sampler import *
from .trace import *

__version__ = "0.1.0"

__all__ = ["__version__", "analysis", *model_core.__all__,
           *cache_engine.__all__, *sampler.__all__, *trace.__all__]
