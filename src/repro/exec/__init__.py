"""Execution substrate: parallel point executor + compilation cache.

``repro.exec`` is the layer between the campaign generators and the
timing models.  It contributes nothing to the *modeled* numbers — every
figure is byte-identical with or without it — but decides how fast the
host machine produces them:

* :mod:`repro.exec.pool` fans independent simulation points out across
  worker processes with deterministic result ordering;
* :mod:`repro.exec.cache` memoizes compiled artifacts (fat binaries,
  JIT-lowered regions) by content fingerprint in an in-memory LRU.
"""

from repro.exec.cache import (
    CacheStats,
    CompilationCache,
    active_cache,
    configure_cache,
    result_digest,
    stable_digest,
)
from repro.exec.pool import PointExecutor, SectionTiming, run_points

__all__ = [
    "CacheStats",
    "CompilationCache",
    "PointExecutor",
    "SectionTiming",
    "active_cache",
    "configure_cache",
    "result_digest",
    "run_points",
    "stable_digest",
]
