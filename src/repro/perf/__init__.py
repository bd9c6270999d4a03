"""Performance subsystem: array routing core + persistent artifact cache.

Two pieces back the production-scale goals:

* :mod:`repro.perf.routing` compiles a router-level graph once into
  int-indexed CSR arrays and answers every shortest-path query with
  scipy's C Dijkstra, batched across destinations (scipy is a hard
  dependency: there is no NetworkX fallback);
* :mod:`repro.perf.cache` memoizes expensive scenario stages on disk,
  keyed by seed, configuration, and a hash of the package's own source,
  so repeated experiment and benchmark runs skip the full rebuild.
"""

from repro.perf.cache import (
    ArtifactCache,
    CacheEntry,
    code_version,
    default_cache_root,
    resolve_cache,
)
from repro.perf.routing import RoutingCore

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "RoutingCore",
    "code_version",
    "default_cache_root",
    "resolve_cache",
]
