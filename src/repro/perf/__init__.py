"""Performance subsystem: the compiled graph core + persistent artifact cache.

* :mod:`repro.perf.substrate` holds :class:`GraphView`, the package's
  one compiled graph (int-indexed edge arrays, batched scipy Dijkstra,
  predecessor walks), and the §5 conduit substrate built on it (scipy
  is a hard dependency: there is no NetworkX fallback);
* :mod:`repro.perf.routing` is :class:`RoutingCore`, a GraphView of a
  router-level or conduit graph plus a per-destination row cache, so
  each campaign destination costs one batched solve;
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
