"""Result caching for the serving layer.

Two cooperating modules over the :class:`~repro.serve.server.PreferenceServer`
commit feed (see ``docs/PERFORMANCE.md`` §result caching):

* :mod:`repro.cache.result_cache` — a digest-keyed, bounded-LRU,
  single-flight cache of fully rendered query replies.
* :mod:`repro.cache.service` — the cache-aware query path
  :class:`~repro.serve.net.server.NetServer` delegates to (and the
  conformance tests drive directly).
"""

from .result_cache import ResultCache
from .service import DEFAULT_SQL, CachedQueryService

__all__ = [
    "ResultCache",
    "CachedQueryService",
    "DEFAULT_SQL",
]
