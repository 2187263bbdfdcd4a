"""Envelope-checking as a service: engine, verdict cache, daemon, client.

The query path is layered (see SERVICE.md):

* ``engine`` -- ``EnvelopeEngine.run_request(request) -> Verdict``, the
  one façade every entry point (CLI verbs, testgen harness, daemon)
  calls; ``run_batch`` answers many requests, its workers running the
  same single-request body on each cache miss;
* ``cache`` -- the persistent content-hash-keyed verdict store;
* ``daemon``/``client`` -- ``ppcmem2 serve`` and ``ppcmem2 client``,
  the HTTP service and its thin stdlib client;
* ``smoke`` -- the self-contained CI smoke (daemon up, batch twice,
  second run must be all cache hits with identical verdicts).
"""

from .cache import SCHEMA_VERSION, VerdictCache, cache_key
from .engine import (
    BatchResult,
    EngineRequest,
    EnvelopeEngine,
    Verdict,
)

__all__ = [
    "BatchResult",
    "EngineRequest",
    "EnvelopeEngine",
    "SCHEMA_VERSION",
    "Verdict",
    "VerdictCache",
    "cache_key",
]
