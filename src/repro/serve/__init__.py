"""Sharded compile-and-simulate service with warm worker caches.

``repro serve`` exposes the whole toolkit — compile, static check,
simulate, figure sweeps, pipeline traces — as an HTTP/JSON job service
built entirely on the standard library:

* :mod:`repro.serve.app` — asyncio HTTP/1.1 front end with NDJSON
  progress streaming;
* :mod:`repro.serve.scheduler` — admission control (validation, rate
  limiting, cycle-budget caps), the artifact fast path, in-flight
  coalescing, and graceful drain; finished job artifacts go to a
  :class:`repro.store.Store` keyed by the experiment cache's config +
  code fingerprints;
* :mod:`repro.serve.workers` — the process pool, whose workers keep
  warm compiled-program caches between jobs and store their run records
  in the same store root as the artifacts;
* :mod:`repro.serve.wire` — payload validation and fingerprinting;
* :mod:`repro.serve.client` — the blocking client used by tests,
  ``benchmarks/bench_serve.py``, and ``repro fuzz --serve``.

See ``docs/SERVE.md`` for the protocol walk-through.
"""

from repro.serve.app import ServeApp, ServerHandle, serve, start_in_thread
from repro.serve.client import JobFailed, ServeClient, ServeError
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.scheduler import Job, RateLimited, Scheduler, ServerDraining
from repro.serve.wire import (
    JOB_KINDS,
    BadRequest,
    job_fingerprint,
    machine_from_payload,
    machine_to_payload,
    validate_payload,
)

__all__ = [
    "BadRequest",
    "JOB_KINDS",
    "Job",
    "JobFailed",
    "RateLimited",
    "RateLimiter",
    "Scheduler",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServerDraining",
    "ServerHandle",
    "TokenBucket",
    "job_fingerprint",
    "machine_from_payload",
    "machine_to_payload",
    "serve",
    "start_in_thread",
    "validate_payload",
]
