"""Durable batch-optimization service over the reproduction flow.

The paper's DistOpt is "distributable" by construction (§5);
:mod:`repro.runtime` parallelizes one run, and this package turns runs
into *jobs*: queued, journaled on disk, executed under a concurrency
cap, checkpointed every DistOpt pass, and resumable after a crash with
a byte-identical final placement.

* :mod:`repro.service.jobstore` — atomic on-disk job journal
  (queued/running/cancelled/failed/done) with crash-safe recovery.
* :mod:`repro.service.manager` — worker threads that claim jobs and
  drive :func:`repro.flow.run_flow` with checkpoint sinks, progress
  events lifted from ``repro.runtime.telemetry/v5``, cooperative
  cancellation, and graceful drain on shutdown.
* :mod:`repro.service.http` — stdlib ``http.server`` JSON API
  (submit / status / NDJSON progress stream / result / telemetry /
  ``/healthz`` / ``/metrics``).
* :mod:`repro.service.client` — thin ``urllib`` client.

CLI: ``repro serve`` / ``repro submit`` / ``repro jobs``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import (
    ServiceServer,
    build_server,
    render_metrics,
    serve,
)
from repro.service.jobstore import (
    JOB_SCHEMA,
    JobRecord,
    JobState,
    JobStore,
    atomic_write_text,
)
from repro.service.manager import (
    RESULT_SCHEMA,
    JobCancelled,
    JobManager,
    ServiceShutdown,
    flow_config_from_spec,
)

__all__ = [
    "JOB_SCHEMA",
    "RESULT_SCHEMA",
    "JobCancelled",
    "JobManager",
    "JobRecord",
    "JobState",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceShutdown",
    "atomic_write_text",
    "build_server",
    "flow_config_from_spec",
    "render_metrics",
    "serve",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.service")
