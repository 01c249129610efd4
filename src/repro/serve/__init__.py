"""Multi-tenant inference serving over the fleet (ROADMAP item 1).

The paper's deployment story ends with an AFI loaded on an F1 slot;
this package is the reason the AFI exists — serving traffic:

* :mod:`repro.serve.batcher` — :class:`DynamicBatcher`: coalesce
  single requests into bucket-sized batches, released as soon as a
  lane is free, so requests batch only while every lane is busy and
  steady-state serving runs a fixed ladder of batch sizes;
* :mod:`repro.serve.tenants` — token-bucket quotas and the admission
  controller that degrades to typed load shedding
  (:class:`~repro.errors.ShedError`) before queues grow unbounded;
* :mod:`repro.serve.server` — :class:`InferenceServer`: the request
  path from admission through the batcher onto
  :meth:`FleetManager.submit`, with latency/throughput/shedding
  published as ``condor_serve_*`` metrics, and the one serving event
  schedule (:meth:`InferenceServer.advance`);
* :mod:`repro.serve.loadgen` — the seeded synthetic load generator
  behind ``condor serve``, deterministic on the virtual clock.
"""

from repro.serve.batcher import (
    DEFAULT_BUCKETS,
    DynamicBatcher,
    Flush,
    ServeRequest,
)
from repro.serve.loadgen import (
    DEFAULT_TENANTS,
    LoadReport,
    LoadSpec,
    build_serving_fleet,
    run_load,
)
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.tenants import (
    AdmissionController,
    TenantSpec,
    TokenBucket,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_BUCKETS",
    "DEFAULT_TENANTS",
    "DynamicBatcher",
    "Flush",
    "InferenceServer",
    "LoadReport",
    "LoadSpec",
    "ServeConfig",
    "ServeRequest",
    "TenantSpec",
    "TokenBucket",
    "build_serving_fleet",
    "run_load",
]
