"""Fault-tolerant fleet substrate over simulated F1 instances.

The paper's deployment story ends at "load the AFI on an FPGA slot";
a serving deployment starts there.  This package turns a set of
:class:`~repro.cloud.f1.F1Instance` objects into a health-managed
execution fleet:

* :mod:`repro.fleet.health` — per-slot health state
  (OK → SUSPECT → QUARANTINED) derived from the slot's circuit breaker;
* :mod:`repro.fleet.manager` — :class:`FleetManager`: watchdog
  deadlines on every kernel invocation (virtual clock, no wall-clock
  sleeps), periodic scrubbing against the reference engine's golden
  results and weight-buffer digests, automatic AFI re-load on recovery,
  and failover of in-flight work to healthy slots;
* :mod:`repro.fleet.drill` — the seeded survival drill behind
  ``condor fleet drill``: a model × fault-kind × recovery-action
  matrix over the device-level fault kinds, the repo's one
  fault-under-load harness;
* :mod:`repro.fleet.image` — the servable zoo models, each built into
  an AFI by the Condor flow.
"""

from repro.fleet.drill import DRILL_KINDS, RECOVERABLE_KINDS, run_drill
from repro.fleet.health import ManagedSlot, SlotState
from repro.fleet.image import SERVABLE_MODELS, servable_model
from repro.fleet.manager import FleetConfig, FleetManager, Submission

__all__ = [
    "DRILL_KINDS",
    "FleetConfig",
    "FleetManager",
    "ManagedSlot",
    "RECOVERABLE_KINDS",
    "SERVABLE_MODELS",
    "SlotState",
    "Submission",
    "run_drill",
    "servable_model",
]
