"""The injectable clock every resilience primitive runs on.

Retry backoff, circuit-breaker recovery windows and injected *slow*
faults all need a notion of elapsed time — but a reproduction that
``time.sleep``-s is both slow and nondeterministic (the ``wallclock-sleep``
lint rule bans it from ``src/repro`` outright).  Instead, everything takes
a :class:`VirtualClock`: ``sleep`` *advances* the clock and records the
interval, so a chaos run that "waits" through three exponential backoffs
finishes in microseconds of real time while the simulated timeline stays
exact and replayable.
"""

from __future__ import annotations

__all__ = ["VirtualClock", "DEFAULT_CLOCK"]


class VirtualClock:
    """Deterministic simulated time: ``sleep`` advances ``now``."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Every interval slept, in order (diagnostics / tests).
        self.sleeps: list[float] = []

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance simulated time (no real sleeping happens)."""
        if seconds < 0:
            raise ValueError(f"cannot sleep {seconds!r} seconds")
        self._now += seconds
        self.sleeps.append(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.3f}, sleeps={len(self.sleeps)})"


#: The process-wide default timeline.  Boundaries that are not handed an
#: explicit clock share this one, so backoff waits and breaker recovery
#: windows interact on a single consistent timeline.
DEFAULT_CLOCK = VirtualClock()
