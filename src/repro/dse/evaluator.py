"""Memoized evaluation of DSE design points.

The greedy explorer evaluates hundreds of neighbouring configurations, and
each evaluation used to rebuild and re-estimate every PE from scratch.  Two
observations make that cheap:

* A candidate move changes the parallelism of exactly **one** PE, so per-PE
  construction, resource estimation and cycle counting are content-keyed
  and shared across evaluations (``PEMapping`` and ``ProcessingElement``
  are frozen dataclasses, i.e. hashable values).
* Whole configurations recur (the chosen move is re-evaluated as the next
  step's baseline), so the full ``mapping fingerprint → (perf, resources)``
  result is cached too, including *negative* entries: a mapping that
  failed validation raises the same typed error again without re-running
  the builder.

Evaluation is serial.  The evaluator is GIL-bound Python, so a thread
pool over it measured slower than the plain loop at every model size, and
its speedup changed with the host's core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CondorError
from repro.frontend.condor_format import CondorModel
from repro.hw.accelerator import build_accelerator
from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.estimate import estimate_accelerator
from repro.hw.mapping import MappingConfig
from repro.hw.perf import AcceleratorPerformance, estimate_performance
from repro.hw.resources import ResourceVector
from repro.obs import REGISTRY
from repro.util.sync import new_lock

_POINTS = REGISTRY.counter(
    "condor_dse_points_evaluated_total",
    "Design points evaluated by the explorer")
_CACHE_HITS = REGISTRY.counter(
    "condor_dse_cache_hits_total",
    "Design-point evaluations answered from the evaluation cache")


def mapping_fingerprint(model: CondorModel, mapping: MappingConfig,
                        cal: Calibration) -> tuple:
    """Content key of one evaluation.

    Everything the estimate depends on: the PE mapping entries (frozen
    dataclasses — compared by value), the target board, the datapath
    precision, the clock, and the calibration constants.
    """
    return (tuple(mapping.pes), model.board, model.precision,
            model.frequency_hz, cal)


@dataclass
class EvaluatedPoint:
    """The outcome of evaluating one mapping configuration."""

    mapping: MappingConfig
    performance: AcceleratorPerformance
    resources: ResourceVector


@dataclass
class EvaluationCache:
    """Fingerprint-keyed results plus the shared per-PE sub-caches.

    ``errors`` holds negative entries: evaluating an infeasible mapping
    caches the typed :class:`~repro.errors.CondorError` so the explorer's
    feasibility filtering costs one dict lookup on revisit.

    The explorer itself is serial, but a caller may share one cache
    across threads (one evaluator per thread), so the result/error
    tables and the hit/miss statistics mutate only through the locked
    methods below.  The ``pe_*`` sub-caches are deliberately *not*
    locked: they are filled content-keyed by the hw builders (identical
    key -> identical value), so the worst concurrent outcome is a
    redundant recomputation, never a wrong entry.
    """

    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    #: (pe_map, precision) -> ProcessingElement
    pe_build: dict = field(default_factory=dict)
    #: ProcessingElement -> ResourceVector
    pe_resources: dict = field(default_factory=dict)
    #: ProcessingElement -> (cycles, latency, flops)
    pe_perf: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        self._lock = new_lock("dse.EvaluationCache")

    def lookup(self, key) -> "EvaluatedPoint | CondorError | None":
        """The cached outcome for a fingerprint (counts a hit), or
        ``None`` (counts a miss).  One locked read-modify-write, so
        threads sharing the cache never tear the statistics."""
        with self._lock:
            cached = self.results.get(key)
            if cached is None:
                cached = self.errors.get(key)
            if cached is not None:
                self.hits += 1
            else:
                self.misses += 1
            return cached

    def store(self, key, point: "EvaluatedPoint") -> None:
        with self._lock:
            self.results[key] = point

    def store_error(self, key, error: CondorError) -> None:
        with self._lock:
            self.errors[key] = error

    def count_miss(self) -> None:
        """Statistics-only miss (the ``memoize=False`` bench path)."""
        with self._lock:
            self.misses += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "results": len(self.results),
                    "errors": len(self.errors)}

    def clear(self) -> None:
        with self._lock:
            self.results.clear()
            self.errors.clear()
            self.pe_build.clear()
            self.pe_resources.clear()
            self.pe_perf.clear()
            self.hits = 0
            self.misses = 0


class CachedEvaluator:
    """Evaluate mappings for one model under one calibration, memoized."""

    def __init__(self, model: CondorModel,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 cache: EvaluationCache | None = None,
                 memoize: bool = True):
        self.model = model
        self.cal = cal
        self.cache = cache if cache is not None else EvaluationCache()
        #: ``memoize=False`` re-runs every build/estimate from scratch —
        #: the pre-cache behaviour ``condor bench`` measures speedup
        #: against; not useful otherwise.
        self.memoize = memoize

    def evaluate(self, mapping: MappingConfig) -> EvaluatedPoint:
        """Perf + resources for ``mapping``; raises the (possibly cached)
        :class:`~repro.errors.CondorError` for infeasible mappings."""
        if not self.memoize:
            _POINTS.inc()
            self.cache.count_miss()
            acc = build_accelerator(self.model, mapping)
            perf = estimate_performance(acc, self.cal)
            estimate = estimate_accelerator(acc, self.cal)
            return EvaluatedPoint(mapping=mapping, performance=perf,
                                  resources=estimate.total)
        cache = self.cache
        key = mapping_fingerprint(self.model, mapping, self.cal)
        cached = cache.lookup(key)
        if cached is not None:
            _CACHE_HITS.inc()
            if isinstance(cached, CondorError):
                raise cached
            return cached
        _POINTS.inc()
        try:
            acc = build_accelerator(self.model, mapping,
                                    pe_cache=cache.pe_build)
            perf = estimate_performance(acc, self.cal,
                                        pe_cache=cache.pe_perf)
            estimate = estimate_accelerator(acc, self.cal,
                                            pe_cache=cache.pe_resources)
        except CondorError as exc:
            cache.store_error(key, exc)
            raise
        point = EvaluatedPoint(mapping=mapping, performance=perf,
                               resources=estimate.total)
        cache.store(key, point)
        return point
