"""Memoized DSE evaluation must change nothing but the cost.

The explorer's result — best mapping, explored-point count, step count —
must be identical across memoized and from-scratch runs; the cache is a
pure acceleration.
"""

import dataclasses

import pytest

from repro.dse import (
    CachedEvaluator,
    EvaluationCache,
    explore,
    mapping_fingerprint,
)
from repro.errors import MappingError
from repro.hw.mapping import default_mapping


def _bad_mapping(net):
    """A mapping that fails validation (in_parallel > input channels)."""
    mapping = default_mapping(net)
    bad_pe = dataclasses.replace(mapping.pes[0], in_parallel=10_000)
    return dataclasses.replace(mapping,
                               pes=[bad_pe] + list(mapping.pes[1:]))


@pytest.mark.parametrize("name", ["tc1", "lenet", "vgg16"])
def test_parallel_memoized_explore_matches_serial(name, zoo_model):
    """The memoized explorer retraces the from-scratch one exactly (the
    name predates the removal of the parallel evaluator)."""
    model = zoo_model(name)
    serial = explore(model, memoize=False)
    fast = explore(model, cache=EvaluationCache())
    assert fast.mapping == serial.mapping
    assert fast.performance.ii_cycles == serial.performance.ii_cycles
    assert fast.steps == serial.steps
    assert len(fast.explored) == len(serial.explored)
    assert [p.mapping for p in fast.explored] == \
        [p.mapping for p in serial.explored]
    assert fast.cache_misses <= serial.cache_misses


def test_result_cache_hits(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model)
    mapping = default_mapping(model.network)
    first = evaluator.evaluate(mapping)
    assert (evaluator.cache.hits, evaluator.cache.misses) == (0, 1)
    again = evaluator.evaluate(mapping)
    assert again is first  # the cached object itself
    assert (evaluator.cache.hits, evaluator.cache.misses) == (1, 1)
    # an equal-by-value mapping built independently hits too
    clone = default_mapping(model.network)
    assert evaluator.evaluate(clone) is first
    assert evaluator.cache.hits == 2


def test_negative_caching(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model)
    bad = _bad_mapping(model.network)
    with pytest.raises(MappingError) as first:
        evaluator.evaluate(bad)
    assert evaluator.cache.misses == 1
    with pytest.raises(MappingError) as second:
        evaluator.evaluate(bad)
    assert second.value is first.value  # replayed, not recomputed
    assert evaluator.cache.hits == 1


def test_memoize_false_never_caches(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model, memoize=False)
    mapping = default_mapping(model.network)
    first = evaluator.evaluate(mapping)
    second = evaluator.evaluate(mapping)
    assert first is not second
    assert evaluator.cache.hits == 0
    assert evaluator.cache.misses == 2
    assert not evaluator.cache.results


def test_fingerprint_is_content_keyed(zoo_model):
    model = zoo_model("tc1")
    mapping = default_mapping(model.network)
    clone = default_mapping(model.network)
    cal = CachedEvaluator(model).cal
    assert mapping_fingerprint(model, mapping, cal) == \
        mapping_fingerprint(model, clone, cal)
    faster = dataclasses.replace(model, frequency_hz=2 * model.frequency_hz)
    assert mapping_fingerprint(faster, mapping, cal) != \
        mapping_fingerprint(model, mapping, cal)


def test_repeat_explore_over_shared_cache_is_all_hits(zoo_model):
    model = zoo_model("tc1")
    cache = EvaluationCache()
    first = explore(model, cache=cache)
    hits, misses = cache.hits, cache.misses
    again = explore(model, cache=cache)
    assert again.mapping == first.mapping
    assert cache.misses == misses  # nothing re-evaluated
    assert cache.hits == hits + (hits + misses)  # every lookup repeated


def test_evaluate_spans_nest_under_explore(zoo_model):
    from repro.obs import recording

    with recording() as rec:
        explore(zoo_model("tc1"), cache=EvaluationCache())
    (root,) = rec.find("dse.explore")
    assert root.attrs["network"] == "tc1"
    evals = rec.find("dse.evaluate")
    assert evals
    assert all(sp.parent_id == root.span_id for sp in evals)
    assert all(sp.depth == root.depth + 1 for sp in evals)
