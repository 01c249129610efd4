"""DynamicBatcher: bucket snapping and the lane-free release rule."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import DEFAULT_BUCKETS, DynamicBatcher
from repro.serve.batcher import ServeRequest


def request(i, arrival_s=0.0):
    return ServeRequest(tenant="t", image=np.zeros(2, np.float32),
                        arrival_s=arrival_s, request_id=i)


class TestLadder:
    def test_default_ladder_matches_plan_cache_bound(self):
        assert DEFAULT_BUCKETS == (1, 2, 4, 8)

    def test_bucket_for_snaps_up(self):
        batcher = DynamicBatcher()
        assert [batcher.bucket_for(n) for n in range(1, 9)] == \
            [1, 2, 4, 4, 8, 8, 8, 8]

    def test_bucket_for_rejects_oversize(self):
        batcher = DynamicBatcher(buckets=(1, 2))
        with pytest.raises(ServeError, match="no bucket covers"):
            batcher.bucket_for(3)

    def test_ladder_is_sorted_and_deduped(self):
        batcher = DynamicBatcher(buckets=(4, 1, 4, 2))
        assert batcher.buckets == (1, 2, 4)
        assert batcher.max_batch == 4

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError, match="invalid bucket ladder"):
            DynamicBatcher(buckets=())
        with pytest.raises(ServeError, match="invalid bucket ladder"):
            DynamicBatcher(buckets=(0, 2))


class TestLaneRelease:
    def test_full_queue_releases_the_largest_bucket(self):
        batcher = DynamicBatcher(buckets=(1, 2, 4))
        for i in range(5):
            assert batcher.offer(request(i)) is None
        flush = batcher.due(0.0, lane_free_s=0.0)
        assert flush.trigger == "lane"
        assert flush.bucket == 4
        assert flush.padding == 0
        # FIFO order preserved, the rest stays queued
        assert [r.request_id for r in flush.requests] == [0, 1, 2, 3]
        assert batcher.depth == 1
        rest = batcher.due(0.0, lane_free_s=0.0)
        assert [r.request_id for r in rest.requests] == [4]
        assert rest.bucket == 1
        assert batcher.depth == 0

    def test_due_holds_the_queue_while_every_lane_is_busy(self):
        batcher = DynamicBatcher()
        batcher.offer(request(0, arrival_s=0.0))
        batcher.offer(request(1, arrival_s=0.004))
        batcher.offer(request(2, arrival_s=0.008))
        # the earliest lane frees at 0.010: nothing is released before
        assert batcher.due(0.009, lane_free_s=0.010) is None
        assert batcher.depth == 3
        flush = batcher.due(0.010, lane_free_s=0.010)
        assert flush is not None
        # three requests snap to bucket 4 with one pad row
        assert flush.bucket == 4
        assert flush.padding == 1
        assert [r.request_id for r in flush.requests] == [0, 1, 2]
        assert batcher.depth == 0

    def test_empty_batcher_is_never_due(self):
        batcher = DynamicBatcher()
        assert batcher.due(1e9, lane_free_s=0.0) is None
