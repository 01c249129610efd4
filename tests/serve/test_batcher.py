"""DynamicBatcher: the bucket ladder and the lane-free release rule."""

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

    def test_ladder_is_sorted_and_deduped(self):
        batcher = DynamicBatcher(buckets=(4, 1, 4, 2))
        assert batcher.buckets == (1, 2, 4)

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
        # three requests fill bucket 2; the third stays queued
        assert flush.bucket == 2
        assert flush.padding == 0
        assert [r.request_id for r in flush.requests] == [0, 1]
        assert batcher.depth == 1

    def test_empty_batcher_is_never_due(self):
        batcher = DynamicBatcher()
        assert batcher.due(1e9, lane_free_s=0.0) is None


class TestLargestFilledBucket:
    """A flush takes the largest bucket the queue fills, never pad rows
    while the queue fills the smallest bucket."""

    @pytest.mark.parametrize("queued, bucket", [
        (1, 1), (2, 2), (3, 2), (4, 4), (5, 4), (7, 4), (8, 8), (9, 8),
        (17, 8)])
    def test_flush_takes_the_largest_filled_bucket(self, queued, bucket):
        batcher = DynamicBatcher()
        for i in range(queued):
            batcher.offer(request(i))
        flush = batcher.due(0.0, lane_free_s=0.0)
        assert flush.bucket == bucket
        assert flush.padding == 0
        assert [r.request_id for r in flush.requests] == \
            list(range(bucket))
        assert batcher.depth == queued - bucket

    def test_only_a_queue_short_of_the_smallest_bucket_pads(self):
        batcher = DynamicBatcher(buckets=(2, 4, 8))
        for i in range(3):
            batcher.offer(request(i))
        first = batcher.due(0.0, lane_free_s=0.0)
        assert (first.bucket, first.padding) == (2, 0)
        assert [r.request_id for r in first.requests] == [0, 1]
        # one request left, short of bucket 2: it goes out padded
        rest = batcher.due(0.0, lane_free_s=0.0)
        assert (rest.bucket, rest.padding) == (2, 1)
        assert [r.request_id for r in rest.requests] == [2]
        assert batcher.depth == 0
