"""Tests of the LRU page cache."""

import pytest

from repro.kernel import PageCache


def test_requires_positive_capacity(sim):
    with pytest.raises(ValueError):
        PageCache(sim, 0)


def test_pages_of_spans_boundaries(sim):
    cache = PageCache(sim, 10)
    assert list(cache.pages_of(0, 4096)) == [0]
    assert list(cache.pages_of(4095, 2)) == [0, 1]
    assert list(cache.pages_of(8192, 8192)) == [2, 3]


def test_insert_then_resident(sim):
    cache = PageCache(sim, 10)
    cache.insert(1, 0, 8192)
    assert cache.resident(1, 0, 8192)
    assert not cache.resident(1, 8192, 4096)
    assert not cache.resident(2, 0, 4096)  # different file


def test_touch_hit_and_miss_counters(sim):
    cache = PageCache(sim, 10)
    cache.insert(1, 0, 4096)
    assert cache.touch(1, 0, 4096) is True
    assert cache.touch(1, 4096, 4096) is False
    assert cache.hits == 1
    assert cache.misses == 1


def test_partial_residency_is_a_miss(sim):
    cache = PageCache(sim, 10)
    cache.insert(1, 0, 4096)
    assert cache.touch(1, 0, 8192) is False


def test_lru_eviction_order(sim):
    cache = PageCache(sim, 2)
    cache.insert(1, 0, 4096)        # page 0
    cache.insert(1, 4096, 4096)     # page 1
    cache.touch(1, 0, 4096)         # page 0 now most recent
    cache.insert(1, 8192, 4096)     # page 2 evicts page 1
    assert cache.resident(1, 0, 4096)
    assert not cache.resident(1, 4096, 4096)
    assert cache.evictions == 1


def test_multi_page_hit_refreshes_every_page(sim):
    cache = PageCache(sim, 3)
    cache.insert(1, 0, 4096)        # page 0
    cache.insert(1, 4096, 8192)     # pages 1, 2
    assert cache.touch(1, 0, 8192)  # pages 0 and 1 now most recent
    cache.insert(1, 12288, 4096)    # page 3 evicts page 2
    assert cache.resident(1, 0, 8192)
    assert not cache.resident(1, 8192, 4096)


def test_evict_fraction(sim):
    import random
    cache = PageCache(sim, 100)
    for p in range(100):
        cache.insert(1, p * 4096, 4096)
    evicted = cache.evict_fraction(0.2, random.Random(1))
    assert evicted == 20
    assert cache.used_pages == 80


def test_evict_fraction_validates(sim):
    import random
    with pytest.raises(ValueError):
        PageCache(sim, 10).evict_fraction(1.5, random.Random(1))


def test_evict_file_range(sim):
    cache = PageCache(sim, 100)
    cache.insert(1, 0, 16384)
    count = cache.evict_file_range(1, 0, 8192)
    assert count == 2
    assert not cache.resident(1, 0, 8192)
    assert cache.resident(1, 8192, 8192)


def test_background_swapin_repopulates(sim):
    cache = PageCache(sim, 100)
    cache.note_ebusy_swapin(1, 0, 4096)
    assert cache.resident(1, 0, 4096)
    assert cache.background_swapins == 1


def test_missing_pages_listing(sim):
    cache = PageCache(sim, 100)
    cache.insert(1, 0, 4096)
    assert cache.missing_pages(1, 0, 12288) == [1, 2]
