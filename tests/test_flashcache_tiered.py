"""Tests of the bcache-style flash cache and the three-tier stack."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import Disk, DiskParams, Ssd, SsdGeometry
from repro.devices.disk_profile import profile_disk
from repro.devices.ssd_profile import SsdLatencyModel
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, NoopScheduler, OS, PageCache
from repro.kernel.flashcache import FlashCache
from repro.kernel.tiered import TieredStack
from repro.mittos import MittCfq, MittSsd
from tests.conftest import run_process

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _tiers(sim, capacity_mb=4):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    disk_os = OS(sim, disk, CfqScheduler(sim, disk),
                 predictor=MittCfq(MODEL))
    ssd = Ssd(sim, SsdGeometry(jitter_frac=0.0))
    ssd_os = OS(sim, ssd, NoopScheduler(sim, ssd),
                predictor=MittSsd(ssd, SsdLatencyModel.from_spec(
                    ssd.geometry)))
    flash = FlashCache(sim, ssd_os, disk_os,
                       capacity_bytes=capacity_mb << 20)
    return flash, disk_os, ssd_os


def _read(sim, flash, offset, deadline=None):
    def gen():
        result = yield from flash.read(0, offset, 4 * KB, deadline=deadline)
        return result

    return run_process(sim, gen())


def test_capacity_validated(sim):
    with pytest.raises(ValueError):
        _t = FlashCache(sim, None, None, capacity_bytes=0)


def test_cold_read_goes_to_disk(sim):
    flash, disk_os, ssd_os = _tiers(sim)
    result = _read(sim, flash, 10 * GB)
    assert result.latency > 1 * MS  # disk speed
    assert flash.misses == 1 and flash.hits == 0


def test_hot_extent_promoted_then_served_from_ssd(sim):
    flash, disk_os, ssd_os = _tiers(sim)
    for _ in range(flash.promote_threshold):
        _read(sim, flash, 10 * GB)
    assert flash.promotions == 1
    result = _read(sim, flash, 10 * GB)
    assert flash.hits == 1
    assert result.latency < 1 * MS  # flash speed


def test_promotion_write_is_background(sim):
    flash, disk_os, ssd_os = _tiers(sim)
    before = sim.now
    for _ in range(flash.promote_threshold):
        _read(sim, flash, 10 * GB)
    # Foreground latency of the promoting read is still disk-speed only
    # (no extra ~1ms program time was serialized into it).
    assert ssd_os.scheduler.submitted == 1  # the promotion write


def test_eviction_respects_capacity(sim):
    flash, _, _ = _tiers(sim, capacity_mb=1)  # 16 extents of 64 KB
    for i in range(40):
        for _ in range(flash.promote_threshold):
            _read(sim, flash, i * (1 << 20))
    assert flash.cached_extents <= flash.capacity_extents


def test_invalidate_drops_extents(sim):
    flash, _, _ = _tiers(sim)
    for _ in range(flash.promote_threshold):
        _read(sim, flash, 10 * GB)
    assert flash.cached(10 * GB, 4 * KB)
    flash.invalidate(10 * GB, 4 * KB)
    assert not flash.cached(10 * GB, 4 * KB)


def test_ssd_deadline_guards_flash_hits(sim):
    flash, disk_os, ssd_os = _tiers(sim)
    for _ in range(flash.promote_threshold):
        _read(sim, flash, 10 * GB)
    # Park the SSD chips; a flash-tier read with a tight deadline rejects.
    for chip in range(ssd_os.device.geometry.n_chips):
        ssd_os.device.erase_block(chip)
    result = _read(sim, flash, 10 * GB, deadline=1 * MS)
    assert is_ebusy(result)


def test_disk_deadline_guards_misses(sim):
    flash, disk_os, _ = _tiers(sim)
    for i in range(6):
        sim.process(disk_os.read(0, i * 100 * GB, 2048 * KB, pid=9))
    result = _read(sim, flash, 77 * GB, deadline=5 * MS)
    assert is_ebusy(result)


# -- the three-tier stack -------------------------------------------------

def _stack(sim):
    flash, disk_os, ssd_os = _tiers(sim)
    page_cache = PageCache(sim, 256)
    stack = TieredStack(sim, page_cache, flash)
    return stack, flash, disk_os, ssd_os


def test_page_cache_tier_hits_in_memory(sim):
    stack, flash, _, _ = _stack(sim)
    stack.page_cache.insert(0, 0, 4 * KB)

    def gen():
        result = yield from stack.read(0, 0, 4 * KB, deadline=0.5 * MS)
        return result

    result = run_process(sim, gen())
    assert result.cache_hit
    assert flash.hits == flash.misses == 0


def test_miss_fills_page_cache_through_tiers(sim):
    stack, flash, _, _ = _stack(sim)

    def gen():
        first = yield from stack.read(0, 10 * GB, 4 * KB)
        second = yield from stack.read(0, 10 * GB, 4 * KB)
        return first, second

    first, second = run_process(sim, gen())
    assert not first.cache_hit
    assert second.cache_hit


def test_tiered_ebusy_propagates(sim):
    stack, flash, disk_os, _ = _stack(sim)
    for i in range(6):
        sim.process(disk_os.read(0, i * 100 * GB, 2048 * KB, pid=9))

    def gen():
        result = yield from stack.read(0, 77 * GB, 4 * KB, deadline=5 * MS)
        return result

    assert is_ebusy(run_process(sim, gen()))
    assert stack.ebusy_returned == 1
