"""Property-based tests: flash-cache residency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KB
from repro.devices import Disk, DiskParams
from repro.kernel import CfqScheduler, OS
from repro.sim import Simulator


@given(extents=st.lists(st.integers(0, 30), min_size=1, max_size=120),
       capacity_extents=st.integers(min_value=2, max_value=16))
@settings(max_examples=25, deadline=None)
def test_flash_cache_lru_and_capacity_invariants(extents,
                                                 capacity_extents):
    from repro.devices import Ssd, SsdGeometry
    from repro.kernel import NoopScheduler
    from repro.kernel.flashcache import FlashCache

    sim = Simulator(seed=2)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    disk_os = OS(sim, disk, CfqScheduler(sim, disk))
    ssd = Ssd(sim, SsdGeometry(n_channels=2, chips_per_channel=2,
                               jitter_frac=0.0))
    ssd_os = OS(sim, ssd, NoopScheduler(sim, ssd))
    flash = FlashCache(sim, ssd_os, disk_os,
                       capacity_bytes=capacity_extents * 64 * KB,
                       promote_threshold=1)

    def driver():
        for extent in extents:
            yield from flash.read(0, extent * 64 * KB, 4 * KB)
            assert flash.cached_extents <= flash.capacity_extents
            assert len(flash._lru) == flash.cached_extents
            assert set(flash._lru) == set(flash._extents)

    proc = sim.process(driver())
    sim.run()
    assert proc.ok
    # The most recently read extent is always resident (threshold 1).
    assert flash.cached(extents[-1] * 64 * KB, 4 * KB)
