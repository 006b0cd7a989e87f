"""Tests of SSD wear bookkeeping and wear-leveling noise (§4.3)."""

from repro.devices import BlockRequest, IoOp, Ssd, SsdGeometry


def _tiny_geo(wear_threshold=3):
    geo = SsdGeometry(n_channels=1, chips_per_channel=1, blocks_per_chip=6,
                      pages_per_block=8, jitter_frac=0.0)
    geo.wear_spread_threshold = wear_threshold
    return geo


def _hammer(sim, ssd, writes, lpn_span=4):
    def writer():
        for i in range(writes):
            req = BlockRequest(IoOp.WRITE, (i % lpn_span)
                               * ssd.geometry.page_size,
                               ssd.geometry.page_size)
            done = sim.event()
            req.add_callback(lambda r: done.try_succeed())
            ssd.submit(req)
            yield done

    proc = sim.process(writer())
    sim.run_until(proc)


def test_gc_increments_per_block_erase_counts(sim):
    ssd = Ssd(sim, _tiny_geo(wear_threshold=None))
    _hammer(sim, ssd, 200)
    chip = ssd._chips[0]
    assert sum(chip.erase_counts) == ssd.gc_runs
    assert ssd.wear_level_runs == 0  # disabled


def test_wear_leveling_fires_and_bounds_spread(sim):
    ssd = Ssd(sim, _tiny_geo(wear_threshold=3))
    _hammer(sim, ssd, 400)
    chip = ssd._chips[0]
    assert ssd.wear_level_runs > 0
    # Relocations keep re-levelling the cold block, bounding the spread
    # near the threshold (it can exceed transiently between checks).
    assert chip.wear_spread() <= 3 + 2


def test_wear_leveling_is_visible_to_the_host(sim):
    """The predictor sees wear-level moves through the op observer, and
    every command it saw issued is later settled, in finish order."""
    ssd = Ssd(sim, _tiny_geo(wear_threshold=3))
    issued, settled = [], []
    ssd.add_op_observer(lambda kind, chip, us, op: (
        issued if kind == "enqueue" else settled).append((op, us)))
    _hammer(sim, ssd, 400)
    assert "gc" in [op for op, _ in issued]
    sim.run(until=ssd.chip_next_free(0))
    assert ssd.in_device == 0
    assert len(settled) == len(issued)
    times = [t for _, t in settled]
    assert times == sorted(times)
    assert times[-1] == ssd.chip_next_free(0)
