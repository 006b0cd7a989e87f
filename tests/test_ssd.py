"""Tests of the OpenChannel SSD model."""

import hashlib
import struct

import pytest

from repro._units import KB, MS
from repro.devices import BlockRequest, IoOp, Ssd, SsdGeometry
from repro.devices.ssd import program_pattern
from repro.sim import Simulator


def _quiet_geometry(**kw):
    defaults = dict(jitter_frac=0.0)
    defaults.update(kw)
    return SsdGeometry(**defaults)


def run_io(sim, ssd, req):
    req.submit_time = sim.now
    done = sim.event()
    req.add_callback(done.succeed)
    ssd.submit(req)
    sim.run_until(done)
    return req.latency


def test_program_pattern_shape():
    pattern = program_pattern(512)
    assert len(pattern) == 512
    # Paper: "1ms write time for pages #0-6, 2ms for page #7, 1ms for #8-9"
    assert pattern[:7] == [1 * MS] * 7 or pattern[:6] == [1 * MS] * 6
    assert pattern[0] == 1 * MS
    assert pattern[6] == 2 * MS or pattern[7] == 2 * MS
    # tail "...2112"
    assert pattern[-4:] == [2 * MS, 1 * MS, 1 * MS, 2 * MS]
    assert set(pattern) == {1 * MS, 2 * MS}


def test_geometry_defaults_match_paper_device():
    geo = SsdGeometry()
    assert geo.n_channels == 16
    assert geo.n_chips == 128  # 16 channels x 8 chips
    assert geo.page_size == 16 * KB
    assert geo.page_read_us == 100.0
    assert geo.erase_us == 6 * MS


def test_single_page_read_takes_100us(sim):
    ssd = Ssd(sim, _quiet_geometry())
    latency = run_io(sim, ssd, BlockRequest(IoOp.READ, 0, 16 * KB))
    assert latency == pytest.approx(100.0)


def test_multi_page_read_parallelizes_across_chips(sim):
    ssd = Ssd(sim, _quiet_geometry())
    # 8 pages stripe over 8 chips on 1 channel: serialized only by the
    # 60us channel transfers.
    latency = run_io(sim, ssd, BlockRequest(IoOp.READ, 0, 128 * KB))
    assert latency < 8 * 100.0
    assert latency >= 100.0 + 7 * 60.0


def test_reads_to_distinct_channels_do_not_queue(sim):
    """Paper: ten IOs to ten separate channels create no queueing."""
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    reqs = []
    # chips 0 and 8 are on different channels (8 chips per channel).
    for chip in (0, 8):
        req = BlockRequest(IoOp.READ, chip * geo.page_size, geo.page_size)
        req.submit_time = 0.0
        ssd.submit(req)
        reqs.append(req)
    sim.run()
    for req in reqs:
        assert req.latency == pytest.approx(100.0)


def test_reads_to_same_chip_queue_fifo(sim):
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    same_chip = geo.n_chips  # lpn n_chips maps back to chip 0
    first = BlockRequest(IoOp.READ, 0, geo.page_size)
    second = BlockRequest(IoOp.READ, same_chip * geo.page_size,
                          geo.page_size)
    for req in (first, second):
        req.submit_time = 0.0
        ssd.submit(req)
    sim.run()
    assert first.latency == pytest.approx(100.0)
    assert second.latency > first.latency


def test_write_uses_program_pattern_times(sim):
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    latency = run_io(sim, ssd, BlockRequest(IoOp.WRITE, 0, geo.page_size))
    # first page of a block is a lower page: 1 ms (+ channel transfer).
    assert latency == pytest.approx(1 * MS, rel=0.1)


def test_read_after_write_goes_to_mapped_chip(sim):
    geo = _quiet_geometry(n_channels=2, chips_per_channel=2)
    ssd = Ssd(sim, geo)
    lpn = 7
    run_io(sim, ssd, BlockRequest(IoOp.WRITE, lpn * geo.page_size,
                                  geo.page_size))
    mapped = ssd.read_chip_of(lpn)
    assert mapped == 0  # first round-robin allocation goes to chip 0
    # and an unwritten page still uses the striped default:
    assert ssd.read_chip_of(lpn + 1) == (lpn + 1) % geo.n_chips


def test_erase_parks_chip_for_6ms(sim):
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    ssd.erase_block(0)
    req = BlockRequest(IoOp.READ, 0, geo.page_size)  # lpn 0 -> chip 0
    latency = run_io(sim, ssd, req)
    assert latency >= 6 * MS


def test_gc_triggers_when_blocks_exhaust(sim):
    geo = _quiet_geometry(n_channels=1, chips_per_channel=1,
                          blocks_per_chip=4, pages_per_block=8)
    ssd = Ssd(sim, geo)

    def writer():
        for i in range(64):
            req = BlockRequest(IoOp.WRITE, (i % 8) * geo.page_size,
                               geo.page_size)
            done = sim.event()
            req.add_callback(done.succeed)
            ssd.submit(req)
            yield done

    sim.process(writer())
    sim.run()
    assert ssd.gc_runs > 0
    assert ssd.completed == 64


def test_predict_write_placement_matches_reality(sim):
    geo = _quiet_geometry(n_channels=2, chips_per_channel=2)
    ssd = Ssd(sim, geo)
    predicted = ssd.predict_write_placement(4)
    # Execute 4 page writes and compare the FTL's actual placement.
    for i, (chip, _) in enumerate(predicted):
        run_io(sim, ssd, BlockRequest(IoOp.WRITE, (100 + i) * geo.page_size,
                                      geo.page_size))
        assert ssd.read_chip_of(100 + i) == chip


def test_op_observer_sees_enqueue_and_complete(sim):
    """Commands are observed at issue; completions are settled by the
    next query and carry the time the chip finished."""
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    events = []
    ssd.add_op_observer(lambda kind, chip, us, op: events.append(
        (kind, chip, us, op)))
    run_io(sim, ssd, BlockRequest(IoOp.READ, 0, geo.page_size))
    assert events == [("enqueue", 0, 100.0, "read")]
    # The read finished exactly now (no jitter): a tie counts as done.
    assert sim.now == 100.0
    ssd.settle()
    assert events[1:] == [("complete", 0, 100.0, "done")]


def test_completions_settle_in_finish_order_with_their_times(sim):
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    done = []
    ssd.add_op_observer(lambda kind, chip, us, op: done.append((chip, us))
                        if kind == "complete" else None)
    ssd.erase_block(0)                       # chip 0 until 6 ms
    for chip in (1, 2):                      # channel 0: 100 / 160 µs
        ssd.submit(BlockRequest(IoOp.READ, chip * geo.page_size,
                                geo.page_size))
    sim.run(until=1 * MS)
    ssd.settle()
    assert ssd.chip_next_free(0) > sim.now   # the erase is still running
    assert done == [(1, pytest.approx(100.0)), (2, pytest.approx(160.0))]
    sim.run(until=10 * MS)
    ssd.settle()
    assert done[-1] == (0, pytest.approx(6 * MS))


def test_channel_serialization_ground_truth(sim):
    """N concurrent reads behind one channel pay ~60us each in turn."""
    geo = _quiet_geometry()
    ssd = Ssd(sim, geo)
    reqs = []
    for chip in range(4):  # chips 0-3 share channel 0
        req = BlockRequest(IoOp.READ, chip * geo.page_size, geo.page_size)
        req.submit_time = 0.0
        ssd.submit(req)
        reqs.append(req)
    sim.run()
    latencies = sorted(r.latency for r in reqs)
    assert latencies[0] == pytest.approx(100.0)
    assert latencies[-1] == pytest.approx(100.0 + 3 * 60.0, rel=0.05)


def test_timing_is_pinned_through_gc_wear_and_fail_slow():
    """Completion times, op-observer events and the device stream's state
    are pinned over a run that reaches every branch of the page loop:
    reads and writes across GC and wear-level moves, explicit erases, a
    fail-slow ``latency_scale``, a per-command ``fault_latency_extra``
    and an observer attached mid-run."""
    sim = Simulator(seed=7)
    geo = SsdGeometry(n_channels=2, chips_per_channel=2, blocks_per_chip=6,
                      pages_per_block=8, jitter_frac=0.05)
    geo.wear_spread_threshold = 3
    ssd = Ssd(sim, geo)
    rng = sim.rng("pin")
    extra_rng = sim.rng("pin/extra")
    finishes = []
    events = []

    def driver():
        for i in range(600):
            if i == 100:
                ssd.latency_scale = 2.0
            elif i == 150:
                ssd.latency_scale = 1.0
                ssd.fault_latency_extra = (
                    lambda: extra_rng.expovariate(1 / 150.0))
            elif i == 200:
                ssd.add_op_observer(lambda *event: events.append(event))
            elif i == 250:
                ssd.fault_latency_extra = None
            u = rng.random()
            if u < 0.05:
                ssd.erase_block(rng.randrange(geo.n_chips))
            else:
                op = IoOp.WRITE if u < 0.60 else IoOp.READ
                req = BlockRequest(op, rng.randrange(12) * geo.page_size,
                                   rng.randint(1, 5) * geo.page_size)
                req.add_callback(
                    lambda r: finishes.append(r.complete_time))
                ssd.submit(req)
            yield rng.uniform(0.0, 600.0)

    sim.process(driver())
    sim.run()
    sim.run(until=max(map(ssd.chip_next_free, range(geo.n_chips))))
    ssd.settle()
    digest = hashlib.sha256()
    digest.update(struct.pack(f"<{len(finishes)}d", *finishes))
    digest.update(repr(events).encode())
    digest.update(repr(ssd._rng.getstate()).encode())
    assert (len(finishes), len(events)) == (563, 2346)
    assert (ssd.gc_runs, ssd.wear_level_runs) == (104, 14)
    assert sim.now == 722796.8177570719
    assert digest.hexdigest() == (
        "b4dacfcca82b62f3cfaca1d3701c579727301e487d7cb313a5378ed796611796")
