"""Property-based tests of storage-stack invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import GB, KB
from repro.devices import (BlockRequest, Disk, DiskParams, IoClass, IoOp,
                           Ssd, SsdGeometry)
from repro.engines import KeySpace
from repro.kernel import CfqScheduler, PageCache
from repro.sim import Simulator

offsets = st.integers(min_value=0, max_value=900 * GB)


@given(offs=st.lists(offsets, min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_disk_completes_every_request_exactly_once(offs):
    sim = Simulator(seed=1)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=31))
    completions = []
    pending = list(offs)

    def feeder():
        for off in pending:
            while not disk.has_room():
                yield 100.0
            req = BlockRequest(IoOp.READ, off - off % 4096, 4 * KB)
            req.add_callback(lambda r: completions.append(r.req_id))
            disk.submit(req)
        return None

    sim.process(feeder())
    sim.run()
    assert len(completions) == len(offs)
    assert len(set(completions)) == len(offs)


@given(offs=st.lists(offsets, min_size=1, max_size=40),
       classes=st.lists(st.sampled_from(list(IoClass)), min_size=1,
                        max_size=40))
@settings(max_examples=30, deadline=None)
def test_cfq_never_loses_or_duplicates(offs, classes):
    sim = Simulator(seed=2)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=2))
    sched = CfqScheduler(sim, disk)
    done = []
    for i, off in enumerate(offs):
        cls = classes[i % len(classes)]
        req = BlockRequest(IoOp.READ, off - off % 4096, 4 * KB,
                           pid=i % 5, ioclass=cls)
        req.add_callback(lambda r: done.append(r.req_id))
        sched.submit(req)
    sim.run()
    assert len(done) == len(offs)
    assert len(set(done)) == len(offs)
    assert sched.queued == 0


@given(lpns=st.lists(st.integers(min_value=0, max_value=4000), min_size=1,
                     max_size=120))
@settings(max_examples=20, deadline=None)
def test_ssd_ftl_mapping_stays_consistent(lpns):
    sim = Simulator(seed=3)
    geo = SsdGeometry(n_channels=2, chips_per_channel=2,
                      blocks_per_chip=16, pages_per_block=32,
                      jitter_frac=0.0)
    ssd = Ssd(sim, geo)

    def writer():
        for lpn in lpns:
            req = BlockRequest(IoOp.WRITE, lpn * geo.page_size,
                               geo.page_size)
            done = sim.event()
            req.add_callback(done.succeed)
            ssd.submit(req)
            yield done

    sim.process(writer())
    sim.run()
    # Every written lpn maps to a real chip; valid counts are sane.
    for lpn in set(lpns):
        chip = ssd.read_chip_of(lpn)
        assert 0 <= chip < geo.n_chips
    for chip in ssd._chips:
        assert all(0 <= v <= geo.pages_per_block
                   for v in chip.valid_count)
    total_valid = sum(sum(c.valid_count) for c in ssd._chips)
    assert total_valid == len(set(lpns))


@given(n_lpns=st.integers(min_value=24, max_value=32),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_ssd_gc_keeps_valid_counts_consistent(n_lpns, rnd):
    """GC migrates live pages to the blocks that receive them: every
    block's valid count matches the FTL entries pointing at it, and no
    entry points at an erased (free) block."""
    sim = Simulator(seed=8)
    geo = SsdGeometry(n_channels=1, chips_per_channel=1, blocks_per_chip=6,
                      pages_per_block=8, jitter_frac=0.0)
    ssd = Ssd(sim, geo)
    chip = ssd._chips[0]
    for _ in range(600):
        lpn = rnd.randrange(n_lpns)
        ssd.submit(BlockRequest(IoOp.WRITE, lpn * geo.page_size,
                                geo.page_size))
        assert all(0 <= v <= geo.pages_per_block for v in chip.valid_count)
        per_block = [0] * geo.blocks_per_chip
        for ppn in ssd._ftl.values():
            # ppn = chip * chip_pages + block * pages_per_block + page
            block = ppn // geo.pages_per_block % geo.blocks_per_chip
            assert block not in chip.free_blocks
            per_block[block] += 1
        assert per_block == chip.valid_count
    assert ssd.gc_runs > 0


@given(accesses=st.lists(st.tuples(st.integers(0, 3),
                                   st.integers(0, 60)),
                         min_size=1, max_size=300),
       capacity=st.integers(min_value=1, max_value=40))
def test_page_cache_never_exceeds_capacity(accesses, capacity):
    sim = Simulator(seed=4)
    cache = PageCache(sim, capacity)
    for file_id, page in accesses:
        cache.insert(file_id, page * 4096, 4096)
        assert cache.used_pages <= capacity
    # Most-recently inserted page is always resident.
    last_file, last_page = accesses[-1]
    assert cache.resident(last_file, last_page * 4096, 4096)


@given(n_keys=st.integers(min_value=1, max_value=5000),
       key=st.integers(min_value=0))
def test_keyspace_locate_always_in_span(n_keys, key):
    ks = KeySpace(n_keys, value_size=1 * KB,
                  span_bytes=max(n_keys * 4 * KB, 1 * GB))
    key = key % n_keys
    offset, size = ks.locate(key)
    assert 0 <= offset < ks.span_bytes
    assert offset % ks.align == 0
    assert size == 1 * KB


def _mittssd_stack(sim, geo):
    from repro.devices.ssd_profile import SsdLatencyModel
    from repro.kernel import NoopScheduler, OS
    from repro.mittos import MittSsd
    ssd = Ssd(sim, geo)
    predictor = MittSsd(ssd, SsdLatencyModel.from_spec(geo))
    OS(sim, ssd, NoopScheduler(sim, ssd), predictor=predictor)
    return ssd, predictor


def _issue(ssd, kind, where, pages=1):
    """One read/write request at page ``where``, or an erase on chip
    ``where``."""
    geo = ssd.geometry
    if kind == "erase":
        ssd.erase_block(where % geo.n_chips)
    else:
        op = IoOp.READ if kind == "read" else IoOp.WRITE
        ssd.submit(BlockRequest(op, where * geo.page_size,
                                pages * geo.page_size))


@given(kinds=st.lists(st.sampled_from(["read", "write", "erase"]),
                      min_size=1, max_size=50))
@settings(max_examples=20, deadline=None)
def test_mittssd_mirror_resyncs_when_idle(kinds):
    """Once every command has finished, the mirror holds no outstanding
    command and every chip horizon lies in the past."""
    sim = Simulator(seed=5)
    geo = SsdGeometry(n_channels=2, chips_per_channel=2, jitter_frac=0.0)
    ssd, predictor = _mittssd_stack(sim, geo)
    rng = sim.rng("ops")
    for kind in kinds:
        _issue(ssd, kind, rng.randrange(geo.n_chips))
    sim.run()
    # An erase schedules no event: run the clock past the last horizon.
    sim.run(until=max(map(ssd.chip_next_free, range(geo.n_chips))))
    ssd.settle()
    for i in range(geo.n_chips):
        assert predictor._chip_outstanding[i] == 0
        assert predictor._chip_next_free[i] <= sim.now


@given(ops=st.lists(st.tuples(st.sampled_from(["read", "write", "erase"]),
                              st.integers(0, 200), st.integers(1, 6),
                              st.floats(0.0, 4000.0)),
                    min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_ssd_lazy_completions_match_eager_reference(ops):
    """Settled-on-query completions are indistinguishable from eager ones.

    The reference is a second MittSSD mirror fed every command's
    completion by an event at its finish time, as a device that
    schedules one event per command would.  At every sample the real
    mirror — settled by its own estimate — must equal the reference,
    resync times included.  A second, observer-free device on its own
    same-seed simulator, fed the same ops at the same times, must keep
    the same chip horizons and never fill the observers' completion heap.
    """
    from types import SimpleNamespace

    from repro.mittos import MittSsd
    sim = Simulator(seed=6)
    geo = SsdGeometry(n_channels=2, chips_per_channel=2, blocks_per_chip=8,
                      pages_per_block=16, jitter_frac=0.05)
    ssd, predictor = _mittssd_stack(sim, geo)
    bare_sim = Simulator(seed=6)
    bare = Ssd(bare_sim, geo)
    ref = MittSsd(SimpleNamespace(geometry=geo,
                                  add_op_observer=lambda fn: None),
                  predictor.model)
    ref.sim = sim

    def eager(kind, chip, us, op_kind):
        if kind == "enqueue":
            finish = ssd.chip_next_free(chip)
            ref._on_chip_op(kind, chip, us, op_kind)
            sim.schedule_at(finish, ref._on_chip_op, "complete", chip,
                            finish, "done")

    ssd.add_op_observer(eager)

    def sample():
        predictor._estimate(BlockRequest(IoOp.READ, 0, geo.page_size))
        assert predictor._chip_outstanding == ref._chip_outstanding
        assert predictor._channel_outstanding == ref._channel_outstanding
        assert predictor._chip_next_free == ref._chip_next_free
        assert predictor._channel_next_free == ref._channel_next_free
        bare_sim.run(until=sim.now)
        assert ([bare.chip_next_free(i) for i in range(geo.n_chips)]
                == [ssd.chip_next_free(i) for i in range(geo.n_chips)])
        assert bare._pending == []

    def driver():
        for kind, where, pages, gap in ops:
            _issue(ssd, kind, where, pages)
            bare_sim.run(until=sim.now)
            _issue(bare, kind, where, pages)
            yield gap
            sample()

    sim.process(driver())
    sim.run()
    sample()
