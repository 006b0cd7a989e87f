"""Span algebra: every recorded span set must partition its latency.

Covers the unit-level span constructors, the traced OS read paths (disk,
SSD, cache hit, fast EBUSY, MittCFQ late cancellation), client op spans,
and the whole-scenario invariant over fig3 and the faulted faultsweep
slice.  The OS, scheduler and network counters are checked against the
events their topics recorded on the same runs.
"""

import pytest

from repro._units import GB, KB, MS, SEC
from repro.devices import BlockRequest, Disk, DiskParams, IoOp, Ssd
from repro.devices.disk_profile import profile_disk
from repro.errors import is_ebusy
from repro.experiments.common import (apply_ec2_noise, build_cache_cluster,
                                      build_disk_cluster, make_strategy,
                                      run_clients)
from repro.faults import FaultPlane, FaultSpec, MessageLoss
from repro.kernel import CfqScheduler, NoopScheduler, OS, PageCache
from repro.mittos import MittCfq
from repro.obs.bus import TraceRecorder
from repro.obs.events import (IO_CANCEL, IO_SUBMIT, OS_EBUSY, OS_READ,
                              OS_WRITE, RPC_DROP, SPAN_OP, SPAN_REQUEST,
                              STAGE_CACHE, STAGE_CLIENT_OTHER,
                              STAGE_DEVICE_QUEUE, STAGE_DEVICE_SERVICE,
                              STAGE_SCHED_QUEUE, STAGE_SYSCALL)
from repro.obs.spans import (cache_hit_spans, check_span_invariant,
                             close_op_spans, ebusy_spans, request_spans,
                             spans_sum)
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel
from tests.conftest import run_process

MODEL = profile_disk(lambda s: Disk(s, DiskParams(jitter_frac=0.0,
                                                  hiccup_prob=0.0)))


# -- unit-level span constructors -------------------------------------------
def test_request_spans_partition_a_served_request():
    req = BlockRequest(IoOp.READ, 0, 4 * KB)
    req.submit_time = 10.0
    req.dispatch_time = 25.0
    req.service_start = 40.0
    req.complete_time = 100.0
    spans = request_spans(req, 100.0)
    assert spans == {STAGE_SCHED_QUEUE: 15.0, STAGE_DEVICE_QUEUE: 15.0,
                     STAGE_DEVICE_SERVICE: 60.0}
    assert check_span_invariant(spans, 90.0)


def test_request_spans_cancelled_is_all_scheduler_queue():
    req = BlockRequest(IoOp.READ, 0, 4 * KB)
    req.submit_time = 10.0
    req.cancelled = True
    spans = request_spans(req, 70.0)
    assert spans == {STAGE_SCHED_QUEUE: 60.0}


def test_request_spans_late_observation_goes_to_client_other():
    req = BlockRequest(IoOp.READ, 0, 4 * KB)
    req.submit_time = 0.0
    req.dispatch_time = 10.0
    req.service_start = 10.0
    req.complete_time = 50.0
    spans = request_spans(req, 58.0)
    assert spans[STAGE_CLIENT_OTHER] == 8.0
    assert check_span_invariant(spans, 58.0)


def test_cache_hit_and_ebusy_spans():
    spans = cache_hit_spans(2.0, 18.5)
    assert spans == {STAGE_SYSCALL: 2.0, STAGE_CACHE: 16.5}
    assert ebusy_spans(2.0) == {STAGE_SYSCALL: 2.0}


def test_close_op_spans_charges_residual():
    class Ctx:
        start = 100.0
        spans = {"network-hop": 30.0, "server": 50.0}

    spans = close_op_spans(Ctx, 200.0)
    assert spans[STAGE_CLIENT_OTHER] == 20.0
    assert check_span_invariant(spans, 100.0)


# -- traced OS read paths ---------------------------------------------------
def _traced_os(cache_pages=None, mitt=False, depth=4, device="disk"):
    rec = TraceRecorder()
    sim = Simulator(seed=2, recorder=rec)
    if device == "disk":
        dev = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                   queue_depth=depth))
        sched = CfqScheduler(sim, dev)
    else:
        dev = Ssd(sim)
        sched = NoopScheduler(sim, dev)
    predictor = MittCfq(MODEL) if mitt else None
    cache = PageCache(sim, cache_pages) if cache_pages else None
    os_ = OS(sim, dev, sched, cache=cache, predictor=predictor)
    return sim, os_, rec


def _span_events(rec):
    return rec.by_topic(SPAN_REQUEST)


def test_disk_read_span_partitions_observed_latency():
    sim, os_, rec = _traced_os()

    def gen():
        result = yield from os_.read(0, 10 * GB, 4 * KB)
        return result

    result = run_process(sim, gen())
    (ev,) = _span_events(rec)
    assert ev.fields["outcome"] == "complete"
    assert check_span_invariant(ev.fields["stages"], ev.fields["total"])
    assert abs(ev.fields["total"] - result.latency) <= 1e-6
    assert set(ev.fields["stages"]) == {STAGE_SCHED_QUEUE,
                                        STAGE_DEVICE_QUEUE,
                                        STAGE_DEVICE_SERVICE}


def test_ssd_read_span_has_zero_device_queue():
    """SSD chip queueing is modeled analytically inside service time."""
    sim, os_, rec = _traced_os(device="ssd")

    def gen():
        result = yield from os_.read(0, 10 * GB, 4 * KB)
        return result

    run_process(sim, gen())
    (ev,) = _span_events(rec)
    assert ev.fields["stages"][STAGE_DEVICE_QUEUE] == 0.0
    assert check_span_invariant(ev.fields["stages"], ev.fields["total"])


def test_cache_hit_span():
    sim, os_, rec = _traced_os(cache_pages=100)
    os_.cache.insert(0, 0, 4 * KB)

    def gen():
        result = yield from os_.read(0, 0, 4 * KB)
        return result

    result = run_process(sim, gen())
    (ev,) = _span_events(rec)
    assert ev.fields["outcome"] == "cache-hit"
    assert set(ev.fields["stages"]) == {STAGE_SYSCALL, STAGE_CACHE}
    assert check_span_invariant(ev.fields["stages"], ev.fields["total"])
    assert ev.fields["total"] == result.latency


def test_fast_ebusy_span_is_syscall_only():
    sim, os_, rec = _traced_os(mitt=True)
    for i in range(6):
        sim.process(os_.read(0, i * 10 * GB, 4096 * KB, pid=9))

    def gen():
        result = yield from os_.read(0, 500 * GB, 4 * KB, pid=1,
                                     deadline=5 * MS)
        return result

    result = run_process(sim, gen())
    assert is_ebusy(result)
    ebusy = [ev for ev in _span_events(rec)
             if ev.fields["outcome"] == "ebusy"]
    assert len(ebusy) == 1
    assert ebusy[0].fields["stages"] == {STAGE_SYSCALL:
                                         os_.params.ebusy_us}
    assert check_span_invariant(ebusy[0].fields["stages"],
                                ebusy[0].fields["total"])


def test_late_cancel_span_is_all_scheduler_queue():
    """MittCFQ bump-back: EBUSY arrives late, spent entirely queued."""
    sim, os_, rec = _traced_os(mitt=True, depth=1)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))
        ev = sim.process(os_.read(0, 700 * GB, 4 * KB, pid=1,
                                  deadline=25 * MS))
        for i in range(20):
            sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
        result = yield ev
        return result

    result = run_process(sim, gen())
    assert is_ebusy(result)
    assert os_.predictor.late_cancellations >= 1
    late = [ev for ev in _span_events(rec)
            if ev.fields["outcome"] == "late-cancel"]
    assert late
    for ev in late:
        assert set(ev.fields["stages"]) == {STAGE_SCHED_QUEUE}
        assert check_span_invariant(ev.fields["stages"], ev.fields["total"])


# -- whole-scenario invariants ----------------------------------------------
def _assert_all_spans_partition(rec):
    spans = rec.by_topic(SPAN_REQUEST) + rec.by_topic(SPAN_OP)
    assert spans, "scenario recorded no span events"
    for ev in spans:
        stages = ev.fields["stages"]
        assert check_span_invariant(stages, ev.fields["total"]), \
            f"span sum {spans_sum(stages)} != total {ev.fields['total']}: " \
            f"{ev}"
        assert all(v >= 0.0 for v in stages.values()), ev


def test_fig3_replay_spans_all_partition():
    from repro.experiments.fig3 import replay_scenario
    rec = TraceRecorder()
    sim = Simulator(seed=7, recorder=rec)
    replay_scenario(sim)
    _assert_all_spans_partition(rec)


def test_chaos_replay_spans_all_partition():
    """Faulted scenario: timeouts, backoff, failover hops — still exact."""
    from repro.experiments.faultsweep import race_scenario
    rec = TraceRecorder()
    sim = Simulator(seed=7, recorder=rec)
    race_scenario(sim)
    _assert_all_spans_partition(rec)
    ops = rec.by_topic(SPAN_OP)
    assert ops
    # The faulted slice forces retries: some op must show failover time.
    assert any("failover-hop" in ev.fields["stages"] or
               "timeout-wait" in ev.fields["stages"] for ev in ops)


def test_traced_runs_are_deterministic():
    """Same seed, same scenario -> byte-identical trace and event hash."""
    from repro.experiments.faultsweep import race_scenario

    def run():
        rec = TraceRecorder()
        sim = Simulator(seed=7, paranoid=True, recorder=rec)
        race_scenario(sim)
        return rec.trace_digest(), sim.trace_hash(), rec.count

    assert run() == run()


def test_tracing_does_not_change_simulation_outcomes():
    """A recorder observes; it must never steer.  Counters and latencies
    of a traced run match the untraced run exactly."""
    def run(recorder):
        sim = Simulator(seed=13, recorder=recorder)
        env = build_disk_cluster(sim, 3)
        strategy = make_strategy("mittos", env.cluster,
                                 deadline_us=20 * MS)
        rec = run_clients(env, strategy, n_clients=3, n_ops=15,
                          think_time_us=2 * MS, name="t",
                          limit_us=5 * SEC)
        return (sorted(rec.samples), strategy.failovers,
                [n.os.reads for n in env.nodes],
                [n.os.ebusy_returned for n in env.nodes],
                [n.os.scheduler.submitted for n in env.nodes])

    assert run(None) == run(TraceRecorder())


# -- counters against the trace ---------------------------------------------
#: (owner, counter, topic it counts, only events with ``probe`` set)
COUNTERS = [
    ("os", "reads", OS_READ, False),
    ("os", "writes", OS_WRITE, False),
    ("os", "ebusy_returned", OS_EBUSY, False),
    ("os", "addrcheck_ebusy", OS_EBUSY, True),
    ("scheduler", "submitted", IO_SUBMIT, False),
    ("scheduler", "cancelled", IO_CANCEL, False),
    ("network", "dropped", RPC_DROP, False),
]


def _cluster_owners(env):
    oses = [node.os for node in env.nodes]
    return {"os": oses, "scheduler": [os_.scheduler for os_ in oses],
            "network": [env.cluster.network]}


def _faulted_disk_cluster():
    """Message loss, EC2 noise and MittOS failovers: reads, submits,
    read-path EBUSYs and drops."""
    rec = TraceRecorder()
    sim = Simulator(seed=11, recorder=rec)
    horizon = 20 * SEC
    env = build_disk_cluster(sim, 6)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), horizon)
    FaultPlane(sim, FaultSpec(message_loss=(MessageLoss(rate=0.1),))).arm(
        env.cluster)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    run_clients(env, strategy, n_clients=6, n_ops=60, think_time_us=2 * MS,
                name="mittos", limit_us=horizon)
    return rec, _cluster_owners(env)


def _evicting_cache_cluster():
    """fig7's MittCache line under heavy eviction: addrcheck probes."""
    rec = TraceRecorder()
    sim = Simulator(seed=7, recorder=rec)
    env = build_cache_cluster(sim, 6, n_keys=3_000)
    for injector in env.injectors:
        injector.periodic_cache_eviction(fraction=0.3, period_us=200 * MS,
                                         until_us=1 * SEC)
    strategy = make_strategy("mittos", env.cluster, deadline_us=0.2 * MS)
    run_clients(env, strategy, n_clients=4, n_ops=100, think_time_us=2 * MS,
                name="mittos", limit_us=1 * SEC, stagger_us=17.0)
    return rec, _cluster_owners(env)


def _bump_back_stack():
    """A MittCFQ late cancellation plus one buffered write."""
    sim, os_, rec = _traced_os(mitt=True, depth=1)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))
        ev = sim.process(os_.read(0, 800 * GB, 4 * KB, pid=1,
                                  deadline=20 * MS))
        for i in range(15):
            sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
        sim.process(os_.write(0, 0, 4 * KB))
        result = yield ev
        return result

    assert is_ebusy(run_process(sim, gen()))
    return rec, {"os": [os_], "scheduler": [os_.scheduler], "network": []}


@pytest.fixture(scope="module")
def counter_cases():
    return {case.__name__: case() for case in (
        _faulted_disk_cluster, _evicting_cache_cluster, _bump_back_stack)}


@pytest.mark.parametrize("owner,counter,topic,probe_only", COUNTERS,
                         ids=[f"{o}.{c}" for o, c, _, _ in COUNTERS])
def test_counters_match_recorded_events(counter_cases, owner, counter,
                                        topic, probe_only):
    """Each counter, summed over its owners, equals the number of events
    its topic recorded; every counter is nonzero in some case."""
    totals = []
    for name, (rec, owners) in counter_cases.items():
        total = sum(getattr(obj, counter) for obj in owners[owner])
        recorded = sum(1 for ev in rec.by_topic(topic)
                       if not probe_only or ev.fields["probe"])
        assert total == recorded, f"{name}: {owner}.{counter}"
        totals.append(total)
    assert any(totals), f"{owner}.{counter} is zero in every case"
