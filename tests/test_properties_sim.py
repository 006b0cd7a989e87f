"""Property-based tests of the DES kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ShuffledTies, Simulator
from repro.sim.core import _COMPACT_FLOOR


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1,
                       max_size=50))
def test_callbacks_run_in_nondecreasing_time_order(delays):
    sim = Simulator(seed=0)
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1,
                       max_size=30),
       cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
def test_cancelled_callbacks_never_run(delays, cancel_mask):
    sim = Simulator(seed=0)
    fired = []
    handles = []
    for i, d in enumerate(delays):
        handles.append(sim.schedule(d, lambda i=i: fired.append(i)))
    cancelled = set()
    for i, (h, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            sim.cancel(h)
            cancelled.add(i)
    sim.run()
    assert set(fired).isdisjoint(cancelled)
    assert len(fired) == len(delays) - len(set(fired) & set()) - len(
        [i for i in cancelled if i < len(delays)])


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       salt=st.none() | st.integers(min_value=0, max_value=999))
def test_cancel_heavy_interleavings_run_the_live_callbacks_in_order(data,
                                                                     salt):
    """Random schedule / schedule_at / cancel / run(until) interleavings,
    with enough cancels to compact the heap, run exactly the callbacks
    still live, in (time, tie, seq) order, under FIFO and shuffled ties.
    Cancels also hit entries already cancelled or already run."""
    policy = None if salt is None else ShuffledTies(salt)
    sim = Simulator(tie_policy=policy)
    entries, ran = [], []
    live = {}  # seq -> (time, tie, seq) of each entry neither run nor cancelled
    compacted = False

    def schedule(delay, absolute):
        seq = len(entries)
        if absolute:
            entry = sim.schedule_at(sim.now + delay, ran.append, seq)
        else:
            entry = sim.schedule(delay, ran.append, seq)
        entries.append(entry)
        live[seq] = (sim.now + delay, seq if policy is None
                     else policy.key(seq), seq)

    def cancel(seq):
        nonlocal compacted
        size = len(sim._heap)
        sim.cancel(entries[seq])
        compacted |= len(sim._heap) < size
        live.pop(seq, None)
        assert sim._dead == sum(e[3] is None for e in sim._heap)

    def run(until):
        due = sorted(key for key in live.values()
                     if until is None or key[0] <= until)
        for key in due:
            del live[key[2]]
        start = len(ran)
        sim.run(until=until)
        assert ran[start:] == [seq for _time, _tie, seq in due]

    delays = data.draw(st.lists(st.integers(min_value=0, max_value=2000),
                                min_size=2 * _COMPACT_FLOOR,
                                max_size=3 * _COMPACT_FLOOR))
    for i, delay in enumerate(delays):
        schedule(delay, i % 2 == 1)
    steps = data.draw(st.lists(
        st.tuples(st.sampled_from(("schedule", "schedule_at", "cancel",
                                   "cancel", "run")),
                  st.integers(min_value=0, max_value=10**6)),
        max_size=3 * _COMPACT_FLOOR))
    for kind, arg in steps:
        if kind == "run":
            run(sim.now + arg % 20)
        elif kind == "cancel":
            cancel(arg % len(entries))
        else:
            schedule(arg % 2000, kind == "schedule_at")
    # Cancel three in four of the entries still live: dead entries now
    # outnumber live ones, so the heap compacts with live entries left.
    for i, seq in enumerate(sorted(live)):
        if i % 4:
            cancel(seq)
    run(None)
    assert compacted
    assert not live


@given(values=st.lists(st.integers(), min_size=1, max_size=20))
def test_all_of_preserves_order_and_values(values):
    sim = Simulator(seed=0)
    rng = sim.rng("shuffle")
    events = [sim.timeout(rng.uniform(0, 100), value=v) for v in values]
    combo = sim.all_of(events)
    sim.run()
    assert combo.value == values


@given(delays=st.lists(st.floats(min_value=0.1, max_value=100.0),
                       min_size=1, max_size=20))
def test_any_of_returns_earliest(delays):
    sim = Simulator(seed=0)
    events = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
    combo = sim.any_of(events)
    sim.run()
    idx, value = combo.value
    assert idx == value
    assert delays[idx] == min(delays)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25)
def test_replay_determinism_for_any_seed(seed):
    def trace(s):
        sim = Simulator(seed=s)
        log = []

        def proc():
            rng = sim.rng("p")
            for _ in range(10):
                yield sim.timeout(rng.uniform(0, 10))
                log.append(sim.now)

        sim.process(proc())
        sim.run()
        return log

    assert trace(seed) == trace(seed)


@given(ops=st.lists(st.sampled_from(["acquire", "release"]), min_size=1,
                    max_size=60),
       slots=st.integers(min_value=1, max_value=8))
def test_semaphore_invariants(ops, slots):
    from repro.sim.resources import Semaphore
    sim = Simulator(seed=0)
    sem = Semaphore(sim, slots)
    held = 0
    for op in ops:
        if op == "acquire":
            sem.acquire()
            held += 1
        elif held > 0 and sem.in_use > 0:
            sem.release()
            held -= 1
        assert 0 <= sem.in_use <= slots
        assert sem.queued == max(0, held - slots)
