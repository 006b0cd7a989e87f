"""Runtime replay sanitizer: paranoid mode, trace hashing, verify_replay."""

import heapq

import pytest

from repro.analysis import verify_replay
from repro.errors import DeterminismError, SimulationError
from repro.sim import Simulator
from repro.sim.core import Handle
from repro.sim.sanitizer import CountingRandom, callback_qualname


def little_workload(sim):
    def worker(name):
        rng = sim.rng(name)
        for _ in range(10):
            yield sim.timeout(rng.uniform(1, 10))

    sim.process(worker("a"))
    sim.process(worker("b"))


def test_same_seed_same_trace_hash():
    hashes = []
    for _ in range(2):
        sim = Simulator(seed=11, paranoid=True)
        little_workload(sim)
        sim.run()
        hashes.append(sim.trace_hash())
    assert hashes[0] == hashes[1]


def test_different_seed_different_trace_hash():
    traces = []
    for seed in (1, 2):
        sim = Simulator(seed=seed, paranoid=True)
        little_workload(sim)
        sim.run()
        traces.append(sim.trace_hash())
    assert traces[0] != traces[1]


def test_trace_records_time_seq_and_qualname():
    sim = Simulator(paranoid=True)
    log = []
    sim.schedule(5, log.append, "x")
    sim.run()
    assert log == ["x"]
    (time, seq, qual), = sim.sanitizer.trace
    assert time == 5 and seq == 0
    assert "append" in qual


def test_cancelled_events_do_not_enter_the_trace():
    sim = Simulator(paranoid=True)
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    sim.schedule(20, lambda: None)
    sim.run()
    assert sim.sanitizer.events == 1


def test_rng_draw_counts_per_stream():
    sim = Simulator(paranoid=True)
    sim.rng("a").random()
    sim.rng("a").uniform(0, 1)
    sim.rng("b").randrange(100)
    assert sim.rng_draws() == {"a": 2, "b": 1}


def test_counting_random_matches_plain_random_values():
    import random
    plain, counting = random.Random("s"), CountingRandom("s")
    assert [plain.uniform(0, 1) for _ in range(5)] == \
           [counting.uniform(0, 1) for _ in range(5)]
    assert plain.randrange(1000) == counting.randrange(1000)
    assert counting.draws >= 6


def test_paranoid_apis_require_paranoid_mode():
    sim = Simulator()
    assert sim.sanitizer is None
    with pytest.raises(SimulationError):
        sim.trace_hash()
    with pytest.raises(SimulationError):
        sim.rng_draws()


def test_heap_tampering_raises_determinism_error():
    sim = Simulator(paranoid=True)
    sim.schedule(100, lambda: None)
    sim.run(until=100)
    # Simulate the DET005 hazard: a foreign heap push into the past
    # (heap entries are (time, tie, seq, handle) tuples).
    handle = Handle(5.0, 999, 999, lambda: None, ())
    heapq.heappush(sim._heap, (5.0, 999, 999, handle))
    with pytest.raises(DeterminismError):
        sim.run()


def test_callback_qualname_fallback_for_odd_callables():
    class Callable:
        def __call__(self):
            pass

    assert callback_qualname(Callable()) == "Callable"
    assert "little_workload" in callback_qualname(little_workload)


def test_verify_replay_ok_on_deterministic_scenario():
    report = verify_replay(little_workload, seed=3)
    assert report.ok
    assert report.hashes[0] == report.hashes[1]
    assert report.events[0] == report.events[1] > 0
    assert report.rng_draws[0] == {"a": 10, "b": 10}
    assert "replay OK" in report.render()


def test_verify_replay_pinpoints_first_divergence():
    calls = {"n": 0}

    def flaky(sim):
        # Deliberately nondeterministic: hidden state outside the sim
        # changes the schedule between runs.
        calls["n"] += 1
        sim.schedule(1, lambda: None)
        if calls["n"] > 1:
            sim.schedule(0.5, lambda: None)
        rng = sim.rng("w")
        for _ in range(calls["n"]):
            sim.schedule(rng.uniform(2, 4), lambda: None)

    report = verify_replay(flaky, seed=9)
    assert not report.ok
    assert report.hashes[0] != report.hashes[1]
    assert report.divergence is not None
    assert report.divergence.index == 0  # the 0.5 µs event runs first
    assert report.draw_mismatches == {"w": (1, 2)}
    assert "first divergence at event #0" in report.render()


def test_verify_replay_detects_trace_length_divergence():
    calls = {"n": 0}

    def growing(sim):
        calls["n"] += 1
        for i in range(calls["n"]):
            sim.schedule(i + 1, lambda: None)

    report = verify_replay(growing, seed=0)
    assert not report.ok
    assert report.divergence.index == 1
    assert report.divergence.first is None
    assert report.divergence.second is not None


def test_verify_replay_respects_until():
    def scenario(sim):
        sim.schedule(10, lambda: None)
        sim.schedule(1000, lambda: None)

    report = verify_replay(scenario, seed=0, until=100)
    assert report.ok and report.events == (1, 1)
