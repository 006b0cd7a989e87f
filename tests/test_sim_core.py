"""Tests of the simulator event loop."""

import pytest

from repro.errors import ProcessCrashed, SchedulingInPastError
from repro.sim import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_in_time_order(sim):
    log = []
    sim.schedule(30, log.append, "c")
    sim.schedule(10, log.append, "a")
    sim.schedule(20, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_equal_times_run_in_scheduling_order(sim):
    log = []
    for name in "abcde":
        sim.schedule(5, log.append, name)
    sim.run()
    assert log == list("abcde")


def test_schedule_in_past_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SchedulingInPastError):
        sim.schedule_at(5, lambda: None)


def test_cancel_prevents_execution(sim):
    log = []
    handle = sim.schedule(10, log.append, "x")
    sim.schedule(5, sim.cancel, handle)
    sim.run()
    assert log == []


def test_run_until_limit_advances_clock(sim):
    sim.schedule(100, lambda: None)
    sim.run(until=50)
    assert sim.now == 50
    sim.run()
    assert sim.now == 100


def test_run_on_empty_heap_only_moves_the_clock(sim):
    sim.run()
    assert sim.now == 0
    log = []
    sim.schedule(1, log.append, "x")
    sim.run(until=5)
    assert log == ["x"] and sim.now == 5
    sim.run(until=10)
    assert log == ["x"] and sim.now == 10


def test_event_at_exactly_until_runs(sim):
    log = []
    sim.schedule(50, log.append, "edge")
    sim.schedule(51, log.append, "late")
    sim.run(until=50)
    assert log == ["edge"]
    assert sim.now == 50


def test_event_at_exactly_limit_runs_and_triggers(sim):
    done = sim.event()
    sim.schedule(50, done.succeed)
    sim.schedule(51, lambda: None)
    assert sim.run_until(done, limit=50) is True
    assert sim.now == 50


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=7).rng("x").random()
    a2 = Simulator(seed=7).rng("x").random()
    b = Simulator(seed=7).rng("y").random()
    c = Simulator(seed=8).rng("x").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rng_same_name_returns_same_stream(sim):
    assert sim.rng("z") is sim.rng("z")


def test_timeout_event(sim):
    ev = sim.timeout(25, value="done")
    sim.run()
    assert ev.triggered and ev.value == "done"
    assert sim.now == 25


def test_run_until_event(sim):
    ev = sim.timeout(40)
    sim.schedule(100, lambda: None)
    assert sim.run_until(ev) is True
    assert sim.now == 40


def test_run_until_event_with_limit(sim):
    ev = sim.timeout(500)
    assert sim.run_until(ev, limit=100) is False


def test_unhandled_process_failure_raises(sim):
    def boom():
        yield 5
        raise ValueError("kaput")

    sim.process(boom())
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_handled_process_failure_does_not_raise(sim):
    def boom():
        yield 5
        raise ValueError("kaput")

    def watcher():
        try:
            yield sim.process(boom())
        except ValueError:
            return "caught"

    proc = sim.process(watcher())
    sim.run()
    assert proc.value == "caught"


def test_identical_seeds_replay_identically():
    def trace(seed):
        sim = Simulator(seed=seed)
        log = []

        def worker():
            rng = sim.rng("w")
            for _ in range(20):
                yield sim.timeout(rng.uniform(1, 10))
                log.append(round(sim.now, 6))

        sim.process(worker())
        sim.run()
        return log

    assert trace(3) == trace(3)
    assert trace(3) != trace(4)
