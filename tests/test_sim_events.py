"""Tests of events and combinators."""

import pytest

from repro.errors import SimulationError


def test_event_lifecycle(sim):
    ev = sim.event()
    assert not ev.triggered
    ev.succeed(5)
    assert ev.triggered and ev.ok and ev.value == 5


def test_event_value_before_trigger_raises(sim):
    with pytest.raises(SimulationError):
        sim.event().value


def test_double_trigger_raises(sim):
    ev = sim.event().succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_failed_event_value_reraises(sim):
    ev = sim.event()
    ev.add_callback(lambda e: None)  # someone is listening
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        ev.value


def test_callback_after_trigger_runs_immediately(sim):
    ev = sim.event().succeed("v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_callbacks_run_in_registration_order(sim):
    ev = sim.event()
    order = []
    for i in range(5):
        ev.add_callback(lambda e, i=i: order.append(i))
    ev.succeed()
    assert order == [0, 1, 2, 3, 4]


def test_all_of_collects_values_in_order(sim):
    events = [sim.timeout(30, "a"), sim.timeout(10, "b"),
              sim.timeout(20, "c")]
    combo = sim.all_of(events)
    sim.run()
    assert combo.value == ["a", "b", "c"]


def test_all_of_empty_succeeds_immediately(sim):
    assert sim.all_of([]).value == []


def test_all_of_fails_fast(sim):
    bad = sim.event()
    combo = sim.all_of([sim.timeout(100), bad])
    combo.add_callback(lambda e: None)
    bad.fail(ValueError("x"))
    assert combo.triggered and not combo.ok


def test_all_of_rejects_duplicate_children(sim):
    ev = sim.timeout(10, "a")
    with pytest.raises(ValueError):
        sim.all_of([ev, sim.timeout(20), ev])


def test_any_of_returns_first_with_index(sim):
    events = [sim.timeout(30, "slow"), sim.timeout(10, "fast")]
    combo = sim.any_of(events)
    sim.run()
    assert combo.value == (1, "fast")


def test_any_of_empty_raises(sim):
    with pytest.raises(ValueError):
        sim.any_of([])


def test_any_of_rejects_duplicate_children(sim):
    ev = sim.timeout(10, "a")
    with pytest.raises(ValueError):
        sim.any_of([ev, ev])


def test_any_of_fails_only_when_all_fail(sim):
    a, b = sim.event(), sim.event()
    combo = sim.any_of([a, b])
    combo.add_callback(lambda e: None)
    a.fail(ValueError("a"))
    assert not combo.triggered
    b.fail(ValueError("b"))
    assert combo.triggered and not combo.ok


def test_any_of_after_one_done_ignores_later(sim):
    a, b = sim.timeout(5, "a"), sim.timeout(6, "b")
    combo = sim.any_of([a, b])
    sim.run()
    assert combo.value == (0, "a")
    assert b.triggered  # the loser still completed harmlessly
