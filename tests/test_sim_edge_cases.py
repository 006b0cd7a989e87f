"""Simulator edge cases: cancellation, defuse, tiebreaks, past scheduling."""

import pytest

from repro.errors import ProcessCrashed, SchedulingInPastError
from repro.sim import Simulator


# -- cancelled-handle skipping ---------------------------------------------

def test_run_until_skips_cancelled_handles(sim):
    log = []
    doomed = sim.schedule(5, log.append, "doomed")
    doomed.cancel()
    ev = sim.timeout(10, value="done")
    assert sim.run_until(ev) is True
    assert log == [] and sim.now == 10


def test_run_until_with_cancelled_handle_at_heap_top_and_limit(sim):
    stale = sim.schedule(50, lambda: None)
    ev = sim.timeout(200)
    stale.cancel()
    # Top of heap (cancelled, t=50) is under the limit; the event is not.
    assert sim.run_until(ev, limit=100) is False
    assert not ev.triggered


def test_cancel_is_idempotent_and_run_survives_all_cancelled(sim):
    handles = [sim.schedule(i, lambda: None) for i in range(3)]
    for handle in handles:
        handle.cancel()
        handle.cancel()
    sim.run()
    assert sim.now == 0.0  # nothing executed, clock never advanced


def test_cancel_drops_callback_references(sim):
    log = []
    handle = sim.schedule(1, log.append, "x")
    handle.cancel()
    assert handle.fn is None and handle.args == ()


# -- defuse crash-dropping --------------------------------------------------

def test_defuse_drops_a_reported_crash(sim):
    ev = sim.event()
    sim.schedule(1, ev.fail, ValueError("boom"))
    sim.schedule(1, lambda: sim.defuse(ev))
    with pytest.raises(ProcessCrashed):
        sim.run()  # defuse ran in a later event; crash already raised


def test_defuse_before_crash_check_suppresses_raise(sim):
    ev = sim.event()

    def fail_and_defuse():
        ev.fail(ValueError("boom"))
        sim.defuse(ev)

    sim.schedule(1, fail_and_defuse)
    sim.run()  # no ProcessCrashed: defused within the same event
    assert ev.triggered and not ev.ok


def test_defuse_only_drops_the_named_event(sim):
    first, second = sim.event(), sim.event()

    def fail_both():
        first.fail(ValueError("a"))
        second.fail(ValueError("b"))
        sim.defuse(first)

    sim.schedule(1, fail_both)
    with pytest.raises(ProcessCrashed, match="b"):
        sim.run()


# -- equal-time tiebreak ordering ------------------------------------------

def test_equal_time_events_interleave_in_scheduling_order(sim):
    log = []
    sim.schedule(10, log.append, "first")
    sim.schedule(5, log.append, "early")
    sim.schedule(10, log.append, "second")
    sim.schedule(10, log.append, "third")
    sim.run()
    assert log == ["early", "first", "second", "third"]


def test_zero_delay_events_scheduled_during_run_preserve_order(sim):
    log = []

    def spawn():
        sim.schedule(0, log.append, "child-a")
        sim.schedule(0, log.append, "child-b")

    sim.schedule(1, spawn)
    sim.schedule(1, log.append, "sibling")
    sim.run()
    # Children run after the already-queued sibling at the same time.
    assert log == ["sibling", "child-a", "child-b"]


# -- SchedulingInPastError ---------------------------------------------------

def test_schedule_at_now_is_allowed(sim):
    sim.schedule(7, lambda: None)
    sim.run()
    handle = sim.schedule_at(sim.now, lambda: None)
    assert handle.time == sim.now


def test_schedule_at_past_raises_with_context(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SchedulingInPastError, match="5.*now 10"):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SchedulingInPastError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_from_callback_raises():
    sim = Simulator()

    def rogue():
        sim.schedule_at(sim.now - 1, lambda: None)

    sim.schedule(5, rogue)
    with pytest.raises(SchedulingInPastError):
        sim.run()
