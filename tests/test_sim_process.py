"""Tests of generator processes."""

from tests.conftest import run_process


def test_process_returns_value(sim):
    def gen():
        yield 10
        return 99

    assert run_process(sim, gen()) == 99


def test_process_yield_number_is_timeout(sim):
    def gen():
        yield 15
        return sim.now

    assert run_process(sim, gen()) == 15


def test_process_waits_for_event_value(sim):
    ev = sim.timeout(5, value="payload")

    def gen():
        got = yield ev
        return got

    assert run_process(sim, gen()) == "payload"


def test_nested_processes_compose(sim):
    def child():
        yield 5
        return 7

    def parent():
        v = yield sim.process(child())
        return v * 2

    assert run_process(sim, parent()) == 14


def test_yield_non_waitable_fails_process(sim):
    def gen():
        yield "nope"

    proc = sim.process(gen())
    proc.add_callback(lambda e: None)
    sim.run()
    assert not proc.ok
    assert isinstance(proc.exception, TypeError)


def test_exception_propagates_to_waiter(sim):
    def child():
        yield 1
        raise KeyError("missing")

    def parent():
        try:
            yield sim.process(child())
        except KeyError:
            return "handled"

    assert run_process(sim, parent()) == "handled"


def test_process_first_step_is_deferred(sim):
    """The creator can attach callbacks before any process code runs."""
    order = []

    def gen():
        order.append("body")
        yield 0
        return None

    proc = sim.process(gen())
    order.append("creator")
    proc.add_callback(lambda e: order.append("done"))
    sim.run()
    assert order == ["creator", "body", "done"]
