"""Edge-case tests of the per-operation resilience budget (OpContext)."""

import pytest

from repro._units import MS, SEC
from repro.cluster.strategies.base import (BACKOFF_BASE_US, BACKOFF_CAP_US,
                                         OpContext)
from repro.errors import EIO
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.faults import FaultPlane, FaultSpec, MessageLoss
from repro.sim import Simulator


# -- the budget boundary -----------------------------------------------------

def test_exactly_spent_budget_is_exhausted():
    ctx = OpContext(start=100.0, budget_us=50.0)
    assert ctx.remaining_us(150.0) == 0.0
    assert ctx.exhausted(150.0)          # zero left is spent, not "one more"
    assert not ctx.exhausted(149.999)


def test_attempt_cap_reached_at_the_deadline():
    # Both limits land at once: the cap must hold even with budget left,
    # and the budget must hold even with attempts left.
    ctx = OpContext(start=0.0, budget_us=100.0, max_attempts=3)
    ctx.attempts = 3
    assert ctx.exhausted(50.0)           # cap first
    ctx.attempts = 2
    assert not ctx.exhausted(99.9)
    assert ctx.exhausted(100.0)          # budget first


def test_attempt_limit_is_min_of_timeout_and_remaining():
    ctx = OpContext(start=0.0, budget_us=100.0, rpc_timeout_us=30.0)
    assert ctx.attempt_limit_us(0.0) == 30.0       # timeout binds
    assert ctx.attempt_limit_us(80.0) == 20.0      # remaining binds
    assert ctx.attempt_limit_us(100.0) == 0.0      # nothing left
    assert ctx.attempt_limit_us(120.0) == -20.0    # already overdrawn


def test_unbounded_context_never_exhausts():
    ctx = OpContext(start=0.0)
    assert ctx.remaining_us(1e12) is None
    assert ctx.attempt_limit_us(1e12) is None
    assert not ctx.exhausted(1e12)


# -- budget exhaustion mid-backoff -------------------------------------------

def test_op_ends_with_eio_inside_the_budget_under_total_loss(sim):
    # 100% message loss: every attempt times out, the last-resort loop
    # backs off between rounds — and the backoff is clamped to the
    # remaining budget, so the op terminates with EIO at (or before) the
    # budget boundary instead of sleeping past it.
    spec = FaultSpec(message_loss=(MessageLoss(rate=1.0),),
                     rpc_timeout_us=10 * MS, op_budget_us=60 * MS,
                     max_attempts=50)
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, 3,
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    start = sim.now
    ev = strategy.get(5)
    sim.run()
    assert ev.value is EIO
    assert sim.now - start <= 60 * MS + 1e-6
    assert strategy.rpc_timeouts > 0     # it really was retrying


def test_attempt_cap_bounds_the_op_before_the_budget_does(sim):
    spec = FaultSpec(message_loss=(MessageLoss(rate=1.0),),
                     rpc_timeout_us=5 * MS, op_budget_us=10 * SEC,
                     max_attempts=4)
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, 3,
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    ev = strategy.get(5)
    sim.run()
    assert ev.value is EIO
    # 4 capped attempts at 5 ms each plus bounded backoffs: nowhere near
    # the 10 s budget.
    assert sim.now < 1 * SEC


# -- jittered backoff determinism --------------------------------------------

def _backoff_sequence(seed, n=8):
    sim = Simulator(seed=seed)
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    return [strategy._backoff_us(r) for r in range(n)]


def test_backoff_jitter_is_same_seed_deterministic():
    assert _backoff_sequence(seed=11) == _backoff_sequence(seed=11)
    assert _backoff_sequence(seed=11) != _backoff_sequence(seed=12)


def test_backoff_respects_base_doubling_and_cap():
    sim = Simulator(seed=3)
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    for round_no in range(10):
        base = min(BACKOFF_BASE_US * (2 ** round_no), BACKOFF_CAP_US)
        delay = strategy._backoff_us(round_no)
        assert base / 2 <= delay < base  # equal jitter: floored, bounded
