"""Tests of error injection (§7.7)."""

import random

import pytest

from repro.mittos import FaultInjector


def test_rates_validated():
    with pytest.raises(ValueError):
        FaultInjector(random.Random(1), false_negative_rate=1.5)


def test_no_rates_is_identity():
    inj = FaultInjector(random.Random(1))
    assert inj.apply(True) is True
    assert inj.apply(False) is False


def test_full_false_negative_lets_everything_through():
    inj = FaultInjector(random.Random(1), false_negative_rate=1.0)
    assert all(inj.apply(False) for _ in range(100))
    assert inj.injected_fn == 100


def test_full_false_positive_rejects_everything():
    inj = FaultInjector(random.Random(1), false_positive_rate=1.0)
    assert not any(inj.apply(True) for _ in range(100))
    assert inj.injected_fp == 100


def test_partial_rates_are_approximate():
    inj = FaultInjector(random.Random(1), false_positive_rate=0.2)
    flips = sum(0 if inj.apply(True) else 1 for _ in range(5000))
    assert 800 < flips < 1200


def test_fn_rate_does_not_touch_accepts():
    inj = FaultInjector(random.Random(1), false_negative_rate=1.0)
    assert all(inj.apply(True) for _ in range(100))
    assert inj.injected_fn == 0


def _fig10_line(kind, deadline_us=None, cancel_bumped=True):
    """A small fig10-style line: 9 MittCFQ nodes under EC2 disk noise,
    6 clients x 120 ops, seed 7.  ``kind`` None is Base; "fn" is MittOS
    with every would-be EBUSY at admission flipped to an accept."""
    from repro._units import MS, SEC
    from repro.experiments.common import (apply_ec2_noise,
                                          build_disk_cluster, make_strategy,
                                          run_clients)
    from repro.sim import Simulator
    from repro.workloads import Ec2NoiseModel

    sim = Simulator(seed=7)
    fault = None
    if kind == "fn":
        fault = FaultInjector(sim.rng("faults"), false_negative_rate=1.0)
    env = build_disk_cluster(sim, 9, fault_injector=fault,
                             cancel_bumped=cancel_bumped)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), 60 * SEC)
    name = "base" if kind is None else "mittos"
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    return run_clients(env, strategy, 6, 120, think_time_us=6 * MS,
                       name=name, limit_us=60 * SEC)


def test_full_false_negatives_reach_base_only_without_bump_backs():
    """fn@100% flips every admission-time EBUSY, but MittCFQ's late
    bump-back EBUSYs never pass through the injector: with bump-backs
    off the line is Base sample for sample, with them on it is not."""
    from repro._units import MS

    base = _fig10_line(None)
    deadline = base.p(95) * MS
    no_bumps = _fig10_line("fn", deadline, cancel_bumped=False)
    with_bumps = _fig10_line("fn", deadline)
    assert len(base) == 720
    assert no_bumps.samples == base.samples
    assert with_bumps.samples != base.samples
