"""Degenerate-parameter oracles: a strategy whose extra machinery can never
fire (deadline, hedge delay, timeout or tie delay at infinity) must
reproduce the Base line op for op on a fresh same-seed simulator.

Each case also runs the strategy at a finite value and checks that it
differs from Base, so the oracle cannot pass because the parameter is
ignored.
"""

import math

import pytest

from repro._units import MS, SEC
from repro.experiments import fig7, fig8, fig13
from repro.experiments.common import run_ec2_disk_line
from repro.kernel.syscall import OsParams
from repro.sim import Simulator

INF = math.inf


def _disk(name, deadline_us=None, sf=1, **strategy_kwargs):
    return run_ec2_disk_line(Simulator(seed=7), name,
                             deadline_us=deadline_us,
                             n_nodes=9, n_clients=6, n_ops=120,
                             horizon_us=60 * SEC, scale_factor=sf,
                             strategy_kwargs=strategy_kwargs)[0]


def _disk_sf2(name, deadline_us=None):
    return _disk(name, deadline_us, sf=2)


def _ssd(name, deadline_us=None):
    params = dict(n_keys=6_000, n_ops=150, horizon_us=30 * SEC)
    return fig8._run_line(Simulator(seed=7), name, deadline_us, 1, params)


def _cache(name, deadline_us=None):
    params = dict(n_nodes=6, n_keys=3_000, n_clients=4, n_ops=150,
                  horizon_us=60 * SEC, evict_range=(0.005, 0.04))
    return fig7._run_line(Simulator(seed=7), name, deadline_us, 1, params)


def _lsm(name, deadline_us=None):
    params = dict(n_nodes=9, n_keys=6_000, n_clients=6, n_ops=120,
                  horizon_us=60 * SEC)
    return fig13._run_line(Simulator(seed=7), name, deadline_us, params)[0]


def _at_base_p95(base):
    return {"deadline_us": base.p(95) * MS}


def _param(line, name, off, on=_at_base_p95, shift_us=0.0, id=None):
    return pytest.param(line, name, off, on, shift_us, id=id)


CASES = [
    _param(_disk, "mittos", {"deadline_us": INF}, id="disk-mittos"),
    _param(_disk, "mittos", {"deadline_us": 1e12}, id="disk-mittos-1e12us"),
    _param(_disk, "hedged", {"deadline_us": INF}, id="disk-hedged"),
    _param(_disk, "appto", {"deadline_us": INF}, id="disk-appto"),
    _param(_disk, "adaptive", {"deadline_us": INF}, id="disk-adaptive"),
    _param(_disk_sf2, "mittos", {"deadline_us": INF}, id="disk-sf2-mittos"),
    _param(_ssd, "mittos", {"deadline_us": INF}, id="ssd-mittos"),
    _param(_ssd, "hedged", {"deadline_us": INF}, id="ssd-hedged"),
    _param(_cache, "hedged", {"deadline_us": INF}, id="cache-hedged"),
    # MittCache's addrcheck page-table walk (§4.4) runs on every read,
    # whatever the deadline.
    _param(_cache, "mittos", {"deadline_us": INF},
           lambda base: {"deadline_us": 0.2 * MS},
           shift_us=OsParams().addrcheck_us, id="cache-mittos"),
    _param(_lsm, "mittos", {"deadline_us": INF}, id="lsm-mittos"),
]


@pytest.mark.parametrize("line, name, off, on, shift_us", CASES)
def test_switched_off_strategy_reproduces_base(line, name, off, on,
                                               shift_us):
    base = line("base")
    disabled = line(name, **off)
    assert len(base) >= 600
    if shift_us:
        assert len(disabled) == len(base)
        assert all(abs(d - b - shift_us) <= 1e-6
                   for d, b in zip(disabled.samples, base.samples))
    else:
        assert disabled.samples == base.samples
    assert line(name, **on(base)).samples != base.samples
