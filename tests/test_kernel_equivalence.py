"""Behavioural kernel goldens — the safety net under kernel refactors.

The sim kernel (run loop, fused timer paths, heap layout) is pure
mechanism: it must never change *what* a simulation computes, only how
fast.  This suite pins that contract to behavioural goldens: for each
registered scenario x seed x tie-policy cell it asserts

* the raw TraceBus digest (every recorded event, in emission order),
* the canonical bus timeline digest (events grouped by timestamp,
  sorted within each group, volatile identity counters dropped — the
  view ``repro.analysis.check`` compares), and
* per-stream RNG draw counts

are unchanged, including under ``ShuffledTies`` salts, so a refactor
cannot hide a behaviour change behind the FIFO tie-break.  Per-op
outcome and latency ride the bus as ``span.op`` events, so they are
pinned too.  Kernel internals — callback names, the number of executed
heap events — are deliberately *not* part of the contract.

Regenerate (only for an *intentional* behaviour change, never to paper
over a kernel-refactor diff)::

    PYTHONPATH=src python tests/test_kernel_equivalence.py regen
"""

import json
import os

import pytest

from repro._units import MS, SEC
from repro.experiments.common import (apply_ec2_noise, build_disk_cluster,
                                      make_strategy, run_clients)
from repro.experiments.registry import SCENARIOS, get_scenario
from repro.obs.bus import (TraceRecorder, canonical_line, canonical_timeline,
                           timeline_digest)
from repro.sim import ShuffledTies, Simulator
from repro.workloads import Ec2NoiseModel

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                            "kernel_goldens.json")

#: (scenario id, seed, salt) cells; salt None = FIFO tie-break.
CELLS = [
    ("fig3", 7, None),
    ("fig3", 7, 3),
    ("fig3", 11, None),
    ("faultsweep", 7, None),
    ("faultsweep", 7, 1),
    ("faultsweep", 7, 2),
    ("faultsweep", 11, None),
    ("slosweep", 7, None),
    ("slosweep", 7, 5),
    # FIFO only: ShuffledTies keys hash the scheduling seq, and how many
    # seqs the SSD model consumes is an implementation detail.
    ("fig3-ssd", 7, None),
    ("fig8", 7, None),
    ("fig7", 7, None),
    ("fig3-accuracy", 7, None),
    ("fig10", 7, None),
    ("table1", 7, None),
    ("tails", 7, None),
]


def _cell_key(scenario_id, seed, salt):
    return f"{scenario_id}/seed={seed}/salt={salt}"


def _capture(scenario_id, seed, salt):
    """One cell's observable behaviour, as a JSON-stable dict."""
    policy = None if salt is None else ShuffledTies(salt)
    recorder = TraceRecorder()
    sim = Simulator(seed=seed, paranoid=True, recorder=recorder,
                    tie_policy=policy)
    get_scenario(scenario_id)(sim)
    sim.run()
    return {
        "bus_digest": recorder.trace_digest(),
        "canonical_digest": timeline_digest(canonical_timeline(
            (event.time, canonical_line(event)) for event in recorder.events)),
        "rng_draws": sim.rng_draws(),
    }


def load_goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


@pytest.mark.parametrize("scenario_id,seed,salt", CELLS,
                         ids=[_cell_key(*cell) for cell in CELLS])
def test_kernel_matches_prerefactor_golden(goldens, scenario_id, seed, salt):
    key = _cell_key(scenario_id, seed, salt)
    want = goldens[key]
    got = _capture(scenario_id, seed, salt)
    assert got["rng_draws"] == want["rng_draws"], \
        f"{key}: per-stream RNG draw counts drifted"
    assert got["canonical_digest"] == want["canonical_digest"], \
        f"{key}: canonical bus timeline diverged from the golden"
    assert got["bus_digest"] == want["bus_digest"], \
        f"{key}: raw TraceBus stream diverged"


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_untraced_run_behaves_like_traced(scenario_id):
    """The NullRecorder fast paths (e.g. ``network.send`` returning a
    bare latency) must not change what an un-traced run computes, and
    recording must not add kernel work: both runs execute as many heap
    events."""
    ends = []
    for recorder in (None, TraceRecorder()):
        sim = Simulator(seed=7, paranoid=True, recorder=recorder)
        get_scenario(scenario_id)(sim)
        sim.run()
        ends.append((sim.now, sim.rng_draws(), sim.sanitizer.events))
    assert ends[0] == ends[1]


def test_noisy_cluster_counters_unchanged():
    """Seed-11 noisy 5-node MittOS cluster: the OS, scheduler, predictor
    and strategy counters, plus per-stream RNG draws, pinned."""
    sim = Simulator(seed=11, paranoid=True)
    horizon = 20 * SEC
    env = build_disk_cluster(sim, 5)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), horizon)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    rec = run_clients(env, strategy, n_clients=6, n_ops=60,
                      think_time_us=2 * MS, name="mittos",
                      limit_us=horizon)

    assert len(rec) == 360
    assert round(rec.p(50), 6) == 8.561593
    assert round(rec.p(99), 6) == 22.900999
    assert [n.os.ebusy_returned for n in env.nodes] == [0, 0, 42, 8, 2]
    assert [n.os.reads for n in env.nodes] == [78, 68, 79, 111, 76]
    assert [n.os.writes for n in env.nodes] == [0, 0, 0, 0, 0]
    assert [n.os.scheduler.submitted for n in env.nodes] == \
        [78, 68, 65, 103, 74]
    assert [n.os.scheduler.cancelled for n in env.nodes] == [0, 0, 0, 0, 0]
    assert [n.os.predictor.admitted for n in env.nodes] == \
        [78, 68, 37, 103, 71]
    assert [n.os.predictor.rejected for n in env.nodes] == [0, 0, 42, 8, 2]
    assert [n.os.predictor.late_cancellations for n in env.nodes] == \
        [0, 0, 0, 0, 0]
    assert strategy.failovers == 52
    assert strategy.all_busy == 3
    assert sim.rng_draws() == {
        "disk/n0": 156, "disk/n1": 136, "disk/n2": 128, "disk/n3": 207,
        "disk/n4": 149, "ec2": 37, "keys/0": 102, "keys/1": 103,
        "keys/2": 94, "keys/3": 97, "keys/4": 87, "keys/5": 95,
        "network": 824, "noise/n0": 0, "noise/n1": 0, "noise/n2": 33,
        "noise/n3": 0, "noise/n4": 0,
    }


def regen():
    payload = {}
    for cell in CELLS:
        key = _cell_key(*cell)
        payload[key] = _capture(*cell)
        print(f"{key}: {payload[key]['canonical_digest']}")
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[goldens -> {GOLDENS_PATH}]")


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        regen()
    else:
        print(__doc__)
