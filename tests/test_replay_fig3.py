"""The fig3 probe on a caller-supplied paranoid simulator.

Same-seed replay goes through ``repro.analysis.check``; these also pin
that the seed actually drives the trace and that the probe builder
accepts an external simulator.
"""

from repro._units import SEC
from repro.analysis.check import check
from repro.experiments import fig3
from repro.sim import Simulator


def test_fig3_probe_replays_identically():
    report = check(fig3.replay_scenario, seed=7, perturbations=0)
    assert report.ok, report.render()
    assert report.events > 100  # a non-trivial amount of work ran


def test_fig3_probe_seed_changes_trace():
    hashes = []
    for seed in (7, 8):
        sim = Simulator(seed=seed, paranoid=True)
        fig3.replay_scenario(sim)
        hashes.append(sim.trace_hash())
    assert hashes[0] != hashes[1]


def test_fig3_probe_nodes_accepts_external_simulator():
    sim = Simulator(seed=5, paranoid=True)
    recorders, schedules = fig3._probe_nodes(
        sim, "disk", n_nodes=2, horizon_us=1 * SEC)
    assert len(recorders) == 2 and len(schedules) == 2
    assert sim.sanitizer.events > 0
    assert any(count > 0 for count in sim.rng_draws().values())
