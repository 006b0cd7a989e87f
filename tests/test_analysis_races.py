"""The determinism gate (``repro.analysis.check``): every registered
scenario passes, each planted defect fails the part that names it
(replay, tracing, schema or ties), plus the tie-break knob the gate
perturbs and the ``check`` CLI."""

import re

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.check import check
from repro.errors import SimulationError
from repro.experiments.registry import SCENARIOS, get_scenario
from repro.obs.events import IO_COMPLETE
from repro.sim import ShuffledTies, Simulator


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_registered_scenario_passes_check(scenario_id):
    report = check(get_scenario(scenario_id), perturbations=1,
                   name=scenario_id)
    assert report.ok, report.render()


class PlantedRace:
    """A deliberate tie-ordering race: writer and reader tied at t=10.

    The writer sets a flag; the reader schedules ``_hit`` (flag seen) or
    ``_miss`` (flag unseen) at t=15.  Under FIFO the writer — scheduled
    first — always wins, so the race is invisible to plain replay; any
    salt that flips the tie makes the reader run first and the t=15
    callback change identity.
    """

    def __call__(self, sim):
        self.flag = False
        self.outcome = None
        sim.schedule_at(10.0, self._writer)
        sim.schedule_at(10.0, self._reader, sim)

    def _writer(self):
        self.flag = True

    def _reader(self, sim):
        sim.schedule_at(sim.now + 5.0,
                        self._hit if self.flag else self._miss)

    def _hit(self):
        self.outcome = "hit"

    def _miss(self):
        self.outcome = "miss"


def tie_free_scenario(sim):
    """Four same-time callbacks whose effects commute: no race."""
    for delay in (10.0, 10.0, 10.0, 10.0):
        sim.schedule_at(delay, _leaf_a, sim)
        sim.schedule_at(delay, _leaf_b, sim)


def _leaf_a(sim):
    sim.rng("analysis/leaf_a").random()


def _leaf_b(sim):
    sim.rng("analysis/leaf_b").random()


def tracing_steered_scenario(sim):
    """A model that peeks at the recorder: it draws only when traced."""
    sim.schedule_at(10.0, _draw_if_traced, sim)


def _draw_if_traced(sim):
    if sim.bus.recorder.active:
        sim.rng("steered").random()


def undeclared_key_scenario(sim):
    """An emitter whose payload carries a key its topic never declared."""
    sim.schedule_at(3.0, _record_undeclared_key, sim)


def _record_undeclared_key(sim):
    if sim.bus.recording:
        sim.bus.record(IO_COMPLETE, {
            "req": 1, "op": "read", "offset": 0, "size": 4096, "pid": 3,
            "dev": "disk0", "latency": 812.5, "bogus": 1})


# -- planted defects: each fails its own part --------------------------------

def test_check_pinpoints_first_replay_divergence():
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

    report = check(flaky, seed=9)
    assert report.failed == ["replay"]
    text = report.render()
    assert "FAILED replay" in text
    assert "first divergence at event #0" in text  # the 0.5 µs event
    assert "rng stream 'w': 1 draws vs 2" in text
    # A run that does not repeat itself says nothing about tie order.
    assert "tracing skipped" in text and "ties    skipped" in text


def test_check_detects_trace_length_divergence():
    calls = {"n": 0}

    def growing(sim):
        calls["n"] += 1
        for i in range(calls["n"]):
            sim.schedule(i + 1, lambda: None)

    report = check(growing, seed=0)
    assert report.failed == ["replay"]
    text = report.render()
    assert "first divergence at event #1:" in text
    assert "run 1: None" in text


def test_check_catches_a_recorder_that_steers_the_run():
    report = check(tracing_steered_scenario, seed=3)
    assert report.failed == ["tracing"]
    text = report.render()
    assert "FAILED tracing" in text
    assert "rng stream 'steered': 1 draws vs 0" in text


def test_check_reports_an_undeclared_payload_key():
    report = check(undeclared_key_scenario, seed=3)
    assert report.failed == ["schema"]
    text = report.render()
    assert "FAILED schema" in text
    assert "undeclared field 'bogus'" in text


def test_planted_race_is_detected_and_pinpointed():
    report = check(PlantedRace(), seed=3, perturbations=8)
    assert report.failed == ["ties"]
    # With 8 independent salts the odds every one preserves FIFO order
    # are 2^-8; deterministically, several flip.
    assert len(report.ties) >= 1
    for div in report.ties:
        # The first *canonical* divergence is the downstream effect: the
        # t=15 callback changed identity.
        assert div.time == 15.0
        assert any(rec.endswith("_hit") for rec in div.baseline_only)
        assert any(rec.endswith("_miss") for rec in div.perturbed_only)
        # The racing pair is the tied writer/reader at t=10: baseline ran
        # the writer first (FIFO), the perturbed run flipped the tie.
        (time_a, site_a), (time_b, site_b) = div.race_sites
        assert time_a == time_b == 10.0
        assert site_a.endswith("_writer")
        assert site_b.endswith("_reader")


def test_divergence_render_names_both_sites():
    report = check(PlantedRace(), seed=3, perturbations=8)
    text = report.render()
    assert "FAILED ties" in text
    assert "DIVERGED at t=15.0" in text
    assert "_writer" in text and "_reader" in text
    assert "racing callbacks" in text
    assert "depends on the event-heap tie-break" in text


def test_tie_free_scenario_stays_green():
    report = check(tie_free_scenario, seed=3, perturbations=8)
    assert report.ok, report.render()
    text = report.render()
    assert "replay  OK" in text and "tracing OK" in text
    # The perturbation genuinely permuted same-time execution order in at
    # least one run — ok means the *canonical* timeline was unaffected,
    # not that nothing moved.
    reordered = int(re.search(r"OK: (\d+) of 8 perturbation", text)[1])
    assert reordered >= 1


def test_scenario_state_is_reset_per_run():
    report = check(PlantedRace(), seed=3, perturbations=2)
    assert report.scenario == "PlantedRace"
    assert "replay" not in report.failed


# -- Simulator(tie_policy=...) knob ----------------------------------------

def _run_order(tie_policy):
    order = []
    sim = Simulator(tie_policy=tie_policy)
    for name in ("a", "b", "c", "d", "e"):
        sim.schedule_at(10.0, order.append, name)
    sim.schedule_at(20.0, order.append, "late")
    sim.run()
    return order


def test_default_tie_break_is_fifo():
    assert _run_order(None) == ["a", "b", "c", "d", "e", "late"]


def test_shuffled_ties_permute_same_time_events_only():
    orders = {salt: _run_order(ShuffledTies(salt)) for salt in range(6)}
    assert any(order[:5] != ["a", "b", "c", "d", "e"]
               for order in orders.values())
    for order in orders.values():
        assert sorted(order[:5]) == ["a", "b", "c", "d", "e"]
        assert order[5] == "late"  # distinct times never reorder


def test_shuffled_ties_are_reproducible():
    assert _run_order(ShuffledTies(4)) == _run_order(ShuffledTies(4))


def test_bad_tie_policy_rejected():
    with pytest.raises(SimulationError):
        Simulator(tie_policy="random")
    with pytest.raises(SimulationError):
        Simulator(tie_policy=3.5)
    with pytest.raises(SimulationError):
        Simulator(tie_policy=4)


# -- CLI -------------------------------------------------------------------

def test_cli_lists_scenarios(capsys):
    assert analysis_main(["check", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "faultsweep" in out


def test_cli_unknown_scenario_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        analysis_main(["check", "--scenario", "chaos"])
    assert exc.value.code == 2
    assert "error: unknown scenario: chaos;" in capsys.readouterr().err


def test_cli_fig3_smoke_is_race_free(capsys):
    assert analysis_main(["check", "--scenario", "fig3",
                          "--perturbations", "2"]) == 0
    out = capsys.readouterr().out
    assert "fig3 (seed 7): OK" in out
    assert out.endswith("1 of 1 scenario(s) passed: OK\n")
