"""Tie-order perturbation harness: planted races must be caught and
pinpointed; tie-insensitive scenarios must stay green."""

import pytest

from repro.analysis.races import perturb_ties
from repro.analysis.__main__ import main as analysis_main
from repro.errors import SimulationError
from repro.sim import ShuffledTies, Simulator


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


def test_planted_race_is_detected_and_pinpointed():
    report = perturb_ties(PlantedRace(), seed=3, perturbations=8)
    assert not report.ok
    # With 8 independent salts the odds every one preserves FIFO order
    # are 2^-8; deterministically, several flip.
    assert len(report.divergences) >= 1
    for div in report.divergences:
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
    report = perturb_ties(PlantedRace(), seed=3, perturbations=8)
    text = report.render()
    assert "DIVERGED at t=15.0" in text
    assert "_writer" in text and "_reader" in text
    assert "racing callbacks" in text
    assert "divergent perturbation" in text


def test_tie_free_scenario_stays_green():
    report = perturb_ties(tie_free_scenario, seed=3, perturbations=8)
    assert report.ok, report.render()
    assert len(report.runs) == 8
    # The perturbation genuinely permuted same-time execution order in at
    # least one run — ok means the *canonical* timeline was unaffected,
    # not that nothing moved.
    assert any(run.ordered != report.baseline.ordered
               for run in report.runs)
    assert all(run.digest == report.baseline.digest
               for run in report.runs)
    assert "no tie-ordering races detected" in report.render()


def test_scenario_state_is_reset_per_run():
    scenario = PlantedRace()
    report = perturb_ties(scenario, seed=3, perturbations=2)
    assert report.scenario == "PlantedRace"
    assert len(report.runs) == 2


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
    assert analysis_main(["races", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "faultsweep" in out


def test_cli_unknown_scenario_errors(capsys):
    with pytest.raises(SystemExit):
        analysis_main(["races", "--scenario", "nope"])
    capsys.readouterr()


def test_cli_fig3_smoke_is_race_free(capsys):
    assert analysis_main(["races", "--scenario", "fig3",
                          "--perturbations", "2"]) == 0
    out = capsys.readouterr().out
    assert "no tie-ordering races detected" in out
