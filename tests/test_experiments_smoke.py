"""Smoke tests: every registered experiment runs and returns tables.

These run tiny configurations (the experiments' quick mode is already
sized for CI-scale runs; here we only sanity-check structure for the
cheapest ones and the registry itself).
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment


def test_registry_covers_every_table_and_figure():
    assert set(EXPERIMENTS) == {
        "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "allinone", "writes",
        "faultsweep", "slosweep"}


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        get_experiment("fig99")


@pytest.mark.parametrize("exp_id", ["table1", "writes", "fig13",
                                    "faultsweep", "slosweep"])
def test_cheap_experiments_render(exp_id):
    result = get_experiment(exp_id)(quick=True, seed=3)
    out = result.render()
    assert exp_id in out
    assert result.sections, "no tables produced"
    for heading, headers, rows in result.sections:
        assert headers
        assert all(len(row) == len(headers) for row in rows)


def test_table1_reproduces_the_paper_findings():
    result = get_experiment("table1")(quick=True, seed=3)
    rows = result.data["rows"]
    # Nobody's default timeout fires on 1 s bursts:
    assert all(row[6] == 0 for row in rows)
    # The three no-failover systems return read errors at 100 ms TO:
    errors = {row[0]: row[7] for row in rows}
    for system in ("Couchbase", "MongoDB", "Riak"):
        assert errors[system] > 0
    for system in ("Cassandra", "HBase", "Voldemort"):
        assert errors[system] == 0


def test_writes_experiment_shows_flat_writes():
    result = get_experiment("writes")(quick=True, seed=3)
    nonoise = result.data["nonoise"]
    base = result.data["base"]
    assert abs(base.p(99) - nonoise.p(99)) < 0.5  # ms


def test_fig13_ebusy_correlates_with_noise():
    result = get_experiment("fig13")(quick=True, seed=3)
    timeline = result.data["timeline"]
    high = [e for _, o, e in timeline if o > 4]
    low = [e for _, o, e in timeline if o <= 1]
    if high and low:
        rate_high = sum(high) / len(high)
        rate_low = sum(low) / len(low)
        assert rate_high >= rate_low
