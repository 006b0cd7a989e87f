"""Integration: tail amplification by scale and strategy interplay (§7.3)."""

from repro._units import MS, SEC
from repro.experiments.common import run_ec2_disk_line
from repro.sim import Simulator


def _line(name, sf, deadline=None, seed=21):
    rec, strat, _ = run_ec2_disk_line(
        Simulator(seed=seed), name, deadline_us=deadline, n_nodes=10,
        n_clients=8, n_ops=150, scale_factor=sf, horizon_us=60 * SEC)
    return rec, strat


def test_scale_factor_amplifies_the_fraction_of_slow_requests():
    lines = {sf: _line("base", sf)[0] for sf in (1, 2, 5, 10)}
    threshold = lines[1].p(95)
    share = {sf: rec.fraction_above(threshold) for sf, rec in lines.items()}
    # Waiting on SF gets makes more user ops slow at every step (0.05,
    # 0.092, 0.191, 0.372 here).  The share is neither bounded by the
    # independence formula 1-(1-P)^SF nor held above it: see fig6.
    assert share[1] < share[2] < share[5] < share[10]
    assert share[5] > 2.5 * share[1]


def test_mittos_beats_hedged_at_every_scale():
    """MittOS wins at SF=1 and SF=5 (the *growth* of the gap needs the
    larger fig6 sample sizes; benchmarks/test_bench_fig6.py asserts it)."""
    deadline = _line("base", 1)[0].p(95) * MS
    for sf in (1, 5):
        hedged, _ = _line("hedged", sf, deadline)
        mitt, _ = _line("mittos", sf, deadline)
        assert mitt.mean_ms < hedged.mean_ms, f"SF={sf}"
        assert mitt.p(95) < hedged.p(95), f"SF={sf}"


def test_failovers_scale_with_parallel_subrequests():
    deadline = _line("base", 1)[0].p(95) * MS
    _, s1 = _line("mittos", 1, deadline)
    _, s5 = _line("mittos", 5, deadline)
    # 5x the get()s per user request -> roughly 5x the EBUSY encounters.
    assert s5.failovers > 2 * s1.failovers
