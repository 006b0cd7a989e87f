"""Bench: ablations of the design choices DESIGN.md calls out.

* diff calibration (§4.1) on/off,
* SSTF-order modelling vs naive FIFO horizon (§4.1/§A),
* tolerable-time cancellation (§4.2) on/off,
* deadline sweep around p95 (§8.1's open problem).

Precise vs naive MittSSD (§4.3) is not benched here: naive mode keeps the
per-chip horizons, drops the channel term and assumes 1.5 ms for every
program, and fig9's ``naive%`` column measures it.
"""

from repro._units import MS, SEC
from repro.experiments.common import (build_disk_cluster, make_strategy,
                                      run_clients, apply_ec2_noise)
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel


def _mitt_line(deadline_us, seed=7, **node_kwargs):
    sim = Simulator(seed=seed)
    env = build_disk_cluster(sim, 10, **node_kwargs)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), 40 * SEC)
    strategy = make_strategy("mittos", env.cluster, deadline_us=deadline_us)
    rec = run_clients(env, strategy, 10, 250, think_time_us=5 * MS,
                      limit_us=40 * SEC)
    return rec, strategy, env


def test_ablation_prediction_mode(benchmark):
    """Precise (SSTF + calibration) vs naive FIFO prediction."""

    def both():
        precise = _mitt_line(15 * MS, mitt_mode="precise")
        naive = _mitt_line(15 * MS, mitt_mode="naive")
        return precise, naive

    (p_rec, p_strat, _), (n_rec, n_strat, _) = benchmark.pedantic(
        both, rounds=1, iterations=1)
    print(f"\nprecise p99={p_rec.p(99):.1f}ms failovers={p_strat.failovers}"
          f" | naive p99={n_rec.p(99):.1f}ms failovers={n_strat.failovers}")
    # End-to-end latency forgives prediction error (failover is cheap —
    # that is Figure 10's point); the cost of the naive model is *wasted
    # failovers* from its drifting over-estimates.  The accuracy gap
    # itself is quantified in fig9's shadow-mode rows.
    assert n_strat.failovers > p_strat.failovers
    assert n_rec.p(99) < 2.0 * p_rec.p(99)  # still functional end to end


def test_ablation_bump_back_cancellation(benchmark):
    """§4.2's late cancellation: without it, bumped IOs silently stall."""

    def both():
        with_cancel, s1, _ = _mitt_line(15 * MS, cancel_bumped=True)
        without, s2, _ = _mitt_line(15 * MS, cancel_bumped=False)
        return with_cancel, without

    with_cancel, without = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nwith-cancel p99={with_cancel.p(99):.1f}ms"
          f" | without p99={without.p(99):.1f}ms")
    assert with_cancel.p(99) <= without.p(99) * 1.15


def test_ablation_deadline_sweep(benchmark):
    """§8.1: too-strict deadlines cause EBUSY storms; too-loose, tails."""

    def sweep():
        out = {}
        for frac in (0.5, 1.0, 2.0):
            rec, strategy, _ = _mitt_line(frac * 15 * MS)
            out[frac] = (rec, strategy.failovers)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for frac, (rec, failovers) in sorted(out.items()):
        print(f"deadline x{frac}: p99={rec.p(99):.1f}ms "
              f"failovers={failovers}")
    # Stricter deadline -> more EBUSY failovers (monotone).
    assert out[0.5][1] > out[1.0][1] > out[2.0][1]
    # Looser deadline -> longer tail.
    assert out[2.0][0].p(99) >= out[1.0][0].p(99) * 0.9
