"""Figure 10 — tail sensitivity to prediction error (§7.7).

Would a simpler (less accurate) device model still be effective?  The fig5
setup runs with controlled decision errors injected into MittCFQ:

* false-negative injection at E% — a would-be EBUSY is let through.  Only
  slow requests are affected, so even E=100% stays near Base.  It does
  not become Base: the injector flips admission-time decisions only, and
  MittCFQ's late bump-back EBUSYs (§4.2) still fail requests over;
* false-positive injection at E% — a request that would meet its deadline
  gets EBUSY anyway.  Mild at 20%, but at 100% every IO fails over (three
  wasted hops per request) and the tail is *worse than Base*.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, percentile_rows,
                                      run_ec2_disk_line)
from repro.mittos.faults import FaultInjector
from repro.sim import Simulator

ERROR_RATES = (0.0, 0.2, 0.6, 1.0)


def _run_line(sim, kind, rate, deadline_us, params):
    """kind: None=Base, 'fn'/'fp' = MittCFQ with injected errors.

    ``params`` are :func:`run_ec2_disk_line` keywords; returns the
    recorder.
    """
    fault = None
    if kind is not None and rate > 0:
        fault = FaultInjector(
            sim.rng("faults"),
            false_negative_rate=rate if kind == "fn" else 0.0,
            false_positive_rate=rate if kind == "fp" else 0.0)
    name = "base" if kind is None else "mittos"
    return run_ec2_disk_line(sim, name, deadline_us=deadline_us,
                             node_kwargs={"fault_injector": fault},
                             **params)[0]


def race_scenario(sim):
    """A scaled-down fig10 slice for the determinism harnesses.

    One false-positive-injection line (every flipped decision forces a
    failover hop, the figure's worst case) on a caller-supplied
    simulator, with staggered client starts — synchronized starts would
    put every client's first RPC in one t=0 tie group and hand the
    shared network draws out by heap order (see
    ``faultsweep.race_scenario``).
    """
    params = dict(n_nodes=6, n_clients=4, n_ops=25, think_time_us=2 * MS,
                  horizon_us=2 * SEC, stagger_us=17.0)
    _run_line(sim, "fp", 0.2, 25 * MS, params)


def run(quick=True, seed=7):
    params = dict(n_nodes=20, n_clients=20 if quick else 30,
                  n_ops=400 if quick else 1200, think_time_us=6 * MS,
                  horizon_us=(60 if quick else 150) * SEC)

    base = _run_line(Simulator(seed=seed), None, 0.0, None, params)
    deadline = base.p(95) * MS
    base.name = "Base"

    result = ExperimentResult("fig10", "Tail sensitivity to prediction "
                                       "error")
    for kind, title in (("fn", "Figure 10a: false-negative injection"),
                        ("fp", "Figure 10b: false-positive injection")):
        recs = []
        for rate in ERROR_RATES:
            rec = _run_line(Simulator(seed=seed), kind, rate, deadline,
                            params)
            rec.name = "NoError" if rate == 0 else f"{int(rate * 100)}%"
            recs.append(rec)
        recs.append(base)
        headers, rows = percentile_rows(recs,
                                        percentiles=(90, 92, 94, 96, 98))
        result.add_table(f"{title} (ms)", headers, rows)
        result.data[kind] = recs
    result.add_note(f"deadline = Base p95 = {deadline / MS:.1f} ms")
    return result


if __name__ == "__main__":
    print(run().render())
