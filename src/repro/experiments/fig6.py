"""Figure 6 — tail amplified by scale: MittCFQ vs Hedged (§7.3).

A user request with scale factor SF issues SF parallel get()s and waits for
all of them, so the share of user ops slower than the SF=1 p95 grows with
SF.  The independence formula 1-(1-P)^SF bounds it neither way here.  On
Base (20 nodes, 10 clients x 200 ops, P = 0.05) the share at SF=2, 5 and
10 was 0.101, 0.239 and 0.553 at seed 17, against 0.098, 0.226 and 0.401
for independence, but 0.078, 0.151 and 0.268 at seed 7.  The paper runs
SF in {1, 2, 5, 10} and shows MittCFQ's reduction over Hedged *growing*
with SF (up to 35% at p95, 16-23% on average at SF=5-10).
"""

from repro._units import MS
from repro.experiments.common import (ExperimentResult, run_ec2_disk_line,
                                      scale_factor_sweep)
from repro.sim import Simulator

SCALE_FACTORS = (1, 2, 5, 10)


def run(quick=True, seed=7):
    if quick:
        params = dict(n_nodes=20, n_clients=20, n_ops=350,
                      think_time_us=6 * MS, horizon_us=90_000_000.0)
    else:
        params = dict(n_nodes=20, n_clients=30, n_ops=1000,
                      think_time_us=6 * MS, horizon_us=180_000_000.0)

    def run_line(name, deadline_us, sf):
        return run_ec2_disk_line(Simulator(seed=seed), name,
                                 deadline_us=deadline_us, scale_factor=sf,
                                 **params)[0]

    # Deadline comes from per-IO behaviour (SF=1 Base), as in Figure 5.
    base_rec = run_line("base", None, 1)
    deadline = base_rec.p(95) * MS

    result = ExperimentResult("fig6", "Tail amplified by scale "
                                      "(MittCFQ vs Hedged)")
    scale_factor_sweep(result, run_line, base_rec, deadline, deadline,
                       SCALE_FACTORS, (50, 75, 90, 95, 99), "Figure 6",
                       "Figure 6d: % latency reduction of MittCFQ vs Hedged")
    result.add_note(f"deadline = SF1 Base p95 = {deadline / MS:.1f} ms")
    return result


if __name__ == "__main__":
    print(run().render())
