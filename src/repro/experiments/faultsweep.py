"""Faultsweep — tail latency and availability under cluster-scale faults.

Not a paper figure: the paper's testbed is fail-free, but its whole
motivation (Table 1) is that data stores surface IO errors and huge tails
when a replica misbehaves.  The fault plane lets us ask the quantitative
follow-up: as message loss rises — with a crash-stop window and a gray
(fail-slow) replica thrown in mid-run — how do MittOS's EBUSY failover
and the classic client-side techniques (Base, AppTO, hedged) trade tail
latency against availability?

Every strategy line runs on a fresh simulator with the same seed, so each
sees the identical fault schedule (same crash times, same lost-message
draws) — the fault-plane analogue of replaying one EC2 timeslice.

Two slices of the sweep's line builder :func:`_run_line` are registered
scenario hooks (``repro.experiments.registry.SCENARIOS``):
:func:`race_scenario` (``faultsweep``, every fault at once) and
:func:`tails_scenario` (``tails``, planted causes in disjoint windows).  The determinism gate
``python -m repro.analysis check`` runs both; the second also feeds
``python -m repro.obs tails --scenario tails``.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, build_disk_cluster,
                                      make_strategy, run_clients)
from repro.faults import (CrashWindow, DeviceStorm, FailSlow, FaultPlane,
                          FaultSpec, MessageLoss, ReadErrors)
from repro.metrics import AvailabilityStats
from repro.sim import Simulator

LOSS_RATES = (0.0, 0.05, 0.2)
STRATEGIES = ("base", "appto", "hedged", "mittos")


def _spec(loss_rate, horizon_us):
    """The sweep's failure plan: message loss at ``loss_rate`` for the whole
    run, node 1 crash-stopped for the second quarter, node 2 gray-failing
    (4x CPU, 3x device) for the third, a device storm on node 3, and a
    trickle of latent read errors on node 4."""
    return FaultSpec(
        message_loss=((MessageLoss(rate=loss_rate),)
                      if loss_rate > 0 else ()),
        crashes=(CrashWindow(node=1, start_us=0.25 * horizon_us,
                             duration_us=0.25 * horizon_us),),
        fail_slow=(FailSlow(node=2, start_us=0.5 * horizon_us,
                            duration_us=0.25 * horizon_us,
                            cpu_factor=4.0, device_factor=3.0),),
        device_storms=(DeviceStorm(node=3, start_us=0.5 * horizon_us,
                                   duration_us=0.25 * horizon_us,
                                   factor=2.0, spike_prob=0.05),),
        read_errors=(ReadErrors(rate=0.01, node=4),),
        rpc_timeout_us=80 * MS,
        op_budget_us=2 * SEC,
        max_attempts=8,
    )


def _slice_spec(false_positive_rate):
    """The 3 s race slices' failure plan: 10 % message loss, node 1
    crash-stopped for 1 s, node 2 gray-failing and node 0 under a device
    storm in overlapping windows, latent read errors on node 3, and
    decision flips at ``false_positive_rate``."""
    return FaultSpec(
        message_loss=(MessageLoss(rate=0.1),),
        crashes=(CrashWindow(node=1, start_us=0.5 * SEC,
                             duration_us=1 * SEC),),
        fail_slow=(FailSlow(node=2, start_us=1 * SEC, duration_us=1 * SEC,
                            cpu_factor=4.0, device_factor=2.0),),
        device_storms=(DeviceStorm(node=0, start_us=1.5 * SEC,
                                   duration_us=1 * SEC, factor=2.0,
                                   spike_prob=0.1),),
        read_errors=(ReadErrors(rate=0.05, node=3),),
        false_positive_rate=false_positive_rate,
        rpc_timeout_us=60 * MS,
        op_budget_us=1 * SEC,
        max_attempts=6,
    )


def _run_line(sim, name, spec, deadline_us, params):
    """One strategy line on ``sim`` under the failure plan ``spec``."""
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, params["n_nodes"],
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    rec = run_clients(env, strategy, params["n_clients"], params["n_ops"],
                      think_time_us=params["think_time_us"], name=name,
                      limit_us=params["horizon_us"],
                      stagger_us=params.get("stagger_us", 0.0))
    return rec, strategy, plane


def run(quick=True, seed=7):
    params = dict(n_nodes=9,
                  n_clients=6 if quick else 16,
                  n_ops=60 if quick else 400,
                  think_time_us=4 * MS,
                  horizon_us=(8 if quick else 40) * SEC)

    def run_line(name, loss_rate, deadline_us):
        return _run_line(Simulator(seed=seed), name,
                         _spec(loss_rate, params["horizon_us"]),
                         deadline_us, params)

    # Deadline from a clean Base run, like the figure experiments: p95 of
    # the fault-free baseline.
    clean, _, _ = run_line("base", 0.0, None)
    deadline = clean.p(95) * MS

    result = ExperimentResult(
        "faultsweep", "Tail latency + availability vs fault rate")
    rows = []
    final_recs = []
    for loss_rate in LOSS_RATES:
        for name in STRATEGIES:
            rec, strategy, plane = run_line(
                name, loss_rate, None if name == "base" else deadline)
            avail = AvailabilityStats.from_recorder(rec)
            rows.append([
                f"{loss_rate:.0%}", name, len(rec),
                round(rec.p(50), 2), round(rec.p(95), 2),
                round(rec.p(99), 2),
                f"{avail.availability:.4f}",
                avail.errors,
                strategy.rpc_timeouts,
                plane.dropped_messages,
                plane.counters()["injected_read_errors"],
            ])
            if loss_rate == LOSS_RATES[-1]:
                final_recs.append(rec)
    result.add_table(
        "Sweep: message loss + crash + gray failure (same seed per line)",
        ["loss", "line", "n", "p50", "p95", "p99", "avail", "eio",
         "rpc_to", "dropped", "lat_eio"],
        rows)
    result.add_plot(f"CDF at {LOSS_RATES[-1]:.0%} message loss",
                    final_recs, y_min=0.5)
    result.add_note(
        f"deadline = clean Base p95 = {deadline / MS:.1f} ms; every line "
        f"replays the identical fault schedule (seed {seed}).")
    result.add_note(
        "base has no failover: its availability collapses with loss; "
        "mittos keeps EBUSY-failover latency while the RPC-timeout + "
        "backoff path absorbs crashed/partitioned replicas.")
    result.data["deadline_us"] = deadline
    return result


# -- registered scenario hooks -----------------------------------------------

def race_scenario(sim):
    """A small faulted MittOS cluster: message loss, a crash window, a
    gray replica, a device storm, latent read errors and decision flips.

    Client starts are staggered (client ``i`` begins at ``i * 17 µs``).
    Synchronized starts are *symmetrically* tie-sensitive: every client's
    first RPC draws its hop latency from the shared ``network`` stream
    inside the same t=0 tie group, so the heap's tie-break — not the
    model — assigns draws to clients, and ``python -m repro.analysis
    check`` rightly reports the divergence.  Real clients never start in
    lockstep; with the stagger, the rest of the run (fault transitions,
    EBUSY failover, crash/restart, storms) must be insensitive to tie
    order, which the check asserts.
    """
    params = dict(n_nodes=6, n_clients=4, n_ops=25, think_time_us=2 * MS,
                  horizon_us=3 * SEC, stagger_us=17.0)
    _run_line(sim, "mittos", _slice_spec(false_positive_rate=0.05),
              25 * MS, params)


def tails_scenario(sim):
    """The registered faulted *tail* scenario for ``python -m repro.obs
    tails --scenario tails``.

    Unlike :func:`race_scenario` (everything at once), the planted causes
    here occupy *disjoint* windows so each blame class has a clean
    signature for the forensics engine to attribute: a total-loss window
    (every RPC dropped -> timeout/backoff waits), then a hard device
    storm (6x service, frequent spikes -> inflated server time), then a
    crash window (failover chains).  Client starts are staggered like
    ``race_scenario`` so the slice is tie-order insensitive.
    """
    spec = FaultSpec(
        message_loss=(MessageLoss(rate=1.0, start_us=60 * MS,
                                  duration_us=60 * MS),),
        device_storms=(DeviceStorm(node=0, start_us=200 * MS,
                                   duration_us=120 * MS, factor=6.0,
                                   spike_prob=0.2),),
        crashes=(CrashWindow(node=1, start_us=400 * MS,
                             duration_us=60 * MS),),
        rpc_timeout_us=20 * MS,
        op_budget_us=400 * MS,
        max_attempts=6,
    )
    params = dict(n_nodes=6, n_clients=4, n_ops=45, think_time_us=2 * MS,
                  horizon_us=800 * MS, stagger_us=17.0)
    _run_line(sim, "mittos", spec, 25 * MS, params)
