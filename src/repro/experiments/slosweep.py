"""Slosweep — adaptive SLO control vs a static deadline under faults.

The question the adaptive control plane exists to answer: under gray
failures and load surges, a static MittOS deadline has only two failure
modes — too tight (EBUSY floods, wasted failover) or too loose (tails
blow the budget).  This sweep pits three lines against the identical
fault schedule and the identical background scavenger load, per cell:

* ``mittos``   — static deadline at the clean-run p95 baseline;
* ``tight``    — static deadline pre-tightened to the adaptive floor
  (baseline/4): what an operator would deploy to protect tails by hand;
* ``adaptive`` — the feedback controller: baseline deadline inside
  [floor, ceiling] bands, per-node admission guards shedding the
  scavenger tier under queue pressure, observation windows armed.

Every line serves the same foreground pool *plus* a low-tier background
scavenger pool (``tier_priority=7``), so graceful degradation has
something to degrade.  The headline claim (EXPERIMENTS.md): adaptive
meets or beats the static baseline's foreground p95 while shedding
strictly less work than the pre-tightened deadline rejects.

:func:`race_scenario` is the registered ``slosweep`` scenario hook: a
small adaptive slice — controller armed, guards installed, scavenger
pool competing — that ``python -m repro.analysis check`` must find
replay-exact and tie-order insensitive, proving the feedback loop is
clock-driven and RNG-free.
"""

from repro._units import MS, SEC
from repro.experiments import faultsweep
from repro.experiments.common import (ExperimentResult, build_disk_cluster,
                                      make_strategy)
from repro.faults import (CrashWindow, DeviceStorm, FailSlow, FaultPlane,
                          FaultSpec, MessageLoss, ReadErrors)
from repro.metrics import AvailabilityStats
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator
from repro.workloads import UniformKeys
from repro.workloads.ycsb import YcsbClient, run_ycsb

LINES = ("mittos", "tight", "adaptive")
CELLS = ("loss5", "chaos")

#: The adaptive floor divisor: ``tight`` runs statically at this floor.
FLOOR_DIV = 4.0
#: Per-node outstanding-IO limit the adaptive guards shed scavengers
#: at.  The disk NCQ holds 4 in-flight IOs; 2 reserves half the device
#: slots for the serving tier — background work is shed as soon as it
#: would take the NCQ past half full.
QDEPTH_LIMIT = 2


def cell_spec(cell, horizon_us):
    """The failure plan of one grid cell (same shape as faultsweep)."""
    if cell == "loss5":
        # The faultsweep grid at 5% loss: crash + gray replica + storm.
        return faultsweep._spec(0.05, horizon_us)
    if cell == "chaos":
        # The chaos grid: heavier loss, harsher gray failure, decision
        # flips — the regime where a static deadline floods or drowns.
        return FaultSpec(
            message_loss=(MessageLoss(rate=0.1),),
            crashes=(CrashWindow(node=1, start_us=0.25 * horizon_us,
                                 duration_us=0.25 * horizon_us),),
            fail_slow=(FailSlow(node=2, start_us=0.4 * horizon_us,
                                duration_us=0.4 * horizon_us,
                                cpu_factor=6.0, device_factor=4.0),),
            device_storms=(DeviceStorm(node=3, start_us=0.5 * horizon_us,
                                       duration_us=0.3 * horizon_us,
                                       factor=3.0, spike_prob=0.1),),
            read_errors=(ReadErrors(rate=0.02, node=4),),
            false_positive_rate=0.05,
            rpc_timeout_us=80 * MS, op_budget_us=2 * SEC, max_attempts=8,
        )
    raise ValueError(f"unknown slosweep cell: {cell}")


def _launch_pools(sim, env, strategy, params, bg_strategy=None):
    """Foreground + background scavenger clients; returns the recorders
    and the foreground processes (the run gate)."""
    dists = [UniformKeys(env.keyspace.n_keys, sim.rng(f"keys/{i}"))
             for i in range(params["n_clients"])]
    fg_rec, fg_procs = run_ycsb(sim, strategy, dists, params["n_clients"],
                                params["n_ops"],
                                think_time_us=params["think_time_us"],
                                name=strategy.name, stagger_us=17.0)
    bg_rec = LatencyRecorder("scavenger")
    if bg_strategy is not None:
        for i in range(params["n_bg_clients"]):
            dist = UniformKeys(env.keyspace.n_keys, sim.rng(f"bgkeys/{i}"))
            client = YcsbClient(sim, bg_strategy, dist, bg_rec,
                                params["n_bg_ops"], think_time_us=1 * MS,
                                start_delay_us=13.0 + i * 29.0)
            client.run()  # horizon-bounded; not a run gate
    return fg_rec, bg_rec, fg_procs


def _run_cell_line(sim, line, spec, baseline_us, params):
    """One line on ``sim`` under the failure plan ``spec``: figures run
    every line of a cell on a fresh same-seed simulator, so each sees the
    identical fault schedule and scavenger load.  ``params["controller"]``
    (optional) holds the adaptive line's controller knobs."""
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, params["n_nodes"],
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    if line == "mittos":
        strategy = make_strategy("mittos", env.cluster,
                                 deadline_us=baseline_us)
    elif line == "tight":
        strategy = make_strategy("mittos", env.cluster,
                                 deadline_us=baseline_us / FLOOR_DIV)
    elif line == "adaptive":
        strategy = make_strategy("adaptive", env.cluster,
                                 deadline_us=baseline_us,
                                 **params.get("controller", {}))
        strategy.guard_nodes(qdepth_limit=QDEPTH_LIMIT)
        strategy.arm(params["horizon_us"])
    else:
        raise ValueError(f"unknown slosweep line: {line}")
    bg_strategy = make_strategy("base", env.cluster, tier_priority=7)
    fg_rec, bg_rec, fg_procs = _launch_pools(sim, env, strategy, params,
                                             bg_strategy)
    sim.run_until(sim.all_of(fg_procs), limit=params["horizon_us"])
    rejected = sum(node.os.ebusy_returned for node in env.nodes)
    shed = (sum(g.shed for g in strategy.controller.guards)
            if line == "adaptive" else 0)
    return {
        "rec": fg_rec, "bg_rec": bg_rec, "strategy": strategy,
        "plane": plane, "rejected": rejected, "shed": shed,
    }


def _run_clean_line(sim, params):
    """The baseline line on ``sim``: vanilla Base, fault-free and without
    scavengers.  Returns the foreground recorder."""
    env = build_disk_cluster(sim, params["n_nodes"])
    clean, _, procs = _launch_pools(sim, env,
                                    make_strategy("base", env.cluster),
                                    params)
    sim.run_until(sim.all_of(procs), limit=params["horizon_us"])
    return clean


def run(quick=True, seed=7, faults=None):
    """The sweep.  ``faults`` (a :class:`FaultSpec`, e.g. from a committed
    JSON file via ``--faults``) replaces every cell's grid with one
    custom plan, labelled ``custom``."""
    params = dict(n_nodes=9,
                  n_clients=5 if quick else 12,
                  n_ops=50 if quick else 300,
                  n_bg_clients=3 if quick else 8,
                  n_bg_ops=400 if quick else 2000,
                  think_time_us=4 * MS,
                  horizon_us=(8 if quick else 40) * SEC)

    # Baseline deadline: p95 of the clean line, like the figure
    # experiments.
    baseline = _run_clean_line(Simulator(seed=seed), params).p(95) * MS

    result = ExperimentResult(
        "slosweep", "Adaptive SLO control vs static deadline under faults")
    cells = ("custom",) if faults is not None else CELLS
    rows = []
    result.data["baseline_us"] = baseline
    result.data["cells"] = {}
    for cell in cells:
        spec = faults if faults is not None \
            else cell_spec(cell, params["horizon_us"])
        cell_data = {"p95": {}, "rejected": {}}
        recs = []
        for line in LINES:
            out = _run_cell_line(Simulator(seed=seed), line, spec,
                                 baseline, params)
            rec = out["rec"]
            avail = AvailabilityStats.from_recorder(rec)
            controller = out["strategy"].controller \
                if line == "adaptive" else None
            rows.append([
                cell, line, len(rec),
                round(rec.p(50), 2), round(rec.p(95), 2),
                round(rec.p(99), 2),
                f"{avail.availability:.4f}",
                out["rejected"], out["shed"],
                len(controller.transitions) if controller else 0,
                round(controller.deadline_us / MS, 2) if controller
                else round(out["strategy"].deadline_us / MS, 2),
            ])
            recs.append(rec)
            cell_data["p95"][line] = rec.p(95)
            cell_data["rejected"][line] = out["rejected"]
            if line == "adaptive":
                cell_data["shed"] = out["shed"]
                cell_data["transitions"] = len(controller.transitions)
                cell_data["final_deadline_us"] = controller.deadline_us
        result.data["cells"][cell] = cell_data
        result.add_plot(f"Foreground CDF, cell {cell}", recs, y_min=0.5)
    result.add_table(
        "Foreground tails per grid cell (same seed, same fault schedule, "
        "same scavenger load per line)",
        ["cell", "line", "n", "p50", "p95", "p99", "avail",
         "rejected", "shed", "trans", "dl_ms"],
        rows)
    result.add_note(
        f"baseline deadline = clean Base p95 = {baseline / MS:.1f} ms; "
        f"tight = baseline/{FLOOR_DIV:.0f} (the adaptive floor) as a "
        "static deadline.")
    result.add_note(
        "adaptive holds the foreground tail with feedback (deadline bands "
        "+ scavenger shedding) instead of rejecting across the board the "
        "way the pre-tightened static deadline does; 'shed' counts "
        "admission-guard rejections only (subset of 'rejected').")
    return result


# -- registered scenario hook -------------------------------------------------

def race_scenario(sim):
    """A small adaptive-control scenario: controller armed, guards on,
    scavenger pool competing, under faultsweep's slice plan without its
    decision flips.  Foreground client starts are staggered 17 µs apart
    (see ``faultsweep.race_scenario`` for why lockstep starts are
    excluded)."""
    params = dict(n_nodes=6, n_clients=4, n_ops=25, think_time_us=2 * MS,
                  n_bg_clients=2, n_bg_ops=120, horizon_us=3 * SEC,
                  controller=dict(window_us=200 * MS, min_samples=4))
    _run_cell_line(sim, "adaptive",
                   faultsweep._slice_spec(false_positive_rate=0.0),
                   25 * MS, params)
