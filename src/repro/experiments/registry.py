"""Registry mapping experiment ids to their run() callables."""

import importlib

#: experiment id -> (module, title)
EXPERIMENTS = {
    "table1": ("repro.experiments.table1", "No TT in NoSQL (Table 1)"),
    "fig3": ("repro.experiments.fig3", "EC2 millisecond dynamism (Figure 3)"),
    "fig4": ("repro.experiments.fig4", "Microbenchmarks (Figure 4)"),
    "fig5": ("repro.experiments.fig5", "MittCFQ vs others, EC2 noise (Figure 5)"),
    "fig6": ("repro.experiments.fig6", "Tail amplified by scale (Figure 6)"),
    "fig7": ("repro.experiments.fig7", "MittCache vs Hedged (Figure 7)"),
    "fig8": ("repro.experiments.fig8", "MittSSD vs Hedged (Figure 8)"),
    "fig9": ("repro.experiments.fig9", "Prediction inaccuracy (Figure 9)"),
    "fig10": ("repro.experiments.fig10", "Tail sensitivity to errors (Figure 10)"),
    "fig11": ("repro.experiments.fig11", "Macrobenchmark workload mix (Figure 11)"),
    "fig12": ("repro.experiments.fig12", "Snitching/C3 vs bursty noise (Figure 12)"),
    "fig13": ("repro.experiments.fig13", "Riak + LevelDB (Figure 13)"),
    "allinone": ("repro.experiments.allinone", "All resources at once (7.8.5)"),
    "writes": ("repro.experiments.writes", "Write latencies (7.8.6)"),
    "faultsweep": ("repro.experiments.faultsweep",
                   "Fault plane: tails + availability under failures"),
    "slosweep": ("repro.experiments.slosweep",
                 "Adaptive SLO control vs static deadline under faults"),
}


#: scenario id -> (module, attribute, description) of a *scenario hook*: a
#: callable taking one caller-supplied ``Simulator`` that schedules (and
#: may run) a scaled-down, deterministic slice of the experiment.  Hooks
#: feed the determinism tooling — ``repro.analysis.verify_replay`` and the
#: tie-order perturbation harness ``python -m repro.analysis races`` — and
#: the live reports ``python -m repro.obs accuracy`` and ``tails``.
SCENARIOS = {
    "fig3": ("repro.experiments.fig3", "replay_scenario",
             "scaled-down fig3 disk probe (3 nodes, 2 s)"),
    "fig3-ssd": ("repro.experiments.fig3", "ssd_scenario",
                 "scaled-down fig3 SSD probe under write/erase noise "
                 "(3 nodes, 2 s)"),
    "fig3-accuracy": ("repro.experiments.fig3", "accuracy_scenario",
                      "shadow-mode MittCFQ disk slice graded by "
                      "obs accuracy (5 nodes, 2 s)"),
    "fig8": ("repro.experiments.fig8", "race_scenario",
             "MittSSD slice: 6 partitions x 2x8 chips, SSD + erase noise, "
             "0.3 ms deadline, 1 s (staggered client starts)"),
    "faultsweep": ("repro.experiments.faultsweep", "race_scenario",
                   "faulted MittOS cluster slice (staggered client starts)"),
    "chaos": ("repro.experiments.faultsweep", "replay_scenario",
              "faulted MittOS cluster slice (synchronized client starts; "
              "replay verification only — see race_scenario)"),
    "fig10": ("repro.experiments.fig10", "race_scenario",
              "error-injected MittCFQ slice (staggered client starts)"),
    "table1": ("repro.experiments.table1", "race_scenario",
               "rotating-contention NoSQL slice (staggered client starts)"),
    "slosweep": ("repro.experiments.slosweep", "race_scenario",
                 "adaptive SLO-control slice: controller armed, guards on, "
                 "scavenger pool (staggered client starts)"),
    "tails": ("repro.experiments.faultsweep", "tails_scenario",
              "planted-cause tail slice: total-loss window, device storm, "
              "crash window in disjoint quarters (staggered client starts)"),
}


def get_experiment(experiment_id):
    """The run() callable for an experiment id."""
    try:
        module_name, _ = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(f"unknown experiment: {experiment_id}; "
                       f"known: {', '.join(sorted(EXPERIMENTS))}") from None
    module = importlib.import_module(module_name)
    return module.run


def get_scenario(scenario_id):
    """The scenario-hook callable for a scenario id."""
    try:
        module_name, attr, _ = SCENARIOS[scenario_id]
    except KeyError:
        raise KeyError(f"unknown scenario: {scenario_id}; "
                       f"known: {', '.join(sorted(SCENARIOS))}") from None
    module = importlib.import_module(module_name)
    return getattr(module, attr)

