"""Shared experiment plumbing: stack, node and cluster builders, the
strategy factory and runners.

Each storage stack has one builder: :func:`disk_os` (Disk + CFQ + MittCFQ,
or noop + MittNoop, with MittCache over the IO predictor when there is a
page cache) and :func:`ssd_os` (OpenChannel SSD + noop + MittSSD).  The
node builders put an engine on a stack: mmap over disk (MongoDB role; a
cache cluster's page cache holds the whole dataset, preloaded), mmap over
SSD, and LSM over disk (Riak role).  :func:`cluster_env` makes the nodes
an :class:`Env`.

Strategy lines are compared on *fresh simulators with the same seed*, so
every line sees an identical noise schedule — the simulator's substitute
for the paper's "replay the same 5-minute EC2 timeslice against each
technique".  Every line builder takes its simulator first; a figure's
``run()`` builds one ``Simulator(seed=seed)`` per line.
"""

from functools import lru_cache

from repro._units import GB, KB, MS
from repro.cluster import Cluster, Network, StorageNode
from repro.cluster.strategies import STRATEGIES
from repro.devices import Disk, Ssd
from repro.devices.disk_profile import profile_disk
from repro.devices.ssd_profile import SsdLatencyModel
from repro.engines import KeySpace, LsmEngine, MMapEngine
from repro.kernel import CfqScheduler, NoopScheduler, OS, PageCache
from repro.metrics import format_table, latency_reduction
from repro.mittos import MittCache, MittCfq, MittNoop, MittSsd
from repro.sim.resources import Semaphore
from repro.workloads import Ec2NoiseModel, NoiseInjector, UniformKeys
from repro.workloads.ycsb import run_ycsb


@lru_cache(maxsize=1)
def disk_latency_model():
    """The one-time disk profile (paper: 11 hours; simulated: instant)."""
    return profile_disk(lambda sim: Disk(sim))


class Env:
    """One experiment environment: sim + cluster + per-node injectors."""

    def __init__(self, sim, cluster, injectors, keyspace):
        self.sim = sim
        self.cluster = cluster
        self.injectors = injectors
        self.keyspace = keyspace

    @property
    def nodes(self):
        return self.cluster.nodes


# -- storage stacks -----------------------------------------------------------

#: Disk scheduler name -> (scheduler, the MittOS predictor that models it).
DISK_SCHEDULERS = {"cfq": (CfqScheduler, MittCfq),
                   "noop": (NoopScheduler, MittNoop)}


def disk_os(sim, name, mitt=True, mitt_mode="precise", scheduler="cfq",
            shadow=False, fault_injector=None, cache_pages=None,
            cancel_bumped=True, params=None):
    """The disk stack named ``name``: Disk + CFQ + MittCFQ, or noop +
    MittNoop, with MittCache over the IO predictor when ``cache_pages``
    gives it a page cache.  ``mitt=False`` builds no predictor;
    ``params`` are the OS's :class:`~repro.kernel.syscall.OsParams`."""
    try:
        sched_cls, predictor_cls = DISK_SCHEDULERS[scheduler]
    except KeyError:
        raise ValueError(f"unknown scheduler: {scheduler}") from None
    disk = Disk(sim, name=name)
    sched = sched_cls(sim, disk)
    predictor = None
    if mitt:
        kwargs = dict(mode=mitt_mode, shadow=shadow,
                      fault_injector=fault_injector)
        if predictor_cls is MittCfq:
            kwargs["cancel_bumped"] = cancel_bumped
        predictor = predictor_cls(disk_latency_model(), **kwargs)
    cache = PageCache(sim, cache_pages) if cache_pages else None
    if cache is not None and predictor is not None:
        predictor = MittCache(io_predictor=predictor)
    return OS(sim, disk, sched, cache=cache, predictor=predictor,
              params=params)


def ssd_os(sim, name, mitt=True, mitt_mode="precise", geometry=None,
           shadow=False, fault_injector=None, params=None):
    """The SSD stack named ``name``: OpenChannel SSD + noop (the right
    scheduler for an SSD) + MittSSD; ``mitt=False`` builds no predictor."""
    ssd = Ssd(sim, geometry, name=name)
    sched = NoopScheduler(sim, ssd)
    predictor = None
    if mitt:
        predictor = MittSsd(ssd, SsdLatencyModel.from_spec(ssd.geometry),
                            mode=mitt_mode, shadow=shadow,
                            fault_injector=fault_injector)
    return OS(sim, ssd, sched, predictor=predictor, params=params)


# -- node builders ------------------------------------------------------------

def build_disk_node(sim, node_id, keyspace, **os_kwargs):
    """One MongoDB-role node: mmap engine over :func:`disk_os`."""
    os_ = disk_os(sim, f"n{node_id}", **os_kwargs)
    engine = MMapEngine(os_, keyspace, pid=100 + node_id)
    return StorageNode(sim, node_id, os_, engine)


def build_ssd_node(sim, node_id, keyspace, cpu=None, handler_cpu_us=60.0,
                   **os_kwargs):
    """One node over an OpenChannel SSD partition (:func:`ssd_os`);
    ``cpu`` is the machine's shared CPU semaphore (§7.5), if any."""
    os_ = ssd_os(sim, f"n{node_id}", **os_kwargs)
    engine = MMapEngine(os_, keyspace, pid=100 + node_id,
                        use_addrcheck=False)
    return StorageNode(sim, node_id, os_, engine, cpu=cpu,
                       handler_cpu_us=handler_cpu_us)


def build_lsm_node(sim, node_id, keys):
    """One Riak-role node: LSM engine over disk + CFQ + MittCFQ
    (§7.8.4)."""
    os_ = disk_os(sim, f"n{node_id}")
    engine = LsmEngine(os_, pid=100 + node_id)
    engine.load_bulk(keys, tables=8)
    return StorageNode(sim, node_id, os_, engine)


# -- cluster builders ------------------------------------------------------------

def cluster_env(sim, nodes, keyspace, network=None, replication=3):
    """``nodes`` as an :class:`Env`: a replicated cluster over ``network``
    (default: a fresh :class:`Network`) and one noise injector per node
    over ``keyspace``'s span."""
    cluster = Cluster(sim, nodes, network or Network(sim),
                      replication=replication)
    injectors = [NoiseInjector(sim, node.os, keyspace.span_bytes,
                               name=f"n{node.node_id}")
                 for node in nodes]
    return Env(sim, cluster, injectors, keyspace)


def build_disk_cluster(sim, n_nodes, n_keys=20_000, replication=3,
                       network=None, **node_kwargs):
    keyspace = KeySpace(n_keys, value_size=1 * KB, span_bytes=900 * GB)
    nodes = [build_disk_node(sim, i, keyspace, **node_kwargs)
             for i in range(n_nodes)]
    return cluster_env(sim, nodes, keyspace, network, replication)


def build_cache_cluster(sim, n_nodes, n_keys=4_000, replication=3,
                        **node_kwargs):
    """Nodes whose dataset fits the page cache (preloaded)."""
    cache_pages = int(n_keys * 1.25)  # 1 record -> 1 page
    env = build_disk_cluster(sim, n_nodes, n_keys=n_keys,
                             replication=replication,
                             cache_pages=cache_pages, **node_kwargs)
    for node in env.nodes:
        node.engine.preload(range(n_keys))
    return env


def build_ssd_cluster(sim, n_nodes, n_keys=20_000, replication=3,
                      network=None, shared_cpu_slots=None, **node_kwargs):
    """SSD nodes; ``shared_cpu_slots`` puts them on one machine with that
    many hardware threads (§7.5)."""
    keyspace = KeySpace(n_keys, value_size=1 * KB, span_bytes=4 * GB,
                        align=16 * KB)
    cpu = Semaphore(sim, shared_cpu_slots) if shared_cpu_slots else None
    nodes = [build_ssd_node(sim, i, keyspace, cpu=cpu, **node_kwargs)
             for i in range(n_nodes)]
    return cluster_env(sim, nodes, keyspace, network, replication)


def build_lsm_cluster(sim, n_nodes, n_keys):
    """Riak-role LSM nodes, each loaded with keys ``0..n_keys-1``; noise
    spans 800 GB of each disk."""
    keyspace = KeySpace(n_keys, value_size=1 * KB, span_bytes=800 * GB)
    nodes = [build_lsm_node(sim, i, range(n_keys)) for i in range(n_nodes)]
    return cluster_env(sim, nodes, keyspace)


# -- strategies --------------------------------------------------------------

#: The constructor keyword each timeout-like strategy takes ``deadline_us``
#: as; the other strategies take none.
DEADLINE_KEYWORDS = {"appto": "timeout_us", "hedged": "hedge_delay_us",
                     "mittos": "deadline_us", "adaptive": "deadline_us"}


def make_strategy(name, cluster, deadline_us=None, **kwargs):
    """Build a strategy line; timeout-like strategies need ``deadline_us``."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy: {name}") from None
    if name in DEADLINE_KEYWORDS:
        kwargs[DEADLINE_KEYWORDS[name]] = deadline_us
    return cls(cluster, **kwargs)


# -- running --------------------------------------------------------------

def run_clients(env, strategy, n_clients, n_ops, scale_factor=1,
                think_time_us=2 * MS, name="", limit_us=None,
                stagger_us=0.0):
    """Run YCSB clients, each on uniform keys, against the env; returns
    the latency recorder."""
    sim = env.sim
    dists = [UniformKeys(env.keyspace.n_keys, sim.rng(f"keys/{i}"))
             for i in range(n_clients)]
    recorder, procs = run_ycsb(sim, strategy, dists, n_clients,
                               n_ops, scale_factor, think_time_us,
                               name=name, stagger_us=stagger_us)
    sim.run_until(sim.all_of(procs), limit=limit_us)
    return recorder


def apply_ec2_noise(env, noise_model, horizon_us):
    """Attach EC2-style noise schedules to every node's injector."""
    rng = env.sim.rng("ec2")
    schedules = noise_model.schedules(rng, len(env.nodes), horizon_us)
    for injector, episodes in zip(env.injectors, schedules):
        injector.run_schedule([tuple(ep) for ep in episodes])
    return schedules


def run_ec2_disk_line(sim, strategy_name, deadline_us=None, n_nodes=20,
                      n_clients=30, n_ops=1200, think_time_us=6 * MS, *,
                      horizon_us, scale_factor=1, node_kwargs=None,
                      strategy_kwargs=None, stagger_us=0.0):
    """One strategy line of the Figure 5/6 family on ``sim``: disk nodes
    under EC2 disk noise until ``horizon_us``.

    Returns (recorder, strategy, env).  Figures pass a fresh
    ``Simulator(seed=seed)`` per line, so every line sees the identical
    EC2 noise replay; scenario hooks pass their caller's simulator.
    """
    env = build_disk_cluster(sim, n_nodes, **(node_kwargs or {}))
    apply_ec2_noise(env, Ec2NoiseModel("disk"), horizon_us)
    strategy = make_strategy(strategy_name, env.cluster,
                             deadline_us=deadline_us,
                             **(strategy_kwargs or {}))
    recorder = run_clients(env, strategy, n_clients, n_ops,
                           scale_factor=scale_factor,
                           think_time_us=think_time_us,
                           name=strategy_name, limit_us=horizon_us,
                           stagger_us=stagger_us)
    return recorder, strategy, env


def scale_factor_sweep(result, run_line, base, hedge_delay_us, deadline_us,
                       scale_factors, percentiles, heading,
                       reduction_heading):
    """The Figure 6/7/8 loop: Base, Hedged and MittOS at each scale factor.

    ``run_line(name, deadline_us, sf)`` runs one line and returns its
    recorder; ``base`` is the SF=1 Base recorder the figure already ran
    for its deadline.  Adds one percentile table per scale factor and the
    reduction table of MittOS vs Hedged; leaves ``lines_sf{sf}`` and
    ``reductions`` in ``result.data``.
    """
    reductions = {}
    for sf in scale_factors:
        lines = {"base": base if sf == 1 else run_line("base", None, sf)}
        lines["hedged"] = run_line("hedged", hedge_delay_us, sf)
        lines["mittos"] = run_line("mittos", deadline_us, sf)
        for key, rec in lines.items():
            rec.name = f"{key}/SF={sf}"
        headers, rows = percentile_rows(list(lines.values()),
                                        percentiles=percentiles)
        result.add_table(f"{heading}: scale factor {sf} (ms)", headers, rows)
        reductions[sf] = latency_reduction(lines["hedged"], lines["mittos"],
                                           percentiles=(75, 90, 95, 99))
        result.data[f"lines_sf{sf}"] = lines
    red_rows = [[f"SF={sf}"] +
                [round(reductions[sf][k], 1)
                 for k in ("avg", "p75", "p90", "p95", "p99")]
                for sf in scale_factors]
    result.add_table(reduction_heading,
                     ["scale", "avg", "p75", "p90", "p95", "p99"], red_rows)
    result.data["reductions"] = reductions


class ExperimentResult:
    """What an experiment hands back: data rows plus printable tables."""

    def __init__(self, experiment_id, title):
        self.experiment_id = experiment_id
        self.title = title
        self.sections = []   # (heading, headers, rows)
        self.data = {}
        self.notes = []
        self.plots = []      # (title, [recorders], kwargs)

    def add_table(self, heading, headers, rows):
        self.sections.append((heading, headers, rows))

    def add_note(self, note):
        self.notes.append(note)

    def add_plot(self, title, recorders, **kwargs):
        """Register a CDF plot (rendered on demand by render_plots)."""
        self.plots.append((title, list(recorders), kwargs))

    def render_plots(self):
        from repro.metrics.ascii_plot import ascii_cdf
        parts = []
        for title, recorders, kwargs in self.plots:
            parts.append(ascii_cdf(recorders, title=title, **kwargs))
        return "\n\n".join(parts)

    def to_dict(self):
        """JSON-serializable form (tables + notes; no raw recorders)."""
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "tables": [
                {"heading": heading, "headers": headers, "rows": rows}
                for heading, headers, rows in self.sections
            ],
            "notes": list(self.notes),
        }

    def render(self):
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        for heading, headers, rows in self.sections:
            parts.append(format_table(headers, rows, title=heading))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def percentile_rows(recorders, percentiles=(50, 75, 90, 95, 99)):
    """One row per recorder: name, count, mean, pXX... (ms)."""
    rows = []
    for rec in recorders:
        row = [rec.name, len(rec), round(rec.mean_ms, 2)]
        row += [round(rec.p(p), 2) for p in percentiles]
        rows.append(row)
    headers = ["line", "n", "avg_ms"] + [f"p{p}" for p in percentiles]
    return headers, rows
