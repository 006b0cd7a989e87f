"""Shared experiment plumbing: cluster builders, strategy factory, runners.

Every figure builds one of three node flavours:

* **disk node** — Disk + CFQ (or noop) + MittCFQ + mmap engine (MongoDB
  role), optionally with a page cache in front;
* **cache node** — disk node with a cache large enough for the dataset,
  preloaded, running MittCache (stacked on MittCFQ);
* **ssd node** — OpenChannel SSD + noop + MittSSD.

Strategy lines are compared on *fresh simulators with the same seed*, so
every line sees an identical noise schedule — the simulator's substitute
for the paper's "replay the same 5-minute EC2 timeslice against each
technique".
"""

from functools import lru_cache

from repro._units import KB, MS
from repro.cluster import Cluster, Network, StorageNode
from repro.cluster.strategies import (AdaptiveStrategy, AppToStrategy,
                                      BaseStrategy, C3Strategy,
                                      CloneStrategy, HedgedStrategy,
                                      MittosStrategy, SnitchStrategy,
                                      TiedStrategy)
from repro.devices import Disk, DiskParams, Ssd, SsdGeometry
from repro.devices.disk_profile import profile_disk
from repro.devices.ssd_profile import SsdLatencyModel
from repro.engines import KeySpace, LsmEngine, MMapEngine
from repro.kernel import CfqScheduler, NoopScheduler, OS, PageCache
from repro.metrics import format_table, latency_reduction
from repro.mittos import MittCache, MittCfq, MittNoop, MittSsd
from repro.workloads import NoiseInjector, UniformKeys, ZipfianKeys
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


# -- node builders ------------------------------------------------------------

def build_disk_node(sim, node_id, keyspace, mitt=True, mitt_mode="precise",
                    scheduler="cfq", shadow=False, fault_injector=None,
                    cache_pages=None, disk_params=None, cancel_bumped=True):
    """One MongoDB-role node over a disk."""
    disk = Disk(sim, disk_params or DiskParams(), name=f"n{node_id}")
    if scheduler == "cfq":
        sched = CfqScheduler(sim, disk)
        predictor_cls = MittCfq
    elif scheduler == "noop":
        sched = NoopScheduler(sim, disk)
        predictor_cls = MittNoop
    else:
        raise ValueError(f"unknown scheduler: {scheduler}")
    predictor = None
    if mitt:
        kwargs = dict(mode=mitt_mode, shadow=shadow,
                      fault_injector=fault_injector)
        if predictor_cls is MittCfq:
            kwargs["cancel_bumped"] = cancel_bumped
        predictor = predictor_cls(disk_latency_model(), **kwargs)
    cache = (PageCache(sim, cache_pages) if cache_pages else None)
    if cache is not None and predictor is not None:
        predictor = MittCache(io_predictor=predictor)
    os_ = OS(sim, disk, sched, cache=cache, predictor=predictor)
    engine = MMapEngine(os_, keyspace, pid=100 + node_id)
    return StorageNode(sim, node_id, os_, engine)


def build_ssd_node(sim, node_id, keyspace, mitt=True, mitt_mode="precise",
                   geometry=None, shadow=False, fault_injector=None,
                   cpu=None, handler_cpu_us=60.0):
    """One node over an OpenChannel SSD partition."""
    ssd = Ssd(sim, geometry or SsdGeometry(), name=f"n{node_id}")
    sched = NoopScheduler(sim, ssd)  # noop is the right choice for SSDs
    predictor = None
    if mitt:
        predictor = MittSsd(ssd, SsdLatencyModel.from_spec(ssd.geometry),
                            mode=mitt_mode, shadow=shadow,
                            fault_injector=fault_injector)
    os_ = OS(sim, ssd, sched, predictor=predictor)
    engine = MMapEngine(os_, keyspace, pid=100 + node_id,
                        use_addrcheck=False)
    node = StorageNode(sim, node_id, os_, engine,
                       handler_cpu_us=handler_cpu_us)
    if cpu is not None:
        node.cpu = cpu  # shared machine CPU (§7.5's 6-nodes-1-machine)
    return node


def build_lsm_node(sim, node_id, keys, mitt=True, disk_params=None):
    """One Riak-role node: LSM engine over disk + CFQ (§7.8.4)."""
    disk = Disk(sim, disk_params or DiskParams(), name=f"n{node_id}")
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(disk_latency_model()) if mitt else None
    os_ = OS(sim, disk, sched, predictor=predictor)
    engine = LsmEngine(os_, pid=100 + node_id)
    engine.load_bulk(keys, tables=8)
    return StorageNode(sim, node_id, os_, engine)


# -- cluster builders ------------------------------------------------------------

def build_disk_cluster(sim, n_nodes, n_keys=20_000, replication=3,
                       network=None, **node_kwargs):
    keyspace = KeySpace(n_keys, value_size=1 * KB,
                        span_bytes=900 * (1 << 30))
    nodes = [build_disk_node(sim, i, keyspace, **node_kwargs)
             for i in range(n_nodes)]
    net = network or Network(sim)
    cluster = Cluster(sim, nodes, net, replication=replication)
    injectors = [NoiseInjector(sim, node.os, keyspace.span_bytes,
                               name=f"n{node.node_id}")
                 for node in nodes]
    return Env(sim, cluster, injectors, keyspace)


def build_cache_cluster(sim, n_nodes, n_keys=4_000, replication=3,
                        network=None, headroom=1.25, **node_kwargs):
    """Nodes whose dataset fits the page cache (preloaded)."""
    cache_pages = int(n_keys * headroom)  # 1 record -> 1 page
    env = build_disk_cluster(sim, n_nodes, n_keys=n_keys,
                             replication=replication, network=network,
                             cache_pages=cache_pages, **node_kwargs)
    for node in env.nodes:
        node.engine.preload(range(n_keys))
    return env


def build_ssd_cluster(sim, n_nodes, n_keys=20_000, replication=3,
                      network=None, geometry=None, shared_cpu_slots=None,
                      handler_cpu_us=60.0, **node_kwargs):
    from repro.sim.resources import Semaphore
    keyspace = KeySpace(n_keys, value_size=1 * KB,
                        span_bytes=4 * (1 << 30), align=16 * KB)
    cpu = (Semaphore(sim, shared_cpu_slots)
           if shared_cpu_slots else None)
    nodes = [build_ssd_node(sim, i, keyspace, geometry=geometry, cpu=cpu,
                            handler_cpu_us=handler_cpu_us, **node_kwargs)
             for i in range(n_nodes)]
    net = network or Network(sim)
    cluster = Cluster(sim, nodes, net, replication=replication)
    injectors = [NoiseInjector(sim, node.os, keyspace.span_bytes,
                               name=f"n{node.node_id}")
                 for node in nodes]
    return Env(sim, cluster, injectors, keyspace)


# -- strategies --------------------------------------------------------------

def make_strategy(name, cluster, deadline_us=None, **kwargs):
    """Build a strategy line; timeout-like strategies need ``deadline_us``."""
    if name == "base":
        return BaseStrategy(cluster, **kwargs)
    if name == "appto":
        return AppToStrategy(cluster, timeout_us=deadline_us, **kwargs)
    if name == "clone":
        return CloneStrategy(cluster, **kwargs)
    if name == "hedged":
        return HedgedStrategy(cluster, hedge_delay_us=deadline_us, **kwargs)
    if name == "tied":
        return TiedStrategy(cluster, **kwargs)
    if name == "snitch":
        return SnitchStrategy(cluster, **kwargs)
    if name == "c3":
        return C3Strategy(cluster, **kwargs)
    if name == "mittos":
        return MittosStrategy(cluster, deadline_us=deadline_us, **kwargs)
    if name == "adaptive":
        return AdaptiveStrategy(cluster, deadline_us=deadline_us, **kwargs)
    raise ValueError(f"unknown strategy: {name}")


# -- running --------------------------------------------------------------

def run_clients(env, strategy, n_clients, n_ops, scale_factor=1,
                think_time_us=2 * MS, name="", key_dist="uniform",
                limit_us=None, stagger_us=0.0):
    """Run YCSB clients against the env; returns the latency recorder."""
    sim = env.sim
    if key_dist == "uniform":
        dists = [UniformKeys(env.keyspace.n_keys, sim.rng(f"keys/{i}"))
                 for i in range(n_clients)]
    elif key_dist == "zipfian":
        dists = [ZipfianKeys(env.keyspace.n_keys, sim.rng(f"keys/{i}"))
                 for i in range(n_clients)]
    else:
        raise ValueError(f"unknown key distribution: {key_dist}")
    recorder, procs = run_ycsb(sim, strategy, dists, n_clients,
                               n_ops, scale_factor, think_time_us,
                               name=name, stagger_us=stagger_us)
    sim.run_until(sim.all_of(procs), limit=limit_us)
    return recorder


def apply_ec2_noise(env, noise_model, horizon_us, rng_name="ec2"):
    """Attach EC2-style noise schedules to every node's injector."""
    rng = env.sim.rng(rng_name)
    schedules = noise_model.schedules(rng, len(env.nodes), horizon_us)
    for injector, episodes in zip(env.injectors, schedules):
        injector.run_schedule([tuple(ep) for ep in episodes])
    return schedules


def run_ec2_disk_line(sim, strategy_name, deadline_us=None, n_nodes=20,
                      n_clients=30, n_ops=1200, think_time_us=6 * MS,
                      horizon_us=None, scale_factor=1, noise_model=None,
                      node_kwargs=None, strategy_kwargs=None,
                      stagger_us=0.0):
    """One strategy line of the Figure 5/6 family on ``sim``.

    Returns (recorder, strategy, env).  Figures pass a fresh
    ``Simulator(seed=seed)`` per line, so every line sees the identical
    EC2 noise replay; scenario hooks pass their caller's simulator.
    """
    from repro.workloads import Ec2NoiseModel
    env = build_disk_cluster(sim, n_nodes, **(node_kwargs or {}))
    horizon = horizon_us or 120_000_000.0
    apply_ec2_noise(env, noise_model or Ec2NoiseModel("disk"), horizon)
    strategy = make_strategy(strategy_name, env.cluster,
                             deadline_us=deadline_us,
                             **(strategy_kwargs or {}))
    recorder = run_clients(env, strategy, n_clients, n_ops,
                           scale_factor=scale_factor,
                           think_time_us=think_time_us,
                           name=strategy_name, limit_us=horizon,
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
