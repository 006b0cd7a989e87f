"""The fault plane: deterministic cluster-scale failure injection.

The :class:`FaultPlane` is driven entirely off the simulator clock: the
declarative :class:`~repro.faults.spec.FaultSpec` is compiled into
``sim.schedule_at`` transitions (crashes, restarts, fail-slow windows,
device storms) at arm time, and the probabilistic members (message loss,
latent read errors, device latency spikes, §7.7 decision flips) draw only
from named streams — ``faults/net``, ``faults/io``, ``faults/decision`` —
so a (seed, spec) pair always injects the identical fault schedule and a
fault-free spec leaves every other stream's draw counts untouched.

Arming also installs the spec's client-side resilience defaults on the
cluster (per-attempt RPC timeout, per-op deadline budget, attempt cap,
shared :class:`~repro.cluster.health.ReplicaHealth`), which is what keeps
every strategy's ``get()`` bounded under total failure.
"""

from repro.cluster.health import ReplicaHealth
from repro.faults.spec import FaultSpec, _window_covers
from repro.mittos.faults import FaultInjector
from repro.obs.events import FAULT


class FaultPlane:
    """Injects faults from a :class:`FaultSpec`, deterministically."""

    def __init__(self, sim, spec=None):
        self.sim = sim
        self.spec = (spec or FaultSpec()).validate()
        self._net_rng = sim.rng("faults/net")
        self._io_rng = sim.rng("faults/io")
        #: The folded-in §7.7 decision-flip member; pass it as the
        #: ``fault_injector`` of predictors / cluster builders.
        self.decision_injector = FaultInjector(
            sim.rng("faults/decision"),
            false_negative_rate=self.spec.false_negative_rate,
            false_positive_rate=self.spec.false_positive_rate)
        self.cluster = None
        self.dropped_messages = 0
        self.injected_read_errors = 0
        self.injected_spikes = 0

    def arm(self, cluster):
        """Bind to a cluster: wire the network/nodes, schedule the windows,
        and install the client resilience defaults.  Returns self."""
        self.cluster = cluster
        cluster.fault_plane = self
        cluster.network.fault_plane = self
        for node in cluster.nodes:
            node.fault_plane = self
        spec = self.spec
        for c in spec.crashes:
            node = cluster.node(c.node)
            self.sim.schedule_at(c.start_us, node.crash)
            if c.duration_us is not None:
                self.sim.schedule_at(c.start_us + c.duration_us, node.restart)
        for f in spec.fail_slow:
            node = cluster.node(f.node)
            self.sim.schedule_at(f.start_us, self._set_slow, node,
                                 f.cpu_factor, f.device_factor)
            self.sim.schedule_at(f.start_us + f.duration_us, self._set_slow,
                                 node, 1.0, 1.0)
        for s in spec.device_storms:
            device = cluster.node(s.node).os.device
            self.sim.schedule_at(s.start_us, self._storm_on, device, s)
            self.sim.schedule_at(s.start_us + s.duration_us,
                                 self._storm_off, device)
        cluster.default_rpc_timeout_us = spec.rpc_timeout_us
        cluster.default_op_budget_us = spec.op_budget_us
        cluster.default_max_attempts = spec.max_attempts
        if spec.track_health and cluster.health is None:
            cluster.health = ReplicaHealth()
        return self

    # -- scheduled transitions --------------------------------------------
    def _record(self, kind, **fields):
        """Trace one fault-plane transition (recorder active only)."""
        bus = self.sim.bus
        if bus.recorder.active:
            fields["kind"] = kind
            bus.record(FAULT, fields)

    def _set_slow(self, node, cpu_factor, device_factor):
        node.cpu_slow_factor = cpu_factor
        node.os.device.latency_scale = device_factor
        self._record("fail-slow", node=node.node_id, cpu_factor=cpu_factor,
                     device_factor=device_factor)

    def _storm_on(self, device, storm):
        device.latency_scale = storm.factor
        self._record("storm-on", device=device.name, factor=storm.factor)

        def extra():
            if storm.spike_prob and \
                    self._io_rng.random() < storm.spike_prob:
                self.injected_spikes += 1
                lo, hi = storm.spike_us
                return self._io_rng.uniform(lo, hi)
            return 0.0

        device.fault_latency_extra = extra

    def _storm_off(self, device):
        device.latency_scale = 1.0
        device.fault_latency_extra = None
        self._record("storm-off", device=device.name)

    # -- probabilistic members (named-stream draws only) -------------------
    def drop_message(self, src, dst):
        """Should this (src, dst) message be lost?  Called by Network.send."""
        now = self.sim.now
        for p in self.spec.partitions:
            if not _window_covers(p.start_us, p.duration_us, now):
                continue
            if (src == p.a and dst == p.b) or (src == p.b and dst == p.a):
                self.dropped_messages += 1
                return True
        for rule in self.spec.message_loss:
            if not _window_covers(rule.start_us, rule.duration_us, now):
                continue
            if rule.src is not None and rule.src != src:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if rule.rate >= 1.0 or self._net_rng.random() < rule.rate:
                self.dropped_messages += 1
                return True
        return False

    def read_error(self, node_id):
        """Should this served read fail with a latent EIO?  Called by the
        node after the engine returned a successful record."""
        now = self.sim.now
        for rule in self.spec.read_errors:
            if rule.node is not None and rule.node != node_id:
                continue
            if not _window_covers(rule.start_us, rule.duration_us, now):
                continue
            if rule.rate >= 1.0 or self._io_rng.random() < rule.rate:
                self.injected_read_errors += 1
                self._record("read-error", node=node_id)
                return True
        return False

    # -- reporting ---------------------------------------------------------
    def counters(self):
        """Injection totals (deterministic for a fixed seed + spec)."""
        return {
            "dropped_messages": self.dropped_messages,
            "injected_read_errors": self.injected_read_errors,
            "injected_spikes": self.injected_spikes,
            "injected_fn": self.decision_injector.injected_fn,
            "injected_fp": self.decision_injector.injected_fp,
        }
