"""Strategy machinery + the vanilla and timeout-retry strategies.

Resilience plumbing (fault plane): every strategy can run with a
per-attempt RPC timeout, a per-operation deadline budget, and an attempt
cap, so that no strategy process can hang — under 100% message loss or a
fully-crashed replica set each ``get()`` terminates with ``EIO`` in
bounded simulated time.  Strategies read these knobs, and the replica
health tracker, off the cluster: they default to ``None`` (the fail-free
behaviour, byte-identical traces), and arming a
:class:`repro.faults.FaultPlane` on the cluster sets them.
"""

from repro.errors import EIO, is_ebusy
from repro.sim.events import Race
from repro.obs.events import (DECISION, SPAN_OP, STAGE_BACKOFF,
                              STAGE_FAILOVER_HOP, STAGE_NETWORK_HOP,
                              STAGE_PARALLEL_WAIT, STAGE_SERVER,
                              STAGE_TIMEOUT_WAIT)
from repro.obs.spans import close_op_spans

#: Attempt cap used when an RPC timeout is set but no explicit cap is:
#: bounds the last-resort retry loop even with an infinite budget.
DEFAULT_MAX_ATTEMPTS = 12

#: Last-resort backoff: the first round waits about this long, each later
#: round doubles it up to the cap (µs, before jitter).
BACKOFF_BASE_US = 1000.0
BACKOFF_CAP_US = 64000.0


class OpContext:
    """Per-operation resilience budget (and, when tracing, its span set).

    One instance per ``get()`` — strategies are shared across concurrent
    client processes, so per-operation state must travel with the
    operation, never live on ``self``.
    """

    __slots__ = ("start", "budget_us", "rpc_timeout_us", "max_attempts",
                 "attempts", "timeouts", "spans", "_mark")

    def __init__(self, start, budget_us=None, rpc_timeout_us=None,
                 max_attempts=None):
        self.start = start
        self.budget_us = budget_us
        self.rpc_timeout_us = rpc_timeout_us
        self.max_attempts = max_attempts
        self.attempts = 0
        self.timeouts = 0
        #: Stage dict for span attribution; None (the default) disables
        #: charging entirely, keeping the fail-free hot path allocation-free.
        self.spans = None
        self._mark = start

    def charge(self, stage, now):
        """Attribute the interval since the last mark to ``stage``.

        Charged intervals are contiguous and non-overlapping by
        construction (the mark always advances to ``now``), so the charged
        stages can never sum to more than the op's wall time — whatever no
        stage claims is closed into ``client-other`` at completion.
        """
        if self.spans is None:
            return
        dt = now - self._mark
        if dt > 0.0:
            self.spans[stage] = self.spans.get(stage, 0.0) + dt
        self._mark = now

    def remaining_us(self, now):
        """Budget left (None = unbounded)."""
        if self.budget_us is None:
            return None
        return self.start + self.budget_us - now

    def attempt_limit_us(self, now):
        """Wait cap for one RPC: min(rpc timeout, remaining budget)."""
        remaining = self.remaining_us(now)
        if self.rpc_timeout_us is None:
            return remaining
        if remaining is None:
            return self.rpc_timeout_us
        return min(self.rpc_timeout_us, remaining)

    def exhausted(self, now):
        remaining = self.remaining_us(now)
        if remaining is not None and remaining <= 0:
            return True
        return (self.max_attempts is not None
                and self.attempts >= self.max_attempts)


class Strategy:
    """Base class: a client-side policy for one get() across replicas.

    ``get(key)`` returns a process event whose value is the final result
    (a record, ``EIO`` when every choice failed, or — never for well-formed
    strategies — ``EBUSY``).  Subclasses implement
    ``_run(key, replicas, ctx)``.

    That process is the op's only one on a sequential path: an attempt
    that waits on no timer runs inline in it (``yield from``), down
    through the node and the engine.  An attempt gets a process of its
    own only when the op must wait on it as an event: when it races a
    timer (a :class:`~repro.sim.events.Race`) or runs beside another
    copy (hedged, clone).
    """

    name = "strategy"

    def __init__(self, cluster, tier_priority=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.retries = 0
        self.duplicates = 0
        self.rpc_timeouts = 0
        self.eio_failovers = 0
        #: SLO-control work tier: the CFQ priority this strategy's reads
        #: carry server-side (None = node default; admission guards shed
        #: high-numbered tiers first, so background pools use 7).
        self.tier_priority = tier_priority
        #: Bound lazily so fault-free runs never open the stream.
        self._backoff_rng = None

    def get(self, key):
        replicas = self.cluster.replicas_for(key)
        health = self.cluster.health
        if health is not None:
            replicas = health.order(replicas)
        ctx = self._op_context()
        proc = self.sim.process(self._run(key, replicas, ctx))
        bus = self.sim.bus
        if bus.recorder.active:
            ctx.spans = {}
            proc.add_callback(lambda ev: self._record_op_span(ev, key, ctx))
        return proc

    def _record_op_span(self, proc_event, key, ctx):
        """Emit the op-level ``span.op`` event at get() completion."""
        now = self.sim.now
        stages = dict(close_op_spans(ctx, now))
        ctx.spans = None  # straggler attempts must not mutate the record
        if not proc_event.ok:
            outcome = "error"
        elif proc_event.value is EIO:
            outcome = "eio"
        elif is_ebusy(proc_event.value):
            outcome = "ebusy"
        else:
            outcome = "ok"
        self.sim.bus.record(SPAN_OP, {
            "strategy": self.name, "key": key, "outcome": outcome,
            "attempts": ctx.attempts, "timeouts": ctx.timeouts,
            "total": now - ctx.start, "stages": stages})

    def _note_decision(self, kind, **fields):
        """Record one client-policy decision (trace plane only)."""
        bus = self.sim.bus
        if bus.recorder.active:
            fields["strategy"] = self.name
            fields["kind"] = kind
            bus.record(DECISION, fields)

    def _run(self, key, replicas, ctx):
        raise NotImplementedError
        yield  # pragma: no cover

    # -- resilience plumbing ----------------------------------------------
    def _op_context(self):
        cluster = self.cluster
        rpc = cluster.default_rpc_timeout_us
        cap = cluster.default_max_attempts
        if cap is None and rpc is not None:
            cap = DEFAULT_MAX_ATTEMPTS
        return OpContext(self.sim.now, budget_us=cluster.default_op_budget_us,
                         rpc_timeout_us=rpc, max_attempts=cap)

    def _note_result(self, node, value):
        """Feed the health tracker one completed RPC (EBUSY is healthy)."""
        health = self.cluster.health
        if health is not None:
            health.record(node.node_id, value is EIO)

    def _note_timeout(self, node):
        """Feed the health tracker one timed-out / lost RPC."""
        self.rpc_timeouts += 1
        health = self.cluster.health
        if health is not None:
            health.record(node.node_id, True)

    def _backoff_us(self, round_no):
        """Deterministic exponential backoff with jitter (named stream)."""
        if self._backoff_rng is None:
            self._backoff_rng = self.sim.rng("strategy/backoff")
        base = min(BACKOFF_BASE_US * (2 ** round_no), BACKOFF_CAP_US)
        # "Equal jitter": U[base/2, base) — spreads retries, keeps a floor.
        return base / 2 + self._backoff_rng.random() * (base / 2)

    # -- helpers ---------------------------------------------------------
    def _attempt(self, node, key, deadline=None, ctx=None):
        """:meth:`_attempt_gen` as a process event, for attempts the op
        races against a timer or runs beside another copy."""
        return self.sim.process(self._attempt_gen(node, key, deadline, ctx))

    def _attempt_gen(self, node, key, deadline, ctx=None):
        """One request/response round-trip to a node (a generator).

        Pass ``ctx`` from *sequential* call sites only: the attempt then
        charges its network/server intervals to the op's span set.
        Parallel fan-outs (hedged, clone) must omit it — their concurrent
        waiting is charged as ``parallel-wait`` by the caller.
        """
        net = self.network
        track = ctx is not None and ctx.spans is not None
        # The first attempt's hops are the op's base network cost; every
        # later attempt's hops are failover overhead.
        hop_stage = (STAGE_NETWORK_HOP if ctx is None or ctx.attempts <= 1
                     else STAGE_FAILOVER_HOP)
        yield net.send(net.CLIENT, node.node_id)
        if track:
            ctx.charge(hop_stage, self.sim.now)
        if not node.up:
            # Crashed server: the request is swallowed; only the caller's
            # timeout can end this attempt.
            yield self.sim.event()
        epoch = node.epoch
        result = yield from node.get(key, deadline,
                                     priority=self.tier_priority)
        if track:
            ctx.charge(STAGE_SERVER, self.sim.now)
        if not node.up or node.epoch != epoch:
            # The node crashed while serving: the reply is lost.
            yield self.sim.event()
        yield net.send(node.node_id, net.CLIENT)
        if track:
            ctx.charge(hop_stage, self.sim.now)
        return result

    def _timed_attempt(self, node, key, deadline, ctx, cap_us=None):
        """One RPC bounded by the op context; (finished, value).

        ``finished`` is False when the RPC timed out (or the budget was
        already gone).  ``cap_us`` tightens the bound further (e.g. a
        deadline-derived cap) but only when the context is bounded at all.
        With no context bounds this is a plain attempt run inline — the
        fail-free path, which needs no process of its own.
        """
        limit = ctx.attempt_limit_us(self.sim.now)
        if limit is not None and cap_us is not None:
            limit = min(limit, cap_us)
        if limit is not None and limit <= 0:
            return False, None
        ctx.attempts += 1
        if limit is None:
            value = yield from self._attempt_gen(node, key, deadline, ctx)
            self._note_result(node, value)
            return True, value
        finished, value = yield Race(
            self.sim, self._attempt(node, key, deadline, ctx), limit)
        if finished:
            self._note_result(node, value)
            return True, value
        ctx.timeouts += 1
        ctx.charge(STAGE_TIMEOUT_WAIT, self.sim.now)
        self._note_decision("rpc-timeout", node=node.node_id, limit_us=limit)
        self._note_timeout(node)
        return False, None

    def _last_resort(self, key, candidates, ctx):
        """The bounded last resort: cycle ``candidates`` with exponential
        backoff until a real record arrives or the budget/attempt cap runs
        out, then give up with ``EIO``.  Its attempts carry no deadline.

        With no RPC timeout configured this degenerates to the historical
        single unbounded attempt on ``candidates[0]``.
        """
        if ctx.rpc_timeout_us is None:
            ctx.attempts += 1
            result = yield from self._attempt_gen(candidates[0], key,
                                                  None, ctx)
            self._note_result(candidates[0], result)
            return result
        round_no = 0
        while not ctx.exhausted(self.sim.now):
            for node in candidates:
                if ctx.exhausted(self.sim.now):
                    break
                finished, value = yield from self._timed_attempt(
                    node, key, None, ctx)
                if finished and value is EIO:
                    self.eio_failovers += 1
                    continue
                if finished and not is_ebusy(value):
                    return value
            remaining = ctx.remaining_us(self.sim.now)
            if remaining is not None and remaining <= 0:
                break
            delay = self._backoff_us(round_no)
            if remaining is not None:
                delay = min(delay, remaining)
            self._note_decision("backoff", round_no=round_no, delay_us=delay)
            yield delay
            ctx.charge(STAGE_BACKOFF, self.sim.now)
            round_no += 1
        return EIO

    def _first_good(self, events, ctx, nodes=None):
        """First non-error completion among ``events``; EIO when none.

        Bounded by the op context: if the context carries a limit and the
        remaining events never answer within it, gives up with EIO instead
        of waiting forever on lost messages.
        """
        pending = list(events)
        sources = list(nodes) if nodes is not None else [None] * len(pending)
        while pending:
            limit = ctx.attempt_limit_us(self.sim.now)
            if limit is None:
                idx, value = yield self.sim.any_of(pending)
                ctx.charge(STAGE_PARALLEL_WAIT, self.sim.now)
            else:
                if limit <= 0:
                    return EIO
                finished, raced = yield Race(
                    self.sim, self.sim.any_of(pending), limit)
                if not finished:
                    self.rpc_timeouts += 1
                    ctx.charge(STAGE_TIMEOUT_WAIT, self.sim.now)
                    return EIO
                idx, value = raced
                ctx.charge(STAGE_PARALLEL_WAIT, self.sim.now)
            node = sources[idx]
            if node is not None:
                self._note_result(node, value)
            if not is_ebusy(value) and value is not EIO:
                return value
            if value is EIO:
                self.eio_failovers += 1
            pending.pop(idx)
            sources.pop(idx)
        return EIO


class BaseStrategy(Strategy):
    """Vanilla store: one replica, coarse timeout, no failover (Table 1).

    With the default 30 s timeout an IO can stall behind a busy disk for as
    long as the contention lasts; on timeout the *user* gets a read error
    even though less-busy replicas exist — the behaviour the paper observed
    in three of six NoSQL systems.
    """

    name = "base"

    def __init__(self, cluster, timeout_us=30_000_000.0, **kwargs):
        super().__init__(cluster, **kwargs)
        self.timeout_us = timeout_us
        self.timeouts = 0

    def _run(self, key, replicas, ctx):
        node = replicas[0]
        timeout = self.timeout_us
        limit = ctx.attempt_limit_us(self.sim.now)
        if limit is not None:
            timeout = min(timeout, limit)
        attempt = self._attempt(node, key, ctx=ctx)
        finished, value = yield Race(self.sim, attempt, timeout)
        if not finished:
            self.timeouts += 1
            ctx.charge(STAGE_TIMEOUT_WAIT, self.sim.now)
            self._note_decision("coarse-timeout", node=node.node_id,
                                timeout_us=timeout)
            self._note_timeout(node)
            return EIO
        self._note_result(node, value)
        return value


class AppToStrategy(Strategy):
    """Application timeout with failover (§7.2's "AppTO").

    Wait ``timeout_us`` (the p95 deadline), cancel the try, move to the next
    replica; the third try runs without a timeout so users never see IO
    errors while a replica can still answer.  Under an armed fault plane
    the "without a timeout" part is bounded by the op budget instead, and a
    replica answering EIO (latent read error) also triggers failover.
    """

    name = "appto"

    def __init__(self, cluster, timeout_us, **kwargs):
        super().__init__(cluster, **kwargs)
        self.timeout_us = timeout_us

    def _run(self, key, replicas, ctx):
        for node in replicas[:-1]:
            timeout = self.timeout_us
            limit = ctx.attempt_limit_us(self.sim.now)
            if limit is not None:
                if limit <= 0:
                    return EIO
                timeout = min(timeout, limit)
            ctx.attempts += 1
            attempt = self._attempt(node, key, ctx=ctx)
            finished, value = yield Race(self.sim, attempt, timeout)
            if finished:
                self._note_result(node, value)
                if value is EIO:
                    self.eio_failovers += 1
                    self.retries += 1
                    self._note_decision("eio-failover", node=node.node_id)
                    continue
                return value
            self.retries += 1  # timed out; abandon and go to next replica
            ctx.charge(STAGE_TIMEOUT_WAIT, self.sim.now)
            self._note_decision("timeout-failover", node=node.node_id,
                                timeout_us=timeout)
            self._note_timeout(node)
        order = [replicas[-1]] + list(replicas[:-1])
        result = yield from self._last_resort(key, order, ctx)
        return result
