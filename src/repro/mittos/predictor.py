"""Predictor base: the admit-or-EBUSY decision machinery (§3.4).

A predictor answers one question for every SLO-tagged IO: *will this request
complete within its deadline?*  Subclasses supply ``_estimate(req)`` —
(predicted wait, predicted service) in µs — and the base class applies the
rejection test

    predicted_wait + predicted_service > deadline + T_hop

where ``T_hop`` is the one-hop failover allowance (0.3 ms in the paper's
testbed).  The base class also hosts the two evaluation facilities:

* **shadow mode** (§7.6): decisions are recorded but never enforced, so the
  true IO completion can be compared against the prediction, and
* **fault injection** (§7.7): flip decisions at a configured false-positive /
  false-negative rate to study tail sensitivity to prediction error.

Scheduler hooks: :meth:`Predictor.attach` registers ``_on_dispatch`` and
``_on_complete`` as its scheduler's dispatch and complete listeners, so the
predictor follows the queue as the scheduler moves it (§4.1).  When a
recorder is active, every :meth:`admit` records a ``predictor.verdict``
event carrying the decision *before* shadow-mode enforcement, tagged with
the ``probe`` flag so addrcheck probes stay distinguishable downstream.
Shadow-mode decisions are graded by
:class:`~repro.obs.accuracy.AccuracyJoiner`, off the trace or (fig9) off
``req.shadow_ebusy`` at completion.
"""

from repro.obs.events import VERDICT, request_fields


class Verdict:
    """Result of an admission check."""

    __slots__ = ("accept", "predicted_wait", "predicted_service")

    def __init__(self, accept, predicted_wait, predicted_service):
        self.accept = accept
        self.predicted_wait = predicted_wait
        self.predicted_service = predicted_service

    def __repr__(self):
        word = "accept" if self.accept else "EBUSY"
        return (f"<Verdict {word} wait={self.predicted_wait:.0f}us "
                f"service={self.predicted_service:.0f}us>")


class Predictor:
    """Base class for MittNoop/MittCfq/MittSsd/MittCache."""

    name = "predictor"

    def __init__(self, shadow=False, fault_injector=None):
        self.os = None
        self.sim = None
        self.bus = None
        #: Lazily-computed (device, dev_kind, sched) labels stamped on
        #: recorded verdict events — the accuracy joiner's group key.
        self._trace_labels = None
        #: Shadow mode: record decisions, enforce nothing (§7.6).
        self.shadow = shadow
        self.fault_injector = fault_injector
        self.admitted = 0
        self.rejected = 0

    # -- lifecycle ----------------------------------------------------------
    def attach(self, os):
        """Bind to an :class:`repro.kernel.syscall.OS` instance."""
        self.os = os
        self.sim = os.sim
        self.bus = os.sim.bus
        os.scheduler.add_dispatch_listener(self._on_dispatch)
        os.scheduler.add_complete_listener(self._on_complete)
        self._attached()

    def _attached(self):
        """Subclass hook: extra wiring after attach."""

    # -- the admission decision ------------------------------------------------
    def admit(self, req, deadline, probe_only=False):
        """Accept or reject ``req`` against its relative ``deadline`` (µs).

        ``probe_only`` is the addrcheck path: evaluate the decision without
        reserving queue time for the IO (the caller may never submit it).
        """
        wait, service = self._estimate(req)
        req.predicted_wait = wait
        req.predicted_service = service
        hop = self.os.params.failover_hop_us if self.os else 0.0
        accept = (wait + service) <= (deadline + hop)

        if self.fault_injector is not None:
            accept = self.fault_injector.apply(accept)

        self._emit_verdict(req, accept, probe_only, deadline, wait, service)

        if self.shadow:
            # Record the would-be decision; always run the IO (§7.6).
            req.shadow_ebusy = not accept
            self._note(True)
            if not probe_only:
                self._on_admit(req)
            return Verdict(True, wait, service)

        self._note(accept)
        if accept and not probe_only:
            self._on_admit(req)
        return Verdict(accept, wait, service)

    def verdict_labels(self):
        """(device, dev_kind, sched) identity of the stack this predictor
        guards — the accuracy joiner's aggregation key, computed on first
        use."""
        labels = self._trace_labels
        if labels is None and self.os is not None:
            os_ = self.os
            sched = type(os_.scheduler).__name__.lower()
            if sched.endswith("scheduler"):
                sched = sched[:-len("scheduler")]
            labels = {"device": os_.device.name,
                      "dev_kind": type(os_.device).__name__.lower(),
                      "sched": sched}
            self._trace_labels = labels
        return labels or {}

    def _emit_verdict(self, req, accept, probe, deadline, wait, service):
        """Record the (pre-shadow-enforcement) decision on the trace."""
        bus = self.bus
        if bus is not None and bus.recorder.active:
            # Plain-type coercion: latency models may hand back numpy
            # scalars, which the canonical JSON encoder rejects.
            bus.record(VERDICT, dict(
                request_fields(req), predictor=self.name,
                accept=bool(accept), probe=bool(probe),
                shadow=bool(self.shadow),
                deadline=None if deadline is None else float(deadline),
                predicted_wait=None if wait is None else float(wait),
                predicted_service=(None if service is None
                                   else float(service)),
                **self.verdict_labels()))

    def _note(self, accept):
        if accept:
            self.admitted += 1
        else:
            self.rejected += 1

    # -- subclass hooks ------------------------------------------------------
    def _estimate(self, req):
        """Return (predicted_wait_us, predicted_service_us) for ``req``."""
        raise NotImplementedError

    def _on_admit(self, req):
        """Bookkeeping when a deadline IO is accepted (e.g. MittCFQ's
        tolerable-time table)."""

    def _on_dispatch(self, req):
        """Scheduler dispatched ``req`` into the device."""

    def _on_complete(self, req):
        """Device completed ``req``."""
