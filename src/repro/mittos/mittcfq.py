"""MittCFQ — disk prediction under the CFQ scheduler (§4.2).

Two things change relative to MittNoop:

* **Whose turn is it?**  An arriving IO waits not only for device-resident
  IOs but for every scheduler-queued IO that CFQ policy will dispatch first
  (higher service classes; other nodes in the rotation; earlier offsets in
  its own node).  :meth:`CfqScheduler.requests_ahead_of` supplies that set,
  maintained per process — the paper's O(P) accounting.

* **Bump-backs.**  CFQ can accept an IO and *then* let newly arriving IOs
  overtake it — a higher service class always goes first, and within the
  same process node the offset-sorted queue lets a closer IO cut in line —
  violating a deadline that looked safe at admission.  The paper handles
  this with a hash table keyed by *tolerable time* (how much extra delay
  the IO can still absorb, bucketed by 1 ms): every accepted IO's predicted
  service is debited against the tolerable time of the queued IOs it
  overtakes, and an IO whose tolerable time goes negative is cancelled with
  a (late) EBUSY.  We keep the same ledger with explicit per-entry
  tolerable times; in shadow mode (accuracy tests, §7.6) a late
  cancellation flips the recorded decision (``req.shadow_ebusy``, and a
  ``predictor.late_reject`` trace event) instead of revoking the IO,
  matching "EBUSY flag attached to the IO descriptor".
"""

from repro.mittos.mittnoop import MittNoop
from repro.obs.events import LATE_REJECT, request_fields


class _LedgerEntry:
    """A queued deadline IO and the delay it can still absorb."""

    __slots__ = ("req", "tolerable", "alive")

    def __init__(self, req, tolerable):
        self.req = req
        self.tolerable = tolerable
        self.alive = True


class MittCfq(MittNoop):
    """CFQ-aware disk prediction with late cancellation."""

    name = "mittcfq"

    def __init__(self, model, cancel_bumped=True, **kwargs):
        super().__init__(model, **kwargs)
        #: Disable to ablate §4.2's accuracy improvement (bump-back FNs).
        self.cancel_bumped = cancel_bumped
        self._ledger = []
        self.late_cancellations = 0

    def _attached(self):
        super()._attached()
        self.os.scheduler.add_submit_listener(self._on_submit)

    # -- CFQ-aware wait estimation ----------------------------------------------
    def _ahead_in_scheduler(self, req):
        return self.os.scheduler.requests_ahead_of(req)

    # -- tolerable-time ledger ---------------------------------------------------
    def _on_admit(self, req):
        if req.abs_deadline is None or not self.cancel_bumped:
            return
        hop = self.os.params.failover_hop_us
        predicted_complete = (self.sim.now + req.predicted_wait
                              + req.predicted_service)
        tolerable = max(0.0, (req.abs_deadline + hop) - predicted_complete)
        entry = _LedgerEntry(req, tolerable)
        req.tag["mittcfq_ledger"] = entry
        self._ledger.append(entry)

    def _on_submit(self, new_req):
        """Debit every queued deadline IO the newcomer overtakes."""
        if not self.cancel_bumped or not self._ledger:
            return
        service = self.model.service_time(new_req.offset, new_req)
        for entry in self._ledger:
            if not entry.alive:
                continue
            queued = entry.req
            if queued is new_req or queued.dispatch_time is not None:
                continue
            if self._overtakes(new_req, queued):
                entry.tolerable -= service
                if entry.tolerable < 0:
                    self._bump_cancel(entry)
        if len(self._ledger) > 64:
            self._ledger = [e for e in self._ledger if e.alive]

    @staticmethod
    def _overtakes(new_req, queued):
        """Will CFQ dispatch ``new_req`` before the already-queued IO?"""
        if new_req.ioclass < queued.ioclass:
            return True  # RealTime overtakes BestEffort overtakes Idle
        if (new_req.ioclass == queued.ioclass
                and new_req.pid == queued.pid
                and new_req.offset <= queued.offset):
            return True  # cuts in line in the offset-sorted process queue
        return False

    def _bump_cancel(self, entry):
        entry.alive = False
        req = entry.req
        if self.shadow:
            # Accuracy mode: the EBUSY decision is recorded, the IO runs.
            req.shadow_ebusy = True
            self.late_cancellations += 1
            bus = self.bus
            if bus.recorder.active:
                bus.record(LATE_REJECT, dict(request_fields(req),
                                             predictor=self.name))
            return
        if self.os.scheduler.cancel(req):
            self.late_cancellations += 1

    def _retire(self, req):
        entry = req.tag.get("mittcfq_ledger")
        if entry is not None:
            entry.alive = False

    def _on_dispatch(self, req):
        super()._on_dispatch(req)
        self._retire(req)  # in the device now; revocation is impossible

    def _on_complete(self, req):
        super()._on_complete(req)
        self._retire(req)

    def process_count(self):
        """P in the paper's O(P) complexity bound."""
        return self.os.scheduler.process_count()
