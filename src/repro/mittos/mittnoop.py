"""MittNoop — disk prediction under the noop scheduler (§4.1, §A).

The mechanism the paper layers everything else on:

* **Resource check**: an arriving IO's wait is the drain time of everything
  already in the dispatch and device queues.
* **Performance**: a running ``T_nextFree`` horizon gives an O(1) wait bound;
  the precise mode additionally models the disk's SSTF device-queue order
  (appendix: ``sstfTime``) over the bounded device queue.
* **Accuracy**: service times come from the *profiled* latency model
  (:class:`~repro.devices.disk_profile.DiskLatencyModel`), and a calibration
  feedback loop absorbs model drift: on completion the predicted-vs-actual
  diff nudges the horizon (``T_nextFree += T_diff``) and an EWMA bias absorbs
  systematic error of the SSTF estimate.

``mode="naive"`` disables the SSTF modelling and calibration — the ablation
behind the paper's "without our precision improvements, inaccuracy can be as
high as 47%".
"""

from repro.mittos.predictor import Predictor

#: Stop simulating SSTF order beyond this pool size; approximate the rest.
_SSTF_POOL_CAP = 64

#: EWMA smoothing factor of the calibration bias.
_BIAS_ALPHA = 0.1


class MittNoop(Predictor):
    """Disk wait-time prediction over a FIFO scheduler."""

    name = "mittnoop"

    def __init__(self, model, mode="precise", calibrate=True, **kwargs):
        if mode not in ("precise", "naive"):
            raise ValueError(f"unknown prediction mode: {mode}")
        super().__init__(**kwargs)
        #: Fitted :class:`DiskLatencyModel` (white-box device knowledge).
        self.model = model
        self.mode = mode
        #: Naive mode drops both precision improvements: no SSTF-order
        #: modelling and no completion-diff calibration (§7.6's ablation).
        self.calibrate = calibrate and mode == "precise"
        self._in_device = []          # host mirror of device-resident IOs
        self._head = 0                # head offset after last completion
        self._last_complete = 0.0
        self._next_free = 0.0         # O(1) FIFO horizon (naive mode)
        self._bias = 0.0              # EWMA of (actual - predicted) totals

    # -- estimation -----------------------------------------------------------
    def _estimate(self, req):
        ahead = self._ahead_in_scheduler(req)
        if self.mode == "naive":
            return self._estimate_naive(req, ahead)
        return self._estimate_sstf(req, ahead)

    def _ahead_in_scheduler(self, req):
        """Scheduler-queued IOs that dispatch before ``req`` (FIFO: all)."""
        return self.os.scheduler.queued_requests()

    def _estimate_naive(self, req, ahead):
        """FIFO horizon: everything ahead runs in arrival order."""
        now = self.sim.now
        wait = max(0.0, self._next_free - now)
        prev_offset = self._tail_offset()
        for other in ahead:
            wait += self.model.service_time(prev_offset, other)
            prev_offset = other.end_offset
        service = self.model.service_time(prev_offset, req)
        return wait, service

    def _estimate_sstf(self, req, ahead):
        """Appendix-style estimate: drain the SSTF pool, then serve req."""
        now = self.sim.now
        pool = [r for r in self._in_device if not r.cancelled]
        pool += [r for r in ahead if not r.cancelled]
        if len(pool) > _SSTF_POOL_CAP:
            head_pool, rest = pool[:_SSTF_POOL_CAP], pool[_SSTF_POOL_CAP:]
            extra = sum(self.model.service_time(r.offset, r) for r in rest)
        else:
            head_pool, extra = pool, 0.0
        drain, last_offset = self._sstf_drain(self._head, head_pool)
        # The in-service IO started before now; subtract its elapsed time.
        elapsed = now - self._last_complete if self._in_device else 0.0
        wait = max(0.0, drain + extra - elapsed) + self._bias
        wait = max(0.0, wait)
        service = self.model.service_time(last_offset, req)
        return wait, service

    def _sstf_drain(self, head, pool):
        """Total drain time of ``pool`` in shortest-seek-first order."""
        remaining = list(pool)
        t = 0.0
        cur = head
        service_time = self.model.service_time
        while remaining:
            # Explicit nearest-offset scan (first wins on ties, like the
            # min() it replaces) — this runs per admission decision, and
            # the key-lambda allocation per round showed up in profiles.
            best = 0
            best_dist = abs(remaining[0].offset - cur)
            for i in range(1, len(remaining)):
                dist = abs(remaining[i].offset - cur)
                if dist < best_dist:
                    best, best_dist = i, dist
            nxt = remaining.pop(best)
            t += service_time(cur, nxt)
            cur = nxt.end_offset
        return t, cur

    def _tail_offset(self):
        if self._in_device:
            return self._in_device[-1].end_offset
        return self._head

    # -- bookkeeping (host-visible dispatch/completion events) -------------
    def _on_dispatch(self, req):
        now = self.sim.now
        service = self.model.service_time(self._tail_offset(), req)
        expected = max(self._next_free, now) + service
        self._next_free = expected
        req.tag["expected_complete"] = expected
        self._in_device.append(req)

    def _on_complete(self, req):
        super()._on_complete(req)
        try:
            self._in_device.remove(req)
        except ValueError:
            pass  # cancelled before dispatch
        now = self.sim.now
        self._head = req.end_offset
        self._last_complete = now
        expected = req.tag.get("expected_complete")
        if expected is not None and self.calibrate:
            # T_nextFree += T_diff — §4.1's calibration.
            self._next_free += _clamp(now - expected, -5_000.0, 5_000.0)
        self._calibrate_bias(req)

    def _calibrate_bias(self, req):
        if not self.calibrate or req.abs_deadline is None:
            return
        if req.predicted_wait is None or req.submit_time is None:
            return
        predicted = req.predicted_wait + req.predicted_service
        actual = req.complete_time - req.submit_time
        self._bias += _BIAS_ALPHA * ((actual - predicted) - self._bias)


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))
