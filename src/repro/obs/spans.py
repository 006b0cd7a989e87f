"""Span algebra: per-request and per-op latency attribution.

The invariant every span set must satisfy (tested in
``tests/test_obs_spans.py`` and asserted for fig3/faultsweep):

    sum(stages.values()) == end_to_end_latency   (within float tolerance)

Request-level spans are derived from the timestamps the block layer
already keeps (``submit_time``, ``dispatch_time``, ``service_start``,
``complete_time``), so the partition is exact by construction:

* queued-then-served IO:  scheduler-queue | device-queue | device-service
* late-cancelled IO (MittCFQ bump-back): scheduler-queue only
* cache hit:              syscall | cache-service
* fast EBUSY reject:      syscall

Op-level spans (client strategies) are built by *interval charging*: an
:class:`~repro.cluster.strategies.base.OpContext` carries a running mark,
and every client-visible wait charges ``now - mark`` to a named stage
(network-hop, server, failover-hop, timeout-wait, backoff, parallel-wait).
Whatever no stage claimed lands in ``client-other`` at completion, keeping
the invariant exact while making attribution gaps visible instead of
silent.
"""

from repro.obs.events import (STAGE_CACHE, STAGE_CLIENT_OTHER,
                              STAGE_DEVICE_QUEUE, STAGE_DEVICE_SERVICE,
                              STAGE_SCHED_QUEUE, STAGE_SYSCALL)

#: Tolerance of the span-sum invariant checks (µs); float addition over a
#: handful of stages cannot drift anywhere near this.
SPAN_SUM_TOLERANCE_US = 1e-6


def request_spans(req, end_time):
    """Stage partition of one :class:`BlockRequest`'s life, submit->end.

    ``end_time`` is when the caller observed the outcome (completion or
    late-cancellation EBUSY); with synchronous completion callbacks it
    equals ``req.complete_time``.
    """
    start = req.submit_time if req.submit_time is not None else end_time
    if req.cancelled or req.dispatch_time is None:
        # Revoked (or torn down) before reaching the device: every moment
        # was spent in scheduler queues.
        return {STAGE_SCHED_QUEUE: end_time - start}
    service = req.service_start
    if service is None:
        service = req.dispatch_time
    complete = req.complete_time if req.complete_time is not None else end_time
    spans = {
        STAGE_SCHED_QUEUE: req.dispatch_time - start,
        STAGE_DEVICE_QUEUE: service - req.dispatch_time,
        STAGE_DEVICE_SERVICE: complete - service,
    }
    tail = end_time - complete
    if tail > 0.0:
        # Caller observed the result later than device completion (only
        # possible if a completion callback deferred); keep the sum exact.
        spans[STAGE_CLIENT_OTHER] = tail
    return spans


def cache_hit_spans(syscall_us, total_latency):
    """Stage partition of a page-cache hit: syscall entry + memory read."""
    return {STAGE_SYSCALL: syscall_us,
            STAGE_CACHE: total_latency - syscall_us}


def ebusy_spans(ebusy_us):
    """Stage partition of a fast EBUSY reject: the <5 µs syscall round."""
    return {STAGE_SYSCALL: ebusy_us}


def close_op_spans(ctx, now):
    """Finalize an op's span set: charge the unattributed residual.

    Returns the stage dict whose values sum to ``now - ctx.start``
    exactly (the residual — however small — goes to ``client-other``).
    """
    spans = ctx.spans
    total = now - ctx.start
    residual = total - sum(spans.values())
    if residual != 0.0:
        spans[STAGE_CLIENT_OTHER] = \
            spans.get(STAGE_CLIENT_OTHER, 0.0) + residual
    return spans


def spans_sum(stages):
    return sum(stages.values())


def check_span_invariant(stages, total):
    """True iff ``stages`` partitions ``total`` within
    ``SPAN_SUM_TOLERANCE_US``."""
    return abs(spans_sum(stages) - total) <= SPAN_SUM_TOLERANCE_US
