"""Figure 9 — prediction accuracy on server traces (§7.6).

Five production-like block traces are replayed on one machine, with the
predictor in *shadow mode*: EBUSY decisions (MittCFQ's late bump-backs
included) are recorded on the IO descriptor but never enforced, so every
IO completes and :class:`~repro.obs.accuracy.AccuracyJoiner` can score
the decision (false positive: EBUSY decided, IO met the deadline; false
negative: no EBUSY, IO missed it).  The deadline is each trace's p95.

Paper results: MittCFQ inaccuracy 0.5-0.9% (up to 47% without the precision
improvements), MittSSD up to 0.8% (up to 6% without); all mispredicted
diffs < 3 ms / < 1 ms on average.  We additionally report the naive-mode
ablation rows.
"""

from repro._units import GB, MS, SEC
from repro.experiments.common import ExperimentResult, disk_os, ssd_os
from repro.kernel.syscall import OsParams
from repro.metrics.latency import percentile
from repro.obs.accuracy import (FALSE_ACCEPT, FALSE_REJECT, AccuracyJoiner,
                                PredictionRecord, group_of)
from repro.sim import Simulator
from repro.workloads.traces import TRACE_FAMILIES, generate_trace, \
    replay_trace

TRACES = ("DAPPS", "DTRS", "EXCH", "LMBE", "TPCC")


def _build_os(sim, device_kind, mitt=True, mode="precise"):
    """The shadow-mode disk (MittCFQ) or SSD (MittSSD) stack."""
    stack = disk_os if device_kind == "disk" else ssd_os
    # Single-machine replay: no failover hop in the rejection test, so the
    # decision threshold equals the deadline the accuracy test scores.
    return stack(sim, device_kind, mitt=mitt, mitt_mode=mode, shadow=True,
                 params=OsParams(failover_hop_us=0.0))


def _measure_p95(sim, records, device_kind):
    """First pass: replay on ``sim`` without deadlines to learn the p95
    latency."""
    os_ = _build_os(sim, device_kind, mitt=False)
    latencies = []
    replay_trace(sim, os_, records,
                 on_complete=lambda req: latencies.append(req.latency))
    sim.run()
    return percentile(latencies, 95)


def _shadow_pass(sim, records, device_kind, deadline_us, mode):
    """Replay ``records`` on ``sim`` in shadow mode and return the joiner
    that graded each completed IO off the request itself (no recorder).
    ``replay_trace`` admits at submit time, so ``complete_time -
    submit_time`` is the wait the trace join measures."""
    os_ = _build_os(sim, device_kind, mode=mode)
    group = group_of(os_.predictor.verdict_labels())
    joiner = AccuracyJoiner()

    def grade(req):
        joiner.add(PredictionRecord(
            req.req_id, group, not req.shadow_ebusy, deadline_us,
            req.predicted_wait + req.predicted_service, req.submit_time,
            req.complete_time))

    replay_trace(sim, os_, records, deadline_us=deadline_us,
                 on_complete=grade)
    sim.run()
    return joiner


def _rates(joiner):
    """(FP rate, FN rate, mean |error| µs of the mispredicted IOs)."""
    graded = joiner.graded
    if not graded:
        return 0.0, 0.0, 0.0
    cells = joiner.confusion()
    errors = [abs(record.error) for record in joiner.records
              if record.cell in (FALSE_REJECT, FALSE_ACCEPT)]
    return (cells[FALSE_REJECT] / graded, cells[FALSE_ACCEPT] / graded,
            sum(errors) / len(errors) if errors else 0.0)


def _row(name, precise, naive, diff_digits):
    """One table row: a trace's precise pass plus its naive inaccuracy."""
    fp, fn, diff = _rates(precise)
    naive_fp, naive_fn, _ = _rates(naive)
    return [name, precise.graded, round(100 * fp, 2), round(100 * fn, 2),
            round(100 * (fp + fn), 2), round(100 * (naive_fp + naive_fn), 2),
            round(diff / MS, diff_digits)]


def accuracy_scenario(sim):
    """One precise MittCFQ shadow pass over a 2 s DAPPS trace on the
    caller's simulator (shadow bump-backs: ``predictor.late_reject``).
    Returns fig9's grading of the pass.  The 50 ms deadline is fixed:
    :func:`_measure_p95` needs a simulator of its own, and building one
    restarts request ids."""
    records = generate_trace(TRACE_FAMILIES["DAPPS"], sim.rng("trace/DAPPS"),
                             2 * SEC, span_bytes=800 * GB)
    return _shadow_pass(sim, records, "disk", 50 * MS, "precise")


def run(quick=True, seed=7):
    duration = (20 if quick else 90) * SEC
    result = ExperimentResult("fig9", "Prediction inaccuracy on traces")
    rows_disk, rows_ssd = [], []

    def passes(p95_sim, records, device_kind):
        """The p95 pass on ``p95_sim``, then the precise and naive shadow
        passes at that deadline, each on a fresh same-seed simulator."""
        p95 = _measure_p95(p95_sim, records, device_kind)
        return [_shadow_pass(Simulator(seed=seed), records, device_kind,
                             p95, mode) for mode in ("precise", "naive")]

    for name in TRACES:
        spec = TRACE_FAMILIES[name]
        # The disk p95 pass's simulator also owns the trace's stream.
        disk_sim = Simulator(seed=seed)
        rng = disk_sim.rng(f"trace/{name}")
        # Disk pass (MittCFQ): trace at native rate.
        records = generate_trace(spec, rng, duration, span_bytes=800 * GB)
        rows_disk.append(_row(name, *passes(disk_sim, records, "disk"), 2))
        # SSD pass (MittSSD): the paper re-rates the trace for 128 chips.
        rate = 16 if quick else 64
        ssd_records = generate_trace(spec, rng, duration / 4,
                                     span_bytes=8 * GB, rate_scale=rate)
        rows_ssd.append(_row(name, *passes(Simulator(seed=seed),
                                           ssd_records, "ssd"), 3))

    headers = ["trace", "ios", "FP%", "FN%", "inacc%", "naive%",
               "meandiff_ms"]
    result.add_table("Figure 9a: MittCFQ inaccuracy (deadline = p95)",
                     headers, rows_disk)
    result.add_table("Figure 9b: MittSSD inaccuracy (deadline = p95)",
                     headers, rows_ssd)
    result.data["disk_rows"] = rows_disk
    result.data["ssd_rows"] = rows_ssd
    return result


if __name__ == "__main__":
    print(run().render())
