"""The determinism gate: ``python -m repro.analysis check``.

Every figure line runs on its own same-seed simulator, so a result only
counts if the run replays exactly and no outcome hinges on how the event
heap breaks same-timestamp ties.  :func:`check` proves both for one
scenario hook — a callable that schedules (and may run) work on a fresh
simulator — in four parts:

* **replay** — a traced FIFO baseline and a second traced FIFO run must
  agree on ``sim.trace_hash()`` (executed events plus bus lines), the
  bus digest and the per-stream RNG draws.  A mismatch names the first
  divergent executed event ``(time, seq, callback qualname)`` and the
  streams whose draw counts differ.
* **tracing** — an untraced run must end at the same ``sim.now`` with
  the same per-stream draws: a recorder observes, it never steers.
* **schema** — every traced run records under
  ``TraceRecorder(validate=True)``, so an event whose payload breaks its
  topic's declared schema (:mod:`repro.obs.schema`) fails the scenario.
* **ties** — N runs under ``Simulator(tie_policy=ShuffledTies(salt))``
  must match the baseline's **canonical timeline**
  (:func:`repro.obs.bus.canonical_timeline`): the executed-event stream
  ``(time, callback qualname)`` and the TraceBus stream in canonical
  form (:func:`repro.obs.bus.canonical_line` — volatile identity
  counters dropped), both grouped by timestamp and sorted within each
  group.  A benign reorder of independent same-time events
  compares equal; an event that moved, appeared or vanished diverges,
  and the report names the first divergent timestamp group and the two
  callback sites whose tie-break order first differed — a *tie-ordering
  race*, the DES analogue of a data race.

The tie and tracing parts run only once the scenario replays: a run that
does not repeat itself says nothing about tie order.

CLI: ``python -m repro.analysis check [--scenario ID] [--perturbations N]
[--seed N] [--list]``.  The output carries no host timing, so two
processes' outputs compare byte for byte.
"""

from dataclasses import dataclass, field

from repro.obs.bus import (TraceRecorder, canonical_line, canonical_timeline,
                           first_group_mismatch, timeline_digest)
from repro.obs.schema import SchemaViolation
from repro.sim import ShuffledTies, Simulator

#: The parts of one scenario check, in the order they are reported.
PARTS = ("replay", "tracing", "schema", "ties")


@dataclass(frozen=True)
class Run:
    """One traced scenario execution under one tie policy."""

    digest: str            # canonical (tie-insensitive) timeline digest
    bus_digest: str        # raw TraceBus digest (order-sensitive)
    trace_hash: str        # sanitizer hash: executed events + bus lines
    groups: tuple          # ((time, sorted records), ...) canonical timeline
    trace: tuple           # ((time, seq, qualname), ...) execution order
    rng_draws: dict        # per-stream draw counts
    events: int            # bus events recorded (and schema-checked)
    now: float             # sim clock once the heap drained


@dataclass(frozen=True)
class TieDivergence:
    """Why one perturbed run disagreed with the FIFO baseline."""

    salt: int
    time: float            # sim time of the first divergent timestamp group
    baseline_only: tuple   # records present only in the baseline group
    perturbed_only: tuple  # records present only in the perturbed group
    race_sites: tuple      # ((time, callback), (time, callback)) at the
                           # first execution-order difference per run
    draw_mismatches: dict  # rng stream -> (baseline draws, perturbed draws)

    def render(self):
        lines = [f"salt {self.salt}: DIVERGED at t={self.time}"]
        if self.race_sites:
            (time_a, site_a), (time_b, site_b) = self.race_sites
            if time_a == time_b and site_a != site_b:
                lines.append(f"  racing callbacks (first tie reordered, "
                             f"at t={time_a}):")
            else:
                lines.append("  first execution-order difference (the "
                             "causal tie reordered same-named callbacks "
                             "earlier):")
            lines.append(f"    baseline ran : {site_a} at t={time_a}")
            lines.append(f"    perturbed ran: {site_b} at t={time_b}")
        lines.append(f"  first canonical divergence at t={self.time}:")
        for record in self.baseline_only:
            lines.append(f"    only in baseline : {record}")
        for record in self.perturbed_only:
            lines.append(f"    only in perturbed: {record}")
        if not self.baseline_only and not self.perturbed_only:
            lines.append("    (timeline group present in only one run)")
        lines.extend("  " + line
                     for line in _render_draws(self.draw_mismatches))
        return lines


@dataclass
class CheckReport:
    """Outcome of :func:`check` on one scenario."""

    scenario: str
    seed: int
    perturbations: int
    events: int = 0                             # bus events validated
    lines: dict = field(default_factory=dict)   # part -> rendered lines
    failed: list = field(default_factory=list)  # failed parts
    ties: list = field(default_factory=list)    # TieDivergence per salt

    @property
    def ok(self):
        return not self.failed

    def add(self, part, ok, lines):
        """Record one part's outcome and its rendered lines."""
        self.lines[part] = lines
        if not ok:
            self.failed.append(part)

    def render(self):
        verdict = "OK" if self.ok else "FAILED " + ", ".join(self.failed)
        out = [f"{self.scenario} (seed {self.seed}): {verdict}"]
        for part in PARTS:
            first, *rest = self.lines.get(part, ["skipped"])
            out.append(f"  {part:8s}{first}")
            out.extend("    " + line for line in rest)
        return "\n".join(out)


def _traced_run(scenario, seed, salt=None):
    """Run ``scenario`` once, traced and validated, under one tie policy."""
    policy = None if salt is None else ShuffledTies(salt)
    recorder = TraceRecorder(validate=True)
    sim = Simulator(seed=seed, paranoid=True, recorder=recorder,
                    tie_policy=policy)
    scenario(sim)
    sim.run()

    records = [(time, "evt|" + qualname)
               for time, _seq, qualname in sim.sanitizer.trace]
    records += [(event.time, "bus|" + canonical_line(event))
                for event in recorder.events]
    timeline = canonical_timeline(records)
    return Run(digest=timeline_digest(timeline),
               bus_digest=recorder.trace_digest(),
               trace_hash=sim.trace_hash(), groups=timeline,
               trace=tuple(sim.sanitizer.trace), rng_draws=sim.rng_draws(),
               events=recorder.count, now=sim.now)


def _draw_mismatches(draws_a, draws_b):
    """rng stream -> (draws in a, draws in b), for every stream that
    differs."""
    mismatches = {}
    for stream in sorted(draws_a.keys() | draws_b.keys()):
        a, b = draws_a.get(stream, 0), draws_b.get(stream, 0)
        if a != b:
            mismatches[stream] = (a, b)
    return mismatches


def _render_draws(mismatches):
    return [f"rng stream '{name}': {a} draws vs {b}"
            for name, (a, b) in mismatches.items()]


def _first_divergence(trace_a, trace_b):
    """``(index, entry_a, entry_b)`` of the first differing executed event
    (``None`` past the end of the shorter trace), or ``None``."""
    for index, (a, b) in enumerate(zip(trace_a, trace_b)):
        if a != b:
            return index, a, b
    if len(trace_a) != len(trace_b):
        index = min(len(trace_a), len(trace_b))
        return (index,
                trace_a[index] if index < len(trace_a) else None,
                trace_b[index] if index < len(trace_b) else None)
    return None


def _first_order_difference(base, pert):
    """``((t, site), (t, site))`` where execution order first differs.

    When both times are equal this *is* the racing pair: runs are
    identical up to this index, so both heaps hold the same pending set
    and only the tie-break chose differently between the two callbacks.
    When the times differ, the causal tie reordered callbacks sharing one
    qualname earlier (invisible at qualname granularity) and this is the
    first downstream effect.
    """
    for (time_a, _, site_a), (time_b, _, site_b) in zip(base.trace,
                                                        pert.trace):
        if (time_a, site_a) != (time_b, site_b):
            return (time_a, site_a), (time_b, site_b)
    return ()


def _check_replay(report, run_1, run_2):
    report.events += run_1.events + run_2.events
    if (run_1.trace_hash, run_1.bus_digest, run_1.rng_draws) == \
            (run_2.trace_hash, run_2.bus_digest, run_2.rng_draws):
        report.add("replay", True, [
            f"OK: {len(run_1.trace)} events, trace hash {run_1.trace_hash}"])
        return
    lines = [f"DIVERGED: trace hash {run_1.trace_hash} vs "
             f"{run_2.trace_hash}"]
    if run_1.bus_digest != run_2.bus_digest:
        lines.append(f"bus digest {run_1.bus_digest} vs "
                     f"{run_2.bus_digest}")
    divergence = _first_divergence(run_1.trace, run_2.trace)
    if divergence is not None:
        index, first, second = divergence
        lines += [f"first divergence at event #{index}:",
                  f"  run 1: {first}", f"  run 2: {second}"]
    lines += _render_draws(_draw_mismatches(run_1.rng_draws,
                                            run_2.rng_draws))
    report.add("replay", False, lines)


def _check_tracing(report, baseline, scenario, seed):
    sim = Simulator(seed=seed, paranoid=True)
    scenario(sim)
    sim.run()
    mismatches = _draw_mismatches(baseline.rng_draws, sim.rng_draws())
    # repro: allow[DET004] exact replay is the contract being checked
    same_end = sim.now == baseline.now
    if same_end and not mismatches:
        report.add("tracing", True, [
            f"OK: the untraced run ends at t={sim.now} with the same "
            f"draws on {len(baseline.rng_draws)} rng streams"])
        return
    lines = ["DIVERGED: the untraced run behaves differently"]
    if not same_end:
        lines.append(f"ends at t={sim.now}, the traced run at "
                     f"t={baseline.now}")
    report.add("tracing", False, lines + _render_draws(mismatches))


def _check_ties(report, baseline, scenario, seed):
    reordered = 0
    for salt in range(1, report.perturbations + 1):
        run = _traced_run(scenario, seed, salt)
        reordered += run.trace != baseline.trace
        report.events += run.events
        if run.digest == baseline.digest:
            continue
        mismatch = first_group_mismatch(baseline.groups, run.groups)
        time, base_only, pert_only = mismatch if mismatch else \
            (float("nan"), (), ())
        report.ties.append(TieDivergence(
            salt=salt, time=time, baseline_only=base_only,
            perturbed_only=pert_only,
            race_sites=_first_order_difference(baseline, run),
            draw_mismatches=_draw_mismatches(baseline.rng_draws,
                                             run.rng_draws)))
    if not report.ties:
        report.add("ties", True, [
            f"OK: {reordered} of {report.perturbations} perturbation(s) "
            f"reordered same-time events; canonical digest "
            f"{baseline.digest} unchanged"])
        return
    lines = [f"DIVERGED in {len(report.ties)} of {report.perturbations} "
             "perturbation(s): behaviour depends on the event-heap "
             "tie-break"]
    for divergence in report.ties:
        lines += divergence.render()
    report.add("ties", False, lines)


def check(scenario, seed=7, perturbations=4, name=None):
    """Run the four determinism checks on ``scenario``; returns a
    :class:`CheckReport` (``report.ok`` means every part passed).

    ``scenario`` receives a fresh paranoid simulator per run and may
    schedule work, run the sim itself, or both; pending events are then
    drained with ``sim.run()``.  Runs: a traced FIFO baseline, a traced
    FIFO replay, an untraced run, then one traced run per tie-break salt
    ``1..perturbations``.
    """
    name = name or getattr(scenario, "__qualname__",
                           type(scenario).__name__)
    report = CheckReport(scenario=name, seed=seed,
                         perturbations=perturbations)
    try:
        baseline = _traced_run(scenario, seed)
        _check_replay(report, baseline, _traced_run(scenario, seed))
        if report.ok:
            _check_tracing(report, baseline, scenario, seed)
            _check_ties(report, baseline, scenario, seed)
    except SchemaViolation as exc:
        report.add("schema", False, [f"VIOLATION: {exc}"])
    else:
        report.add("schema", True, [
            f"OK: {report.events} events match their topic schemas"])
    return report
