"""Trace diff: where did two runs of the same scenario first disagree?

Given two JSONL trace exports of the same (seed, workload) — e.g. a
FIFO-tie-break baseline and a perturbed-salt run, or traces from two code
revisions — :func:`diff_traces` reports

* the **first divergent timestamp group**: events are grouped by sim
  timestamp and sorted within each group (the canonical timeline the
  kernel goldens and the tie-order race detector compare —
  :func:`repro.obs.bus.canonical_timeline`), so a pure within-tick
  reordering compares equal while the earliest moved / appeared /
  vanished event is pinpointed, and
* **per-topic count deltas**: which event classes grew or shrank overall
  (a trace that diverges early often differs *everywhere* afterwards;
  the topic deltas say what *kind* of behaviour changed).

Two comparison modes, selecting which fields are volatile:

* **exact** (the default): every field counts, including the ``req`` /
  ``pid`` identity counters.  Right for "are these runs the same
  execution?" — a tie-salt perturbation that relabels requests diverges.
* **canonical** (``--canonical``): identity counters dropped, the race
  detector's tie-insensitive form.  Right for "did behaviour change?" —
  benign tie relabelings compare equal, so a divergence here is a real
  behavioural difference.

CLI: ``python -m repro.obs diff a.jsonl b.jsonl [--canonical]`` — exits
0 when no divergence is found and 1 when the traces differ or either
cannot be read (after a one-line ``error:`` message).
"""

from collections import Counter
from dataclasses import dataclass

from repro.obs.bus import (VOLATILE_FIELDS, canonical_line,
                           canonical_timeline, first_group_mismatch)

#: How many of each side's differing records to print per group.
MAX_SHOWN = 6


@dataclass(frozen=True)
class TraceDiff:
    """Outcome of comparing two traces."""

    label_a: str
    label_b: str
    events_a: int
    events_b: int
    groups_a: int
    groups_b: int
    mode: str              # "exact" or "canonical"
    divergence: object     # None, or (time, only_in_a, only_in_b)
    topic_deltas: tuple    # ((topic, count_a, count_b), ...) where != 0

    @property
    def identical(self):
        return self.divergence is None

    def render(self):
        lines = [f"trace diff ({self.mode}): "
                 f"A={self.label_a} ({self.events_a} events, "
                 f"{self.groups_a} timestamp groups)  "
                 f"B={self.label_b} ({self.events_b} events, "
                 f"{self.groups_b} groups)"]
        if self.identical:
            lines.append("no divergence: canonical timelines are identical")
            return "\n".join(lines)
        time, only_a, only_b = self.divergence
        lines.append(f"first divergent group at t={time}:")
        for record in only_a[:MAX_SHOWN]:
            lines.append(f"  only in A: {record}")
        if len(only_a) > MAX_SHOWN:
            lines.append(f"  ... {len(only_a) - MAX_SHOWN} more only in A")
        for record in only_b[:MAX_SHOWN]:
            lines.append(f"  only in B: {record}")
        if len(only_b) > MAX_SHOWN:
            lines.append(f"  ... {len(only_b) - MAX_SHOWN} more only in B")
        if not only_a and not only_b:
            lines.append("  (timestamp group present in only one trace)")
        if self.topic_deltas:
            lines.append("per-topic count deltas (A -> B):")
            for topic, count_a, count_b in self.topic_deltas:
                lines.append(f"  {topic:22s} {count_a:6d} -> {count_b:6d}  "
                             f"({count_b - count_a:+d})")
        else:
            lines.append("per-topic counts identical (events moved or "
                         "changed fields, none appeared or vanished)")
        return "\n".join(lines)


def diff_traces(events_a, events_b, label_a="a", label_b="b",
                canonical=False):
    """Compare two bus event streams; returns a :class:`TraceDiff`."""
    volatile = VOLATILE_FIELDS if canonical else frozenset()
    groups_a, groups_b = (
        canonical_timeline((ev.time, canonical_line(ev, volatile))
                           for ev in events)
        for events in (events_a, events_b))
    counts_a = Counter(event.topic for event in events_a)
    counts_b = Counter(event.topic for event in events_b)
    deltas = tuple((topic, counts_a[topic], counts_b[topic])
                   for topic in sorted(counts_a.keys() | counts_b.keys())
                   if counts_a[topic] != counts_b[topic])
    return TraceDiff(
        label_a=label_a, label_b=label_b,
        events_a=len(events_a), events_b=len(events_b),
        groups_a=len(groups_a), groups_b=len(groups_b),
        mode="canonical" if canonical else "exact",
        divergence=first_group_mismatch(groups_a, groups_b),
        topic_deltas=deltas)
