"""Determinism analysis: static linter + runtime replay/race verification.

The simulator's contract (``src/repro/sim/core.py``) is that a
``(seed, workload)`` pair always replays identically *and* that no
outcome hinges on how the event heap breaks same-timestamp ties.  This
package enforces that contract from three sides:

* ``python -m repro.analysis lint`` — an AST-based linter with two
  layers: per-file hazard rules (``DET001``-``DET010``, ``DET016``) and
  two whole-program contract passes (``DET011``-``DET013`` +
  ``DETW01``: event-schema checking against ``repro.obs.schema`` and
  dead-topic detection; ``DET014``-``DET015``: interprocedural effect
  inference over a project call graph) across ``src/repro``,
  ``benchmarks`` and ``examples``.  ``--format sarif`` emits a SARIF
  2.1.0 log for code-scanning UIs; ``--jobs N`` fans both layers out
  over processes (one task per file plus one per whole-program pass);
  ``--baseline``/``--write-baseline`` make the gate fail only on
  findings *new* relative to a committed snapshot.
* ``python -m repro.analysis races`` — the tie-order perturbation
  harness (:func:`perturb_ties`): re-runs a registered scenario with the
  heap's same-timestamp tie-break deterministically permuted and diffs
  the canonical timelines, pinpointing the first divergent event and the
  racing callback pair.
* :func:`verify_replay` — runs a scenario twice on paranoid simulators
  and diffs the executed event traces, pinpointing the first divergent
  event instead of just reporting "the figures look different".

Suppressing findings
--------------------

Two forms, both requiring a human-readable reason after the bracket:

* line: ``# repro: allow[DET004] exact-time groups are intentional`` —
  trailing on the offending line, or on a comment line directly above
  it (multi-line justification comments work; the pragma binds to the
  next code line).
* file: ``# repro: allow-file[DET002] benchmark times the host`` —
  anywhere in the file's **first five lines**; suppresses the named
  rules for the whole file.  Use for files whose purpose is exempt
  (e.g. a benchmark that legitimately reads the wall clock), never to
  bulk-silence real hazards.
"""

from repro.analysis.linter import (Finding, lint_file, lint_paths,
                                   lint_paths_program)
from repro.analysis.races import RaceReport, TieDivergence, perturb_ties
from repro.analysis.replay import ReplayReport, verify_replay
from repro.analysis.rules import RULES

__all__ = ["Finding", "lint_file", "lint_paths", "lint_paths_program",
           "RULES", "RaceReport", "TieDivergence", "perturb_ties",
           "ReplayReport", "verify_replay"]
