"""Determinism analysis: static linter + the runtime determinism gate.

The simulator's contract (``src/repro/sim/core.py``) is that a
``(seed, workload)`` pair always replays identically *and* that no
outcome hinges on how the event heap breaks same-timestamp ties.  This
package enforces that contract from two sides:

* ``python -m repro.analysis lint`` — an AST-based linter with two
  layers: per-file hazard rules (``DET001``-``DET010``, ``DET016``) and
  two whole-program contract passes (``DET011``-``DET013`` +
  ``DETW01``: event-schema checking against ``repro.obs.schema`` and
  dead-topic detection; ``DET014``-``DET015``: interprocedural effect
  inference over a project call graph) across ``src/repro``,
  ``benchmarks`` and ``examples``.  ``--format sarif`` emits a SARIF
  2.1.0 log for code-scanning UIs.
* ``python -m repro.analysis check`` — the runtime gate
  (:func:`repro.analysis.check.check`) over every registered scenario:
  exact same-seed replay, tracing neutrality, schema validation of every
  traced event, and tie-order perturbation against the canonical
  timeline, pinpointing the first divergent event or the racing
  callback pair.

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

from repro.analysis.linter import Finding, lint_file, lint_paths
from repro.analysis.rules import RULES

__all__ = ["Finding", "lint_file", "lint_paths", "RULES"]
