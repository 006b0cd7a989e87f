"""The parent-vs-change benchmark runner (``benchmarks/compare.py``),
driven by fake pass functions instead of real benchmark runs."""

import importlib.util
import subprocess
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare", ROOT / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

TREES = {"parent": "parent-tree", "change": "change-tree"}
SIDE_OF = {tree: side for side, tree in TREES.items()}

#: About 1.0 with a quartile distance of 0.02.
STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
#: Median 1.05, quartile distance 0.525: wider than a 25% bound.
NOISY = [1.0, 1.6, 0.7, 1.4, 0.8, 1.5, 0.6, 1.2, 0.9, 1.1]


def _bench(better="lower", bound=0.25):
    return {"run_seconds": 25, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "better": better,
                            "bound": bound}]}


def _fake(parent, change, digests=None, correct=None, calls=None):
    """A pass function whose pair k reports ``parent[k]`` and ``change[k]``
    for metric ``m``.  ``digests`` maps a side to its per-pair digests,
    ``correct`` a (side, seed) to its ``correct`` flag."""
    values = {"parent": parent, "change": change}

    def run(tree, workload, seed, seconds):
        side, k = SIDE_OF[tree], seed - compare.FIRST_SEED
        if calls is not None:
            calls.append((side, workload, seed, seconds))
        return {"correct": (correct or {}).get((side, seed), True),
                "sim_digest": (digests or {}).get(side, ["d"] * 10)[k],
                "metrics": {"m": {"value": values[side][k], "unit": "s"}}}

    return run


def _verdict(parent, change, capsys, **bench):
    """(verdict, failures) of a one-metric comparison."""
    failures = compare.compare(TREES, _bench(**bench),
                               run=_fake(parent, change))
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.split()[:2] == ["w", "m"]]
    assert len(rows) == 1
    return rows[0].split()[-1], failures


def test_pairs_alternate_which_side_runs_first_and_share_a_seed():
    calls = []
    compare.compare(TREES, _bench(), run=_fake(STEADY, STEADY, calls=calls))
    assert len(calls) == 2 * compare.PAIRS
    for k in range(compare.PAIRS):
        first, second = calls[2 * k], calls[2 * k + 1]
        assert first[0] == ("parent" if k % 2 == 0 else "change")
        assert {first[0], second[0]} == {"parent", "change"}
        assert first[1:] == second[1:] == ("w", compare.FIRST_SEED + k, 25)


def test_worse_fails_the_comparison(capsys):
    verdict, failures = _verdict(STEADY, [v * 1.3 for v in STEADY], capsys)
    assert verdict == "worse"
    assert failures == ["w m worse by +30.0%"]


def test_better_needs_nine_wins_and_a_gap_above_the_parent_spread(capsys):
    faster = [v * 0.9 for v in STEADY]
    assert _verdict(STEADY, faster, capsys) == ("better", [])
    # Eight wins: two pairs where the change lost.
    eight = faster[:8] + [v * 1.05 for v in STEADY[8:]]
    assert _verdict(STEADY, eight, capsys) == ("same", [])
    # Ten wins, but a gap inside the parent's quartile distance.
    barely = [v - 0.001 for v in STEADY]
    assert _verdict(STEADY, barely, capsys) == ("same", [])


def test_unresolved_when_the_parent_spread_exceeds_the_bound(capsys):
    assert _verdict(NOISY, NOISY[::-1], capsys) == ("unresolved", [])
    # Unless every change run beats every parent run (here by a median gap
    # still inside the parent's spread).
    below = [0.5, 0.55, 0.52, 0.58, 0.51, 0.56, 0.53, 0.59, 0.54, 0.57]
    assert _verdict(NOISY, below, capsys) == ("same", [])


def test_same_otherwise(capsys):
    assert _verdict(STEADY, STEADY[::-1], capsys) == ("same", [])
    assert _verdict(STEADY, [v * 1.2 for v in STEADY], capsys) \
        == ("same", [])


def test_higher_is_better_metric_is_judged_upward(capsys):
    ok = [0.93 + 0.0001 * i for i in range(10)]
    bench = dict(better="higher", bound=0.02)
    assert _verdict(ok, [v * 0.95 for v in ok], capsys, **bench)[0] \
        == "worse"
    assert _verdict(ok, [v * 1.05 for v in ok], capsys, **bench) \
        == ("better", [])


def test_changed_digest_is_reported_and_does_not_fail(capsys):
    digests = {"change": ["d"] * 7 + ["e"] * 3}
    failures = compare.compare(TREES, _bench(),
                               run=_fake(STEADY, STEADY, digests=digests))
    assert failures == []
    assert "w            sim_digest same in 7/10 pairs" \
        in capsys.readouterr().out.splitlines()


def test_incorrect_run_fails_and_is_named(capsys):
    correct = {("change", compare.FIRST_SEED + 2): False}
    failures = compare.compare(TREES, _bench(),
                               run=_fake(STEADY, STEADY, correct=correct))
    assert failures == ["change w seed 9: correct: false"]
    assert "not compared" in capsys.readouterr().out


def test_run_pass_reads_the_result_and_flags_a_failed_run(tmp_path):
    run_py = tmp_path / compare.RUN_PY
    run_py.parent.mkdir(parents=True)
    run_py.write_text(textwrap.dedent("""\
        import json, sys
        if sys.argv[2] == "crash":
            sys.exit("boom")
        print(json.dumps({"sim_digest": "abc", "seed": sys.argv[4]}))
        print(json.dumps({"correct": True, "metrics": {}}))
        """))
    assert compare.run_pass(tmp_path, "ok", 9, 25) == {
        "correct": True, "metrics": {}, "sim_digest": "abc"}
    assert compare.run_pass(tmp_path, "crash", 9, 25) == {
        "correct": False, "error": "exit 1 boom"}


def _worktrees():
    return subprocess.run(["git", "worktree", "list"], cwd=ROOT,
                          capture_output=True, text=True).stdout


def test_unknown_revision_exits_2_and_adds_no_worktree(capsys):
    before = _worktrees()
    assert compare.main(["--base", "no-such-revision"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown revision")
    assert _worktrees() == before


@pytest.mark.skipif(subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True).returncode != 0,
                    reason="needs a git checkout")
def test_base_worktree_is_checked_out_then_removed(monkeypatch, capsys):
    before = _worktrees()
    seen = {}

    def fake_compare(trees, bench):
        seen["run_py"] = (trees["parent"] / compare.RUN_PY).is_file()
        seen["listed"] = str(trees["parent"].resolve()) in _worktrees()
        return []

    monkeypatch.setattr(compare, "compare", fake_compare)
    assert compare.main(["--base", "HEAD"]) == 0
    assert seen == {"run_py": True, "listed": True}
    assert capsys.readouterr().out.splitlines()[-1] == "compare: OK"
    assert _worktrees() == before
