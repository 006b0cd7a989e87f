"""Bench: Figure 10 — tail sensitivity to prediction error (§7.7)."""

from benchmarks.conftest import run_once
from repro.experiments.fig10 import run


def test_fig10(benchmark):
    result = run_once(benchmark, lambda: run(quick=True))
    print()
    print(result.render())

    fn_lines = {rec.name: rec for rec in result.data["fn"]}
    fp_lines = {rec.name: rec for rec in result.data["fp"]}

    # Higher accuracy -> shorter tail, for both error kinds.
    assert fn_lines["NoError"].p(96) <= fn_lines["100%"].p(96)
    assert fp_lines["NoError"].p(96) <= fp_lines["100%"].p(96)

    # 100% false negatives stay within noise of Base, but do not equal
    # it: MittCFQ's late bump-back EBUSYs bypass the injector.
    base = fn_lines["Base"]
    assert fn_lines["100%"].p(96) <= base.p(96) * 1.1

    # 100% false positives are *worse* than Base in the body: every IO
    # fails over, three wasted hops per request.
    assert fp_lines["100%"].mean_ms > base.mean_ms * 0.95
    assert fp_lines["100%"].p(92) > fn_lines["NoError"].p(92)
