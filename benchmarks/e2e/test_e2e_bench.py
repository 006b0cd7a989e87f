"""Tests of the end-to-end benchmark at a small fraction of its scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import layers
import run
import workloads
from repro._units import SEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Sizes that keep each workload well under a second.
TINY = {
    "disk-fanout": dict(n_nodes=6, n_clients=3, n_ops=8, horizon_us=5 * SEC),
    "cache-hit": dict(n_nodes=4, n_keys=200, n_clients=3, n_ops=40,
                      horizon_us=5 * SEC),
    "ssd-probe": dict(n_nodes=2, horizon_us=0.5 * SEC),
    "chaos-loss": dict(n_nodes=6, n_clients=4, n_ops=15, horizon_us=1 * SEC),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name, seed=7, trace=False):
    return child.measure(name, seed, trace, **TINY[name])


def test_benchmark_json_names_what_the_benchmark_runs():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name):
    plain, profiled = _measure(name), _measure(name, trace=True)
    e2e = run.e2e_metrics([plain], [plain, plain])
    per_layer = layers.layer_metrics(profiled["layers"], profiled["run_s"],
                                     plain["run_s"])
    for section, emitted in (("end_to_end", e2e), ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in emitted.items()} == declared
    for metric in BENCHMARK["end_to_end"]:
        assert e2e[metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_sim_results(name):
    first, again, other = _measure(name), _measure(name), _measure(name, 8)
    assert first["sim"] == again["sim"]
    assert first["checks"] == again["checks"]
    assert first["sim"]["sim_digest"] != other["sim"]["sim_digest"]


def test_profiling_does_not_change_what_is_simulated():
    assert _measure("chaos-loss", trace=True)["sim"] == \
        _measure("chaos-loss")["sim"]


def test_layer_rollup_is_exhaustive():
    profiler = cProfile.Profile()
    phases = workloads.Phases(profiler)
    workloads.disk_fanout(7, phases, **TINY["disk-fanout"])
    rolled = layers.rollup(profiler)
    total = sum(row[2] for row in pstats.Stats(profiler).stats.values())
    assert set(rolled["self_s"]) == set(layers.BUCKETS)
    assert sum(rolled["self_s"].values()) == pytest.approx(total)
    assert rolled["self_s"]["sim.core"] > 0
    counts = rolled["counts"]
    assert counts["sim.events"] > counts["sim.processes"] > 0
    # Each user op of the MittOS and hedged lines fans out scale-factor
    # gets; every get reaches at least one node and one OS read.
    assert counts["cluster.node_gets"] >= counts["cluster.strategies.gets"]
    assert counts["kernel.reads"] >= counts["cluster.node_gets"]
    assert counts["mittos.admits"] > 0
    assert counts["devices.submits"] > 0


def test_buckets_follow_the_package_layout():
    src = ROOT / "src" / "repro"
    assert layers.bucket_of(str(src / "sim" / "process.py"), "_step") \
        == "sim.process"
    assert layers.bucket_of(str(src / "sim" / "resources.py"), "acquire") \
        == "sim.core"
    assert layers.bucket_of(
        str(src / "cluster" / "strategies" / "base.py"), "get") \
        == "cluster.strategies"
    assert layers.bucket_of(str(src / "cluster" / "node.py"), "get") \
        == "cluster"
    assert layers.bucket_of("~", "<built-in method _heapq.heappush>") \
        == "stdlib.heapq"
    assert layers.bucket_of("/usr/lib/python3/random.py", "gauss") \
        == "stdlib.random"
    # Other built-ins are charged to whichever layer called them.
    assert layers.bucket_of("~", "<method 'send' of 'generator' objects>") \
        is None


def test_an_unfinished_op_fails_the_pass():
    lines = workloads.chaos_loss(7, workloads.Phases(), **TINY["chaos-loss"])
    assert workloads.ops_accounted(lines)
    lines[-1].attempted += 1  # one op that never finished
    assert not workloads.ops_accounted(lines)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pass_reports_its_claim(name):
    key, _test, _limit = workloads.CLAIMS[name]
    assert key in _measure(name)["sim"]


def test_without_the_simulator_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cache-hit",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
