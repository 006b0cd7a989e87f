"""Tail forensics: planted-cause attribution, blame accounting, diffs."""

import json

import pytest

from repro._units import MS
from repro.experiments.common import (build_disk_cluster, make_strategy,
                                      run_clients)
from repro.faults import DeviceStorm, FaultPlane, FaultSpec, MessageLoss
from repro.metrics.blame import (BLAME_CLIENT_OTHER, BLAME_DEVICE_QUEUEING,
                                 BLAME_DEVICE_STORM, BLAME_NETWORK_LOSS,
                                 BLAME_ORDER, BLAME_PREDICTOR_MISS,
                                 BlameShare, blame_key)
from repro.obs.bus import TraceRecorder
from repro.obs.events import (FAULT, IO_COMPLETE, RPC_DROP, SPAN_OP,
                              SPAN_REQUEST, VERDICT, TraceEvent)
from repro.obs.forensics import (BlameDiff, RequestBlame, TailForensics,
                                 diff_reports)
from repro.obs.spans import SPAN_SUM_TOLERANCE_US
from repro.sim import Simulator


def _traced(scenario, seed=7):
    rec = TraceRecorder()
    sim = Simulator(seed=seed, recorder=rec)
    scenario(sim)
    return rec.events


def _loss_scenario(sim):
    """mittos line under a 100%-loss window: every RPC inside the window
    is dropped, so affected ops accumulate timeout-wait + backoff."""
    spec = FaultSpec(
        message_loss=(MessageLoss(rate=1.0, start_us=40 * MS,
                                  duration_us=60 * MS),),
        rpc_timeout_us=15 * MS, op_budget_us=300 * MS, max_attempts=6)
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, 4, fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy("mittos", env.cluster, deadline_us=25 * MS)
    run_clients(env, strategy, n_clients=3, n_ops=25, think_time_us=2 * MS,
                name="mittos", limit_us=400 * MS, stagger_us=17.0)


def _storm_scenario(sim):
    """base line (no failover) under a hard device storm: server time of
    ops landing in the window is inflated by the stormed device."""
    spec = FaultSpec(
        device_storms=(DeviceStorm(node=0, start_us=50 * MS,
                                   duration_us=150 * MS, factor=8.0,
                                   spike_prob=0.3),))
    plane = FaultPlane(sim, spec)
    env = build_disk_cluster(sim, 3, fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy("base", env.cluster)
    run_clients(env, strategy, n_clients=3, n_ops=25, think_time_us=2 * MS,
                name="base", limit_us=400 * MS, stagger_us=17.0)


@pytest.fixture(scope="module")
def loss_events():
    return _traced(_loss_scenario)


@pytest.fixture(scope="module")
def storm_events():
    return _traced(_storm_scenario)


@pytest.fixture(scope="module")
def tails_events():
    from repro.experiments.faultsweep import tails_scenario
    return _traced(tails_scenario)


@pytest.fixture(scope="module")
def fig3_events():
    from repro.experiments.fig3 import replay_scenario
    return _traced(replay_scenario)


# -- planted-cause attribution ----------------------------------------------
def test_loss_window_blamed_on_network_loss(loss_events):
    report = TailForensics.from_events(loss_events).report(pct=95)
    assert report.flagged, "100%-loss window produced no tail"
    worst = report.flagged[0]
    assert worst.blame == BLAME_NETWORK_LOSS
    refs = worst.evidence[BLAME_NETWORK_LOSS]
    assert refs, "dominant blame carries no evidence"
    assert any(RPC_DROP in ref for ref in refs)
    # Every cited drop instant lies inside the planted 40..100ms window.
    for ref in refs:
        t = float(ref.split()[0].split("=")[1])
        assert 40 * MS <= t <= 100 * MS, ref


def test_storm_window_blamed_on_device_storm(storm_events):
    report = TailForensics.from_events(storm_events).report(pct=95)
    assert report.flagged, "device storm produced no tail"
    stormed = [b for b in report.flagged if b.blame == BLAME_DEVICE_STORM]
    assert stormed, [b.blame for b in report.flagged]
    for blamed in stormed:
        (ref,) = blamed.evidence[BLAME_DEVICE_STORM]
        assert "storm-on" in ref and FAULT in ref
        t = float(ref.split()[0].split("=")[1])
        assert 50 * MS <= t <= 200 * MS, ref


def test_faulted_chaos_covers_multiple_classes(tails_events):
    """The registered tails scenario plants three disjoint causes; a p90
    slice must attribute at least three distinct blame classes."""
    report = TailForensics.from_events(tails_events).report(pct=90)
    assert len({b.blame for b in report.flagged}) >= 3


# -- blame accounting identities --------------------------------------------
@pytest.mark.parametrize("fixture", ["fig3_events", "tails_events"])
def test_charged_us_sum_to_end_to_end_latency(fixture, request):
    events = request.getfixturevalue(fixture)
    report = TailForensics.from_events(events).report(pct=50)
    assert report.flagged
    for blamed in report.flagged:
        charged = sum(blamed.charged.values())
        assert abs(charged - blamed.total) <= SPAN_SUM_TOLERANCE_US, \
            (blamed, charged)


@pytest.mark.parametrize("fixture", ["fig3_events", "tails_events"])
def test_per_class_us_sum_to_tail_mass(fixture, request):
    events = request.getfixturevalue(fixture)
    report = TailForensics.from_events(events).report(pct=50)
    by_class = sum(report.share.charged_us.values())
    assert abs(by_class - report.tail_mass_us) <= \
        SPAN_SUM_TOLERANCE_US * max(1, len(report.flagged))
    assert report.tail_mass_us == pytest.approx(
        sum(b.total for b in report.flagged))


# -- determinism -------------------------------------------------------------
def test_same_seed_reports_are_byte_identical():
    def one():
        events = _traced(_loss_scenario, seed=11)
        return TailForensics.from_events(events).report().to_json()
    assert one() == one()


def test_forensics_is_post_hoc(loss_events):
    """Running forensics must not touch the trace it analyzes."""
    before = [ev.to_json() for ev in loss_events]
    TailForensics.from_events(loss_events).report(pct=50)
    assert [ev.to_json() for ev in loss_events] == before


# -- report shape -------------------------------------------------------------
def test_threshold_modes(loss_events):
    eng = TailForensics.from_events(loss_events)
    absolute = eng.report(threshold_us=5 * MS)
    assert absolute.mode == "absolute"
    assert all(b.total > 5 * MS for b in absolute.flagged)
    p90 = eng.report(pct=90)
    assert p90.mode == "p90"
    default = eng.report()
    assert default.mode == "p99"
    # Worst-first ordering.
    totals = [b.total for b in p90.flagged]
    assert totals == sorted(totals, reverse=True)


def test_report_on_empty_trace():
    report = TailForensics.from_events([]).report()
    assert report.spans == 0 and not report.flagged
    assert report.tail_mass_us == 0.0
    assert "(no spans above threshold)" in report.render()
    json.loads(report.to_json())  # still canonical JSON


def test_request_kind_used_when_no_op_spans():
    events = [TraceEvent(100.0, SPAN_REQUEST,
                         {"req": 1, "outcome": "ok", "total": 90.0,
                          "stages": {"scheduler-queue": 30.0,
                                     "device-service": 60.0}})]
    report = TailForensics.from_events(events).report(threshold_us=10.0)
    assert report.kind == "request"
    (blamed,) = report.flagged
    assert blamed.blame == BLAME_DEVICE_QUEUEING
    assert blamed.ident == {"req": 1}


def test_zero_valued_stages_are_skipped():
    events = [TraceEvent(100.0, SPAN_REQUEST,
                         {"req": 1, "outcome": "ok", "total": 50.0,
                          "stages": {"scheduler-queue": 0.0,
                                     "device-service": 50.0}})]
    report = TailForensics.from_events(events).report(threshold_us=1.0)
    (blamed,) = report.flagged
    assert [s for s, _, _ in blamed.stages] == ["device-service"]
    assert sum(blamed.charged.values()) == pytest.approx(50.0)


def test_unknown_stage_charges_client_other():
    events = [TraceEvent(10.0, SPAN_OP,
                         {"strategy": "x", "key": 1, "total": 10.0,
                          "outcome": "ok", "attempts": 1, "timeouts": 0,
                          "stages": {"mystery-stage": 10.0}})]
    report = TailForensics.from_events(events).report(threshold_us=1.0)
    assert report.flagged[0].blame == BLAME_CLIENT_OTHER


# -- context-index mechanics --------------------------------------------------
def test_open_fault_window_closes_at_end_of_trace():
    events = [
        TraceEvent(5.0, FAULT, {"kind": "crash", "node": 1, "epoch": 1}),
        TraceEvent(50.0, SPAN_OP,
                   {"strategy": "mittos", "key": 1, "total": 40.0,
                    "outcome": "ok", "attempts": 2, "timeouts": 1,
                    "stages": {"timeout-wait": 30.0, "server": 10.0}}),
    ]
    eng = TailForensics.from_events(events)
    ((start, end, note),) = eng.crash_windows
    assert (start, end) == (5.0, float("inf")) and "node=1" in note
    (blamed,) = eng.report(threshold_us=1.0).flagged
    # No drops recorded -> the wait is charged to the crash window.
    assert blamed.stages[0][2] == "failover-chain"
    assert "end-of-trace" in blamed.evidence["failover-chain"][0]


def test_fail_slow_window_pairs_on_factor_reset():
    events = [
        TraceEvent(10.0, FAULT, {"kind": "fail-slow", "node": 2,
                                 "cpu_factor": 4.0, "device_factor": 2.0}),
        TraceEvent(90.0, FAULT, {"kind": "fail-slow", "node": 2,
                                 "cpu_factor": 1.0, "device_factor": 1.0}),
    ]
    eng = TailForensics.from_events(events)
    ((start, end, note),) = eng.slow_windows
    assert (start, end) == (10.0, 90.0)
    assert "fail-slow node=2" in note


def test_false_accept_join_drives_predictor_miss():
    events = [
        TraceEvent(0.0, VERDICT, {"req": 7, "accept": True, "probe": False,
                                  "deadline": 20.0}),
        TraceEvent(100.0, IO_COMPLETE, {"req": 7, "latency": 100.0}),
        TraceEvent(100.0, SPAN_REQUEST,
                   {"req": 7, "outcome": "ok", "total": 100.0,
                    "stages": {"device-queue": 80.0,
                               "device-service": 20.0}}),
    ]
    eng = TailForensics.from_events(events)
    assert eng.false_accepts == [(0.0, 100.0, 7)]
    (blamed,) = eng.report(threshold_us=1.0).flagged
    assert blamed.blame == BLAME_PREDICTOR_MISS
    assert "false-accept req=7" in blamed.evidence[BLAME_PREDICTOR_MISS][0]


def test_on_time_accept_is_not_a_false_accept():
    events = [
        TraceEvent(0.0, VERDICT, {"req": 7, "accept": True, "probe": False,
                                  "deadline": 200.0}),
        TraceEvent(100.0, IO_COMPLETE, {"req": 7, "latency": 100.0}),
    ]
    assert TailForensics.from_events(events).false_accepts == []


def test_evidence_refs_are_capped():
    events = [TraceEvent(float(t), RPC_DROP,
                         {"src": 0, "dst": 1, "kind": "request"})
              for t in range(1, 11)]
    events.append(TraceEvent(20.0, SPAN_OP,
                             {"strategy": "mittos", "key": 1, "total": 19.0,
                              "outcome": "ok", "attempts": 3, "timeouts": 2,
                              "stages": {"timeout-wait": 19.0}}))
    (blamed,) = TailForensics.from_events(events).report(
        threshold_us=1.0).flagged
    refs = blamed.evidence[BLAME_NETWORK_LOSS]
    assert len(refs) == 3
    assert refs[-1].endswith("(+7 more)")


# -- BlameShare reducer -------------------------------------------------------
def test_blame_share_rows_and_dict():
    share = BlameShare()
    share.add(BLAME_NETWORK_LOSS, 100.0, {BLAME_NETWORK_LOSS: 80.0,
                                          BLAME_CLIENT_OTHER: 20.0})
    share.add(BLAME_NETWORK_LOSS, 50.0, {BLAME_NETWORK_LOSS: 50.0})
    assert share.total_us == 150.0
    assert share.counts == {BLAME_NETWORK_LOSS: 2}
    as_dict = share.to_dict()
    assert as_dict[BLAME_NETWORK_LOSS]["share"] == pytest.approx(130 / 150,
                                                                 abs=1e-6)
    rendered = share.render(title="t")
    assert BLAME_NETWORK_LOSS in rendered and BLAME_CLIENT_OTHER in rendered


def test_blame_key_orders_canonical_before_unknown():
    known = sorted(BLAME_ORDER, key=blame_key)
    assert known == list(BLAME_ORDER)
    assert blame_key("zzz-unknown") > blame_key(BLAME_ORDER[-1])


def test_dominant_tie_breaks_to_canonical_order():
    blamed = RequestBlame(
        "op", 10.0, 20.0, "ok", {"strategy": "x", "key": 1, "attempts": 1,
                                 "timeouts": 0},
        (), {BLAME_NETWORK_LOSS: 10.0, BLAME_DEVICE_QUEUEING: 10.0}, {})
    assert blamed.blame == BLAME_DEVICE_QUEUEING  # earlier in BLAME_ORDER


# -- cross-run diff -----------------------------------------------------------
def test_diff_reports_explains_regression(loss_events, storm_events):
    report_a = TailForensics.from_events(storm_events).report(pct=90)
    report_b = TailForensics.from_events(loss_events).report(pct=90)
    diff = diff_reports(report_a, report_b, label_a="storm", label_b="loss")
    assert isinstance(diff, BlameDiff)
    deltas = diff.class_deltas()
    assert deltas
    moves = [abs(us_b - us_a) for _, _, _, us_a, us_b in deltas]
    assert moves == sorted(moves, reverse=True)
    as_dict = diff.to_dict()
    assert as_dict["a"]["label"] == "storm"
    for row in as_dict["deltas"]:
        assert row["delta_us"] == pytest.approx(
            row["charged_us_b"] - row["charged_us_a"], abs=1e-3)
    rendered = diff.render()
    assert "p99:" in rendered and "A=storm" in rendered


def test_diff_of_empty_reports():
    empty = TailForensics.from_events([]).report()
    rendered = diff_reports(empty, empty).render()
    assert "(no flagged tail requests in either run)" in rendered


# -- CLI ----------------------------------------------------------------------
def _export(events, path):
    rec = TraceRecorder()
    rec.events.extend(events)
    rec.write_jsonl(path)


def test_tails_cli_on_trace(tmp_path, capsys, loss_events):
    from repro.obs.__main__ import main
    path = tmp_path / "loss.jsonl.gz"
    _export(loss_events, path)
    assert main(["tails", str(path), "--percentile", "90"]) == 0
    out = capsys.readouterr().out
    assert "tail forensics" in out and "Tail blame" in out


def test_tails_cli_json_mode(tmp_path, capsys, loss_events):
    from repro.obs.__main__ import main
    path = tmp_path / "loss.jsonl"
    _export(loss_events, path)
    assert main(["tails", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "p99"
    assert payload["flagged"] == len(payload["requests"])


def test_tails_cli_scenario_mode(capsys):
    from repro.obs.__main__ import main
    assert main(["tails", "--scenario", "tails", "--percentile", "90",
                 "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "scenario=tails seed=7" in out
    assert "exemplar timelines (top 1" in out


def test_tails_cli_against_diff(tmp_path, capsys, loss_events,
                                storm_events):
    from repro.obs.__main__ import main
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl.gz"
    _export(storm_events, path_a)
    _export(loss_events, path_b)
    assert main(["tails", str(path_a), "--against", str(path_b)]) == 0
    out = capsys.readouterr().out
    assert "tail blame diff" in out and "blame-class deltas" in out


def test_tails_cli_usage_errors(tmp_path, capsys):
    from repro.obs.__main__ import main
    assert main(["tails"]) == 2                      # neither input
    path = tmp_path / "t.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\n')
    assert main(["tails", str(path), "--scenario", "tails"]) == 2  # both
    assert main(["tails", "--scenario", "nope"]) == 2
    assert main(["tails", str(tmp_path / "absent.jsonl")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("option", [["--percentile", "150"],
                                    ["--percentile", "-1"],
                                    ["--top", "-1"]],
                         ids=["percentile-150", "percentile-neg", "top-neg"])
def test_tails_cli_rejects_out_of_range_options(tmp_path, capsys,
                                                loss_events, option):
    from repro.obs.__main__ import main
    path = tmp_path / "loss.jsonl"
    _export(loss_events, path)
    assert main(["tails", str(path)] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option[0]} must be")
    assert captured.err.count("\n") == 1


def test_experiments_tails_flag(capsys):
    from repro.experiments.__main__ import main
    assert main(["writes", "--seed", "3", "--tails"]) == 0
    out = capsys.readouterr().out
    assert "tail forensics" in out
