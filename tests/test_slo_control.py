"""Tests of the adaptive SLO controller: hysteresis, dwell, window grid."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import MS
from repro.sim import Simulator
from repro.slo_control import AdmissionGuard, SloController, window_p95

BASELINE = 20 * MS


def _controller(sim, **kwargs):
    kwargs.setdefault("min_samples", 4)
    return SloController(sim, BASELINE, **kwargs)


def _feed_window(ctrl, latencies, ebusy=0):
    """One closed observation window with the given samples."""
    for lat in latencies:
        ctrl.observe_op(lat)
    for _ in range(ebusy):
        ctrl.record(True)
    ctrl.on_window(ctrl.sim.now)


def _breach(ctrl, n=20):
    """Samples that blow the tail: every op above the hysteresis band."""
    _feed_window(ctrl, [ctrl.target_p95_us * 2.0] * n)


def _healthy(ctrl, n=20):
    """Samples well under the band with zero budget burn."""
    _feed_window(ctrl, [ctrl.target_p95_us * 0.2] * n)


# -- windowed stats ----------------------------------------------------------

def test_window_p95_nearest_rank():
    assert window_p95([]) is None
    assert window_p95([5.0]) == 5.0
    assert window_p95(list(range(1, 101))) == 95
    data = [1.0, 2.0, 3.0]
    assert window_p95(data) == 3.0
    assert data == [1.0, 2.0, 3.0]  # never reorders the accumulator


# -- adaptive transitions ----------------------------------------------------

def test_tail_breach_tightens_inside_the_floor(sim):
    ctrl = _controller(sim)
    _breach(ctrl)
    assert ctrl.deadline_us == pytest.approx(BASELINE / ctrl.step)
    assert ctrl.transitions[-1][1] == "tighten"


def test_hysteresis_band_holds_still(sim):
    ctrl = _controller(sim)
    # p95 inside the +/-25% band, no budget burn: no move in either
    # direction, however many windows pass.
    for _ in range(6):
        _feed_window(ctrl, [ctrl.target_p95_us * 0.95] * 20)
    assert ctrl.transitions == []
    assert ctrl.deadline_us == BASELINE


def test_small_windows_never_transition(sim):
    ctrl = _controller(sim, min_samples=8)
    _feed_window(ctrl, [ctrl.target_p95_us * 3.0] * 7)  # n < min_samples
    assert ctrl.transitions == []


def test_ebusy_flood_relaxes_toward_ceiling(sim):
    ctrl = _controller(sim)
    # Low latencies (the fast-reject path answers in microseconds) but
    # most ops saw EBUSY: tightening further would only waste failover.
    _feed_window(ctrl, [1.0 * MS] * 20, ebusy=15)
    assert ctrl.deadline_us == pytest.approx(BASELINE * ctrl.step)
    assert ctrl.transitions[-1][1] == "relax"


def test_floor_then_shed_more_then_never_past_max_level(sim):
    ctrl = _controller(sim, dwell_windows=1, max_level=2)
    guard = ctrl.attach_guard(AdmissionGuard(sim, 0, max_level=2))
    for _ in range(20):
        _breach(ctrl)
    assert ctrl.adaptive_deadline_us == pytest.approx(ctrl.floor_us)
    assert ctrl.level == 2  # clamped at max_level
    assert guard.level == 2  # guards follow the controller
    kinds = [t[1] for t in ctrl.transitions]
    assert "shed-more" in kinds
    assert kinds.count("shed-more") == 2


def test_recovery_is_monotonic_safe(sim):
    ctrl = _controller(sim, dwell_windows=1)
    for _ in range(20):
        _breach(ctrl)
    assert ctrl.level > 0
    # Burning between upgrade_burn and 1.0: not bad enough to downgrade,
    # not healthy enough to upgrade — the controller must hold still.
    level_before = ctrl.level
    n_trans = len(ctrl.transitions)
    samples = [ctrl.target_p95_us * 0.2] * 24 + [ctrl.target_p95_us * 3.0]
    burn = (1 / len(samples)) / ctrl.breach_budget
    assert ctrl.upgrade_burn < burn < 1.0
    _feed_window(ctrl, samples)
    assert ctrl.level == level_before
    assert len(ctrl.transitions) == n_trans
    # Fully healthy windows: upgrade one notch per window (levels first,
    # then the deadline steps back to baseline — never past it).
    for _ in range(40):
        _healthy(ctrl)
    assert ctrl.level == 0
    assert ctrl.deadline_us == pytest.approx(BASELINE)


def test_deadline_clamped_to_operator_bands(sim):
    ctrl = _controller(sim, dwell_windows=1, max_level=0)
    for _ in range(40):
        _breach(ctrl)
    assert ctrl.deadline_us >= ctrl.floor_us
    assert ctrl.deadline_us == pytest.approx(ctrl.floor_us)
    ctrl2 = _controller(sim, dwell_windows=1)
    for _ in range(40):
        _feed_window(ctrl2, [1.0 * MS] * 20, ebusy=18)
    assert ctrl2.deadline_us <= ctrl2.ceiling_us
    assert ctrl2.adaptive_deadline_us == pytest.approx(ctrl2.ceiling_us)


def test_bad_bands_rejected(sim):
    with pytest.raises(ValueError):
        SloController(sim, BASELINE, floor_us=30 * MS)  # floor > baseline
    with pytest.raises(ValueError):
        SloController(sim, BASELINE, step=1.0)
    with pytest.raises(ValueError):
        SloController(sim, None)


# -- the dwell property ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(windows=st.lists(
    st.tuples(st.sampled_from(["breach", "healthy", "flood", "noisy"]),
              st.integers(min_value=0, max_value=30)),
    min_size=2, max_size=40),
    dwell=st.integers(min_value=1, max_value=5))
def test_effective_deadline_never_changes_twice_within_one_dwell(
        windows, dwell):
    """The acceptance property: whatever the observed windows throw at
    the controller, two transitions are always >= dwell windows apart."""
    sim = Simulator(seed=1)
    ctrl = SloController(sim, BASELINE, dwell_windows=dwell, min_samples=4)
    for kind, n in windows:
        if kind == "breach":
            _feed_window(ctrl, [ctrl.target_p95_us * 2.0] * n)
        elif kind == "healthy":
            _feed_window(ctrl, [ctrl.target_p95_us * 0.1] * n)
        elif kind == "flood":
            _feed_window(ctrl, [1.0 * MS] * n, ebusy=n)
        else:
            _feed_window(ctrl, [ctrl.target_p95_us * 0.96] * n)
    marks = [t[0] for t in ctrl.transitions]
    assert all(b - a >= dwell for a, b in zip(marks, marks[1:]))
    assert ctrl.floor_us <= ctrl.adaptive_deadline_us <= ctrl.ceiling_us


# -- the window grid ---------------------------------------------------------

def test_arm_schedules_the_fixed_window_grid(sim):
    ctrl = _controller(sim, window_us=250 * MS)
    ticks = ctrl.arm(2_000 * MS)
    assert ticks == 8
    for _ in range(30):
        ctrl.observe_op(1.0 * MS)
    sim.run()
    assert ctrl.windows == 8
