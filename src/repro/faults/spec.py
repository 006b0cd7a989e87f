"""Declarative fault specifications for the :class:`FaultPlane`.

Each spec is a frozen value object describing *what* goes wrong and
*when* (simulation time, µs); the plane turns specs into scheduled state
transitions and per-message/per-IO draws from named RNG streams, so a
(seed, spec) pair always produces the identical fault schedule.

Taxonomy (every class maps to a Table-1-style pathology):

* :class:`CrashWindow` — crash-stop, optional restart (fail-stop node);
* :class:`FailSlow` — gray failure: the node still answers, but its
  request handler and/or device run N× slower for a while;
* :class:`MessageLoss` — the network drops matching messages at a rate;
* :class:`Partition` — 100% loss between one pair of endpoints;
* :class:`DeviceStorm` — device-level fail-slow: GC/media-retry latency
  spikes on top of a service-time multiplier;
* :class:`ReadErrors` — latent sector errors: a served read returns EIO.

The §7.7 decision-flip injector (``repro.mittos.faults.FaultInjector``)
folds in via :attr:`FaultSpec.false_negative_rate` /
:attr:`FaultSpec.false_positive_rate`.
"""

import json
from dataclasses import asdict, dataclass, fields

from repro._units import MS, SEC


def _window_covers(start_us, duration_us, now):
    """True when ``now`` falls inside [start, start+duration)."""
    if now < start_us:
        return False
    return duration_us is None or now < start_us + duration_us


@dataclass(frozen=True)
class CrashWindow:
    """Crash-stop ``node`` at ``start_us``; restart after ``duration_us``
    (None = stays down forever)."""

    node: int
    start_us: float
    duration_us: float = None


@dataclass(frozen=True)
class FailSlow:
    """Gray failure on ``node``: handler CPU runs ``cpu_factor`` slower
    and/or its device ``device_factor`` slower during the window."""

    node: int
    start_us: float
    duration_us: float
    cpu_factor: float = 1.0
    device_factor: float = 1.0


@dataclass(frozen=True)
class MessageLoss:
    """Drop each matching message with probability ``rate``.

    ``src``/``dst`` of None match any endpoint (clients are
    ``Network.CLIENT`` = -1, nodes are their ids); the default matches
    every message in both directions during the window.
    """

    rate: float
    start_us: float = 0.0
    duration_us: float = None
    src: int = None
    dst: int = None


@dataclass(frozen=True)
class Partition:
    """Total loss between endpoints ``a`` and ``b`` (both directions)."""

    a: int
    b: int
    start_us: float
    duration_us: float = None


@dataclass(frozen=True)
class DeviceStorm:
    """Device fail-slow on ``node``: every IO is scaled by ``factor`` and,
    with probability ``spike_prob``, delayed a further U[spike_us] —
    modelling GC pauses and media-retry storms."""

    node: int
    start_us: float
    duration_us: float
    factor: float = 1.0
    spike_prob: float = 0.0
    spike_us: tuple = (5 * MS, 40 * MS)


@dataclass(frozen=True)
class ReadErrors:
    """Latent sector errors: each successfully-served read on ``node``
    (None = every node) fails with EIO at ``rate`` during the window."""

    rate: float
    node: int = None
    start_us: float = 0.0
    duration_us: float = None


@dataclass(frozen=True)
class FaultSpec:
    """The full failure plan for one run, plus client resilience defaults.

    The resilience knobs (``rpc_timeout_us``, ``op_budget_us``,
    ``max_attempts``, ``track_health``) are applied to the cluster when the
    plane arms, so any faulted run is automatically bounded: no strategy
    can wait forever on a lost message or a dead replica.
    """

    crashes: tuple = ()
    fail_slow: tuple = ()
    message_loss: tuple = ()
    partitions: tuple = ()
    device_storms: tuple = ()
    read_errors: tuple = ()
    #: §7.7 decision flips, folded in as plane members.
    false_negative_rate: float = 0.0
    false_positive_rate: float = 0.0
    #: Client resilience defaults installed on the cluster at arm().
    rpc_timeout_us: float = 500 * MS
    op_budget_us: float = 10 * SEC
    max_attempts: int = 12
    track_health: bool = True

    def validate(self):
        """Raise ValueError on out-of-range rates or negative windows."""
        for rate in (self.false_negative_rate, self.false_positive_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"decision-flip rate out of range: {rate}")
        for rule in self.message_loss:
            if not 0.0 <= rule.rate <= 1.0:
                raise ValueError(f"message-loss rate out of range: "
                                 f"{rule.rate}")
        for rule in self.read_errors:
            if not 0.0 <= rule.rate <= 1.0:
                raise ValueError(f"read-error rate out of range: "
                                 f"{rule.rate}")
        for storm in self.device_storms:
            if not 0.0 <= storm.spike_prob <= 1.0:
                raise ValueError(f"spike probability out of range: "
                                 f"{storm.spike_prob}")
        for group in (self.crashes, self.fail_slow, self.device_storms):
            for entry in group:
                if entry.start_us < 0:
                    raise ValueError(f"negative fault start: {entry}")
                duration = getattr(entry, "duration_us", None)
                if duration is not None and duration < 0:
                    raise ValueError(f"negative fault duration: {entry}")
        if self.rpc_timeout_us is not None and self.rpc_timeout_us <= 0:
            raise ValueError("rpc_timeout_us must be positive")
        return self

    # -- JSON round-trip ---------------------------------------------------
    def to_dict(self):
        """Plain-dict form (tuples become lists; JSON-serializable)."""
        return asdict(self)

    def to_json(self):
        """Canonical JSON form: sorted keys, stable across runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from :meth:`to_dict` output (or hand-written
        JSON); unknown keys raise so committed spec files can't rot
        silently."""
        data = dict(data)
        kwargs = {}
        for name, member_cls in _FAULT_MEMBERS.items():
            entries = data.pop(name, ())
            kwargs[name] = tuple(
                _member_from_dict(member_cls, entry) for entry in entries)
        scalar_names = {f.name for f in fields(cls)} - set(_FAULT_MEMBERS)
        for name in list(data):
            if name not in scalar_names:
                raise ValueError(f"unknown FaultSpec field: {name!r}")
            kwargs[name] = data.pop(name)
        return cls(**kwargs).validate()

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path):
        """Read a committed spec file (CLI ``--faults PATH``)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


#: FaultSpec member-tuple field -> element class (JSON round-trip map).
_FAULT_MEMBERS = {
    "crashes": CrashWindow,
    "fail_slow": FailSlow,
    "message_loss": MessageLoss,
    "partitions": Partition,
    "device_storms": DeviceStorm,
    "read_errors": ReadErrors,
}


def _member_from_dict(member_cls, entry):
    entry = dict(entry)
    known = {f.name for f in fields(member_cls)}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(f"unknown {member_cls.__name__} field(s): "
                         f"{sorted(unknown)}")
    if "spike_us" in entry:  # JSON has no tuples
        entry["spike_us"] = tuple(entry["spike_us"])
    return member_cls(**entry)
