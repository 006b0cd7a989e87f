"""Determinism lint rules DET001-DET010 and DET016.

Each rule is an AST checker with a stable ID.  Rules are deliberately
syntactic (no type inference): they encode the *project conventions* that
make replay deterministic, not general Python semantics.

==========  ============================================================
DET001      randomness outside named ``Simulator.rng`` streams
            (bare ``random.*``, unseeded ``random.Random()``,
            unseeded ``numpy.random`` generators)
DET002      wall-clock reads (``time.time``, ``perf_counter``,
            ``datetime.now``, ...) outside ``metrics/``/``benchmarks/``
DET003      iteration over sets / ``dict.keys()`` without ``sorted()``
            in scheduling code paths (``sim/``, ``kernel/``,
            ``devices/``, ``cluster/``)
DET004      ``==`` / ``!=`` between two simulation timestamps
            (float equality breaks under re-ordered arithmetic)
DET005      ``heapq`` mutation outside ``sim/core.py`` (the event heap
            has exactly one owner)
DET006      named-RNG-stream discipline: a stream whose first path
            segment names a package (``faults/net``, ``devices/...``)
            may only be drawn from inside that package
DET007      ``schedule``/``schedule_at``/``timeout`` with a time derived
            from a nondeterministic source (wall clock, ``id()``,
            ``hash()``) instead of sim time / model constants
DET008      mutable default arguments (state shared by every call), and
            scheduled lambdas mutating closure-captured containers
DET009      raw-float unit conversion (``* 1000``, ``/ 1e6``, ...) on
            time values, bypassing the ``_units.py`` constants/helpers
DET010      cross-layer mutation: device code assigning to
            scheduler/cluster/OS state instead of going through the bus
            or a scheduled event
DET016      per-event closure allocation in ``sim/`` hot paths: a
            ``lambda`` built inside a function body there costs one
            closure object per kernel event and defeats the
            preallocated-bound-method diet of the speed rewrite
==========  ============================================================

Suppress a finding with ``# repro: allow[DET00X]`` on the offending line
or on a comment line directly above it, plus a reason; suppress a whole
file with ``# repro: allow-file[DET00X]`` in its first five lines.
"""

import ast
from dataclasses import dataclass

#: Directory parts whose files count as scheduling/dispatch code (DET003).
SCHEDULING_PARTS = frozenset({"sim", "kernel", "devices", "cluster"})

#: Directory parts exempt from the wall-clock rule (DET002): measurement
#: and benchmark harnesses legitimately time the host machine.
WALLCLOCK_EXEMPT_PARTS = frozenset({"metrics", "benchmarks"})

#: ``time`` module functions that read the host clock.
WALL_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
})

#: ``numpy.random`` factories that are fine *when explicitly seeded*.
NP_SEEDED_FACTORIES = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
})

#: ``heapq`` functions that mutate their heap argument.
HEAPQ_MUTATORS = frozenset({
    "heappush", "heappop", "heapify", "heapreplace", "heappushpop",
})

#: Package directories that own same-named RNG stream prefixes (DET006):
#: a stream ``faults/net`` may only be drawn by code under ``faults/``.
RNG_OWNER_PACKAGES = frozenset({
    "sim", "kernel", "devices", "cluster", "faults", "engines",
    "workloads", "metrics", "experiments", "obs", "mittos", "analysis",
})

#: Methods that put a callback on the event heap (DET007/DET008).
SCHEDULE_METHODS = frozenset({
    "schedule", "schedule_at", "schedule_in", "timeout",
})

#: Callback-registration methods whose lambdas run as event callbacks
#: (the ``add_*_listener`` trio registers IO-scheduler hooks).
CALLBACK_METHODS = SCHEDULE_METHODS | frozenset({
    "subscribe", "add_callback", "add_submit_listener",
    "add_dispatch_listener", "add_complete_listener",
})

#: Container methods that mutate their receiver (DET008/DET010).
CONTAINER_MUTATORS = frozenset({
    "append", "appendleft", "add", "update", "extend", "insert",
    "setdefault", "remove", "discard", "clear", "pop", "popleft",
})

#: Time-unit constants exported by ``repro._units``.
TIME_UNIT_NAMES = frozenset({"NS", "US", "MS", "SEC", "MINUTE", "HOUR"})

#: Magic numbers that smell like unit conversions (DET009): µs/ms/s scale
#: factors.  ``1000`` covers ``1e3``; int/float equality unifies both.
UNIT_CONVERSION_LITERALS = (1000, 1_000_000, 0.001, 1e-6)

#: Attribute segments naming layers above the device (DET010).
UPPER_LAYER_SEGMENTS = frozenset({"scheduler", "cluster", "os"})


@dataclass(frozen=True)
class Rule:
    id: str
    name: str
    summary: str


RULES = {r.id: r for r in [
    Rule("DET000", "parse-error", "file could not be parsed"),
    Rule("DET001", "unmanaged-random",
         "randomness must flow through named Simulator.rng streams"),
    Rule("DET002", "wall-clock",
         "host clock reads outside metrics/ and benchmarks/"),
    Rule("DET003", "unordered-iteration",
         "set / dict.keys() iteration without sorted() in scheduling code"),
    Rule("DET004", "float-time-equality",
         "==/!= between two simulation timestamps"),
    Rule("DET005", "foreign-heap-mutation",
         "heapq mutation outside sim/core.py"),
    Rule("DET006", "foreign-rng-stream",
         "drawing a package-owned RNG stream from outside its package"),
    Rule("DET007", "nondeterministic-schedule-time",
         "schedule/timeout with a time not derived from sim time or "
         "model constants"),
    Rule("DET008", "shared-mutable-callback-state",
         "mutable default arguments / closure-mutating scheduled lambdas"),
    Rule("DET009", "raw-unit-conversion",
         "raw-float time unit conversion bypassing _units.py"),
    Rule("DET010", "cross-layer-mutation",
         "device code writing scheduler/cluster state directly"),
    # Whole-program rules (repro.analysis.eventflow / .effects): these
    # have no per-file checker in CHECKERS below — the linter runs them
    # over the full file set and routes the findings through the same
    # suppression / output machinery.
    Rule("DET011", "unknown-topic",
         "record/emit/subscribe with a topic not declared in "
         "repro.obs.schema"),
    Rule("DET012", "payload-contract",
         "emitted payload missing a required schema field or carrying an "
         "undeclared key"),
    Rule("DET013", "undeclared-consumer-key",
         "consumer reads a payload key no schema of the topics in view "
         "declares"),
    Rule("DET014", "helper-hidden-foreign-stream",
         "foreign package-owned RNG stream reached through helper call "
         "frames"),
    Rule("DET015", "unordered-iteration-to-heap",
         "set iteration whose body reaches the event heap through helper "
         "calls"),
    Rule("DET016", "hot-path-closure",
         "lambda allocated inside a sim/ function body (per-event closure "
         "churn on the kernel hot path)"),
    # Advisory (warning-level) whole-program findings.
    Rule("DETW01", "dead-topic",
         "topic declared in repro.obs.schema but never emitted in the "
         "linted program (registry in view)"),
]}


class ModuleContext:
    """Per-file facts shared by all rule checkers: path scope + aliases."""

    def __init__(self, path_parts, tree):
        parts = set(path_parts)
        self.path_parts = parts
        self.in_scheduling = bool(parts & SCHEDULING_PARTS)
        self.wallclock_exempt = bool(parts & WALLCLOCK_EXEMPT_PARTS)
        self.is_sim_core = tuple(path_parts[-2:]) == ("sim", "core.py")
        self.in_devices = "devices" in parts
        self.is_units = bool(path_parts) and path_parts[-1] == "_units.py"

        # Import aliases, collected once.
        self.random_mods = set()       # names bound to the random module
        self.from_random = {}          # local name -> original random.<X>
        self.numpy_mods = set()        # names bound to numpy
        self.nprandom_mods = set()     # names bound to numpy.random
        self.time_mods = set()         # names bound to time
        self.from_time = {}            # local name -> time.<X>
        self.datetime_mods = set()     # names bound to the datetime module
        self.datetime_classes = set()  # names bound to datetime.datetime
        self.date_classes = set()      # names bound to datetime.date
        self.heapq_mods = set()        # names bound to heapq
        self.from_heapq = {}           # local name -> heapq.<X>
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_mods.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_mods.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.nprandom_mods.add(bound)
                        else:
                            self.numpy_mods.add(bound)
                    elif alias.name == "time":
                        self.time_mods.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_mods.add(bound)
                    elif alias.name == "heapq":
                        self.heapq_mods.add(bound)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        self.from_random[bound] = alias.name
                    elif node.module == "numpy" and alias.name == "random":
                        self.nprandom_mods.add(bound)
                    elif node.module == "time":
                        self.from_time[bound] = alias.name
                    elif node.module == "datetime":
                        if alias.name == "datetime":
                            self.datetime_classes.add(bound)
                        elif alias.name == "date":
                            self.date_classes.add(bound)
                    elif node.module == "heapq":
                        self.from_heapq[bound] = alias.name


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _finding(rule_id, node, message):
    return (rule_id, node.lineno, node.col_offset, message)


# -- DET001: unmanaged randomness ------------------------------------------

def check_det001(tree, ctx):
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        seeded = bool(node.args or node.keywords)
        chain = dotted_name(node.func)
        if chain and len(chain) == 2 and chain[0] in ctx.random_mods:
            fn = chain[1]
            if fn == "Random" and seeded:
                continue  # explicitly-seeded private stream
            if fn == "Random":
                msg = "unseeded random.Random() — seed it or use Simulator.rng"
            else:
                msg = (f"module-level random.{fn}() shares hidden global "
                       "state — draw from a named Simulator.rng stream")
            findings.append(_finding("DET001", node, msg))
        elif chain and (
                (len(chain) == 3 and chain[0] in ctx.numpy_mods
                 and chain[1] == "random")
                or (len(chain) == 2 and chain[0] in ctx.nprandom_mods)):
            fn = chain[-1]
            if fn in NP_SEEDED_FACTORIES and seeded:
                continue
            if fn in NP_SEEDED_FACTORIES:
                msg = f"numpy.random.{fn}() without an explicit seed"
            else:
                msg = (f"numpy.random.{fn}() uses the global numpy "
                       "generator — use a seeded default_rng(seed)")
            findings.append(_finding("DET001", node, msg))
        elif isinstance(node.func, ast.Name) and \
                node.func.id in ctx.from_random:
            orig = ctx.from_random[node.func.id]
            if orig == "Random" and seeded:
                continue
            findings.append(_finding(
                "DET001", node,
                f"random.{orig} imported directly — draw from a named "
                "Simulator.rng stream instead"))
    return findings


# -- DET002: wall-clock reads ----------------------------------------------

def _wallclock_call(node, ctx):
    """The display name of a host-clock read, if ``node`` is one (a Call
    like ``time.time()`` / ``datetime.now()``), else None.  Shared by
    DET002 (any wall-clock read) and DET007 (wall clock feeding a
    schedule time)."""
    if not isinstance(node, ast.Call):
        return None
    chain = dotted_name(node.func)
    if chain and len(chain) == 2:
        root, fn = chain
        if root in ctx.time_mods and fn in WALL_FNS:
            return f"time.{fn}()"
        if root in ctx.datetime_classes and fn in ("now", "utcnow", "today"):
            return f"datetime.{fn}()"
        if root in ctx.date_classes and fn == "today":
            return "date.today()"
    elif chain and len(chain) == 3 and chain[0] in ctx.datetime_mods:
        if chain[1] == "datetime" and chain[2] in ("now", "utcnow", "today"):
            return f"datetime.datetime.{chain[2]}()"
        if chain[1] == "date" and chain[2] == "today":
            return "datetime.date.today()"
    elif isinstance(node.func, ast.Name) and \
            ctx.from_time.get(node.func.id) in WALL_FNS:
        return f"time.{ctx.from_time[node.func.id]}()"
    return None


def check_det002(tree, ctx):
    if ctx.wallclock_exempt:
        return []
    findings = []
    for node in ast.walk(tree):
        bad = _wallclock_call(node, ctx)
        if bad:
            findings.append(_finding(
                "DET002", node,
                f"wall-clock read {bad} — simulation code must use sim.now "
                "(host time is fine only in metrics/ and benchmarks/)"))
    return findings


# -- DET003: unordered iteration in scheduling code ------------------------

_SET_COMBINATORS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


def _is_setish(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SET_COMBINATORS:
            # e.g. set().union(*parts) — still hash-ordered.
            return _is_setish(node.func.value)
    return False


def _collect_set_names(tree):
    """Names / ``self.attr``s ever assigned a set, minus ones also assigned
    something else (conservative: only flag unambiguous set variables)."""
    set_names, other_names = set(), set()
    set_attrs, other_attrs = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                (set_names if _is_setish(value) else other_names).add(
                    target.id)
            elif isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                (set_attrs if _is_setish(value) else other_attrs).add(
                    target.attr)
    return set_names - other_names, set_attrs - other_attrs


def check_det003(tree, ctx):
    if not ctx.in_scheduling:
        return []
    set_names, set_attrs = _collect_set_names(tree)
    findings = []

    def iter_exprs():
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter

    for expr in iter_exprs():
        if isinstance(expr, ast.Call) and \
                isinstance(expr.func, ast.Name) and \
                expr.func.id in ("sorted", "enumerate", "len", "sum",
                                 "min", "max"):
            # sorted() fixes the order; the aggregates are order-free.
            continue
        if _is_setish(expr):
            findings.append(_finding(
                "DET003", expr,
                "iterating a set in scheduling code — wrap in sorted() so "
                "dispatch order never depends on hash order"))
        elif isinstance(expr, ast.Name) and expr.id in set_names:
            findings.append(_finding(
                "DET003", expr,
                f"iterating set '{expr.id}' in scheduling code — wrap in "
                "sorted()"))
        elif isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and \
                expr.value.id == "self" and expr.attr in set_attrs:
            findings.append(_finding(
                "DET003", expr,
                f"iterating set 'self.{expr.attr}' in scheduling code — "
                "wrap in sorted()"))
        elif isinstance(expr, ast.Call) and \
                isinstance(expr.func, ast.Attribute) and \
                expr.func.attr == "keys" and not expr.args:
            findings.append(_finding(
                "DET003", expr,
                ".keys() iteration in scheduling code — use sorted(...) to "
                "make the dispatch order an explicit contract"))
    return findings


# -- DET004: float timestamp equality --------------------------------------

def _timestamp_like(node):
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return (name == "now" or name == "timestamp"
            or name.endswith("_time") or name.endswith("deadline")
            or name.endswith("_ts"))


def check_det004(tree, ctx):
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + node.comparators
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _timestamp_like(left) and _timestamp_like(right):
                findings.append(_finding(
                    "DET004", node,
                    "==/!= between simulation timestamps — float equality "
                    "breaks under re-ordered arithmetic; compare with <=/>= "
                    "or an explicit tolerance"))
    return findings


# -- DET005: heapq mutation outside sim/core.py ----------------------------

def check_det005(tree, ctx):
    if ctx.is_sim_core:
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = None
        chain = dotted_name(node.func)
        if chain and len(chain) == 2 and chain[0] in ctx.heapq_mods:
            fn = chain[1]
        elif isinstance(node.func, ast.Name) and \
                node.func.id in ctx.from_heapq:
            fn = ctx.from_heapq[node.func.id]
        if fn in HEAPQ_MUTATORS:
            findings.append(_finding(
                "DET005", node,
                f"heapq.{fn}() outside sim/core.py — the event heap has one "
                "owner; schedule through Simulator.schedule/schedule_at"))
    return findings


# -- DET006: named-RNG-stream ownership ------------------------------------

def _stream_literal(node):
    """The (possibly partial) string literal of an rng stream argument:
    a plain str constant, or the leading constant chunk of an f-string
    (``f"faults/{node}"`` still reveals the owning prefix)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values and \
            isinstance(node.values[0], ast.Constant) and \
            isinstance(node.values[0].value, str):
        return node.values[0].value
    return None


def check_det006(tree, ctx):
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "rng" and node.args):
            continue
        stream = _stream_literal(node.args[0])
        if not stream or "/" not in stream:
            continue
        owner = stream.split("/", 1)[0]
        if owner in RNG_OWNER_PACKAGES and owner not in ctx.path_parts:
            findings.append(_finding(
                "DET006", node,
                f"rng stream '{stream}' is owned by the {owner}/ package — "
                "drawing it here splits the stream's draw sequence across "
                "layers; take a stream named after this package instead"))
    return findings


# -- DET007: nondeterministic schedule times -------------------------------

def check_det007(tree, ctx):
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULE_METHODS
                and node.args):
            continue
        for sub in ast.walk(node.args[0]):
            bad = _wallclock_call(sub, ctx)
            if bad is None and isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Name) and \
                    sub.func.id in ("id", "hash"):
                bad = f"{sub.func.id}(...)"
            if bad:
                findings.append(_finding(
                    "DET007", node,
                    f"{node.func.attr}() time derived from {bad} — event "
                    "times must come from sim.now and model constants, "
                    "never the host process"))
                break
    return findings


# -- DET008: shared mutable callback state ---------------------------------

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})


def _is_mutable_default(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        return bool(chain) and chain[-1] in _MUTABLE_FACTORIES
    return False


def _lambda_params(node):
    a = node.args
    return {p.arg for p in
            a.posonlyargs + a.args + a.kwonlyargs
            + ([a.vararg] if a.vararg else [])
            + ([a.kwarg] if a.kwarg else [])}


def check_det008(tree, ctx):
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            defaults = list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    findings.append(_finding(
                        "DET008", default,
                        "mutable default argument — one instance is shared "
                        "by every call (and every replay); default to None "
                        "and allocate inside the body"))
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CALLBACK_METHODS):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if not isinstance(arg, ast.Lambda):
                continue
            params = _lambda_params(arg)
            for sub in ast.walk(arg.body):
                if not (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in CONTAINER_MUTATORS):
                    continue
                chain = dotted_name(sub.func)
                if chain and chain[0] not in params and \
                        chain[0] not in ("self", "cls"):
                    findings.append(_finding(
                        "DET008", sub,
                        f"scheduled lambda mutates closure-captured "
                        f"'{chain[0]}' via .{sub.func.attr}() — callback "
                        "ordering decides the final state; pass state "
                        "explicitly or mutate from one owner"))
    return findings


# -- DET009: raw-float unit conversion -------------------------------------

def _is_conversion_literal(node):
    return (isinstance(node, ast.Constant)
            and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float))
            and any(node.value == lit for lit in UNIT_CONVERSION_LITERALS))


def _mentions_time(node):
    for sub in ast.walk(node):
        if _timestamp_like(sub):
            return True
        if isinstance(sub, ast.Name) and sub.id in TIME_UNIT_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in TIME_UNIT_NAMES:
            return True
    return False


def check_det009(tree, ctx):
    if ctx.is_units:
        return []  # _units.py is the one place conversions live
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Mult, ast.Div))):
            continue
        for literal, other in ((node.left, node.right),
                               (node.right, node.left)):
            if _is_conversion_literal(literal) and _mentions_time(other):
                op = "*" if isinstance(node.op, ast.Mult) else "/"
                findings.append(_finding(
                    "DET009", node,
                    f"raw unit conversion '{op} {literal.value!r}' on a "
                    "time value — use the _units.py constants (MS, SEC, "
                    "...) so every layer agrees on the scale"))
                break
    return findings


# -- DET010: cross-layer mutation from device code -------------------------

def check_det010(tree, ctx):
    if not ctx.in_devices:
        return []
    findings = []

    def layer_segment(segments):
        """An upper-layer name reached *through* an attribute chain
        (index >= 1: ``self.scheduler...``, not a local named
        ``scheduler``, and not plain attribute wiring like
        ``self.scheduler = s`` where the layer is the final target)."""
        for segment in segments[1:]:
            if segment in UPPER_LAYER_SEGMENTS:
                return segment
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                chain = dotted_name(target)
                if chain and layer_segment(chain[:-1]):
                    findings.append(_finding(
                        "DET010", target,
                        f"device code assigns {'.'.join(chain)} — writes "
                        "into scheduler/cluster/OS state must go through "
                        "the bus or a scheduled event, not reach across "
                        "layers"))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in CONTAINER_MUTATORS:
            chain = dotted_name(node.func)
            if chain and layer_segment(chain[:-1]):
                findings.append(_finding(
                    "DET010", node,
                    f"device code mutates {'.'.join(chain[:-1])} via "
                    f".{node.func.attr}() — cross-layer writes must go "
                    "through the bus or a scheduled event"))
    return findings


# -- DET016: per-event closure allocation on sim hot paths -----------------

def check_det016(tree, ctx):
    """Flag lambdas built inside ``sim/`` function bodies.

    The kernel executes hundreds of thousands of events per second, and
    the speed rewrite's allocation diet replaced per-event closures with
    preallocated bound methods (``Process._step_cb``, the shared
    ``AllOf._on_child_event``, fused timer callbacks).  A ``lambda``
    inside a function body here reintroduces one closure object — plus a
    cell per captured name — *per event*; hoist a bound method or a
    module-level function instead.  Module-level lambdas (constants,
    sort keys defined once) are not flagged, and the rule is scoped to
    the ``sim`` package: elsewhere closures are a style question, not a
    hot-path hazard.
    """
    if "sim" not in ctx.path_parts:
        return []
    findings = []
    seen = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(outer):
            if isinstance(node, ast.Lambda) and id(node) not in seen:
                seen.add(id(node))
                findings.append(_finding(
                    "DET016", node,
                    "lambda allocated inside a sim hot path — this costs "
                    "one closure object per kernel event; hoist a bound "
                    "method or module-level function instead"))
    return findings


CHECKERS = {
    "DET001": check_det001,
    "DET002": check_det002,
    "DET003": check_det003,
    "DET004": check_det004,
    "DET005": check_det005,
    "DET006": check_det006,
    "DET007": check_det007,
    "DET008": check_det008,
    "DET009": check_det009,
    "DET010": check_det010,
    "DET016": check_det016,
}
