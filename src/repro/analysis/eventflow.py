"""Whole-program event-flow contracts: DET011-DET013 + dead topics.

The trace plane is a string-keyed bus: emitters call
``bus.record(TOPIC, {...})``, consumers branch on ``event.topic`` and
read ``event.fields["key"]``.  Nothing ties the two ends together at
runtime — a renamed payload key produces silently-empty analysis, not an
error.  This pass checks both ends against the declared contracts in
:mod:`repro.obs.schema`:

``DET011``
    a topic string that is not declared in the schema registry, at any
    ``record``/``emit``/``subscribe``/``by_topic`` call site whose topic
    argument is statically resolvable (a string literal, an imported
    topic constant, or ``events.CONST`` through a module alias).

``DET012``
    an emitted payload that breaks its topic's schema: a key no schema
    declares, or — when the payload expression is fully resolvable — a
    missing required key.  Payloads built with ``**`` expansions or from
    opaque values are checked only for the keys that *are* visible.

``DET013``
    a consumer reading a payload key that no schema declares for the
    topics flowing into that read.  Reads are attributed to topics three
    ways: an enclosing ``topic == CONST`` guard, a loop over
    ``recorder.by_topic(CONST)``, and — interprocedurally — calls from an
    attributed context into same-module helpers (so ``_on_verdict`` is
    checked against ``predictor.verdict`` because ``observe`` only calls
    it under that guard).  Reads that no topic can be attributed to are
    skipped, not guessed.

``DETW01`` (warning level)
    a dead topic: declared in the schema registry but never emitted
    anywhere in the linted program.  Only reported when the registry
    module itself (``repro.obs.schema``) is in the linted file set —
    linting a partial tree (one package, a fixture) just means "emitter
    not in view", which is not a finding.  Each finding anchors at the
    topic constant's declaration line so a suppression pragma has a real
    location to bind to.

Only payload-shaped receivers are treated as event-field reads: a name
``fields`` / ``*_fields`` or an attribute ``.fields`` — the naming
convention every consumer in the tree already follows.
"""

import ast

from repro.obs import schema as _schema_mod
from repro.obs.schema import SCHEMAS

#: Modules whose constants are topic names.
TOPIC_MODULES = ("repro.obs.events", "repro.obs.schema")

#: Constant name -> topic string, from the real registry module.
NAME_TO_TOPIC = {
    name: value for name, value in vars(_schema_mod).items()
    if not name.startswith("_") and isinstance(value, str)
    and value in SCHEMAS
}

#: Payload-building helpers with a statically-known key set.
KNOWN_FIELD_HELPERS = {
    "request_fields": ("req", "op", "offset", "size", "pid"),
}

#: Methods whose first argument is a topic (and whether a 2-positional-arg
#: call carries a payload dict to check).
_TOPIC_METHODS = frozenset({"record", "emit", "subscribe", "by_topic"})


class _TopicTable:
    """Per-file resolution of topic constants and payload helpers."""

    def __init__(self, tree):
        self.names = {}         # local name -> topic string
        self.mod_aliases = set()  # names bound to the events/schema module
        self.helpers = {}       # local name -> known payload key tuple
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in TOPIC_MODULES:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if alias.name in NAME_TO_TOPIC:
                            self.names[bound] = NAME_TO_TOPIC[alias.name]
                        elif alias.name in KNOWN_FIELD_HELPERS:
                            self.helpers[bound] = \
                                KNOWN_FIELD_HELPERS[alias.name]
                elif node.module == "repro.obs":
                    for alias in node.names:
                        if alias.name in ("events", "schema"):
                            self.mod_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in TOPIC_MODULES:
                        self.mod_aliases.add(
                            alias.asname or alias.name.split(".")[0])

    def resolve(self, node):
        """Topic string of a topic-argument expression, or None.

        May return a string that is *not* a declared topic — that is
        exactly DET011's business.
        """
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in self.mod_aliases:
            return NAME_TO_TOPIC.get(node.attr)
        return None

    def resolve_known(self, node):
        """Like :meth:`resolve`, but only declared topics (for guards)."""
        topic = self.resolve(node)
        return topic if topic in SCHEMAS else None


# -- payload resolution (DET012) ---------------------------------------------

def _payload_keys(expr, fn_node, table):
    """``(keys, complete)`` of a payload expression, or None if opaque.

    ``complete=False`` means the visible keys are a subset (``**``
    expansion, opaque positional) — only undeclared-key checks apply.
    """
    resolved = _literal_payload(expr, table)
    if resolved is not None:
        return resolved
    if isinstance(expr, ast.Name) and fn_node is not None:
        return _dataflow_payload(expr.id, fn_node, table)
    return None


def _literal_payload(expr, table):
    if isinstance(expr, ast.Dict):
        keys, complete = set(), True
        for key in expr.keys:
            if key is None:          # {**other}
                complete = False
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:
                complete = False
        return keys, complete
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id == "dict":
            keys, complete = set(), True
            for kw in expr.keywords:
                if kw.arg is None:   # dict(**other)
                    complete = False
                else:
                    keys.add(kw.arg)
            for arg in expr.args:
                sub = _literal_payload(arg, table)
                if sub is None:
                    complete = False
                else:
                    keys |= sub[0]
                    complete = complete and sub[1]
            return keys, complete
        if isinstance(expr.func, ast.Name) and \
                expr.func.id in table.helpers:
            return set(table.helpers[expr.func.id]), True
    return None


def _dataflow_payload(name, fn_node, table):
    """Keys of a local ``fields = request_fields(...); fields["x"] = ...``
    build-up.  Conservative: every assignment to the name must itself be
    resolvable, else the whole payload is opaque."""
    base_keys, complete, assigned = set(), True, False
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    sub = _literal_payload(node.value, table)
                    if sub is None:
                        return None
                    assigned = True
                    base_keys |= sub[0]
                    complete = complete and sub[1]
                elif isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == name and \
                        isinstance(target.slice, ast.Constant) and \
                        isinstance(target.slice.value, str):
                    base_keys.add(target.slice.value)
    if not assigned:
        return None
    return base_keys, complete


# -- consumer-read attribution (DET013) --------------------------------------

def _fields_receiver(node):
    """Is this expression an event-payload dict, by naming convention?"""
    if isinstance(node, ast.Name):
        return node.id == "fields" or node.id.endswith("_fields")
    return isinstance(node, ast.Attribute) and node.attr == "fields"


def _read_of(node):
    """``(key, node)`` if this expression reads one constant payload key."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get" and node.args \
            and _fields_receiver(node.func.value) \
            and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) \
            and _fields_receiver(node.value) \
            and isinstance(node.slice, ast.Constant) \
            and isinstance(node.slice.value, str):
        return node.slice.value
    return None


def _topics_in_test(test, table):
    """Topics a guard expression narrows to (empty = not a topic guard)."""
    topics = set()
    parts = test.values if isinstance(test, ast.BoolOp) and \
        isinstance(test.op, ast.Or) else [test]
    for part in parts:
        if not (isinstance(part, ast.Compare) and len(part.ops) == 1):
            continue
        op = part.ops[0]
        if isinstance(op, ast.Eq):
            for side in (part.left, part.comparators[0]):
                topic = table.resolve_known(side)
                if topic:
                    topics.add(topic)
        elif isinstance(op, ast.In):
            container = part.comparators[0]
            if isinstance(container, (ast.Tuple, ast.List, ast.Set)):
                for elt in container.elts:
                    topic = table.resolve_known(elt)
                    if topic:
                        topics.add(topic)
    return frozenset(topics)


def _by_topic_topic(expr, table):
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr == "by_topic" and expr.args:
        return table.resolve_known(expr.args[0])
    return None


class _FunctionFacts:
    """Reads and same-module calls of one function, with local topic
    context attached where a guard/by_topic loop provides one."""

    def __init__(self, key, node):
        self.key = key
        self.node = node
        self.reads = []    # (key string, lineno, col, frozenset of topics)
        self.calls = []    # (callee key, frozenset of topics)


class _ModuleEventFacts:
    """One file's topic sites, emissions, reads, and local call graph."""

    def __init__(self, path, tree, table):
        self.path = str(path)
        self.table = table
        self.functions = {}      # qualname -> _FunctionFacts
        self._module_funcs = {}  # name -> qualname
        self._methods = {}       # class name -> {method name -> qualname}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_funcs[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                methods = {}
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        methods[sub.name] = f"{node.name}.{sub.name}"
                self._methods[node.name] = methods
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect(node, node.name, None)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self._collect(sub, f"{node.name}.{sub.name}",
                                      node.name)

    def _resolve_local(self, call, class_name):
        func = call.func
        if isinstance(func, ast.Name):
            return self._module_funcs.get(func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in ("self", "cls") and class_name:
            return self._methods.get(class_name, {}).get(func.attr)
        return None

    def _collect(self, fn_node, qualname, class_name):
        facts = _FunctionFacts(qualname, fn_node)
        self.functions[qualname] = facts

        def visit(node, topics):
            if isinstance(node, ast.If):
                visit(node.test, topics)
                narrowed = _topics_in_test(node.test, self.table) or topics
                for child in node.body:
                    visit(child, narrowed)
                for child in node.orelse:
                    visit(child, topics)
                return
            if isinstance(node, (ast.For, ast.AsyncFor)):
                visit(node.iter, topics)
                narrowed = _by_topic_topic(node.iter, self.table)
                body_topics = frozenset({narrowed}) if narrowed else topics
                for child in node.body + node.orelse:
                    visit(child, body_topics)
                return
            read = _read_of(node)
            if read is not None:
                facts.reads.append((read, node.lineno, node.col_offset,
                                    topics))
            if isinstance(node, ast.Call):
                callee = self._resolve_local(node, class_name)
                if callee is not None:
                    facts.calls.append((callee, topics))
            for child in ast.iter_child_nodes(node):
                visit(child, topics)

        for stmt in fn_node.body:
            visit(stmt, frozenset())


def _check_topic_sites(path, tree, table, fn_of_node, findings, emitted):
    """DET011 + DET012 over every topic-taking call site of one file."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TOPIC_METHODS
                and node.args
                and not any(isinstance(a, ast.Starred) for a in node.args)):
            continue
        method = node.func.attr
        topic = table.resolve(node.args[0])
        if topic is None:
            continue
        if method == "record" and len(node.args) != 2:
            # Not a trace-plane record(topic, fields) signature —
            # e.g. HealthView.record(node_id, ok).
            continue
        if topic not in SCHEMAS:
            findings.append((
                "DET011", path, node.lineno, node.col_offset,
                f"{method}() with undeclared topic '{topic}' — every "
                "trace topic must be declared in repro.obs.schema"))
            continue
        if method in ("record", "emit"):
            emitted.add(topic)
        if method != "record":
            continue
        payload = _payload_keys(node.args[1], fn_of_node.get(id(node)),
                                table)
        if payload is None:
            continue
        keys, complete = payload
        declared = SCHEMAS[topic].keys()
        required = SCHEMAS[topic].required
        for key in sorted(keys - declared):
            findings.append((
                "DET012", path, node.lineno, node.col_offset,
                f"payload key '{key}' is not declared for topic "
                f"'{topic}' — add it to the schema or drop it"))
        if complete:
            for key in sorted(set(required) - keys):
                findings.append((
                    "DET012", path, node.lineno, node.col_offset,
                    f"payload for topic '{topic}' is missing required "
                    f"key '{key}'"))


def _map_nodes_to_functions(tree):
    """Call-node id -> enclosing top-level function/method node (for the
    DET012 local dataflow)."""
    mapping = {}
    def fill(fn_node):
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Call):
                mapping[id(node)] = fn_node
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fill(node)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fill(sub)
    return mapping


def _check_reads(facts, findings):
    """DET013 over one module's attributed reads (after the same-module
    topic-context fixpoint)."""
    attributed = {qualname: set() for qualname in facts.functions}
    changed = True
    while changed:
        changed = False
        for qualname, fn in facts.functions.items():
            for callee, topics in fn.calls:
                flow = topics or attributed[qualname]
                missing = set(flow) - attributed[callee]
                if missing:
                    attributed[callee].update(missing)
                    changed = True
    for qualname, fn in facts.functions.items():
        for key, lineno, col, topics in fn.reads:
            effective = set(topics) or attributed[qualname]
            if not effective:
                continue    # no topic in view: nothing to check against
            allowed = set()
            for topic in effective:
                allowed |= SCHEMAS[topic].keys()
            if key not in allowed:
                names = ", ".join(f"'{t}'" for t in sorted(effective))
                findings.append((
                    "DET013", facts.path, lineno, col,
                    f"reads payload key '{key}' but no schema of the "
                    f"topic(s) in view ({names}) declares it — the "
                    "emitter and this consumer have drifted apart"))


def _registry_anchor(files):
    """(path, {topic: (line, col)}) of the schema registry module if it
    is part of the linted program, else (None, {})."""
    from repro.analysis.callgraph import module_name_of
    for path, parts, tree in files:
        if module_name_of(parts) != "repro.obs.schema":
            continue
        anchors = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Constant) and \
                    isinstance(node.value.value, str):
                anchors[node.value.value] = (node.lineno, node.col_offset)
        return str(path), anchors
    return None, {}


def analyze_eventflow(files):
    """Run DET011-DET013 + DETW01 over ``[(path, path_parts, tree), ...]``;
    returns raw ``(rule, path, line, col, message)`` tuples."""
    findings = []
    emitted = set()
    for path, _parts, tree in files:
        table = _TopicTable(tree)
        fn_of_node = _map_nodes_to_functions(tree)
        _check_topic_sites(str(path), tree, table, fn_of_node, findings,
                           emitted)
        facts = _ModuleEventFacts(path, tree, table)
        _check_reads(facts, findings)
    registry_path, anchors = _registry_anchor(files)
    if registry_path is not None:
        for topic in SCHEMAS:
            if topic in emitted:
                continue
            line, col = anchors.get(topic, (1, 0))
            findings.append((
                "DETW01", registry_path, line, col,
                f"dead topic '{topic}': declared in repro.obs.schema but "
                "never emitted in the linted program — delete the schema "
                "entry or lint the emitter alongside it"))
    return findings
