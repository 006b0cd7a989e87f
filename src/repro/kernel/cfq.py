"""CFQ — completely fair queueing, the default Linux disk scheduler (§4.2).

Structure follows the paper's description of one group: "there are three
service trees (RealTime/BestEffort/Idle).  In every tree, there are process
nodes.  In every node, there is a red-black tree for sorting the process'
pending IOs based on their on-disk offsets" (a bisect-sorted list gives the
same dispatch order).  The paper's weighted cgroups are not modelled: every
IO of every figure belongs to one group.

Policy: the RealTime tree drains first, then BestEffort, then Idle; within
a tree, process nodes rotate with quanta proportional to their ionice
priority (0 is highest of 0-7).  Dispatched requests enter the device
queue, where the disk reorders them SSTF — the two-level queueing the
appendix models as ``cfqTime`` + ``sstfTime``.
"""

import bisect

from repro.devices.request import IoClass
from repro.kernel.scheduler import IOScheduler

#: Iteration order of the three service trees (RT, then BE, then Idle).
#: Hoisted: ``for cls in IoClass`` re-enters the enum metaclass on every
#: dispatch, which shows up in hot-loop profiles.
_IOCLASSES = tuple(IoClass)

#: Extra dispatch credit per priority step; priority 0 gets the most.
_BASE_QUANTUM = 1


def priority_quantum(priority):
    """Requests a node may dispatch per round-robin turn."""
    return _BASE_QUANTUM + (7 - priority)


class _ProcNode:
    """Pending IOs of one process, sorted by offset."""

    __slots__ = ("pid", "priority", "keys", "reqs", "budget")

    def __init__(self, pid, priority):
        self.pid = pid
        self.priority = priority
        self.keys = []   # offsets, kept sorted
        self.reqs = []   # parallel to keys
        self.budget = 0  # remaining dispatch credit this turn

    def add(self, req):
        idx = bisect.bisect(self.keys, req.offset)
        self.keys.insert(idx, req.offset)
        self.reqs.insert(idx, req)
        # Priority can be refreshed by ionice between IOs; latest wins.
        self.priority = req.priority

    def pop(self):
        self.keys.pop(0)
        return self.reqs.pop(0)

    def remove(self, req):
        try:
            idx = self.reqs.index(req)
        except ValueError:
            return False
        del self.reqs[idx]
        del self.keys[idx]
        return True

    def __len__(self):
        return len(self.reqs)


class CfqScheduler(IOScheduler):
    """Service trees + per-process sorted queues."""

    def __init__(self, sim, device):
        super().__init__(sim, device)
        self._trees = {cls: {} for cls in _IOCLASSES}
        self._cursor = {cls: None for cls in _IOCLASSES}

    # -- queue maintenance -------------------------------------------------
    def _enqueue(self, req):
        tree = self._trees[req.ioclass]
        node = tree.get(req.pid)
        if node is None:
            node = _ProcNode(req.pid, req.priority)
            tree[req.pid] = node
        node.add(req)

    def _remove(self, req):
        tree = self._trees[req.ioclass]
        node = tree.get(req.pid)
        if node is None:
            return False
        found = node.remove(req)
        if found and not node:
            self._drop_node(req.ioclass, req.pid)
        return found

    def _drop_node(self, ioclass, pid):
        del self._trees[ioclass][pid]
        if self._cursor[ioclass] == pid:
            self._cursor[ioclass] = None

    # -- dispatch policy ------------------------------------------------------
    def _next(self):
        for cls in _IOCLASSES:       # RT, then BE, then Idle
            tree = self._trees[cls]
            if not tree:
                continue
            node = self._current_node(cls)
            req = node.pop()
            node.budget -= 1
            if not node:
                self._drop_node(cls, node.pid)
            elif node.budget <= 0:
                self._advance_cursor(cls, node.pid)
            return req
        return None

    def _current_node(self, cls):
        tree = self._trees[cls]
        pid = self._cursor[cls]
        if pid is None or pid not in tree:
            pid = next(iter(tree))
            self._cursor[cls] = pid
            node = tree[pid]
            node.budget = priority_quantum(node.priority)
            return node
        return tree[pid]

    def _advance_cursor(self, cls, current_pid):
        tree = self._trees[cls]
        pids = list(tree)
        if current_pid in pids:
            nxt = pids[(pids.index(current_pid) + 1) % len(pids)]
        else:
            nxt = pids[0] if pids else None
        self._cursor[cls] = nxt
        if nxt is not None:
            node = tree[nxt]
            node.budget = priority_quantum(node.priority)

    # -- introspection (for MittCFQ) ------------------------------------------
    def queued_requests(self):
        out = []
        for cls in _IOCLASSES:
            for node in self._trees[cls].values():
                out.extend(r for r in node.reqs if not r.cancelled)
        return out

    def requests_ahead_of(self, req):
        """Requests CFQ policy will dispatch before a new ``req``.

        This is the O(P) accounting MittCFQ keeps: everything in strictly
        higher service classes, every node already in the rotation, and
        IOs ahead of it in its node's offset sort.
        """
        ahead = []
        for cls in _IOCLASSES:
            if cls < req.ioclass:
                for node in self._trees[cls].values():
                    ahead.extend(node.reqs)
            elif cls == req.ioclass:
                for pid, node in self._trees[cls].items():
                    if pid == req.pid:
                        idx = bisect.bisect(node.keys, req.offset)
                        ahead.extend(node.reqs[:idx])
                    else:
                        ahead.extend(node.reqs)
        return [r for r in ahead if not r.cancelled]

    def process_count(self):
        """P — processes with pending IOs (the paper's O(P) bound)."""
        return sum(len(tree) for tree in self._trees.values())
