"""MittOS — the paper's contribution: fast-rejecting SLO-aware prediction.

Four resource integrations, mirroring §4:

* :class:`~repro.mittos.mittnoop.MittNoop` — disk + noop scheduler,
* :class:`~repro.mittos.mittcfq.MittCfq` — disk + CFQ scheduler,
* :class:`~repro.mittos.mittssd.MittSsd` — OpenChannel SSD,
* :class:`~repro.mittos.mittcache.MittCache` — OS buffer cache front.

Each is a *predictor* plugged into :class:`repro.kernel.syscall.OS`: when a
``read(..., deadline)`` arrives, ``admit()`` decides accept-or-EBUSY from the
predicted queue wait, without ever queueing rejected IOs.
"""

from repro.mittos.faults import FaultInjector
from repro.mittos.mittcache import MittCache
from repro.mittos.mittcfq import MittCfq
from repro.mittos.mittnoop import MittNoop
from repro.mittos.mittssd import MittSsd
from repro.mittos.predictor import Predictor, Verdict

__all__ = ["Predictor", "Verdict", "MittNoop", "MittCfq", "MittSsd",
           "MittCache", "FaultInjector"]
