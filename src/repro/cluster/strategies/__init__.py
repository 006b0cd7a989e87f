"""Client-side tail-tolerance strategies compared in the paper.

===========  =================================================================
Strategy     Paper role
===========  =================================================================
``base``     vanilla store: no failover, coarse timeout (Table 1 defaults)
``appto``    application timeout: wait deadline, cancel, retry (§7.2)
``clone``    duplicate every request to two replicas (§7.2)
``hedged``   duplicate only after the p95-latency wait (§7.2, Dean/Barroso)
``snitch``   EWMA fastest-replica selection (Cassandra-like, §7.8.3)
``c3``       adaptive replica ranking with cubic queue penalty (§7.8.3)
``mittos``   EBUSY fast failover; 3rd try disables the deadline (§5)
``adaptive`` mittos under SLO feedback control (deadline bands +
             admission backpressure; ``repro.slo_control``)
===========  =================================================================
"""

from repro.cluster.strategies.adaptive import AdaptiveStrategy
from repro.cluster.strategies.base import AppToStrategy, BaseStrategy, Strategy
from repro.cluster.strategies.clone import CloneStrategy
from repro.cluster.strategies.hedged import HedgedStrategy
from repro.cluster.strategies.mittos import MittosStrategy
from repro.cluster.strategies.replica_ranking import C3Strategy, SnitchStrategy

STRATEGIES = {
    "base": BaseStrategy,
    "appto": AppToStrategy,
    "clone": CloneStrategy,
    "hedged": HedgedStrategy,
    "snitch": SnitchStrategy,
    "c3": C3Strategy,
    "mittos": MittosStrategy,
    "adaptive": AdaptiveStrategy,
}

__all__ = ["Strategy", "BaseStrategy", "AppToStrategy", "CloneStrategy",
           "HedgedStrategy", "SnitchStrategy", "C3Strategy",
           "MittosStrategy", "AdaptiveStrategy", "STRATEGIES"]
