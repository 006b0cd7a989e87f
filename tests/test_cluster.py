"""Tests of cluster assembly and replica placement."""

import pytest

from repro.cluster import Cluster, Network
from repro.engines.kv import _stable_hash
from repro.experiments.common import build_disk_cluster


def test_replication_cannot_exceed_nodes(sim):
    env = build_disk_cluster(sim, 3)
    with pytest.raises(ValueError):
        Cluster(sim, env.nodes, Network(sim), replication=4)


def test_replicas_are_distinct_and_deterministic(sim):
    env = build_disk_cluster(sim, 10)
    for key in range(50):
        replicas = env.cluster.replicas_for(key)
        assert len(replicas) == 3
        assert len({n.node_id for n in replicas}) == 3
        assert [n.node_id for n in replicas] == \
            [n.node_id for n in env.cluster.replicas_for(key)]


def test_placement_spreads_over_cluster(sim):
    env = build_disk_cluster(sim, 10)
    primaries = {env.cluster.replicas_for(k)[0].node_id
                 for k in range(200)}
    assert len(primaries) == 10


def test_placement_memo_matches_the_hash_on_every_call(sim):
    """The memo keeps one byte per key, so on a 300-node cluster a start
    node above 254 is recomputed instead of stored; every call, first or
    repeated, must still give the hashed placement."""
    cluster = Cluster(sim, list(range(300)), Network(sim))
    for key in [*range(600), *range(600)]:
        start = _stable_hash(("placement", key)) % 300
        assert cluster.replicas_for(key) == \
            (start, (start + 1) % 300, (start + 2) % 300)
    with pytest.raises(KeyError):
        cluster.replicas_for(-1)


def test_primary_fn_override(sim):
    env = build_disk_cluster(sim, 5)
    env.cluster.primary_fn = lambda key: 2
    for key in range(10):
        assert env.cluster.replicas_for(key)[0].node_id == 2


def test_node_accessor_and_len(sim):
    env = build_disk_cluster(sim, 4)
    assert len(env.cluster) == 4
    assert env.cluster.node(2).node_id == 2
