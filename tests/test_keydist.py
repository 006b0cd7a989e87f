"""Tests of key popularity distributions."""

import random

from repro.workloads import UniformKeys


def test_uniform_covers_space():
    dist = UniformKeys(100, random.Random(1))
    seen = {dist.next_key() for _ in range(5000)}
    assert len(seen) == 100
