"""Key popularity for the YCSB-like workloads: a uniform picker, so load
spreads evenly over the keyspace."""


class UniformKeys:
    """Uniform key popularity."""

    def __init__(self, n_keys, rng):
        self.n_keys = n_keys
        self.rng = rng

    def next_key(self):
        return self.rng.randrange(self.n_keys)
