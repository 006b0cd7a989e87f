"""Tests of the one-hop network model."""

from repro.cluster import Network


def test_hop_latency_around_mean(sim):
    net = Network(sim, hop_us=300.0, jitter_us=15.0)
    samples = [net.hop_latency() for _ in range(500)]
    mean = sum(samples) / len(samples)
    assert 280 < mean < 320
    assert all(s >= 1.0 for s in samples)


def test_hop_event_advances_clock(sim):
    net = Network(sim, hop_us=300.0, jitter_us=0.0)

    def message():
        yield net.send(net.CLIENT, 0)
        return sim.now

    proc = sim.process(message())
    sim.run()
    assert proc.value == 300.0


def test_heavy_tail_component(sim):
    net = Network(sim, hop_us=300.0, jitter_us=0.0, tail_prob=1.0,
                  tail_extra_us=5000.0)
    samples = [net.hop_latency() for _ in range(200)]
    assert max(samples) > 1000.0


def test_deterministic_across_seeds():
    from repro.sim import Simulator
    a = Network(Simulator(seed=1)).hop_latency()
    b = Network(Simulator(seed=1)).hop_latency()
    assert a == b
