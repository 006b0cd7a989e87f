"""Facebook-2010-like Hadoop job mix (§7.8.1).

The paper replays "the first 50 Hadoop jobs from the Facebook 2010
benchmark" as background load.  The published SWIM characterisation of that
trace is dominated by many small jobs with a heavy-tailed size distribution;
we model each job as a burst of large sequential map-reads followed by
shuffle/output writes, with lognormal job sizes and Poisson arrivals.
"""

from repro._units import KB, MB, SEC
from repro.devices.request import BlockRequest, IoClass, IoOp

#: Size of each map read and output write.
_CHUNK = 1 * MB


class HadoopJob:
    __slots__ = ("arrival_us", "input_bytes", "output_bytes")

    def __init__(self, arrival_us, input_bytes, output_bytes):
        self.arrival_us = arrival_us
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes


def generate_jobs(rng, n_jobs=50, mean_gap_us=3 * SEC,
                  median_input_bytes=8 * MB):
    """The job list: heavy-tailed (lognormal, sigma 1.2) sizes, Poisson
    arrivals."""
    import math
    jobs = []
    t = 0.0
    mu = math.log(median_input_bytes)
    for _ in range(n_jobs):
        t += rng.expovariate(1.0 / mean_gap_us)
        input_bytes = int(min(rng.lognormvariate(mu, 1.2), 512 * MB))
        output_bytes = int(input_bytes * rng.uniform(0.1, 0.8))
        jobs.append(HadoopJob(t, input_bytes, output_bytes))
    return jobs


def run_jobs(sim, os, jobs, span_bytes, pid_base=8000):
    """Replay jobs against a node's OS; returns the driver process."""

    def job_proc(job, pid):
        # Map phase: sequential chunked reads of the input.
        offset = pid * 64 * MB % max(_CHUNK, span_bytes - job.input_bytes)
        offset -= offset % (4 * KB)
        remaining = job.input_bytes
        while remaining > 0:
            size = min(_CHUNK, remaining)
            yield os.submit_raw(BlockRequest(
                IoOp.READ, offset, size, pid=pid, ioclass=IoClass.BE,
                priority=6))
            offset += size
            remaining -= size
        # Shuffle/output: writes.
        remaining = job.output_bytes
        while remaining > 0:
            size = min(_CHUNK, remaining)
            yield os.submit_raw(BlockRequest(
                IoOp.WRITE, offset, size, pid=pid, ioclass=IoClass.BE,
                priority=6))
            remaining -= size

    def driver():
        running = []
        for i, job in enumerate(jobs):
            delay = job.arrival_us - sim.now
            if delay > 0:
                yield delay
            running.append(sim.process(job_proc(job, pid_base + i)))
        yield sim.all_of(running)
        return len(jobs)

    return sim.process(driver())
