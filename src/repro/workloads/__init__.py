"""Workload generators: YCSB clients, noise injectors, EC2 noise model,
block traces, and background macrobenchmark mixes."""

from repro.workloads.ec2 import Ec2NoiseModel
from repro.workloads.keydist import UniformKeys
from repro.workloads.noise import NoiseInjector
from repro.workloads.ycsb import YcsbClient, run_ycsb

__all__ = ["Ec2NoiseModel", "UniformKeys", "NoiseInjector", "YcsbClient",
           "run_ycsb"]
