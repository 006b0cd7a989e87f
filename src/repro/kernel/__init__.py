"""The simulated OS storage stack: IO schedulers, page cache, syscalls."""

from repro.kernel.cache import PageCache
from repro.kernel.cfq import CfqScheduler
from repro.kernel.flashcache import FlashCache
from repro.kernel.noop import NoopScheduler
from repro.kernel.scheduler import IOScheduler
from repro.kernel.syscall import OS, ReadResult
from repro.kernel.tiered import TieredStack

__all__ = ["IOScheduler", "NoopScheduler", "CfqScheduler", "PageCache",
           "FlashCache", "TieredStack", "OS", "ReadResult"]
