"""MittCache — buffer-cache awareness in front of the IO layer (§4.4).

MittCache is deliberately thin: the buffer cache and page tables are exact,
so there is no prediction problem — only *propagation*:

* ``read(..., deadline)`` on a cache miss forwards the deadline to the
  underlying IO predictor; if no IO predictor exists (or the deadline is
  smaller than the fastest possible device IO — the user expected a memory
  hit), EBUSY comes back immediately;
* ``addrcheck()`` walks the residency map before an mmap dereference.

This class composes over an optional IO-layer predictor so a node can run
MittCache alone (memory-expectation workloads) or MittCache + MittCFQ /
MittSSD stacked (the §7.8.5 all-in-one deployment).
"""

from repro.kernel.syscall import NO_MODEL_MIN_IO_US
from repro.mittos.predictor import Predictor


class MittCache(Predictor):
    """Cache-level SLO guard, optionally stacked on an IO predictor."""

    name = "mittcache"

    def __init__(self, io_predictor=None, **kwargs):
        super().__init__(**kwargs)
        self.io_predictor = io_predictor

    def attach(self, os):
        super().attach(os)
        if os.cache is None:
            raise RuntimeError("MittCache requires an OS with a page cache")
        if self.io_predictor is not None:
            # The stacked predictor shares the OS and its scheduler hooks.
            self.io_predictor.attach(os)

    # The OS only consults the predictor on cache *misses*, so admit() here
    # decides the fate of an IO that must touch the device.
    def admit(self, req, deadline, probe_only=False):
        if self.io_predictor is not None:
            return self.io_predictor.admit(req, deadline,
                                           probe_only=probe_only)
        return super().admit(req, deadline, probe_only=probe_only)

    def _estimate(self, req):
        return 0.0, self.min_io_latency(req.size)

    def min_io_latency(self, size):
        # Only a lone MittCache estimates (a stacked IO predictor admits
        # instead): any deadline below the fastest possible device IO
        # means "I expected memory".
        return NO_MODEL_MIN_IO_US
