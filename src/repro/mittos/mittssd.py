"""MittSSD — per-chip wait prediction for OpenChannel SSDs (§4.3).

Neither MittNoop nor MittCFQ transfers to SSDs: there is no seek cost, and
the contended resources are the parallel chips and channels, so a single
block-level queue model is plain wrong ("ten IOs going to ten separate
channels do not create queueing delays").  With host-managed flash the OS
owns the FTL and sees every chip command, so MittSSD keeps

* ``T_chipNextFree`` per chip — advanced by the spec-model time of every
  command issued (page read 100 µs, program 1/2 ms by page pattern, erase
  6 ms) and resynchronised to the drain time whenever a chip drains
  (per-command completions are host-visible on OpenChannel devices; the
  device settles them lazily, so each carries its completion time), and
* an outstanding-IO count per channel, each contributing the 60 µs channel
  queueing delay.

The wait check is O(1) per page:

    T_wait = max(0, T_chipNextFree - now) + 60 µs * #IO_sameChannel

A request striped over several chips is rejected whole if *any* sub-page
violates the deadline — no sub-pages are submitted (§4.3).

``mode="naive"`` ablates the precision: it keeps the per-chip horizons but
drops the channel term from the estimate and assumes 1.5 ms for every
program (no upper/lower page knowledge) — fig9's ``naive%`` column.
"""

from repro.mittos.predictor import Predictor


class MittSsd(Predictor):
    """SLO admission for the simulated OpenChannel SSD."""

    name = "mittssd"

    def __init__(self, ssd, model, mode="precise", **kwargs):
        if mode not in ("precise", "naive"):
            raise ValueError(f"unknown prediction mode: {mode}")
        super().__init__(**kwargs)
        self.ssd = ssd
        #: :class:`~repro.devices.ssd_profile.SsdLatencyModel` constants.
        self.model = model
        self.mode = mode
        geo = ssd.geometry
        self._chip_next_free = [0.0] * geo.n_chips
        self._chip_outstanding = [0] * geo.n_chips
        self._channel_next_free = [0.0] * geo.n_channels
        self._channel_outstanding = [0] * geo.n_channels
        ssd.add_op_observer(self._on_chip_op)

    # -- host-visible chip command stream ------------------------------------
    def _on_chip_op(self, kind, chip_index, us, op_kind="read"):
        """One host-visible chip command: ``us`` is its spec duration on
        "enqueue" and the time the chip finished it on "complete"."""
        geo = self.ssd.geometry
        channel = geo.chip_channel(chip_index)
        if kind == "complete":
            self._chip_outstanding[chip_index] -= 1
            self._channel_outstanding[channel] -= 1
            if self._chip_outstanding[chip_index] == 0:
                # Chip drained: resync the horizon, killing model drift.
                self._chip_next_free[chip_index] = us
            if self._channel_outstanding[channel] == 0:
                self._channel_next_free[channel] = us
            return
        now = self.sim.now
        model_duration = us
        if self.mode == "naive" and op_kind == "program":
            # Ablation (§4.3 accuracy): no upper/lower page knowledge —
            # assume the average program time for every page.
            model_duration = 1500.0
        # Replay the device timing with spec constants: the channel is
        # held only for the transfer (after reads, before programs, never
        # for erases) — same model as the hardware.
        xfer = self.model.channel_xfer_us
        cell = max(0.0, model_duration - xfer)
        chip_free = self._chip_next_free[chip_index]
        chan_free = self._channel_next_free[channel]
        if op_kind == "read":
            xfer_start = max(max(chip_free, now) + cell, chan_free)
            finish = xfer_start + xfer
            self._channel_next_free[channel] = finish
        elif op_kind == "program":
            xfer_start = max(now, chan_free)
            self._channel_next_free[channel] = xfer_start + xfer
            finish = max(chip_free, xfer_start + xfer) + cell
        else:  # erase / gc
            finish = max(chip_free, now) + model_duration
        self._chip_next_free[chip_index] = finish
        self._chip_outstanding[chip_index] += 1
        self._channel_outstanding[channel] += 1

    # -- estimation ----------------------------------------------------------
    def _sub_ops(self, req):
        """(chip, spec_duration) of each page sub-IO the request becomes."""
        from repro.devices.request import IoOp
        lpns = self.ssd.pages_of(req.offset, req.size)
        if req.op is IoOp.READ:
            return [(self.ssd.read_chip_of(lpn), self.model.page_read_us)
                    for lpn in lpns]
        placement = self.ssd.predict_write_placement(len(lpns))
        if self.mode == "naive":
            return [(chip, 1500.0) for chip, _ in placement]
        return placement

    def _estimate(self, req):
        self.ssd.settle()  # deliver completions the device owes the mirror
        ops = self._sub_ops(req)
        service = max(duration for _, duration in ops)
        if self.mode == "naive":
            # Ablation: chip horizons without channel serialization and
            # without the program pattern (mirror uses 1.5 ms everywhere).
            now = self.sim.now
            wait = max(max(0.0, self._chip_next_free[chip] - now)
                       for chip, _ in ops)
            return wait, service
        from repro.devices.request import IoOp
        now = self.sim.now
        geo = self.ssd.geometry
        xfer = self.model.channel_xfer_us
        is_read = req.op is IoOp.READ
        worst_finish = now
        for chip, duration in ops:
            channel = geo.chip_channel(chip)
            cell = max(0.0, duration - xfer)
            chip_free = self._chip_next_free[chip]
            chan_free = self._channel_next_free[channel]
            if is_read:
                finish = max(max(chip_free, now) + cell, chan_free) + xfer
            else:
                xfer_end = max(now, chan_free) + xfer
                finish = max(chip_free, xfer_end) + cell
            worst_finish = max(worst_finish, finish)
        wait = max(0.0, worst_finish - now - service)
        return wait, service
