"""Adaptive checkpoint scheduling (the paper's future work, §5.6).

The paper notes that Rhino's replication runtime would become a bottleneck
"if an incremental checkpoint to migrate is large, e.g., above 50 GB per
instance" and suggests adaptive checkpoint scheduling as the remedy.  This
module implements that extension: the scheduler watches the delta size of
every completed checkpoint and adjusts the coordinator's interval so
deltas stay near a target -- frequent checkpoints under heavy write load
(small deltas, smooth replication), sparse checkpoints when the state is
quiet (less barrier overhead).
"""

from repro.common.errors import ProtocolError


class AdaptiveCheckpointScheduler:
    """Keeps incremental-checkpoint deltas near ``target_delta_bytes``.

    Attach to a job whose coordinator runs periodic checkpoints::

        scheduler = AdaptiveCheckpointScheduler(job, target_delta_bytes=4 * GB)
        scheduler.attach()

    After every completed checkpoint the scheduler compares the largest
    per-instance delta against the target and scales the coordinator's
    interval multiplicatively, clamped to [min_interval, max_interval].
    """

    def __init__(
        self,
        job,
        target_delta_bytes,
        min_interval=10.0,
        max_interval=600.0,
        shrink_factor=0.5,
        grow_factor=1.25,
        low_watermark=0.25,
    ):
        if target_delta_bytes <= 0:
            raise ProtocolError("target delta must be positive")
        if not 0 < shrink_factor < 1 < grow_factor:
            raise ProtocolError("need shrink < 1 < grow")
        if min_interval <= 0 or max_interval < min_interval:
            raise ProtocolError("invalid interval bounds")
        self.job = job
        self.target_delta_bytes = target_delta_bytes
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.shrink_factor = shrink_factor
        self.grow_factor = grow_factor
        self.low_watermark = low_watermark
        self.adjustments = []  # (time, old_interval, new_interval, max_delta)
        self._attached = False

    def attach(self):
        """Register with the host job; returns self for chaining."""
        if self._attached:
            return self
        coordinator = self.job.coordinator
        if coordinator.interval is None or coordinator.interval <= 0:
            raise ProtocolError("adaptive scheduling needs periodic checkpoints")
        coordinator.checkpoint_listeners.append(self.on_checkpoint_complete)
        self._attached = True
        return self

    def on_checkpoint_complete(self, record):
        """Coordinator listener: adjust the interval from the observed deltas."""
        deltas = [c.delta_bytes for c in record.checkpoints.values()]
        if not deltas:
            return
        max_delta = max(deltas)
        coordinator = self.job.coordinator
        old = coordinator.interval
        new = old
        if max_delta > self.target_delta_bytes:
            new = max(self.min_interval, old * self.shrink_factor)
        elif max_delta < self.target_delta_bytes * self.low_watermark:
            new = min(self.max_interval, old * self.grow_factor)
        if new != old:
            coordinator.interval = new
            self.adjustments.append((self.job.sim.now, old, new, max_delta))
