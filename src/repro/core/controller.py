"""Automatic reconfiguration decisions (the paper's Dhalion/DS2 role).

Rhino is a *mechanism*: "based on a human or automatic decision-maker
(e.g., Dhalion, DS2), our HM starts a reconfiguration" (§3.3).  This
module supplies a simple automatic decision-maker so the library is
usable end-to-end without an operator in the loop:

* :class:`LoadBalanceController` watches per-instance processing rates
  and triggers a virtual-node rebalance from the hottest to the coldest
  instance when the skew ratio exceeds a threshold (§3.5.1).
* :class:`FailureController` subscribes to machine failures and triggers
  ``Rhino.reconfigure("failure", ...)`` automatically (§3.5.3).
"""

from repro.common.errors import ProtocolError


class LoadBalanceController:
    """Triggers rebalances when per-instance load skews.

    Samples each stateful instance's processed-record rate every
    ``interval`` seconds; when ``max_rate > skew_threshold * min_rate``
    (and the hot instance has more than one virtual node's worth of key
    groups), it asks Rhino to move half the hot instance's virtual nodes
    to the cold one.  A cooldown prevents oscillation.
    """

    def __init__(
        self,
        rhino,
        op_name,
        interval=30.0,
        skew_threshold=2.0,
        cooldown=120.0,
        min_rate=1.0,
    ):
        if skew_threshold <= 1.0:
            raise ProtocolError("skew threshold must exceed 1.0")
        self.rhino = rhino
        self.job = rhino.job
        self.sim = rhino.sim
        self.op_name = op_name
        self.interval = interval
        self.skew_threshold = skew_threshold
        self.cooldown = cooldown
        self.min_rate = min_rate
        self.decisions = []  # (time, origin_index, target_index, ratio)
        self._last_counts = {}
        self._last_action = float("-inf")
        self._process = None

    def start(self):
        """Start the background process; returns it."""
        self._process = self.sim.process(self._run(), name=f"lb-controller:{self.op_name}")
        return self._process

    def stop(self):
        """Stop the background process (no-op if not running)."""
        if self._process is not None and self._process.is_alive:
            self._process.defused = True
            self._process.interrupt("controller-stop")
        self._process = None

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            decision = self._decide()
            if decision is None:
                continue
            origin_index, target_index, ratio = decision
            self.decisions.append((self.sim.now, origin_index, target_index, ratio))
            self._last_action = self.sim.now
            handover = self.rhino.reconfigure(
                "rebalance",
                op_name=self.op_name,
                moves=[(origin_index, target_index)],
            )
            handover.defused = True
            yield handover

    def _decide(self):
        """Pick (origin, target, ratio) or None if balanced/cooling down."""
        if self.sim.now - self._last_action < self.cooldown:
            return None
        rates = self._sample_rates()
        if len(rates) < 2:
            return None
        hottest = max(rates, key=rates.get)
        coldest = min(rates, key=rates.get)
        hot_rate = rates[hottest]
        cold_rate = max(rates[coldest], self.min_rate)
        if hot_rate < self.min_rate:
            return None
        ratio = hot_rate / cold_rate
        if ratio < self.skew_threshold:
            return None
        # Only move if the hot instance has something to give.
        assignment = self.job.assignments[self.op_name]
        if assignment.ranges_of(hottest).span() < 2:
            return None
        return hottest, coldest, ratio

    def _sample_rates(self):
        rates = {}
        for instance in self.job.stateful_instances(self.op_name):
            if not instance.machine.alive:
                continue
            count = instance.weighted_records_processed
            previous = self._last_counts.get(instance.instance_id, 0)
            rates[instance.index] = (count - previous) / self.interval
            self._last_counts[instance.instance_id] = count
        return rates


class FailureController:
    """Automatic fault tolerance: recover every machine failure (§3.5.3)."""

    def __init__(self, rhino):
        self.rhino = rhino
        self.job = rhino.job
        self.recoveries = []  # (time, machine_name, Process)
        self._attached = False

    def attach(self):
        """Register with the host job; returns self for chaining."""
        if self._attached:
            return self
        self._attached = True
        self.job.failure_listeners.append(self._on_failure)
        return self

    def _on_failure(self, machine):
        # Hosted neither instances nor replicas: nothing to do.
        hosted = any(
            i.machine is machine for i in self.job.all_instances()
        ) or self.rhino.replication_manager.replicas_on(machine)
        if not hosted:
            return
        recovery = self.rhino.reconfigure("failure", machine=machine)
        recovery.defused = True
        self.recoveries.append((self.job.sim.now, machine.name, recovery))
