"""The chaos controller: executes a fault plan on the virtual clock.

The controller is a single simulation process that walks the plan's
events in time order: at each event it injects the fault, holds it for
the event's duration, then reverts it -- crash-restart brings the machine
back (optionally with wiped disks), partitions heal, degraded links and
stalled disks recover.  Every injection and reversion emits a ``chaos.*``
trace span/event, so fault windows line up with protocol spans on the
same timeline.

Faults are strictly sequential by construction
(:meth:`FaultPlan.generate`), so when the controller finishes, *no* fault
is still active -- which is what lets the invariant harness demand full
convergence afterwards.
"""

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.faults.plan import (
    CRASH_RESTART,
    PARTITION,
    SLOW_LINK,
    LOSSY_LINK,
    DISK_STALL,
    CONTROL_CRASH,
    CONTROL_PARTITION,
)


class ChaosController:
    """Executes one :class:`FaultPlan` against a cluster.

    ``control_group`` is the :class:`~repro.core.quorum.ControlGroup`
    required to execute ``control-crash`` / ``control-partition`` events;
    a plan containing one fails loudly without it instead of silently
    no-opping.
    """

    def __init__(self, sim, cluster, plan, control_group=None):
        self.sim = sim
        self.cluster = cluster
        self.plan = plan
        self.control_group = control_group
        #: (time, kind, targets, phase) tuples, phase in {"inject", "revert"}.
        self.log = []
        #: Fault kinds currently held open (empty once the plan completed).
        self.active = {}
        self._process = None
        # One derived loss stream per plan seed: installing it is free for
        # runs whose ports never carry a loss probability.
        if cluster.scheduler.loss_rng is None:
            cluster.scheduler.loss_rng = make_rng(plan.seed, "chaos-loss")

    def start(self):
        """Spawn the controller process; returns it."""
        if self._process is not None:
            raise SimulationError("chaos controller already started")
        self._process = self.sim.process(self._run(), name="chaos-controller")
        return self._process

    @property
    def done(self):
        """True once every event has been injected and reverted."""
        return self._process is not None and not self._process.is_alive

    def _run(self):
        tracer = self.sim.tracer
        for index, event in enumerate(self.plan):
            if event.time > self.sim.now:
                yield self.sim.timeout(event.time - self.sim.now)
            span = tracer.span(
                f"chaos.{event.kind}",
                track="chaos",
                targets=",".join(event.targets),
                **{k: v for k, v in event.params.items()},
            )
            self._inject(event)
            self._note(event, "inject")
            self.active[index] = event
            yield self.sim.timeout(event.duration)
            self._revert(event)
            self._note(event, "revert")
            del self.active[index]
            span.finish()

    def _require_group(self, event):
        if self.control_group is None:
            raise SimulationError(
                f"{event.kind} fault without a control_group: pass "
                "ChaosController(..., control_group=rhino.enable_control_group(...))"
            )
        return self.control_group

    def _machines(self, event):
        return [self.cluster.machines[name] for name in event.targets]

    def _inject(self, event):
        if event.kind in (CONTROL_CRASH, CONTROL_PARTITION):
            group = self._require_group(event)
            if event.kind == CONTROL_CRASH:
                for name in event.targets:
                    group.crash_member(name)
            else:
                # Isolate the member machines from the rest of the cluster:
                # their votes (and any leader lease held there) go dark.
                self.cluster.partition([self._machines(event)])
            return
        machines = self._machines(event)
        if event.kind == CRASH_RESTART:
            for machine in machines:
                self.cluster.kill(machine)
        elif event.kind == PARTITION:
            # Isolate the targets from the rest of the cluster.
            self.cluster.partition([machines])
        elif event.kind == SLOW_LINK:
            self.cluster.slow_link(*machines, scale=event.params.get("scale", 0.1))
        elif event.kind == LOSSY_LINK:
            self.cluster.lossy_link(
                *machines, probability=event.params.get("probability", 0.1)
            )
        elif event.kind == DISK_STALL:
            for machine in machines:
                self.cluster.stall_disk(machine, scale=event.params.get("scale", 0.0))

    def _revert(self, event):
        if event.kind in (CONTROL_CRASH, CONTROL_PARTITION):
            group = self._require_group(event)
            if event.kind == CONTROL_CRASH:
                for name in event.targets:
                    group.restart_member(name)
            else:
                self.cluster.heal()
            return
        machines = self._machines(event)
        if event.kind == CRASH_RESTART:
            for machine in machines:
                self.cluster.restart(
                    machine, wipe_disks=event.params.get("wipe", False)
                )
        elif event.kind == PARTITION:
            self.cluster.heal()
        elif event.kind in (SLOW_LINK, LOSSY_LINK):
            self.cluster.heal_link(*machines)
        elif event.kind == DISK_STALL:
            for machine in machines:
                self.cluster.heal_disk(machine)

    def _note(self, event, phase):
        self.log.append((self.sim.now, event.kind, tuple(event.targets), phase))
        if self.sim.tracer.enabled:
            self.sim.tracer.event(
                f"chaos.{phase}",
                track="chaos",
                kind=event.kind,
                targets=",".join(event.targets),
            )
