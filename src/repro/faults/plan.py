"""Fault plans: scheduled, seed-derived fault events.

A :class:`FaultPlan` is data, not behavior -- a sorted list of
:class:`FaultEvent` objects that :class:`~repro.faults.controller.ChaosController`
executes on the virtual clock.  Plans are either hand-written (targeted
tests) or generated from a seed (:meth:`FaultPlan.generate`), which is
what makes chaos results replayable: the same seed always yields the same
schedule, and the simulation is deterministic under it.
"""

from repro.common.errors import SimulationError
from repro.common.rng import make_rng

#: Fault kinds understood by the controller.
CRASH_RESTART = "crash-restart"
PARTITION = "partition"
SLOW_LINK = "slow-link"
LOSSY_LINK = "lossy-link"
DISK_STALL = "disk-stall"

#: Worker fault kinds.  Deliberately excludes :data:`CONTROL_KINDS`:
#: adding a kind here would change the RNG draws of every existing seeded
#: plan, so control-plane faults are opt-in via an explicit ``kinds=``.
ALL_KINDS = (CRASH_RESTART, PARTITION, SLOW_LINK, LOSSY_LINK, DISK_STALL)

#: Control-plane faults.  ``control-crash`` kills the control *service* on
#: one replica (the machine keeps serving the data plane);
#: ``control-partition`` isolates the replica's machine from the rest of
#: the cluster.  Both target control-group member machines by name.
CONTROL_CRASH = "control-crash"
CONTROL_PARTITION = "control-partition"
CONTROL_KINDS = (CONTROL_CRASH, CONTROL_PARTITION)

KNOWN_KINDS = ALL_KINDS + CONTROL_KINDS


class FaultEvent:
    """One fault: inject at ``time``, revert ``duration`` seconds later.

    ``targets`` is a list of machine names; ``params`` carries
    kind-specific knobs (``wipe`` for crash-restart, ``scale`` for
    slow-link / disk-stall, ``probability`` for lossy-link).
    """

    __slots__ = ("time", "kind", "targets", "duration", "params")

    def __init__(self, time, kind, targets, duration, params=None):
        if kind not in KNOWN_KINDS:
            raise SimulationError(f"unknown fault kind {kind!r}")
        if time < 0:
            raise SimulationError(f"fault time must be >= 0, got {time}")
        if duration <= 0:
            raise SimulationError(f"fault duration must be > 0, got {duration}")
        self.time = float(time)
        self.kind = kind
        self.targets = list(targets)
        self.duration = float(duration)
        self.params = dict(params or {})

    def to_dict(self):
        """The event as a JSON-safe dict (artifact files, CI uploads)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "targets": list(self.targets),
            "duration": self.duration,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, mapping):
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            mapping["time"],
            mapping["kind"],
            mapping["targets"],
            mapping["duration"],
            mapping.get("params"),
        )

    def __repr__(self):
        return (
            f"<FaultEvent t={self.time:.2f}s {self.kind} {self.targets} "
            f"for {self.duration:.2f}s {self.params}>"
        )


class FaultPlan:
    """An ordered schedule of fault events plus the seed that made it."""

    def __init__(self, events, seed=0):
        self.events = sorted(events, key=lambda e: e.time)
        self.seed = seed

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    @property
    def kinds(self):
        """Distinct fault kinds in schedule order."""
        seen = {}
        for event in self.events:
            seen.setdefault(event.kind, None)
        return list(seen)

    @property
    def horizon(self):
        """Time at which the last fault has been reverted."""
        if not self.events:
            return 0.0
        return max(e.time + e.duration for e in self.events)

    def validate(self, machine_names=None, coordinator_host=None, control_members=None):
        """Check targets against the cluster layout.

        Worker-kind events assume worker semantics -- ports down, disks
        wiped, partitions -- which kill the observer when aimed at the
        unreplicated coordinator's host (the failure detector's vantage
        machine), so such events are *rejected*; control-plane faults need
        a control group and the :data:`CONTROL_KINDS`.

        With ``control_members`` (the quorum control group's machine
        names), :data:`CONTROL_KINDS` events must target members, and any
        instant at which overlapping faults take down a *majority* of the
        group rejects the whole plan: a minority-failure sweep that
        silently lost its quorum would report vacuous invariant passes.
        Returns the plan for chaining; raises :class:`SimulationError`.
        """
        known = set(machine_names) if machine_names is not None else None
        members = list(control_members) if control_members is not None else None
        for event in self.events:
            if event.kind in CONTROL_KINDS:
                if members is None:
                    raise SimulationError(
                        f"{event!r}: {event.kind!r} requires control_members "
                        f"(the plan targets a quorum control plane)"
                    )
                for target in event.targets:
                    if target not in members:
                        raise SimulationError(
                            f"{event!r}: {event.kind!r} targets {target!r}, "
                            f"which is not a control-group member "
                            f"{sorted(members)}"
                        )
                continue
            for target in event.targets:
                if coordinator_host is not None and target == coordinator_host:
                    raise SimulationError(
                        f"{event!r}: worker fault {event.kind!r} targets the "
                        f"coordinator host {coordinator_host!r}; control-"
                        f"plane faults need a control group and the "
                        f"{CONTROL_KINDS!r} kinds"
                    )
                if known is not None and target not in known:
                    raise SimulationError(
                        f"{event!r}: unknown target machine {target!r}"
                    )
        if members is not None:
            self._check_minority(members)
        return self

    def _check_minority(self, members):
        """Reject any instant at which faults down a control majority.

        Counts every fault that can silence a member's vote: the control
        kinds, plus worker crash-restart/partition events that happen to
        hit a member's machine.  Events are intervals; at each event start
        the union of members under any overlapping fault must stay a
        strict minority.
        """
        member_set = set(members)
        majority = len(members) // 2 + 1
        silencing = (CONTROL_CRASH, CONTROL_PARTITION, CRASH_RESTART, PARTITION)
        intervals = [
            (event.time, event.time + event.duration, hit, event)
            for event in self.events
            if event.kind in silencing
            for hit in [member_set.intersection(event.targets)]
            if hit
        ]
        for start, _, _, event in intervals:
            down = set()
            for other_start, other_end, hit, _ in intervals:
                if other_start <= start < other_end:
                    down.update(hit)
            if len(down) >= majority:
                raise SimulationError(
                    f"{event!r}: faults overlapping at t={start:.2f}s take "
                    f"down {sorted(down)} -- a majority of the "
                    f"{len(members)}-member control group.  Minority-failure "
                    f"sweeps must leave a quorum alive."
                )

    def to_dict(self):
        """The plan as a JSON-safe dict (artifact files, CI uploads)."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, mapping):
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            [FaultEvent.from_dict(e) for e in mapping["events"]],
            seed=mapping.get("seed", 0),
        )

    @classmethod
    def generate(
        cls,
        seed,
        machine_names,
        count=4,
        start=3.0,
        min_gap=1.5,
        max_gap=2.5,
        min_duration=1.0,
        max_duration=2.5,
        kinds=ALL_KINDS,
        protect=(),
        control_members=(),
    ):
        """Derive a strictly sequential fault schedule from ``seed``.

        Faults never overlap: each event starts after the previous one has
        been fully reverted plus a healing gap, so the system always gets a
        window to converge.  Machines in ``protect`` (e.g. the
        coordinator's home) are never targeted.  Control-kind events remap
        the drawn worker target deterministically onto ``control_members``
        so the RNG stream stays aligned with worker-only plans.
        """
        eligible = [name for name in machine_names if name not in set(protect)]
        if not eligible:
            raise SimulationError("fault plan with no eligible target machines")
        if any(kind in CONTROL_KINDS for kind in kinds) and not control_members:
            raise SimulationError(
                "control fault kinds require control_members to target"
            )
        rng = make_rng(seed, "fault-plan")
        events = []
        clock = float(start)
        for _ in range(count):
            kind = rng.choice(list(kinds))
            target = rng.choice(eligible)
            duration = rng.uniform(min_duration, max_duration)
            if kind in CONTROL_KINDS:
                # Map the drawn worker onto a control member: the draw
                # itself is kept so adding control kinds never perturbs
                # the schedule of the other kinds.
                members = list(control_members)
                target = members[eligible.index(target) % len(members)]
            params = {}
            if kind == CRASH_RESTART:
                params["wipe"] = rng.random() < 0.3
            elif kind == SLOW_LINK:
                params["scale"] = rng.uniform(0.05, 0.25)
            elif kind == LOSSY_LINK:
                params["probability"] = rng.uniform(0.05, 0.3)
            elif kind == DISK_STALL:
                params["scale"] = 0.0
            events.append(FaultEvent(clock, kind, [target], duration, params))
            clock += duration + rng.uniform(min_gap, max_gap)
        return cls(events, seed=seed)

    def __repr__(self):
        return f"<FaultPlan seed={self.seed} events={len(self.events)}>"
