"""The Replication Manager: replica-group placement via bin packing.

Runs on the coordinator (§3.3).  For every stateful instance it builds a
*replica group*: a chain of ``r`` distinct workers (excluding the
instance's own) that will hold the secondary copies of its state.  The
placement is a first-fit-decreasing bin packing on expected state bytes so
replica load spreads evenly across the cluster -- the paper assumes equal
worker capacities and uses all workers (§4.2 phase 2).  Once placed, a
chain changes only when a member is lost or a recovery moves the primary
onto a member's machine (:meth:`repair_after_failure`).
"""

from repro.common.errors import ProtocolError


class ReplicaGroup:
    """The replication chain of one stateful instance."""

    __slots__ = ("instance_id", "chain")

    def __init__(self, instance_id, chain):
        self.instance_id = instance_id
        self.chain = list(chain)

    def __repr__(self):
        nodes = " -> ".join(m.name for m in self.chain)
        return f"<ReplicaGroup {self.instance_id}: {nodes}>"


class ReplicationManager:
    """Builds and repairs replica groups."""

    def __init__(self, workers, replication_factor=1):
        if replication_factor < 1:
            raise ProtocolError("replication factor must be >= 1")
        self.workers = list(workers)
        self.replication_factor = replication_factor
        self.groups = {}  # instance_id -> ReplicaGroup

    def build_groups(self, instances, state_bytes=None):
        """Assign a replica group to every instance that lacks one.

        ``instances`` is a list of (instance_id, primary_machine);
        ``state_bytes`` optionally maps instance_id to expected state size
        (defaults to equal sizes).  A listed instance keeps its group (a
        re-pack would strand its members' holdings); unlisted ones lose
        theirs.  The rest are bin-packed first-fit decreasing around the
        kept ones: heaviest first, each on the ``r`` least-loaded workers.
        """
        state_bytes = state_bytes or {}
        primaries = dict(instances)
        self.groups = {i: g for i, g in self.groups.items() if i in primaries}
        load = {worker: 0 for worker in self.workers if worker.alive}
        spread = {}  # (primary, worker) -> co-located replica count
        fresh = sorted(
            (item for item in instances if item[0] not in self.groups),
            key=lambda item: state_bytes.get(item[0], 1),
            reverse=True,
        )
        for instance_id, primary in [
            (i, primaries[i]) for i in self.groups
        ] + fresh:
            group = self.groups.get(instance_id)
            chain = group.chain if group else self._pick_chain(primary, load, spread)
            for worker in chain:
                if worker in load:
                    load[worker] += state_bytes.get(instance_id, 1)
                spread[(primary, worker)] = spread.get((primary, worker), 0) + 1
            self.groups[instance_id] = group or ReplicaGroup(instance_id, chain)
        return self.groups

    def _pick_chain(self, primary, load, spread=None):
        eligible = [w for w in load if w is not primary and w.alive]
        if len(eligible) < self.replication_factor:
            raise ProtocolError(
                f"not enough workers for replication factor "
                f"{self.replication_factor}"
            )
        spread = spread or {}
        # Anti-affinity first: instances sharing a primary go to distinct
        # replica workers, so one worker failure recovers in parallel on
        # many targets instead of funneling into a single NIC.
        eligible.sort(
            key=lambda w: (spread.get((primary, w), 0), load[w], w.name)
        )
        return eligible[: self.replication_factor]

    def group_of(self, instance_id):
        """The replica group of an instance, or ProtocolError."""
        group = self.groups.get(instance_id)
        if group is None:
            raise ProtocolError(f"no replica group for {instance_id}")
        return group

    def replicas_on(self, worker):
        """Instance ids whose state is replicated on ``worker``."""
        return [
            group.instance_id
            for group in self.groups.values()
            if worker in group.chain
        ]

    def repair_after_failure(self, failed_worker, primaries):
        """Replace ``failed_worker`` in every chain it belongs to, and every
        member that is now its group's own primary machine (a recovery
        moves a primary onto its replica's machine).

        ``primaries`` maps instance_id to its (current) primary machine.
        Returns the list of (instance_id, replacement_worker) repairs --
        each needs a bulk copy of the state, which the replication runtime
        performs.
        """
        repairs = []
        load = {worker: 0 for worker in self.workers if worker.alive}
        for group in self.groups.values():
            for worker in group.chain:
                if worker.alive:
                    load[worker] = load.get(worker, 0) + 1
        for group in self.groups.values():
            primary = primaries.get(group.instance_id)
            for lost in [w for w in group.chain if w in (failed_worker, primary)]:
                occupied = set(group.chain) | {primary}
                candidates = [w for w in load if w.alive and w not in occupied]
                if not candidates:
                    raise ProtocolError(
                        f"no replacement worker for group of {group.instance_id}"
                    )
                candidates.sort(key=lambda w: (load[w], w.name))
                replacement = candidates[0]
                load[replacement] += 1
                group.chain[group.chain.index(lost)] = replacement
                repairs.append((group.instance_id, replacement))
        return repairs
