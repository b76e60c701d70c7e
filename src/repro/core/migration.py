"""Handover plans: what moves where, and why.

A plan names an origin instance, a target instance (existing, spawned, or
a replacement for a failed one), and the virtual-node ranges to migrate.
§3.5's three scenarios map onto plan reasons:

* ``FAILURE`` -- all virtual nodes of the failed instance move to a worker
  holding its replica; state comes from the replica store, records since
  the last checkpoint replay from upstream backup.
* ``RESCALE`` -- some virtual nodes of a running instance move to a newly
  spawned instance (vertical: an in-use worker with a state copy;
  horizontal: a new worker after a bulk copy).
* ``REBALANCE`` -- some virtual nodes move between two existing instances.
"""

from repro.common.errors import ProtocolError
from repro.engine.partitioning import virtual_nodes

FAILURE = "failure"
RESCALE = "rescale"
REBALANCE = "rebalance"


class HandoverPlan:
    """One origin-to-target migration of a set of virtual nodes."""

    def __init__(
        self,
        op_name,
        origin_index,
        target_index,
        vnodes,
        reason,
        target_machine=None,
    ):
        if not vnodes:
            raise ProtocolError("handover plan with no virtual nodes")
        self.op_name = op_name
        self.origin_index = origin_index
        self.target_index = target_index
        self.vnodes = [(lo, hi) for lo, hi in vnodes]
        self.reason = reason
        self.target_machine = target_machine

    @property
    def spawn_target(self):
        """True when the target is a new instance (rescale and drain)."""
        return self.reason == RESCALE

    @property
    def replace_origin(self):
        """True when the target replaces a failed origin."""
        return self.reason == FAILURE

    @property
    def moved_groups(self):
        """Number of key groups this plan migrates."""
        return sum(hi - lo for lo, hi in self.vnodes)

    def trace_tags(self, **extra):
        """The plan as span tags (kind, endpoints, moved key groups)."""
        tags = {
            "kind": self.reason,
            "op": self.op_name,
            "origin": self.origin_index,
            "target": self.target_index,
            "groups": self.moved_groups,
        }
        tags.update(extra)
        return tags

    def __repr__(self):
        return (
            f"<HandoverPlan {self.reason}: {self.op_name}[{self.origin_index}]"
            f" -> [{self.target_index}] vnodes={self.vnodes}>"
        )


def plan_failure_recovery(job, rhino, op_name, failed_index):
    """All virtual nodes of the failed instance move to a replica worker."""
    instance_id = f"{op_name}[{failed_index}]"
    group = rhino.replication_manager.group_of(instance_id)
    # Prefer an alive chain member the job's checkpoint storage says holds
    # the state: after gray failures (wiped restarts, interrupted repairs)
    # some members may be alive but behind, and restoring needs the state.
    target_machine = next(
        (
            m
            for m in group.chain
            if m.alive and job.checkpoint_storage.holds(m, instance_id)
        ),
        None,
    )
    if target_machine is None:
        target_machine = next((m for m in group.chain if m.alive), None)
    if target_machine is None:
        raise ProtocolError(f"replica group of {instance_id} has no alive worker")
    ranges = job.assignments[op_name].ranges_of(failed_index)
    return HandoverPlan(
        op_name,
        failed_index,
        failed_index,  # the replacement keeps the index
        list(ranges),
        FAILURE,
        target_machine=target_machine,
    )


def plan_rescale(job, rhino, op_name, origin_index, new_index, target_machine, share=0.5):
    """Move ~``share`` of the origin's virtual nodes to a new instance."""
    ranges = list(job.assignments[op_name].ranges_of(origin_index))
    nodes = _vnodes_of_ranges(ranges, job.config.virtual_node_count)
    moved = nodes[: max(1, int(len(nodes) * share))]
    return HandoverPlan(
        op_name,
        origin_index,
        new_index,
        moved,
        RESCALE,
        target_machine=target_machine,
    )


def plan_rebalance(job, rhino, op_name, origin_index, target_index, node_count=None):
    """Move ``node_count`` virtual nodes between two existing instances."""
    ranges = list(job.assignments[op_name].ranges_of(origin_index))
    nodes = _vnodes_of_ranges(ranges, job.config.virtual_node_count)
    if node_count is None:
        node_count = max(1, len(nodes) // 2)
    target = job.instance(op_name, target_index)
    return HandoverPlan(
        op_name,
        origin_index,
        target_index,
        nodes[:node_count],
        REBALANCE,
        target_machine=target.machine,
    )


def _vnodes_of_ranges(ranges, count_per_range):
    nodes = []
    for lo, hi in ranges:
        nodes.extend(virtual_nodes(lo, hi, count_per_range))
    return nodes
