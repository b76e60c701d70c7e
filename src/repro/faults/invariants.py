"""Post-run invariants every chaos run must satisfy.

A chaos run that merely *finishes* proves nothing; these checks assert the
system actually healed:

* **exactly-once** -- sink outputs equal the fault-free expectation;
* **replication restored** -- every replica chain again holds the
  configured number of copies on alive machines, each complete at its
  primary's latest checkpoint;
* **single owner** -- no key group is owned by two live instances of an
  operator (a committed or rolled-back handover hands ownership over);
* **no leaked processes** -- no protocol process (replication, handover,
  repair, recovery) is still alive after the run;
* **drained** -- no in-flight network/disk flows and no data-plane
  elements parked in the exchange fabric.

Each check raises :class:`InvariantViolation` with enough context to
replay the offending seed.
"""

from repro.common.errors import ReproError


class InvariantViolation(ReproError):
    """A chaos-run invariant does not hold."""


#: Process-name prefixes that must NOT survive a drained chaos run.
#: Periodic processes (monitors, instance main loops) run forever by
#: design and are exempt: a healthy pipeline emits watermarks until the
#: clock stops.
PROTOCOL_PROCESS_PREFIXES = (
    "replicate:",
    "bulk-copy",
    "handover",
    "rhino-",
    "chain-repair:",
    "dfs-",
    "chaos-controller",
    "failover",
    "journal-",
)


#: The sink the counter pipelines under test write to.
SINK_NAME = "out"


def final_counts(job):
    """Final per-key counter values observed at the sink."""
    finals = {}
    for key, _ts, value, _weight in job.sink_results(SINK_NAME):
        finals[key] = max(finals.get(key, 0), value)
    return finals


def check_exactly_once(job, expected):
    """Sink outputs equal the fault-free expectation (no loss, no dupes)."""
    actual = final_counts(job)
    if actual != expected:
        missing = {k: v for k, v in expected.items() if actual.get(k) != v}
        extra = {k: v for k, v in actual.items() if k not in expected}
        raise InvariantViolation(
            f"exactly-once violated at sink {SINK_NAME!r}: "
            f"wrong={missing} unexpected={extra}"
        )


def check_replication_restored(rhino):
    """Every replica chain holds complete copies on alive machines other
    than its primary's own.

    A member counts only when its holding is complete at its live
    primary's latest checkpoint (``ChainReplicator.is_current``, the rule
    a repair copy's source obeys too): a delta means nothing off its base.
    A primary that has taken no checkpoint yet is not checked: a chain's
    lineage starts at a checkpoint, and a failure recovery needs a
    completed checkpoint anyway.
    """
    factor = rhino.config.replication_factor
    for instance_id, group in sorted(rhino.replication_manager.groups.items()):
        chain = list(group.chain)
        if not chain:
            raise InvariantViolation(f"{instance_id}: empty replica chain")
        dead = [m.name for m in chain if not m.alive]
        if dead:
            raise InvariantViolation(
                f"{instance_id}: dead machines {dead} still in replica chain"
            )
        primary = rhino._live_primary(instance_id)
        if primary is None:
            raise InvariantViolation(f"{instance_id}: no live primary")
        if primary.machine in chain:
            raise InvariantViolation(
                f"{instance_id}: replica chain names its primary's machine "
                f"{primary.machine.name}"
            )
        if primary.state.store.last_checkpoint_id is None:
            continue
        complete = [
            m.name for m in chain if rhino.replicator.is_current(m, primary)
        ]
        required = min(factor, len(chain))
        if len(complete) < required:
            raise InvariantViolation(
                f"{instance_id}: only {len(complete)}/{required} complete "
                f"replicas (chain={[m.name for m in chain]}, "
                f"complete={complete})"
            )


def check_single_owner(job):
    """Each key group is owned by at most one live stateful instance of
    each operator."""
    for op_name in sorted(job.assignments):
        runs = sorted(
            (lo, hi, instance.instance_id)
            for instance in job.stateful_instances(op_name)
            if instance.machine.alive and instance.state.owned_ranges()
            for lo, hi in instance.state.owned_ranges()
        )
        for (_lo, end, first), (lo, hi, second) in zip(runs, runs[1:]):
            if lo < end:
                raise InvariantViolation(
                    f"{op_name}: key groups {lo}-{min(end, hi) - 1} owned by "
                    f"both {first} and {second}"
                )


def check_no_leaked_processes(sim):
    """No protocol process survived the run."""
    leaked = [
        p.name
        for p in sim.alive_processes()
        if p.name.startswith(PROTOCOL_PROCESS_PREFIXES)
    ]
    if leaked:
        raise InvariantViolation(f"leaked protocol processes: {leaked}")


def check_drained(sim, cluster, fabric=None):
    """No in-flight protocol flows; no records parked in the fabric.

    Data-exchange flows are exempt: watermark batches keep crossing the
    wire for as long as the simulation runs, so "no data-plane flow in
    flight" is unobservable -- record drain is what matters, and the
    fabric's ``pending_elements`` plus the exactly-once check cover it.
    """
    flows = [
        flow
        for flow in cluster.scheduler.active_flows()
        if flow[0] != "data-exchange"
    ]
    if flows:
        raise InvariantViolation(
            f"{len(flows)} flows still in flight: "
            f"{[(tag, round(rem)) for tag, rem, _rate in flows[:5]]}"
        )
    if fabric is not None and fabric.pending_elements:
        raise InvariantViolation(
            f"{fabric.pending_elements} elements parked in the exchange fabric"
        )


def check_control_plane_recovered(rhino):
    """After a leader loss, the control plane must be whole again.

    The new leader finished its takeover (not ``down``), every in-flight
    reconfiguration was resolved (committed or aborted -- none stranded),
    and the active coordinator is unfenced.  A no-op without a control
    group.
    """
    group = rhino.control_group
    if group is None:
        return
    if group.failover.down:
        raise InvariantViolation(
            "control plane still down: the takeover never completed"
        )
    stranded = sorted(rhino.handover_manager._inflight)
    if stranded:
        raise InvariantViolation(
            f"stranded in-flight reconfigurations after failover: {stranded}"
        )
    if rhino.job.coordinator._crashed:
        raise InvariantViolation("coordinator still fenced after failover")


def check_journal_linearizable(journal):
    """The control journal is a single linearizable history.

    * seqs are dense from 1 with nondecreasing times and epochs (a
      truncated suffix re-uses seqs but never reorders the survivors);
    * every record's CRC verifies (the history read back is the history
      written);
    * the commit order equals the log order: the group's commit log's
      seqs are exactly ``1..committed_seq`` in order and its epochs never
      decrease -- no record commits "before" its predecessor, across any
      number of leader changes.
    """
    last_time = float("-inf")
    last_epoch = 0
    for index, record in enumerate(journal.records):
        if record.seq != index + 1:
            raise InvariantViolation(
                f"journal seq gap: record #{index} has seq {record.seq}"
            )
        if record.time < last_time:
            raise InvariantViolation(
                f"journal time regressed at seq {record.seq}: "
                f"{record.time} < {last_time}"
            )
        if record.epoch < last_epoch:
            raise InvariantViolation(
                f"journal epoch regressed at seq {record.seq}: "
                f"{record.epoch} < {last_epoch}"
            )
        record.verify()
        last_time = record.time
        last_epoch = record.epoch
    group = journal.group
    if group.committed_seq > len(journal.records):
        raise InvariantViolation(
            f"committed_seq {group.committed_seq} beyond journal tail "
            f"{len(journal.records)}"
        )
    seqs = [seq for seq, _ in group.commit_log]
    if seqs != list(range(1, group.committed_seq + 1)):
        raise InvariantViolation(
            f"commit order is not the log order: {seqs[:20]}..."
        )
    epochs = [epoch for _, epoch in group.commit_log]
    if any(b < a for a, b in zip(epochs, epochs[1:])):
        raise InvariantViolation(f"commit epochs regressed: {epochs[:20]}...")


def check_bounded_mttr(samples, bound):
    """Every control-plane takeover completed within ``bound`` seconds."""
    slow = [(i, t) for i, t in enumerate(samples) if t > bound]
    if slow:
        raise InvariantViolation(
            f"takeover MTTR bound {bound:.2f}s exceeded: "
            f"{[(i, round(t, 3)) for i, t in slow]}"
        )


def check_control_quorum(group):
    """After a quorum chaos run the control group must be whole.

    A live unfenced leader, every record committed (a membership hand-off
    included) and none of them truncated by a takeover, and every voting
    member fully caught up.  A no-op when ``group`` is None (unreplicated
    control plane).
    """
    if group is None:
        return
    if group.failover.down:
        raise InvariantViolation("control group still leaderless after run")
    records = group.journal.records
    top = len(records)
    if group.committed_seq < top:
        raise InvariantViolation(
            f"journal tail uncommitted: committed {group.committed_seq} "
            f"of {top} records"
        )
    # A record written over a truncated one carries a later epoch.
    lost = [
        seq
        for seq, epoch in group.commit_log
        if seq > top or records[seq - 1].epoch != epoch
    ]
    if lost:
        raise InvariantViolation(f"committed records truncated: {lost[:20]}")
    lagging = [
        (m.name, m.synced_seq)
        for m in group.members
        if m.service_up and m.machine.alive and m.synced_seq < top
    ]
    if lagging:
        raise InvariantViolation(
            f"live members lagging the committed log ({top}): {lagging}"
        )


def check_all(
    sim,
    cluster,
    job,
    rhino,
    expected,
    fabric=None,
    control_group=None,
):
    """Run every invariant; raises on the first violation."""
    check_exactly_once(job, expected)
    check_single_owner(job)
    check_replication_restored(rhino)
    check_control_plane_recovered(rhino)
    if control_group is not None:
        check_control_quorum(control_group)
        check_journal_linearizable(control_group.journal)
    check_no_leaked_processes(sim)
    check_drained(sim, cluster, fabric=fabric)
