"""Every row of the takeover's decision table, reached on purpose.

A leader loss strands whatever reconfiguration was in flight; the new
leader resolves each one from what the journal says and what the live
execution shows.  The sweeps reach some rows only by chance, so each row
here has one deterministic scenario on a quorum-replicated counter job.
Every scenario asserts the journal outcome of the stranded
reconfiguration, that nothing is left stranded and no committed record
was lost, and exactly-once counts at the sink.
"""

import pytest

from repro.core import resolution
from repro.experiments.preload import preload_state
from repro.faults import (
    check_control_quorum,
    check_exactly_once,
    check_journal_linearizable,
)
from repro.faults.invariants import check_control_plane_recovered, check_single_owner

from tests.engine_fixtures import EngineEnv, live_feeder
from tests.test_rhino_integration import KEYS, counter_graph, make_job, make_rhino

TOTAL = 200
RECONFIG = 1  # the first reconfiguration each scenario issues


def quorum_job(preload_bytes=0):
    """2 sources, 4 counters and a sink on w-0..w-3; the control group on
    w-4, w-5 and w-0 (the leader's machine serves no instance).
    ``preload_bytes`` of counter state are installed (and replicated)
    before the first record."""
    env = EngineEnv(machines=6)
    env.topic("events", 2)
    job = make_job(env, graph=counter_graph()).start()
    rhino = make_rhino(env, job)
    if preload_bytes:
        preload_state(job, "count", preload_bytes, storage=job.checkpoint_storage)
    machines = env.machines
    group = rhino.enable_control_group([machines[4], machines[5], machines[0]])
    live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
    env.run(until=2.0)
    return env, job, rhino, group


def kill_leader_on(group, kind, when=lambda record: True, then=None):
    """Crash the leader's control service on the first matching record."""

    def listener(record):
        if record.kind == kind and when(record):
            group.journal.listeners.remove(listener)
            group.crash_member(group.leader.name)
            if then is not None:
                then()

    group.journal.listeners.append(listener)


def records_of(group, reconfig=RECONFIG):
    """(kind, payload) of every surviving journal record of ``reconfig``."""
    return [
        (r.kind, dict(r.payload))
        for r in group.journal.records
        if r.payload.get("reconfig") == reconfig
    ]


def kinds_of(group, reconfig=RECONFIG):
    return [kind for kind, _payload in records_of(group, reconfig)]


def expected_counts():
    expected = {}
    for i in range(TOTAL):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def settle(env, rhino, group, until=20.25):
    """Run to quiescence, then check nothing is stranded or lost."""
    env.run(until=until)
    assert not group.failover.down
    assert len(group.failover.history) >= 1
    check_control_plane_recovered(rhino)
    check_control_quorum(group)
    check_journal_linearizable(group.journal)
    check_exactly_once(rhino.job, expected_counts())
    check_single_owner(rhino.job)
    group.stop()


# -- one scenario per row ------------------------------------------------------


def settled_during_the_outage():
    """Journal open, live execution gone: a worker death during the
    outage aborted the handover while the journal was fenced, so the
    takeover journals the abort that was dropped."""
    env, job, rhino, group = quorum_job()
    target = job.instance("count", 3)

    def kill_target_while_fenced():
        yield env.sim.timeout(0.1)  # the election waits 0.5 s
        assert group.journal.fenced
        env.cluster.kill(target.machine)

    kill_leader_on(
        group,
        "handover.marker",
        then=lambda: env.sim.process(kill_target_while_fenced()),
    )
    handover = rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
    handover.defused = True
    env.run(until=5.0)
    assert not target.machine.alive
    recovery = rhino.reconfigure("failure", machine=target.machine)
    env.sim.run(until=recovery)
    settle(env, rhino, group)
    kinds = kinds_of(group)
    assert kinds[:3] == ["handover.accepted", "handover.prepared", "handover.marker"]
    # The abort the fenced journal dropped, re-journaled by the takeover.
    assert records_of(group)[-1] == ("handover.aborted", {"reconfig": RECONFIG})
    assert kinds.count("handover.aborted") == 1


def kill_leader_after_spawn(job, group):
    """Crash the leader right after the handover spawned its target:
    inside the ``scheduling_delay`` window, before ``prepared``."""
    spawn = job.spawn_operator_instance

    def spawn_then_kill(*args, **kwargs):
        instance = spawn(*args, **kwargs)
        job.spawn_operator_instance = spawn
        group.crash_member(group.leader.name)
        return instance

    job.spawn_operator_instance = spawn_then_kill


def abandoned_at_accepted():
    """Live phase ``accepted`` after a rescale spawned its target: the
    takeover removes the target and journals the abort."""
    env, job, rhino, group = quorum_job()
    kill_leader_after_spawn(job, group)
    rescale = rhino.reconfigure("rescale", op_name="count", add_instances=1)
    rescale.defused = True
    env.run(until=3.0)
    assert group.failover.history
    settle(env, rhino, group)
    assert kinds_of(group) == ["handover.accepted", "handover.aborted"]
    assert records_of(group)[-1] == ("handover.aborted", {"reconfig": RECONFIG})
    assert ("count", 4) not in job.instances
    assert job.graph.operators["count"].parallelism == 4


def committed_with_every_ack():
    """Every participant acked before the leader died: the takeover
    commits, counting the spawned target into the parallelism."""
    env, job, rhino, group = quorum_job()
    hm = rhino.handover_manager

    def all_acked(record):
        return any(e.expected <= e.acked for e in hm._executions.values())

    kill_leader_on(group, "handover.ack", when=all_acked)
    rescale = rhino.reconfigure("rescale", op_name="count", add_instances=1)
    rescale.defused = True
    settle(env, rhino, group)
    kinds = kinds_of(group)
    assert kinds[:3] == ["handover.accepted", "handover.prepared", "handover.marker"]
    assert kinds[-1] == "handover.committed"
    assert "handover.aborted" not in kinds
    assert job.graph.operators["count"].parallelism == 5
    assert job.instance("count", 4).state.owned_ranges()
    assert job.assignments["count"].ranges_of(4).span() > 0


def dropped_unjournaled():
    """The leader is cut off from its followers while it accepts a
    rebalance: the ``accepted`` record never replicates, the successor
    truncates it, and the live entry (its driver still waiting for the
    commit) is dropped without a record."""
    env, job, rhino, group = quorum_job()
    leader = group.leader
    env.cluster.partition([[leader.machine]])
    rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
    rebalance.defused = True
    env.run(until=3.0)
    assert group.leader is not leader
    assert group.failover.truncated_takeovers == 1
    env.cluster.heal()
    settle(env, rhino, group)
    assert records_of(group) == []
    assert not rebalance.ok


def rolled_back_with_acks_outstanding():
    """The origin shipped its state, the target had not loaded it when the
    leader died: acks are outstanding, so the takeover rolls back."""
    env, job, rhino, group = quorum_job()
    kill_leader_on(group, "handover.state-shipped")
    rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
    rebalance.defused = True
    settle(env, rhino, group)
    kinds = kinds_of(group)
    assert kinds[-2:] == ["handover.state-shipped", "handover.aborted"]
    assert records_of(group)[-1][1]["machine"] == "coordinator"
    assert job.assignments["count"].ranges_of(2).span() == 8


SCENARIOS = {
    resolution.SETTLED: settled_during_the_outage,
    resolution.UNJOURNALED: dropped_unjournaled,
    resolution.ABANDON: abandoned_at_accepted,
    resolution.COMMIT: committed_with_every_ack,
    resolution.ROLLBACK: rolled_back_with_acks_outstanding,
}


def test_every_takeover_row_has_a_scenario():
    assert set(SCENARIOS) == set(resolution.TAKEOVER_ROWS)


@pytest.mark.parametrize("row", resolution.TAKEOVER_ROWS)
def test_takeover_row_is_reached(row, monkeypatch):
    reached = []
    resolve = resolution.resolve

    def spy(facts):
        resolved = resolve(facts)
        if facts.lost == resolution.LEADER:
            reached.append(resolved.outcome)
        return resolved

    monkeypatch.setattr(resolution, "resolve", spy)
    SCENARIOS[row]()
    assert row in reached


def test_precopy_abort_journals_the_abort_without_a_takeover():
    """Not a takeover row: the driver's own failure arm.  The origin
    dies while a cold target is pre-copied (8 GiB of preloaded state keep
    it streaming for seconds), before the execution is prepared; the abort
    is journaled with no handover id."""
    env, job, rhino, group = quorum_job(preload_bytes=8 * 1024**3)
    origin = job.instance("count", 1)
    rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(1, 2)])
    rebalance.defused = True

    def killer():
        yield env.sim.timeout(0.5)
        env.cluster.kill(origin.machine)

    env.sim.process(killer())
    env.run(until=5.0)
    assert not rebalance.ok
    assert kinds_of(group) == ["handover.accepted", "handover.aborted"]
    assert records_of(group)[-1][1] == {"reconfig": RECONFIG, "handover": None}
    recovery = rhino.reconfigure("failure", machine=origin.machine)
    env.sim.run(until=recovery)
    env.run(until=20.25)  # off the checkpoint grid
    assert not group.failover.history
    check_control_plane_recovered(rhino)
    check_control_quorum(group)
    check_exactly_once(job, expected_counts())
    group.stop()


def test_rollback_before_any_source_rewired_keeps_exactly_once():
    """The leader dies on ``handover.marker``: every marker it minted is
    fenced at the sources, so no source frontier is captured.  A source
    that never rewired diverted nothing, so the rolled-back origin's fresh
    frontier reads its live progress for both sources; with ``floor=inf``
    instead, every later record of the rolled-back groups read as seen and
    was dropped (``echo``, key group 18, stopped at 18 of 25)."""
    env, job, rhino, group = quorum_job()
    kill_leader_on(group, "handover.marker")
    rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
    rebalance.defused = True
    settle(env, rhino, group)
