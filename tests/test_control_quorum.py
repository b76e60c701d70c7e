"""Control-plane fault tolerance: the quorum group end to end.

Covers the ControlGroup through phase-targeted chaos runs (leader kills
at every journaled phase of both a planned rebalance and a failure
recovery, in the middle of a chain-replication hop, mid-membership-change,
5-replica double kills) -- after every kill the invariant harness must
hold AND, whenever the takeover truncated nothing, the journal replay
must structurally equal the live-state snapshot captured at the crash
instant.  Also: committed golden digests of three takeover runs,
bit-identical replay, the stale-leader fencing regression (a deposed
leader replaying a buffered ``reconfigure()`` is a no-op), the journal
linearizability checker itself (known-good and deliberately broken
histories), torn-tail truncation on verified journal reads, DFS epoch
fencing, the majority-safety fault-plan validation error paths, and the
no-control-group default.  The ``chaos``-marked 25-seed minority-failure
sweeps at the bottom are the acceptance runs CI executes separately.
"""

import hashlib
import json
import os
import types

import pytest

from repro.common.errors import (
    CorruptionError,
    SimulationError,
    StaleEpochError,
)
from repro.core.handover import PHASE_TABLE
from repro.core.quorum import DETECTION_DELAY
from repro.experiments.scenarios.chaos import (
    CONTROL_SWEEP_PHASES,
    run_chaos,
    run_control_quorum_sweep,
)
from repro.faults import (
    CONTROL_CRASH,
    CONTROL_KINDS,
    CONTROL_PARTITION,
    CRASH_RESTART,
    SLOW_LINK,
    FaultEvent,
    FaultPlan,
    check_bounded_mttr,
    check_control_quorum,
    check_journal_linearizable,
)
from repro.faults.invariants import InvariantViolation
from repro.obs import failover_breakdown
from repro.obs.tracer import Tracer
from repro.storage.dfs import DistributedFileSystem

from tests.engine_fixtures import EngineEnv, live_feeder
from tests.test_chaos import canonical_trace
from tests.test_control_journal import journal_env
from tests.test_rhino_integration import (
    KEYS,
    counter_graph,
    make_job,
    make_rhino,
)

QUORUM_STAT_KEYS = {"detect", "replay", "resume", "total", "epoch", "leader"}


def assert_quorum_recovered(result):
    assert result.violations == []
    assert result.counts == result.expected
    assert result.control_stats is not None
    assert result.failover_stats, "the control group never failed over"
    for stats in result.failover_stats:
        assert set(stats) == QUORUM_STAT_KEYS
        assert stats["total"] >= stats["detect"] >= 0.0
    # Every takeover either truncated an uncommitted suffix or recorded a
    # replay check, and a recorded replay must equal the crash snapshot.
    assert len(result.replay_checks) + result.control_stats[
        "truncated_takeovers"
    ] == len(result.failover_stats)
    for replayed, snapshot in result.replay_checks:
        assert replayed == snapshot, (
            "journal replay diverged from the crash-instant snapshot:\n"
            f"replayed={json.dumps(replayed, sort_keys=True)}\n"
            f"snapshot={json.dumps(snapshot, sort_keys=True)}"
        )


# -- the tentpole end to end: minority kills at protocol phases ---------------

#: Every record kind a handover journals on its way to a commit.
HANDOVER_PHASES = tuple(step.kind for step in PHASE_TABLE)
#: A failure recovery has no live origin to drain.
RECOVERY_PHASES = tuple(
    kind for kind in HANDOVER_PHASES if kind != "handover.origin-drained"
)


class TestQuorumPhaseKills:
    @pytest.mark.parametrize("record_kind", HANDOVER_PHASES)
    def test_leader_kill_at_phase(self, record_kind):
        result = run_chaos(
            3,
            control_replicas=3,
            fault_count=0,
            rebalance_at=2.0,
            control_kill_at=record_kind,
        )
        assert_quorum_recovered(result)
        stats = result.control_stats
        assert stats["replicas"] == 3
        assert stats["epoch"] > 1
        assert stats["elections"] >= 1
        # The whole journal is committed and the group healed.
        assert stats["committed_seq"] > 0
        assert len(stats["members"]) == 3

    @pytest.mark.parametrize("record_kind", RECOVERY_PHASES)
    def test_leader_kill_during_recovery_handover(self, record_kind):
        # Seed 3's crash-restart plan kills a worker whose recovery drives
        # a failure handover (no live origin, an empty replacement target).
        # handover.ack is the regression for the rollback that re-adopted
        # the empty replacement as if it were a live origin.
        result = run_chaos(
            3,
            control_replicas=3,
            kinds=(CRASH_RESTART,),
            control_kill_at=record_kind,
        )
        assert_quorum_recovered(result)

    def test_leader_kill_mid_chain_replication_hop(self):
        # Probe run: find a real chain-replication hop on the timeline,
        # then replay the same seed and kill the leader at its midpoint.
        tracer = Tracer()
        probe = run_chaos(
            3, control_replicas=3, kinds=(CRASH_RESTART,), tracer=tracer
        )
        assert probe.ok
        hops = [
            s
            for s in tracer.spans
            if s.name == "replicate.hop"
            and s.end is not None
            and s.end - s.start > 1e-4
        ]
        assert hops, "the probe run replicated nothing"
        midpoint = (hops[0].start + hops[0].end) / 2
        result = run_chaos(
            3,
            control_replicas=3,
            kinds=(CRASH_RESTART,),
            control_kill_at=midpoint,
        )
        assert_quorum_recovered(result)
        assert result.failover_stats[0]["detect"] == pytest.approx(0.5)

    def test_marker_phase_kill_fences_stale_markers(self):
        # Markers minted by the deposed leader are already in flight when
        # the election bumps the epoch: workers must discard (not ack)
        # them, which shows up as fencing rejections.
        result = run_chaos(
            3,
            control_replicas=3,
            fault_count=0,
            rebalance_at=2.0,
            control_kill_at="handover.marker",
        )
        assert_quorum_recovered(result)
        assert result.control_stats["fencing_rejections"] > 0

    def test_leader_kill_mid_membership_change(self):
        result = run_chaos(
            5,
            machines=7,
            control_replicas=3,
            fault_count=0,
            rebalance_at=2.0,
            membership_change_at=4.0,
            control_kill_at="control.member-commit",
        )
        assert_quorum_recovered(result)
        stats = result.control_stats
        # The hand-off survived the takeover and committed under the next
        # leader: the final membership is 3-wide but differs from the
        # seed group.
        assert len(stats["members"]) == 3
        assert set(stats["members"]) != {"w-0", "w-1", "w-2"}

    def test_five_replica_double_kill_with_membership_change(self):
        result = run_chaos(
            5,
            machines=9,
            control_replicas=5,
            fault_count=0,
            rebalance_at=2.0,
            control_kill_count=2,
            membership_change_at=4.0,
            control_kill_at="control.member-commit",
        )
        assert_quorum_recovered(result)
        assert result.control_stats["replicas"] == 5
        assert len(result.control_stats["members"]) == 5

    def test_generated_control_plan_run(self):
        # No phase targeting: the seeded plan itself mixes control-crash /
        # control-partition events with worker faults.
        result = run_chaos(11, control_replicas=3)
        assert result.violations == []
        assert result.counts == result.expected
        stats = result.control_stats
        assert stats is not None
        assert stats["committed_seq"] > 0
        # Quiescence required the group whole again, so every control
        # fault the plan injected has been healed.
        assert len(stats["members"]) == 3

    def test_kill_listener_rejects_majority_kill_counts(self):
        with pytest.raises(ValueError, match="minority"):
            run_chaos(
                3,
                control_replicas=3,
                fault_count=0,
                rebalance_at=2.0,
                control_kill_at="handover.accepted",
                control_kill_count=2,
            )


# -- one committed golden + determinism for the path that survives ------------


def sha256_of(*parts):
    blob = json.dumps(list(parts), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def takeover_digests():
    """seed -> (result digest, trace digest, result) of one traced run."""
    cache = {}

    def run(seed):
        if seed not in cache:
            tracer = Tracer()
            result = run_chaos(seed, control_replicas=3, tracer=tracer)
            cache[seed] = (
                sha256_of(
                    result.counts,
                    result.mttr_samples,
                    result.duration,
                    result.failover_stats,
                    result.replay_checks,
                    result.control_stats,
                ),
                sha256_of(canonical_trace(tracer, without_track="kernel")),
                result,
            )
        return cache[seed]

    return run


class TestTakeoverGolden:
    """Two digests per seed (1, 2 and 1 takeovers), held to different rules.

    ``RESULT`` covers everything a takeover run *reports* (counts, MTTR
    samples, duration, failover stats, replay checks, control stats).  No
    host-speed or refactoring PR may move it.  Captured at ``c52d130``;
    re-captured once, with the source watermark pacing of PR 23 (a model
    change: checkpoint ``completed_at`` times moved by <= 5.6 ms and the
    takeover ``replay`` phase by ~1e-7 s; counts, MTTR samples, duration
    and control stats did not).  Re-captured a second time when the
    replayed and snapshot states lost their ``joint`` key (None in every
    run here): seeds 1 and 6 moved, seed 2 (whose takeovers both
    truncated, so it records no replay check) did not.

    ``TRACE`` covers every span, event and counter sample except the
    kernel track (``process.spawn/end/interrupt`` are executor structure).
    A change to how same-instant work is ordered may move it; such a PR
    re-captures it in the same commit and lists in CHANGES.md which events
    moved and by how much.  A protocol change re-captures both.
    ``TRACE[2]`` was re-captured once when the takeover's spans became
    what ``failover.history`` reads: the ``failover`` root and its
    ``failover.detect`` child now open at the fault, so on seed 2's two
    lease-expiry takeovers (the lease lapsed 0.5 s before the takeover
    started) exactly those four span starts moved 0.5 s earlier.  Nothing
    else in any trace moved, and no ``RESULT`` did.
    """

    RESULT = {
        1: "f43a9b2c2b48fcbc78da383cb2099bf1093a23bdbafe7784c60b840b5387bd82",
        2: "e4c93803c61fbaa707e99810abe57cd5eab6f51417b81a62eedca8289f160ae2",
        6: "5b706c5522f0ed72845fc5d992dfbe8c54e49bdb5ac2fd00ea699f1d45584d10",
    }
    TRACE = {
        1: "c4b9481f092ef31e83d66023807625cb26c3428194957f20d74776a42bec64f1",
        2: "beccdf2127aa4917228eeebfc1210801588423524a701d6330b98efc7eda6cb0",
        6: "0112e90ffc9520b8b062af1bc99eb765120c8d9e8c9e87eeedeac7cea9d45223",
    }
    TAKEOVERS = {1: 1, 2: 2, 6: 1}

    @pytest.mark.parametrize("seed", sorted(RESULT))
    def test_quorum_run_matches_committed_digest(self, seed, takeover_digests):
        digest, _trace, result = takeover_digests(seed)
        assert result.ok
        assert len(result.failover_stats) == self.TAKEOVERS[seed]
        assert digest == self.RESULT[seed]

    @pytest.mark.parametrize("seed", sorted(TRACE))
    def test_quorum_trace_matches_committed_digest(self, seed, takeover_digests):
        _digest, trace, _result = takeover_digests(seed)
        assert trace == self.TRACE[seed]


class TestTakeoverDeterminism:
    def test_takeover_run_replays_bit_identically(self):
        runs = []
        for _ in range(2):
            tracer = Tracer()
            result = run_chaos(
                3, control_replicas=3, control_kill_at=6.0, tracer=tracer
            )
            runs.append((result, canonical_trace(tracer)))
        (first, first_trace), (second, second_trace) = runs
        assert_quorum_recovered(first)
        assert first.counts == second.counts
        assert first.duration == second.duration
        assert first.failover_stats == second.failover_stats
        assert json.dumps(first.replay_checks, sort_keys=True) == json.dumps(
            second.replay_checks, sort_keys=True
        )
        assert first_trace == second_trace

    def test_failover_breakdown_phases_sum_to_total(self):
        # Seed 7's takeover follows a leader kill.  Golden seed 2's two
        # follow a lease expiry, which the survivors notice only after the
        # detection delay; the spans still open at the fault.
        leader_kill = dict(kinds=(CRASH_RESTART,), control_kill_at=6.0)
        for seed, kwargs in ((7, leader_kill), (2, {})):
            tracer = Tracer()
            result = run_chaos(seed, control_replicas=3, tracer=tracer, **kwargs)
            assert_quorum_recovered(result)
            assert result.failover_stats == failover_breakdown(tracer)
            untraced = run_chaos(seed, control_replicas=3, **kwargs)
            assert untraced.failover_stats == result.failover_stats
            for phases in result.failover_stats:
                total = phases["detect"] + phases["replay"] + phases["resume"]
                assert total == pytest.approx(phases["total"], abs=1e-9)
                assert phases["detect"] == pytest.approx(DETECTION_DELAY)
        assert len(result.failover_stats) == 2


class TestQuiescencePoll:
    """run_chaos must see the group stable, not idle to max_sim_time."""

    def test_fault_free_run_drains_well_before_the_cap(self):
        result = run_chaos(
            3, control_replicas=3, fault_count=0, rebalance_at=2.0
        )
        assert result.ok
        assert result.duration < 25

    def test_plan_seed_5_at_the_ledger_arguments_is_ok(self):
        # Used to be caught at the 40 s cap with one checkpoint record
        # still in flight to a replica.
        result = run_chaos(
            5,
            control_replicas=3,
            records=600,
            rebalance_at=8.0,
            max_sim_time=40.0,
        )
        assert result.violations == []
        assert result.duration < 40.0


# -- satellite (c): stale-leader exactly-once -------------------------------


def quorum_env(machines=4, replicas=3, tracer=None):
    env = EngineEnv(machines=machines, tracer=tracer)
    env.topic("events", 2)
    job = make_job(env).start()
    rhino = make_rhino(env, job)
    group = rhino.enable_control_group(env.machines[:replicas])
    return env, job, rhino, group


class TestStaleLeaderFencing:
    def test_replayed_reconfigure_after_heal_is_fenced_and_noop(self):
        env, job, rhino, group = quorum_env()
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=3.0)

        # A client buffers a command under the current leader...
        stale = group.fence_token()
        old_leader = group.leader.name

        # ...the leader dies and a new epoch is elected...
        group.crash_member(old_leader)
        env.run(until=6.0)
        assert not group.failover.down
        assert group.epoch > stale

        # ...the deposed member heals and the client replays the command.
        group.restart_member(old_leader)
        env.run(until=7.0)

        accepted_before = sum(
            1 for r in group.journal.records if r.kind == "handover.accepted"
        )
        rejections_before = group.fencing_rejections
        replay = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(0, 1)], fence_token=stale
        )
        replay.process.defused = True
        env.run(until=9.0)

        # Fenced before anything was mutated: the driver failed with
        # StaleEpochError, journaled nothing, produced no report.
        assert replay.done and not replay.succeeded
        with pytest.raises(StaleEpochError):
            replay.process.value
        assert group.fencing_rejections == rejections_before + 1
        assert (
            sum(1 for r in group.journal.records if r.kind == "handover.accepted")
            == accepted_before
        )
        assert replay.reports == []

        # Resubmitting under the live epoch applies exactly once.
        retry = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        retry.process.defused = True
        env.run(until=15.0)
        assert retry.succeeded
        assert retry.report is not None
        assert (
            sum(1 for r in group.journal.records if r.kind == "handover.accepted")
            == accepted_before + 1
        )
        group.stop()

    def test_fence_token_of_live_epoch_passes(self):
        env, _job, rhino, group = quorum_env()
        group.check_fence(group.fence_token())  # no raise
        group.check_fence(None)  # unstamped commands are never fenced
        assert group.fencing_rejections == 0
        group.stop()


class TestFlusherCreditsContiguousPrefix:
    def test_follower_that_missed_a_batch_counts_only_after_resync(self):
        env, _job, _rhino, group = quorum_env()
        group.stop()  # no monitor: resyncs run only when the test starts one
        journal = group.journal
        _leader, lagging, other = group.members
        outsider = env.machines[3].name
        env.run(until=0.1)
        assert lagging.synced_seq == other.synced_seq == len(journal.records)

        # The lagging follower's service is down across one flush...
        group.crash_member(lagging.name)
        missed = journal.append(
            "detector.verdict", machine=outsider, verdict="suspect"
        )
        env.run(until=0.2)
        assert other.synced_seq >= missed.seq > lagging.synced_seq

        # ...comes back, and receives only the next batch while the other
        # follower is down.  It does not hold ``missed``, so it is not
        # credited with ``shipped`` and cannot form its majority.
        group.restart_member(lagging.name)
        group.crash_member(other.name)
        shipped = journal.append(
            "detector.verdict", machine=outsider, verdict="clear"
        )
        env.run(until=0.3)
        assert lagging.synced_seq < missed.seq
        assert group.committed_seq < shipped.seq

        # The monitor's resync ships the whole gap; now it counts.
        group.start()
        env.run(until=0.8)
        assert lagging.synced_seq >= shipped.seq
        assert group.committed_seq >= shipped.seq
        group.restart_member(other.name)
        group.stop()


def hand_off_env(tracer=None):
    """A settled 3-replica group plus the spare machine a hand-off adds."""
    env, _job, _rhino, group = quorum_env(tracer=tracer)
    env.run(until=0.1)
    return (env, group, *group.members, env.machines[3])


def member_commit_seqs(group):
    return [
        r.seq for r in group.journal.records if r.kind == "control.member-commit"
    ]


class TestMembershipHandOff:
    """One hand-off record between static configurations: it commits
    once a majority of the old configuration and of the new one hold it,
    and every record after it commits under the new one."""

    def test_hand_off_commits_without_the_newcomer(self):
        env, group, leader, staying, leaving, spare = hand_off_env()
        group.stop()  # no monitor: the newcomer is never resynced
        change = group.change_membership(
            [leader.machine, staying.machine, spare]
        )
        env.run(until=0.2)
        assert change.ok
        newcomer = group.members[-1]
        assert group.member_names() == [leader.name, staying.name, spare.name]
        assert group.committed_seq >= member_commit_seqs(group)[-1]
        assert newcomer.synced_seq == 0  # committed without the new member

        # After the hand-off the removed member's ack counts for nothing.
        group.crash_member(staying.name)
        after = group.journal.append(
            "detector.verdict", machine=spare.name, verdict="suspect"
        )
        group.mark_synced(leaving, after.seq)
        env.run(until=0.3)
        assert leader.synced_seq >= after.seq
        assert group.committed_seq < after.seq

        # The monitor's ordinary resync ships the newcomer the log; now
        # leader + newcomer is a majority of the new configuration.
        group.start()
        env.run(until=0.8)
        assert newcomer.synced_seq >= after.seq
        assert group.committed_seq >= after.seq
        group.restart_member(staying.name)
        group.stop()

    def test_hand_off_held_by_the_leaving_member_survives_a_leader_kill(self):
        env, group, leader, staying, leaving, spare = hand_off_env()
        group.stop()  # no monitor: nobody is resynced until it restarts
        group.crash_member(staying.name)
        change = group.change_membership(
            [leader.machine, staying.machine, spare]
        )
        change.defused = True
        env.run(until=0.2)
        # Leader + leaving is a majority of the old configuration but not
        # of the new one, so the hand-off is not committed yet.
        hand_off = member_commit_seqs(group)[-1]
        assert leader.synced_seq >= hand_off and leaving.synced_seq >= hand_off
        assert group.committed_seq == hand_off - 1

        # The staying member comes back without the hand-off and the
        # leader dies.  The old configuration still elects, and only the
        # leaving member holds every committed record.
        group.restart_member(staying.name)
        group.crash_member(leader.name)
        group.start()
        env.run(until=3.0)

        assert not change.ok
        first, second = group.failover.history
        assert first["leader"] == leaving.name
        # The resync let the hand-off commit; the new configuration in
        # force removed the leader it had just elected, which stepped down.
        assert second["leader"] == staying.name
        assert group.leader is staying
        assert member_commit_seqs(group) == [2, hand_off]
        assert group.member_names() == [leader.name, staying.name, spare.name]
        check_control_quorum(group)
        check_journal_linearizable(group.journal)
        group.stop()

    def test_leader_killed_before_any_follower_synced_the_hand_off(self):
        env, group, leader, staying, leaving, spare = hand_off_env()
        before = group.member_names()

        def kill_on_hand_off(record):
            if record.kind == "control.member-commit":
                group.journal.listeners.remove(kill_on_hand_off)
                group.crash_member(leader.name)

        group.journal.listeners.append(kill_on_hand_off)
        # Both followers are down while the hand-off is flushed, so it
        # exists only in the dying leader's log.
        for member in (staying, leaving):
            group.crash_member(member.name)
        change = group.change_membership(
            [leader.machine, staying.machine, spare]
        )
        change.defused = True
        env.run(until=0.2)
        for member in (staying, leaving):
            group.restart_member(member.name)
        env.run(until=1.5)

        assert not change.ok
        assert group.elections == 1
        assert group.leader is staying
        assert group.failover.truncated_takeovers == 1
        # The truncated hand-off never happened.
        assert group.member_names() == before
        assert member_commit_seqs(group) == [2]
        group.stop()

    def test_leader_killed_as_the_hand_off_commits(self):
        tracer = Tracer()
        env, group, leader, staying, _leaving, spare = hand_off_env(tracer)
        hand_off_seq = len(group.journal.records) + 1

        def kill_at_commit():
            # Waits ahead of the change driver, so the leader dies at the
            # commit instant with the driver still blocked on it.
            yield from group.await_commit_seq(hand_off_seq)
            group.crash_member(leader.name)

        env.sim.process(kill_at_commit())
        change = group.change_membership(
            [leader.machine, staying.machine, spare]
        )
        change.defused = True
        env.run(until=1.5)

        assert not change.ok  # killed before it saw its own commit
        assert group.elections == 1
        assert group.leader is staying
        assert member_commit_seqs(group) == [2, hand_off_seq]
        assert group.member_names() == [leader.name, staying.name, spare.name]
        [(replayed, snapshot)] = group.failover.replay_checks
        assert replayed == snapshot
        # The change completed without being resumed by the takeover.
        spawned = [
            e.tags["process"] for e in tracer.events if e.name == "process.spawn"
        ]
        assert spawned.count("rhino-member-change") == 1
        group.stop()


# -- satellite (a): CRC32 + torn-tail truncation on journal reads -----------


def append_three(journal):
    journal.append("checkpoint.triggered", checkpoint=1, expected=[])
    journal.append("groups.assigned", groups={})
    journal.append("checkpoint.aborted", checkpoint=1)


class TestTornTailTruncation:
    def test_clean_log_reads_back_unchanged(self):
        _, journal, _ = journal_env()
        append_three(journal)
        records = journal.read_records(committed_seq=0)
        assert [r.seq for r in records] == [1, 2, 3]
        assert journal.truncated_records == 0

    def test_torn_tail_is_truncated_above_the_committed_floor(self):
        _, journal, _ = journal_env()
        append_three(journal)
        bytes_before = journal.durable_bytes
        torn_bytes = journal.records[-1].nbytes
        journal.records[-1].payload["checkpoint"] = 999  # tear the tail
        records = journal.read_records(committed_seq=0)
        assert [r.seq for r in records] == [1, 2]
        assert journal.truncated_records == 1
        assert journal.durable_bytes == bytes_before - torn_bytes

    def test_tear_in_the_middle_drops_the_whole_suffix(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[1].payload["groups"] = {"x": ["j-0"]}
        records = journal.read_records(committed_seq=1)
        assert [r.seq for r in records] == [1]
        assert journal.truncated_records == 2

    def test_corruption_below_the_committed_floor_raises(self):
        # Committed records were majority-acknowledged: a bad CRC there is
        # real corruption, never a torn tail, and must fail loudly.
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[0].payload["checkpoint"] = 999
        with pytest.raises(CorruptionError):
            journal.read_records(committed_seq=3)

    def test_replay_survives_a_torn_tail(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[-1].payload["checkpoint"] = 999
        state = journal.replay()
        # The torn abort record is gone: checkpoint 1 is still pending.
        assert state.pending == [1]


# -- satellite (d): the linearizability checker itself ----------------------


class TestJournalLinearizabilityChecker:
    def test_known_good_history_passes(self):
        _, journal, _ = journal_env()
        append_three(journal)
        check_journal_linearizable(journal)

    def test_empty_journal_passes(self):
        _, journal, _ = journal_env()
        check_journal_linearizable(journal)

    def test_seq_gap_is_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[1].seq = 5
        with pytest.raises(InvariantViolation, match="seq gap"):
            check_journal_linearizable(journal)

    def test_time_regression_is_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[0].time = 1.0  # later than its successors
        with pytest.raises(InvariantViolation, match="time regressed"):
            check_journal_linearizable(journal)

    def test_epoch_regression_is_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        # Re-stamp the CRC so only the ordering (not integrity) is broken.
        journal.records[0].epoch = 2
        journal.records[0].crc32 = journal.records[0]._checksum()
        with pytest.raises(InvariantViolation, match="epoch regressed"):
            check_journal_linearizable(journal)

    def test_corrupt_record_fails_verification(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.records[2].payload["checkpoint"] = -1
        with pytest.raises(CorruptionError):
            check_journal_linearizable(journal)

    def test_quorum_commit_log_in_order_passes(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.group = types.SimpleNamespace(
            committed_seq=3, commit_log=[(1, 0), (2, 0), (3, 1)]
        )
        check_journal_linearizable(journal)

    def test_committed_seq_beyond_tail_is_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.group = types.SimpleNamespace(committed_seq=5, commit_log=[])
        with pytest.raises(InvariantViolation, match="beyond journal tail"):
            check_journal_linearizable(journal)

    def test_reordered_commit_history_is_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.group = types.SimpleNamespace(
            committed_seq=3, commit_log=[(1, 0), (3, 0), (2, 0)]
        )
        with pytest.raises(InvariantViolation, match="commit order"):
            check_journal_linearizable(journal)

    def test_regressed_commit_epochs_are_reported(self):
        _, journal, _ = journal_env()
        append_three(journal)
        journal.group = types.SimpleNamespace(
            committed_seq=3, commit_log=[(1, 1), (2, 0), (3, 1)]
        )
        with pytest.raises(InvariantViolation, match="epochs regressed"):
            check_journal_linearizable(journal)


class TestBoundedMttrChecker:
    def test_within_bound_passes(self):
        check_bounded_mttr([0.5, 1.2, 0.0], 2.0)
        check_bounded_mttr([], 0.1)

    def test_slow_takeover_is_reported_with_its_index(self):
        with pytest.raises(InvariantViolation, match=r"\(1, 9.5\)"):
            check_bounded_mttr([0.5, 9.5], 2.0)


# -- DFS epoch fencing -------------------------------------------------------


class TestDfsFencing:
    def make_dfs(self):
        env = EngineEnv(machines=3)
        dfs = DistributedFileSystem(
            env.sim, env.cluster, env.machines, block_size=4 * 1024 * 1024
        )
        return env, dfs

    def test_stale_epoch_write_is_rejected_before_placing_blocks(self):
        env, dfs = self.make_dfs()
        dfs.set_fence(2)
        with pytest.raises(StaleEpochError):
            dfs.write("/ckpt/old", 1024, env.machines[0], epoch=1)
        assert dfs.namenode.files == {}

    def test_current_epoch_and_unstamped_writes_pass(self):
        env, dfs = self.make_dfs()
        dfs.set_fence(2)
        dfs.write("/ckpt/new", 1024, env.machines[0], epoch=2)
        dfs.write("/ckpt/legacy", 1024, env.machines[0])  # unfenced caller
        env.run(until=5.0)
        assert set(dfs.namenode.files) == {"/ckpt/new", "/ckpt/legacy"}

    def test_fence_is_monotonic(self):
        _, dfs = self.make_dfs()
        dfs.set_fence(3)
        dfs.set_fence(1)  # late, lower: ignored
        assert dfs.fence_epoch == 3

    def test_unfenced_dfs_ignores_epochs(self):
        env, dfs = self.make_dfs()
        dfs.write("/ckpt/any", 1024, env.machines[0], epoch=0)
        env.run(until=5.0)
        assert "/ckpt/any" in dfs.namenode.files


# -- satellite (b): fault-plan validation error paths ------------------------


MEMBERS = ("w-0", "w-1", "w-2")
WORKERS = ["w-0", "w-1", "w-2", "w-3", "w-4", "w-5"]


class TestControlFaultPlanValidation:
    def test_control_kind_requires_control_members(self):
        plan = FaultPlan([FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 1.0)])
        with pytest.raises(SimulationError, match="requires control_members"):
            plan.validate(WORKERS)

    def test_control_kind_must_target_a_member(self):
        plan = FaultPlan([FaultEvent(3.0, CONTROL_PARTITION, ["w-4"], 1.0)])
        with pytest.raises(SimulationError, match="not a control-group member"):
            plan.validate(WORKERS, control_members=MEMBERS)

    def test_generate_rejects_control_kinds_without_members(self):
        with pytest.raises(SimulationError, match="require control_members"):
            FaultPlan.generate(7, WORKERS, kinds=CONTROL_KINDS)

    def test_overlapping_control_crashes_downing_a_majority_rejected(self):
        plan = FaultPlan(
            [
                FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 3.0),
                FaultEvent(4.0, CONTROL_CRASH, ["w-1"], 3.0),
            ]
        )
        with pytest.raises(SimulationError, match="majority"):
            plan.validate(WORKERS, control_members=MEMBERS)

    def test_worker_fault_on_a_member_counts_toward_the_majority(self):
        # A crash-restart of a member's machine silences its vote just as
        # surely as a control-crash: the union must stay a minority.
        plan = FaultPlan(
            [
                FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 3.0),
                FaultEvent(4.0, CRASH_RESTART, ["w-1"], 3.0),
            ]
        )
        with pytest.raises(SimulationError, match="majority"):
            plan.validate(WORKERS, control_members=MEMBERS)

    def test_sequential_minority_kills_validate(self):
        plan = FaultPlan(
            [
                FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 1.0),
                FaultEvent(6.0, CONTROL_PARTITION, ["w-1"], 1.0),
                FaultEvent(9.0, CRASH_RESTART, ["w-3"], 1.0),  # non-member
            ]
        )
        assert plan.validate(WORKERS, control_members=MEMBERS) is plan

    def test_non_silencing_faults_never_trip_the_majority_check(self):
        plan = FaultPlan(
            [
                FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 3.0),
                FaultEvent(4.0, SLOW_LINK, ["w-1", "w-2"], 3.0),
            ]
        )
        assert plan.validate(WORKERS, control_members=MEMBERS) is plan

    def test_five_member_group_tolerates_two_overlapping_kills(self):
        five = ("w-0", "w-1", "w-2", "w-3", "w-4")
        plan = FaultPlan(
            [
                FaultEvent(3.0, CONTROL_CRASH, ["w-0"], 3.0),
                FaultEvent(4.0, CONTROL_CRASH, ["w-1"], 3.0),
            ]
        )
        assert plan.validate(WORKERS, control_members=five) is plan
        plan.events.append(FaultEvent(4.5, CONTROL_PARTITION, ["w-2"], 3.0))
        with pytest.raises(SimulationError, match="majority"):
            plan.validate(WORKERS, control_members=five)

    def test_generated_control_plans_always_validate(self):
        for seed in range(8):
            plan = FaultPlan.generate(
                seed,
                WORKERS,
                count=6,
                kinds=CONTROL_KINDS + (CRASH_RESTART,),
                protect=MEMBERS,
                control_members=MEMBERS,
            )
            plan.validate(WORKERS, control_members=MEMBERS)
            for event in plan.events:
                if event.kind in CONTROL_KINDS:
                    assert all(t in MEMBERS for t in event.targets)


# -- default-off guarantees --------------------------------------------------


class TestDefaultOff:
    def test_unreplicated_run_has_no_control_plane(self):
        tracer = Tracer()
        result = run_chaos(7, tracer=tracer)
        assert result.ok
        assert result.control_stats is None
        assert result.failover_stats == []
        assert not [s for s in tracer.spans if s.track == "failover"]
        assert not [e for e in tracer.events if e.track == "failover"]

    def test_run_chaos_bounds_replica_count(self):
        with pytest.raises(ValueError, match="control_replicas"):
            run_chaos(3, machines=4, control_replicas=5)

    def test_control_kill_requires_a_control_group(self):
        with pytest.raises(ValueError, match="control_replicas"):
            run_chaos(3, control_kill_at=6.0)


# -- acceptance sweeps (chaos-marked; CI runs them separately) ---------------


def _artifacts_dir(tmp_path):
    # CI sets CHAOS_ARTIFACTS_DIR so the verdict files it uploads are the
    # ones the sweep wrote; locally they land in the test's tmp dir.
    return os.environ.get("CHAOS_ARTIFACTS_DIR") or str(tmp_path)


@pytest.mark.chaos
class TestControlQuorumSweeps:
    def test_three_replica_25_seed_sweep(self, tmp_path):
        artifacts = _artifacts_dir(tmp_path)
        results = run_control_quorum_sweep(
            range(25), replicas=3, artifacts_dir=artifacts
        )
        assert len(results) == 25
        failures = [r for r in results if not r.ok]
        assert failures == []
        with open(os.path.join(artifacts, "invariant-verdict-3r.json")) as fh:
            verdict = json.load(fh)
        assert verdict["failures"] == 0
        assert verdict["seeds"] == 25
        phases = {row["phase"] for row in verdict["runs"]}
        assert phases == set(CONTROL_SWEEP_PHASES)

    def test_five_replica_25_seed_sweep(self, tmp_path):
        artifacts = _artifacts_dir(tmp_path)
        results = run_control_quorum_sweep(
            range(100, 125), replicas=5, machines=9, artifacts_dir=artifacts
        )
        failures = [r for r in results if not r.ok]
        assert failures == []
        # Kill sizes rotate through every minority for 5 replicas: 1 and 2.
        with open(os.path.join(artifacts, "invariant-verdict-5r.json")) as fh:
            verdict = json.load(fh)
        assert {row["kill_count"] for row in verdict["runs"]} == {1, 2}
