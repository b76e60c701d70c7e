"""Failure *during* a handover: abort, rollback, replay, retry.

The paper leaves this as future work ("a failure that occurs during a
handover may restart the protocol", §4.1.2); the reproduction implements
the restartable protocol and these tests exercise it.
"""

import pytest

from repro.cluster import FailureDetector
from repro.core.api import Rhino, RhinoConfig
from repro.core.handover import HandoverAborted
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
TOTAL = 300


def setup(machines=5, state_load_seconds=1.0, **rhino_kwargs):
    env = EngineEnv(machines=machines)
    env.topic("events", 2)
    graph = StreamGraph("abort")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 4, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")])
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(graph, config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.2,
            local_fetch_seconds=0.1,
            state_load_seconds=state_load_seconds,
            **rhino_kwargs,
        ),
    ).attach()
    return env, job, rhino


def expected_counts():
    expected = {}
    for i in range(TOTAL):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def final_counts(job):
    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    return finals


class TestTargetDeathMidHandover:
    def run_scenario(self, kill_delay=0.7):
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        target = job.instance("count", 1)
        handover = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(0, 1)]
        ).process
        handover.defused = True

        def killer():
            yield env.sim.timeout(kill_delay)
            env.cluster.kill(target.machine)

        env.sim.process(killer())
        env.run(until=4.0)
        return env, job, rhino, handover, target

    def test_handover_aborts_with_clear_error(self):
        _env, _job, _rhino, handover, _target = self.run_scenario()
        assert handover.triggered and not handover.ok
        with pytest.raises(HandoverAborted):
            handover.value

    def test_origin_reowns_its_vnodes(self):
        env, job, rhino, _handover, _target = self.run_scenario()
        origin = job.instance("count", 0)
        # All 8 of instance 0's key groups are back under its ownership.
        assert job.assignments["count"].ranges_of(0).span() in (0, 8)
        ranges = origin.state.owned_ranges()
        assert sum(hi - lo for lo, hi in ranges) == 8

    def test_exactly_once_preserved_through_abort(self):
        """Counting stays exact: the target's machine also hosted a
        stateful instance, so recovery of that machine plus the aborted
        handover's rollback must together lose and duplicate nothing."""
        env, job, rhino, _handover, target = self.run_scenario()
        # The dead machine hosted count[1]; recover it (its replica path),
        # which also replays the records the aborted handover diverted.
        recovery = rhino.reconfigure("failure", machine=target.machine).process
        env.sim.run(until=recovery)
        env.run(until=30.0)
        assert final_counts(job) == expected_counts()

    def test_retry_after_abort_succeeds(self):
        env, job, rhino, _handover, target = self.run_scenario()
        recovery = rhino.reconfigure("failure", machine=target.machine).process
        env.sim.run(until=recovery)
        env.run(until=env.sim.now + 2.0)
        # Retry the rebalance toward a healthy instance.
        retry = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(0, 2)]
        ).process
        report = env.sim.run(until=retry)
        assert report.total_seconds is not None
        env.run(until=40.0)
        assert final_counts(job) == expected_counts()


class TestDeathBeforePrepare:
    """A participant dies inside the scheduling delay, before the handover
    is prepared and reachable by ``on_machine_failure``.  Nothing is
    pre-copied: count[3]'s worker already holds count[2]'s replica."""

    @pytest.mark.parametrize("index", [2, 3], ids=["origin", "target"])
    def test_handover_aborts_and_counts_stay_exact(self, index):
        env, job, rhino = setup()
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        victim = job.instance("count", index).machine
        handover = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(2, 3)]
        ).process
        handover.defused = True

        def killer():
            yield env.sim.timeout(0.1)  # scheduling_delay is 0.2 s
            env.cluster.kill(victim)

        env.sim.process(killer())
        env.run(until=4.0)
        # A dead origin used to strand the target waiting for its state
        # until handover_timeout; a dead target got the groups committed.
        assert handover.triggered and not handover.ok
        with pytest.raises(HandoverAborted):
            handover.value
        env.sim.run(until=rhino.reconfigure("failure", machine=victim).process)
        env.run(until=30.0)
        assert final_counts(job) == expected_counts()


class TestPartitionMidHandover:
    """A network partition (not a death) interrupts a handover: the
    failure detector's suspicion aborts it, the retry loop re-executes
    after the heal, and counting stays exactly-once throughout."""

    def run_scenario(self):
        env, job, rhino = setup(machines=6, handover_retry_attempts=6)
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        origin = job.instance("count", 0)
        target = job.instance("count", 1)
        assert origin.machine is not target.machine
        detector = FailureDetector(
            env.sim,
            env.cluster,
            machines=job.machines,
            home=origin.machine,
            heartbeat_interval=0.25,
            suspicion_timeout=0.5,
        )
        detector.start()
        rhino.enable_failure_detection(detector)

        def partitioner():
            yield env.sim.timeout(0.5)  # mid-handover (state load takes 1 s)
            env.cluster.partition([[target.machine]])
            yield env.sim.timeout(3.0)
            env.cluster.heal()

        handover = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(0, 1)]
        ).process
        handover.defused = True
        env.sim.process(partitioner())
        env.run(until=4.0)
        return env, job, rhino, detector, handover, target

    def test_suspicion_aborts_in_flight_handover(self):
        env, _job, _rhino, detector, _handover, target = self.run_scenario()
        assert any(
            name == target.machine.name and event == "suspect"
            for _t, name, event in detector.history
        )

    def test_handover_retries_and_succeeds_after_heal(self):
        env, job, _rhino, detector, handover, target = self.run_scenario()
        env.run(until=40.0)
        assert handover.triggered and handover.ok
        report = handover.value
        assert report.total_seconds is not None
        # Suspicion was revoked once the partition healed.
        assert not detector.is_suspected(target.machine)

    def test_exactly_once_across_abort_and_retry(self):
        env, job, _rhino, _detector, handover, _target = self.run_scenario()
        env.run(until=40.0)
        assert handover.ok
        assert final_counts(job) == expected_counts()


class TestRescaleTargetDeath:
    def test_spawned_target_is_removed_on_abort(self):
        env, job, rhino = setup(machines=5)
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        spare = job.machines[4]
        rescale = rhino.reconfigure(
            "rescale", op_name="count", add_instances=1, machines=[spare]
        ).process
        rescale.defused = True

        # Find the spawned instance's machine once it exists, then kill it.
        def killer():
            yield env.sim.timeout(0.7)
            spawned = job.instances.get(("count", 4))
            if spawned is not None:
                env.cluster.kill(spawned.machine)

        env.sim.process(killer())
        env.run(until=4.0)
        if rescale.triggered and not rescale.ok:
            # Aborted: the spawned instance is gone from the job.
            assert ("count", 4) not in job.instances

    def test_aborted_drain_leaks_no_parallelism(self):
        """Regression: a drain used to raise ``parallelism`` before its
        handover ran, so an abort left a phantom index behind and the next
        drain deployed ``count[5]`` beside a ``count[4]`` nobody hosts."""
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        op = job.graph.operators["count"]
        victim = job.instance("count", 1).machine
        drain = rhino.reconfigure("drain", machine=victim).process
        drain.defused = True

        dead = []

        def killer():
            yield env.sim.timeout(0.7)
            dead.append(job.instance("count", 4).machine)
            env.cluster.kill(dead[0])

        env.sim.process(killer())
        env.run(until=4.0)
        assert drain.triggered and not drain.ok
        with pytest.raises(HandoverAborted):
            drain.value
        assert ("count", 4) not in job.instances
        assert op.parallelism == len(job.operator_instances("count")) == 4
        env.sim.run(until=rhino.reconfigure("failure", machine=dead[0]).process)
        env.run(until=env.sim.now + 2.0)
        # The retry reuses the index the aborted attempt gave back (the
        # recovery moved a second instance onto the victim, so it spawns two).
        retry = rhino.reconfigure("drain", machine=victim).process
        env.sim.run(until=retry)
        indexes = [i.index for i in job.operator_instances("count")]
        assert indexes == list(range(op.parallelism)) and 4 in indexes
        assert job.instance("count", 4).state.owned_ranges()
        env.run(until=40.0)
        assert final_counts(job) == expected_counts()

    def test_bystander_death_does_not_abort(self):
        """A machine hosting neither origin nor target only loses acks."""
        env, job, rhino = setup(machines=6)
        live_feeder(env, "events", KEYS, count=TOTAL, interval=0.02)
        env.run(until=2.0)
        origin = job.instance("count", 0)
        target = job.instance("count", 1)
        bystander = next(
            m
            for m in job.machines
            if m.alive
            and m is not origin.machine
            and m is not target.machine
            and all(
                i.machine is not m
                for i in job.all_instances()
            )
        )
        handover = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(0, 1)]
        ).process

        def killer():
            yield env.sim.timeout(0.5)
            env.cluster.kill(bystander)

        env.sim.process(killer())
        report = env.sim.run(until=handover)
        assert report.total_seconds is not None
