"""Unit tests for the graph builder and job deployment wiring."""

import pytest

from repro.common.errors import EngineError
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import PassThroughLogic, StatefulCounterLogic

from tests.engine_fixtures import EngineEnv


class TestGraphBuilder:
    def test_duplicate_vertex_rejected(self):
        graph = StreamGraph("g")
        graph.source("src", topic="t", parallelism=1)
        with pytest.raises(EngineError):
            graph.source("src", topic="t2", parallelism=1)
        with pytest.raises(EngineError):
            graph.operator("src", PassThroughLogic, 1, inputs=[("src", "hash")])

    def test_unknown_upstream_rejected(self):
        graph = StreamGraph("g")
        graph.source("src", topic="t", parallelism=1)
        with pytest.raises(EngineError):
            graph.operator("op", PassThroughLogic, 1, inputs=[("ghost", "hash")])

    def test_unknown_partitioning_rejected(self):
        graph = StreamGraph("g")
        graph.source("src", topic="t", parallelism=1)
        with pytest.raises(EngineError):
            graph.operator("op", PassThroughLogic, 1, inputs=[("src", "rebalance")])

    def test_validate_requires_sources(self):
        graph = StreamGraph("g")
        with pytest.raises(EngineError):
            graph.validate()

    def test_inbound_outbound_edges(self):
        graph = StreamGraph("g")
        graph.source("a", topic="t", parallelism=1)
        graph.source("b", topic="t2", parallelism=1)
        graph.operator(
            "join", PassThroughLogic, 2, inputs=[("a", "hash"), ("b", "hash")]
        )
        graph.sink("out", inputs=[("join", "forward")])
        assert len(graph.inbound_edges("join")) == 2
        assert [e.downstream for e in graph.edges if e.upstream == "join"] == ["out"]
        assert {e.input_index for e in graph.inbound_edges("join")} == {0, 1}

    def test_stateful_operators_listing(self):
        graph = StreamGraph("g")
        graph.source("src", topic="t", parallelism=1)
        graph.operator("a", PassThroughLogic, 1, inputs=[("src", "hash")])
        graph.operator(
            "b", StatefulCounterLogic, 1, inputs=[("src", "hash")], stateful=True
        )
        stateful = [op.name for op in graph.operators.values() if op.stateful]
        assert stateful == ["b"]

    def test_vertex_lookup(self):
        graph = StreamGraph("g")
        graph.source("src", topic="t", parallelism=3)
        assert graph.vertex("src").parallelism == 3
        with pytest.raises(EngineError):
            graph.vertex("nope")


def deployed_job(machines=3, source_dop=2, op_dop=4):
    env = EngineEnv(machines=machines)
    env.topic("events", source_dop)
    graph = StreamGraph("deploy")
    graph.source("src", topic="events", parallelism=source_dop)
    graph.operator(
        "count", StatefulCounterLogic, op_dop, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")])
    job = env.job(graph, config=JobConfig(num_key_groups=16))
    job.deploy()
    return env, job


class TestDeployment:
    def test_round_robin_placement(self):
        env, job = deployed_job(machines=3, op_dop=4)
        machines = [job.instance("count", i).machine.name for i in range(4)]
        assert machines == ["w-0", "w-1", "w-2", "w-0"]

    def test_channel_mesh_is_complete(self):
        env, job = deployed_job(source_dop=2, op_dop=4)
        for index in range(4):
            instance = job.instance("count", index)
            producers = {c.src_instance.instance_id for c in instance.inputs}
            assert producers == {"src[0]", "src[1]"}

    def test_double_deploy_rejected(self):
        env, job = deployed_job()
        with pytest.raises(EngineError):
            job.deploy()

    def test_state_ownership_covers_key_space(self):
        env, job = deployed_job(op_dop=4)
        covered = []
        for index in range(4):
            for lo, hi in job.instance("count", index).state.owned_ranges():
                covered.extend(range(lo, hi))
        assert sorted(covered) == list(range(16))

    def test_spawn_rejects_duplicate_index(self):
        env, job = deployed_job()
        job.start()
        with pytest.raises(EngineError):
            job.spawn_operator_instance("count", 0, env.machines[0])

    def test_spawned_instance_is_fully_wired(self):
        env, job = deployed_job()
        job.start()
        spawned = job.spawn_operator_instance("count", 4, env.machines[1])
        assert len(spawned.inputs) == 2  # both sources connect
        assert len(spawned.output_routers) == 1  # edge to the sink
        sink = job.instance("out", 0)
        assert any(c.src_instance is spawned for c in sink.inputs)

    def test_remove_instance_unwires_channels(self):
        env, job = deployed_job()
        job.start()
        sink = job.instance("out", 0)
        channels_before = len(sink.inputs)
        job.remove_instance("count", 3)
        assert ("count", 3) not in job.instances
        assert len(sink.inputs) == channels_before - 1

    def test_replace_keeps_key_group_ranges(self):
        env, job = deployed_job()
        job.start()
        old_ranges = job.instance("count", 1).state.owned_ranges()
        replacement = job.replace_instance("count", 1, env.machines[2])
        assert replacement.state.owned_ranges() == old_ranges
        assert replacement.machine is env.machines[2]

    def test_sink_results_empty_before_start(self):
        env, job = deployed_job()
        assert job.sink_results("out") == []

    def test_total_state_bytes_sums_instances(self):
        env, job = deployed_job()
        job.start()
        for index in range(4):
            instance = job.instance("count", index)
            lo, hi = next(iter(instance.state.owned_ranges()))
            instance.state.put(lo, f"k{index}", 1, nbytes=25)
        states = [i.state for i in job.stateful_instances("count")]
        assert sum(state.total_bytes for state in states) == 100
