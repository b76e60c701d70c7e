"""Unit tests for the checkpoint coordinator and DFS checkpoint storage."""

import pytest

from repro.common.errors import EngineError
from repro.engine.checkpointing import DFSCheckpointStorage
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic

from tests.engine_fixtures import EngineEnv, live_feeder, make_dfs

KEYS = ["a", "b", "c", "d"]


def make_job(env, interval=1.0, storage=None):
    graph = StreamGraph("coord")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 2, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")])
    config = JobConfig(
        num_key_groups=16,
        checkpoint_interval=interval,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    return env.job(graph, config=config, storage=storage)


class TestCoordinatorLifecycle:
    def test_ids_are_monotone(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = make_job(env).start()
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=6.0)
        ids = [r.checkpoint_id for r in job.coordinator.completed]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_no_overlapping_checkpoints(self):
        """A new checkpoint is not triggered while one is pending."""
        env = EngineEnv()
        env.topic("events", 2)
        job = make_job(env, interval=0.01).start()  # absurdly frequent
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        completed = [r.checkpoint_id for r in job.coordinator.completed]
        # ids are consecutive: none were triggered concurrently and lost
        assert completed == list(range(1, len(completed) + 1))

    def test_manual_trigger_works_without_interval(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = make_job(env, interval=None).start()
        live_feeder(env, "events", KEYS, count=40, interval=0.02)
        env.run(until=1.5)
        checkpoint_id = job.coordinator.trigger_checkpoint()
        env.run(until=4.0)
        assert job.coordinator.completed[-1].checkpoint_id == checkpoint_id

    def test_latest_completed_without_any_raises(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = make_job(env, interval=None).start()
        with pytest.raises(EngineError):
            job.coordinator.latest_completed()

    def test_listeners_fire_on_completion(self):
        env = EngineEnv()
        env.topic("events", 2)
        job = make_job(env).start()
        seen = []
        job.coordinator.checkpoint_listeners.append(
            lambda record: seen.append(record.checkpoint_id)
        )
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=4.0)
        assert seen == [r.checkpoint_id for r in job.coordinator.completed]


class TestDFSCheckpointStorage:
    def test_tables_uploaded_once(self):
        env = EngineEnv()
        env.topic("events", 2)
        dfs = make_dfs(env)
        storage = DFSCheckpointStorage(env.sim, dfs)
        job = make_job(env, storage=storage).start()
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=6.0)
        uploaded_first = storage.uploaded_bytes
        paths_first = set(dfs.namenode.paths())
        env.run(until=8.0)  # further checkpoints with no new data
        assert set(dfs.namenode.paths()) >= paths_first
        # No table is re-uploaded: bytes only grow with genuinely new data.
        assert storage.uploaded_bytes >= uploaded_first

    def test_fetch_returns_uploaded_bytes(self):
        env = EngineEnv()
        env.topic("events", 2)
        dfs = make_dfs(env)
        storage = DFSCheckpointStorage(env.sim, dfs)
        job = make_job(env, storage=storage).start()
        live_feeder(env, "events", KEYS, count=60, interval=0.02, nbytes=300)
        env.run(until=4.0)
        record = job.coordinator.latest_completed()
        checkpoint = next(iter(record.checkpoints.values()))
        fetch = storage.fetch(env.machines[-1], checkpoint)
        fetched = env.sim.run(until=fetch)
        assert fetched == sum(t.size_bytes for t in checkpoint.full_tables)

    def test_persist_timings_recorded(self):
        env = EngineEnv()
        env.topic("events", 2)
        dfs = make_dfs(env)
        storage = DFSCheckpointStorage(env.sim, dfs)
        job = make_job(env, storage=storage).start()
        live_feeder(env, "events", KEYS, count=60, interval=0.02, nbytes=500)
        env.run(until=4.0)
        assert storage.persist_timings
        for nbytes, seconds in storage.persist_timings:
            assert nbytes > 0 and seconds >= 0
