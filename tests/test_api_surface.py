"""Tests for the public API surface: reconfigure, config validation,
attach/detach idempotency."""

import inspect

import pytest

from repro.baselines.rhinodfs import make_rhinodfs
from repro.common.errors import EngineError, ProtocolError
from repro.core.api import Reconfiguration, Rhino, RhinoConfig
from repro.core.handover import HandoverMarker
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.experiments.harness import Testbed
from repro.experiments.scenarios.chaos import run_chaos
from repro.experiments.timeline import run_single_event
from repro.sim.kernel import Process

from tests.engine_fixtures import EngineEnv, live_feeder, make_dfs

KEYS = ["alpha", "bravo", "charlie", "delta"]


def counter_graph():
    graph = StreamGraph("counter")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        4,
        inputs=[("src", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    return graph


def make_env(machines=4):
    env = EngineEnv(machines=machines)
    env.topic("events", 2)
    return env


def start_job(env):
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    return env.job(counter_graph(), config=config).start()


def make_rhino(env, job, **overrides):
    defaults = dict(
        replication_factor=1,
        scheduling_delay=0.1,
        local_fetch_seconds=0.01,
        state_load_seconds=0.05,
    )
    defaults.update(overrides)
    return Rhino(job, env.cluster, RhinoConfig(**defaults))


class TestRhinoConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            RhinoConfig(2)  # noqa: the point is rejecting positionals

    def test_defaults_are_valid(self):
        config = RhinoConfig()
        assert config.replication_factor == 1
        assert config.dfs_storage is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replication_factor": -1},
            {"block_size": 0},
            {"block_size": -5},
            {"credit_window_bytes": 0},
            {"anti_entropy_interval": 0},
            {"scheduling_delay": -0.1},
            {"local_fetch_seconds": -1},
            {"state_load_seconds": -1},
            {"handover_timeout": 0},
        ],
    )
    def test_invalid_values_fail_at_construction(self, kwargs):
        with pytest.raises(ProtocolError):
            RhinoConfig(**kwargs)

    def test_make_rhinodfs_selects_the_dfs_path(self):
        """The DFS path is ``dfs_storage is not None``; ``make_rhinodfs``
        sets it, and a control group still refuses the DFS variant."""
        env = make_env()
        job = start_job(env)
        rhino = make_rhinodfs(job, env.cluster, make_dfs(env))
        assert rhino.dfs_storage is job.checkpoint_storage
        assert rhino.config.dfs_storage is rhino.dfs_storage
        # No chain replication: the checkpoint listener stays unregistered.
        assert (
            rhino._on_instance_checkpoint
            not in job.coordinator.instance_checkpoint_listeners
        )
        with pytest.raises(ProtocolError, match="dfs_storage"):
            rhino.enable_control_group(env.machines[:3])

    def test_paper_defaults_match_table1_constants(self):
        config = RhinoConfig()
        assert config.local_fetch_seconds == 0.2
        assert config.state_load_seconds == 1.3

    def test_from_dict_round_trips(self):
        config = RhinoConfig(replication_factor=2, block_size=1024)
        clone = RhinoConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ProtocolError, match="replication_factr"):
            RhinoConfig.from_dict({"replication_factr": 2})

    def test_from_dict_rejects_a_removed_option(self):
        for removed in (
            "pipelined_handover",
            "retry_base_delay",
            "retry_max_delay",
            "retry_jitter",
            "handover_retry_delay",
            "use_dfs",
            "handover_chunk_bytes",
            "handover_delta_threshold_bytes",
            "handover_migration_rate",
        ):
            with pytest.raises(ProtocolError, match=removed):
                RhinoConfig.from_dict({removed: 1})

    def test_field_set_is_pinned(self):
        """A new knob is a reviewed decision: it has to edit this set."""
        assert set(RhinoConfig().to_dict()) == {
            "replication_factor",
            "dfs_storage",
            "block_size",
            "credit_window_bytes",
            "scheduling_delay",
            "local_fetch_seconds",
            "state_load_seconds",
            "handover_timeout",
            "retry_attempts",
            "retry_seed",
            "handover_retry_attempts",
            "anti_entropy_interval",
        }

    def test_from_dict_validates(self):
        with pytest.raises(ProtocolError):
            RhinoConfig.from_dict({"replication_factor": -3})


class TestJobConfig:
    def test_field_set_is_pinned(self):
        """A new knob is a reviewed decision: it has to edit this list."""
        assert sorted(vars(JobConfig())) == [
            "checkpoint_interval",
            "exchange_interval",
            "num_key_groups",
            "source_idle_timeout",
            "source_rate_limit",
            "virtual_node_count",
            "watermark_interval",
        ]

    @pytest.mark.parametrize(
        "removed",
        [
            {"data_plane": "record"},
            {"channel_capacity": 1},
            {"channel_capacity_batches": 64},
            {"source_max_poll": 64},
            {"memtable_limit": 64 * 1024 * 1024},
            {"compaction_trigger": 8},
        ],
    )
    def test_removed_options_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            JobConfig(**removed)

    @pytest.mark.parametrize(
        "field, value",
        [
            # An idle source would re-poll forever at one instant.
            ("source_idle_timeout", 0),
            ("source_idle_timeout", -0.05),
            ("watermark_interval", -1.0),
            ("exchange_interval", 0),
            ("exchange_interval", -0.25),
        ],
    )
    def test_out_of_range_timing_is_a_typed_error(self, field, value):
        with pytest.raises(EngineError, match=rf"{field} must be .*got {value}\b"):
            JobConfig(**{field: value})

    def test_zero_watermark_interval_is_valid(self):
        """It means "a watermark after every batch"."""
        assert JobConfig(watermark_interval=0).watermark_interval == 0


class TestExperimentSurface:
    """The experiment entry points' parameters, pinned like the config
    fields: a new parameter is a reviewed decision that edits this list."""

    PINNED = {
        "run_chaos": (
            run_chaos,
            "seed machines records fault_count kinds tracer max_sim_time "
            "rebalance_at artifacts_dir control_replicas control_kill_at "
            "control_kill_count membership_change_at",
        ),
        "Testbed.__init__": (Testbed.__init__, "self seed rate_scale trace"),
        "Testbed.deploy": (
            Testbed.deploy,
            "self sut_name query_name checkpoint_interval stateful_dop "
            "replication_factor anti_entropy_interval",
        ),
        "run_single_event": (
            run_single_event,
            "sut_name query kind params event_at preload_at preload_bytes "
            "tail tail_from_event checkpoint_interval stateful_dop rate_scale "
            "rate_profile monitor seed trace",
        ),
        "make_rhinodfs": (make_rhinodfs, "job cluster dfs config_overrides"),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_parameter_names_are_pinned(self, name):
        function, names = self.PINNED[name]
        assert list(inspect.signature(function).parameters) == names.split()


class TestReconfigure:
    def test_public_surface_is_pinned(self):
        """A new verb is a reviewed decision: it has to edit this list.
        ``reconfigure`` is the only one that changes the job."""
        assert sorted(n for n in vars(Rhino) if not n.startswith("_")) == [
            "RECONFIGURE_KINDS",
            "attach",
            "attached",
            "detach",
            "enable_control_group",
            "enable_failure_detection",
            "rebuild_replica_groups",
            "reconfigure",
            "replica_bytes_on",
            "replication_in_flight",
            "reports",
        ]
        assert Rhino.RECONFIGURE_KINDS == ("failure", "rescale", "rebalance", "drain")

    def test_unknown_kind(self):
        env = make_env()
        rhino = make_rhino(env, start_job(env)).attach()
        with pytest.raises(ProtocolError, match="unknown reconfiguration kind"):
            rhino.reconfigure("explode")

    def test_missing_required_argument(self):
        env = make_env()
        rhino = make_rhino(env, start_job(env)).attach()
        with pytest.raises(ProtocolError, match="missing a required.*'machine'"):
            rhino.reconfigure("failure")

    def test_unexpected_argument(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        with pytest.raises(ProtocolError, match="unexpected keyword.*'bogus'"):
            rhino.reconfigure("drain", machine=job.machines[0], bogus=1)

    def test_empty_plan_list(self):
        env = make_env()
        rhino = make_rhino(env, start_job(env)).attach()
        with pytest.raises(ProtocolError, match="non-empty list"):
            rhino.reconfigure([])

    def test_rebalance_returns_typed_handle(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        handle = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        assert isinstance(handle, Reconfiguration)
        assert handle.kind == "rebalance"
        assert isinstance(handle.process, Process)
        assert not handle.done
        assert handle.report is None
        report = env.sim.run(until=handle.process)
        assert handle.done and handle.succeeded
        assert handle.report is report
        assert handle.reports == [report]

    def test_failure_recovery_via_reconfigure(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        handle = rhino.reconfigure("failure", machine=victim)
        report = env.sim.run(until=handle.process)
        assert handle.succeeded
        assert report is not None
        assert handle.report is report

    def test_handles_track_only_their_own_reports(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=150, interval=0.02)
        env.run(until=3.0)
        first = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        env.sim.run(until=first.process)
        second = rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
        env.sim.run(until=second.process)
        assert len(rhino.reports) == 2
        assert first.reports == [rhino.reports[0]]
        assert second.reports == [rhino.reports[1]]


class TestAttachDetach:
    def test_attach_is_idempotent(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job)
        assert not rhino.attached
        rhino.attach()
        assert rhino.attached
        listeners = list(job.coordinator.instance_checkpoint_listeners)
        failures = list(job.failure_listeners)
        rhino.attach()
        assert job.coordinator.instance_checkpoint_listeners == listeners
        assert job.failure_listeners == failures

    def test_detach_removes_what_attach_registered(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        assert HandoverMarker in job.marker_handlers
        rhino.detach()
        assert not rhino.attached
        assert HandoverMarker not in job.marker_handlers
        assert (
            rhino._on_instance_checkpoint
            not in job.coordinator.instance_checkpoint_listeners
        )
        assert rhino._on_machine_failure not in job.failure_listeners

    def test_detach_is_idempotent(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        rhino.detach()
        rhino.detach()  # no error, no state change
        assert not rhino.attached

    def test_detach_before_attach_is_a_noop(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job)
        assert rhino.detach() is rhino

    def test_reattach_after_detach(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        rhino.detach()
        rhino.attach()
        assert rhino.attached
        assert job.marker_handlers[HandoverMarker] == rhino.handover_manager.on_marker

    def test_second_rhino_does_not_leak_old_listeners(self):
        env = make_env()
        job = start_job(env)
        old = make_rhino(env, job).attach()
        old.detach()
        new = make_rhino(env, job).attach()
        listeners = job.coordinator.instance_checkpoint_listeners
        assert old._on_instance_checkpoint not in listeners
        assert new._on_instance_checkpoint in listeners
        assert job.marker_handlers[HandoverMarker] == new.handover_manager.on_marker
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=5.0)
        # Only the new library replicates; the detached one stays silent.
        assert new.replicator.stats.checkpoints_replicated > 0
        assert old.replicator.stats.checkpoints_replicated == 0

    def test_stale_listener_is_inert_even_if_left_behind(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        rhino._attached = False  # simulate a leaked registration
        live_feeder(env, "events", KEYS, count=60, interval=0.02)
        env.run(until=5.0)
        assert rhino.replicator.stats.checkpoints_replicated == 0
