"""Tests for the public API surface: reconfigure, attach, config
validation."""

import inspect

import pytest

from repro.baselines.rhinodfs import make_rhinodfs
from repro.common.errors import EngineError, ProtocolError
from repro.core.api import Rhino, RhinoConfig
from repro.core.handover import HandoverMarker
from repro.core.replication import ReplicaChains
from repro.engine.checkpointing import DFSCheckpointStorage
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replication_factor": -1},
            {"replication_factor": 0},
            {"block_size": 0},
            {"block_size": -5},
            {"credit_window_bytes": 0},
            {"scheduling_delay": -0.1},
            {"local_fetch_seconds": -1},
            {"state_load_seconds": -1},
        ],
    )
    def test_invalid_values_fail_at_construction(self, kwargs):
        with pytest.raises(ProtocolError):
            RhinoConfig(**kwargs)

    def test_make_rhinodfs_selects_the_dfs_path(self):
        """The durability path is the job's checkpoint storage: attaching
        a plain ``Rhino`` to a locally checkpointing job installs its
        replica chains, ``make_rhinodfs`` installs DFS files that attach
        keeps, and a control group still refuses the DFS variant."""
        env = make_env()
        chained = start_job(env)
        rhino = make_rhino(env, chained).attach()
        assert isinstance(chained.checkpoint_storage, ReplicaChains)
        assert chained.checkpoint_storage.rhino is rhino
        job = start_job(env)
        rhino = make_rhinodfs(job, env.cluster, make_dfs(env))
        assert isinstance(job.checkpoint_storage, DFSCheckpointStorage)
        # No chain replication: completed checkpoints replicate nothing.
        env.run(until=2.5)
        assert job.coordinator.completed
        assert rhino.replicator.stats.checkpoints_replicated == 0
        with pytest.raises(ProtocolError, match="RhinoDFS"):
            rhino.enable_control_group(env.machines[:3])

    def test_paper_defaults_match_table1_constants(self):
        config = RhinoConfig()
        assert config.local_fetch_seconds == 0.2
        assert config.state_load_seconds == 1.3

    def test_misspelled_key_is_a_type_error(self):
        with pytest.raises(TypeError, match="replication_factr"):
            RhinoConfig(replication_factr=2)

    def test_removed_options_are_type_errors(self):
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
            "dfs_storage",
        ):
            with pytest.raises(TypeError, match=removed):
                RhinoConfig(**{removed: 1})

    @pytest.mark.parametrize(
        "removed",
        [
            "retry_attempts",
            "retry_seed",
            "handover_retry_attempts",
            "anti_entropy_interval",
            "handover_timeout",
        ],
    )
    def test_retries_are_not_a_setting(self, removed):
        """Every deployment retries blocks, re-runs handovers, reconciles
        replicas (once per completed checkpoint) and watches a handover
        (``HANDOVER_TIMEOUT``) by one rule each, so their former knobs are
        type errors."""
        with pytest.raises(TypeError, match=removed):
            RhinoConfig(**{removed: 1})

    def test_field_set_is_pinned(self):
        """A new knob is a reviewed decision: it has to edit this list."""
        assert sorted(vars(RhinoConfig())) == [
            "block_size",
            "credit_window_bytes",
            "local_fetch_seconds",
            "replication_factor",
            "scheduling_delay",
            "state_load_seconds",
        ]


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
            ("num_key_groups", 0),
            ("virtual_node_count", 0),
            # None disables checkpoints; a non-positive interval is an error.
            ("checkpoint_interval", 0),
            ("checkpoint_interval", -5),
            # None means no cap; zero is not a rate.
            ("source_rate_limit", 0),
            ("source_rate_limit", -1.0),
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
            "replication_factor",
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
            "enable_control_group",
            "enable_failure_detection",
            "reconfigure",
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
        """The handle is the driving process; its value is the report."""
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        process = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        assert isinstance(process, Process)
        assert process.name == "rhino-rebalance:count"
        assert not process.triggered
        report = env.sim.run(until=process)
        assert process.ok
        assert report is process.value
        assert rhino.reports == [report]

    def test_failure_recovery_via_reconfigure(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=100, interval=0.02)
        env.run(until=3.0)
        victim = job.instance("count", 2).machine
        env.cluster.kill(victim)
        recovery = rhino.reconfigure("failure", machine=victim)
        report = env.sim.run(until=recovery)
        assert recovery.ok
        assert report is not None
        assert rhino.reports[-1] is report

    def test_handles_track_only_their_own_reports(self):
        """Two back-to-back rebalances each return their own report."""
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job).attach()
        live_feeder(env, "events", KEYS, count=150, interval=0.02)
        env.run(until=3.0)
        first = env.sim.run(
            until=rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
        )
        second = env.sim.run(
            until=rhino.reconfigure("rebalance", op_name="count", moves=[(2, 3)])
        )
        assert first.handover_id != second.handover_id
        assert rhino.reports == [first, second]
        assert first.completed_at <= second.triggered_at


class TestAttach:
    def test_attach_registers_each_protocol_once(self):
        env = make_env()
        job = start_job(env)
        rhino = make_rhino(env, job)
        assert rhino.attach() is rhino
        assert job.marker_handlers[HandoverMarker] == rhino.handover_manager.on_marker
        # The replica chains are the job's checkpoint storage, installed
        # once: each instance's checkpoint replicates exactly once.
        assert isinstance(job.checkpoint_storage, ReplicaChains)
        env.run(until=1.5)
        [completed] = job.coordinator.completed
        assert rhino.replicator.stats.checkpoints_replicated == len(
            completed.checkpoints
        )
        assert job.failure_listeners.count(rhino._on_machine_failure) == 1
