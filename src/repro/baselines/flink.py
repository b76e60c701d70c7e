"""The Apache Flink baseline: stop, restore from DFS, replay.

Flink 1.6 (the paper's baseline) handles every reconfiguration by
restarting the query (§2.2.1, §3.1):

1. cancel the running job;
2. re-schedule every instance on the surviving workers;
3. each stateful instance *bulk-fetches* its checkpointed state from the
   DFS -- local blocks are read from local disks, remote blocks cross the
   network, so fetch time grows with total state size (Table 1);
4. sources rewind to the checkpoint's offsets and replay from the
   upstream backup, accumulating the latency lag of Figure 4.

Rescaling additionally *reshuffles* state: a new instance fetches every
old checkpoint whose key-group range overlaps its new range.
"""

from repro.common.errors import EngineError
from repro.engine.checkpointing import DFSCheckpointStorage
from repro.engine.instance import SourceInstance
from repro.engine.job import Job
from repro.engine.partitioning import KeyGroupAssignment, split_key_groups


class FlinkConfig:
    """Flink baseline tunables (calibrated against §5.2.1)."""

    def __init__(self, restart_delay=2.3, state_load_seconds=1.4):
        #: Cancel + reschedule time ("Scheduling" in Table 1, ~2.2-2.6 s).
        self.restart_delay = restart_delay
        #: RocksDB open + manifest processing ("State Loading", ~1.3-1.8 s).
        self.state_load_seconds = state_load_seconds


class FlinkReport:
    """Timing breakdown of one restart (Table 1's columns)."""

    def __init__(self, reason):
        self.reason = reason
        self.scheduling_seconds = 0.0
        self.fetching_seconds = 0.0
        self.loading_seconds = 0.0
        self.fetched_bytes = 0
        self.triggered_at = None
        self.completed_at = None

    @property
    def total_seconds(self):
        """Trigger-to-completion duration in seconds (None while running)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.triggered_at

    def __repr__(self):
        return (
            f"<FlinkReport {self.reason}: sched={self.scheduling_seconds:.2f}s "
            f"fetch={self.fetching_seconds:.2f}s load={self.loading_seconds:.2f}s>"
        )


class FlinkRuntime:
    """A query lifecycle manager with restart-based reconfiguration.

    Holds the current :class:`Job`; a recovery or rescale cancels it and
    deploys a fresh one, restoring state from the DFS checkpoint storage.
    Latency metrics and sink results span restarts.
    """

    def __init__(
        self, sim, cluster, graph_factory, log, machines, job_config, dfs, config=None
    ):
        self.sim = sim
        self.cluster = cluster
        self.graph_factory = graph_factory
        self.log = log
        self.machines = list(machines)
        self.job_config = job_config
        self.dfs = dfs
        self.config = config or FlinkConfig()
        self.storage = DFSCheckpointStorage(sim, dfs, prefix="/flink-checkpoints")
        self.job = None
        self.metrics = None
        self.reports = []
        self._past_sink_results = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Start the background process; returns it."""
        self.job = self._build_job()
        self.metrics = self.job.metrics
        self.job.start()
        return self

    def _build_job(self, parallelism_overrides=None):
        graph = self.graph_factory()
        if parallelism_overrides:
            for op_name, parallelism in parallelism_overrides.items():
                graph.operators[op_name].parallelism = parallelism
        machines = [m for m in self.machines if m.alive]
        if not machines:
            raise EngineError("no alive machines to deploy on")
        return Job(
            self.sim,
            self.cluster,
            graph,
            self.log,
            machines,
            config=self.job_config,
            checkpoint_storage=self.storage,
            metrics=self.metrics,
        )

    def sink_results(self, sink_name):
        """Concatenated sink outputs (spanning restarts where applicable)."""
        results = list(self._past_sink_results.get(sink_name, []))
        if self.job is not None:
            results.extend(self.job.sink_results(sink_name))
        return results

    def _archive_sinks(self, job):
        for sink_name in job.graph.sinks:
            self._past_sink_results.setdefault(sink_name, []).extend(
                job.sink_results(sink_name)
            )

    # -- reconfigurations ----------------------------------------------------------

    def recover_from_failure(self, failed_machine):
        """Full restart after a VM failure; returns a Process -> report."""
        return self.sim.process(
            self._restart(reason="failure"), name="flink-recover"
        )

    def rescale(self, op_name, new_parallelism):
        """Stop-and-restart rescaling with state reshuffling."""
        return self.sim.process(
            self._restart(
                reason="rescale", parallelism_overrides={op_name: new_parallelism}
            ),
            name="flink-rescale",
        )

    def _restart(self, reason, parallelism_overrides=None):
        report = FlinkReport(reason)
        report.triggered_at = self.sim.now
        old_job = self.job
        if not old_job.coordinator.has_completed():
            raise EngineError("Flink restart without a completed checkpoint")
        record = self._newest_covering_record(old_job)
        old_assignments = {
            name: assignment.copy()
            for name, assignment in old_job.assignments.items()
        }
        old_parallelism = {
            name: op.parallelism for name, op in old_job.graph.operators.items()
        }
        self._archive_sinks(old_job)
        old_job.stop()

        # 1+2: cancel and re-schedule.
        yield self.sim.timeout(self.config.restart_delay)
        new_job = self._build_job(parallelism_overrides)
        new_job.deploy()
        report.scheduling_seconds = self.sim.now - report.triggered_at

        # 3: bulk state fetch for every stateful instance, in parallel.
        fetch_start = self.sim.now
        restores = []
        for instance in new_job.stateful_instances():
            checkpoints = self._checkpoints_for(
                instance, record, old_assignments, old_parallelism, new_job
            )
            restores.append(
                self.sim.process(self._restore_instance(instance, checkpoints, report))
            )
        if restores:
            yield self.sim.all_of(restores)
        report.fetching_seconds = self.sim.now - fetch_start

        # 4: load, rewind sources, go.
        load_start = self.sim.now
        yield self.sim.timeout(self.config.state_load_seconds)
        report.loading_seconds = self.sim.now - load_start
        self.job = new_job
        new_job.start()
        for source in new_job.source_instances():
            offset = record.offsets.get(source.instance_id)
            if offset is not None:
                source.send_command("seek", offset)
        report.completed_at = self.sim.now
        self.reports.append(report)
        return report

    def _newest_covering_record(self, old_job):
        """The newest completed checkpoint covering every stateful instance.

        A checkpoint completed after a machine failure excludes the dead
        instances; restoring from it would silently lose their state.
        """
        needed = {i.instance_id for i in old_job.stateful_instances()}
        for record in reversed(old_job.coordinator.completed):
            if needed <= set(record.checkpoints):
                return record
        raise EngineError("no completed checkpoint covers all stateful instances")

    def _checkpoints_for(
        self, instance, record, old_assignments, old_parallelism, new_job
    ):
        """The old checkpoints overlapping this instance's new range."""
        op_name = instance.op.name
        old_assignment = old_assignments.get(op_name)
        if old_assignment is None:
            old_assignment = KeyGroupAssignment(
                new_job.config.num_key_groups, old_parallelism[op_name]
            )
        new_ranges = split_key_groups(
            new_job.config.num_key_groups, instance.op.parallelism
        )
        lo, hi = new_ranges[instance.index]
        overlapping = []
        for old_index in sorted(old_assignment.owners()):
            old_ranges = old_assignment.ranges_of(old_index)
            if old_ranges.intersects(lo, hi):
                checkpoint = record.checkpoints.get(f"{op_name}[{old_index}]")
                if checkpoint is not None:
                    overlapping.append(checkpoint)
        return overlapping

    def _restore_instance(self, instance, checkpoints, report):
        tables = []
        for checkpoint in checkpoints:
            fetched = yield self.storage.fetch(instance.machine, checkpoint)
            report.fetched_bytes += fetched
            tables.extend(checkpoint.full_tables)
        lo, hi = split_key_groups(
            instance.job.config.num_key_groups, instance.op.parallelism
        )[instance.index]
        instance.state.restore(tables, owned_ranges=[(lo, hi)])
        # Auxiliary indexes rebuild when the instance opens (it has not
        # started yet at this point).
