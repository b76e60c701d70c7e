"""Testbed construction and system-under-test handles.

One :class:`Testbed` = the paper's SUT deployment: 8 worker VMs, the
durable log (Kafka stand-in, provisioned to never bottleneck), the DFS
colocated with the workers, a NEXMark generator, and one of the four SUTs:

>>> testbed = Testbed()
>>> handle = testbed.deploy("rhino", "nbq8")
>>> testbed.start_workload("nbq8")
>>> testbed.sim.run(until=60.0)

The :class:`SutHandle` subclasses give every SUT the same reconfiguration
verbs (``recover``, ``rescale``, ``rebalance``) so scenarios are written
once and parameterized by SUT name.
"""

from repro.baselines import FlinkRuntime, FlinkConfig, Megaphone, MegaphoneConfig
from repro.baselines.rhinodfs import make_rhinodfs
from repro.cluster import Cluster, ResourceMonitor
from repro.common.errors import ReproError
from repro.core.api import Rhino, RhinoConfig
from repro.engine.checkpointing import DFSCheckpointStorage
from repro.engine.job import Job, JobConfig
from repro.experiments.calibration import Calibration
from repro.experiments import preload as preload_module
from repro.obs import Tracer
from repro.nexmark import (
    AUCTION_BYTES,
    BID_BYTES,
    PERSON_BYTES,
    NexmarkGenerator,
    StreamSpec,
    nbq5,
    nbq8,
    nbqx,
)
from repro.sim import Simulator
from repro.storage.dfs import DistributedFileSystem
from repro.storage.log import DurableLog


class QuerySpec:
    """Workload metadata: topics, record sizes, rates, stateful operators."""

    def __init__(self, name, builder, topics, stateful_ops, target_latency):
        self.name = name
        self.builder = builder
        self.topics = topics  # topic -> (record_bytes, rate_fraction)
        self.stateful_ops = stateful_ops
        self.target_latency = target_latency


def _query_registry(cal):
    return {
        "nbq5": QuerySpec(
            "nbq5",
            nbq5,
            {"bids": (BID_BYTES, cal.nbq5_rate)},
            ["agg"],
            target_latency=0.5,
        ),
        "nbq8": QuerySpec(
            "nbq8",
            nbq8,
            {
                "persons": (PERSON_BYTES, cal.nbq8_rate),
                "auctions": (AUCTION_BYTES, cal.nbq8_rate),
            },
            ["join"],
            target_latency=0.5,
        ),
        "nbqx": QuerySpec(
            "nbqx",
            nbqx,
            {
                "auctions": (AUCTION_BYTES, cal.nbqx_rate),
                "bids": (BID_BYTES, cal.nbqx_rate),
            },
            [
                "session_join_30m",
                "session_join_60m",
                "session_join_90m",
                "session_join_120m",
                "tumbling_join",
            ],
            target_latency=5.0,
        ),
    }


SUTS = ("rhino", "rhinodfs", "flink", "megaphone")


class Testbed:
    """The simulated cluster plus workload plumbing."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(
        self,
        calibration=None,
        seed=42,
        workers=None,
        rate_scale=None,
        trace=False,
        tracer=None,
    ):
        self.cal = calibration or Calibration()
        self.seed = seed
        if tracer is None and trace:
            tracer = Tracer()
        self.sim = Simulator(tracer=tracer)
        #: The simulator's tracer (NULL_TRACER unless tracing was requested).
        self.tracer = self.sim.tracer
        self.cluster = Cluster(self.sim)
        self.workers = self.cluster.add_machines(
            workers or self.cal.workers,
            prefix="worker",
            cores=self.cal.processing_cores,
            memory=self.cal.memory_per_worker,
            nic_bandwidth=self.cal.nic_bandwidth,
            disks=self.cal.disks_per_worker,
            disk_read_bandwidth=self.cal.disk_read_bandwidth,
            disk_write_bandwidth=self.cal.disk_write_bandwidth,
            disk_capacity=self.cal.disk_capacity,
            network_latency=self.cal.network_latency,
        )
        self.log = DurableLog(self.sim, scheduler=self.cluster.scheduler)
        self.dfs = DistributedFileSystem(
            self.sim,
            self.cluster,
            self.workers,
            block_size=self.cal.dfs_block_size,
            replication=self.cal.dfs_replication,
            seed=seed,
        )
        self.queries = _query_registry(self.cal)
        #: Workload rate multiplier: scenarios that only measure migration
        #: arithmetic run the stream at a fraction of the paper's rate.
        self.rate_scale = rate_scale if rate_scale is not None else 1.0
        self.generator = None
        self.monitor = None

    # -- workload -------------------------------------------------------------

    def query(self, name):
        """The QuerySpec for a workload name."""
        spec = self.queries.get(name)
        if spec is None:
            raise ReproError(f"unknown query {name!r}")
        return spec

    def create_topics(self, query_name):
        """Create the workload's log topics if missing."""
        spec = self.query(query_name)
        for topic in spec.topics:
            if topic not in self.log.topics:
                self.log.create_topic(topic, self.cal.source_dop)

    def build_generator(self, query_name, rate_profile=None):
        """The NEXMark generator for a query's streams (§5.1.4)."""
        spec = self.query(query_name)
        self.create_topics(query_name)
        generator = NexmarkGenerator(
            self.sim, self.log, seed=self.seed, tick=self.cal.generator_tick
        )
        for topic, (record_bytes, rate) in spec.topics.items():
            effective = (
                rate_profile
                if rate_profile is not None
                else rate * self.rate_scale
            )
            generator.add_stream(
                StreamSpec(
                    topic,
                    record_bytes,
                    effective,
                    key_space=1_000_000,
                    keys_per_tick=self.cal.keys_per_tick,
                )
            )
        self.generator = generator
        return generator

    def start_workload(self, query_name, rate_profile=None):
        """Build and start the NEXMark generator for a query."""
        generator = self.build_generator(query_name, rate_profile)
        generator.start()
        return generator

    def start_monitor(self, interval=10.0):
        """Start sampling cluster resource utilization."""
        self.monitor = ResourceMonitor(
            self.sim, self.cluster, machines=self.workers, interval=interval
        )
        self.monitor.start()
        return self.monitor

    # -- SUT deployment ----------------------------------------------------------

    def job_config(self, checkpoint_interval=None, query_name="nbq8"):
        """The calibrated JobConfig for a workload."""
        spec = self.query(query_name)
        rate_total = sum(r for _b, r in spec.topics.values()) * self.rate_scale
        per_source = rate_total / max(1, self.cal.source_dop * len(spec.topics))
        return JobConfig(
            num_key_groups=self.cal.num_key_groups,
            virtual_node_count=self.cal.virtual_nodes,
            checkpoint_interval=checkpoint_interval,
            memtable_limit=self.cal.kvs_memtable_limit,
            compaction_trigger=self.cal.kvs_compaction_trigger,
            exchange_interval=self.cal.exchange_interval,
            watermark_interval=self.cal.watermark_interval,
            source_idle_timeout=self.cal.generator_tick,
            source_rate_limit=per_source * self.cal.catchup_factor,
        )

    def deploy(
        self,
        sut_name,
        query_name,
        checkpoint_interval=None,
        stateful_dop=None,
        replication_factor=1,
        anti_entropy_interval=None,
    ):
        """Deploy a SUT running ``query_name``; returns its handle."""
        if checkpoint_interval is None:
            checkpoint_interval = self.cal.checkpoint_interval
        spec = self.query(query_name)
        self.create_topics(query_name)
        dop = stateful_dop or self.cal.stateful_dop
        config = self.job_config(checkpoint_interval, query_name)
        if sut_name == "flink":
            runtime = FlinkRuntime(
                self.sim,
                self.cluster,
                lambda: spec.builder(self.cal.source_dop, dop),
                self.log,
                self.workers,
                config,
                self.dfs,
                config=FlinkConfig(
                    restart_delay=self.cal.flink_restart_delay,
                    state_load_seconds=self.cal.flink_state_load_seconds,
                ),
            ).start()
            return FlinkHandle(self, spec, runtime)
        graph = spec.builder(self.cal.source_dop, dop)
        if sut_name == "rhino":
            job = Job(
                self.sim, self.cluster, graph, self.log, self.workers, config=config
            ).start()
            rhino = Rhino(
                job,
                self.cluster,
                RhinoConfig(
                    replication_factor=replication_factor,
                    block_size=self.cal.replication_block_size,
                    credit_window_bytes=self.cal.credit_window_bytes,
                    scheduling_delay=self.cal.rhino_scheduling_delay,
                    local_fetch_seconds=self.cal.rhino_local_fetch_seconds,
                    state_load_seconds=self.cal.rhino_state_load_seconds,
                    anti_entropy_interval=anti_entropy_interval,
                ),
            ).attach()
            return RhinoHandle(self, spec, job, rhino)
        if sut_name == "rhinodfs":
            storage = DFSCheckpointStorage(self.sim, self.dfs, prefix="/rhinodfs")
            job = Job(
                self.sim,
                self.cluster,
                graph,
                self.log,
                self.workers,
                config=config,
                checkpoint_storage=storage,
            ).start()
            rhino = make_rhinodfs(
                job,
                self.cluster,
                self.dfs,
                scheduling_delay=self.cal.rhino_scheduling_delay,
                local_fetch_seconds=self.cal.rhino_local_fetch_seconds,
                state_load_seconds=self.cal.rhino_state_load_seconds,
            )
            return RhinoHandle(self, spec, job, rhino, name="rhinodfs")
        if sut_name == "megaphone":
            config.checkpoint_interval = None  # Megaphone has no checkpoints
            job = Job(
                self.sim, self.cluster, graph, self.log, self.workers, config=config
            ).start()
            megaphone = Megaphone(
                job,
                self.cluster,
                MegaphoneConfig(
                    serialize_throughput=self.cal.megaphone_serialize_throughput,
                    deserialize_throughput=self.cal.megaphone_deserialize_throughput,
                    bin_batch_groups=max(
                        1, self.cal.num_key_groups // (self.cal.stateful_dop * 16)
                    ),
                ),
            ).attach()
            return MegaphoneHandle(self, spec, job, megaphone)
        raise ReproError(f"unknown SUT {sut_name!r}")


class SutHandle:
    """Uniform verbs over one deployed SUT."""

    name = None

    def __init__(self, testbed, spec):
        self.testbed = testbed
        self.spec = spec

    @property
    def sim(self):
        """The testbed's simulator."""
        return self.testbed.sim

    @property
    def job(self):
        """The currently deployed job."""
        raise NotImplementedError

    @property
    def metrics(self):
        """The job's metric registry."""
        return self.job.metrics

    def primary_op(self):
        """The first (headline) stateful operator of the workload."""
        return self.spec.stateful_ops[0]

    def total_state_bytes(self):
        """Aggregate stateful bytes across the workload's operators."""
        return sum(
            self.job.total_state_bytes(op) for op in self.spec.stateful_ops
        )

    def preload(self, total_bytes, checkpoint_id=0):
        """Install prior state + checkpoint artifacts for every stateful op."""
        per_op = total_bytes // len(self.spec.stateful_ops)
        records = []
        for op_name in self.spec.stateful_ops:
            records.append(self._preload_op(op_name, per_op, checkpoint_id))
        return records

    def _preload_op(self, op_name, nbytes, checkpoint_id):
        raise NotImplementedError

    def recover(self, machine):
        """Reconfigure after (or instead of) a machine failure; returns a Process."""
        raise NotImplementedError

    def rescale(self, add_instances):
        """Scale the stateful operator; returns a Process."""
        raise NotImplementedError

    def rebalance(self, moves):
        """Move virtual nodes between instances; returns a Process."""
        raise NotImplementedError


class RhinoHandle(SutHandle):
    """Rhino and RhinoDFS (same verbs, different state path)."""

    def __init__(self, testbed, spec, job, rhino, name="rhino"):
        super().__init__(testbed, spec)
        self._job = job
        self.rhino = rhino
        self.name = name

    @property
    def job(self):
        """The currently deployed job."""
        return self._job

    @property
    def reports(self):
        """Handover reports, oldest first."""
        return self.rhino.reports

    def _preload_op(self, op_name, nbytes, checkpoint_id):
        dfs_storage = self.rhino.dfs_storage if self.rhino.config.use_dfs else None
        rhino = None if self.rhino.config.use_dfs else self.rhino
        return preload_module.preload_state(
            self._job,
            op_name,
            nbytes,
            checkpoint_id=checkpoint_id,
            rhino=rhino,
            dfs_storage=dfs_storage,
        )

    def recover(self, machine):
        """Reconfigure after (or instead of) a machine failure; returns a Process."""
        return self.rhino.reconfigure("failure", machine=machine).process

    def rescale(self, add_instances):
        """Scale the stateful operator; returns a Process."""
        return self.rhino.reconfigure(
            "rescale", op_name=self.primary_op(), add_instances=add_instances
        ).process

    def rebalance(self, moves):
        """Move virtual nodes between instances; returns a Process."""
        return self.rhino.reconfigure(
            "rebalance", op_name=self.primary_op(), moves=moves
        ).process


class FlinkHandle(SutHandle):
    """Verbs over the Flink baseline runtime."""
    name = "flink"

    def __init__(self, testbed, spec, runtime):
        super().__init__(testbed, spec)
        self.runtime = runtime

    @property
    def job(self):
        """The currently deployed job."""
        return self.runtime.job

    @property
    def metrics(self):
        """The job's metric registry."""
        return self.runtime.metrics

    @property
    def reports(self):
        """Handover reports, oldest first."""
        return self.runtime.reports

    def _preload_op(self, op_name, nbytes, checkpoint_id):
        return preload_module.preload_state(
            self.runtime.job,
            op_name,
            nbytes,
            checkpoint_id=checkpoint_id,
            dfs_storage=self.runtime.storage,
        )

    def recover(self, machine):
        """Reconfigure after (or instead of) a machine failure; returns a Process."""
        return self.runtime.recover_from_failure(machine)

    def rescale(self, add_instances):
        """Scale the stateful operator; returns a Process."""
        op = self.primary_op()
        current = self.runtime.job.graph.operators[op].parallelism
        return self.runtime.rescale(op, current + add_instances)

    def rebalance(self, moves):
        # Flink has no load balancing; the paper compares against vertical
        # scaling, which a caller invokes explicitly.
        """Move virtual nodes between instances; returns a Process."""
        raise ReproError("Flink does not support load balancing (§5.4.2)")


class MegaphoneHandle(SutHandle):
    """Verbs over the Megaphone baseline."""
    name = "megaphone"

    def __init__(self, testbed, spec, job, megaphone):
        super().__init__(testbed, spec)
        self._job = job
        self.megaphone = megaphone

    @property
    def job(self):
        """The currently deployed job."""
        return self._job

    @property
    def reports(self):
        """Handover reports, oldest first."""
        return self.megaphone.reports

    def _preload_op(self, op_name, nbytes, checkpoint_id):
        # No checkpoints, no replicas: only the in-memory state exists.
        return preload_module.preload_state(
            self._job, op_name, nbytes, checkpoint_id=checkpoint_id
        )

    def check_memory(self):
        """Charge preloaded state; returns the OOM error if it does not fit."""
        from repro.common.errors import OutOfMemoryError

        try:
            self.megaphone.account_memory()
        except OutOfMemoryError as error:
            self.megaphone._fail(error)
        return self.megaphone.failed

    def recover(self, machine):
        """Megaphone's equivalent reconfiguration: migrate the state held
        by ``machine``'s instances to instances on other workers (it has no
        failure handling of its own, §5.2.2)."""
        moves = []
        for op_name in self.spec.stateful_ops:
            instances = self._job.stateful_instances(op_name)
            targets = [i for i in instances if i.machine is not machine]
            for victim in [i for i in instances if i.machine is machine]:
                target = targets[victim.index % len(targets)]
                moves.append((op_name, victim.index, target.index))
        return self.sim.process(self._migrate_many(moves), name="megaphone-recover")

    def _migrate_many(self, moves):
        by_op = {}
        for op_name, origin, target in moves:
            by_op.setdefault(op_name, []).append((origin, target, 1.0))
        reports = []
        for op_name, op_moves in by_op.items():
            report = yield self.megaphone.migrate(op_name, op_moves)
            reports.append(report)
        return reports

    def rebalance(self, moves):
        """Move virtual nodes between instances; returns a Process."""
        return self.megaphone.migrate(
            self.primary_op(), [(o, t, 0.5) for o, t in moves]
        )

    def rescale(self, add_instances):
        """Scale the stateful operator; returns a Process."""
        raise ReproError("the Megaphone baseline does not model rescaling")
