"""Testbed construction and system-under-test handles.

One :class:`Testbed` = the paper's SUT deployment: 8 worker VMs, the
durable log (Kafka stand-in, provisioned to never bottleneck), the DFS
colocated with the workers, a NEXMark generator, and one of the four SUTs:

>>> testbed = Testbed()
>>> handle = testbed.deploy("rhino", "nbq8")
>>> testbed.start_workload("nbq8")
>>> testbed.sim.run(until=60.0)

Every SUT is driven through the same :meth:`SutHandle.reconfigure`, so
experiments are written once and parameterized by SUT name; what a kind
means for a SUT -- Rhino hands over, Megaphone migrates, Flink is killed
and restarts -- is decided there and nowhere else.
"""

from repro.baselines import FlinkRuntime, FlinkConfig, Megaphone, MegaphoneConfig
from repro.baselines.rhinodfs import make_rhinodfs
from repro.cluster import Cluster, ResourceMonitor
from repro.common.errors import OutOfMemoryError, ReproError
from repro.core.api import Rhino, RhinoConfig
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

    def __init__(self, name, builder, topics, stateful_ops):
        self.name = name
        self.builder = builder
        self.topics = topics  # topic -> (record_bytes, rate_fraction)
        self.stateful_ops = stateful_ops


def _query_registry(cal):
    return {
        "nbq5": QuerySpec(
            "nbq5",
            nbq5,
            {"bids": (BID_BYTES, cal.nbq5_rate)},
            ["agg"],
        ),
        "nbq8": QuerySpec(
            "nbq8",
            nbq8,
            {
                "persons": (PERSON_BYTES, cal.nbq8_rate),
                "auctions": (AUCTION_BYTES, cal.nbq8_rate),
            },
            ["join"],
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
        ),
    }


SUTS = ("rhino", "rhinodfs", "flink", "megaphone")

#: Reconfiguration kind -> (its one parameter, the default).
RECONFIGURE_KINDS = {
    "drain": ("machine", -1),
    "failure": ("machine", -1),
    "rescale": ("add_instances", 2),
    "rebalance": ("moves", ((0, 1),)),
}


class Testbed:
    """The simulated cluster plus workload plumbing."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(self, seed=42, rate_scale=None, trace=False):
        self.cal = Calibration()
        self.seed = seed
        self.sim = Simulator(tracer=Tracer() if trace else None)
        #: The simulator's tracer (NULL_TRACER unless tracing was requested).
        self.tracer = self.sim.tracer
        self.cluster = Cluster(self.sim)
        self.workers = self.cluster.add_machines(
            self.cal.workers,
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

    def build_generator(self, query_name, rate_profile=None, streams=None):
        """The NEXMark generator for a query's streams (§5.1.4).

        ``streams`` (a list of :class:`StreamSpec`) replaces the query's
        default streams -- the scenario DSL's per-topic overrides.
        """
        spec = self.query(query_name)
        self.create_topics(query_name)
        generator = NexmarkGenerator(
            self.sim, self.log, seed=self.seed, tick=self.cal.generator_tick
        )
        if streams is None:
            streams = [
                StreamSpec(
                    topic,
                    record_bytes,
                    rate_profile
                    if rate_profile is not None
                    else rate * self.rate_scale,
                    key_space=1_000_000,
                    keys_per_tick=self.cal.keys_per_tick,
                )
                for topic, (record_bytes, rate) in spec.topics.items()
            ]
        for stream in streams:
            generator.add_stream(stream)
        self.generator = generator
        return generator

    def start_workload(self, query_name, rate_profile=None, streams=None):
        """Build and start the NEXMark generator for a query."""
        generator = self.build_generator(query_name, rate_profile, streams)
        generator.start()
        return generator

    def start_monitor(self):
        """Start sampling cluster resource utilization."""
        self.monitor = ResourceMonitor(self.sim, self.cluster, machines=self.workers)
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
        if sut_name in ("rhino", "rhinodfs"):
            job = Job(
                self.sim, self.cluster, graph, self.log, self.workers, config=config
            ).start()
            if sut_name == "rhinodfs":
                rhino = make_rhinodfs(
                    job,
                    self.cluster,
                    self.dfs,
                    scheduling_delay=self.cal.rhino_scheduling_delay,
                    local_fetch_seconds=self.cal.rhino_local_fetch_seconds,
                    state_load_seconds=self.cal.rhino_state_load_seconds,
                )
                return RhinoHandle(self, spec, rhino, name="rhinodfs")
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
                ),
            ).attach()
            return RhinoHandle(self, spec, rhino)
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
            return MegaphoneHandle(self, spec, megaphone)
        raise ReproError(f"unknown SUT {sut_name!r}")


class SutHandle:
    """One deployed SUT behind a uniform :meth:`reconfigure`."""

    name = None
    #: The kinds that take the machine from this SUT by killing it.
    killed_by = ()

    def __init__(self, testbed, spec, system):
        self.testbed = testbed
        self.spec = spec
        #: The SUT's own runtime object (a Rhino, FlinkRuntime or Megaphone).
        self.system = system

    @property
    def job(self):
        """The currently deployed job (Flink's changes with every restart)."""
        return self.system.job

    @property
    def reports(self):
        """The SUT's reconfiguration reports, oldest first."""
        return self.system.reports

    @property
    def metrics(self):
        """The job's metric registry."""
        return self.job.metrics

    def primary_op(self):
        """The first (headline) stateful operator of the workload."""
        return self.spec.stateful_ops[0]

    def preload(self, total_bytes):
        """Install prior state + checkpoint artifacts for every stateful op."""
        per_op = total_bytes // len(self.spec.stateful_ops)
        return [
            preload_module.preload_state(
                self.job,
                op_name,
                per_op,
                storage=self._checkpoint_storage(),
            )
            for op_name in self.spec.stateful_ops
        ]

    def _checkpoint_storage(self):
        """Where this SUT keeps a completed checkpoint (replica chains or
        DFS files): the job's checkpoint storage."""
        return self.job.checkpoint_storage

    def check_memory(self):
        """The out-of-memory error if preloaded state does not fit, else
        None.  Only a SUT that holds its state in memory can fail here."""
        return None

    def reconfigure(self, kind, **params):
        """Issue one reconfiguration; returns its Process.

        ``params`` holds at most the kind's one parameter (see
        :data:`RECONFIGURE_KINDS`): ``machine`` indexes the testbed's
        workers, ``moves`` are ``(origin, target)`` instance pairs of the
        headline operator.  A kind the SUT cannot serve raises
        :class:`ReproError` before the cluster is touched.

        This is the only place an experiment kills a machine: a ``failure``
        costs Rhino and Flink the machine, a ``drain`` only Flink (its one
        mechanism is the restart); Megaphone has no failure handling
        (§5.2.2), keeps the machine through both and migrates off it.
        """
        if kind not in RECONFIGURE_KINDS:
            raise ReproError(
                f"unknown reconfiguration kind {kind!r} "
                f"(expected {tuple(RECONFIGURE_KINDS)})"
            )
        name, default = RECONFIGURE_KINDS[kind]
        value = params.pop(name, default)
        if params:
            raise ReproError(f"{kind} action has unknown params {params}")
        if kind == "rescale":
            return self._rescale(value)
        if kind == "rebalance":
            return self._rebalance([tuple(move) for move in value])
        machine = self.testbed.workers[value]
        if kind in self.killed_by:
            self.testbed.cluster.kill(machine)
        return self._vacate(kind, machine)

    def _vacate(self, kind, machine):
        """Move the job off ``machine`` (already dead if ``kind`` kills)."""
        raise NotImplementedError

    def _rescale(self, add_instances):
        raise ReproError(f"the {self.name} SUT does not model rescaling")

    def _rebalance(self, moves):
        # §5.4.2 compares Flink against vertical scaling instead, which a
        # caller invokes explicitly.
        raise ReproError(f"{self.name} does not support load balancing (§5.4.2)")


class RhinoHandle(SutHandle):
    """Rhino and RhinoDFS (same verbs, different state path)."""

    def __init__(self, testbed, spec, rhino, name="rhino"):
        super().__init__(testbed, spec, rhino)
        self.rhino = rhino
        self.name = name

    killed_by = ("failure",)

    def _vacate(self, kind, machine):
        # A dead origin recovers from its replicas; a live one drains
        # through the same handover (§5.5: delta-only, no replay).
        return self.rhino.reconfigure(kind, machine=machine)

    def _rescale(self, add_instances):
        return self.rhino.reconfigure(
            "rescale", op_name=self.primary_op(), add_instances=add_instances
        )

    def _rebalance(self, moves):
        return self.rhino.reconfigure(
            "rebalance", op_name=self.primary_op(), moves=moves
        )


class FlinkHandle(SutHandle):
    """Verbs over the Flink baseline runtime."""
    name = "flink"

    def __init__(self, testbed, spec, runtime):
        super().__init__(testbed, spec, runtime)
        self.runtime = runtime

    @property
    def metrics(self):
        """The runtime's metric registry (it outlives each restarted job)."""
        return self.runtime.metrics

    # Flink's only mechanism is the restart path: retire the machine.
    killed_by = ("failure", "drain")

    def _vacate(self, kind, machine):
        return self.runtime.recover_from_failure(machine)

    def _rescale(self, add_instances):
        op = self.primary_op()
        current = self.runtime.job.graph.operators[op].parallelism
        return self.runtime.rescale(op, current + add_instances)


class MegaphoneHandle(SutHandle):
    """Verbs over the Megaphone baseline."""
    name = "megaphone"

    def __init__(self, testbed, spec, megaphone):
        super().__init__(testbed, spec, megaphone)
        self.megaphone = megaphone

    def _checkpoint_storage(self):
        return None  # no checkpoints, no replicas: only the in-memory state

    def check_memory(self):
        """Charge preloaded state; returns the OOM error if it does not fit."""
        try:
            self.megaphone.account_memory()
        except OutOfMemoryError as error:
            self.megaphone._fail(error)
        return self.megaphone.failed

    def _vacate(self, kind, machine):
        return self.testbed.sim.process(
            self._migrate_off(machine), name="megaphone-recover"
        )

    def _migrate_off(self, machine):
        """Megaphone's equivalent reconfiguration: migrate the state held
        by ``machine``'s instances to instances on other workers."""
        reports = []
        for op_name in self.spec.stateful_ops:
            instances = self.job.stateful_instances(op_name)
            targets = [i for i in instances if i.machine is not machine]
            moves = [
                (victim.index, targets[victim.index % len(targets)].index, 1.0)
                for victim in instances
                if victim.machine is machine
            ]
            if moves:
                reports.append((yield self.megaphone.migrate(op_name, moves)))
        return reports

    def _rebalance(self, moves):
        return self.megaphone.migrate(
            self.primary_op(), [(o, t, 0.5) for o, t in moves]
        )
