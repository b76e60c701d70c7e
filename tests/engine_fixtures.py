"""Shared helpers for engine-level integration tests."""

from repro.sim import Simulator
from repro.cluster import Cluster
from repro.storage.log import DurableLog
from repro.engine.instance import OperatorInstance
from repro.engine.job import Job, JobConfig
from repro.engine.operators import LogicalOperator, OperatorLogic
from repro.engine.records import Record


class EngineEnv:
    """A small simulated environment: cluster + log + helpers."""

    def __init__(
        self,
        machines=2,
        cores=8,
        nic_bandwidth=1e9,
        memory=4 * 1024**3,
        tracer=None,
    ):
        self.sim = Simulator(tracer=tracer)
        self.cluster = Cluster(self.sim)
        self.machines = self.cluster.add_machines(
            machines,
            prefix="w",
            cores=cores,
            memory=memory,
            nic_bandwidth=nic_bandwidth,
            disks=2,
            disk_read_bandwidth=400e6,
            disk_write_bandwidth=280e6,
            disk_capacity=512 * 1024**3,
            network_latency=0.0005,
        )
        self.log = DurableLog(self.sim, scheduler=self.cluster.scheduler)

    def topic(self, name, partitions):
        self.log.create_topic(name, partitions)
        return name

    def feed(self, topic, records):
        """Append records round-robin across partitions by key hash."""
        partitions = self.log.partition_count(topic)
        for record in records:
            index = hash(record.key) % partitions if partitions > 1 else 0
            self.log.append(topic, index, record)

    def feed_sequence(
        self,
        topic,
        keys,
        count,
        start_time=0.0,
        interval=0.01,
        nbytes=32,
        weight=1,
        partition_by_position=True,
    ):
        """Append ``count`` records cycling through ``keys`` with rising ts."""
        partitions = self.log.partition_count(topic)
        records = []
        for i in range(count):
            key = keys[i % len(keys)]
            record = Record(key, start_time + i * interval, value=i, nbytes=nbytes, weight=weight)
            index = i % partitions if partition_by_position else 0
            self.log.append(topic, index, record)
            records.append(record)
        return records

    def job(self, graph, config=None, storage=None, machines=None):
        config = config or JobConfig(
            num_key_groups=16,
            checkpoint_interval=None,
            exchange_interval=0.05,
            watermark_interval=0.05,
            source_idle_timeout=0.05,
        )
        return Job(
            self.sim,
            self.cluster,
            graph,
            self.log,
            machines or self.machines,
            config=config,
            checkpoint_storage=storage,
        )

    def run(self, until):
        self.sim.run(until=until)


def live_feeder(env, topic, keys, count, interval=0.05, nbytes=32, start_delay=0.0):
    """Append records over simulated time (so creation ts == append time).

    Returns the feeder Process; records cycle through ``keys`` and are
    spread round-robin across partitions.
    """
    partitions = env.log.partition_count(topic)

    def proc():
        if start_delay > 0:
            yield env.sim.timeout(start_delay)
        from repro.engine.records import Record

        for i in range(count):
            yield env.sim.timeout(interval)
            key = keys[i % len(keys)]
            env.log.append(
                topic,
                i % partitions,
                Record(key, env.sim.now, value=i, nbytes=nbytes),
            )

    return env.sim.process(proc(), name=f"feeder:{topic}")


def make_dfs(env, block_size=4 * 1024 * 1024, replication=2, seed=11):
    from repro.storage.dfs import DistributedFileSystem

    return DistributedFileSystem(
        env.sim,
        env.cluster,
        env.machines,
        block_size=block_size,
        replication=replication,
        seed=seed,
    )


def stateful_instance(sim, machine, owned_ranges, memtable_limit, compaction_trigger):
    """A stateful ``OperatorInstance`` on ``machine`` outside any job: its
    LSM store (with the given flush and compaction thresholds) and the
    steps that charge its I/O to the machine's disks, nothing else."""
    op = LogicalOperator("op", OperatorLogic, 1, stateful=True)
    instance = OperatorInstance(sim, None, op, 0, machine, owned_ranges)
    instance.state.memtable_limit = memtable_limit
    instance.state.compaction_trigger = compaction_trigger
    return instance
