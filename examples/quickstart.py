"""Quickstart: a stateful query + Rhino, from scratch.

Builds a 4-worker simulated cluster, runs a keyed word-count style query
over a durable log, attaches Rhino, and performs a live load-balancing
handover -- all in a couple hundred simulated seconds.

Run:  python examples/quickstart.py
"""

from repro.sim import Simulator
from repro.cluster import Cluster
from repro.storage.log import DurableLog
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.records import Record
from repro.core.api import Rhino, RhinoConfig


def build_cluster(sim):
    cluster = Cluster(sim)
    cluster.add_machines(
        4,
        prefix="worker",
        cores=8,
        memory=16 * 1024**3,
        nic_bandwidth=1.25e9,
        disks=2,
        disk_read_bandwidth=400e6,
        disk_write_bandwidth=280e6,
        disk_capacity=512 * 1024**3,
    )
    return cluster


def feed_events(sim, log, keys, rate_per_second=40.0, duration=120.0):
    """A generator process appending timestamped records to the log."""

    def produce():
        interval = 1.0 / rate_per_second
        index = 0
        while sim.now < duration:
            yield sim.timeout(interval)
            key = keys[index % len(keys)]
            partition = index % log.partition_count("events")
            log.append("events", partition, Record(key, sim.now, value=index))
            index += 1

    return sim.process(produce(), name="generator")


def main():
    sim = Simulator()
    cluster = build_cluster(sim)
    log = DurableLog(sim, scheduler=cluster.scheduler)
    log.create_topic("events", 2)

    # A logical query: source -> keyed counter -> sink.
    graph = StreamGraph("quickstart")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        4,
        inputs=[("src", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("count", "forward")])

    config = JobConfig(num_key_groups=64, checkpoint_interval=10.0)
    job = Job(sim, cluster, graph, log, list(cluster), config=config).start()

    # Attach Rhino: replica groups are built and every incremental
    # checkpoint is now proactively replicated.
    rhino = Rhino(job, cluster, RhinoConfig(replication_factor=1)).attach()

    keys = [f"user-{i}" for i in range(12)]
    feed_events(sim, log, keys)

    sim.run(until=60.0)
    print("== steady state (t=60s) ==")
    print(f"completed checkpoints: {len(job.coordinator.completed)}")
    print(f"state bytes by instance:")
    for instance in job.stateful_instances("count"):
        ranges = instance.state.owned_ranges()
        print(
            f"  {instance.instance_id} on {instance.machine.name}: "
            f"{instance.state.total_bytes} B, key groups {ranges}"
        )

    # Live load balancing: move half of count[0]'s virtual nodes to
    # count[1] without stopping the query.
    handover = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
    report = sim.run(until=handover)
    print("\n== handover report ==")
    print(
        f"scheduling={report.scheduling_seconds:.2f}s "
        f"fetching={report.fetching_seconds:.2f}s "
        f"loading={report.loading_seconds:.2f}s "
        f"moved={report.moved_state_bytes} B"
    )

    sim.run(until=120.0)
    print("\n== after rebalance (t=120s) ==")
    for instance in job.stateful_instances("count"):
        print(
            f"  {instance.instance_id}: key groups {instance.state.owned_ranges()}"
        )

    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    total = sum(finals.values())
    print(f"\nresults: {len(finals)} keys, {total} events counted exactly once")
    latency = job.metrics.latency
    print(
        f"latency: mean={latency.mean() * 1000:.0f} ms "
        f"p99={latency.percentile(0.99) * 1000:.0f} ms"
    )


if __name__ == "__main__":
    main()
