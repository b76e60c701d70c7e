"""Autonomous operations: Rhino + automatic decision-makers.

The paper positions Rhino as the *mechanism* and delegates decisions to
monitors like Dhalion/DS2 (§3.3).  This example writes three such
decision-makers as plain callbacks on a running query and then misbehaves
at it:

* a failure listener recovers every machine failure automatically;
* a sampling loop detects key skew and rebalances virtual nodes on its own;
* a checkpoint listener tunes the checkpoint interval to the state churn
  (the paper's adaptive checkpointing future work, §5.6).

No operator in the loop -- the cluster heals and balances itself.

Run:  python examples/autonomous_operations.py
"""

from repro.common.rng import make_rng
from repro.core.api import Rhino, RhinoConfig
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.records import Record
from repro.sim import Simulator
from repro.cluster import Cluster
from repro.storage.log import DurableLog

NUM_GROUPS = 64


def main():
    sim = Simulator()
    cluster = Cluster(sim)
    cluster.add_machines(5, prefix="worker", nic_bandwidth=1.25e9)
    log = DurableLog(sim, scheduler=cluster.scheduler)
    log.create_topic("events", 2)

    graph = StreamGraph("autonomous")
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
    config = JobConfig(num_key_groups=NUM_GROUPS, checkpoint_interval=8.0)
    job = Job(sim, cluster, graph, log, list(cluster), config=config).start()
    rhino = Rhino(job, cluster, RhinoConfig(scheduling_delay=0.2)).attach()

    def recover(machine):
        # Recover every failed machine that hosted an instance or a replica.
        if any(i.machine is machine for i in job.all_instances()) or (
            rhino.replication_manager.replicas_on(machine)
        ):
            rhino.reconfigure("failure", machine=machine).defused = True

    job.failure_listeners.append(recover)

    rebalances = []  # (time, origin index, target index, skew ratio)

    def balance():
        # Every 10 s, sample each live count instance's processing rate; when
        # the hottest runs 2.5x the coldest (rates floored at 1 record/s),
        # move half the hot one's virtual nodes to the cold one.  A 30 s
        # cooldown after each move prevents oscillation.
        seen, last_move = {}, float("-inf")
        while True:
            yield sim.timeout(10.0)
            rates = {}
            for instance in job.stateful_instances("count"):
                if instance.machine.alive:
                    count = instance.weighted_records_processed
                    previous = seen.get(instance.instance_id, 0)
                    rates[instance.index] = (count - previous) / 10.0
                    seen[instance.instance_id] = count
            if len(rates) < 2 or sim.now - last_move < 30.0:
                continue
            hot, cold = max(rates, key=rates.get), min(rates, key=rates.get)
            ratio = rates[hot] / max(rates[cold], 1.0)
            span = job.assignments["count"].ranges_of(hot).span()
            if rates[hot] < 1.0 or ratio < 2.5 or span < 2:
                continue
            rebalances.append((sim.now, hot, cold, ratio))
            last_move = sim.now
            handover = rhino.reconfigure(
                "rebalance", op_name="count", moves=[(hot, cold)]
            )
            handover.defused = True
            yield handover

    sim.process(balance(), name="balancer")

    adjustments = []  # (time, old interval, new interval, largest delta)

    def tune_interval(record):
        # Keep the largest incremental-checkpoint delta near 512 KiB: halve
        # the interval above it, grow it by a quarter below a quarter of it,
        # within [10 s, 600 s].
        delta = max(c.delta_bytes for c in record.checkpoints.values())
        old = job.coordinator.interval
        new = old
        if delta > 512 * 1024:
            new = max(10.0, old * 0.5)
        elif delta < 128 * 1024:
            new = min(600.0, old * 1.25)
        if new != old:
            job.coordinator.interval = new
            adjustments.append((sim.now, old, new, delta))

    job.coordinator.checkpoint_listeners.append(tune_interval)

    # A skewed workload: most records hit keys of one instance.
    rng = make_rng(11, "autonomous")
    hot_keys = [f"hot-{i}" for i in range(6)]
    cold_keys = [f"cold-{i}" for i in range(60)]

    def produce():
        for index in range(4000):
            yield sim.timeout(0.02)
            if rng.random() < 0.8:
                key = hot_keys[rng.randrange(len(hot_keys))]
            else:
                key = cold_keys[rng.randrange(len(cold_keys))]
            log.append("events", index % 2, Record(key, sim.now, value=index))

    sim.process(produce(), name="skewed-generator")

    # Inject chaos: a machine dies mid-run.
    def chaos():
        yield sim.timeout(35.0)
        victim = job.instance("count", 3).machine
        print(f"[t={sim.now:5.1f}s] CHAOS: killing {victim.name}")
        cluster.kill(victim)

    sim.process(chaos(), name="chaos")
    sim.run(until=100.0)

    print("\n== what the autopilot did ==")
    for when, origin, target, ratio in rebalances:
        print(
            f"  t={when:5.1f}s load balance: count[{origin}] -> count[{target}] "
            f"(skew ratio {ratio:.1f}x)"
        )
    for when, old, new, delta in adjustments[:5]:
        print(
            f"  t={when:5.1f}s checkpoint interval {old:.1f}s -> {new:.1f}s "
            f"(max delta {delta} B)"
        )
    for report in rhino.reports:
        print(
            f"  handover ({report.reason}): total "
            f"{report.total_seconds:.1f}s, moved {report.moved_state_bytes} B"
        )

    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    print(
        f"\nresult integrity: {sum(finals.values())} events counted exactly "
        f"once across {len(finals)} keys, through a failure and "
        f"{len(rebalances)} rebalance(s)"
    )
    latency = job.metrics.latency
    print(
        f"latency: mean {latency.mean() * 1000:.0f} ms, "
        f"p99 {latency.percentile(0.99) * 1000:.0f} ms"
    )


if __name__ == "__main__":
    main()
