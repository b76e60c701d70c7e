"""Resource elasticity: scale a running query out, twice (§3.5.2).

NBQ5 (sliding-window aggregation over bids) starts at a reduced degree of
parallelism.  Rhino adds instances on running workers (vertical scaling),
each new instance taking over a share of an existing instance's virtual
nodes through a handover -- no restart, no DFS round-trip.

Run:  python examples/elastic_scaling.py
"""

from repro.common.units import format_bytes
from repro.experiments.harness import Testbed


def describe(job, op_name):
    counts = job.assignments[op_name].group_counts()
    print(f"  {len(counts)} instances, key groups per instance:")
    for index in sorted(counts):
        instance = job.instance(op_name, index)
        print(
            f"    {op_name}[{index}] on {instance.machine.name}: "
            f"{counts[index]} groups, "
            f"{format_bytes(instance.state.total_bytes)} state"
        )


def main():
    testbed = Testbed(rate_scale=0.002)
    handle = testbed.deploy(
        "rhino", "nbq5", checkpoint_interval=20.0, stateful_dop=4
    )
    testbed.start_workload("nbq5")
    testbed.sim.run(until=60.0)

    print("== before scaling (DOP 4) ==")
    describe(handle.job, "agg")

    print("\nscaling out: +2 instances ...")
    rescale = handle.reconfigure("rescale", add_instances=2)
    report = testbed.sim.run(until=rescale)
    print(
        f"handover: sched={report.scheduling_seconds:.1f}s "
        f"fetch={report.fetching_seconds:.1f}s load={report.loading_seconds:.1f}s"
    )
    testbed.sim.run(until=120.0)
    print("\n== after first scale-out (DOP 6) ==")
    describe(handle.job, "agg")

    print("\nscaling out again: +2 instances ...")
    testbed.sim.run(until=handle.reconfigure("rescale", add_instances=2))
    testbed.sim.run(until=180.0)
    print("\n== after second scale-out (DOP 8) ==")
    describe(handle.job, "agg")

    latency = handle.metrics.latency
    print(
        f"\nend-to-end latency across both reconfigurations: "
        f"mean {latency.mean() * 1000:.0f} ms, "
        f"max {latency.maximum():.2f} s"
    )


if __name__ == "__main__":
    main()
