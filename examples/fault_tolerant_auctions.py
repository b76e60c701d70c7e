"""Fault tolerance on the NEXMark auction workload (the paper's §5.2).

Runs NBQ8 (persons-auctions tumbling-window join) with ~40 GB of
pre-existing operator state, kills one worker VM, and recovers it twice:
once with Rhino's handover protocol and once with Flink's restart-based
recovery -- then compares recovery time and the latency impact.

Run:  python examples/fault_tolerant_auctions.py
"""

from repro.common.units import GB, format_duration
from repro.experiments.harness import Testbed
from repro.experiments.timeline import LatencyStats


def run_one(sut_name, state_bytes=40 * GB):
    testbed = Testbed(rate_scale=0.02)
    handle = testbed.deploy(sut_name, "nbq8", checkpoint_interval=30.0)
    testbed.start_workload("nbq8")
    testbed.sim.run(until=10.0)
    handle.preload(state_bytes)

    # Let a few checkpoints complete, then pull the plug on one VM.
    testbed.sim.run(until=100.0)
    victim = testbed.workers[-1]
    print(f"[{sut_name}] killing {victim.name} at t={testbed.sim.now:.0f}s ...")
    failure_time = testbed.sim.now
    # A "failure" costs the SUT the machine (default: the last worker).
    testbed.sim.run(until=handle.reconfigure("failure"))
    recovery_seconds = testbed.sim.now - failure_time
    testbed.sim.run(until=testbed.sim.now + 90.0)

    stats = LatencyStats(handle.metrics.latency, failure_time)
    return recovery_seconds, stats


def main():
    print("NBQ8: 12-hour tumbling-window join of persons and auctions")
    print("state preloaded to 40 GB; one of 8 VMs fails mid-run\n")
    for sut in ("rhino", "flink"):
        recovery_seconds, stats = run_one(sut)
        print(f"== {sut} ==")
        print(f"  reconfiguration completed in {format_duration(recovery_seconds)}")
        print(
            f"  latency before failure: mean {stats.before_mean * 1000:.0f} ms, "
            f"p99 {stats.before_p99 * 1000:.0f} ms"
        )
        print(
            f"  latency after failure: peak {format_duration(stats.after_peak)}, "
            f"back to steady state after {format_duration(stats.recovery_seconds)}"
        )
        print()
    print(
        "Rhino recovers from the replica on the target worker (local\n"
        "hard-links), so processing latency barely moves; Flink restarts\n"
        "the query, refetches all state from the DFS, and replays from\n"
        "upstream backup, accumulating minutes of latency lag."
    )


if __name__ == "__main__":
    main()
