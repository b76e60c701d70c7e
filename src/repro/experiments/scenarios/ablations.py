"""Ablations of Rhino's design choices (§3.2, §4.2, §5.6 future work).

Each ablation isolates one mechanism the paper's design section calls out:

* **Virtual-node count** -- granularity of a rebalance: 1 virtual node per
  instance makes migration all-or-nothing; more nodes mean finer moves.
* **Replication factor r** -- network cost of proactive replication vs the
  availability of local state at recovery.
* **Incremental vs full checkpoints** -- bytes shipped per replication
  round (Rhino "migrates only the last incremental checkpoint").
* **Chain vs star replication** -- the paper chooses chain replication for
  parallel transfer at high network throughput.
* **Credit window** -- the flow-control window of the replication runtime.
"""

from repro.common.units import GB
from repro.cluster import Cluster
from repro.core import migration
from repro.core.replication import ChainReplicator
from repro.experiments.calibration import Calibration
from repro.experiments.harness import Testbed
from repro.experiments.preload import preload_state
from repro.sim import Simulator
from repro.storage.kvs import LSMStore


class AblationResult:
    """One (setting, value) data point of an ablation."""
    def __init__(self, name, setting, value, unit):
        self.name = name
        self.setting = setting
        self.value = value
        self.unit = unit

    def row(self):
        """The report-table row for this result."""
        return [self.name, str(self.setting), round(self.value, 3), self.unit]

    def __repr__(self):
        return f"<Ablation {self.name}={self.setting}: {self.value:.3f} {self.unit}>"


# -- virtual nodes ------------------------------------------------------------


def ablate_virtual_nodes(counts=(1, 2, 4, 8, 16), state_bytes=64 * GB, seed=42):
    """Bytes a minimal rebalance must move, by virtual-node count.

    The finest reconfiguration moves one virtual node; with v nodes per
    instance that is 1/v of the instance's state.
    """
    results = []
    for count in counts:
        testbed = Testbed(seed=seed, rate_scale=0.01)
        testbed.cal.virtual_nodes = count
        handle = testbed.deploy("rhino", "nbq8", checkpoint_interval=None)
        testbed.start_workload("nbq8")
        testbed.sim.run(until=5.0)
        # Spread the synthetic state finely enough that every virtual node
        # holds its proportional share.
        preload_state(
            handle.job,
            "join",
            state_bytes,
            storage=handle.job.checkpoint_storage,
            entries_per_vnode=4 * count,
        )
        plan = migration.plan_rebalance(handle.job, handle.rhino, "join", 0, 1, 1)
        instance = handle.job.instance("join", 0)
        moved = sum(instance.state.bytes_in_groups(lo, hi) for lo, hi in plan.vnodes)
        results.append(
            AblationResult("virtual_nodes", count, moved / GB, "GB per minimal move")
        )
    return results


# -- replication factor ----------------------------------------------------------


def ablate_replication_factor(factors=(1, 2, 3), delta_bytes=4 * GB):
    """Replication time and network bytes per checkpoint, by r."""
    return [
        AblationResult(
            "replication_factor",
            factor,
            _replication_seconds(delta_bytes, factor),
            "s per checkpoint",
        )
        for factor in factors
    ]


# -- incremental vs full checkpoints -----------------------------------------------


def ablate_incremental_checkpoints(
    total_bytes=64 * GB, delta_fraction=0.05, rounds=5
):
    """Bytes shipped over ``rounds`` replication rounds, both modes."""
    delta = int(total_bytes * delta_fraction)
    incremental = rounds * delta
    full = rounds * total_bytes
    return [
        AblationResult(
            "checkpoint_mode", "incremental", incremental / GB, "GB shipped"
        ),
        AblationResult("checkpoint_mode", "full", full / GB, "GB shipped"),
    ]


# -- chain vs star ---------------------------------------------------------------------


def ablate_replication_topology(delta_bytes=8 * GB, factor=3):
    """Replication completion time, chain vs star, at r replicas."""
    return [
        AblationResult(
            "replication_topology",
            topology,
            _replication_seconds(delta_bytes, factor, topology=topology),
            "s per checkpoint",
        )
        for topology in ("chain", "star")
    ]


# -- credit window ----------------------------------------------------------------------


def ablate_credit_window(
    windows=(64 * 1024**2, 256 * 1024**2, 1024**3), delta_bytes=8 * GB
):
    """Replication time by credit-window size (flow-control ablation)."""
    return [
        AblationResult(
            "credit_window",
            f"{window // 1024**2} MB",
            _replication_seconds(
                delta_bytes, 2, workers=3, credit_window_bytes=window
            ),
            "s per checkpoint",
        )
        for window in windows
    ]


def ablate_delta_size(deltas_gb=(1, 10, 50, 100), checkpoint_interval=180.0):
    """§5.6's bottleneck: replication time vs per-instance delta size.

    The paper expects the replication runtime to become a bottleneck once
    an incremental checkpoint exceeds ~50 GB per instance; this ablation
    measures replication time per delta size against the checkpoint
    interval (the point where replication can no longer keep up).
    """
    results = []
    for delta_gb in deltas_gb:
        seconds = _replication_seconds(delta_gb * GB, 1)
        results.append(
            AblationResult(
                "delta_size",
                f"{delta_gb} GB"
                + (" (over interval!)" if seconds > checkpoint_interval else ""),
                seconds,
                "s per replication",
            )
        )
    return results


def _replication_seconds(delta_bytes, replicas, workers=None, **replicator_options):
    """Seconds to replicate one ``delta_bytes`` checkpoint from the first
    worker of a bare calibrated cluster to the next ``replicas`` workers."""
    sim = Simulator()
    cluster = Cluster(sim)
    cal = Calibration()
    machines = cluster.add_machines(
        workers or cal.workers,
        prefix="w",
        nic_bandwidth=cal.nic_bandwidth,
        disks=cal.disks_per_worker,
        disk_read_bandwidth=cal.disk_read_bandwidth,
        disk_write_bandwidth=cal.disk_write_bandwidth,
        disk_capacity=cal.disk_capacity,
    )
    replicator = ChainReplicator(
        sim, cluster, block_size=cal.replication_block_size, **replicator_options
    )
    process = replicator.replicate(
        machines[0], machines[1 : 1 + replicas], _synthetic_checkpoint(delta_bytes)
    )
    sim.run(until=process)
    return sim.now


def _synthetic_checkpoint(delta_bytes):
    store = LSMStore("ablation")
    store.put(0, "blob", 0, nbytes=delta_bytes)
    checkpoint, _flushed = store.checkpoint(1)
    return checkpoint


def run_all_ablations():
    """Run every ablation; returns all results."""
    results = []
    results.extend(ablate_virtual_nodes())
    results.extend(ablate_replication_factor())
    results.extend(ablate_incremental_checkpoints())
    results.extend(ablate_replication_topology())
    results.extend(ablate_credit_window())
    results.extend(ablate_delta_size())
    return results
