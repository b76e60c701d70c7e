"""Tests for the experiment harness: preloading, testbed, scenarios."""

import pytest

from repro.common.units import GB, MB
from repro.experiments.calibration import Calibration
from repro.common.errors import ReproError
from repro.experiments.harness import RECONFIGURE_KINDS, SUTS, Testbed
from repro.experiments.preload import preload_state, build_synthetic_table
from repro.experiments.timeline import LatencyStats
from repro.engine.metrics import LatencySeries


class TestTestbed:
    def test_testbed_builds_paper_cluster(self):
        testbed = Testbed()
        assert len(testbed.workers) == Calibration.workers
        assert all(m.alive for m in testbed.workers)

    def test_deploy_every_sut(self):
        for sut in SUTS:
            testbed = Testbed(rate_scale=0.01)
            handle = testbed.deploy(sut, "nbq8", checkpoint_interval=None)
            assert handle.job is not None
            assert handle.name == sut

    def test_unknown_sut_rejected(self):
        testbed = Testbed()
        with pytest.raises(ReproError):
            testbed.deploy("storm", "nbq8")

    def test_unknown_query_rejected(self):
        testbed = Testbed()
        with pytest.raises(ReproError):
            testbed.deploy("rhino", "nbq99")

    def test_workload_generates_records(self):
        testbed = Testbed(rate_scale=0.01)
        testbed.deploy("rhino", "nbq8", checkpoint_interval=None)
        generator = testbed.start_workload("nbq8")
        testbed.sim.run(until=10.0)
        assert generator.records_emitted > 0
        assert generator.bytes_emitted > 0

    def test_rate_scale_reduces_traffic(self):
        low = Testbed(rate_scale=0.01)
        low.deploy("rhino", "nbq8", checkpoint_interval=None)
        generator_low = low.start_workload("nbq8")
        low.sim.run(until=10.0)
        high = Testbed(rate_scale=0.05)
        high.deploy("rhino", "nbq8", checkpoint_interval=None)
        generator_high = high.start_workload("nbq8")
        high.sim.run(until=10.0)
        assert generator_high.bytes_emitted > 3 * generator_low.bytes_emitted


class TestReconfigureDispatch:
    """``SutHandle.reconfigure`` is the one place that knows what a kind
    means for a SUT -- and the one place a machine is killed."""

    UNSUPPORTED = {("flink", "rebalance"), ("megaphone", "rescale")}
    #: Megaphone has no failure handling (§5.2.2): it never loses the
    #: machine; Flink's only mechanism is the restart, even for a drain.
    KILLED = {
        ("rhino", "failure"),
        ("rhinodfs", "failure"),
        ("flink", "failure"),
        ("flink", "drain"),
    }

    def make_handle(self, sut):
        testbed = Testbed(rate_scale=0.01)
        handle = testbed.deploy(
            sut, "nbq8", checkpoint_interval=10.0, stateful_dop=14
        )
        testbed.start_workload("nbq8")
        testbed.sim.run(until=5.0)
        handle.preload(1 * GB)
        testbed.sim.run(until=12.0)
        return testbed, handle

    @pytest.mark.parametrize("kind", tuple(RECONFIGURE_KINDS))
    @pytest.mark.parametrize("sut", SUTS)
    def test_every_sut_kind_pair(self, sut, kind):
        testbed, handle = self.make_handle(sut)
        victim = testbed.workers[-1]
        reports_before = len(handle.reports)
        if (sut, kind) in self.UNSUPPORTED:
            with pytest.raises(ReproError):
                handle.reconfigure(kind)
            assert all(machine.alive for machine in testbed.workers)
            assert len(handle.reports) == reports_before
            return
        process = handle.reconfigure(kind)
        testbed.sim.run(until=process)
        assert not process.is_alive
        assert len(handle.reports) == reports_before + 1
        assert victim.alive == ((sut, kind) not in self.KILLED)

    def test_bad_kind_or_param_rejected_before_the_cluster_is_touched(self):
        testbed, handle = self.make_handle("flink")
        with pytest.raises(ReproError, match="unknown reconfiguration kind"):
            handle.reconfigure("explode")
        with pytest.raises(ReproError, match="unknown params"):
            handle.reconfigure("failure", machin=3)
        with pytest.raises(ReproError, match="unknown params"):
            handle.reconfigure("drain", add_instances=2)
        assert all(machine.alive for machine in testbed.workers)


class TestPreload:
    def make_handle(self, sut="rhino"):
        testbed = Testbed(rate_scale=0.01)
        handle = testbed.deploy(sut, "nbq8", checkpoint_interval=None)
        testbed.start_workload("nbq8")
        testbed.sim.run(until=5.0)
        return testbed, handle

    def test_preload_installs_requested_bytes(self):
        _testbed, handle = self.make_handle()
        handle.preload(10 * GB)
        total = sum(i.state.total_bytes for i in handle.job.stateful_instances())
        assert total == pytest.approx(10 * GB, rel=0.01)

    def test_preload_registers_completed_checkpoint(self):
        _testbed, handle = self.make_handle()
        handle.preload(1 * GB)
        record = handle.job.coordinator.latest_completed()
        assert len(record.checkpoints) == len(handle.job.stateful_instances("join"))
        assert record.offsets

    def test_preload_populates_rhino_replicas(self):
        _testbed, handle = self.make_handle("rhino")
        handle.preload(8 * GB)
        for instance in handle.job.stateful_instances("join"):
            group = handle.rhino.replication_manager.group_of(instance.instance_id)
            for member in group.chain:
                store = handle.rhino.replicator.store_on(member)
                assert store.has_complete(instance.instance_id)

    def test_preload_registers_dfs_files_for_flink(self):
        testbed, handle = self.make_handle("flink")
        handle.preload(4 * GB)
        assert testbed.dfs.namenode.paths()
        used = sum(d.used for m in testbed.workers for d in m.disks)
        # live copy (4 GB) + two DFS replicas (8 GB)
        assert used == pytest.approx(12 * GB, rel=0.1)

    def test_preload_state_spreads_over_vnodes(self):
        _testbed, handle = self.make_handle()
        handle.preload(16 * GB)
        instance = handle.job.stateful_instances("join")[0]
        ranges = instance.state.owned_ranges()
        for lo, hi in ranges:
            assert instance.state.bytes_in_groups(lo, hi) > 0
            # each virtual node holds a share
            mid = (lo + hi) // 2
            assert instance.state.bytes_in_groups(lo, mid) > 0
            assert instance.state.bytes_in_groups(mid, hi) > 0

    def test_synthetic_table_has_requested_size(self):
        _testbed, handle = self.make_handle()
        instance = handle.job.stateful_instances("join")[0]
        table = build_synthetic_table(instance, 1 * GB)
        assert table.size_bytes == pytest.approx(1 * GB, rel=0.01)


class TestLatencyStats:
    def make_series(self, points):
        series = LatencySeries()
        for t, latency in points:
            series.record(t, latency)
        return series

    def test_before_after_split(self):
        series = self.make_series(
            [(1.0, 0.1), (2.0, 0.1), (11.0, 5.0), (12.0, 0.1)]
        )
        stats = LatencyStats(series, event_time=10.0)
        assert stats.before_mean == pytest.approx(0.1)
        assert stats.after_peak == 5.0

    def test_recovery_time_finds_last_bad_sample(self):
        series = self.make_series(
            [(t, 0.1) for t in range(10)]
            + [(10.5, 30.0), (12.0, 20.0), (15.0, 0.1), (20.0, 0.1)]
        )
        stats = LatencyStats(series, event_time=10.0)
        assert stats.recovery_seconds == pytest.approx(2.0)

    def test_flat_series_recovers_instantly(self):
        series = self.make_series([(t, 0.1) for t in range(20)])
        stats = LatencyStats(series, event_time=10.0)
        assert stats.recovery_seconds == 0.0

    def test_spike_factor(self):
        series = self.make_series([(1.0, 0.1), (11.0, 10.0)])
        stats = LatencyStats(series, event_time=10.0)
        assert stats.spike_factor == pytest.approx(100.0)


class TestRecoveryScenario:
    def test_rhino_recovery_scales_constant(self):
        from repro.experiments.scenarios.recovery import run_recovery

        small = run_recovery("rhino", 20 * GB)
        large = run_recovery("rhino", 80 * GB)
        assert small.fetching_seconds == pytest.approx(
            large.fetching_seconds, abs=0.1
        )

    def test_flink_recovery_scales_linearly(self):
        from repro.experiments.scenarios.recovery import run_recovery

        small = run_recovery("flink", 20 * GB)
        large = run_recovery("flink", 80 * GB)
        assert large.fetching_seconds > 2.5 * small.fetching_seconds

    def test_megaphone_oom_detection(self):
        from repro.experiments.scenarios.recovery import run_recovery

        ok = run_recovery("megaphone", 100 * GB)
        oom = run_recovery("megaphone", 700 * GB)
        assert not ok.out_of_memory
        assert oom.out_of_memory


class TestResourceScenario:
    def test_monitor_collects_samples(self):
        from repro.experiments.scenarios.resources import run_resource_utilization

        result = run_resource_utilization(
            "rhino",
            steady_seconds=60.0,
            after_seconds=30.0,
            rate_scale=0.05,
            preload_bytes=2 * GB,
            checkpoint_interval=20.0,
        )
        assert result.samples
        assert result.mean_network > 0
        assert result.transfer_rate is not None


class TestAblations:
    def test_virtual_node_granularity(self):
        from repro.experiments.scenarios.ablations import ablate_virtual_nodes

        results = ablate_virtual_nodes(counts=(1, 4), state_bytes=4 * GB)
        by_count = {r.setting: r.value for r in results}
        assert by_count[4] < by_count[1]

    def test_topology_ablation(self):
        from repro.experiments.scenarios.ablations import ablate_replication_topology

        results = ablate_replication_topology(delta_bytes=2 * GB, factor=3)
        by_topology = {r.setting: r.value for r in results}
        assert by_topology["chain"] < by_topology["star"]

    def test_incremental_ablation(self):
        from repro.experiments.scenarios.ablations import (
            ablate_incremental_checkpoints,
        )

        results = ablate_incremental_checkpoints()
        by_mode = {r.setting: r.value for r in results}
        assert by_mode["incremental"] < by_mode["full"]
