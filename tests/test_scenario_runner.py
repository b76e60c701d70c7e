"""End-to-end tests for the batch scenario runner.

Includes the acceptance run: the committed million-user scenario file
(one million+ modeled persons via weighted records, Zipf skew, a flash
crowd) runs through the batch runner, completes a planned drain
mid-burst, and reports passing exactly-once invariants with
weight-correct latency percentiles.
"""

import pathlib
from collections import Counter

import pytest

from repro.core.replication import ChainReplicator
from repro.experiments.report import scenario_report
from repro.experiments.runner import peak_rate, run_scenario, run_sweep
from repro.experiments.scenario import Scenario, expand_sweep
from repro.nexmark import TriangularRate

ROOT = pathlib.Path(__file__).parent.parent
MILLION_USER = ROOT / "examples" / "scenarios" / "million_user.json"
NBQ8_DRAIN = ROOT / "examples" / "scenarios" / "nbq8_drain.json"


def quick_scenario(**overrides):
    data = {
        "name": "quick",
        "sut": "rhino",
        "query": "nbq5",
        "duration": 20.0,
        "warmup": 5.0,
        "cooldown": 20.0,
        "checkpoint_interval": 10.0,
        "streams": {"bids": {"rate": 0.5e6}},
    }
    data.update(overrides)
    return Scenario.from_dict(data)


class TestPeakRate:
    def test_constant(self):
        assert peak_rate(5e6, 60.0) == 5e6

    def test_profile_peak_found(self):
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        assert peak_rate(rate, 300.0) == 8e6


class TestRunScenario:
    def test_plain_run_reports_throughput_and_latency(self):
        result = run_scenario(quick_scenario())
        assert result.ok, result.invariants
        assert result.modeled_records > 0
        assert result.records_emitted > 0
        assert result.modeled_records >= result.records_emitted
        assert result.throughput == pytest.approx(0.5e6, rel=0.1)
        assert 0 < result.latency_p50 <= result.latency_p99
        assert result.handovers == []
        assert result.handover_seconds == 0.0

    def test_weight_ledger_balances_without_actions(self):
        result = run_scenario(quick_scenario(name="ledger"))
        assert result.invariants["exactly-once-weighted"] == "ok"

    def test_dict_input_accepted(self):
        result = run_scenario(quick_scenario().to_dict())
        assert result.ok

    def test_failure_action_skips_weight_ledger(self):
        result = run_scenario(
            quick_scenario(
                name="failure",
                actions=[{"at": 10.0, "kind": "failure", "params": {"machine": -1}}],
            )
        )
        assert result.invariants["exactly-once-weighted"].startswith("n/a")
        assert result.ok, result.invariants
        assert len(result.handovers) >= 1

    def test_failure_at_the_instant_of_a_checkpoint_trigger_recovers(self):
        """An action is issued from inside the simulation, so a kill at
        warmup + 10 s lands at t=20.0 between checkpoint 1's trigger and
        the sources' barrier injection.  The barrier of the (aborted)
        checkpoint used to reach the replacement instances, which had never
        been told to swallow it: they aligned on it forever and the
        handover idled to its watchdog, ``HANDOVER_TIMEOUT`` (ProtocolError
        after 3,600 simulated seconds).  Same recovery time as a kill at 9.99 / 10.01.
        """
        result = run_scenario(
            {
                "name": "same-instant",
                "sut": "rhino",
                "query": "nbq8",
                "rate_scale": 0.02,
                "warmup": 10,
                "duration": 30,
                "cooldown": 120,
                "preload_bytes": 20 * 1024**3,
                "checkpoint_interval": 20.0,
                "actions": [{"at": 10.0, "kind": "failure"}],
            }
        )
        assert result.ok, result.invariants
        assert result.handover_seconds == pytest.approx(3.956, abs=0.01)
        assert result.duration < 200.0

    def test_megaphone_failure_keeps_the_machine(self):
        """Megaphone has no failure handling (§5.2.2): a ``failure`` is
        the equivalent planned migration, as in Table 1 -- live state, no
        replay, so the weight ledger balances."""
        result = run_scenario(
            quick_scenario(
                name="mega-failure",
                sut="megaphone",
                actions=[{"at": 10.0, "kind": "failure"}],
            )
        )
        assert len(result.handovers) == 1
        assert result.invariants["no-misroutes"] == "ok"
        assert result.invariants["drained"] == "ok"

    def test_megaphone_drain_migrates_live(self):
        result = run_scenario(
            quick_scenario(
                name="mega",
                sut="megaphone",
                actions=[{"at": 10.0, "kind": "drain", "params": {"machine": -1}}],
            )
        )
        assert result.invariants["exactly-once-weighted"] == "ok"
        assert result.ok, result.invariants

    @pytest.mark.parametrize("sut", ("rhino", "flink", "megaphone"))
    def test_result_to_dict_is_json_ready(self, sut):
        import json

        # With a handover: the baselines' reports have no phase breakdown.
        result = run_scenario(
            quick_scenario(
                name="json",
                sut=sut,
                actions=[{"at": 10.0, "kind": "drain", "params": {"machine": -1}}],
            )
        )
        assert len(result.handovers) >= 1
        dumped = json.loads(json.dumps(result.to_dict()))
        assert dumped["name"] == "json"
        assert dumped["invariants"]["drained"] == "ok"
        assert dumped["handovers"] == len(result.handovers)
        assert dumped["handover_phases"]["cutover_seconds"] >= 0.0


class TestMillionUserAcceptance:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(Scenario.load(MILLION_USER))

    def test_models_a_million_users(self, result):
        # >= 1M modeled persons alone, and 2M+ across both streams, while
        # the simulated record count stays thousands (weighted records).
        assert result.modeled_records >= 2_000_000
        assert result.records_emitted < 100_000

    def test_mid_burst_drain_completed(self, result):
        assert len(result.handovers) == 1
        assert result.handover_seconds > 0
        report = result.handovers[0]
        assert report.total_seconds == result.handover_seconds

    def test_exactly_once_invariants_pass(self, result):
        assert result.invariants["exactly-once-weighted"] == "ok"
        assert result.invariants["no-misroutes"] == "ok"
        assert result.invariants["replication-restored"] == "ok"
        assert result.invariants["drained"] == "ok"
        assert result.ok, result.invariants

    def test_weight_correct_latency_percentiles(self, result):
        assert 0 < result.latency_p50 <= result.latency_p99
        assert result.latency_mean > 0

    def test_report_renders(self, result):
        text = scenario_report([result])
        assert "million-user-flash-crowd" in text
        assert "p99 (ms)" in text
        assert "ok" in text


class TestNbq8DrainRegression:
    """A drain under 20 GiB of preloaded state with RF 1 and a 20 s
    checkpoint interval.  The drain keeps every existing chain and only
    places the new instances, whose first checkpoint replicates their
    state in full, so no member ever lacks its primary's state and the
    reconciler copies nothing (26 copies, 13.5 GB, when a committed drain
    re-packed every chain).  A repair sourced from a peer holding frozen
    at an older checkpoint would install a stale base that the next delta
    cannot complete, so the same member would be copied again and again
    and the run would never reach ``replication-restored``."""

    def test_every_invariant_holds_with_one_copy_per_member(self, monkeypatch):
        copies = Counter()
        bulk_copy = ChainReplicator.bulk_copy

        def counting_copy(self, primary, target):
            copies[(primary.instance_id, target.name)] += 1
            return bulk_copy(self, primary, target)

        monkeypatch.setattr(ChainReplicator, "bulk_copy", counting_copy)
        result = run_scenario(Scenario.load(NBQ8_DRAIN))
        assert result.invariants == {
            name: "ok"
            for name in (
                "exactly-once-weighted",
                "no-misroutes",
                "single-owner",
                "replication-restored",
                "no-leaked-processes",
                "drained",
            )
        }
        assert len(result.handovers) == 1
        assert max(copies.values(), default=0) <= 1, copies
        assert sum(copies.values()) == 0, copies


class TestRunSweep:
    def test_sweep_runs_every_point_and_streams_progress(self):
        points = expand_sweep(
            quick_scenario(duration=10.0, cooldown=15.0).to_dict(),
            {"seed": [1, 2]},
        )
        seen = []
        results = run_sweep(points, progress=lambda r: seen.append(r.name))
        assert [r.name for r in results] == seen
        assert all(r.ok for r in results), [r.invariants for r in results]

    def test_same_scenario_is_deterministic(self):
        scenario = quick_scenario(duration=10.0, cooldown=15.0)
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.latency_p99 == b.latency_p99
        assert a.modeled_records == b.modeled_records
        assert a.invariants == b.invariants
