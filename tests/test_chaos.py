"""End-to-end chaos runs: seeded fault plans against the full pipeline.

Fast smoke seeds run in tier-1; the wide sweep is marked ``chaos`` and is
excluded by default (``addopts = -m 'not chaos'``) -- CI runs it as a
separate job with ``-m chaos``.
"""

import json

import pytest

from repro.experiments.scenarios import chaos
from repro.faults import ALL_KINDS, CRASH_RESTART, PARTITION
from repro.faults.invariants import InvariantViolation
from repro.obs.tracer import Tracer
from repro.experiments.scenarios.chaos import run_chaos, run_chaos_sweep


def canonical_trace(tracer, without_track=None):
    """Serialize a trace to a canonical JSON string for replay comparison.

    ``without_track="kernel"`` leaves out the simulator's own
    ``process.spawn/end/interrupt`` events: they record how the executor
    is structured, not what the protocols did.
    """
    spans = [
        [s.name, s.track, s.start, s.end, sorted(s.tags.items())]
        for s in tracer.spans
        if s.track != without_track
    ]
    events = [
        [e.name, e.time, e.track, sorted(e.tags.items())]
        for e in tracer.events
        if e.track != without_track
    ]
    counters = {name: c.samples for name, c in sorted(tracer.counters.items())}
    return json.dumps([spans, events, counters], sort_keys=True, default=str)


class TestChaosSmoke:
    def test_mixed_fault_run_converges_exactly_once(self):
        result = run_chaos(seed=0)
        assert result.violations == []
        assert result.counts == result.expected
        assert result.ok

    def test_crash_restart_run_records_mttr(self):
        result = run_chaos(seed=1, kinds=(CRASH_RESTART,), fault_count=2)
        assert result.ok
        assert result.mttr_samples, "crash-restart must produce MTTR samples"
        assert all(mttr > 0 for mttr in result.mttr_samples)

    def test_partition_run_heals_without_state_loss(self):
        result = run_chaos(seed=2, kinds=(PARTITION,), fault_count=2)
        assert result.ok
        assert result.counts == result.expected

    def test_result_row_is_reportable(self):
        result = run_chaos(seed=3, fault_count=2)
        row = result.row()
        assert row[0] == 3
        assert row[-1] == "ok"


class TestChaosReplay:
    """Satellite (c): the same seed replays bit-identically."""

    def test_same_seed_replays_bit_identically(self):
        runs = []
        for _ in range(2):
            tracer = Tracer()
            result = run_chaos(seed=7, tracer=tracer)
            runs.append((result, canonical_trace(tracer)))
        (first, first_trace), (second, second_trace) = runs
        assert first.counts == second.counts
        assert first.mttr_samples == second.mttr_samples
        assert first.duration == second.duration
        assert first_trace == second_trace

    def test_different_seeds_give_different_schedules(self):
        a = run_chaos(seed=11, fault_count=3)
        b = run_chaos(seed=12, fault_count=3)
        schedule = lambda plan: [(e.time, e.kind, e.targets) for e in plan]
        assert schedule(a.plan) != schedule(b.plan)

    def test_a_failure_artifact_alone_replays_the_run(self, tmp_path, monkeypatch):
        """The artifact of a broken seed carries every argument of its run,
        so ``run_chaos(**artifact["arguments"])`` regenerates its plan."""

        def fail(*_args, **_kwargs):
            raise InvariantViolation("forced")

        monkeypatch.setattr(chaos, "check_all", fail)
        monkeypatch.delenv("CHAOS_ARTIFACTS_DIR", raising=False)
        result = run_chaos(
            seed=4,
            records=60,
            fault_count=2,
            rebalance_at=3.5,
            control_replicas=3,
            artifacts_dir=str(tmp_path),
        )
        assert result.violations == ["forced"]
        with open(tmp_path / "fault-plan-seed4.json", encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["arguments"]["control_replicas"] == 3
        assert artifact["arguments"]["rebalance_at"] == 3.5
        replayed = run_chaos(**artifact["arguments"])
        assert replayed.plan.to_dict() == artifact["plan"]
        assert replayed.counts == result.counts


@pytest.mark.chaos
class TestChaosSweep:
    """The wide seeded sweep: every run must satisfy every invariant."""

    def test_sweep_of_25_seeds_passes_all_invariants(self):
        results = run_chaos_sweep(range(25))
        failures = [r.row() for r in results if not r.ok]
        assert not failures, f"chaos sweep failures: {failures}"
        # The sweep must actually exercise every fault kind.
        exercised = {kind for r in results for kind in r.plan.kinds}
        assert exercised == set(ALL_KINDS)
        # Crash-restarts in the sweep yield recovery-time (MTTR) samples.
        samples = [m for r in results for m in r.mttr_samples]
        assert samples
        assert max(samples) < 10.0
