"""Chaos MTTR: recovery-time distribution over a seeded fault sweep.

Runs the chaos scenario across a seed range and reports the distribution
of mean-time-to-repair as observed by the failure detector (suspicion to
un-suspicion, i.e. the window in which a worker was unreachable from the
detector's vantage).  Every run must also satisfy the invariant harness:
exactly-once sink counts, restored replication, no leaked protocol
processes, drained queues.
"""

from repro.experiments.scenarios.chaos import run_chaos_sweep

from benchmarks.conftest import emit_report, run_once

SEEDS = range(25)


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def chaos_mttr_report(results):
    lines = [
        "Chaos sweep: MTTR distribution and invariant verdicts",
        "",
        f"{'seed':>4}  {'faults':>6}  {'kinds':<42}  {'mttr_s':>7}  verdict",
    ]
    for r in results:
        lines.append(
            f"{r.seed:>4}  {len(r.plan.events):>6}  "
            f"{','.join(sorted(r.plan.kinds)):<42}  {r.mean_mttr:>7.3f}  "
            f"{'ok' if r.ok else 'FAIL: ' + '; '.join(r.violations)}"
        )
    samples = [s for r in results for s in r.mttr_samples]
    lines.append("")
    lines.append(
        f"{len(samples)} repair windows over {len(results)} runs: "
        f"p50={_percentile(samples, 0.50):.3f}s "
        f"p90={_percentile(samples, 0.90):.3f}s "
        f"max={max(samples) if samples else 0.0:.3f}s"
    )
    return "\n".join(lines)


def test_chaos_mttr(benchmark):
    results = run_once(benchmark, run_chaos_sweep, list(SEEDS))
    emit_report("chaos_mttr", chaos_mttr_report(results))
    assert all(r.ok for r in results), [r.seed for r in results if not r.ok]
    assert all(r.counts == r.expected for r in results)
    samples = [s for r in results for s in r.mttr_samples]
    # Crash-restart faults occur in most plans; suspicion windows exist.
    assert samples
    # Repair is bounded: suspicion clears well before the run's horizon.
    assert max(samples) < 10.0


def control_takeover_report(results):
    stats = [s for r in results for s in r.failover_stats]
    lines = [
        "Control-plane takeover: time distribution over the chaos sweep",
        "",
        f"{len(stats)} takeovers over {len(results)} runs of a 3-replica "
        f"control group (timed leader kill at t=6.0s plus seeded "
        f"control-crash / control-partition faults)",
        "",
        f"{'phase':<16} {'p50_s':>8} {'p95_s':>8} {'p99_s':>8} {'max_s':>8}",
    ]
    for phase in ("detect", "replay", "resume", "total"):
        series = [s[phase] for s in stats]
        lines.append(
            f"{phase:<16} {_percentile(series, 0.50):>8.4f} "
            f"{_percentile(series, 0.95):>8.4f} "
            f"{_percentile(series, 0.99):>8.4f} "
            f"{max(series) if series else 0.0:>8.4f}"
        )
    return "\n".join(lines)


def test_control_takeover_mttr(benchmark):
    """Detect / journal-replay / resume breakdown of leader takeovers."""
    results = run_once(
        benchmark,
        run_chaos_sweep,
        list(SEEDS),
        control_replicas=3,
        control_kill_at=6.0,
    )
    emit_report("chaos_control_takeover", control_takeover_report(results))
    assert all(r.ok for r in results), [r.seed for r in results if not r.ok]
    stats = [s for r in results for s in r.failover_stats]
    # The timed kill guarantees at least one takeover per run.
    assert len(stats) >= len(results)
    for sample in stats:
        parts = sample["detect"] + sample["replay"] + sample["resume"]
        assert abs(parts - sample["total"]) < 1e-9
    # Replay completeness held on every takeover that truncated nothing.
    for r in results:
        for replayed, snapshot in r.replay_checks:
            assert replayed == snapshot
    # Takeover is bounded: detection dominates; replay+resume stay small.
    assert max(s["total"] for s in stats) < 10.0
