"""Golden gate for the figure / Table 1 experiment scripts.

Every script under ``repro.experiments.scenarios`` that drives one SUT
through one reconfiguration runs here once per SUT branch it has, at
settings small enough for tier-1, and the **full-precision** result is
pinned by SHA-256: the event time plus every ``(time, latency, weight)``
sample for the timeline scripts, ``vars(RecoveryResult)`` for Table 1,
every utilization sample for Figure 5.  The rounded reports hide
last-digit drift; these digests do not.  The simulation is seeded and
hash-order free, so the digests repeat across runs and across
``PYTHONHASHSEED`` values.

A digest that moves means a simulated value moved: re-capture it only
together with a CHANGES.md moved-value entry that says why.
"""

import hashlib

import pytest

from repro.common.units import GB
from repro.experiments.scenarios.fault_tolerance import run_fault_tolerance
from repro.experiments.scenarios.load_balancing import run_load_balancing
from repro.experiments.scenarios.recovery import run_recovery
from repro.experiments.scenarios.resources import run_resource_utilization
from repro.experiments.scenarios.scaling import run_vertical_scaling
from repro.experiments.scenarios.varying_rate import run_varying_rate

#: Two checkpoints before the event, two intervals after it completes:
#: long enough that Flink's replay lag shows in the tail.
TIMELINE = dict(
    checkpoint_interval=15.0,
    checkpoints_before=2,
    checkpoints_after=2,
    rate_scale=0.02,
    preload_bytes=20 * GB,
)
VARYING = dict(
    checkpoint_interval=15.0, preload_bytes=20 * GB, warmup=25.0, cooldown=30.0
)
FIGURE5 = dict(
    checkpoint_interval=15.0,
    steady_seconds=40.0,
    after_seconds=30.0,
    rate_scale=0.05,
    preload_bytes=4 * GB,
)


def timeline_fingerprint(result):
    return [result.sut, result.query, result.event_time, list(result.series)]


def recovery_fingerprint(result):
    # The SUT's report object has no stable repr; its Table 1 numbers are
    # the result's own fields.
    return sorted((k, v) for k, v in vars(result).items() if k != "report")


def resource_fingerprint(result):
    return [
        result.sut,
        result.reconfig_time,
        result.transfer_rate,
        [[getattr(s, slot) for slot in s.__slots__] for s in result.samples],
        list(result.latency_stats.series.samples),
    ]


def digest(fingerprint):
    # repr() of a float round-trips exactly: no rounding hides a drift.
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


#: script id -> (run one SUT through it, fingerprint of its result).
SCRIPTS = {
    "failure": (
        lambda sut: run_fault_tolerance(sut, **TIMELINE),
        timeline_fingerprint,
    ),
    "rescale": (
        lambda sut: run_vertical_scaling(
            sut, initial_dop=14, add_instances=2, **TIMELINE
        ),
        timeline_fingerprint,
    ),
    # Flink has no load balancing: the script substitutes vertical scaling.
    "rebalance": (
        lambda sut: run_load_balancing(sut, **TIMELINE),
        timeline_fingerprint,
    ),
    "drain-triangular": (
        lambda sut: run_varying_rate(sut, **VARYING),
        timeline_fingerprint,
    ),
    "figure5": (
        lambda sut: run_resource_utilization(sut, **FIGURE5),
        resource_fingerprint,
    ),
    "table1-250GB": (lambda sut: run_recovery(sut, 250 * GB), recovery_fingerprint),
    # Above the cluster's aggregate memory: Megaphone's OOM cell.
    "table1-700GB": (lambda sut: run_recovery(sut, 700 * GB), recovery_fingerprint),
}

#: "<script>/<sut>" -> SHA-256, one per SUT branch.  Captured at e9ac6a0;
#: all but table1-250GB/flink and table1-700GB/megaphone re-captured with
#: the source watermark pacing of PR 23 (a documented model change).  The
#: five table1 digests were re-captured once more when RecoveryResult lost
#: its span-derived breakdown key (None in every run here) and gained the
#: report: every value they pin is unchanged.  rebalance/rhino was
#: re-captured when the replica reconciler moved onto the checkpoint clock:
#: the origins' handover checkpoints leave one table off each origin's own
#: chain, so the pass after checkpoint 3 (t = 45.98) copies it to the eight
#: origins' members, and that traffic moves 6 of 4,674 latency samples
#: earlier by 0.001-1.197 ms (t = 47.48 and five at t = 60.50).  All but
#: table1-250GB/flink and table1-700GB/megaphone were re-captured when
#: transfers that drain within ``flows.MESSAGE_SECONDS`` became messages
#: (a model change: a message takes no share of a port from bulk flows and
#: lands at ``now + nbytes / capacity``, without the solver's 1 us clamp).
#: rescale/rhinodfs and drain-triangular/rhinodfs were captured at 43e68bc
#: to pin RhinoDFS's handover path (origin DFS persist, target DFS fetch),
#: which failure/rhinodfs does not reach.
GOLDEN = {
    "failure/rhino": "03527ef4b015ff2b214a1d50da5fb7ab82a0299d6c059e83372feea9f73b6842",
    "failure/rhinodfs": "53727c5f45ff6651ba2e01d439db20312f153b41f365679295e591dc4b2c5d80",
    "failure/flink": "42660a186c96a1e692496aef07d955f43856fb1251c9b85ea7f462d20d9a1ff8",
    "rescale/rhino": "e8342e26b44668213dfdda046183a699c785330283a36b56ae8a01ef779b687a",
    "rescale/rhinodfs": "798b9c513a02a352bfcb5d53dec9bde8725a32d582801fb211c0e8f061832fa0",
    "rescale/flink": "da481327c1c277a7f4224d32e1a77e6d71c87bb6099db581494d7f6dc4bd4b8e",
    "rebalance/rhino": "66e2e5306d546579a6fd595c4d2cc533c03e52931a20caf4c14cf70190dd2863",
    "rebalance/megaphone": "bc3cd0e506579fcbc38dae8c0c725aff5dde3a070513ca75c592f33b18cb9aca",
    "rebalance/flink": "da481327c1c277a7f4224d32e1a77e6d71c87bb6099db581494d7f6dc4bd4b8e",
    "drain-triangular/rhino": "9c36a09e7fff540e4007b4cb91300103584a9fef24561981bdd6ae108b84c608",
    "drain-triangular/rhinodfs": "c6b893fd2605a2d39a39c941323986b8f4c5ad0deb9c3f81f5da7bd537b3bb11",
    "drain-triangular/flink": "31b2668e50cd23df00391bae275e2f46980898de87a6dfd27b3bf223d6273895",
    "figure5/rhino": "3ad4c8b9498b44a1c00c82c4bc4df39830c684c13b86606fb09d1e7aa68f30ff",
    "figure5/megaphone": "2fc8d5f02d4c4d3881458f30b570f345206e01feaee0cee73298e68dc0e5f205",
    "table1-250GB/rhino": "de7a4719dc9526717c61cd3e2abd2f0902b0b30e2abfe9159beb68620fbd51da",
    "table1-250GB/rhinodfs": "573233c631fe9d09245081efa36fd80441413e56d3c2e01ebee4984b65cdd47a",
    "table1-250GB/flink": "5337501b57c54a1607cc62fa4c23a7c2c0d739fcd03f085b3a31f15e290f1ba4",
    "table1-250GB/megaphone": "cf198defdaf6d0b3f15d4962eea5572e2dfa906a2b704f7ca75edf2e8ab88000",
    "table1-700GB/megaphone": "0a21353d1ca50d12c90e208bcdd15aa5ae83132b3ccecb0c26b986ca6232d22d",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_full_precision_result_is_pinned(case):
    script, sut = case.split("/")
    run, fingerprint = SCRIPTS[script]
    assert digest(fingerprint(run(sut))) == GOLDEN[case]


def test_flink_load_balancing_is_its_vertical_scaling():
    """The substitution of §5.4.2 is literal: same run, same samples."""
    assert GOLDEN["rebalance/flink"] == GOLDEN["rescale/flink"]
