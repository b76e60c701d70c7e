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
#: report: every value they pin is unchanged.
GOLDEN = {
    "failure/rhino": "03563733903e6d594272ebbdbb2f2db5fa201b5079626802fd1edd365a656fbb",
    "failure/rhinodfs": "b98cf5db950462ca53ef8f1bd6295980087b37fda439e2a7a1cd29e8b942d8f6",
    "failure/flink": "6785f5e4a146de02621c9e529176a5e2e8bff96dcff3ad09f9542d28a8ab0905",
    "rescale/rhino": "0ed7d0361bf57f17cf6db2ad1ff609a44ccf7e45b3cea59803a6185b0e0b085f",
    "rescale/flink": "ef79ba42e22acff56607bb4bb3df198158cded02ae06445c8d372dd7591f1ecc",
    "rebalance/rhino": "7d2df3cc85c3f3a55a16cc5a9ccd054fe39ec35eb381a04a80ee8490b3565bfb",
    "rebalance/megaphone": "99c318dacb017199a9e46fffbaf89ccec35dc3796eb6bbb207fdc70e8e105ced",
    "rebalance/flink": "ef79ba42e22acff56607bb4bb3df198158cded02ae06445c8d372dd7591f1ecc",
    "drain-triangular/rhino": "1427b94a2569e4f62302afbdf365cea07a65a4b68fc7d7266afae34108174efa",
    "drain-triangular/flink": "a81b4e49cd7878b1258b394fbdef2b67e3da76a6ca0379f30e2c3d83ca2204e7",
    "figure5/rhino": "62afddac09f0d2caf7ccfbb054442d1bdcde2979db4d3ea00f7873411c80691d",
    "figure5/megaphone": "7f54c583117f96b328853af07c83324f6cd3ce6cf95b30c901dfd66f4269a58f",
    "table1-250GB/rhino": "c881b06b9a650381608b50dce226823bbb987a499ff3ecbb640bff11330c0c9c",
    "table1-250GB/rhinodfs": "6b7c43ebf64ec82c87936a91cbfd12f8cbd263f217d85b3ed56a3d50b444a341",
    "table1-250GB/flink": "5337501b57c54a1607cc62fa4c23a7c2c0d739fcd03f085b3a31f15e290f1ba4",
    "table1-250GB/megaphone": "120b0a770ea64e39bcba48daaf5bd595fd0267d7cfb1634a092acd4f8eba6f26",
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
