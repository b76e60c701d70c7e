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
    return sorted(vars(result).items())


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

#: "<script>/<sut>" -> SHA-256 captured at e9ac6a0, one per SUT branch.
GOLDEN = {
    "failure/rhino": "4ce0228c399cc4cdf9fed7f0c174a687c2ee799a77080dbf74ad60a90df70e24",
    "failure/rhinodfs": "35603bee7d1a96a8785b3845196ad0e4063172cbb3613e6623217039667ee3fc",
    "failure/flink": "ecbd3b772bfef02f0c6548005b0738c8fce9fb7b5651d96bd9f2d25eb0945cc9",
    "rescale/rhino": "6754407e8d14c177439b3057855455ee6967639bc97cfef262e86baf88800a96",
    "rescale/flink": "6236ad9ad988c05abb81a791c705169374fe6da67336d6b646f6479427d80d25",
    "rebalance/rhino": "64b44eb63fbee9396aff8af0d51ea7708623dc119494742acddd889d99018b99",
    "rebalance/megaphone": "a61abdbbed0119af7c70f4e96d2b6580596c2d12ad2a34a3011702efc1e42a95",
    "rebalance/flink": "6236ad9ad988c05abb81a791c705169374fe6da67336d6b646f6479427d80d25",
    "drain-triangular/rhino": "1c578e19a267709c37b6a1e6880a8ade839b4a1d882dac12a618798f4703adbf",
    "drain-triangular/flink": "9d2208820e25c208f58334cc2c6017f333b26ce7d6bf48709a3b2ba2bf8ace46",
    "figure5/rhino": "2669ec25230155aa73a8e1a63c3206fa4e6e67344b4a35304c7639c08c934970",
    "figure5/megaphone": "ede6093f8dd3f862a7ff7c8f278c02202b3c0ddc1ef7a46e645460ce4011bee2",
    "table1-250GB/rhino": "140efc4359dda8f886736c8df0798f5f68f9de994595df7dacc875c9cdef5bd9",
    "table1-250GB/rhinodfs": "e45fe2999564c7cda8d170154cb2764c45948abb6b45962ca28146d30d5bdc33",
    "table1-250GB/flink": "6bad0fdcced3727834c7f68f0b82f5b300410018526d2e23633ab364dbd8ab66",
    "table1-250GB/megaphone": "bcbfcc19c5632b44f8ab2fccc500e9a9852ddbe85c6314e047efbd7170a30bc8",
    "table1-700GB/megaphone": "b4e953e27cc3c4c6aa1932a12f2b2d6f801a6b52a21ba74a7286cb7da4be42e1",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_full_precision_result_is_pinned(case):
    script, sut = case.split("/")
    run, fingerprint = SCRIPTS[script]
    assert digest(fingerprint(run(sut))) == GOLDEN[case]


def test_flink_load_balancing_is_its_vertical_scaling():
    """The substitution of §5.4.2 is literal: same run, same samples."""
    assert GOLDEN["rebalance/flink"] == GOLDEN["rescale/flink"]
