"""Deterministic chaos: fault injection, protocol hardening, invariants.

The paper's evaluation kills whole VMs (§5.2); real deployments also see
*gray* failures -- partitions, slow or lossy links, stalled disks -- that
fail-stop models miss.  This package makes those injectable and, equally
important, *replayable*: a :class:`FaultPlan` is derived from one seed, a
:class:`ChaosController` executes it on the virtual clock, and an
invariant harness checks after every run that the system healed
(exactly-once outputs, replication restored, no leaked processes, the
simulation drained).

The hardening half lives with the protocols it protects: per-block
retries in the cluster's one block stream and the handover re-run rule
in ``core/resolution.py`` run in every deployment, suspicion in
``cluster/monitor.py`` where a deployment wires a failure detector in;
:mod:`repro.faults.retry` supplies the one block-retry policy.
"""

from repro.faults.retry import BLOCK_RETRY, RetryPolicy, with_retry
from repro.faults.plan import (
    ALL_KINDS,
    KNOWN_KINDS,
    CRASH_RESTART,
    PARTITION,
    SLOW_LINK,
    LOSSY_LINK,
    DISK_STALL,
    CONTROL_CRASH,
    CONTROL_PARTITION,
    CONTROL_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.faults.controller import ChaosController
from repro.faults.invariants import (
    InvariantViolation,
    check_exactly_once,
    check_replication_restored,
    check_single_owner,
    check_control_plane_recovered,
    check_no_leaked_processes,
    check_drained,
    check_journal_linearizable,
    check_bounded_mttr,
    check_control_quorum,
    check_all,
)

__all__ = [
    "ALL_KINDS",
    "KNOWN_KINDS",
    "CRASH_RESTART",
    "PARTITION",
    "SLOW_LINK",
    "LOSSY_LINK",
    "DISK_STALL",
    "CONTROL_CRASH",
    "CONTROL_PARTITION",
    "CONTROL_KINDS",
    "BLOCK_RETRY",
    "RetryPolicy",
    "with_retry",
    "FaultEvent",
    "FaultPlan",
    "ChaosController",
    "InvariantViolation",
    "check_exactly_once",
    "check_replication_restored",
    "check_single_owner",
    "check_control_plane_recovered",
    "check_no_leaked_processes",
    "check_drained",
    "check_journal_linearizable",
    "check_bounded_mttr",
    "check_control_quorum",
    "check_all",
]
