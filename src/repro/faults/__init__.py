"""Deterministic chaos: fault injection, protocol hardening, invariants.

The paper's evaluation kills whole VMs (§5.2); real deployments also see
*gray* failures -- partitions, slow or lossy links, stalled disks -- that
fail-stop models miss.  This package makes those injectable and, equally
important, *replayable*: a :class:`FaultPlan` is derived from one seed, a
:class:`ChaosController` executes it on the virtual clock, and an
invariant harness checks after every run that the system healed
(exactly-once outputs, replication restored, no leaked processes, the
simulation drained).

The hardening half lives with the protocols it protects (per-block
retries in the cluster's one block stream, suspicion in
``cluster/monitor.py``, handover re-planning in ``core/api.py``);
:mod:`repro.faults.retry` supplies the shared backoff policy.
"""

from repro.faults.retry import RetryPolicy, NO_RETRY, with_retry
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
    "RetryPolicy",
    "NO_RETRY",
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
