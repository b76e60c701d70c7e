"""Discrete-event simulation substrate.

The whole reproduction runs on a virtual clock: operator instances, the
replication runtime, checkpoints, and state transfers are all processes of
:class:`repro.sim.kernel.Simulator`.  Bandwidth-shared activities (network
transfers, disk reads/writes) are fluid flows scheduled with max-min
fairness by :class:`repro.sim.flows.FlowScheduler` — an incremental,
component-local solver that scales to tens of thousands of concurrent
flows while staying bit-identical to the whole-graph reference solver the
tests keep (``tests/reference_flows.py``); see DESIGN.md §9.
"""

from repro.sim.kernel import (
    Simulator,
    Event,
    Process,
    Timeout,
    Interrupt,
    AnyOf,
    AllOf,
)
from repro.sim.resources import Resource, Store
from repro.sim.flows import Port, FlowScheduler, TransferFailed, PortFailed, FlowLost

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "Port",
    "FlowScheduler",
    "TransferFailed",
    "PortFailed",
    "FlowLost",
]
