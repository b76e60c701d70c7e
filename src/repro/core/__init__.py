"""Rhino: proactive state replication + on-the-fly handover (the paper's core).

* :mod:`repro.core.replication_manager` -- builds replica groups with bin
  packing and reacts to worker failures (§3.3, §4.2 phase 1).
* :mod:`repro.core.replication` -- the state-centric chain replication
  runtime with credit-based flow control (§4.2 phase 2).
* :mod:`repro.core.handover` -- handover markers and the per-role protocol
  steps (§4.1).
* :mod:`repro.core.handover_manager` -- coordinates in-flight handovers and
  produces the timing breakdowns of Table 1 (§3.3).
* :mod:`repro.core.migration` -- plans: failure recovery, rescaling, load
  balancing (§3.5).
* :mod:`repro.core.api` -- the :class:`Rhino` facade a host SPE talks to.
* :mod:`repro.core.quorum` -- the quorum-replicated control plane: journal
  SMR, deterministic elections, epoch fencing, membership hand-offs;
  :mod:`repro.core.journal` is its log and :mod:`repro.core.failover` the
  takeover after a leader is lost.
"""

from repro.common.errors import StaleEpochError
from repro.core.api import Rhino, RhinoConfig
from repro.core.quorum import ControlGroup

__all__ = [
    "ControlGroup",
    "Rhino",
    "RhinoConfig",
    "StaleEpochError",
]
