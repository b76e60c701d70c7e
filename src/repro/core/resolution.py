"""How an interrupted handover ends: one rule over what the survivors know.

The paper leaves a failure during a handover as future work ("may restart
the protocol", §4.1.2).  :func:`resolve` maps the :class:`Facts` of one
interruption to its :class:`Resolution`, reading no clock and no live
object, so a test can range over every case without a simulator:

* the control-plane leader lost: *settled* if the live execution already
  closed (the fenced journal dropped its abort), *unjournaled* if its
  ``accepted`` record was truncated, *abandon* in phase ``accepted``,
  *commit* once every expected participant acked, else *rollback*;
* a plan's origin or target worker lost (dead or suspected): *rollback*;
* a bystander lost: *continue*, forgetting a dead one's acknowledgments.

A rollback keeps one owner per key group.  Whether a rolled-back
reconfiguration then runs again is :func:`rerun`.
"""

from collections import namedtuple

from repro.core.handover import PHASE_TABLE
from repro.core.migration import FAILURE

#: The participant lost when the control-plane leader is.
LEADER = "leader"

SETTLED = "settled"
UNJOURNALED = "unjournaled"
ABANDON = "abandon"
COMMIT = "commit"
ROLLBACK = "rollback"
CONTINUE = "continue"
#: What a takeover can reach: a lost leader never lets a handover continue.
TAKEOVER_ROWS = (SETTLED, UNJOURNALED, ABANDON, COMMIT, ROLLBACK)

#: An instance a plan names: its machine's name (None: none), whether it is
#: up, whether the instance has keyed state, and whether it owns any of the
#: plan's key groups.
Party = namedtuple("Party", "machine alive state holds")
#: A :class:`~repro.core.migration.HandoverPlan` and its two Parties.
PlanFacts = namedtuple("PlanFacts", "plan origin target")
#: ``lost``: :data:`LEADER` or a worker's machine name, ``down`` if known
#: dead; ``journaled``: the replayed journal holds it open; ``phase``: the
#: live phase (None: closed).
Facts = namedtuple("Facts", "lost down journaled phase expected acked plans")
#: One plan's end: the index its key groups route to (None: unchanged);
#: whether the origin adopts them (resuming its own frontier for them),
#: the target fences off the records diverted to it and releases the
#: groups it holds, a spawned target is removed.
Settlement = namedtuple("Settlement", "owner adopt fence release remove")
#: ``forget``: drop the lost worker's acks; ``resume``: re-execute the
#: failure recovery whose driver the lost leader took with it.
Resolution = namedtuple("Resolution", "outcome settlements forget resume")

_UNCHANGED = Settlement(None, False, False, False, False)


def resolve(facts):
    """The :class:`Resolution` of one interrupted reconfiguration."""
    outcome = _outcome(facts)
    return Resolution(
        outcome,
        tuple(_settle(plan, outcome) for plan in facts.plans),
        forget=outcome == CONTINUE and facts.down,
        resume=facts.lost == LEADER
        and outcome in (ABANDON, ROLLBACK)
        and any(p.plan.reason == FAILURE for p in facts.plans),
    )


def retarget(facts):
    """True when a failure recovery's target worker (PlanFacts) is down:
    its retry is re-planned onto another live replica worker."""
    return facts.plan.reason == FAILURE and not facts.target.alive


def rerun(up, plans):
    """True when a reconfiguration aborted by a lost participant runs
    again: the participant's machine is still ``up`` (a partition or a
    false suspicion), or one of its ``plans`` (PlanFacts) is
    :func:`retarget`-ed.  A rebalance, rescale or drain toward a dead
    worker ends there: that worker's failure recovery owns its groups."""
    return up or any(retarget(facts) for facts in plans)


def _outcome(facts):
    if facts.lost == LEADER:
        if facts.phase is None:
            return SETTLED
        if not facts.journaled:
            return UNJOURNALED
        if facts.phase == PHASE_TABLE[0].phase:
            return ABANDON
        return COMMIT if facts.expected <= facts.acked else ROLLBACK
    machines = {m for p in facts.plans for m in (p.origin.machine, p.target.machine)}
    return ROLLBACK if facts.lost in machines else CONTINUE


def _settle(facts, outcome):
    plan, origin, target = facts
    if outcome == COMMIT:
        return _UNCHANGED._replace(owner=plan.target_index)
    if outcome == ABANDON:
        return _UNCHANGED._replace(owner=plan.origin_index, remove=plan.spawn_target)
    if outcome != ROLLBACK:
        return _UNCHANGED
    # A failure recovery's empty replacement is its origin and its target:
    # it keeps waiting for its state until a retry restores it.
    fence = target.alive and target.state
    fence = fence and not (plan.spawn_target or plan.replace_origin)
    return Settlement(
        owner=plan.origin_index,
        adopt=origin.alive and origin.state and not plan.replace_origin,
        fence=fence,
        release=fence and target.holds,
        remove=plan.spawn_target,
    )
