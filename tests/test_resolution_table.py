"""The interrupted-handover rule, checked over every case, without a simulator.

``resolution.resolve`` is a pure function of local facts, so this test
ranges over every ``PHASE_TABLE`` phase x the participant lost (origin,
target, control leader, bystander, one source) x the plan kind
(rebalance, drain, rescale, failure), for a death and for a mere
suspicion, with and without every acknowledgment.
Each resolution must keep:

* one owner per key group: applied to a model of who holds the plan's
  groups in that phase, the adoptions, releases and removals leave at
  most one live holder, and it is the instance the groups route to;
* commit only when every expected participant acked;
* abandon touching nothing but spawned targets.
"""

import pytest

from repro.core import resolution
from repro.core.handover import PHASE_TABLE
from repro.core.migration import FAILURE, REBALANCE, RESCALE, HandoverPlan

PHASES = tuple(step.phase for step in PHASE_TABLE if step.phase)
ORIGIN, TARGET, BYSTANDER, SOURCE = "w-2", "w-3", "w-1", "w-0"
LOST = {
    "origin": ORIGIN,
    "target": TARGET,
    "leader": resolution.LEADER,
    "bystander": BYSTANDER,
    "source": SOURCE,
}
KINDS = ("rebalance", "drain", "rescale", "failure")
EXPECTED = {"events[0]", "events[1]", "count[1]", "count[2]", "count[3]"}


def make_plan(kind):
    if kind == "rebalance":
        return HandoverPlan("count", 2, 3, [(16, 20)], REBALANCE)
    if kind == "rescale":
        return HandoverPlan("count", 2, 4, [(16, 20)], RESCALE, spawn_target=True)
    if kind == "drain":  # every group of the origin moves to a spawned target
        return HandoverPlan("count", 2, 4, [(16, 24)], RESCALE, spawn_target=True)
    # The empty replacement keeps the dead instance's index on the target
    # worker: it is both the plan's origin and its target.
    return HandoverPlan("count", 2, 2, [(16, 24)], FAILURE, replace_origin=True)


def holders_before(plan, phase, all_acked):
    """Which plan participants own the moving groups when the handover is
    interrupted: the origin until it drains, the target once it loaded
    (every ack means both happened), a failure's replacement throughout."""
    if plan.replace_origin:
        return {"origin"}
    if all_acked:
        return {"target"}
    drained = PHASES.index(phase) >= PHASES.index("origin-drained")
    return ({"target"} if phase == "target-resumed" else set()) | (
        set() if drained else {"origin"}
    )


def facts_for(kind, lost, phase, down, all_acked):
    plan = make_plan(kind)
    holders = holders_before(plan, phase, all_acked)
    origin_machine = TARGET if plan.replace_origin else ORIGIN
    lost = origin_machine if lost == "origin" else LOST[lost]
    dead = {lost} if down and lost != resolution.LEADER else set()
    parties = {}
    for role, machine in (("origin", origin_machine), ("target", TARGET)):
        parties[role] = resolution.Party(
            machine,
            machine not in dead,
            True,
            role in holders,
        )
    facts = resolution.Facts(
        lost,
        down,
        True,
        phase,
        set(EXPECTED),
        set(EXPECTED) if all_acked else {"events[0]"},
        (resolution.PlanFacts(plan, parties["origin"], parties["target"]),),
    )
    return facts, holders


def cases():
    for phase in PHASES:
        for down in (True, False):
            for all_acked in (False, True) if phase == PHASES[-1] else (False,):
                yield phase, down, all_acked


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lost", sorted(LOST))
def test_every_interruption_resolves_safely(kind, lost):
    for phase, down, all_acked in cases():
        facts, holders = facts_for(kind, lost, phase, down, all_acked)
        resolved = resolution.resolve(facts)
        case = (kind, lost, phase, down, all_acked, resolved.outcome)
        (plan_facts,) = facts.plans
        (settlement,) = resolved.settlements
        plan = plan_facts.plan
        if lost == "leader":
            assert resolved.outcome in resolution.TAKEOVER_ROWS, case
        else:
            assert resolved.outcome in (resolution.ROLLBACK, resolution.CONTINUE), case

        # Commit only with every acknowledgment.
        if resolved.outcome == resolution.COMMIT:
            assert facts.expected <= facts.acked, case

        # Abandon touches nothing but spawned targets.
        if resolved.outcome == resolution.ABANDON:
            assert settlement == (
                plan.origin_index, False, False, False, plan.spawn_target
            ), case

        # A bystander's (or a source's) loss leaves the handover alone.
        if resolved.outcome == resolution.CONTINUE:
            assert settlement.owner is None, case
            assert not (settlement.adopt or settlement.release or settlement.remove)
            assert resolved.forget == down, case

        # One owner per key group, and it is where the groups route.
        after = set(holders)
        if settlement.release or settlement.remove:
            after.discard("target")
        if settlement.adopt:
            after.add("origin")
        index = {"origin": plan.origin_index, "target": plan.target_index}
        owners = {index[role] for role in after if getattr(plan_facts, role).alive}
        assert len(owners) <= 1, case
        if owners and settlement.owner is not None:
            assert owners == {settlement.owner}, case


def test_a_closed_execution_is_settled():
    facts = resolution.Facts(resolution.LEADER, True, True, None, set(), set(), ())
    assert resolution.resolve(facts) == (resolution.SETTLED, (), False, False)


@pytest.mark.parametrize("kind", KINDS)
def test_an_unjournaled_handover_is_dropped_untouched(kind):
    facts, _holders = facts_for(kind, "leader", PHASES[0], True, False)
    facts = facts._replace(journaled=False)
    resolved = resolution.resolve(facts)
    assert resolved.outcome == resolution.UNJOURNALED
    assert resolved.settlements == ((None, False, False, False, False),)
    assert not resolved.resume


@pytest.mark.parametrize("phase", PHASES)
def test_a_takeover_re_executes_only_an_unfinished_failure_recovery(phase):
    for kind in KINDS:
        for all_acked in (False, True):
            facts, _ = facts_for(kind, "leader", phase, True, all_acked)
            resolved = resolution.resolve(facts)
            unfinished = resolved.outcome in (resolution.ABANDON, resolution.ROLLBACK)
            assert resolved.resume == (kind == "failure" and unfinished)


def test_retarget_picks_a_failure_recovery_whose_target_is_down():
    for kind in ("rebalance", "failure"):
        for lost in ("origin", "target", "bystander"):
            for down in (True, False):
                facts, _ = facts_for(kind, lost, PHASES[1], down, False)
                (plan_facts,) = facts.plans
                target_down = down and facts.lost == TARGET
                expected = kind == "failure" and target_down
                assert resolution.retarget(plan_facts) == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lost", ["origin", "target"])
@pytest.mark.parametrize("down", [True, False], ids=["dead", "up"])
def test_rerun_when_the_participant_is_up_or_the_kind_replans(kind, lost, down):
    """A rolled-back reconfiguration runs again when its lost participant
    is still up (a partition or a false suspicion), or when it re-plans
    (a failure recovery whose target died, :func:`retarget`).  A
    rebalance, rescale or drain that lost a dead worker does not."""
    facts, _ = facts_for(kind, lost, PHASES[1], down, False)
    assert resolution.resolve(facts).outcome == resolution.ROLLBACK
    replans = any(resolution.retarget(plan) for plan in facts.plans)
    assert replans == (kind == "failure" and down)
    expected = not down or replans
    assert resolution.rerun(not down, facts.plans) == expected
