"""Seeded chaos sweeps: every fault kind against a live pipeline.

Each run builds a small counter pipeline (2 sources, 4 stateful
counters, 1 sink on 6 workers), turns on heartbeat suspicion, the one
hardening a deployment opts into (block retries, the handover re-run
rule and the per-checkpoint replica reconciler are always on), generates a
:class:`~repro.faults.plan.FaultPlan` from the seed, and lets the
:class:`~repro.faults.controller.ChaosController` execute it while
records flow.  After the plan completes and the system quiesces, the
invariant harness (:mod:`repro.faults.invariants`) must hold: exactly
one count per record at the sink, replication redundancy restored, no
leaked protocol processes, all queues drained.

The same seed replays bit-identically -- the fault plan and the loss
stream derive from it, and retries draw no random numbers -- which is
what makes a chaos *sweep* a regression suite rather than a flake
generator.
"""

import json
import os

from repro.cluster import Cluster, FailureDetector
from repro.core.api import Rhino, RhinoConfig
from repro.core.handover import PHASE_TABLE
from repro.engine.graph import StreamGraph
from repro.engine.job import Job, JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.records import Record
from repro.faults import (
    ALL_KINDS,
    CONTROL_KINDS,
    ChaosController,
    FaultPlan,
    check_all,
    check_bounded_mttr,
)
from repro.faults.invariants import InvariantViolation, final_counts
from repro.obs import Tracer, write_chrome_trace
from repro.sim import Simulator
from repro.storage.log import DurableLog

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]

#: Virtual seconds between fed records.
FEED_INTERVAL = 0.05
#: Virtual seconds a killed control minority stays down before it restarts.
CONTROL_HEAL_AFTER = 2.0


class ChaosRunResult:
    """Outcome of one seeded chaos run."""

    def __init__(
        self,
        seed,
        plan,
        counts,
        expected,
        violations,
        mttr_samples,
        duration,
        failover_stats=None,
        replay_checks=None,
        control_stats=None,
    ):
        self.seed = seed
        self.plan = plan
        self.counts = counts
        self.expected = expected
        self.violations = violations
        self.mttr_samples = mttr_samples
        self.duration = duration
        #: Per-takeover detect/replay/resume/total dicts (control_replicas
        #: runs).
        self.failover_stats = failover_stats or []
        #: (replayed, snapshot) state-dict pairs, one per takeover that
        #: truncated nothing.
        self.replay_checks = replay_checks or []
        #: Quorum control-plane counters (epoch, elections, truncations,
        #: fencing rejections); None outside control_replicas runs.
        self.control_stats = control_stats

    @property
    def ok(self):
        return not self.violations

    @property
    def mean_mttr(self):
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)

    def row(self):
        """Report-table row: seed, fault kinds, MTTR, verdict."""
        return [
            self.seed,
            ",".join(sorted(self.plan.kinds)),
            len(self.plan.events),
            round(self.mean_mttr, 3),
            round(self.duration, 1),
            "ok" if self.ok else "FAIL",
        ]

    def __repr__(self):
        return (
            f"<ChaosRunResult seed={self.seed} faults={len(self.plan.events)} "
            f"mttr={self.mean_mttr:.3f}s {'ok' if self.ok else 'FAIL'}>"
        )


def counter_graph():
    graph = StreamGraph("counter")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        4,
        inputs=[("src", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    return graph


def expected_counts(records):
    expected = {}
    for i in range(records):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def run_chaos(
    seed,
    machines=6,
    records=300,
    fault_count=4,
    kinds=None,
    tracer=None,
    max_sim_time=120.0,
    rebalance_at=None,
    artifacts_dir=None,
    control_replicas=None,
    control_kill_at=None,
    control_kill_count=1,
    membership_change_at=None,
):
    """One seeded chaos run; returns a :class:`ChaosRunResult`.

    Machine ``w0`` is protected from faults: it is the failure
    detector's vantage point, and a chaos plan that blinds the observer
    proves nothing about the protocols.

    ``rebalance_at`` issues a planned rebalance of the counter operator at
    that virtual time -- the only reconfiguration kind whose handover
    drains a *live* origin, so phase-targeted kills can land on
    ``handover.origin-drained``.
    ``artifacts_dir`` dumps
    the fault plan and a Chrome trace there whenever an invariant fails
    (re-running the seed traced if this run was not), so broken seeds
    replay from the artifact alone; it defaults to the
    ``CHAOS_ARTIFACTS_DIR`` environment variable, which is how CI collects
    artifacts from failing sweeps without touching the tests.

    ``control_replicas=N`` (N >= 2) replicates the control plane across a
    quorum of the first N workers (all protected from worker faults) and
    adds the ``control-crash`` / ``control-partition`` kinds to generated
    plans.  ``control_kill_at`` kills a minority of ``control_kill_count``
    replicas -- leader first -- and restarts them :data:`CONTROL_HEAL_AFTER`
    seconds later: given a journal record kind (a string) the kill lands
    synchronously on the first record of that kind (phase-targeted
    chaos), given a number it lands at that virtual time (e.g. the
    midpoint of a chain-replication hop); ``"control.member-commit"``
    lands on the membership hand-off, never on the group's initial
    configuration record.  ``membership_change_at`` replaces the group's
    last non-leader member with a spare worker at that virtual time (one
    hand-off record, possibly overlapping the kills).
    """
    arguments = dict(locals())  # the parameters: the artifact and traced re-run
    if artifacts_dir is None:
        artifacts_dir = os.environ.get("CHAOS_ARTIFACTS_DIR") or None
    sim = Simulator(tracer=tracer)
    cluster = Cluster(sim)
    workers = cluster.add_machines(
        machines,
        prefix="w",
        cores=8,
        memory=4 * 1024**3,
        nic_bandwidth=1e9,
        disks=2,
        disk_read_bandwidth=400e6,
        disk_write_bandwidth=280e6,
        disk_capacity=512 * 1024**3,
        network_latency=0.0005,
    )
    log = DurableLog(sim, scheduler=cluster.scheduler)
    log.create_topic("events", 2)
    job = Job(
        sim,
        cluster,
        counter_graph(),
        log,
        workers,
        config=JobConfig(
            num_key_groups=32,
            checkpoint_interval=1.0,
            exchange_interval=0.05,
            watermark_interval=0.1,
            source_idle_timeout=0.05,
        ),
    ).start()
    rhino = Rhino(
        job,
        cluster,
        RhinoConfig(
            replication_factor=2,
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=0.05,
        ),
    ).attach()

    # -- failure suspicion + serialized recovery --------------------------
    detector = FailureDetector(
        sim,
        cluster,
        machines=workers,
        home=workers[0],
        heartbeat_interval=0.25,
        suspicion_timeout=0.75,
    )
    detector.start()
    rhino.enable_failure_detection(detector)

    group = None
    if control_replicas is not None:
        if not 2 <= control_replicas <= len(workers):
            raise ValueError(
                f"control_replicas must be in [2, {len(workers)}]"
            )
        group = rhino.enable_control_group(
            workers[:control_replicas], detector=detector
        )

    queued = set()
    pending = []

    def maybe_recover(machine):
        # A suspected-but-alive machine is just partitioned away; aborting
        # its handovers (enable_failure_detection) is enough.  Only an
        # actually dead machine needs its instances moved.
        if machine.alive or machine.name in queued:
            return
        queued.add(machine.name)
        pending.append(machine)

    detector.on_suspect.append(maybe_recover)

    def recovery_driver():
        # One recovery at a time: chaos suspicion can fire during a
        # recovery, and the handover manager runs concurrent handovers
        # side by side (nothing refuses them), so this driver queues.
        while True:
            yield sim.timeout(0.1)
            while pending:
                machine = pending.pop(0)
                if machine.alive:  # restarted before the driver got to it
                    queued.discard(machine.name)
                    continue
                proc = rhino.reconfigure("failure", machine=machine)
                proc.defused = True
                try:
                    yield proc
                except Exception:  # noqa: BLE001 - machine may hold nothing
                    pass
                queued.discard(machine.name)

    driver = sim.process(recovery_driver(), name="chaos-recovery-driver")
    driver.defused = True

    # -- fault plan + workload --------------------------------------------
    if kinds is None and group is not None:
        kinds = ALL_KINDS + CONTROL_KINDS
    control_members = () if group is None else tuple(group.member_names())
    if group is not None:
        # Control members keep serving the data plane but are protected
        # from *worker* faults: killing a member's machine silences its
        # vote through a side door the majority-safety validator already
        # accounts for, so the sweep targets votes via the control kinds
        # only.  The spare (a future member when membership_change_at is
        # set) is protected for the same reason.
        protect = set(control_members)
        if membership_change_at is not None and control_replicas < len(workers):
            protect.add(workers[control_replicas].name)
    else:
        protect = {workers[0].name}
    plan = FaultPlan.generate(
        seed,
        [m.name for m in workers],
        count=fault_count,
        start=3.0,
        protect=tuple(sorted(protect)),
        control_members=control_members,
        **({"kinds": kinds} if kinds is not None else {}),
    )
    plan.validate(
        [m.name for m in workers],
        coordinator_host=None if group is not None else workers[0].name,
        control_members=control_members if group is not None else None,
    )
    controller = ChaosController(sim, cluster, plan, control_group=group)
    controller.start()

    if rebalance_at is not None:

        def _planned_rebalance():
            yield sim.timeout(rebalance_at)
            rebalance = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
            rebalance.defused = True
            try:
                yield rebalance
            except Exception:  # noqa: BLE001 - aborted by the chaos plan
                pass

        planned = sim.process(_planned_rebalance(), name="chaos-planned-rebalance")
        planned.defused = True

    if control_kill_at is not None:
        if group is None:
            raise ValueError("control_kill_at requires control_replicas")
        minority = (control_replicas - 1) // 2
        if not 1 <= control_kill_count <= minority:
            raise ValueError(
                f"control_kill_count must be a minority: "
                f"[1, {minority}] for {control_replicas} replicas"
            )

        def _control_kill():
            # Leader first: the kill that actually forces an election.
            victims = [group.leader.name]
            for member in group.members:
                if len(victims) >= control_kill_count:
                    break
                if member.name not in victims:
                    victims.append(member.name)
            for name in victims:
                group.crash_member(name)

            def _heal():
                yield sim.timeout(CONTROL_HEAL_AFTER)
                for name in victims:
                    group.restart_member(name)

            heal = sim.process(_heal(), name="chaos-control-heal")
            heal.defused = True

        if isinstance(control_kill_at, str):
            # Phase-targeted: kill exactly when the protocol journals its
            # first record of the requested kind.  Installed after the
            # group's initial records, so a member-commit kill lands on
            # the hand-off.
            def _control_kill_listener(record):
                if record.kind == control_kill_at:
                    group.journal.listeners.remove(_control_kill_listener)
                    _control_kill()

            group.journal.listeners.append(_control_kill_listener)
        else:

            def _timed_control_kill():
                yield sim.timeout(control_kill_at)
                _control_kill()

            timed = sim.process(_timed_control_kill(), name="chaos-control-kill")
            timed.defused = True
    if membership_change_at is not None:
        if group is None:
            raise ValueError("membership_change_at requires control_replicas")

        def _membership_change():
            yield sim.timeout(membership_change_at)
            spare = next(
                (w for w in workers if w.name not in group.member_names()),
                None,
            )
            victim = next(
                (m for m in reversed(group.members) if m is not group.leader),
                None,
            )
            if spare is None or victim is None:
                return
            target = [
                m.machine for m in group.members if m is not victim
            ] + [spare]
            proc = group.change_membership(target)
            proc.defused = True
            try:
                yield proc
            except Exception:  # noqa: BLE001 - killed by a mid-change crash
                pass  # a surviving hand-off commits under the next leader

        change = sim.process(_membership_change(), name="chaos-member-change")
        change.defused = True

    def feeder():
        for i in range(records):
            yield sim.timeout(FEED_INTERVAL)
            log.append(
                "events",
                i % 2,
                Record(KEYS[i % len(KEYS)], sim.now, value=i, nbytes=32),
            )

    sim.process(feeder(), name="feeder:events")

    # -- run to quiescence ------------------------------------------------
    expected = expected_counts(records)
    sim.run(until=max(plan.horizon + 3.0, records * FEED_INTERVAL + 3.0))
    while sim.now < max_sim_time:
        drained = (
            controller.done
            and not pending
            and not queued
            and (group is None or group.stable())
            and not rhino.handover_manager._inflight
            and not any(
                tag != "data-exchange"
                for tag, _rem, _rate in cluster.scheduler.active_flows()
            )
            and job.fabric.pending_elements == 0
            and final_counts(job) == expected
        )
        if drained:
            break
        # Poll off the checkpoint grid: a whole-second step from a
        # whole-second start lands every poll on the instant the
        # coordinator journals ``checkpoint.triggered``, so the group
        # would never be seen ``stable()``.
        sim.run(until=sim.now + 0.25)
    duration = sim.now
    if group is not None:
        group.stop()
    detector.stop()
    driver.interrupt("chaos-run-complete")
    sim.run(until=sim.now + 0.05)
    # A record appended in that last step (``checkpoint.completed``) may
    # still be on the wire: let the group settle it, for at most 1 s,
    # before the quorum check reads it.  A tail still lagging then fails.
    settle_until = sim.now + 1.0
    while group is not None and sim.now < settle_until:
        top = len(group.journal.records)
        if group.committed_seq >= top and not any(
            m.service_up and m.machine.alive and m.synced_seq < top
            for m in group.members
        ):
            break
        sim.run(until=sim.now + 0.05)

    # -- MTTR from the detector's vantage ---------------------------------
    suspected_at = {}
    mttr_samples = []
    for time, name, event in detector.history:
        if event == "suspect":
            suspected_at[name] = time
        elif event == "unsuspect" and name in suspected_at:
            mttr_samples.append(time - suspected_at.pop(name))

    # -- invariants --------------------------------------------------------
    violations = []
    try:
        check_all(
            sim,
            cluster,
            job,
            rhino,
            expected,
            fabric=job.fabric,
            control_group=group,
        )
    except InvariantViolation as exc:
        violations.append(str(exc))
    if violations and artifacts_dir:
        # Everything needed to replay the broken seed from the CI page:
        # ``run_chaos(**artifact["arguments"])`` reruns it.
        os.makedirs(artifacts_dir, exist_ok=True)
        plan_path = os.path.join(artifacts_dir, f"fault-plan-seed{seed}.json")
        replay = {
            name: value
            for name, value in arguments.items()
            if name not in ("tracer", "artifacts_dir")
        }
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "arguments": replay,
                    "plan": plan.to_dict(),
                    "violations": violations,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
        trace_path = os.path.join(artifacts_dir, f"trace-seed{seed}.json")
        if tracer is not None and tracer.enabled:
            write_chrome_trace(tracer, trace_path)
        else:
            # The run was untraced; the seed replays bit-identically, so a
            # traced re-run produces the exact timeline of the failure.
            retrace = Tracer()
            # artifacts_dir=False: no recursive artifact dumps.
            run_chaos(**{**arguments, "tracer": retrace, "artifacts_dir": False})
            write_chrome_trace(retrace, trace_path)
    control_stats = failover_stats = replay_checks = None
    if group is not None:
        failover_stats = list(group.failover.history)
        replay_checks = list(group.failover.replay_checks)
        control_stats = {
            "replicas": control_replicas,
            "epoch": group.epoch,
            "elections": group.elections,
            "rejoins": group.rejoins,
            "members": group.member_names(),
            "committed_seq": group.committed_seq,
            "fencing_rejections": group.fencing_rejections,
            "truncated_records": group.journal.truncated_records,
            "truncated_takeovers": group.failover.truncated_takeovers,
        }
    return ChaosRunResult(
        seed,
        plan,
        final_counts(job),
        expected,
        violations,
        mttr_samples,
        duration,
        failover_stats=failover_stats,
        replay_checks=replay_checks,
        control_stats=control_stats,
    )


def run_chaos_sweep(seeds, **kwargs):
    """Run :func:`run_chaos` for each seed; returns all results."""
    return [run_chaos(seed, **kwargs) for seed in seeds]


#: Journal record kinds the control-quorum sweep lands its kills on --
#: every kind the planned rebalance journals, the replica-map baseline, and
#: the membership hand-off record itself (a leader crash
#: mid-membership-change).
CONTROL_SWEEP_PHASES = tuple(step.kind for step in PHASE_TABLE) + (
    "groups.assigned",
    "control.member-commit",
)
#: Virtual seconds within which every takeover of the control-quorum
#: sweep must finish.
CONTROL_SWEEP_MTTR_BOUND = 15.0


def run_control_quorum_sweep(
    seeds,
    replicas=3,
    machines=None,
    artifacts_dir=None,
    **kwargs,
):
    """Minority-failure sweep against an N-replica control plane.

    Each seed kills a minority of the group (leader first) at a
    different journal record kind (:data:`CONTROL_SWEEP_PHASES`), rotating
    through every handover phase and -- every third seed -- overlapping a
    membership hand-off; kill
    sizes rotate through every minority up to
    ``(replicas - 1) // 2``.  A planned rebalance guarantees handover
    records exist for the kills to land on.  Beyond the per-run
    invariants, every takeover must finish within
    :data:`CONTROL_SWEEP_MTTR_BOUND` virtual seconds.

    Writes an ``invariant-verdict-<replicas>r.json`` artifact (per-seed
    scenario + verdict rows) to ``artifacts_dir`` or
    ``CHAOS_ARTIFACTS_DIR`` when set -- the file CI uploads.  Returns the
    list of :class:`ChaosRunResult`.
    """
    if artifacts_dir is None:
        artifacts_dir = os.environ.get("CHAOS_ARTIFACTS_DIR") or None
    minority = max(1, (replicas - 1) // 2)
    rebalance_at = kwargs.pop("rebalance_at", 2.0)
    rows = []
    results = []
    for index, seed in enumerate(seeds):
        phase = CONTROL_SWEEP_PHASES[index % len(CONTROL_SWEEP_PHASES)]
        kill_count = (index % minority) + 1
        with_change = index % 3 == 0 or phase == "control.member-commit"
        result = run_chaos(
            seed,
            machines=machines if machines is not None else replicas + 4,
            control_replicas=replicas,
            control_kill_at=phase,
            control_kill_count=kill_count,
            membership_change_at=4.0 if with_change else None,
            rebalance_at=rebalance_at,
            artifacts_dir=artifacts_dir,
            **kwargs,
        )
        takeovers = [h["total"] for h in result.failover_stats if "total" in h]
        try:
            check_bounded_mttr(takeovers, CONTROL_SWEEP_MTTR_BOUND)
        except InvariantViolation as exc:
            result.violations.append(str(exc))
        results.append(result)
        rows.append(
            {
                "seed": seed,
                "replicas": replicas,
                "phase": phase,
                "kill_count": kill_count,
                "membership_change": with_change,
                "takeovers": [round(t, 4) for t in takeovers],
                "control": result.control_stats,
                "violations": list(result.violations),
                "ok": result.ok,
            }
        )
    if artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
        verdict_path = os.path.join(
            artifacts_dir, f"invariant-verdict-{replicas}r.json"
        )
        with open(verdict_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "replicas": replicas,
                    "mttr_bound": CONTROL_SWEEP_MTTR_BOUND,
                    "seeds": len(rows),
                    "failures": sum(1 for row in rows if not row["ok"]),
                    "runs": rows,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
    return results
