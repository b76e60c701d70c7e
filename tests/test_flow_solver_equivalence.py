"""Property tests: the incremental flow engine equals the dense reference.

Max-min fair allocations are unique, so the component-local incremental
solver (``repro.sim.flows.FlowScheduler``) must agree with the dense global
solver (``tests/reference_flows.py``, which shares no solver code with it)
not just approximately but *bit-for-bit*: identical rates after every
change and identical completion timestamps under the virtual clock.  These
tests run randomized topologies (shared ports, staggered starts, gray
degradation including full stalls, port failures) through both engines and
assert exact equality.
"""

import random

import pytest

from repro.cluster import Cluster
from repro.common.errors import SimulationError
from repro.experiments.scenarios.chaos import run_chaos
from repro.sim import Simulator
from repro.sim.flows import (
    MESSAGE_SECONDS,
    FlowLost,
    FlowScheduler,
    Port,
    TransferFailed,
)
from tests.reference_flows import DenseFlowScheduler

#: (reference, engine under test): every comparison runs both, in this order.
ENGINES = (DenseFlowScheduler, FlowScheduler)

#: Number of randomized topologies the property sweep samples.
TOPOLOGY_SAMPLES = 200


def _random_plan(seed):
    """A randomized flow/port workload, built deterministically from seed.

    Returns (port_specs, actions): port capacities and a timeline of
    transfers, degradations, heals, and port failures.
    """
    rng = random.Random(seed)
    n_ports = rng.randint(1, 64)
    n_flows = rng.randint(1, 200)
    port_specs = [rng.choice([1e6, 1e7, 1e8, 1e9]) for _ in range(n_ports)]
    actions = []
    clock = 0.0
    for index in range(n_flows):
        if rng.random() < 0.3:
            clock += rng.choice([0.0, 0.001, 0.01, 0.1])
        k = min(n_ports, rng.choice([1, 1, 2, 2, 3]))
        ports = rng.sample(range(n_ports), k)
        nbytes = rng.choice([1e3, 1e5, 1e6, 5e6]) * (1 + rng.random())
        actions.append(("transfer", clock, index, ports, nbytes))
    for _ in range(rng.randint(0, 6)):
        at = clock * rng.random()
        victim = rng.randrange(n_ports)
        kind = rng.choice(["degrade", "stall", "heal", "fail"])
        actions.append((kind, at, victim))
    # Stable order: by time, then by insertion rank to fix same-instant order.
    order = {id(a): i for i, a in enumerate(actions)}
    actions.sort(key=lambda a: (a[1], order[id(a)]))
    return port_specs, actions


def _run_plan(port_specs, actions, engine):
    """Execute a plan on one engine; returns the full observable outcome."""
    sim = Simulator()
    scheduler = engine(sim)
    ports = [Port(f"p{i}", cap) for i, cap in enumerate(port_specs)]
    outcomes = {}

    def watch(index, event):
        # The watcher runs as its own process, so it may attach one kernel
        # step after an already-failed event fires; defuse up front.
        event.defused = True

        def proc():
            try:
                value = yield event
            except TransferFailed as exc:
                outcomes[index] = ("fail", type(exc).__name__, sim.now)
            else:
                outcomes[index] = ("ok", value, sim.now)

        sim.process(proc(), name=f"watch{index}")

    def driver():
        now = 0.0
        for action in actions:
            at = action[1]
            if at > now:
                yield sim.timeout(at - now)
                now = at
            if action[0] == "transfer":
                _, _, index, port_ids, nbytes = action
                try:
                    event = scheduler.transfer(
                        nbytes, [ports[i] for i in port_ids], tag=index
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    outcomes[index] = ("raise", type(exc).__name__, now)
                    continue
                watch(index, event)
            else:
                kind, _, victim = action
                port = ports[victim]
                if kind == "degrade":
                    port.degrade(capacity_scale=0.25)
                    scheduler.reallocate([port])
                elif kind == "stall":
                    port.degrade(capacity_scale=0.0)
                    scheduler.reallocate([port])
                elif kind == "heal":
                    port.restore()
                    scheduler.reallocate([port])
                elif kind == "fail" and port.enabled:
                    scheduler.fail_ports([port])

    sim.process(driver(), name="driver")
    sim.run(until=10_000.0)
    rates = sorted(
        (tag, repr(remaining), repr(rate))
        for tag, remaining, rate in scheduler.active_flows()
    )
    return {
        "outcomes": {
            k: (kind, repr(value), repr(at))
            for k, (kind, value, at) in outcomes.items()
        },
        "stalled": rates,  # flows still frozen behind stalled ports, if any
        "now": repr(sim.now),
    }


@pytest.mark.parametrize("seed", range(TOPOLOGY_SAMPLES))
def test_incremental_matches_dense_on_random_topology(seed):
    port_specs, actions = _random_plan(seed)
    dense = _run_plan(port_specs, actions, DenseFlowScheduler)
    incremental = _run_plan(port_specs, actions, FlowScheduler)
    assert incremental == dense


def test_same_instant_burst_rates_match_dense():
    """A coalesced burst must yield the same rates as N dense solves."""
    for flows, ports_n in [(1, 1), (7, 2), (40, 5), (120, 16)]:
        results = []
        for engine in ENGINES:
            sim = Simulator()
            scheduler = engine(sim)
            ports = [Port(f"p{i}", 1e9) for i in range(ports_n)]
            rng2 = random.Random(flows * 1000 + ports_n)
            for index in range(flows):
                chosen = rng2.sample(ports, min(ports_n, 2))
                scheduler.transfer(1e6 * (index + 1), chosen, tag=index)
            results.append(
                sorted(
                    (tag, repr(remaining), repr(rate))
                    for tag, remaining, rate in scheduler.active_flows()
                )
            )
        assert results[0] == results[1]


def test_chaos_run_identical_under_both_engines(monkeypatch):
    """A fixed-seed chaos run is bit-identical on the reference engine."""
    fast = run_chaos(seed=11)
    # run_chaos builds its own Cluster; swap the class the cluster reaches for.
    monkeypatch.setattr("repro.cluster.cluster.FlowScheduler", DenseFlowScheduler)
    assert isinstance(Cluster(Simulator()).scheduler, DenseFlowScheduler)
    dense = run_chaos(seed=11)
    assert fast.ok == dense.ok
    assert repr(fast.duration) == repr(dense.duration)
    assert fast.counts == dense.counts
    assert [repr(m) for m in fast.mttr_samples] == [
        repr(m) for m in dense.mttr_samples
    ]


def test_machine_failure_identical_under_both_engines():
    """Mid-transfer machine death: same victims, same survivor timing."""
    results = []
    for engine in ENGINES:
        sim = Simulator()
        cluster = Cluster(sim, scheduler=engine(sim))
        machines = cluster.add_machines(4)
        log = []

        def watch(name, event, sim=sim, log=log):
            def proc():
                try:
                    value = yield event
                except TransferFailed as exc:
                    log.append((name, "fail", type(exc).__name__, repr(sim.now)))
                else:
                    log.append((name, "ok", repr(value), repr(sim.now)))

            sim.process(proc(), name=name)

        def driver(sim=sim, cluster=cluster, machines=machines, watch=watch):
            for i, (src, dst) in enumerate(
                [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
            ):
                watch(f"t{i}", cluster.transfer(machines[src], machines[dst], 5e8))
            yield sim.timeout(0.1)
            machines[2].fail()
            yield sim.timeout(0.5)
            machines[2].restart()

        sim.process(driver(), name="driver")
        sim.run()
        results.append(sorted(log))
    assert results[0] == results[1]


# -- the solver's fast paths --------------------------------------------------


def _run_script(engine, capacities, script):
    """Run ``script`` -- ``(at, action)`` pairs, ``action(scheduler, ports,
    watch)`` -- on one engine; returns every step's rates and every
    transfer's completion.

    After each step (at the same instant) the snapshot records each
    flow's (tag, remaining, rate) and each port's aggregate rate, as
    ``repr`` so equality is bit for bit.
    """
    sim = Simulator()
    scheduler = engine(sim)
    ports = [Port(f"p{i}", capacity) for i, capacity in enumerate(capacities)]
    snapshots = []
    completions = {}

    def watch(tag, event):
        def proc():
            try:
                value = yield event
            except TransferFailed as exc:
                completions[tag] = ("fail", type(exc).__name__, repr(sim.now))
            else:
                completions[tag] = ("ok", repr(value), repr(sim.now))

        sim.process(proc(), name=f"watch-{tag}")

    def driver():
        for at, action in script:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            action(scheduler, ports, watch)
            flows = sorted(
                (tag, repr(remaining), repr(rate))
                for tag, remaining, rate in scheduler.active_flows()
            )
            snapshots.append(
                (repr(sim.now), flows, [repr(scheduler.port_rate(p)) for p in ports])
            )

    sim.process(driver(), name="driver")
    sim.run(until=1_000.0)
    return snapshots, completions


def _start(tag, nbytes, port_ids):
    def action(scheduler, ports, watch):
        watch(tag, scheduler.transfer(nbytes, [ports[i] for i in port_ids], tag=tag))

    return action


def _look(scheduler, ports, watch):
    """A step that only takes a snapshot."""


def _look_bytes(charged):
    """A step that appends every port's cumulative bytes to ``charged``."""

    def action(scheduler, ports, watch):
        scheduler.active_flows()  # account the bytes moved up to now
        charged.append([repr(scheduler.port_bytes.get(p, 0.0)) for p in ports])

    return action


def _assert_engines_agree(capacities, script):
    dense, incremental = (
        _run_script(engine, capacities, script) for engine in ENGINES
    )
    assert incremental == dense
    return incremental


class TestSolverFastPaths:
    """The trivial components of the incremental solver (a lone flow, a
    solve with no flow left, a tie on the smallest share) and the paths
    that settle lone flows and emptied ports without a component walk,
    rate for rate and completion for completion against the dense
    reference."""

    def test_a_lone_flow_on_idle_ports_takes_its_tightest_port(self):
        snapshots, completions = _assert_engines_agree(
            [1e6, 4e5, 4e5],
            [(0.0, _start("lone", 2e6, [0, 1, 2])), (1.0, _look)],
        )
        assert snapshots[0][1] == [("lone", repr(2e6), repr(4e5))]
        assert completions["lone"] == ("ok", repr(0.0), repr(5.0))

    def test_a_completion_that_empties_its_ports(self):
        # "short" leaves p0 and p1 empty while "other" runs on p2; a later
        # flow on p0 gets the whole port again.
        snapshots, completions = _assert_engines_agree(
            [1e6, 2e6, 1e6],
            [
                (0.0, _start("short", 1e6, [0, 1])),
                (0.0, _start("other", 5e6, [2])),
                (1.5, _look),
                (2.0, _start("late", 1e6, [0])),
            ],
        )
        assert snapshots[2][2][:2] == [repr(0), repr(0)]  # nothing crosses them
        assert completions["short"][2] == repr(1.0)
        assert completions["late"][2] == repr(3.0)

    def test_a_lone_flow_behind_a_stalled_port_resumes_on_heal(self):
        def stall(scheduler, ports, watch):
            ports[0].degrade(capacity_scale=0.0)
            scheduler.reallocate([ports[0]])

        def heal(scheduler, ports, watch):
            ports[0].restore()
            scheduler.reallocate([ports[0]])

        snapshots, completions = _assert_engines_agree(
            [1e6, 5e5],
            [
                (0.0, stall),
                (0.0, _start("frozen", 1e6, [0, 1])),
                (3.0, _look),
                (3.0, heal),
            ],
        )
        assert snapshots[2][1] == [("frozen", repr(1e6), repr(0.0))]
        assert completions["frozen"] == ("ok", repr(0.0), repr(5.0))

    def test_two_ports_tie_on_the_smallest_share(self):
        # p0 and p1 both offer a third of 1e6 to three flows, and "c"
        # crosses both.  The first port seen freezes first; the other's
        # flows then share its float residual, one ulp above a third.
        third, rest = repr(1e6 / 3), repr((1e6 - 1e6 / 3) / 2)
        assert third != rest
        snapshots, _ = _assert_engines_agree(
            [1e6, 1e6, 5e6],
            [
                (0.0, _start("a", 4e6, [0])),
                (0.0, _start("b", 3e6, [0, 2])),
                (0.0, _start("c", 2e6, [0, 1])),
                (0.0, _start("d", 1e6, [1, 2])),
                (0.0, _start("e", 5e6, [1])),
                (0.0, _look),
            ],
        )
        rates = {tag: rate for tag, _remaining, rate in snapshots[-1][1]}
        assert rates == {"a": third, "b": third, "c": third, "d": rest, "e": rest}

    def test_a_flow_listing_a_port_twice(self):
        # Counted once on that port, charged twice to its residual, as
        # the reference's member sets and residual loop do.
        _assert_engines_agree(
            [1e6, 8e5],
            [
                (0.0, _start("twice", 3e6, [0, 1, 0])),
                (0.0, _start("plain", 2e6, [0])),
                (0.0, _start("other", 2e6, [1])),
                (0.5, _look),
            ],
        )

    def test_a_lone_flow_listing_a_port_twice(self):
        # Alone on p0 but listed there twice: its rate is p1's capacity
        # and p0 is charged its bytes twice, as the reference charges
        # every listed port.
        charged = []
        snapshots, completions = _assert_engines_agree(
            [1e6, 8e5],
            [(0.0, _start("twice", 3e6, [0, 1, 0])), (5.0, _look_bytes(charged))],
        )
        assert snapshots[0][1] == [("twice", repr(3e6), repr(8e5))]
        assert completions["twice"] == ("ok", repr(0.0), repr(3.75))
        assert charged == [[repr(6e6), repr(3e6)]] * 2

    def test_two_flows_enter_one_idle_port_in_one_instant(self):
        # "x" and "y" share idle p0, so they water-fill together; "solo",
        # started in the same instant, is alone on p3.
        snapshots, _ = _assert_engines_agree(
            [1e6, 3e5, 2e6, 5e5],
            [
                (0.0, _start("x", 2e6, [0, 1])),
                (0.0, _start("y", 2e6, [2, 0])),
                (0.0, _start("solo", 1e6, [3])),
                (0.0, _look),
                (2.0, _look),
            ],
        )
        rates = {tag: rate for tag, _remaining, rate in snapshots[-2][1]}
        assert rates == {"x": repr(3e5), "y": repr(7e5), "solo": repr(5e5)}

    def test_a_completion_empties_a_port_and_a_transfer_takes_it_at_once(self):
        # "first" drains p0 at t=1 exactly when "next" starts on p0 and
        # p1, while "stay" runs on alone on p2.
        charged = []
        snapshots, completions = _assert_engines_agree(
            [1e6, 4e5, 1e6],
            [
                (0.0, _start("first", 1e6, [0])),
                (0.0, _start("stay", 4e6, [2])),
                (1.0, _start("next", 1e6, [0, 1])),
                (1.5, _look_bytes(charged)),
            ],
        )
        assert completions["first"][2] == repr(1.0)
        rates = {tag: rate for tag, _remaining, rate in snapshots[-1][1]}
        assert rates == {"stay": repr(1e6), "next": repr(4e5)}
        assert charged == [[repr(1.2e6), repr(2e5), repr(1.5e6)]] * 2

    def test_a_lone_flow_on_a_degraded_port_is_reallocated(self):
        def slow(scheduler, ports, watch):
            ports[0].degrade(capacity_scale=0.25)
            scheduler.reallocate([ports[0]])

        snapshots, completions = _assert_engines_agree(
            [1e6, 5e5],
            [
                (0.0, _start("lone", 2e6, [0])),
                (0.0, _start("other", 1e6, [1])),
                (1.0, slow),
                (2.0, _look),
            ],
        )
        rates = {tag: rate for tag, _remaining, rate in snapshots[-2][1]}
        assert rates == {"lone": repr(2.5e5), "other": repr(5e5)}
        assert completions["lone"][2] == repr(5.0)

    def test_a_lone_flow_severed_by_a_partition_or_a_port_failure(self):
        def sever(scheduler, ports, watch):
            scheduler.fail_flows_matching(
                lambda flow_ports: ports[0] in flow_ports,
                lambda flow: FlowLost(flow.ports[0]),
            )

        def kill(scheduler, ports, watch):
            scheduler.fail_ports([ports[2]])

        snapshots, completions = _assert_engines_agree(
            [1e6, 5e5, 2e5, 1e6],
            [
                (0.0, _start("cut", 2e6, [0, 1])),
                (0.0, _start("dead", 2e6, [2, 3])),
                (1.0, sever),
                (1.0, _start("after-cut", 1e6, [0, 1])),
                (2.0, kill),
                (2.0, _start("after-kill", 1e6, [3])),
                (2.5, _look),
            ],
        )
        assert completions["cut"] == ("fail", "FlowLost", repr(1.0))
        assert completions["dead"] == ("fail", "PortFailed", repr(2.0))
        rates = {tag: rate for tag, _remaining, rate in snapshots[-1][1]}
        assert rates == {"after-cut": repr(5e5), "after-kill": repr(1e6)}


class TestMessages:
    """A transfer that drains alone at its tightest port within
    ``MESSAGE_SECONDS`` is a message: no rate, no solve, one landing.  It
    keeps a flow's failure contract, and both engines agree on it."""

    def test_a_message_takes_no_share_and_lands_after_its_drain(self):
        # 500 B on a 1e6 B/s port drains in 0.5 ms: a message beside a
        # bulk flow that keeps the whole port.
        assert 500 / 1e6 <= MESSAGE_SECONDS < 2e3 / 1e6
        charged = []
        snapshots, completions = _assert_engines_agree(
            [1e6, 4e6],
            [
                (0.0, _start("bulk", 4e6, [0, 1])),
                (0.0, _start("msg", 500.0, [0, 1])),
                (0.0, _start("twin", 500.0, [0])),  # drains at the same instant
                (0.0, _start("fluid", 2e3, [1])),
                (0.001, _look_bytes(charged)),
            ],
        )
        flows = dict((tag, (rest, rate)) for tag, rest, rate in snapshots[3][1])
        assert flows["msg"] == (repr(500.0), repr(0.0))
        assert flows["bulk"][1] == repr(1e6)  # no share went to the message
        assert completions["msg"] == ("ok", repr(0.0), repr(500 / 1e6))
        assert completions["twin"] == completions["msg"]
        # A message's bytes are charged to each port it crosses.
        assert charged[0][0] == repr(1e6 * 0.001 + 500.0 + 500.0)

    def test_a_message_and_flows_on_a_failed_port_fail_in_id_order(self):
        def kill(scheduler, ports, watch):
            scheduler.fail_ports([ports[0]])

        orders = []
        for engine in ENGINES:
            _snapshots, completions = _run_script(
                engine,
                [1e6, 1e6],
                [
                    (0.0, _start("first", 1e6, [0])),
                    (0.0, _start("msg", 500.0, [1, 0])),
                    (0.0, _start("last", 1e6, [0, 1])),
                    (0.0002, kill),
                ],
            )
            orders.append(list(completions.items()))
        assert orders[0] == orders[1]
        assert orders[1] == [
            (tag, ("fail", "PortFailed", repr(0.0002)))
            for tag in ("first", "msg", "last")
        ]

    def test_a_small_transfer_over_a_stalled_port_freezes_until_heal(self):
        def stall(scheduler, ports, watch):
            ports[0].degrade(capacity_scale=0.0)
            scheduler.reallocate([ports[0]])

        def heal(scheduler, ports, watch):
            ports[0].restore()
            scheduler.reallocate([ports[0]])

        snapshots, completions = _assert_engines_agree(
            [1e6],
            [(0.0, stall), (0.0, _start("small", 500.0, [0])), (2.0, heal)],
        )
        assert snapshots[1][1] == [("small", repr(500.0), repr(0.0))]
        # A flow: it lands when the solver drains it, with a float residue.
        kind, _residue, at = completions["small"]
        assert (kind, at) == ("ok", repr(2.0 + 500 / 1e6))


@pytest.mark.parametrize("engine", ENGINES)
def test_machine_messages_fail_on_a_partition_and_a_disk_stall_freezes_them(engine):
    """On a ``Cluster``: ``active_flows()`` lists a message in flight, a
    partition fails it with ``NetworkPartitioned``, a port failure with
    ``PortFailed``, and a small write to a stalled disk lands on heal."""
    sim = Simulator()
    cluster = Cluster(sim, scheduler=engine(sim))
    a, b, c = cluster.add_machines(3)
    log = {}

    def watch(name, event):
        def proc():
            try:
                yield event
            except TransferFailed as exc:
                log[name] = (type(exc).__name__, sim.now)
            else:
                log[name] = ("ok", sim.now)

        sim.process(proc(), name=name)

    def driver():
        watch("cut", cluster.transfer(a, b, 1000, tag="cut"))
        watch("dead", cluster.transfer(a, c, 1000, tag="dead"))
        in_flight = cluster.scheduler.active_flows()
        assert sorted(tag for tag, _rest, _rate in in_flight) == ["cut", "dead"]
        yield sim.timeout(4e-7)  # both still draining (8e-7 s at 1.25 GB/s)
        cluster.partition([[a, c], [b]])
        c.fail()
        cluster.heal()
        cluster.stall_disk(a)
        watch("write", a.disk_write(1000, tag="write"))
        yield sim.timeout(1.0)
        cluster.heal_disk(a)

    sim.process(driver(), name="driver")
    sim.run()
    assert log["cut"] == ("NetworkPartitioned", 4e-7)
    assert log["dead"] == ("PortFailed", 4e-7)
    assert log["write"] == ("ok", 4e-7 + 1.0 + 1000 / 280e6)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_transfer_crossing_no_port_is_refused(engine):
    """Nothing would bound its rate: both engines raise."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="no port"):
        engine(sim).transfer(1e6, [])


@pytest.mark.parametrize("engine", ENGINES)
def test_negative_latency_rejected(engine):
    """It would land the transfer before it started: both engines raise."""
    sim = Simulator()
    scheduler = engine(sim)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="latency"):
        scheduler.transfer(1e6, [Port("nic", 1e6)], latency=-3.0)
    sim.run()
    assert sim.now == 1.0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_zero_byte_transfer_may_cross_no_port(engine):
    """``Cluster.transfer(src, src, ...)`` sends ``transfer(0, [])``: it
    completes at once."""
    sim = Simulator()
    event = engine(sim).transfer(0, [])
    sim.run()
    assert event.processed and event.value == 0 and sim.now == 0.0
