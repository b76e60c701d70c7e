"""The block stream's failure contract at the instant a block lands.

Star and chain replication, the repair copy (from a peer or from the
primary), the fluid pre-copy's parallel streams and the handover cutover
all ship state through ``Cluster.chunked_transfer``.  A destination that dies exactly as a block
lands -- its bytes drained, the network latency not yet over -- must fail
the transfer with ``TransferFailed`` (which every caller handles), never
with the ``SimulationError`` of an I/O on a dead machine, and the origin's
credit window must get back every byte the transfer held.

Each scenario runs twice: once undisturbed, to learn the instant the
victim's first block of the transfer lands (when its disk write is
issued), and once with the victim killed at that instant, by an event
scheduled before the landing so it fires first.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.core import fluid
from repro.core.replication import ChainReplicator
from repro.obs.tracer import Tracer
from repro.sim import Simulator, TransferFailed
from repro.storage.kvs import LSMStore

from tests.engine_fixtures import live_feeder
from tests.test_fluid_handover import KEYS, ORIGIN_INDEX, abort_setup, cold_target_index

MB = 1024 * 1024


def replication_env(topology="chain"):
    sim = Simulator()
    cluster = Cluster(sim)
    machines = cluster.add_machines(4, prefix="w")
    replicator = ChainReplicator(sim, cluster, block_size=64 * MB, topology=topology)
    return sim, cluster, machines, replicator


def filled_store(name, nbytes=256 * MB):
    store = LSMStore(name)
    store.put(0, "k", "v", nbytes=nbytes)
    return store


def failed_process(process):
    """The exception a finished process failed with (None if it succeeded)."""
    assert process.triggered, "the transfer never finished"
    try:
        process.value
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        return exc
    return None


def replicate(topology, victim_index):
    def build():
        sim, cluster, machines, replicator = replication_env(topology)
        checkpoint, _flushed = filled_store("s0").checkpoint(1)

        def start():
            process = replicator.replicate(machines[0], machines[1:3], checkpoint)
            process.defused = True
            return process

        return SimpleNamespace(
            sim=sim,
            cluster=cluster,
            victim=machines[victim_index],
            tag="replication",
            start=start,
            credit=replicator._credit_for(machines[0]),
            error=failed_process,
        )

    return build


def bulk_copy(source):
    """A repair copy onto a cold member, from a peer holding current at the
    primary's checkpoint or (with no such peer) from the primary itself."""

    def build():
        sim, cluster, machines, replicator = replication_env()
        store = filled_store("s0")
        primary = SimpleNamespace(
            instance_id="s0",
            machine=machines[0],
            state=store,
            frontier=lambda: None,
        )
        if source == "peer":
            checkpoint, _flushed = store.checkpoint(1)
            sim.run(until=replicator.replicate(machines[0], [machines[1]], checkpoint))
        victim = machines[2] if source == "peer" else machines[1]

        def start():
            process = replicator.bulk_copy(primary, victim)
            process.defused = True
            return process

        return SimpleNamespace(
            sim=sim,
            cluster=cluster,
            victim=victim,
            tag="replica-repair",
            start=start,
            credit=replicator._credit_for(machines[0]),
            error=failed_process,
        )

    return build


def fluid_ship():
    sim, cluster, machines, replicator = replication_env()
    rhino = SimpleNamespace(sim=sim, cluster=cluster)
    precopy = fluid._Precopy(rhino, "h-1", None)
    chunks = [fluid.StateChunk(group, group + 1, 64 * MB) for group in range(8)]

    def start():
        process = sim.process(
            precopy.ship(machines[0], machines[1], chunks, None, "precopy")
        )
        process.defused = True
        return process

    return SimpleNamespace(
        sim=sim,
        cluster=cluster,
        victim=machines[1],
        tag="handover-precopy",
        start=start,
        credit=replicator._credit_for(machines[0]),
        error=failed_process,
    )


def cutover():
    """A cold-target rebalance; the victim is the target as the
    cutover's last block lands."""
    tracer = Tracer()
    env, job, rhino = abort_setup(tracer)
    live_feeder(env, "events", KEYS, count=300, interval=0.02)
    env.run(until=2.0)
    origin = job.instance("count", ORIGIN_INDEX)
    target = job.instance("count", cold_target_index(job, rhino, origin))

    def start():
        handover = rhino.reconfigure(
            "rebalance", op_name="count", moves=[(ORIGIN_INDEX, target.index)]
        )
        handover.defused = True
        return handover

    def error(_handover):
        # The origin catches the transfer's failure and keeps its state.
        fetch = tracer.one("handover.fetching", role="origin")
        return TransferFailed() if fetch.tags.get("status") == "port-failed" else None

    return SimpleNamespace(
        sim=env.sim,
        cluster=env.cluster,
        victim=target.machine,
        tag="handover-migration",
        start=start,
        credit=rhino.replicator._credit_for(origin.machine),
        error=error,
        settle=20.0,
    )


SCENARIOS = {
    "star": replicate("star", victim_index=2),
    "chain-tail": replicate("chain", victim_index=2),
    "chain-middle": replicate("chain", victim_index=1),
    "bulk-copy": bulk_copy("peer"),
    "bulk-copy-from-primary": bulk_copy("primary"),
    "fluid-4-streams": fluid_ship,
    "cutover": cutover,
}


def landing_instant(build):
    """When the victim's first block of the transfer lands, undisturbed."""
    scenario = build()
    landed = []
    write = scenario.victim.disk_write

    def recording_write(nbytes, tag=None):
        if tag == scenario.tag and not landed:
            landed.append(scenario.sim.now)
        return write(nbytes, tag=tag)

    scenario.victim.disk_write = recording_write
    scenario.sim.run(until=scenario.start())
    assert landed, "the transfer never wrote to the victim"
    return landed[0]


@pytest.mark.parametrize("mode", sorted(SCENARIOS))
def test_a_destination_dying_as_its_block_lands_fails_the_transfer(mode):
    build = SCENARIOS[mode]
    instant = landing_instant(build)
    scenario = build()
    sim = scenario.sim

    def killer():
        yield sim.at(instant)
        scenario.cluster.kill(scenario.victim)

    sim.process(killer())
    process = scenario.start()
    sim.run(until=getattr(scenario, "settle", instant + 10.0))
    assert isinstance(scenario.error(process), TransferFailed)
    assert scenario.credit.in_flight == 0
