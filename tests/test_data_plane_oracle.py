"""Property test: the data plane against a ground-truth oracle.

Runs a seeded NEXMark counting topology to quiescence and compares it with
what the input alone dictates: the expected sink content and the expected
final keyed state are folded directly from the ``DurableLog`` records in
offset order (per key: running sum of ``weight``) -- no simulator, no
second engine.  A disagreement is an exactly-once bug, not an oracle to
loosen.

The fingerprint of the final completed checkpoint (source offsets plus
every stateful instance's resolved keyed state) is additionally pinned to
``GOLDEN``: the digests of commit ``bcc401c``, the last one that also ran
the per-record plane and asserted both planes bit-identical.

Ten seeds vary the topology shape (source/counter parallelism, key space,
rate); one seed runs a Rhino rebalance mid-stream and one injects a
network partition fault while records are in flight.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.core.api import Rhino, RhinoConfig
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.partitioning import key_group_of, split_key_groups, virtual_nodes
from repro.nexmark.generator import NexmarkGenerator, StreamSpec

from tests.engine_fixtures import EngineEnv

SEEDS = list(range(10))
#: Seed that runs a Rhino rebalance while the generator is producing.
HANDOVER_SEED = 3
#: Seed that partitions the network mid-stream, then heals it.
PARTITION_SEED = 7

PARTITION_SECONDS = 1.5

NUM_KEY_GROUPS = 32
VIRTUAL_NODES = 4
FEED_UNTIL = 5.0
QUIESCE_UNTIL = 16.0

#: ``state_fingerprint`` of every seed, captured at the parent commit
#: ``bcc401c`` where batch plane == record plane was still asserted.
GOLDEN = {
    0: "ad2522a1f17134d68df6bc1486a14429096c6fdda9e8a956706d962527d54528",
    1: "2a119d3c2b66d3af512d48037d28e4c62eb376e54177e896b9bb2db15599052a",
    2: "e8a9e8f3b99405e3770c2b896ce4bdba7d553ac5edaa9c4c433e9b7a9893f884",
    3: "4b3ec7cb160899a821e2393c329603f8f3fb01ce3a67be49f0ff130d063dc796",
    4: "af5875376436d3b94727302f35d10232a6bf019a671ccf1c757dcfa6ca8017d2",
    5: "b680ea7060f39c1db8a1772d076cd9172a38e1a0fe48a0b1b7144797931ad36c",
    6: "15556a7f791756c0e831a6aec440f90e91d0a6afd2246345722d4d147ebf1b19",
    7: "13ff15e3876fd22da0351a990dcf08ff11defa1e691e29fa0c504110c6b68994",
    8: "b797d0ec2aca0fb38969801e0b64e4f130ae94d3bca911b256497da95406a317",
    9: "0729afa278d203160a936b2a29c4c4d64f22ba4947c554edd60b73ca256b6415",
}


def topology_shape(seed):
    """Deterministic topology parameters for one seed."""
    return {
        "source_parallelism": 1 + (seed % 2),
        "counter_parallelism": 2 + (seed % 3),
        "key_space": 16 + 8 * (seed % 4),
        "rate": 2000.0 + 500.0 * (seed % 3),
    }


def run_pipeline(seed):
    """Run one seeded topology to quiescence.

    Returns a namespace: ``env``, ``job``, sorted sink ``results``, the
    checkpoint ``fingerprint`` and (handover seed only) the ``handover``
    process.
    """
    shape = topology_shape(seed)
    env = EngineEnv(machines=3)
    env.topic("bids", shape["source_parallelism"])

    graph = StreamGraph(f"equiv-{seed}")
    graph.source("src", topic="bids", parallelism=shape["source_parallelism"])
    graph.operator(
        "count",
        StatefulCounterLogic,
        shape["counter_parallelism"],
        inputs=[("src", "hash")],
        stateful=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    # Sampling is pure observation (no simulated cost): the coverage guard
    # reads the partition's stall off the sink's latency series.
    graph.operators["out"].measure_latency = True
    config = JobConfig(
        num_key_groups=NUM_KEY_GROUPS,
        virtual_node_count=VIRTUAL_NODES,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(graph, config=config).start()

    # Disjoint key ranges per partition give every key a total order (its
    # partition's offset order); shared keys would make cross-channel
    # interleaving (a timing artifact, not a correctness property)
    # observable in the sink.
    key_space = shape["key_space"]
    generator = NexmarkGenerator(env.sim, env.log, seed=seed, tick=0.25)
    generator.add_stream(
        StreamSpec(
            "bids",
            record_bytes=32,
            rate=shape["rate"],
            key_space=key_space,
            keys_per_tick=3,
            key_factory=lambda partition, rng: (partition, rng.randrange(key_space)),
        )
    )
    generator.start()

    handover = None
    if seed == HANDOVER_SEED:
        rhino = Rhino(
            job,
            env.cluster,
            RhinoConfig(
                replication_factor=1,
                scheduling_delay=0.1,
                local_fetch_seconds=0.01,
                state_load_seconds=0.05,
            ),
        ).attach()

        def rebalance():
            yield env.sim.timeout(2.5)
            report = yield rhino.reconfigure(
                "rebalance", op_name="count", moves=[(0, 1)]
            )
            return report

        handover = env.sim.process(rebalance())

    if seed == PARTITION_SEED:

        def fault():
            yield env.sim.timeout(2.0)
            env.cluster.partition([[env.machines[0]], env.machines[1:]])
            yield env.sim.timeout(PARTITION_SECONDS)
            env.cluster.heal()

        env.sim.process(fault())

    def stopper():
        yield env.sim.timeout(FEED_UNTIL)
        generator.stop()

    env.sim.process(stopper())
    env.run(until=QUIESCE_UNTIL)

    # The pipeline has quiesced: every generated record must be consumed
    # and the data plane drained.
    total_fed = sum(p.end_offset for p in env.log.topics["bids"])
    assert total_fed > 0
    consumed = sum(s.cursor.offset for s in job.source_instances())
    assert consumed == total_fed
    assert job.fabric.pending_elements == 0

    completed = job.coordinator.latest_completed()
    assert completed is not None
    assert sum(completed.offsets.values()) == total_fed

    return SimpleNamespace(
        env=env,
        job=job,
        results=sorted(job.sink_results("out"), key=repr),
        fingerprint=state_fingerprint(job, completed),
        handover=handover,
    )


def fold_log(log, topic):
    """The ground truth: (expected sink rows, expected keyed state).

    Per key, in offset order: a running sum of ``weight``; every record
    yields the sink row ``(key, ts, running, weight)`` and the last
    running value is the key's final state.
    """
    running = {}
    rows = []
    for index in range(log.partition_count(topic)):
        for record in log.partition(topic, index).records:
            total = running.get(record.key, 0) + record.weight
            running[record.key] = total
            rows.append((record.key, record.timestamp, total, record.weight))
    state = [
        (key_group_of(key, NUM_KEY_GROUPS), key, total)
        for key, total in running.items()
    ]
    return sorted(rows, key=repr), sorted(state, key=repr)


def state_fingerprint(job, completed):
    """Fingerprint of the final checkpoint: offsets + resolved keyed state."""
    parts = [repr(sorted(completed.offsets.items()))]
    for instance in sorted(
        job.stateful_instances(), key=lambda i: i.instance_id
    ):
        pairs = sorted(
            instance.state.extract_groups(0, NUM_KEY_GROUPS), key=repr
        )
        parts.append(f"{instance.instance_id}:{pairs!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    """One run per seed, shared by the oracle and the coverage guards."""
    cache = {}

    def run(seed):
        if seed not in cache:
            cache[seed] = run_pipeline(seed)
        return cache[seed]

    return run


class TestDataPlaneOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sink_and_state_match_the_log_fold(self, runs, seed):
        run = runs(seed)
        expected_rows, expected_state = fold_log(run.env.log, "bids")
        assert run.results == expected_rows
        state = [
            pair
            for instance in run.job.stateful_instances()
            for pair in instance.state.extract_groups(0, NUM_KEY_GROUPS)
        ]
        assert sorted(state, key=repr) == expected_state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fingerprint_matches_the_parent_commit(self, runs, seed):
        assert runs(seed).fingerprint == GOLDEN[seed]

    def test_handover_seed_actually_reconfigures(self, runs):
        """Seed 3 crossed a handover: vnodes moved, traffic on both sides."""
        run = runs(HANDOVER_SEED)
        report = run.handover.value
        assert 2.5 <= report.triggered_at < report.completed_at < FEED_UNTIL
        owner_of = run.job.assignments["count"].owner_of
        parallelism = topology_shape(HANDOVER_SEED)["counter_parallelism"]
        origin_share = split_key_groups(NUM_KEY_GROUPS, parallelism)[0]
        moved = [
            (lo, hi)
            for lo, hi in virtual_nodes(*origin_share, VIRTUAL_NODES)
            if all(owner_of(group) == 1 for group in range(lo, hi))
        ]
        assert moved
        moved_ts = [
            ts
            for key, ts, _running, _weight in run.results
            if any(lo <= key_group_of(key, NUM_KEY_GROUPS) < hi for lo, hi in moved)
        ]
        assert min(moved_ts) < report.triggered_at
        assert max(moved_ts) > report.completed_at

    def test_partition_seed_actually_stalls_records(self, runs):
        """Seed 7 held records behind the partition; fault-free seeds never."""
        stalled = runs(PARTITION_SEED).job.metrics.latency.maximum()
        assert stalled >= PARTITION_SECONDS
        for seed in SEEDS:
            if seed != PARTITION_SEED:
                assert runs(seed).job.metrics.latency.maximum() < PARTITION_SECONDS
