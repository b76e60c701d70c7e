"""Fluid handover: chunk planning, resumable transfers,
chunked-extraction properties, the transfer protocol, and failure
regressions.

What crosses the barrier is what the target lacks: a cold target is
pre-copied in chunks with delta catch-up and cuts over with the dirty
remainder; a replica holder receives the checkpoint delta; a degraded
pre-copy ships everything at the barrier.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.common.errors import SimulationError
from repro.common.ranges import RangeSet
from repro.core import fluid
from repro.core.api import Rhino, RhinoConfig
from repro.core.fluid import StateChunk, plan_chunks
from repro.core.handover import HandoverReport
from repro.engine.graph import StreamGraph
from repro.engine.job import JobConfig
from repro.engine.operators import StatefulCounterLogic
from repro.engine.partitioning import key_group_of
from repro.experiments.preload import preload_state
from repro.experiments.scenarios.chaos import run_chaos, run_chaos_sweep
from repro.faults.retry import BLOCK_RETRY
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.storage.kvs import LSMStore

from tests.engine_fixtures import EngineEnv, live_feeder

KEYS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


# -- chunk planning ----------------------------------------------------------


class TestPlanChunks:
    def test_contiguous_groups_pack_up_to_the_cap(self):
        chunks = plan_chunks({0: 40, 1: 40, 2: 40}, [(0, 3)], 100)
        assert [(c.lo, c.hi, c.nbytes) for c in chunks] == [(0, 2, 80), (2, 3, 40)]

    def test_oversized_group_splits_into_near_equal_parts(self):
        chunks = plan_chunks({3: 250}, [(3, 4)], 100)
        assert all(c.lo == 3 and c.hi == 4 for c in chunks)
        assert [c.part for c in chunks] == [0, 1, 2]
        assert all(c.parts == 3 for c in chunks)
        assert sum(c.nbytes for c in chunks) == 250
        assert max(c.nbytes for c in chunks) - min(c.nbytes for c in chunks) <= 1

    def test_oversized_group_closes_the_open_chunk_first(self):
        chunks = plan_chunks({0: 30, 1: 500, 2: 30}, [(0, 3)], 100)
        assert (chunks[0].lo, chunks[0].hi, chunks[0].nbytes) == (0, 1, 30)
        assert all(c.lo == 1 for c in chunks[1:-1])
        assert (chunks[-1].lo, chunks[-1].hi, chunks[-1].nbytes) == (2, 3, 30)

    def test_empty_range_still_yields_a_covering_chunk(self):
        chunks = plan_chunks({}, [(0, 4), (8, 12)], 64)
        assert [(c.lo, c.hi, c.nbytes) for c in chunks] == [(0, 4, 0), (8, 12, 0)]

    def test_every_range_is_fully_covered(self):
        sizes = {0: 10, 2: 200, 5: 64, 6: 1}
        chunks = plan_chunks(sizes, [(0, 8)], 64)
        covered = set()
        for chunk in chunks:
            covered.update(range(chunk.lo, chunk.hi))
        assert covered == set(range(8))
        assert sum(c.nbytes for c in chunks) == sum(sizes.values())

    def test_zero_cap_rejected(self):
        with pytest.raises(SimulationError):
            plan_chunks({0: 1}, [(0, 1)], 0)

    def test_repr_shows_subchunk_index(self):
        assert "2/3" in repr(StateChunk(0, 1, 10, part=1, parts=3))


# -- resumable chunked transfers ---------------------------------------------


def seeded_store(seed=7):
    """A store with three flushed tables, an ingested slice of a fourth,
    a memtable, and ownership with holes."""
    rng = random.Random(seed)
    store = LSMStore("sized", owned=RangeSet([(0, 64)]))

    def write(count, target=store):
        for _ in range(count):
            group, key = rng.randrange(64), f"k{rng.randrange(40)}"
            if rng.random() < 0.15:
                target.delete(group, key)
            else:
                nbytes = rng.choice([100, 2500, 9000, rng.randrange(1, 4096)])
                target.put(group, key, rng.random(), nbytes=nbytes)

    for _ in range(3):
        write(200)
        store.flush()
    since = store.current_seq - 120  # inside the third table
    foreign = LSMStore("foreign")
    write(150, foreign)
    foreign.flush()
    store.ingest_tables(foreign.tables, ranges=[(8, 24), (40, 48)])
    write(150)
    store.drop_groups(20, 28)
    store.drop_groups(50, 52)
    return store, since


def entry_sizes(entries, ranges, keep=lambda group, entry: True):
    """{group: bytes} summed entry by entry: the oracle the range scans
    must equal."""
    wanted = RangeSet(ranges)
    sizes = {}
    for (group, _key), entry in entries:
        if group in wanted and keep(group, entry):
            sizes[group] = sizes.get(group, 0) + entry.nbytes
    return sizes


def chunk_digest(sizes, ranges, cap):
    chunks = [
        (c.lo, c.hi, repr(c.nbytes), c.part, c.parts)
        for c in plan_chunks(sizes, ranges, cap)
    ]
    return len(chunks), hashlib.sha256(repr(chunks).encode()).hexdigest()[:16]


class TestRangeSizing:
    """Pre-copy and delta sizing by range equal a sum over the entries,
    group for group, and plan the chunks the per-group sizing planned
    (digests captured with one ``bytes_in_groups(g, g + 1)`` /
    ``dirty_bytes_in_groups(g, g + 1, since)`` call per group)."""

    RANGES = [(40, 60), (0, 30), (30, 33)]  # not in group order
    CAP = 20_000  # both packs groups and splits oversized ones

    def test_snapshot_sizes(self):
        store, _since = seeded_store()
        tables = list(store.tables)
        assert len(tables) == 4 and store.memtable.entries
        sizes = fluid.snapshot_sizes(tables, self.RANGES)
        entries = [item for table in tables for item in table.items()]
        assert sizes == entry_sizes(entries, self.RANGES)
        for lo, hi in self.RANGES:
            for table in tables:
                assert table.bytes_in_groups(lo, hi) == sum(
                    entry_sizes(table.items(), [(lo, hi)]).values()
                )
        assert repr(sum(sizes.values())) == "1624059"
        assert chunk_digest(sizes, self.RANGES, self.CAP) == (104, "5c16f2e795a90008")

    def test_dirty_sizes(self):
        store, table_seq = seeded_store()
        entries = list(store.memtable.entries.items())
        for table in store.tables:
            entries.extend(table.items())
        memtable_seq = max(entry.seq for _, entry in entries) - 5
        for since in (table_seq, memtable_seq):

            def dirty(group, entry):
                return entry.seq > since and store.owns(group)

            sizes = store.dirty_bytes_by_group(self.RANGES, since)
            assert sizes == entry_sizes(entries, self.RANGES, dirty)
            for lo, hi in self.RANGES:
                assert store.dirty_bytes_in_groups(lo, hi, since) == sum(
                    entry_sizes(entries, [(lo, hi)], dirty).values()
                )
        sizes = store.dirty_bytes_by_group(self.RANGES, table_seq)
        assert repr(sum(sizes.values())) == "505520"
        assert chunk_digest(sizes, self.RANGES, self.CAP) == (39, "df9f15709f901d99")


def two_machines(nic=1e6):
    sim = Simulator()
    cluster = Cluster(sim)
    a, b = cluster.add_machines(2, prefix="m", nic_bandwidth=nic)
    return sim, cluster, a, b


def block_seconds(nbytes, nic=1e6):
    """One block's time on ``two_machines``: over the NIC, the network
    latency, then the destination's disk write (machine defaults)."""
    return nbytes / nic + 0.0005 + nbytes / 280e6


class TestChunkedTransfer:
    def test_delivers_all_chunks_and_reports_progress(self):
        sim, cluster, a, b = two_machines()
        stream = cluster.chunked_transfer(a, b, [250_000] * 4, tag="t")
        proc = sim.process(stream.run())
        sim.run(until=proc)
        assert proc.ok and proc.value == 1_000_000
        assert sum(disk.used for disk in b.disks) == 1_000_000
        assert sim.now == pytest.approx(4 * block_seconds(250_000))

    def test_retry_resends_only_unfinished_chunks(self):
        sim, cluster, a, b = two_machines()
        stream = cluster.chunked_transfer(a, b, [1_000_000] * 4, tag="t")
        proc = sim.process(stream.run())

        def chaos():
            # Each block takes ~1 simulated second at 1 MB/s; the cut
            # lands mid-block-2 and heals within the block's retry budget.
            yield sim.timeout(1.5)
            cluster.partition([[a.name], [b.name]])
            yield sim.timeout(0.5)
            cluster.heal()

        sim.process(chaos())
        sim.run(until=proc)
        assert proc.ok and proc.value == 4_000_000
        # Block 1 is not sent again; block 2 fails at the cut, its retries
        # at 1.55, 1.65 and 1.85 s fail too, and the fourth, the first
        # after the heal, restarts it whole; blocks 3 and 4 follow it.
        resend = 1.5 + sum(BLOCK_RETRY.delay(retry) for retry in (1, 2, 3, 4))
        assert sum(disk.used for disk in b.disks) == 4_000_000
        assert sim.now == pytest.approx(resend + 3 * block_seconds(1_000_000))


# -- chunked extraction / ingest properties ----------------------------------

GROUPS = 16

one_op = st.tuples(
    st.integers(0, GROUPS - 1),  # key group
    st.integers(0, 4),  # key index within the group
    st.integers(1, 64),  # modeled bytes
    st.booleans(),  # flush after this put
)

op_lists = st.lists(one_op, min_size=1, max_size=40)

cut_lists = st.lists(st.integers(1, GROUPS - 1), max_size=4)


def apply_ops(store, ops, value_offset=0):
    for index, (group, key_index, nbytes, flush) in enumerate(ops):
        store.put(
            group,
            f"k{key_index}",
            (group, key_index, value_offset + index),
            nbytes=nbytes,
        )
        if flush:
            store.flush()


def chunk_ranges(cuts, extra=None):
    """Consecutive ranges over [0, GROUPS) plus an optional overlap."""
    bounds = sorted(set([0, GROUPS] + list(cuts)))
    ranges = list(zip(bounds, bounds[1:]))
    if extra is not None:
        lo, span = extra
        ranges.append((lo, min(GROUPS, lo + span)))
    return ranges


class TestChunkedExtractionProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=op_lists,
        cuts=cut_lists,
        extra=st.tuples(st.integers(0, GROUPS - 1), st.integers(1, GROUPS)),
    )
    def test_chunked_extract_union_equals_whole_range(self, ops, cuts, extra):
        """Overlapping chunk boundaries + a mid-stream compaction must
        not change what extraction sees."""
        store = LSMStore("prop")
        apply_ops(store, ops)
        whole = {(g, k): v for g, k, v in store.extract_groups(0, GROUPS)}
        ranges = chunk_ranges(cuts, extra)
        union = {}
        for index, (lo, hi) in enumerate(ranges):
            if index == len(ranges) // 2:
                store.flush()
                store.compact()
            for group, key, value in store.extract_groups(lo, hi):
                assert union.get((group, key), value) == value
                union[(group, key)] = value
        assert union == whole

    @settings(max_examples=30, deadline=None)
    @given(pre=op_lists, post=st.lists(one_op, max_size=20))
    def test_since_seq_extracts_exactly_the_keys_written_past_cutoff(
        self, pre, post
    ):
        store = LSMStore("prop")
        apply_ops(store, pre)
        cutoff = store.current_seq
        store.flush()  # the snapshot the pre-copy ships
        apply_ops(store, post, value_offset=1000)
        delta = store.extract_groups(0, GROUPS, since_seq=cutoff)
        touched = {(group, f"k{key}") for group, key, _n, _f in post}
        assert {(g, k) for g, k, _v in delta} == touched
        # Delta values are fully resolved, not partial merges.
        for group, key, value in delta:
            assert value == store.get(group, key)

    @settings(max_examples=30, deadline=None)
    @given(pre=op_lists, post=st.lists(one_op, max_size=20))
    def test_dirty_bytes_bound_the_post_cutoff_writes(self, pre, post):
        store = LSMStore("prop")
        apply_ops(store, pre)
        cutoff = store.current_seq
        store.flush()
        apply_ops(store, post, value_offset=1000)
        dirty = store.dirty_bytes_in_groups(0, GROUPS, cutoff)
        assert (dirty > 0) == bool(post)
        # Upper bound: never more than everything written past the cutoff.
        assert dirty <= sum(nbytes for _g, _k, nbytes, _f in post)
        # Per-group chunks partition the estimate exactly.
        assert dirty == sum(
            store.dirty_bytes_in_groups(g, g + 1, cutoff) for g in range(GROUPS)
        )
        if not post:
            assert store.extract_groups(0, GROUPS, since_seq=cutoff) == []

    @settings(max_examples=30, deadline=None)
    @given(ops=op_lists, cuts=cut_lists)
    def test_chunked_ingest_roundtrips_through_overlapping_ranges(
        self, ops, cuts
    ):
        """Shipping a snapshot chunk-by-chunk (ranged ingests, overlapping
        boundaries, origin compacting mid-stream) reproduces the whole."""
        src = LSMStore("src")
        apply_ops(src, ops)
        src.flush()
        tables = list(src.tables)
        expected = {(g, k): v for g, k, v in src.extract_groups(0, GROUPS)}
        dst = LSMStore("dst")
        ranges = chunk_ranges(cuts, extra=(0, GROUPS))  # full-range overlap
        for index, (lo, hi) in enumerate(ranges):
            if index == 1:
                src.compact()  # must not corrupt the shipped snapshot
            dst.ingest_tables(tables, ranges=[(lo, hi)])
        assert {(g, k): v for g, k, v in dst.extract_groups(0, GROUPS)} == expected


# -- the transfer protocol ---------------------------------------------------


def fluid_scenario(
    state_bytes=256 * 1024 * 1024,
    tracer=None,
    keys=KEYS,
    chunk_bytes=16 * 1024 * 1024,
    delta_threshold_bytes=fluid.DELTA_THRESHOLD_BYTES,
):
    """A rebalance onto a cold target under steady load, with the chunk
    cap and the delta threshold patched to the given values.

    Returns (final counts, report, job).
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fluid, "CHUNK_BYTES", chunk_bytes)
        patch.setattr(fluid, "DELTA_THRESHOLD_BYTES", delta_threshold_bytes)
        return _run_fluid_scenario(state_bytes, tracer, keys)


def _run_fluid_scenario(state_bytes, tracer, keys):
    env = EngineEnv(machines=4, tracer=tracer)
    env.topic("events", 2)
    graph = StreamGraph("fluid")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count",
        StatefulCounterLogic,
        2,
        inputs=[("src", "hash")],
        stateful=True,
        measure_latency=True,
    )
    graph.sink("out", inputs=[("count", "forward")])
    config = JobConfig(
        num_key_groups=32,
        checkpoint_interval=None,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(graph, config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.1,
            local_fetch_seconds=0.01,
            state_load_seconds=0.05,
        ),
    ).attach()
    live_feeder(env, "events", keys, count=200, interval=0.02)
    env.run(until=1.0)
    preload_state(job, "count", state_bytes)
    env.run(until=2.0)
    handover = rhino.reconfigure("rebalance", op_name="count", moves=[(0, 1)])
    report = env.sim.run(until=handover)
    env.run(until=max(12.0, env.sim.now + 5.0))
    finals = {}
    for key, _t, value, _w in job.sink_results("out"):
        finals[key] = max(finals.get(key, 0), value)
    return finals, report, job


class TestFluidTransfer:
    def test_cold_target_is_precopied_and_cuts_over_with_a_tiny_delta(self):
        counts, report, _job = fluid_scenario()
        assert counts == {key: 200 // len(KEYS) for key in KEYS}
        assert report.precopy_bytes > 0
        assert report.precopy_chunks > 1
        assert report.cutover_bytes < report.migrated_bytes // 100

    def test_delta_rounds_run_under_write_pressure(self):
        _counts, report, _job = fluid_scenario(delta_threshold_bytes=0)
        assert report.delta_rounds >= 1
        assert report.delta_bytes > 0
        assert report.delta_seconds > 0

    def test_phase_breakdown_is_complete_and_consistent(self):
        _counts, report, _job = fluid_scenario()
        phases = report.phase_breakdown()
        assert set(phases) == {
            "precopy_bytes",
            "precopy_chunks",
            "precopy_seconds",
            "delta_bytes",
            "delta_rounds",
            "delta_seconds",
            "cutover_bytes",
            "cutover_seconds",
        }
        assert (
            phases["precopy_bytes"] + phases["delta_bytes"] + phases["cutover_bytes"]
            == report.migrated_bytes
        )

    def test_report_defaults_to_all_zero_phases(self):
        report = HandoverReport(1, "rebalance")
        phases = report.phase_breakdown()
        assert all(value == 0 for value in phases.values())

    def test_cutover_ships_only_dirty_bytes_of_the_migrating_ranges(self):
        """Writes to the half of the origin that stays behind must not
        grow the barrier's transfer: the target never receives them."""
        candidates = [f"stay-{i}" for i in range(200)]
        # Instance 0 owns key groups [0, 16); the rebalance moves [0, 8).
        staying = [k for k in candidates if 8 <= key_group_of(k, 32) < 16][:8]
        assert len(staying) == 8
        counts, report, job = fluid_scenario(keys=staying)
        assert counts == {key: 200 // len(staying) for key in staying}
        origin = job.instance("count", 0)
        assert origin.state.owned_ranges() == [(8, 16)]
        assert report.precopy_bytes > 0
        assert report.cutover_bytes == 0

    def test_8gb_cold_rebalance_has_no_latency_spike(self):
        """The 8 GB rebalance the retired bench_handover.py measured:
        the origin keeps processing while half its state streams out, so
        per-record latency in the migration window stays at steady state."""
        state_bytes = 8 * 1024**3
        _counts, report, job = fluid_scenario(
            state_bytes=state_bytes, chunk_bytes=64 * 1024 * 1024
        )
        latency = job.metrics.latency
        window_end = report.completed_at + 5.0
        assert report.total_seconds == pytest.approx(6.191, abs=5e-4)
        # No spike: the window's maximum stays below steady-state p99.
        assert latency.maximum(2.0, window_end) == pytest.approx(0.0495, abs=5e-5)
        assert latency.percentile(0.99, 0.0, 2.0) == pytest.approx(0.0505, abs=5e-5)
        assert report.precopy_chunks == 34
        # Instance 0 holds half the state and moves half of that.
        assert report.migrated_bytes == pytest.approx(state_bytes // 4, rel=1e-6)

    def test_cold_target_trace_contains_the_fluid_phases(self):
        tracer = Tracer()
        counts, report, _job = fluid_scenario(tracer=tracer)
        assert counts  # the run converged
        names = {s.name for s in tracer.spans}
        assert "handover.precopy" in names
        assert "handover.chunk" in names
        [cutover] = [s for s in tracer.spans if s.name == "handover.cutover"]
        assert cutover.tags["bytes"] == report.cutover_bytes

    def test_warm_replicated_target_skips_the_precopy(self, monkeypatch):
        """With proactive replication already holding the target's copy,
        nothing ships in the background: only the last delta is missing."""
        monkeypatch.setattr(fluid, "CHUNK_BYTES", 1024)
        tracer = Tracer()
        result = run_chaos(seed=5, fault_count=0, rebalance_at=2.0, tracer=tracer)
        assert result.ok
        assert "handover.precopy" not in {s.name for s in tracer.spans}


# -- failure during the fluid phases -----------------------------------------


#: Preloaded counter state, 2 GiB per instance: the origin's migrating
#: half alone keeps a pre-copy streaming for seconds at link speed, so a
#: kill or a partition half a second in reliably lands inside it.
PRELOAD_BYTES = 8 * 1024**3


def abort_setup(tracer=None):
    env = EngineEnv(machines=5, tracer=tracer)
    env.topic("events", 2)
    graph = StreamGraph("fluid-abort")
    graph.source("src", topic="events", parallelism=2)
    graph.operator(
        "count", StatefulCounterLogic, 4, inputs=[("src", "hash")], stateful=True
    )
    graph.sink("out", inputs=[("count", "forward")])
    config = JobConfig(
        num_key_groups=32,
        virtual_node_count=4,
        checkpoint_interval=1.0,
        exchange_interval=0.05,
        watermark_interval=0.1,
        source_idle_timeout=0.05,
    )
    job = env.job(graph, config=config).start()
    rhino = Rhino(
        job,
        env.cluster,
        RhinoConfig(
            scheduling_delay=0.2,
            local_fetch_seconds=0.1,
            state_load_seconds=0.2,
        ),
    ).attach()
    preload_state(job, "count", PRELOAD_BYTES, storage=job.checkpoint_storage)
    return env, job, rhino


#: The counter instance whose migrating half (key groups [8, 12)) is pre-copied.
ORIGIN_INDEX = 1


def degraded_precopies(tracer):
    return [
        span
        for span in tracer.spans
        if span.name == "handover.precopy" and span.tags.get("status") == "degraded"
    ]


def cold_target_index(job, rhino, origin):
    """A counter instance whose machine holds no replica of the origin."""
    group = rhino.replication_manager.group_of(origin.instance_id)
    chain = {machine.name for machine in group.chain}
    for index in range(1, 4):
        candidate = job.instance("count", index)
        if (
            candidate.machine is not origin.machine
            and candidate.machine.name not in chain
        ):
            return index
    raise AssertionError("no cold rebalance target available")


def final_counts(job):
    """Per-key counts from the counter state itself (each key group is
    owned by exactly one instance, so the sum is double-count-free; the
    sink may have restarted empty when its machine was the victim)."""
    finals = {}
    for instance in job.stateful_instances("count"):
        for _group, key, value in instance.state.extract_groups(
            0, job.config.num_key_groups
        ):
            if key in KEYS:
                finals[key] = finals.get(key, 0) + value
    return finals


def expected_counts(total=300):
    expected = {}
    for i in range(total):
        key = KEYS[i % len(KEYS)]
        expected[key] = expected.get(key, 0) + 1
    return expected


def start_cold_rebalance(also=()):
    """Two seconds of feed, then a rebalance onto a cold target (started,
    not awaited; ``also`` = further (origin, target) pairs of the same
    handover).  Returns (env, job, rhino, tracer, origin, target,
    handover)."""
    tracer = Tracer()
    env, job, rhino = abort_setup(tracer)
    live_feeder(env, "events", KEYS, count=300, interval=0.02)
    env.run(until=2.0)
    origin = job.instance("count", ORIGIN_INDEX)
    target_index = cold_target_index(job, rhino, origin)
    handover = rhino.reconfigure(
        "rebalance", op_name="count", moves=[(ORIGIN_INDEX, target_index), *also]
    )
    target = job.instance("count", target_index)
    return env, job, rhino, tracer, origin, target, handover


class TestDeathMidPrecopy:
    def run_scenario(self, victim, kill_delay=0.5):
        env, job, rhino, tracer, origin, target, handover = start_cold_rebalance()
        handover.defused = True
        doomed = origin if victim == "origin" else target

        def killer():
            yield env.sim.timeout(kill_delay)
            env.cluster.kill(doomed.machine)

        env.sim.process(killer())
        env.run(until=8.0)
        assert degraded_precopies(tracer), "the kill must land mid-pre-copy"
        return env, job, rhino, handover, doomed

    def test_origin_death_mid_precopy_fails_the_handover(self):
        env, job, rhino, handover, doomed = self.run_scenario("origin")
        assert handover.triggered and not handover.ok
        assert not rhino.handover_manager._inflight

    def test_origin_death_mid_precopy_keeps_exactly_once(self):
        env, job, rhino, handover, doomed = self.run_scenario("origin")
        recovery = rhino.reconfigure("failure", machine=doomed.machine)
        env.sim.run(until=recovery)
        env.run(until=40.0)
        assert final_counts(job) == expected_counts()

    def test_target_death_mid_precopy_keeps_exactly_once(self):
        env, job, rhino, handover, doomed = self.run_scenario("target")
        assert handover.triggered and not handover.ok
        recovery = rhino.reconfigure("failure", machine=doomed.machine)
        env.sim.run(until=recovery)
        env.run(until=40.0)
        assert final_counts(job) == expected_counts()

    def test_death_of_a_warm_plans_origin_mid_precopy_aborts_promptly(self):
        """A handover mixing a cold and a warm plan: the warm plan's origin
        dies while the cold plan pre-copies.  No execution is registered
        yet, so only the post-pre-copy liveness check can abort it."""
        env, job, rhino, _tracer, origin, target, handover = start_cold_rebalance(
            also=[(0, ORIGIN_INDEX)]
        )
        handover.defused = True
        bystander = job.instance("count", 0)
        assert bystander.machine not in (origin.machine, target.machine)

        def killer():
            yield env.sim.timeout(0.5)
            env.cluster.kill(bystander.machine)

        env.sim.process(killer())
        env.run(until=8.0)
        assert handover.triggered and not handover.ok
        assert not rhino.handover_manager._executions
        assert not job.coordinator._suspended


class TestDegradedPrecopy:
    def test_partition_mid_precopy_ships_everything_at_the_barrier(self):
        """A pre-copy cut off from its target degrades; the handover still
        completes, with the barrier shipping all the target lacks."""
        env, job, rhino, tracer, origin, target, handover = start_cold_rebalance()

        def cut_and_heal():
            # Half a second in, every stream has a chunk in flight.  The
            # cut outlasts a block's retries (1.55 s of backoff).
            yield env.sim.timeout(0.5)
            env.cluster.partition([[origin.machine.name], [target.machine.name]])
            yield env.sim.timeout(2.0)
            env.cluster.heal()

        env.sim.process(cut_and_heal())
        report = env.sim.run(until=handover)
        env.run(until=40.0)
        assert degraded_precopies(tracer)
        assert report.precopy_bytes == 0
        assert report.cutover_bytes == report.migrated_bytes > 0
        assert final_counts(job) == expected_counts()


# -- the chaos sweep with a planned warm-target rebalance --------------------
#
# tests/test_chaos.py has no rebalance; here every seed also rebalances
# the counter onto a replica holder inside the fault window.


class TestRebalanceChaosSmoke:
    def test_fault_run_with_a_rebalance_converges_exactly_once(self, monkeypatch):
        monkeypatch.setattr(fluid, "CHUNK_BYTES", 1024 * 1024)
        result = run_chaos(seed=0, rebalance_at=2.0)
        assert result.violations == []
        assert result.counts == result.expected


@pytest.mark.chaos
class TestRebalanceChaosSweep:
    def test_sweep_of_25_seeds_passes_all_invariants(self, monkeypatch):
        monkeypatch.setattr(fluid, "CHUNK_BYTES", 1024 * 1024)
        results = run_chaos_sweep(range(25), rebalance_at=2.0)
        failures = [r.row() for r in results if not r.ok]
        assert not failures, f"rebalance chaos sweep failures: {failures}"
