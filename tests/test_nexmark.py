"""Tests for the NEXMark workload: events, generator, and query graphs."""

import pytest

from repro.sim import Simulator
from repro.storage.log import DurableLog
from repro.nexmark import (
    AUCTION_BYTES,
    BID_BYTES,
    PERSON_BYTES,
    NexmarkGenerator,
    StreamSpec,
    TriangularRate,
    nbq5,
    nbq8,
    nbqx,
)


class TestEvents:
    def test_record_sizes_match_paper(self):
        assert PERSON_BYTES == 206
        assert AUCTION_BYTES == 269
        assert BID_BYTES == 32


class TestTriangularRate:
    def test_starts_at_floor(self):
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        assert rate(0.0) == 1e6

    def test_rises_by_step_every_period(self):
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        assert rate(10.0) == 1.5e6
        assert rate(25.0) == 2e6

    def test_reaches_ceiling_then_descends(self):
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        leg = (8e6 - 1e6) / 0.5e6 * 10.0  # 140 s up
        assert rate(leg - 1.0) == pytest.approx(7.5e6)
        assert rate(leg + 1.0) == 8e6
        assert rate(leg + 11.0) == 7.5e6

    def test_cycle_repeats(self):
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        cycle = 2 * (8e6 - 1e6) / 0.5e6 * 10.0
        for t in (0.0, 35.0, 140.0, 170.0):
            assert rate(t) == rate(t + cycle)

    def test_invalid_profile_rejected(self):
        from repro.common.errors import EngineError

        with pytest.raises(EngineError):
            TriangularRate(floor=5e6, ceiling=1e6)

    def test_ascending_leg_reaches_ceiling(self):
        # Regression: the ascent used to top out at ceiling - step, with
        # the peak only held by the descending leg's first period.
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        leg = (8e6 - 1e6) / 0.5e6 * 10.0  # 140 s of ascent
        assert rate(leg + 5.0) == 8e6  # the ascending leg's final level
        # The level just before must be one step below the peak ...
        assert rate(leg - 5.0) == 7.5e6
        # ... and the peak is held for exactly one period per cycle.
        peak_seconds = sum(
            10.0 for t in range(0, 280, 10) if rate(t + 5.0) == 8e6
        )
        assert peak_seconds == 10.0

    def test_full_cycle_shape_is_a_symmetric_triangle(self):
        # Pin the §5.5 1 -> 8 -> 1 ramp level by level: every level from
        # floor to ceiling appears on the way up, then the interior
        # levels walk back down, and each level is held for one period.
        rate = TriangularRate(floor=1e6, ceiling=8e6, step=0.5e6, period=10.0)
        levels = [rate(t + 5.0) / 1e6 for t in range(0, 280, 10)]
        ascent = [1.0 + 0.5 * i for i in range(15)]  # 1.0 .. 8.0
        descent = [7.5 - 0.5 * i for i in range(13)]  # 7.5 .. 1.5
        assert levels == pytest.approx(ascent + descent)
        # The cycle then repeats from the floor.
        assert rate(285.0) == 1e6


class TestGenerator:
    def make_generator(self, rate=32_000.0, tick=0.5, partitions=4):
        sim = Simulator()
        log = DurableLog(sim)
        log.create_topic("bids", partitions)
        generator = NexmarkGenerator(sim, log, seed=7, tick=tick)
        generator.add_stream(
            StreamSpec("bids", BID_BYTES, rate, key_space=1000, keys_per_tick=2)
        )
        return sim, log, generator

    def test_rate_is_respected_in_bytes(self):
        sim, _log, generator = self.make_generator(rate=32_000.0)
        generator.start()
        sim.run(until=10.0)
        # 32 KB/s for 10 s = 320 KB (within rounding of weights).
        assert generator.bytes_emitted == pytest.approx(320_000, rel=0.05)

    def test_records_spread_over_partitions(self):
        sim, log, generator = self.make_generator()
        generator.start()
        sim.run(until=5.0)
        assert all(p.end_offset > 0 for p in log.topics["bids"])

    def test_timestamps_strictly_increase_per_partition(self):
        sim, log, generator = self.make_generator()
        generator.start()
        sim.run(until=5.0)
        for index in range(4):
            partition = log.partition("bids", index)
            timestamps = [r.timestamp for r in partition.records]
            assert timestamps == sorted(timestamps)
            assert len(set(timestamps)) == len(timestamps)

    def test_deterministic_with_same_seed(self):
        def run():
            sim, log, generator = self.make_generator()
            generator.start()
            sim.run(until=3.0)
            return [
                (r.key, r.weight)
                for r in log.partition("bids", 0).records
            ]

        assert run() == run()

    def test_stop_halts_emission(self):
        sim, _log, generator = self.make_generator()
        generator.start()
        sim.run(until=2.0)
        emitted = generator.records_emitted
        generator.stop()
        sim.run(until=5.0)
        assert generator.records_emitted == emitted

    def test_varying_rate_changes_emission(self):
        sim = Simulator()
        log = DurableLog(sim)
        log.create_topic("bids", 1)
        generator = NexmarkGenerator(sim, log, seed=7, tick=0.5)
        generator.add_stream(
            StreamSpec(
                "bids",
                BID_BYTES,
                TriangularRate(floor=1000.0, ceiling=8000.0, step=500.0, period=10.0),
                key_space=100,
            )
        )
        generator.start()
        sim.run(until=10.0)
        early = generator.bytes_emitted
        sim.run(until=80.0)
        late_rate = (generator.bytes_emitted - early) / 70.0
        assert late_rate > early / 10.0  # ramped up

    def test_weights_carry_volume(self):
        sim, log, generator = self.make_generator(rate=320_000.0)
        generator.start()
        sim.run(until=1.0)
        partition = log.partition("bids", 0)
        assert any(r.weight > 1 for r in partition.records)

    def test_weight_accounting_per_topic(self):
        sim, log, generator = self.make_generator(rate=32_000.0)
        generator.start()
        sim.run(until=5.0)
        assert generator.weight_emitted == generator.weight_by_topic["bids"]
        assert generator.bytes_emitted == generator.bytes_by_topic["bids"]
        total = sum(
            r.weight
            for index in range(4)
            for r in log.partition("bids", index).records
        )
        assert total == generator.weight_emitted


class TestStreamSpecValidation:
    def test_rejects_non_positive_keys_per_tick(self):
        from repro.common.errors import EngineError

        with pytest.raises(EngineError, match="keys_per_tick"):
            StreamSpec("bids", BID_BYTES, 1000.0, keys_per_tick=0)

    def test_rejects_non_positive_record_bytes(self):
        from repro.common.errors import EngineError

        with pytest.raises(EngineError, match="record_bytes"):
            StreamSpec("bids", 0, 1000.0)

    def test_rejects_empty_key_space(self):
        from repro.common.errors import EngineError

        with pytest.raises(EngineError, match="key_space"):
            StreamSpec("bids", BID_BYTES, 1000.0, key_space=0)

    def test_rejects_negative_constant_rate(self):
        from repro.common.errors import EngineError

        with pytest.raises(EngineError, match="rate"):
            StreamSpec("bids", BID_BYTES, -1.0)


class TestQueryGraphs:
    def test_nbq5_shape(self):
        graph = nbq5(source_dop=4, stateful_dop=8)
        graph.validate()
        assert graph.sources["bids"].parallelism == 4
        assert graph.operators["agg"].parallelism == 8
        assert graph.operators["agg"].stateful
        assert "out" in graph.sinks

    def test_nbq8_shape(self):
        graph = nbq8(source_dop=4, stateful_dop=8)
        graph.validate()
        assert set(graph.sources) == {"persons", "auctions"}
        join_inputs = graph.inbound_edges("join")
        assert len(join_inputs) == 2
        assert {e.input_index for e in join_inputs} == {0, 1}

    def test_nbq8_window_is_twelve_hours(self):
        graph = nbq8(source_dop=2, stateful_dop=2)
        logic = graph.operators["join"].logic_factory()
        assert logic.size == 12 * 3600.0

    def test_nbqx_has_five_stateful_subqueries(self):
        graph = nbqx(source_dop=2, stateful_dop=4)
        graph.validate()
        stateful = [op for op in graph.operators.values() if op.stateful]
        assert len(stateful) == 5
        gaps = []
        for op in stateful:
            logic = op.logic_factory()
            if hasattr(logic, "gap"):
                gaps.append(logic.gap)
        assert sorted(gaps) == [1800.0, 3600.0, 5400.0, 7200.0]

    def test_nbqx_session_gaps_are_distinct_factories(self):
        graph = nbqx(source_dop=2, stateful_dop=2)
        logics = {
            name: graph.operators[name].logic_factory()
            for name in graph.operators
            if name.startswith("session_join")
        }
        assert len({l.gap for l in logics.values()}) == 4
