"""Tests for the declarative scenario DSL (specs, validation, sweeps)."""

import json

import pytest

from repro.common.errors import ReproError
from repro.experiments.scenario import (
    ReconfigureAction,
    Scenario,
    StreamScenario,
    build_keys,
    build_rate,
    expand_sweep,
    load_scenarios,
)
from repro.nexmark import (
    DiurnalRate,
    FlashCrowdRate,
    HotKeys,
    TriangularRate,
    UniformKeys,
    ZipfKeys,
)


class TestBuildRate:
    def test_bare_number_is_a_constant_rate(self):
        assert build_rate(1500) == 1500.0
        assert build_rate(2.5e6) == 2.5e6

    def test_constant_kind(self):
        assert build_rate({"kind": "constant", "rate": 4096}) == 4096.0

    def test_triangular_kind(self):
        rate = build_rate(
            {"kind": "triangular", "floor": 1e6, "ceiling": 8e6,
             "step": 0.5e6, "period": 10.0}
        )
        assert isinstance(rate, TriangularRate)
        assert rate(0.0) == 1e6

    def test_diurnal_kind(self):
        rate = build_rate({"kind": "diurnal", "base": 1e6, "peak": 4e6})
        assert isinstance(rate, DiurnalRate)
        assert rate(0.0) == pytest.approx(1e6)
        assert rate(43_200.0) == pytest.approx(4e6)

    def test_flash_crowd_composes_over_any_base(self):
        rate = build_rate(
            {
                "kind": "flash-crowd",
                "base": {"kind": "diurnal", "base": 1e6, "peak": 2e6,
                         "period": 100.0},
                "bursts": [[10.0, 5.0, 3.0]],
            }
        )
        assert isinstance(rate, FlashCrowdRate)
        assert rate(12.0) == pytest.approx(3.0 * rate.base(12.0))
        assert rate(20.0) == pytest.approx(rate.base(20.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown rate profile"):
            build_rate({"kind": "sawtooth", "rate": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ReproError, match="missing field"):
            build_rate({"kind": "flash-crowd", "bursts": []})

    def test_unexpected_field_rejected(self):
        with pytest.raises(ReproError):
            build_rate({"kind": "triangular", "floor": 1.0, "ceiling": 2.0,
                        "step": 0.5, "period": 1.0, "typo": 3})


class TestBuildKeys:
    def test_uniform(self):
        keys = build_keys({"kind": "uniform", "key_space": 500})
        assert isinstance(keys, UniformKeys)
        assert keys.key_space == 500

    def test_zipf(self):
        keys = build_keys({"kind": "zipf", "key_space": 1000, "exponent": 1.2})
        assert isinstance(keys, ZipfKeys)
        assert keys.exponent == 1.2

    def test_hot_set_composes_over_base(self):
        keys = build_keys(
            {
                "kind": "hot-set",
                "base": {"kind": "zipf", "key_space": 1000, "exponent": 1.1},
                "hot_count": 8,
                "hot_fraction": 0.7,
                "churn_interval": 30.0,
            }
        )
        assert isinstance(keys, HotKeys)
        assert keys.key_space == 1000
        assert keys.hot_fraction == 0.7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown key distribution"):
            build_keys({"kind": "pareto", "key_space": 10})

    def test_non_dict_rejected(self):
        with pytest.raises(ReproError):
            build_keys("zipf")


class TestScenarioSchema:
    def minimal(self, **overrides):
        data = {"name": "t"}
        data.update(overrides)
        return data

    def test_name_is_required(self):
        with pytest.raises(ReproError, match="name"):
            Scenario.from_dict({"sut": "rhino"})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ReproError, match="unknown fields"):
            Scenario.from_dict(self.minimal(durationn=5.0))

    def test_unknown_stream_field_rejected(self):
        with pytest.raises(ReproError, match="unknown fields"):
            Scenario.from_dict(
                self.minimal(streams={"bids": {"rrate": 1.0}})
            )

    def test_bad_stream_rate_rejected_eagerly(self):
        with pytest.raises(ReproError, match="unknown rate profile"):
            Scenario.from_dict(
                self.minimal(streams={"bids": {"rate": {"kind": "nope"}}})
            )

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown action kind"):
            Scenario.from_dict(
                self.minimal(actions=[{"at": 1.0, "kind": "explode"}])
            )

    def test_action_after_duration_rejected(self):
        with pytest.raises(ReproError, match="after the scenario"):
            Scenario.from_dict(
                self.minimal(duration=10.0, actions=[{"at": 10.0, "kind": "drain"}])
            )

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ReproError, match="duration"):
            Scenario.from_dict(self.minimal(duration=0.0))

    def test_round_trips_through_dict(self):
        scenario = Scenario.from_dict(
            {
                "name": "rt",
                "sut": "megaphone",
                "duration": 20.0,
                "streams": {
                    "persons": {
                        "rate": {"kind": "constant", "rate": 1e6},
                        "keys": {"kind": "zipf", "key_space": 100,
                                 "exponent": 1.3},
                        "keys_per_tick": 4,
                    }
                },
                "actions": [
                    {"at": 5.0, "kind": "rebalance", "params": {"moves": [[0, 1]]}}
                ],
            }
        )
        again = Scenario.from_dict(scenario.to_dict())
        assert again.to_dict() == scenario.to_dict()
        assert isinstance(again.streams["persons"], StreamScenario)
        assert isinstance(again.actions[0], ReconfigureAction)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "s.json"
        scenario = Scenario.from_dict({"name": "disk", "seed": 7})
        path.write_text(json.dumps(scenario.to_dict()))
        loaded = Scenario.load(path)
        assert loaded.name == "disk"
        assert loaded.seed == 7

    def test_committed_million_user_scenario_parses(self):
        import pathlib

        root = pathlib.Path(__file__).parent.parent
        scenario = Scenario.load(root / "examples" / "scenarios" / "million_user.json")
        assert scenario.query == "nbq8"
        assert scenario.streams["persons"].keys["kind"] == "zipf"
        assert scenario.streams["persons"].keys["key_space"] == 1_000_000
        assert scenario.actions[0].kind == "drain"


class TestSweeps:
    def base(self):
        return {
            "name": "sweep",
            "duration": 10.0,
            "streams": {"bids": {"keys": {"kind": "zipf", "key_space": 100,
                                          "exponent": 1.1}}},
        }

    def test_cross_product_and_names(self):
        points = expand_sweep(
            self.base(),
            {"seed": [1, 2, 3], "streams.bids.keys.exponent": [1.05, 1.3]},
        )
        assert len(points) == 6
        names = {p.name for p in points}
        assert "sweep__seed=1_exponent=1.05" in names
        assert len(names) == 6
        exponents = {p.streams["bids"].keys["exponent"] for p in points}
        assert exponents == {1.05, 1.3}

    def test_accepts_scenario_instance_as_base(self):
        base = Scenario.from_dict(self.base())
        points = expand_sweep(base, {"seed": [5]})
        assert points[0].seed == 5

    def test_empty_axis_rejected(self):
        with pytest.raises(ReproError, match="non-empty"):
            expand_sweep(self.base(), {"seed": []})

    def test_sweep_point_is_validated(self):
        with pytest.raises(ReproError, match="duration"):
            expand_sweep(self.base(), {"duration": [-1.0]})

    def test_load_scenarios_handles_sweep_files(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"base": self.base(), "axes": {"seed": [1, 2]}})
        )
        points = load_scenarios(path)
        assert [p.seed for p in points] == [1, 2]

    def test_load_scenarios_handles_single_files(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(self.base()))
        points = load_scenarios(path)
        assert len(points) == 1
        assert points[0].name == "sweep"
