"""Scenario and schedule file parsing."""

import pytest

from meterfaas.kernel import ScheduleEvent
from meterfaas.metering import MeterConfig
from meterfaas.scenario import (
    ConfigError,
    ScenarioConfig,
    format_schedule,
    load_keyvalue,
    parse_keyvalue,
    parse_schedule,
)
from meterfaas.vm import CostTable


class TestKeyValue:
    def test_basic_with_comments_and_blanks(self):
        text = "a = 1\n\n# comment\nb=two # trailing\n"
        assert parse_keyvalue(text) == {"a": "1", "b": "two"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_keyvalue("nonsense line\n")


class TestScheduleFiles:
    def test_roundtrip(self):
        events = [ScheduleEvent("worker", 5, 10), ScheduleEvent("timer", 7, 7)]
        assert parse_schedule(format_schedule(events)) == events

    def test_comments_ignored(self):
        events = parse_schedule("# header\nworker,1,2  # inline\n")
        assert events == [ScheduleEvent("worker", 1, 2)]

    def test_bad_arity_rejected(self):
        with pytest.raises(ConfigError):
            parse_schedule("worker,1\n")

    def test_non_integer_cycle_rejected_with_its_line(self):
        with pytest.raises(ConfigError, match="^line 1: "):
            parse_schedule("worker,a,3")

    def test_invalid_window_rejected(self):
        from meterfaas.kernel import ScheduleError

        with pytest.raises(ScheduleError):
            parse_schedule("worker,10,5\n")


class TestScenarioConfig:
    def test_from_mapping_types(self):
        cfg = ScenarioConfig.from_mapping(
            {"tau": "630", "epsilon": "63", "function": "known_network",
             "include_load_time": "true", "cost_heap": "12"}
        )
        assert cfg.meter == MeterConfig(tau=630, epsilon=63, include_load_time=True)
        assert cfg.function == "known_network"
        assert cfg.costs == CostTable(heap=12)

    def test_every_key(self):
        cfg = ScenarioConfig.from_mapping({
            "tau": "50", "epsilon": "0", "net_delay": "100", "handler_cost": "3",
            "include_load_time": "yes", "cost_default": "2", "cost_heap": "7", "cost_net": "4",
            "function": "echo_word", "schedule_file": "s.txt", "fuzz_seed": "9",
        })
        assert cfg == ScenarioConfig(
            meter=MeterConfig(tau=50, epsilon=0, net_delay=100, handler_cost=3, include_load_time=True),
            costs=CostTable(default=2, heap=7, net=4),
            function="echo_word", schedule_file="s.txt", fuzz_seed=9,
        )

    def test_defaults(self):
        cfg = ScenarioConfig.from_mapping({})
        assert cfg.meter == MeterConfig(tau=100, epsilon=30, handler_cost=7, net_delay=0,
                                        include_load_time=False)
        assert cfg.costs == CostTable(default=1, heap=10, net=5)
        assert (cfg.function, cfg.schedule_file, cfg.fuzz_seed) == ("fib", None, None)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="tua"):
            ScenarioConfig.from_mapping({"tua": "5"})

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("True", True),
        ("0", False), ("false", False), ("No", False), ("FALSE", False),
    ])
    def test_boolean_spellings(self, value, expected):
        cfg = ScenarioConfig.from_mapping({"include_load_time": value})
        assert cfg.meter.include_load_time is expected

    @pytest.mark.parametrize("value", ["flase", "", "2", "on", "y"])
    def test_other_boolean_values_rejected(self, value):
        with pytest.raises(ConfigError, match="include_load_time"):
            ScenarioConfig.from_mapping({"include_load_time": value})

    @pytest.mark.parametrize("key", ["tau", "epsilon", "net_delay", "handler_cost", "cost_default",
                                     "cost_heap", "cost_net", "fuzz_seed"])
    @pytest.mark.parametrize("value", ["abc", "", "1.5"])
    def test_integer_keys_name_themselves(self, key, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_mapping({key: value})
        assert str(err.value) == f"{key}: expected an integer, got {value!r}"

    def test_meter_config_construction(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("tau=50\nepsilon=0\nnet_delay=100\n")
        meter = ScenarioConfig.from_mapping(load_keyvalue(path)).meter
        assert meter.tau == 50 and meter.epsilon == 0 and meter.net_delay == 100
