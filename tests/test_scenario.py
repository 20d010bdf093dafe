"""Scenario and schedule file parsing."""

import pytest

from meterfaas.kernel import ScheduleEvent
from meterfaas.scenario import (
    ConfigError,
    ScenarioConfig,
    format_schedule,
    parse_keyvalue,
    parse_schedule,
)


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
        assert cfg.tau == 630 and cfg.epsilon == 63
        assert cfg.function == "known_network"
        assert cfg.include_load_time
        assert cfg.cost_table().heap == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="tua"):
            ScenarioConfig.from_mapping({"tua": "5"})

    def test_meter_config_construction(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("tau=50\nepsilon=0\nnet_delay=100\n")
        cfg = ScenarioConfig.from_file(path)
        meter = cfg.meter_config()
        assert meter.tau == 50 and meter.epsilon == 0 and meter.net_delay == 100
