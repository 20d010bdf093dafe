"""Run configuration: key=value scenario files and schedule files.

Schedule files carry one ``actor,interrupt_cycle,resume_cycle`` triple per
line; ``#`` starts a comment. Scenario and policy files are flat key=value
text. Everything is deterministic given the file contents and a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .kernel import ScheduleEvent, validate_schedule
from .metering import MeterConfig
from .vm import CostTable


class ConfigError(ValueError):
    pass


def parse_keyvalue(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_keyvalue(path: str | Path) -> dict[str, str]:
    return parse_keyvalue(Path(path).read_text())


def parse_schedule(text: str) -> list[ScheduleEvent]:
    events: list[ScheduleEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected actor,interrupt_cycle,resume_cycle")
        try:
            events.append(ScheduleEvent(parts[0], int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    validate_schedule(events)
    return events


def format_schedule(events: list[ScheduleEvent]) -> str:
    return "".join(f"{e.actor},{e.interrupt_at},{e.resume_at}\n" for e in events)


def load_schedule(path: str | Path) -> list[ScheduleEvent]:
    return parse_schedule(Path(path).read_text())


@dataclass
class ScenarioConfig:
    """One reproducible run setup; everything a seed does not determine."""

    tau: int = 100
    epsilon: int = 30
    net_delay: int = 0
    handler_cost: int = 7
    pool_size: int = 2
    function: str = "fib"
    schedule_file: str | None = None
    fuzz_seed: int | None = None
    cost_default: int = 1
    cost_heap: int = 10
    cost_net: int = 5
    include_load_time: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_mapping(load_keyvalue(path))

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        cfg = cls()
        ints = {
            "tau", "epsilon", "net_delay", "handler_cost", "pool_size",
            "cost_default", "cost_heap", "cost_net",
        }
        for key, value in mapping.items():
            if key in ints:
                setattr(cfg, key, int(value))
            elif key == "include_load_time":
                cfg.include_load_time = value.lower() in ("1", "true", "yes")
            elif key == "function":
                cfg.function = value
            elif key == "schedule_file":
                cfg.schedule_file = value
            elif key == "fuzz_seed":
                cfg.fuzz_seed = int(value)
            else:
                raise ConfigError(f"unknown scenario key {key!r}")
        return cfg

    def meter_config(self) -> MeterConfig:
        return MeterConfig(
            tau=self.tau,
            epsilon=self.epsilon,
            handler_cost=self.handler_cost,
            net_delay=self.net_delay,
            include_load_time=self.include_load_time,
        )

    def cost_table(self) -> CostTable:
        return CostTable(default=self.cost_default, heap=self.cost_heap, net=self.cost_net)
