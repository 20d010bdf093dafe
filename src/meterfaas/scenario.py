"""Run configuration: key=value scenario files and schedule files.

Schedule files carry one ``actor,interrupt_cycle,resume_cycle`` triple per
line; ``#`` starts a comment. Scenario and policy files are flat key=value
text. Everything is deterministic given the file contents and a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


def _integer(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible run setup; everything a seed does not determine.

    Scenario-file keys ``tau``, ``epsilon``, ``net_delay``, ``handler_cost``
    and ``include_load_time`` set ``meter``; ``cost_default``, ``cost_heap``
    and ``cost_net`` set ``costs``; ``function``, ``schedule_file`` and
    ``fuzz_seed`` set the fields of those names. A key the file leaves out
    keeps the default of the field or record it sets.
    """

    meter: MeterConfig = MeterConfig(tau=100)
    costs: CostTable = CostTable()
    function: str = "fib"
    schedule_file: str | None = None
    fuzz_seed: int | None = None

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        meter: dict = {}
        costs: dict = {}
        own: dict = {}
        for key, value in mapping.items():
            if key in ("tau", "epsilon", "net_delay", "handler_cost"):
                meter[key] = _integer(key, value)
            elif key == "include_load_time":
                if value.lower() not in ("1", "0", "true", "false", "yes", "no"):
                    raise ConfigError(f"{key}: expected 1/0/true/false/yes/no, got {value!r}")
                meter[key] = value.lower() in ("1", "true", "yes")
            elif key in ("cost_default", "cost_heap", "cost_net"):
                costs[key.removeprefix("cost_")] = _integer(key, value)
            elif key == "fuzz_seed":
                own[key] = _integer(key, value)
            elif key in ("function", "schedule_file"):
                own[key] = value
            else:
                raise ConfigError(f"unknown scenario key {key!r}")
        base = cls()
        return cls(meter=replace(base.meter, **meter), costs=replace(base.costs, **costs), **own)
