"""Randomized (program, interrupt-schedule) generation for the lower-bound
property, plus the fuzz driver the CLI and acceptance suite share.

Programs are random but valid by construction: arithmetic blobs, counted
loops, alloc/free patterns, and optional network calls, always terminated.
Schedules may interrupt the worker and the timer at arbitrary cycle
boundaries, including zero-length windows (the single-step adversary).
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import words
from .crypto import DeterministicRng
from .kernel import ScheduleEvent, SimTrace
from .metering import MeterConfig, MeteredOutcome, run_metered
from .vm import CostTable, FunctionImage, NetIo, VMLimits, assemble, execute_steps, vm_load

LIMITS = VMLimits(max_steps=4000)  # the VM limits of every fuzz case
CYCLE_LIMIT = 50_000_000  # the kernel's cycle limit for every fuzz case


def random_image(rng: DeterministicRng) -> tuple[FunctionImage, bytes]:
    """A small random function plus its input words."""
    lines: list[str] = []
    live_slots: list[int] = []
    label_n = 0
    segments = 1 + rng.randrange(6)
    for _ in range(segments):
        kind = rng.randrange(10)
        if kind < 4:  # arithmetic blob
            for _ in range(1 + rng.randrange(6)):
                lines.append(f"PUSH {rng.randrange(1 << 16)}")
                lines.append(f"PUSH {1 + rng.randrange(1 << 16)}")
                lines.append(("ADD", "SUB", "MUL")[rng.randrange(3)])
                lines.append("POP")
        elif kind < 6 and len(live_slots) < 10:  # allocation held in a local
            slot = len(live_slots)
            live_slots.append(slot)
            lines.append(f"PUSH {1 + rng.randrange(4096)}")
            lines.append("ALLOC")
            lines.append(f"STOREL {slot}")
        elif kind < 7 and live_slots:  # free the most recent allocation
            slot = live_slots.pop()
            lines.append(f"LOADL {slot}")
            lines.append("FREE")
        elif kind < 9:  # counted loop
            count = 1 + rng.randrange(12)
            top = f"loop{label_n}"
            end = f"end{label_n}"
            label_n += 1
            lines.append(f"PUSH {count}")
            lines.append("STOREL 15")
            lines.append(f"{top}: LOADL 15")
            lines.append(f"JZ {end}")
            lines.append(f"PUSH {rng.randrange(100)}")
            lines.append("POP")
            lines.append("LOADL 15")
            lines.append("PUSH 1")
            lines.append("SUB")
            lines.append("STOREL 15")
            lines.append(f"JMP {top}")
            lines.append(f"{end}: PUSH 0")
            lines.append("POP")
        else:  # network call
            lines.append(f"PUSH {rng.randrange(2048)}")
            lines.append("NET_SEND" if rng.randrange(2) == 0 else "NET_RECV")
    # free half of what is still held, leave the rest live at exit
    for slot in live_slots[::2]:
        lines.append(f"LOADL {slot}")
        lines.append("FREE")
    lines.append("HALT")
    image = vm_load(assemble("\n".join(lines)))
    return image, words(rng.randrange(1 << 16), rng.randrange(1 << 16))


def random_schedule(rng: DeterministicRng, span: int) -> list[ScheduleEvent]:
    """Non-overlapping interrupt windows of the worker and the timer inside
    [0, span]."""
    events: list[ScheduleEvent] = []
    for actor in ("worker", "timer"):
        at = 0
        for _ in range(rng.randrange(4)):
            at += rng.randrange(max(span // 2, 2))
            if at > span:
                break
            length = rng.randrange(max(span // 3, 2))
            events.append(ScheduleEvent(actor, at, at + length))
            at += length
    return sorted(events, key=lambda e: e.interrupt_at)


def random_config(rng: DeterministicRng) -> tuple[MeterConfig, CostTable]:
    cfg = MeterConfig(
        tau=(1, 2, 5, 10, 33, 100, 630)[rng.randrange(7)],
        epsilon=(0, 0, 5, 30)[rng.randrange(4)],
        handler_cost=1 + rng.randrange(12),
        net_delay=(0, 0, 0, 17, 200)[rng.randrange(5)],
        gate_worker_on_timer=rng.randrange(4) != 0,
    )
    costs = CostTable(
        default=1 + rng.randrange(3),
        heap=1 + rng.randrange(15),
        net=1 + rng.randrange(8),
    )
    return cfg, costs


def declared_worker_cycles(
    image: FunctionImage,
    input_data: bytes,
    limits: VMLimits,
    cfg: MeterConfig,
    costs: CostTable | None,
    trace: SimTrace,
) -> int:
    """The worker residency a metered run must show if the kernel charges
    every declared cycle exactly once: the instruction cycles of an unmetered
    run of the same function, one ERESUME-handler detour per ERESUME that
    found the handler installed, and the host stall of every network OCALL,
    one per ``NetIo`` the unmetered run yields."""
    net_ops = 0
    gen = execute_steps(image, input_data, limits, lambda _d: None, costs or CostTable())
    try:
        while True:
            net_ops += isinstance(gen.send(None), NetIo)
    except StopIteration as stop:
        ref = stop.value
    load = len(image.program) if cfg.include_load_time else 0
    handled = sum(1 for (_, actor, kind, detail) in trace.events
                  if actor == "worker" and kind == "ERESUME" and detail == "handler")
    return ref.cycles + load + cfg.handler_cost * handled + cfg.net_delay * net_ops


@dataclass
class FuzzCase:
    seed_index: int
    cfg: MeterConfig
    costs: CostTable
    schedule: list[ScheduleEvent]
    outcome: MeteredOutcome
    oracle: int
    declared: int

    @property
    def holds(self) -> bool:
        return self.outcome.t_max * self.cfg.tau <= self.oracle

    @property
    def conserved(self) -> bool:
        return self.oracle == self.declared


def draw_case(
    rng: DeterministicRng, index: int
) -> tuple[FunctionImage, bytes, MeterConfig, CostTable, list[ScheduleEvent]]:
    """Case ``index`` of the fuzz: ``(image, input_data, cfg, costs,
    schedule)``, each part drawn from its own child of ``rng``."""
    image, input_data = random_image(rng.child(f"prog{index}"))
    cfg, costs = random_config(rng.child(f"cfg{index}"))
    # span estimate: instruction cycles dominate; interrupts stretch the run
    span = 64 + 4 * LIMITS.max_steps * costs.heap // 8
    schedule = random_schedule(rng.child(f"sched{index}"), span)
    return image, input_data, cfg, costs, schedule


def run_case(rng: DeterministicRng, index: int) -> FuzzCase:
    image, input_data, cfg, costs, schedule = draw_case(rng, index)
    outcome = run_metered(
        image, input_data, LIMITS, cfg, schedule=schedule, costs=costs, limit=CYCLE_LIMIT
    )
    oracle = outcome.trace.resident["worker"]
    declared = declared_worker_cycles(image, input_data, LIMITS, cfg, costs, outcome.trace)
    return FuzzCase(index, cfg, costs, schedule, outcome, oracle, declared)


@dataclass
class FuzzSummary:
    cases: int
    violations: list[FuzzCase]  # t_max * tau > resident
    unconserved: list[FuzzCase]  # resident != declared cycles

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unconserved


def run_lowerbound_fuzz(cases: int, seed: int) -> FuzzSummary:
    """The core property: for every program and schedule, reported ticks times
    tau never exceed the worker's true resident cycles. Alongside it, the
    kernel must conserve cycles: that residency equals the declared cycles."""
    rng = DeterministicRng(seed, "lowerbound")
    violations: list[FuzzCase] = []
    unconserved: list[FuzzCase] = []
    for i in range(cases):
        case = run_case(rng, i)
        if not case.holds:
            violations.append(case)
        if not case.conserved:
            unconserved.append(case)
    return FuzzSummary(cases=cases, violations=violations, unconserved=unconserved)
