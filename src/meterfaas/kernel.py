"""Deterministic discrete-event kernel for the enclave execution contract.

Actors are cooperative logical threads of one enclave (the worker and the
timer) whose programs are Python generators yielding instructions. Every
instruction has an integer cycle cost; a global cycle counter advances, so
traces are exact and reproducible.

The kernel enforces the contract the metering design relies on:

  * asynchronous exits (AEX) freeze an actor mid-instruction, spill a register
    snapshot over its save-state area (destroying the marker word), and record
    the true resume point in ``ssa.rip``;
  * ERESUME transparently continues the frozen work, unless enclave code
    installed an ERESUME handler in ``ssa.rip``. The handler is one
    instruction, pushed onto the actor's frozen work with its full cost, so it
    runs first; an AEX inside it stacks on the work it detoured from;
  * the one transaction is a ``Ticks`` period, which watches one cell (the
    worker's SSA marker): it aborts the moment any other party writes that
    cell or its own actor suffers an AEX, and its tick never counts.

The untrusted OS is not an actor: it acts only through the interrupt schedule,
whose events may name only actors the kernel has.

Event ordering within one cycle is fixed: instruction completions (in actor
registration order), then AEX events, then ERESUME events, then newly runnable
work. This makes "interrupt between a period's commit and the next
instruction" expressible and keeps every run a pure function of its inputs.

A kernel runs once: each actor is one record holding its identity, its program
and its run state, and ``SimKernel.run`` consumes them.

Cost follows observable events, not cycles or instructions, by five rules
that leave every event at the same cycle and in the same order:

  * in a lean run, a ``Ticks`` instruction (the timer's whole steady-state
    loop) is advanced in closed form over every period that ends before the
    next stop of another actor or of the schedule, with the same counters,
    residency and schedule events as one stop per period. A full trace takes
    every period one stop at a time, so the per-period path is the only code
    that logs a period;
  * a ``Ticks`` instruction recovers in place: one step function,
    ``_ticks_step``, takes its every step. An abort of a period's
    transaction restarts it at the next period start, and a period start
    that finds the marker missing installs the ERESUME handler and waits for
    the marker inside the instruction, so the timer's program resumes only
    when ``proc`` is cleared, not per interrupt. In a lean run the save of
    the rip commits as the install starts, and the install takes both its
    and the save's cycle, so a recovery costs one stop, not two; a full
    trace keeps the two 1-cycle steps, since only it logs the save's WRITE
    at its own cycle;
  * a stop costs only what it changes. One scan of the actors finds the next
    stop, and one pass completes the actors that finish there. A completion,
    an AEX, an ERESUME or a committed write *touches* the actors it
    concerns, and a pump visits only touched actors, in registration order:
    an untouched actor is blocked, done, executing or waiting on a predicate
    that no write has made true since it was last evaluated, so visiting it
    would change nothing. A write touches every waiter and aborts every
    ``Ticks`` period that watches the cell;
  * zero-cost work completes in place: once a pump runs an actor, one loop
    fetches from its program until it blocks, applying a zero-cost OP,
    WRITE or TAS and a wait whose predicate holds as soon as the program
    yields it and sending the result straight back; a zero-cost WRITE
    commits from that loop itself. This is exact because the kernel runs an
    actor that can make progress until it blocks before it looks at another
    one. For the same reason a program reads ``Cell.value`` directly: the
    kernel has no read instruction;
  * prebuilt instructions carry no run state: the actor holds its finish
    cycle, its frozen remainders and the value to send, so a program may
    build once every instruction whose fields are fixed and yield it again
    and again.

Residency enters and leaves the kernel only at two functions. ``_start`` puts
work in flight and charges its actor all of its cycles at once; ``_cut``
refunds what an AEX, a period's abort, the cycle limit or a closed-form
advance of ``Ticks`` periods cuts off. A completion charges nothing more, so
``resident`` counts every cycle an actor spent executing or stalled.

Only an AEX that fires puts its ERESUME on the run's heap of pending
resumes, so a skipped AEX leaves nothing behind and the heap holds at most
one entry per actor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

MARKER_VALUE = 12345  # sentinel word the worker keeps in its SSA
SPILL_VALUE = 0  # what an AEX register spill leaves in the marker word
RIP_NEXT = "next"  # default resume target: continue where interrupted

_RUNNING = 0
_WAITING = 1
_STALLED = 2
_INTERRUPTED = 3
_DONE = 4

# the next step of a Ticks instruction with no tick in flight: a period
# start, the handler install after the rip is saved (a full trace only: a
# lean run saves the rip as the install starts), or a look at the marker
# after the install or the wait for the marker
_PERIOD, _INSTALL, _AWAIT = range(3)

_ZERO_COST_BUDGET = 200_000  # a pump takes fewer steps than this: guards against livelock
_LIVELOCK = "zero-cost livelock (instruction budget exhausted)"
_NEVER = float("inf")  # no event pending


class KernelError(Exception):
    """Programming faults in actor code: a negative cost, an actor without
    a program, an unknown instruction kind, zero-cost livelock, deadlock."""


class Cell:
    """One mutable memory word tracked by the kernel."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Any) -> None:
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Cell({self.name}={self.value!r})"


# --- instructions -----------------------------------------------------------

_KINDS = range(6)  # every kind a program may yield
_OP, _WRITE, _TAS, _WAIT, _STALL, _TICKS = _KINDS


class Instr:
    __slots__ = ("kind", "cost", "cell", "value", "label", "pred")

    def __init__(self, kind: int, cost: int = 0, cell: Cell | None = None, value: Any = None,
                 label: str | None = None, pred: Callable[[], bool] | None = None) -> None:
        if cost < 0:
            raise KernelError("negative instruction cost")
        self.kind = kind
        self.cost = cost
        self.cell = cell
        self.value = value
        self.label = label
        self.pred = pred


def Op(cost: int, label: str | None = None) -> Instr:
    """Spend `cost` cycles; at completion log `label` as a STEP in a full
    trace and deliver None."""
    return Instr(_OP, cost, None, None, label)


def WriteCell(cell: Cell, value: Any, cost: int = 0) -> Instr:
    return Instr(_WRITE, cost, cell, value)


def TestAndSet(cell: Cell, cost: int = 1) -> Instr:
    """Atomically read the prior value and store 1. The single-instruction
    form is what makes the mutex race-free under any interleaving."""
    return Instr(_TAS, cost=cost, cell=cell)


def WaitUntil(pred: Callable[[], bool]) -> Instr:
    """Block, without occupying cycles, until pred() becomes true.

    Re-evaluated after every committed write and after every ERESUME of the
    waiting actor, so wake-ups lost while interrupted are recovered, and at
    no other time: pred must read only cells that the kernel's writes
    change.
    """
    return Instr(_WAIT, pred=pred)


def HostStall(cost: int) -> Instr:
    """Time serviced outside the enclave (an OCALL in flight), at least one
    cycle long. Counts as occupied time; AEX events aimed at a stalled actor
    are skipped, since there is no enclave context to spill."""
    if cost < 1:
        raise KernelError("a stall lasts at least one cycle")
    return Instr(_STALL, cost=cost)


class EresumeHandler:
    """Value installed into ssa.rip: one instruction to run on the next
    ERESUME before the interrupted work continues. It runs outside the
    actor's program, so it must be an Op, WriteCell or TestAndSet."""

    __slots__ = ("instr",)

    def __init__(self, instr: Instr) -> None:
        if instr.kind > _TAS:
            raise KernelError("an ERESUME handler runs an OP, WRITE or TAS instruction")
        self.instr = instr

    def __repr__(self) -> str:
        return "<eresume-handler>"


class Ticks(Instr):
    """Count ticks until a period start finds ``proc != 1``; then complete,
    delivering None.

    Each period is the transaction "begin watching ``watch``, spend ``tau``
    cycles (STEP tick), ``counter += 1``, commit", then, outside it, the
    mirror copy ``mirror = counter`` and ``epsilon`` cycles of checks
    (STEP checks). An abort of the transaction (a conflict, or the actor's
    own AEX) throws nothing: the instruction goes on at its next period
    start.

    A period start that finds ``watch`` not holding ``MARKER_VALUE`` opens
    and at once aborts the transaction (TX_BEGIN, TX_ABORT marker-missing)
    and recovers inside the instruction: if ``rip`` holds no
    ``EresumeHandler``, it saves that rip into ``saved_rip`` and installs
    the handler into ``rip``, 2 cycles in all; then it waits until the
    marker is back, ``proc != 1`` or ``rip`` lost the handler, and goes on
    at a period start, or installs again. The save models the one a real
    handler jumps back through; its cycle delays the install, so it is part
    of the handler-install race. A full trace takes the save and the install
    as two 1-cycle steps and logs each WRITE at its own cycle; a lean run,
    which logs neither, commits the save as the 2-cycle install starts,
    since nothing reads ``saved_rip``. Either way the handler lands in
    ``rip`` two cycles after the period start, with the same residency and
    the same remaining cycles for an AEX in either cycle. The handler is a
    ``handler_cost``-cycle write of ``MARKER_VALUE`` to ``watch``. The
    instruction builds the install and the handler itself on first use, and
    the run state lives on the actor, so the instruction can be yielded
    again. In a lean run the kernel commits whole periods in closed form
    between other actors' stops, so no other actor's ``Ticks`` may watch
    ``counter`` or ``mirror``."""

    __slots__ = ("tau", "epsilon", "watch", "counter", "mirror", "proc", "rip", "saved_rip",
                 "handler_cost", "install", "tick", "checks")

    def __init__(self, tau: int, epsilon: int, watch: Cell, counter: Cell, mirror: Cell, proc: Cell,
                 rip: Cell, saved_rip: Cell, handler_cost: int) -> None:
        if tau < 1:
            raise KernelError("a tick lasts at least one cycle")
        if handler_cost < 0:
            raise KernelError("negative instruction cost")
        super().__init__(_TICKS)
        self.tau = tau
        self.epsilon = epsilon
        self.watch = watch
        self.counter = counter
        self.mirror = mirror
        self.proc = proc
        self.rip = rip
        self.saved_rip = saved_rip
        self.handler_cost = handler_cost
        self.install: Instr | None = None  # the handler install, built on first use
        self.tick = Op(tau, label="tick")
        self.checks = Op(epsilon, label="checks") if epsilon else None

    def marker_back(self) -> bool:
        """The recovery's wait: the marker is back, the run paused or the
        handler was lost."""
        return (self.watch.value == MARKER_VALUE or self.proc.value != 1
                or not isinstance(self.rip.value, EresumeHandler))


@dataclass(frozen=True)
class ScheduleEvent:
    actor: str
    interrupt_at: int
    resume_at: int


class ScheduleError(ValueError):
    pass


def validate_schedule(events: list[ScheduleEvent]) -> None:
    last = -1
    ends: dict[str, int] = {}  # per actor, the resume cycle of its last window
    for ev in events:
        at = ev.interrupt_at
        if at < 0:
            raise ScheduleError(f"interrupt at negative cycle {at}")
        if ev.resume_at < at:
            raise ScheduleError(f"resume {ev.resume_at} before interrupt {at}")
        if at < last:
            raise ScheduleError("events not sorted by interrupt cycle")
        if at < ends.get(ev.actor, -1):
            raise ScheduleError(f"overlapping interrupt windows for actor {ev.actor}")
        ends[ev.actor] = ev.resume_at
        last = at


# --- trace ------------------------------------------------------------------


@dataclass
class SimTrace:
    """Cycle-accurate record of one run; ground truth for every oracle.

    ``events`` always holds the schedule-driven events ``AEX``, ``AEX_SKIPPED``
    and ``ERESUME``, at most two per schedule entry; an ``ERESUME`` that found
    an ERESUME handler installed has the detail ``handler``. Every other event
    (START, TX_*, WAIT_*, STALL_*, WRITE, STEP, DONE) is recorded only in a
    full trace.

    ``resident`` holds, per actor, the exact cycles it spent occupying its
    thread context: executing instructions or servicing an OCALL.
    Interrupted gaps and wait-blocks are excluded.
    """

    events: list[tuple[int, str, str, str]]
    resident: dict[str, int]
    final_cycle: int
    complete: bool
    results: dict[str, Any] = field(default_factory=dict)

    def export_lines(self) -> list[str]:
        lines = [f"{c} {a} {k} {d}" for (c, a, k, d) in self.events]
        lines.append(f"# final_cycle={self.final_cycle} complete={int(self.complete)}")
        for name in self.resident:
            lines.append(f"# resident {name} {self.resident[name]}")
        return lines

    def export_text(self) -> str:
        return "\n".join(self.export_lines()) + "\n"


# --- actors -----------------------------------------------------------------


class _SSA:
    __slots__ = ("marker", "rip")

    def __init__(self, marker: Cell, rip: Cell) -> None:
        self.marker = marker
        self.rip = rip


class Actor:
    """One enclave actor: name, SSA cells, program and run state.

    An idle running actor (no in-flight, frozen or waiting work and no
    ``Ticks`` instruction in progress) fetches its next instruction from its
    program. ``touched`` says that the next pump must visit the actor.
    ``resident`` already includes the whole of the work in flight, up to
    ``finish_at``.
    """

    __slots__ = (
        "name", "ssa", "touched", "gen", "state", "instr", "finish_at", "frozen", "tx",
        "send_value", "wait_pred", "resident", "result", "ticks", "recovery",
    )

    def __init__(self, name: str, ssa: _SSA) -> None:
        self.name = name
        self.ssa = ssa
        self.touched = False
        self.gen: Generator | None = None
        self.state = _RUNNING
        self.instr: Instr | None = None
        self.finish_at: int | None = None
        # work frozen by an AEX, innermost last: (instr, remaining cycles); an
        # ERESUME handler is pushed on top, so it runs first
        self.frozen: list[tuple[Instr, int]] = []
        self.tx: Cell | None = None  # the cell an open Ticks period watches
        self.send_value: Any = None
        self.wait_pred: Callable[[], bool] | None = None
        self.resident = 0
        self.result: Any = None
        self.ticks: Ticks | None = None  # the Ticks instruction in progress
        self.recovery = _PERIOD  # the Ticks step after the work in flight or the wait

    def set_program(self, gen: Generator) -> None:
        self.gen = gen


class SimKernel:
    """One deterministic simulation instance: actors and the clock."""

    def __init__(self) -> None:
        self.now = 0
        self._actors: list[Actor] = []
        self._by_name: dict[str, Actor] = {}
        self._events: list[tuple[int, str, str, str]] = []
        self._full_trace = False
        self._live = 0  # actors not done
        self._touched = False  # an actor was touched since the last pump pass began

    # construction

    def add_enclave_actor(self, name: str) -> Actor:
        ssa = _SSA(
            marker=Cell(f"{name}.ssa.marker", 0),
            rip=Cell(f"{name}.ssa.rip", RIP_NEXT),
        )
        actor = Actor(name, ssa)
        self._actors.append(actor)
        self._by_name[actor.name] = actor
        return actor

    # logging; callers record per-instruction events only in a full trace

    def _log(self, actor: str, kind: str, detail: str = "") -> None:
        self._events.append((self.now, actor, kind, detail))

    # write machinery

    def _commit_write(self, writer: Actor | None, cell: Cell, value: Any) -> None:
        """Store the value and touch every actor it concerns: one that waits,
        whose predicate may now hold, and one whose open ``Ticks`` period
        watches the cell, which aborts. The writer is never one: it has no
        period open and runs."""
        cell.value = value
        if self._full_trace:
            who = writer.name if writer is not None else "hw"
            self._log(who, "WRITE", f"{cell.name}={value!r}")
        for actor in self._actors:
            if actor.state == _WAITING:
                actor.touched = self._touched = True
            elif actor.tx is cell:
                self._abort_tx(actor, "conflict")
                actor.touched = self._touched = True

    def _abort_tx(self, actor: Actor, cause: str) -> None:
        """Abort the actor's ``Ticks`` period: its tick never counts, and the
        instruction goes on at its next period start. Nothing is frozen: an
        AEX aborts the period before it freezes the actor's work."""
        actor.tx = None
        if self._full_trace:
            self._log(actor.name, "TX_ABORT", cause)
        # squash the tick in flight; cycles consumed stay consumed
        if actor.finish_at is not None:
            self._cut(actor)

    # execution

    def _start(self, actor: Actor, instr: Instr, cycles: int) -> None:
        """Put ``instr`` in flight for ``cycles`` cycles and charge them."""
        actor.instr = instr
        actor.finish_at = self.now + cycles
        actor.resident += cycles

    def _cut(self, actor: Actor) -> int:
        """Stop the in-flight work now, refund its remaining cycles and
        return them."""
        remaining = actor.finish_at - self.now
        actor.resident -= remaining
        actor.instr = actor.finish_at = None
        return remaining

    def _apply(self, actor: Actor, instr: Instr) -> Any:
        """Apply an OP, WRITE or TAS at the current cycle and return its
        result."""
        kind = instr.kind
        if kind == _OP:
            if self._full_trace and instr.label:
                self._log(actor.name, "STEP", instr.label)
            return None
        cell = instr.cell
        if kind == _WRITE:
            self._commit_write(actor, cell, instr.value)
            return None
        result = cell.value
        self._commit_write(actor, cell, 1)  # TAS
        return result

    def _complete(self, actor: Actor) -> None:
        """Finish the in-flight instruction at the current cycle and touch
        the actor.

        An ERESUME handler's result lands in ``send_value`` too but never
        reaches the program: the handler always runs above frozen work, a
        pending wait or a ``Ticks`` instruction, whose completion, wake or
        end replaces it before the next send."""
        instr = actor.instr
        actor.instr = actor.finish_at = None
        actor.touched = self._touched = True
        if instr.kind == _STALL:
            # the OCALL returned; a stalled actor is never interrupted
            actor.state = _RUNNING
            actor.send_value = None
            if self._full_trace:
                self._log(actor.name, "STALL_END")
        else:
            actor.send_value = self._apply(actor, instr)

    def _drive(self, actor: Actor, budget: int) -> int:
        """Run one touched actor until it blocks, waits, finishes or has work
        in flight, and return what is left of the pump's budget. A touched
        actor that runs never has work in flight: a completion clears it, an
        AEX cuts it and interrupts the actor, an ERESUME starts none, and a
        write cuts only the tick of a ``Ticks`` period it aborts.

        Each step charges the budget one: a program resume, a
        ``_ticks_step`` or a zero-cost ERESUME handler. Zero-cost
        work completes in place: a zero-cost OP, WRITE or TAS is applied as
        soon as the program yields it (a WRITE commits here, without
        ``_apply``), and so is a wait whose predicate holds; the result goes
        straight back into the program, since the pump would run this same
        actor next anyway. A kind the kernel does not define is a fault."""
        while True:
            if budget <= 0:
                raise KernelError(_LIVELOCK)
            state = actor.state
            if state != _RUNNING:
                if state != _WAITING or not actor.wait_pred():
                    return budget  # blocked, or waiting on a false predicate
                actor.wait_pred = None
                actor.state = _RUNNING
                actor.send_value = None
                if self._full_trace:
                    self._log(actor.name, "WAIT_END")
            if actor.frozen:
                # frozen work resumes exactly where it was interrupted, an
                # ERESUME handler before the work it detoured from
                instr, remaining = actor.frozen.pop()
                if remaining:
                    self._start(actor, instr, remaining)
                    return budget
                budget -= 1
                actor.send_value = self._apply(actor, instr)  # a zero-cost handler
                continue
            if actor.wait_pred is None:
                break
            # a handler ran while a wait was pending: wait again
            actor.state = _WAITING
        if actor.ticks is not None:
            budget -= 1
            self._ticks_step(actor)
            if actor.ticks is not None:
                return budget
            actor.send_value = None  # a Ticks instruction delivers None
        # the actor is idle: fetch from its program until it blocks
        gen = actor.gen
        value = actor.send_value
        while True:
            if budget <= 0:
                raise KernelError(_LIVELOCK)
            budget -= 1
            try:
                instr = gen.send(value)
            except StopIteration as stop:
                actor.state = _DONE
                actor.result = stop.value
                self._live -= 1
                if self._full_trace:
                    self._log(actor.name, "DONE")
                return budget
            kind = instr.kind
            if kind <= _TAS:
                if instr.cost:
                    self._start(actor, instr, instr.cost)
                    return budget
                if kind == _WRITE:
                    self._commit_write(actor, instr.cell, instr.value)
                    value = None
                    continue
                value = self._apply(actor, instr)
                continue
            value = None
            if kind == _WAIT:
                if not instr.pred():
                    actor.wait_pred = instr.pred
                    actor.state = _WAITING
                    if self._full_trace:
                        self._log(actor.name, "WAIT_BEGIN")
                    return budget
            elif kind == _TICKS:
                actor.ticks = instr
                self._ticks_step(actor)
                if actor.ticks is not None:
                    return budget
            elif kind == _STALL:
                if self._full_trace:
                    self._log(actor.name, "STALL_BEGIN", f"cycles={instr.cost}")
                actor.state = _STALLED
                self._start(actor, instr, instr.cost)
                return budget
            else:
                raise KernelError(f"{actor.name}: unknown instruction kind {kind}")

    # the Ticks instruction, one step at a time; a period's transaction is
    # the cell it watches, in ``Actor.tx``

    def _ticks_step(self, actor: Actor) -> None:
        """Take a Ticks instruction's next step, at its start or after its
        tick, checks, abort, recovery write or wait for the marker: commit
        an ended tick, start a full trace's pending install, or end the
        instruction, start a period or recover, by ``proc`` and the marker."""
        ticks = actor.ticks
        if actor.tx is not None:
            # the tick ended: commit it, mirror the count outside the
            # transaction, then pay for the checks
            actor.tx = None
            count = ticks.counter.value + 1
            self._commit_write(actor, ticks.counter, count)
            if self._full_trace:
                self._log(actor.name, "TX_COMMIT")
            self._commit_write(actor, ticks.mirror, count)
            if ticks.checks is not None:
                self._start(actor, ticks.checks, ticks.epsilon)
                return
        elif actor.recovery == _INSTALL:
            actor.recovery = _AWAIT
            self._start(actor, ticks.install, 1)
            return
        if ticks.proc.value != 1:
            actor.ticks = None  # completes: the program takes over
            actor.recovery = _PERIOD
            return
        if ticks.watch.value == MARKER_VALUE:
            actor.recovery = _PERIOD
            actor.tx = ticks.watch
            if self._full_trace:
                self._log(actor.name, "TX_BEGIN", "watch=1")
            self._start(actor, ticks.tick, ticks.tau)
            return
        if actor.recovery == _PERIOD and self._full_trace:
            # the marker is gone: the worker was interrupted, and the
            # period's transaction aborts at once
            self._log(actor.name, "TX_BEGIN", "watch=1")
            self._log(actor.name, "TX_ABORT", "marker-missing")
        rip = ticks.rip.value
        if not isinstance(rip, EresumeHandler):
            if ticks.install is None:
                handler = EresumeHandler(WriteCell(ticks.watch, MARKER_VALUE, cost=ticks.handler_cost))
                ticks.install = WriteCell(ticks.rip, handler, cost=1)
            if self._full_trace:
                # the save is a step of its own, so its WRITE is logged a
                # cycle before the install's
                actor.recovery = _INSTALL
                self._start(actor, WriteCell(ticks.saved_rip, rip, cost=1), 1)
                return
            # a lean run logs no WRITE and nothing reads the saved rip: the
            # save commits now and the install takes both cycles, so the
            # handler still lands in the rip two cycles from now
            self._commit_write(actor, ticks.saved_rip, rip)
            actor.recovery = _AWAIT
            self._start(actor, ticks.install, 2)
            return
        # the wait's predicate is false here: the marker is missing, proc is
        # 1 and the rip holds the handler
        actor.recovery = _AWAIT
        actor.wait_pred = ticks.marker_back
        actor.state = _WAITING
        if self._full_trace:
            self._log(actor.name, "WAIT_BEGIN")

    def _may_skip(self, actor: Actor) -> bool:
        """True when committing the actor's coming periods can change nothing
        another actor sees before its own next stop: every period start will
        pass and no other actor waits on a write. No other ``Ticks`` period
        watches the counter or its mirror (see ``Ticks``). The marker holds:
        a period starts only on it, and a write to it aborts the period."""
        if actor.ticks.proc.value != 1:
            return False
        for other in self._actors:
            if other.state == _WAITING:
                return False
        return True

    def _skip_periods(self, actor: Actor, until: int) -> None:
        """Commit every period whose tick ends before cycle ``until``, in
        closed form: the actor's tick is in flight, and it alone acts before
        ``until``, so its own order is the whole order. It logs nothing, so
        only a lean run calls it; a full trace takes every period through
        ``_ticks_step``, which logs it. The tick in flight is cut, and the
        last period's tick or checks start in its place."""
        ticks = actor.ticks
        eps = ticks.epsilon
        period = ticks.tau + eps
        first = actor.finish_at
        n = (until - 1 - first) // period + 1
        last = first + (n - 1) * period
        ticks.counter.value = ticks.mirror.value = ticks.counter.value + n
        self._cut(actor)
        if eps and last + eps >= until:
            actor.tx = None  # the checks are in flight
            self._start(actor, ticks.checks, last + eps - self.now)
        else:
            self._start(actor, ticks.tick, last + eps + ticks.tau - self.now)

    def _pump(self) -> None:
        """Run every touched actor, in registration order, until it blocks,
        waits, finishes or has work in flight.

        An untouched actor is blocked, done, executing or waiting on a false
        predicate, and only a completion, an AEX, an ERESUME or a committed
        write can change that, so a pump visits only the actors these
        touched. A write that touches an actor the pass has already left
        makes another pass. A pump that takes ``_ZERO_COST_BUDGET`` steps
        raises: time never passes inside one."""
        budget = _ZERO_COST_BUDGET
        actors = self._actors
        while self._touched:
            self._touched = False
            for actor in actors:
                if actor.touched:
                    actor.touched = False
                    budget = self._drive(actor, budget)
        if budget <= 0:
            # the last step spent the budget; the visit that would have
            # found that out is skipped
            raise KernelError(_LIVELOCK)

    def _apply_aex(self, ev: ScheduleEvent) -> bool:
        """Interrupt the event's actor; False if the AEX was skipped."""
        actor = self._by_name[ev.actor]
        if actor.state > _WAITING:
            self._events.append((self.now, ev.actor, "AEX_SKIPPED", f"state={actor.state}"))
            return False
        self._events.append((self.now, ev.actor, "AEX", ""))
        if actor.tx is not None:
            self._abort_tx(actor, "interrupt")
        if actor.finish_at is not None:
            # freeze in-flight work; it resumes exactly where it stopped
            actor.frozen.append((actor.instr, self._cut(actor)))
        actor.state = _INTERRUPTED
        ssa = actor.ssa
        # register spill: the CPU overwrites the SSA, destroying the marker
        # and recording the true resume point
        self._commit_write(None, ssa.marker, SPILL_VALUE)
        self._commit_write(None, ssa.rip, f"interrupted@{self.now}")
        return True

    def run(self, schedule: list[ScheduleEvent], limit: int, full_trace: bool = False) -> SimTrace:
        """Execute until every actor finishes or the cycle limit is reached.

        A pure function of (programs, schedule, limit): identical inputs give
        byte-identical traces. A kernel runs once; build a new one per run.
        Every schedule event must name one of the kernel's actors, whether or
        not the run reaches it.

        Each stop of the loop is the next completion, interrupt or resume,
        found by one scan of the actors; one pass then completes, in
        registration order, every actor that finishes there. Interrupts are
        taken in schedule order; an AEX that fires pushes ``(resume_at,
        index)`` onto a heap, so ERESUMEs at the same cycle keep schedule
        order and a skipped AEX leaves nothing behind.
        A stop pumps after its completions and again after its AEX and
        ERESUME events, each time only if they touched an actor.
        """
        validate_schedule(schedule)
        by_name = self._by_name
        for ev in schedule:
            if ev.actor not in by_name:
                raise ScheduleError(f"schedule targets unknown actor {ev.actor!r}")
        self._full_trace = full_trace
        actors = self._actors
        for actor in actors:
            if actor.gen is None:
                raise KernelError(f"actor {actor.name} has no program")
            if full_trace:
                self._log(actor.name, "START")

        n = len(schedule)
        ai = 0  # next AEX in schedule order
        next_aex = schedule[0].interrupt_at if n else _NEVER
        resumes: list[tuple[int, int]] = []  # (resume_at, index) of each fired AEX
        next_resume = _NEVER

        self._live = len(actors)
        for actor in actors:
            actor.touched = True
        self._touched = True
        self._pump()
        complete = True
        while self._live:
            t = next_aex if next_aex < next_resume else next_resume
            ticker: Actor | None = None  # an actor whose Ticks tick is in flight
            for actor in actors:
                at = actor.finish_at
                if at is None:
                    continue
                if actor.tx is not None and ticker is None:
                    ticker = actor
                elif at < t:
                    t = at
            if ticker is not None:
                # next-event advance of a lean run: commit in closed form the
                # periods that end before any other stop; the one at that
                # stop runs below
                at = ticker.finish_at
                if not full_trace:
                    until = t if t <= limit else limit + 1
                    if at < until and self._may_skip(ticker):
                        self._skip_periods(ticker, until)
                        at = ticker.finish_at
                if at < t:
                    t = at
            if t > limit:
                if t is _NEVER:
                    raise KernelError("deadlock: no runnable actor and no pending events")
                complete = False
                self.now = limit
                for actor in actors:
                    if actor.finish_at is not None:
                        self._cut(actor)
                break
            self.now = t
            # phase 1: completions, in registration order
            for actor in actors:
                if actor.finish_at == t:
                    self._complete(actor)
            # phase 1b: zero-cost continuations (commits, mirror copies)
            # finish before an interrupt arriving at the same boundary
            if self._touched:
                self._pump()
            # phase 2: AEX
            if next_aex == t:
                while True:
                    ev = schedule[ai]
                    if self._apply_aex(ev):
                        heapq.heappush(resumes, (ev.resume_at, ai))
                    ai += 1
                    next_aex = schedule[ai].interrupt_at if ai < n else _NEVER
                    if next_aex != t:
                        break
                next_resume = resumes[0][0] if resumes else _NEVER
            # phase 3: ERESUME, same-cycle resumes in schedule order; each
            # resumes an interrupted actor, which enters a pending wait again
            # once any handler has run
            while next_resume == t:
                name = schedule[heapq.heappop(resumes)[1]].actor
                actor = by_name[name]
                ripval = actor.ssa.rip.value
                if isinstance(ripval, EresumeHandler):
                    self._events.append((t, name, "ERESUME", "handler"))
                    actor.frozen.append((ripval.instr, ripval.instr.cost))
                else:
                    self._events.append((t, name, "ERESUME", ""))
                actor.state = _RUNNING
                actor.touched = self._touched = True
                next_resume = resumes[0][0] if resumes else _NEVER
            # phase 4: newly runnable work
            if self._touched:
                self._pump()

        return SimTrace(
            events=self._events,
            resident={actor.name: actor.resident for actor in actors},
            final_cycle=self.now,
            complete=complete,
            results={actor.name: actor.result for actor in actors},
        )
