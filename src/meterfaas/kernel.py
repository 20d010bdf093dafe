"""Deterministic discrete-event kernel for the enclave execution contract.

Actors are cooperative logical threads (worker, timer, os) whose programs are
Python generators yielding instructions. Every instruction has an integer cycle
cost; a global cycle counter advances, so traces are exact and reproducible.

The kernel enforces the contract the metering design relies on:

  * asynchronous exits (AEX) freeze an actor mid-instruction, spill a register
    snapshot over its save-state area (destroying the marker word), and record
    the true resume point in ``ssa.rip``;
  * ERESUME transparently continues the frozen work, unless enclave code
    installed a handler reference in ``ssa.rip``, in which case the handler
    steps run first;
  * a watched transaction aborts the moment any other party writes one of its
    watched cells or its own actor suffers an AEX, and none of its buffered
    writes become visible;
  * os-role actors can neither read nor write enclave memory, including SSAs.

Event ordering within one cycle is fixed: instruction completions (in actor
registration order), then AEX events, then ERESUME events, then newly runnable
work. This makes "interrupt between a transaction's end and the next
instruction" expressible and keeps every run a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

MARKER_VALUE = 12345  # sentinel word the worker keeps in its SSA
SPILL_VALUE = 0  # what an AEX register spill leaves in the marker word
RIP_NEXT = "next"  # default resume target: continue where interrupted

_RUNNING = 0
_WAITING = 1
_STALLED = 2
_INTERRUPTED = 3
_DONE = 4

_ZERO_COST_BUDGET = 200_000  # guard against zero-cost livelock in programs


class KernelError(Exception):
    """Programming faults in actor code: nesting, enclave-memory violations,
    zero-cost livelock, deadlock."""


class TxAborted(Exception):
    """Thrown into an actor's program when its transaction aborts.

    cause is one of "conflict" (foreign write to a watched cell), "interrupt"
    (own AEX), or the code given to an explicit abort instruction.
    """

    def __init__(self, cause: str) -> None:
        super().__init__(cause)
        self.cause = cause


class Cell:
    """One mutable memory word tracked by the kernel."""

    __slots__ = ("name", "value", "enclave")

    def __init__(self, name: str, value: Any, enclave: bool) -> None:
        self.name = name
        self.value = value
        self.enclave = enclave

    def __repr__(self) -> str:
        return f"Cell({self.name}={self.value!r})"


# --- instructions -----------------------------------------------------------

_OP, _READ, _WRITE, _TAS, _TXBEGIN, _TXEND, _TXABORT, _WAIT, _STALL = range(9)


class Instr:
    __slots__ = ("kind", "cost", "cell", "value", "effect", "label", "pred")

    def __init__(self, kind: int, cost: int = 0, cell: Cell | None = None, value: Any = None,
                 effect: Callable[[], Any] | None = None, label: str | None = None,
                 pred: Callable[[], bool] | None = None) -> None:
        self.kind = kind
        self.cost = cost
        self.cell = cell
        self.value = value
        self.effect = effect
        self.label = label
        self.pred = pred


def Op(cost: int, effect: Callable[[], Any] | None = None, label: str | None = None) -> Instr:
    """Spend `cost` cycles; at completion run `effect` and deliver its result."""
    if cost < 0:
        raise KernelError("negative instruction cost")
    return Instr(_OP, cost=cost, effect=effect, label=label)


def ReadCell(cell: Cell, cost: int = 0) -> Instr:
    return Instr(_READ, cost=cost, cell=cell)


def WriteCell(cell: Cell, value: Any, cost: int = 0) -> Instr:
    return Instr(_WRITE, cost=cost, cell=cell, value=value)


def TestAndSet(cell: Cell, cost: int = 1) -> Instr:
    """Atomically read the prior value and store 1. The single-instruction
    form is what makes the mutex race-free under any interleaving."""
    return Instr(_TAS, cost=cost, cell=cell)


def TxBegin(watch: Iterable[Cell]) -> Instr:
    return Instr(_TXBEGIN, value=frozenset(watch))


def TxEnd() -> Instr:
    return Instr(_TXEND)


def TxAbort(code: str) -> Instr:
    """Explicit abort of the current transaction (the XABORT analogue)."""
    return Instr(_TXABORT, value=code)


def WaitUntil(pred: Callable[[], bool]) -> Instr:
    """Block, without occupying cycles, until pred() becomes true.

    Re-evaluated after every committed write and after every ERESUME of the
    waiting actor, so wake-ups lost while interrupted are recovered.
    """
    return Instr(_WAIT, pred=pred)


def HostStall(cost: int) -> Instr:
    """Time serviced outside the enclave (an OCALL in flight). Counts as
    occupied time; AEX events aimed at a stalled actor are skipped, since
    there is no enclave context to spill."""
    if cost < 0:
        raise KernelError("negative stall")
    return Instr(_STALL, cost=cost)


class EresumeHandler:
    """Value installed into ssa.rip: detour steps to run on the next ERESUME
    before the interrupted work continues."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Instr]) -> None:
        self.steps = tuple(steps)

    def __repr__(self) -> str:
        return "<eresume-handler>"


@dataclass(frozen=True)
class ScheduleEvent:
    actor: str
    interrupt_at: int
    resume_at: int


class ScheduleError(ValueError):
    pass


def validate_schedule(events: list[ScheduleEvent]) -> None:
    last = -1
    per_actor: dict[str, int] = {}
    for ev in events:
        if ev.resume_at < ev.interrupt_at:
            raise ScheduleError(f"resume {ev.resume_at} before interrupt {ev.interrupt_at}")
        if ev.interrupt_at < last:
            raise ScheduleError("events not sorted by interrupt cycle")
        last = ev.interrupt_at
        prev_resume = per_actor.get(ev.actor, -1)
        if ev.interrupt_at < prev_resume:
            raise ScheduleError(f"overlapping interrupt windows for actor {ev.actor}")
        per_actor[ev.actor] = ev.resume_at


# --- trace ------------------------------------------------------------------


@dataclass
class SimTrace:
    """Cycle-accurate record of one run; ground truth for every oracle.

    ``events`` always holds the schedule-driven events ``AEX``, ``AEX_SKIPPED``
    and ``ERESUME``, at most two per schedule entry; an ``ERESUME`` that found
    an ERESUME handler installed has the detail ``handler``. Every other event
    (START, TX_*, WAIT_*, STALL_*, WRITE, STEP, DONE) is recorded only in a
    full trace.
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


def true_resident_cycles(trace: SimTrace, actor: str) -> int:
    """Exact cycles the actor spent occupying its thread context: executing
    instructions or servicing an OCALL. Interrupted gaps and wait-blocks are
    excluded."""
    if actor not in trace.resident:
        raise ValueError(f"unknown actor {actor!r}")
    return trace.resident[actor]


# --- actor runtime ----------------------------------------------------------


class _SSA:
    __slots__ = ("marker", "rip")

    def __init__(self, marker: Cell, rip: Cell) -> None:
        self.marker = marker
        self.rip = rip


class _Tx:
    __slots__ = ("watch", "writes")

    def __init__(self, watch: frozenset[Cell]) -> None:
        self.watch = watch
        self.writes: dict[Cell, Any] = {}


class ActorHandle:
    """Public handle: identity, SSA cells (enclave actors), program slot."""

    def __init__(self, name: str, enclave: bool, ssa: _SSA | None) -> None:
        self.name = name
        self.enclave = enclave
        self.ssa = ssa
        self._program: Generator | None = None

    def set_program(self, gen: Generator) -> None:
        self._program = gen


class _Rt:
    __slots__ = (
        "handle", "gen", "state", "instr", "finish_at", "frozen", "segment_start",
        "tx", "pending_abort", "detours", "in_detour", "needs_fetch", "send_value",
        "wait_pred", "wait_was", "resident", "result",
    )

    def __init__(self, handle: ActorHandle) -> None:
        self.handle = handle
        self.gen = handle._program
        self.state = _RUNNING
        self.instr: Instr | None = None
        self.finish_at: int | None = None
        # work frozen by an AEX, innermost last: (instr, remaining, in_detour);
        # an AEX inside the ERESUME handler stacks on the work it detoured from
        self.frozen: list[tuple[Instr, int, bool]] = []
        self.segment_start: int | None = None
        self.tx: _Tx | None = None
        self.pending_abort: TxAborted | None = None
        self.detours: list[Instr] = []
        self.in_detour = False
        self.needs_fetch = True
        self.send_value: Any = None
        self.wait_pred: Callable[[], bool] | None = None
        self.wait_was = False  # True if the actor was waiting when interrupted
        self.resident = 0
        self.result: Any = None


class SimKernel:
    """One deterministic simulation instance: cells, actors, and the clock."""

    def __init__(self) -> None:
        self._handles: list[ActorHandle] = []
        self.now = 0
        self._rts: list[_Rt] = []
        self._events: list[tuple[int, str, str, str]] = []
        self._full_trace = False
        self._by_name: dict[str, _Rt] = {}

    # construction

    def cell(self, name: str, value: Any = 0, enclave: bool = False) -> Cell:
        return Cell(name, value, enclave)

    def add_enclave_actor(self, name: str) -> ActorHandle:
        ssa = _SSA(
            marker=self.cell(f"{name}.ssa.marker", 0, enclave=True),
            rip=self.cell(f"{name}.ssa.rip", RIP_NEXT, enclave=True),
        )
        handle = ActorHandle(name, enclave=True, ssa=ssa)
        self._handles.append(handle)
        return handle

    def add_os_actor(self, name: str) -> ActorHandle:
        handle = ActorHandle(name, enclave=False, ssa=None)
        self._handles.append(handle)
        return handle

    # logging; callers record per-instruction events only in a full trace

    def _log(self, actor: str, kind: str, detail: str = "") -> None:
        self._events.append((self.now, actor, kind, detail))

    # write machinery

    def _commit_write(self, writer: _Rt | None, cell: Cell, value: Any) -> None:
        cell.value = value
        if self._full_trace:
            who = writer.handle.name if writer is not None else "hw"
            self._log(who, "WRITE", f"{cell.name}={value!r}")
        for rt in self._rts:
            if rt is writer or rt.tx is None:
                continue
            if cell in rt.tx.watch:
                self._abort_tx(rt, "conflict")

    def _apply_write(self, rt: _Rt, cell: Cell, value: Any) -> None:
        if not rt.handle.enclave and cell.enclave:
            raise KernelError(f"os actor {rt.handle.name} wrote enclave cell {cell.name}")
        if rt.tx is not None:
            rt.tx.writes[cell] = value
            return
        self._commit_write(rt, cell, value)

    def _read_value(self, rt: _Rt, cell: Cell) -> Any:
        if not rt.handle.enclave and cell.enclave:
            raise KernelError(f"os actor {rt.handle.name} read enclave cell {cell.name}")
        if rt.tx is not None and cell in rt.tx.writes:
            return rt.tx.writes[cell]
        return cell.value

    def _abort_tx(self, rt: _Rt, cause: str) -> None:
        rt.tx = None
        rt.pending_abort = TxAborted(cause)
        if self._full_trace:
            self._log(rt.handle.name, "TX_ABORT", cause)
        # squash in-flight or frozen body work; cycles consumed stay consumed
        if rt.state == _RUNNING and rt.finish_at is not None:
            self._accrue(rt)
        rt.instr = None
        rt.finish_at = None
        rt.frozen.clear()

    # resident accounting

    def _accrue(self, rt: _Rt) -> None:
        if rt.segment_start is not None:
            rt.resident += self.now - rt.segment_start
            rt.segment_start = None

    # execution

    def _complete(self, rt: _Rt) -> None:
        """Apply the in-flight instruction's effect at the current cycle."""
        instr = rt.instr
        assert instr is not None
        self._accrue(rt)
        rt.instr = None
        rt.finish_at = None
        if rt.state == _STALLED:
            rt.state = _RUNNING
            if self._full_trace:
                self._log(rt.handle.name, "STALL_END")
            result: Any = None
        elif instr.kind == _OP:
            result = instr.effect() if instr.effect is not None else None
            if self._full_trace and instr.label:
                self._log(rt.handle.name, "STEP", instr.label)
        elif instr.kind == _READ:
            result = self._read_value(rt, instr.cell)
        elif instr.kind == _WRITE:
            self._apply_write(rt, instr.cell, instr.value)
            result = None
        elif instr.kind == _TAS:
            result = self._read_value(rt, instr.cell)
            self._apply_write(rt, instr.cell, 1)
        else:  # pragma: no cover - other kinds never become in-flight
            raise KernelError(f"unexpected in-flight kind {instr.kind}")
        if rt.in_detour:
            rt.in_detour = False
        else:
            rt.needs_fetch = True
            rt.send_value = result

    def _advance(self, rt: _Rt, *, throw: TxAborted | None = None) -> None:
        """Move the actor's generator one step and stage the next instruction."""
        try:
            if throw is not None:
                nxt = rt.gen.throw(throw)
            else:
                nxt = rt.gen.send(rt.send_value)
        except StopIteration as stop:
            self._accrue(rt)
            rt.state = _DONE
            rt.result = stop.value
            if self._full_trace:
                self._log(rt.handle.name, "DONE")
            return
        rt.send_value = None
        self._begin(rt, nxt)

    def _begin(self, rt: _Rt, instr: Instr) -> None:
        """Stage one instruction. Zero-cost work applies immediately."""
        kind = instr.kind
        if kind == _TXBEGIN:
            if rt.tx is not None:
                raise KernelError(f"{rt.handle.name}: nested transaction")
            rt.tx = _Tx(instr.value)
            if self._full_trace:
                self._log(rt.handle.name, "TX_BEGIN", f"watch={len(instr.value)}")
            rt.needs_fetch = True
            return
        if kind == _TXEND:
            if rt.tx is None:
                raise KernelError(f"{rt.handle.name}: commit outside transaction")
            tx = rt.tx
            rt.tx = None
            for cell, value in tx.writes.items():
                self._commit_write(rt, cell, value)
            if self._full_trace:
                self._log(rt.handle.name, "TX_COMMIT")
            rt.needs_fetch = True
            return
        if kind == _TXABORT:
            if rt.tx is None:
                raise KernelError(f"{rt.handle.name}: abort outside transaction")
            self._abort_tx(rt, instr.value)
            return
        if kind == _WAIT:
            if rt.tx is not None:
                raise KernelError(f"{rt.handle.name}: wait inside transaction")
            if instr.pred():
                rt.needs_fetch = True
                rt.send_value = None
                return
            rt.wait_pred = instr.pred
            rt.state = _WAITING
            if self._full_trace:
                self._log(rt.handle.name, "WAIT_BEGIN")
            return
        if kind == _STALL:
            if rt.tx is not None:
                raise KernelError(f"{rt.handle.name}: ocall stall inside transaction")
            if self._full_trace:
                self._log(rt.handle.name, "STALL_BEGIN", f"cycles={instr.cost}")
            if instr.cost == 0:
                if self._full_trace:
                    self._log(rt.handle.name, "STALL_END")
                rt.needs_fetch = True
                rt.send_value = None
                return
            rt.state = _STALLED
            rt.instr = instr
            rt.finish_at = self.now + instr.cost
            rt.segment_start = self.now
            return
        # costed kinds: OP / READ / WRITE / TAS
        if instr.cost == 0:
            rt.instr = instr
            self._complete(rt)
            return
        rt.instr = instr
        rt.finish_at = self.now + instr.cost
        rt.segment_start = self.now

    def _pump(self) -> None:
        """Run everything that can make progress at the current cycle."""
        budget = _ZERO_COST_BUDGET
        progressed = True
        while progressed:
            progressed = False
            for rt in self._rts:
                while True:
                    if budget <= 0:
                        raise KernelError("zero-cost livelock (instruction budget exhausted)")
                    if rt.state == _WAITING:
                        if rt.detours:
                            rt.state = _RUNNING  # handler runs in this context
                        elif rt.wait_pred is not None and rt.wait_pred():
                            rt.wait_pred = None
                            rt.state = _RUNNING
                            if self._full_trace:
                                self._log(rt.handle.name, "WAIT_END")
                            rt.needs_fetch = True
                            rt.send_value = None
                        else:
                            break
                    if rt.state != _RUNNING:
                        break
                    if rt.finish_at is not None:
                        break  # actively executing; time must pass
                    if rt.detours:
                        budget -= 1
                        progressed = True
                        det = rt.detours.pop(0)
                        rt.in_detour = True
                        self._begin(rt, det)
                        if rt.finish_at is not None:
                            break
                        continue
                    if rt.frozen:
                        # frozen work resumes exactly where it was interrupted,
                        # an interrupted handler before the work it detoured from
                        rt.instr, rem, rt.in_detour = rt.frozen.pop()
                        rt.finish_at = self.now + rem
                        rt.segment_start = self.now
                        break
                    if rt.wait_pred is not None:
                        # detours drained while a wait was pending: wait again
                        rt.state = _WAITING
                        continue
                    if rt.pending_abort is not None:
                        budget -= 1
                        progressed = True
                        exc = rt.pending_abort
                        rt.pending_abort = None
                        rt.needs_fetch = False
                        self._advance(rt, throw=exc)
                        if rt.finish_at is not None or rt.state != _RUNNING:
                            break
                        continue
                    if rt.needs_fetch:
                        budget -= 1
                        progressed = True
                        rt.needs_fetch = False
                        self._advance(rt)
                        if rt.finish_at is not None or rt.state != _RUNNING:
                            break
                        continue
                    break

    def _apply_aex(self, ev: ScheduleEvent, skipped: set[int], idx: int) -> None:
        rt = self._by_name.get(ev.actor)
        if rt is None:
            raise ScheduleError(f"schedule targets unknown actor {ev.actor!r}")
        if not rt.handle.enclave:
            raise ScheduleError("schedule may only interrupt enclave actors")
        if rt.state not in (_RUNNING, _WAITING):
            self._log(ev.actor, "AEX_SKIPPED", f"state={rt.state}")
            skipped.add(idx)
            return
        self._log(ev.actor, "AEX")
        if rt.tx is not None:
            self._abort_tx(rt, "interrupt")
        if rt.state == _RUNNING and rt.finish_at is not None:
            # freeze in-flight work; it resumes exactly where it stopped
            self._accrue(rt)
            rt.frozen.append((rt.instr, rt.finish_at - self.now, rt.in_detour))
            rt.instr = None
            rt.finish_at = None
            rt.in_detour = False
        rt.wait_was = rt.state == _WAITING
        rt.state = _INTERRUPTED
        ssa = rt.handle.ssa
        # register spill: the CPU overwrites the SSA, destroying the marker
        # and recording the true resume point
        self._commit_write(None, ssa.marker, SPILL_VALUE)
        self._commit_write(None, ssa.rip, f"interrupted@{self.now}")

    def _apply_eresume(self, ev: ScheduleEvent) -> None:
        rt = self._by_name[ev.actor]
        if rt.state != _INTERRUPTED:  # pragma: no cover - guarded by validation
            if self._full_trace:
                self._log(ev.actor, "ERESUME_SKIPPED")
            return
        ripval = rt.handle.ssa.rip.value
        handler = isinstance(ripval, EresumeHandler)
        self._log(ev.actor, "ERESUME", "handler" if handler else "")
        if handler:
            rt.detours.extend(ripval.steps)
        rt.state = _WAITING if rt.wait_was else _RUNNING
        rt.wait_was = False

    def run(self, schedule: list[ScheduleEvent], limit: int, full_trace: bool = False) -> SimTrace:
        """Execute until every actor finishes or the cycle limit is reached.

        A pure function of (programs, schedule, limit): identical inputs give
        byte-identical traces.
        """
        validate_schedule(schedule)
        self._full_trace = full_trace
        self._rts = []
        self._by_name = {}
        self._events = []
        self.now = 0
        for handle in self._handles:
            if handle._program is None:
                raise KernelError(f"actor {handle.name} has no program")
            rt = _Rt(handle)
            self._rts.append(rt)
            self._by_name[handle.name] = rt
            if full_trace:
                self._log(handle.name, "START")

        aex_queue = list(enumerate(schedule))
        resume_queue = sorted(enumerate(schedule), key=lambda p: (p[1].resume_at, p[0]))
        skipped: set[int] = set()
        ai = ri = 0

        self._pump()
        complete = True
        while True:
            if all(rt.state == _DONE for rt in self._rts):
                break
            candidates: list[int] = []
            for rt in self._rts:
                if rt.finish_at is not None:
                    candidates.append(rt.finish_at)
            if ai < len(aex_queue):
                candidates.append(aex_queue[ai][1].interrupt_at)
            for j in range(ri, len(resume_queue)):
                if resume_queue[j][0] not in skipped:
                    candidates.append(resume_queue[j][1].resume_at)
                    break
            if not candidates:
                raise KernelError("deadlock: no runnable actor and no pending events")
            t = min(candidates)
            if t > limit:
                complete = False
                self.now = limit
                for rt in self._rts:
                    self._accrue(rt)
                break
            self.now = t
            # phase 1: completions, in registration order
            for rt in self._rts:
                if rt.finish_at == t:
                    self._complete(rt)
            # phase 1b: zero-cost continuations (commits, mirror copies)
            # finish before an interrupt arriving at the same boundary
            self._pump()
            # phase 2: AEX
            while ai < len(aex_queue) and aex_queue[ai][1].interrupt_at == t:
                idx, ev = aex_queue[ai]
                self._apply_aex(ev, skipped, idx)
                ai += 1
            # phase 3: ERESUME
            while ri < len(resume_queue):
                idx, ev = resume_queue[ri]
                if idx in skipped:
                    ri += 1
                    continue
                if ev.resume_at != t:
                    break
                self._apply_eresume(ev)
                ri += 1
            # phase 4: newly runnable work
            self._pump()

        return SimTrace(
            events=self._events,
            resident={rt.handle.name: rt.resident for rt in self._rts},
            final_cycle=self.now,
            complete=complete,
            results={rt.handle.name: rt.result for rt in self._rts},
        )


def tx_execute(watch: Iterable[Cell], body: Generator) -> Generator:
    """Run `body` inside a watched transaction; yields the outcome.

    Usage from an actor program::

        outcome = yield from tx_execute((cell,), body_gen())

    Returns ("committed", None) or ("aborted", cause).
    """
    try:
        yield TxBegin(watch)
        yield from body
        yield TxEnd()
        return ("committed", None)
    except TxAborted as exc:
        return ("aborted", exc.cause)
