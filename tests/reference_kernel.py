"""Reference model of the discrete-event kernel: ``SimKernel`` and ``Actor``
as they were before the kernel completed zero-cost work in place and pumped
only after a change. Every instruction, zero-cost or not, makes its own round
trip through ``_pump``, ``_advance``, ``_begin`` and ``_complete``, and every
cycle the loop stops at pumps twice. ``meterfaas.kernel.SimKernel`` must
produce the same events, residency, results and errors; tests swap this model
in (``monkeypatch.setattr(metering, "SimKernel", ...)``) and compare, the role
``reference_timer`` plays for the timer's ``Ticks`` instruction.

It also keeps the primitives the kernel dropped once no program yielded
them: program-level transactions (``TxBegin``, ``TxEnd``, ``TxAbort`` and
the ``TxAborted`` they throw) and ``ReadCell``. Their kinds lie past the
kernel's own, which the kernel rejects as unknown. It has no ``Ticks``: a
timer runs on it spelled in these primitives (``reference_timer``), and a
``Ticks`` yielded to it is an unknown kind."""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from meterfaas.kernel import (
    _DONE,
    _INTERRUPTED,
    _KINDS,
    _OP,
    _RUNNING,
    _STALL,
    _STALLED,
    _TAS,
    _WAIT,
    _WAITING,
    _WRITE,
    _ZERO_COST_BUDGET,
    _SSA,
    RIP_NEXT,
    SPILL_VALUE,
    Cell,
    EresumeHandler,
    Instr,
    KernelError,
    ScheduleError,
    ScheduleEvent,
    SimTrace,
    validate_schedule,
)

_READ, _TXBEGIN, _TXEND, _TXABORT = range(len(_KINDS), len(_KINDS) + 4)


class TxAborted(Exception):
    """Thrown into an actor's program when its transaction aborts.

    cause is one of "conflict" (foreign write to a watched cell), "interrupt"
    (own AEX), or the code given to an explicit abort instruction.
    """

    @property
    def cause(self) -> str:
        return self.args[0]


def ReadCell(cell: Cell, cost: int = 0) -> Instr:
    return Instr(_READ, cost, cell)


def TxBegin(watch: Iterable[Cell]) -> Instr:
    return Instr(_TXBEGIN, value=frozenset(watch))


def TxEnd() -> Instr:
    return Instr(_TXEND)


def TxAbort(code: str) -> Instr:
    """Explicit abort of the current transaction (the XABORT analogue)."""
    return Instr(_TXABORT, value=code)


class _Tx:
    __slots__ = ("watch", "writes")

    def __init__(self, watch: frozenset[Cell]) -> None:
        self.watch = watch
        self.writes: dict[Cell, Any] = {}


class Actor:
    """One enclave actor: name, SSA cells, program and run state.

    An idle running actor (no in-flight, frozen, waiting or pending-abort
    work) fetches its next instruction from its program.
    """

    __slots__ = (
        "name", "ssa", "gen", "state", "instr", "finish_at", "frozen", "segment_start",
        "tx", "pending_abort", "send_value", "wait_pred", "resident", "result",
    )

    def __init__(self, name: str, ssa: _SSA) -> None:
        self.name = name
        self.ssa = ssa
        self.gen: Generator | None = None
        self.state = _RUNNING
        self.instr: Instr | None = None
        self.finish_at: int | None = None
        # work frozen by an AEX, innermost last: (instr, remaining cycles); an
        # ERESUME handler is pushed on top, so it runs first
        self.frozen: list[tuple[Instr, int]] = []
        self.segment_start: int | None = None
        self.tx: _Tx | None = None
        self.pending_abort: TxAborted | None = None
        self.send_value: Any = None
        self.wait_pred: Callable[[], bool] | None = None
        self.resident = 0
        self.result: Any = None

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
        cell.value = value
        if self._full_trace:
            who = writer.name if writer is not None else "hw"
            self._log(who, "WRITE", f"{cell.name}={value!r}")
        for actor in self._actors:
            if actor is writer or actor.tx is None:
                continue
            if cell in actor.tx.watch:
                self._abort_tx(actor, "conflict")

    def _apply_write(self, actor: Actor, cell: Cell, value: Any) -> None:
        if actor.tx is not None:
            actor.tx.writes[cell] = value
            return
        self._commit_write(actor, cell, value)

    def _read_value(self, actor: Actor, cell: Cell) -> Any:
        if actor.tx is not None and cell in actor.tx.writes:
            return actor.tx.writes[cell]
        return cell.value

    def _abort_tx(self, actor: Actor, cause: str) -> None:
        actor.tx = None
        actor.pending_abort = TxAborted(cause)
        if self._full_trace:
            self._log(actor.name, "TX_ABORT", cause)
        # squash in-flight or frozen body work; cycles consumed stay consumed
        if actor.state == _RUNNING and actor.finish_at is not None:
            self._accrue(actor)
        actor.instr = None
        actor.finish_at = None
        actor.frozen.clear()

    # resident accounting

    def _accrue(self, actor: Actor) -> None:
        if actor.segment_start is not None:
            actor.resident += self.now - actor.segment_start
            actor.segment_start = None

    # execution

    def _complete(self, actor: Actor) -> None:
        """Apply the in-flight instruction's effect at the current cycle."""
        instr = actor.instr
        assert instr is not None
        self._accrue(actor)
        actor.instr = None
        actor.finish_at = None
        if actor.state == _STALLED:
            actor.state = _RUNNING
            if self._full_trace:
                self._log(actor.name, "STALL_END")
            result: Any = None
        elif instr.kind == _OP:
            result = None
            if self._full_trace and instr.label:
                self._log(actor.name, "STEP", instr.label)
        elif instr.kind == _READ:
            result = self._read_value(actor, instr.cell)
        elif instr.kind == _WRITE:
            self._apply_write(actor, instr.cell, instr.value)
            result = None
        elif instr.kind == _TAS:
            result = self._read_value(actor, instr.cell)
            self._apply_write(actor, instr.cell, 1)
        else:  # pragma: no cover - other kinds never become in-flight
            raise KernelError(f"unexpected in-flight kind {instr.kind}")
        # An ERESUME handler's result lands here too but never reaches the
        # program: the handler always runs above frozen work, a pending wait
        # or a pending abort, whose completion, wake or throw replaces it
        # before the next send.
        actor.send_value = result

    def _advance(self, actor: Actor, *, throw: TxAborted | None = None) -> None:
        """Move the actor's generator one step and stage the next instruction."""
        try:
            if throw is not None:
                nxt = actor.gen.throw(throw)
            else:
                nxt = actor.gen.send(actor.send_value)
        except StopIteration as stop:
            actor.state = _DONE
            actor.result = stop.value
            if self._full_trace:
                self._log(actor.name, "DONE")
            return
        actor.send_value = None
        self._begin(actor, nxt)

    def _begin(self, actor: Actor, instr: Instr) -> None:
        """Stage one instruction. Zero-cost work applies immediately."""
        kind = instr.kind
        if kind == _TXBEGIN:
            if actor.tx is not None:
                raise KernelError(f"{actor.name}: nested transaction")
            actor.tx = _Tx(instr.value)
            if self._full_trace:
                self._log(actor.name, "TX_BEGIN", f"watch={len(instr.value)}")
            return
        if kind == _TXEND:
            if actor.tx is None:
                raise KernelError(f"{actor.name}: commit outside transaction")
            tx = actor.tx
            actor.tx = None
            for cell, value in tx.writes.items():
                self._commit_write(actor, cell, value)
            if self._full_trace:
                self._log(actor.name, "TX_COMMIT")
            return
        if kind == _TXABORT:
            if actor.tx is None:
                raise KernelError(f"{actor.name}: abort outside transaction")
            self._abort_tx(actor, instr.value)
            return
        if kind == _WAIT:
            if actor.tx is not None:
                raise KernelError(f"{actor.name}: wait inside transaction")
            if instr.pred():
                return
            actor.wait_pred = instr.pred
            actor.state = _WAITING
            if self._full_trace:
                self._log(actor.name, "WAIT_BEGIN")
            return
        if kind == _STALL:
            if actor.tx is not None:
                raise KernelError(f"{actor.name}: ocall stall inside transaction")
            if self._full_trace:
                self._log(actor.name, "STALL_BEGIN", f"cycles={instr.cost}")
            actor.state = _STALLED
            self._stage(actor, instr)
            return
        if kind not in (_OP, _READ, _WRITE, _TAS):  # the costed kinds
            raise KernelError(f"{actor.name}: unknown instruction kind {kind}")
        if instr.cost == 0:
            actor.instr = instr
            self._complete(actor)
            return
        self._stage(actor, instr)

    def _stage(self, actor: Actor, instr: Instr) -> None:
        """Put costed work in flight from the current cycle."""
        actor.instr = instr
        actor.finish_at = self.now + instr.cost
        actor.segment_start = self.now

    def _pump(self) -> None:
        """Run everything that can make progress at the current cycle."""
        budget = _ZERO_COST_BUDGET
        progressed = True
        while progressed:
            progressed = False
            for actor in self._actors:
                while True:
                    if budget <= 0:
                        raise KernelError("zero-cost livelock (instruction budget exhausted)")
                    if actor.state == _WAITING:
                        if not actor.wait_pred():
                            break
                        actor.wait_pred = None
                        actor.state = _RUNNING
                        actor.send_value = None
                        if self._full_trace:
                            self._log(actor.name, "WAIT_END")
                    if actor.state != _RUNNING or actor.finish_at is not None:
                        break  # blocked, or executing: time must pass
                    if actor.frozen:
                        # frozen work resumes exactly where it was interrupted,
                        # an ERESUME handler before the work it detoured from
                        actor.instr, remaining = actor.frozen.pop()
                        actor.segment_start = self.now
                        if remaining:
                            actor.finish_at = self.now + remaining
                            break
                        budget -= 1
                        progressed = True
                        self._complete(actor)  # a zero-cost handler
                        continue
                    if actor.wait_pred is not None:
                        # a handler ran while a wait was pending: wait again
                        actor.state = _WAITING
                        continue
                    budget -= 1
                    progressed = True
                    exc = actor.pending_abort
                    actor.pending_abort = None
                    self._advance(actor, throw=exc)
                    if actor.finish_at is not None or actor.state != _RUNNING:
                        break

    def _apply_aex(self, ev: ScheduleEvent, skipped: set[int], idx: int) -> None:
        actor = self._by_name[ev.actor]
        if actor.state not in (_RUNNING, _WAITING):
            self._log(ev.actor, "AEX_SKIPPED", f"state={actor.state}")
            skipped.add(idx)
            return
        self._log(ev.actor, "AEX")
        if actor.tx is not None:
            self._abort_tx(actor, "interrupt")
        if actor.finish_at is not None:
            # freeze in-flight work; it resumes exactly where it stopped
            self._accrue(actor)
            actor.frozen.append((actor.instr, actor.finish_at - self.now))
            actor.instr = None
            actor.finish_at = None
        actor.state = _INTERRUPTED
        ssa = actor.ssa
        # register spill: the CPU overwrites the SSA, destroying the marker
        # and recording the true resume point
        self._commit_write(None, ssa.marker, SPILL_VALUE)
        self._commit_write(None, ssa.rip, f"interrupted@{self.now}")

    def _apply_eresume(self, ev: ScheduleEvent) -> None:
        # called only for an event whose AEX fired, so the actor is
        # interrupted; a pending wait is entered again once any handler has run
        actor = self._by_name[ev.actor]
        ripval = actor.ssa.rip.value
        handler = isinstance(ripval, EresumeHandler)
        self._log(ev.actor, "ERESUME", "handler" if handler else "")
        if handler:
            actor.frozen.append((ripval.instr, ripval.instr.cost))
        actor.state = _RUNNING

    def run(self, schedule: list[ScheduleEvent], limit: int, full_trace: bool = False) -> SimTrace:
        """Execute until every actor finishes or the cycle limit is reached.

        A pure function of (programs, schedule, limit): identical inputs give
        byte-identical traces. A kernel runs once; build a new one per run.
        Every schedule event must name one of the kernel's actors, whether or
        not the run reaches it.
        """
        validate_schedule(schedule)
        for ev in schedule:
            if ev.actor not in self._by_name:
                raise ScheduleError(f"schedule targets unknown actor {ev.actor!r}")
        self._full_trace = full_trace
        for actor in self._actors:
            if actor.gen is None:
                raise KernelError(f"actor {actor.name} has no program")
            if full_trace:
                self._log(actor.name, "START")

        aex_queue = list(enumerate(schedule))
        resume_queue = sorted(enumerate(schedule), key=lambda p: (p[1].resume_at, p[0]))
        skipped: set[int] = set()
        ai = ri = 0

        self._pump()
        complete = True
        while True:
            if all(actor.state == _DONE for actor in self._actors):
                break
            candidates = [actor.finish_at for actor in self._actors if actor.finish_at is not None]
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
                for actor in self._actors:
                    self._accrue(actor)
                break
            self.now = t
            # phase 1: completions, in registration order
            for actor in self._actors:
                if actor.finish_at == t:
                    self._complete(actor)
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
            resident={actor.name: actor.resident for actor in self._actors},
            final_cycle=self.now,
            complete=complete,
            results={actor.name: actor.result for actor in self._actors},
        )
