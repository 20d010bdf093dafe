"""Simulation kernel contract tests: determinism, AEX/ERESUME, Ticks periods."""

import ast
from pathlib import Path

import pytest
import reference_kernel
from reference_kernel import ReadCell, TxAbort, TxAborted, TxBegin, TxEnd

from meterfaas import kernel
from meterfaas.kernel import (
    MARKER_VALUE,
    RIP_NEXT,
    SPILL_VALUE,
    Cell,
    EresumeHandler,
    HostStall,
    KernelError,
    Op,
    ScheduleError,
    ScheduleEvent,
    SimKernel,
    TestAndSet,
    Ticks,
    WaitUntil,
    WriteCell,
    validate_schedule,
)


def make_worker_program(steps, step_cost=1):
    def program():
        for i in range(steps):
            yield Op(step_cost, label=f"step{i}")
        return "done"

    return program()


def run_single(steps, schedule=(), step_cost=1, limit=10_000, full=False):
    kern = SimKernel()
    w = kern.add_enclave_actor("worker")
    w.set_program(make_worker_program(steps, step_cost))
    return kern.run(list(schedule), limit, full_trace=full)


class TestBasics:
    def test_uninterrupted_resident_equals_program_cost(self):
        trace = run_single(steps=7, step_cost=3)
        assert trace.complete
        assert trace.resident["worker"] == 21
        assert not [e for e in trace.events if e[2] == "AEX"]

    def test_limit_truncates_and_flags_incomplete(self):
        # the limit refunds the half of the step in flight; an interrupted
        # worker has nothing in flight, so its residency ends at the AEX
        for schedule, resident in (((), 55), ([ScheduleEvent("worker", 23, 80)], 23)):
            trace = run_single(steps=100, step_cost=10, limit=55, schedule=schedule)
            assert not trace.complete
            assert trace.final_cycle == 55
            assert trace.resident["worker"] == resident

    def test_interrupt_excluded_from_resident(self):
        # cost 30 program, interrupted for 100 cycles in the middle
        trace = run_single(steps=30, schedule=[ScheduleEvent("worker", 13, 113)])
        assert trace.complete
        assert trace.resident["worker"] == 30
        assert trace.final_cycle == 130

    def test_result_returned_in_trace(self):
        trace = run_single(steps=2)
        assert trace.results["worker"] == "done"


class TestDeterminism:
    def test_byte_identical_traces_over_reruns(self):
        def run_once():
            kern = SimKernel()
            w = kern.add_enclave_actor("worker")
            t = kern.add_enclave_actor("timer")
            w.set_program(make_worker_program(40))
            t.set_program(make_worker_program(25, step_cost=2))
            sched = [
                ScheduleEvent("worker", 5, 17),
                ScheduleEvent("timer", 9, 30),
                ScheduleEvent("worker", 21, 22),
            ]
            return kern.run(sched, 10_000, full_trace=True).export_text()

        first = run_once()
        for _ in range(100):
            assert run_once() == first


class TestSsaContract:
    def test_aex_overwrites_marker(self):
        kern = SimKernel()
        w = kern.add_enclave_actor("worker")
        marker = w.ssa.marker

        def program():
            yield WriteCell(marker, MARKER_VALUE)
            yield Op(20)
            return marker.value

        w.set_program(program())
        trace = kern.run([ScheduleEvent("worker", 5, 8)], 1000)
        aex = [e for e in trace.events if e[2] == "AEX"]
        assert aex and aex[0][0] == 5
        # spill destroyed the marker and nothing restored it
        assert trace.results["worker"] == SPILL_VALUE

    def test_eresume_handler_detour_runs_before_resuming(self):
        kern = SimKernel()
        w = kern.add_enclave_actor("worker")
        marker = w.ssa.marker
        handler = EresumeHandler(WriteCell(marker, MARKER_VALUE, cost=3))

        def program():
            yield WriteCell(marker, MARKER_VALUE)
            yield Op(10)
            yield Op(10)
            return marker.value

        w.set_program(program())

        # a second enclave actor installs the handler, as the timer would
        t = kern.add_enclave_actor("timer")

        def timer_program():
            yield Op(6)  # past the AEX at 5
            yield WriteCell(w.ssa.rip, handler, cost=1)
            return None

        t.set_program(timer_program())
        trace = kern.run([ScheduleEvent("worker", 5, 9)], 1000)
        assert trace.complete
        # marker restored by the handler, function state unharmed
        assert trace.results["worker"] == MARKER_VALUE
        # handler cycles count as worker residency: 20 program + 3 handler
        assert trace.resident["worker"] == 23

    def test_aex_inside_handler_keeps_both_frozen_remainders(self):
        # Op(10) is frozen at 3 with 7 cycles left; the installed 5-cycle
        # handler runs from 10 and is interrupted at 12 with 3 left. That
        # spill replaced the handler in ssa.rip, so the resume at 20 finishes
        # the handler (20..23), then the Op (23..30).
        kern = SimKernel()
        w = kern.add_enclave_actor("worker")
        handler = EresumeHandler(WriteCell(w.ssa.marker, MARKER_VALUE, cost=5))

        def program():
            yield Op(10)
            return w.ssa.marker.value

        def installer():
            yield Op(4)
            yield WriteCell(w.ssa.rip, handler, cost=1)

        w.set_program(program())
        kern.add_enclave_actor("timer").set_program(installer())
        trace = kern.run([ScheduleEvent("worker", 3, 10), ScheduleEvent("worker", 12, 20)], 1000)
        assert trace.complete
        assert trace.results["worker"] == MARKER_VALUE
        assert trace.final_cycle == 30
        assert trace.resident["worker"] == 10 + 5
        assert [(c, k, d) for (c, a, k, d) in trace.events] == [
            (3, "AEX", ""), (10, "ERESUME", "handler"), (12, "AEX", ""), (20, "ERESUME", ""),
        ]

    @staticmethod
    def _interrupted_waiter(flag_at):
        # the waiter blocks from 0; it is out from 2 to 10, and the installer
        # puts a 4-cycle handler into its ssa.rip at 4. The flag is set at
        # flag_at.
        kern = SimKernel()
        w = kern.add_enclave_actor("waiter")
        flag = Cell("flag", 0)
        handler = EresumeHandler(WriteCell(w.ssa.marker, MARKER_VALUE, cost=4))

        def waiter():
            yield WaitUntil(lambda: flag.value == 1)
            yield Op(2)
            return w.ssa.marker.value

        def installer():
            yield Op(3)
            yield WriteCell(w.ssa.rip, handler, cost=1)
            yield Op(flag_at - 5)
            yield WriteCell(flag, 1, cost=1)

        w.set_program(waiter())
        kern.add_enclave_actor("installer").set_program(installer())
        return kern.run([ScheduleEvent("waiter", 2, 10)], 1000, full_trace=True)

    def test_handler_runs_before_interrupted_wait_is_checked_again(self):
        # flag set at 8, inside the window: the handler still runs first
        # (10..14), then the wait sees the flag and the work runs (14..16)
        trace = self._interrupted_waiter(flag_at=8)
        assert trace.results["waiter"] == MARKER_VALUE
        assert trace.resident["waiter"] == 4 + 2
        assert trace.final_cycle == 16
        assert trace.events == [
            (0, "waiter", "START", ""), (0, "installer", "START", ""),
            (0, "waiter", "WAIT_BEGIN", ""),
            (2, "waiter", "AEX", ""),
            (2, "hw", "WRITE", "waiter.ssa.marker=0"),
            (2, "hw", "WRITE", "waiter.ssa.rip='interrupted@2'"),
            (4, "installer", "WRITE", "waiter.ssa.rip=<eresume-handler>"),
            (8, "installer", "WRITE", "flag=1"),
            (8, "installer", "DONE", ""),
            (10, "waiter", "ERESUME", "handler"),
            (14, "waiter", "WRITE", "waiter.ssa.marker=12345"),
            (14, "waiter", "WAIT_END", ""),
            (16, "waiter", "DONE", ""),
        ]

    def test_handler_returns_actor_to_its_wait(self):
        # flag set at 20, after the window: the handler runs (10..14), the
        # waiter blocks again and wakes at 20
        trace = self._interrupted_waiter(flag_at=20)
        assert trace.results["waiter"] == MARKER_VALUE
        assert trace.resident["waiter"] == 4 + 2
        assert trace.final_cycle == 22
        assert trace.events == [
            (0, "waiter", "START", ""), (0, "installer", "START", ""),
            (0, "waiter", "WAIT_BEGIN", ""),
            (2, "waiter", "AEX", ""),
            (2, "hw", "WRITE", "waiter.ssa.marker=0"),
            (2, "hw", "WRITE", "waiter.ssa.rip='interrupted@2'"),
            (4, "installer", "WRITE", "waiter.ssa.rip=<eresume-handler>"),
            (10, "waiter", "ERESUME", "handler"),
            (14, "waiter", "WRITE", "waiter.ssa.marker=12345"),
            (20, "installer", "WRITE", "flag=1"),
            (20, "waiter", "WAIT_END", ""),
            (20, "installer", "DONE", ""),
            (22, "waiter", "DONE", ""),
        ]

    def test_zero_cost_handler_completes_at_eresume(self):
        # Op(10) is frozen at 3 with 7 cycles left; the zero-cost handler
        # writes the marker at the resume cycle 8, then the Op runs 8..15
        kern = SimKernel()
        w = kern.add_enclave_actor("worker")
        handler = EresumeHandler(WriteCell(w.ssa.marker, MARKER_VALUE, cost=0))

        def program():
            yield Op(10)
            return w.ssa.marker.value

        def installer():
            yield Op(4)
            yield WriteCell(w.ssa.rip, handler, cost=1)

        w.set_program(program())
        kern.add_enclave_actor("timer").set_program(installer())
        trace = kern.run([ScheduleEvent("worker", 3, 8)], 1000, full_trace=True)
        assert trace.results["worker"] == MARKER_VALUE
        assert trace.resident["worker"] == 10
        assert trace.final_cycle == 15
        assert trace.events == [
            (0, "worker", "START", ""), (0, "timer", "START", ""),
            (3, "worker", "AEX", ""),
            (3, "hw", "WRITE", "worker.ssa.marker=0"),
            (3, "hw", "WRITE", "worker.ssa.rip='interrupted@3'"),
            (5, "timer", "WRITE", "worker.ssa.rip=<eresume-handler>"),
            (5, "timer", "DONE", ""),
            (8, "worker", "ERESUME", "handler"),
            (8, "worker", "WRITE", "worker.ssa.marker=12345"),
            (15, "worker", "DONE", ""),
        ]

    @pytest.mark.parametrize("make", [lambda: Ticks(3, 0, **tick_cells(Cell("c", 0))),
                                      lambda: WaitUntil(lambda: True)],
                             ids=["Ticks", "WaitUntil"])
    def test_handler_takes_only_costed_work(self, make):
        with pytest.raises(KernelError):
            EresumeHandler(make())


class TestTransactions:
    """A Ticks period, the one transaction the kernel opens: "watch the
    cell, tick, count, commit"."""

    @staticmethod
    def _tx_kernel():
        """A kernel with the actor "txer", the cells of a Ticks instruction
        whose watched cell holds the marker, and a program that runs the
        instruction with a given tick length."""
        kern = SimKernel()
        t = kern.add_enclave_actor("txer")
        cells = tick_cells(Cell("watched", MARKER_VALUE))

        def program(tau):
            yield Ticks(tau, 0, **cells)

        return kern, t, cells, program

    @staticmethod
    def stopper(kern, cells, at):
        """An actor that clears ``proc`` at cycle ``at``, so that the next
        period start ends the Ticks instruction."""
        def program():
            yield Op(at)
            yield WriteCell(cells["proc"], 0)

        kern.add_enclave_actor("stopper").set_program(program())

    def test_foreign_write_aborts_and_rolls_back(self):
        kern, t, cells, program = self._tx_kernel()
        other = kern.add_enclave_actor("other")

        def interfere():
            yield Op(10)
            yield WriteCell(cells["proc"], 0)
            yield WriteCell(cells["watch"], 99, cost=1)

        t.set_program(program(50))
        other.set_program(interfere())
        trace = kern.run([], 1000, full_trace=True)
        assert tick_aborts(trace, "txer") == ["conflict"]
        assert cells["counter"].value == 0  # the aborted tick never counted
        # the abort at cycle 11 refunds the 39 cycles of the tick it cut off
        assert trace.resident == {"txer": 11, "other": 11}

    def test_own_aex_aborts(self):
        kern, t, cells, program = self._tx_kernel()
        self.stopper(kern, cells, 15)
        t.set_program(program(50))
        trace = kern.run([ScheduleEvent("txer", 10, 20)], 1000, full_trace=True)
        assert tick_aborts(trace, "txer") == ["interrupt"]
        assert cells["counter"].value == 0

    def test_actor_without_a_program_is_a_kernel_fault(self):
        kern, t, cells, program = self._tx_kernel()
        kern.add_enclave_actor("idle")
        t.set_program(program(3))
        with pytest.raises(KernelError, match="^actor idle has no program$"):
            kern.run([], 1000)

    @pytest.mark.parametrize("kernel_type, make", [
        (SimKernel, lambda cell: TxBegin((cell,))),
        (SimKernel, lambda cell: ReadCell(cell)),
        (reference_kernel.SimKernel, lambda cell: Ticks(3, 2, **tick_cells(cell))),
    ], ids=["TxBegin", "ReadCell", "Ticks-on-reference"])
    def test_unknown_instruction_kind_is_a_kernel_fault(self, kernel_type, make):
        # the reference kernel's program-level transactions and reads have
        # kinds this kernel does not define, and the kernel's Ticks has one
        # the reference kernel does not: yielding one is a fault, not an
        # OCALL stall
        kern = kernel_type()
        cell = Cell("c", 0)

        def program():
            yield Op(2)
            yield make(cell)

        kern.add_enclave_actor("old").set_program(program())
        with pytest.raises(KernelError, match=r"^old: unknown instruction kind \d+$"):
            kern.run([], 1000)

    def test_interrupt_between_commit_and_next_instruction(self):
        # single-step adversary: AEX lands exactly at the commit boundary
        kern, t, cells, program = self._tx_kernel()
        self.stopper(kern, cells, 15)
        out = Cell("out", 0)

        def then_write():
            yield from program(10)
            yield WriteCell(out, 7, cost=1)

        t.set_program(then_write())
        trace = kern.run([ScheduleEvent("txer", 10, 40)], 1000, full_trace=True)
        events = [(c, k) for (c, a, k, d) in trace.events if k in ("TX_COMMIT", "AEX")]
        assert events == [(10, "TX_COMMIT"), (10, "AEX")]
        assert trace.complete and out.value == 7


class TestWaitAndStall:
    def test_wait_wakes_on_write(self):
        kern = SimKernel()
        a = kern.add_enclave_actor("a")
        b = kern.add_enclave_actor("b")
        flag = Cell("flag", 0)

        def waiter():
            yield WaitUntil(lambda: flag.value == 1)
            yield Op(2)
            return "woke"

        def setter():
            yield Op(9)
            yield WriteCell(flag, 1, cost=1)

        a.set_program(waiter())
        b.set_program(setter())
        trace = kern.run([], 1000)
        assert trace.results["a"] == "woke"
        # waiting costs no residency: only the 2 cycles of work
        assert trace.resident["a"] == 2
        assert trace.final_cycle == 12

    def test_wait_is_evaluated_only_after_a_committed_write(self):
        # "re-evaluated after every committed write and after every ERESUME":
        # the other actor's 50 costed steps commit nothing, so the predicate
        # is evaluated when the wait begins and once more after the write
        kern = SimKernel()
        a = kern.add_enclave_actor("a")
        b = kern.add_enclave_actor("b")
        flag = Cell("flag", 0)
        calls = 0

        def ready():
            nonlocal calls
            calls += 1
            return flag.value == 1

        def waiter():
            yield WaitUntil(ready)
            return "woke"

        def worker():
            for _ in range(50):
                yield Op(1)
            yield WriteCell(flag, 1)

        a.set_program(waiter())
        b.set_program(worker())
        trace = kern.run([], 1000)
        assert trace.results["a"] == "woke"
        assert trace.final_cycle == 50
        assert calls <= 3

    def test_wakeup_survives_interrupt_of_waiter(self):
        kern = SimKernel()
        a = kern.add_enclave_actor("a")
        b = kern.add_enclave_actor("b")
        flag = Cell("flag", 0)

        def waiter():
            yield WaitUntil(lambda: flag.value == 1)
            return "woke"

        def setter():
            yield Op(5)
            yield WriteCell(flag, 1, cost=1)

        a.set_program(waiter())
        b.set_program(setter())
        # waiter interrupted across the write; wake re-evaluated at resume
        trace = kern.run([ScheduleEvent("a", 2, 50)], 1000)
        assert trace.results["a"] == "woke"
        assert trace.complete

    def test_stall_counts_as_occupied_and_skips_aex(self):
        kern = SimKernel()
        a = kern.add_enclave_actor("a")

        def program():
            yield Op(10)
            yield HostStall(30)
            yield Op(5)

        a.set_program(program())
        trace = kern.run([ScheduleEvent("a", 20, 25)], 1000)
        assert [e for e in trace.events if e[2] == "AEX_SKIPPED"]
        assert trace.resident["a"] == 45

    @pytest.mark.parametrize("make", [
        lambda cell: Op(-1),
        lambda cell: WriteCell(cell, 1, cost=-1),
        lambda cell: TestAndSet(cell, cost=-1),
        lambda cell: HostStall(-1),
    ], ids=["Op", "WriteCell", "TestAndSet", "HostStall"])
    def test_negative_cost_rejected(self, make):
        with pytest.raises(KernelError):
            make(Cell("c", 0))

    def test_zero_length_stall_rejected(self):
        with pytest.raises(KernelError, match="at least one cycle"):
            HostStall(0)

    def test_test_and_set_is_atomic(self):
        kern = SimKernel()
        a = kern.add_enclave_actor("a")
        b = kern.add_enclave_actor("b")
        lock = Cell("lock", 0)
        winners = []

        def contender(name):
            prior = yield TestAndSet(lock, cost=1)
            if prior == 0:
                winners.append(name)
            return prior

        a.set_program(contender("a"))
        b.set_program(contender("b"))
        trace = kern.run([], 1000)
        assert winners == ["a"]  # deterministic: registration order
        assert trace.results["b"] == 1


class TestZeroCostBudget:
    @pytest.mark.parametrize("make", [
        lambda cell: WriteCell(cell, 1),
        lambda cell: Op(0),
        lambda cell: TestAndSet(cell, cost=0),
    ], ids=["WriteCell", "Op", "TestAndSet"])
    def test_zero_cost_loop_is_a_livelock(self, make):
        # time never passes, so the run could never end: the kernel's budget
        # of steps per pump turns it into a kernel fault
        kern = SimKernel()
        cell = Cell("c", 0)

        def program():
            yield Op(3)
            while True:
                yield make(cell)

        kern.add_enclave_actor("spinner").set_program(program())
        with pytest.raises(KernelError, match="^zero-cost livelock "):
            kern.run([], 1000)


class TestScheduleValidation:
    def test_resume_before_interrupt_rejected(self):
        with pytest.raises(ScheduleError):
            validate_schedule([ScheduleEvent("w", 10, 5)])

    def test_unsorted_rejected(self):
        with pytest.raises(ScheduleError):
            validate_schedule(
                [ScheduleEvent("w", 10, 11), ScheduleEvent("w", 3, 4)]
            )

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ScheduleError):
            validate_schedule(
                [ScheduleEvent("w", 1, 10), ScheduleEvent("w", 5, 20)]
            )

    def test_zero_length_interrupt_allowed(self):
        validate_schedule([ScheduleEvent("w", 5, 5)])

    @pytest.mark.parametrize("interrupt_at,resume_at", [(-1, 0), (-5, -3)])
    def test_negative_interrupt_cycle_rejected(self, interrupt_at, resume_at):
        # the clock only moves forward: an interrupt before cycle 0 would
        # log an AEX after later events
        with pytest.raises(ScheduleError, match=f"negative cycle {interrupt_at}"):
            validate_schedule([ScheduleEvent("w", interrupt_at, resume_at)])

    @pytest.mark.parametrize("interrupt_at", [5, 5000], ids=["in-run", "after-run"])
    def test_unknown_actor_rejected(self, interrupt_at):
        # the OS acts only through the schedule, and may interrupt only
        # actors the kernel simulates
        kern = SimKernel()
        kern.add_enclave_actor("worker").set_program(make_worker_program(20))
        with pytest.raises(ScheduleError, match="unknown actor 'os'"):
            kern.run([ScheduleEvent("os", interrupt_at, interrupt_at + 5)], 10_000)


def tick_cells(watch):
    """The cells of a Ticks instruction that watches ``watch``, with a
    recovery that installs a 2-cycle handler restoring it."""
    return dict(watch=watch, counter=Cell("counter", 0), mirror=Cell("mirror", 0), proc=Cell("proc", 1),
                rip=Cell("rip", RIP_NEXT), saved_rip=Cell("saved_rip", None), handler_cost=2)


def spelled_ticks(tau, epsilon, watch, counter, mirror, proc, rip, saved_rip, handler_cost):
    """The Ticks instruction spelled in the primitive instructions of
    ``reference_kernel``, on which it runs: an abort restarts at the next
    period start, and a missing marker is recovered there."""
    install = None
    while True:
        if (yield ReadCell(proc)) != 1:
            return
        try:
            yield TxBegin((watch,))
            if (yield ReadCell(watch)) != MARKER_VALUE:
                yield TxAbort("marker-missing")
            yield Op(tau, label="tick")
            count = yield ReadCell(counter)
            yield WriteCell(counter, count + 1)
            yield TxEnd()
        except TxAborted as abort:
            if abort.cause != "marker-missing":
                continue
            while (yield ReadCell(watch)) != MARKER_VALUE and (yield ReadCell(proc)) == 1:
                found = yield ReadCell(rip)
                if not isinstance(found, EresumeHandler):
                    yield WriteCell(saved_rip, found, cost=1)
                    install = install or WriteCell(
                        rip, EresumeHandler(WriteCell(watch, MARKER_VALUE, cost=handler_cost)), cost=1)
                    yield install
                yield WaitUntil(lambda: watch.value == MARKER_VALUE or proc.value != 1
                                or not isinstance(rip.value, EresumeHandler))
            continue
        yield WriteCell(mirror, count + 1)
        if epsilon:
            yield Op(epsilon, label="checks")


def tick_aborts(trace, actor):
    """The causes of the actor's aborted transactions; only a full trace
    logs them."""
    return [d for (c, a, k, d) in trace.events if a == actor and k == "TX_ABORT"]


class TestTicks:
    @staticmethod
    def run_ticks(spelled, schedule=(), full=True):
        """A ticker (tau=3, epsilon=2) and a watcher that stops it once the
        mirror reaches 4. The ticker's result is its count and the causes of
        its aborts."""
        kern = reference_kernel.SimKernel() if spelled else SimKernel()
        ticker = kern.add_enclave_actor("ticker")
        watcher = kern.add_enclave_actor("watcher")
        cells = tick_cells(Cell("watch", MARKER_VALUE))
        counter, mirror, proc = cells["counter"], cells["mirror"], cells["proc"]

        def ticker_program():
            if spelled:
                yield from spelled_ticks(3, 2, **cells)
            else:
                yield Ticks(3, 2, **cells)
            return counter.value

        def watcher_program():
            yield WaitUntil(lambda: mirror.value >= 4)
            yield WriteCell(proc, 0)
            return kern.now

        ticker.set_program(ticker_program())
        watcher.set_program(watcher_program())
        trace = kern.run(list(schedule), 10_000, full_trace=full)
        trace.results["ticker"] = (trace.results["ticker"], tick_aborts(trace, "ticker"))
        return trace

    def assert_lean_matches_spelled(self, schedule=()):
        """In a lean run the kernel may commit periods in closed form; the
        spelled loop takes them one instruction at a time."""
        ticks = self.run_ticks(spelled=False, schedule=schedule, full=False)
        spelled = self.run_ticks(spelled=True, schedule=schedule, full=False)
        for name in ("results", "resident", "final_cycle", "events"):
            assert getattr(ticks, name) == getattr(spelled, name), name
        return ticks

    def test_waiter_on_the_mirror_wakes_at_its_commit(self):
        # commits at 3, 8, 13, 18: the watcher wakes at the fourth, and the
        # period start after its checks finds proc cleared
        trace = self.run_ticks(spelled=False)
        assert trace.results == {"ticker": (4, []), "watcher": 18}
        assert trace.final_cycle == 20
        assert trace.resident["ticker"] == 20
        assert trace.export_text() == self.run_ticks(spelled=True).export_text()
        lean = self.assert_lean_matches_spelled()
        assert lean.results == trace.results and lean.resident == trace.resident

    @pytest.mark.parametrize("schedule", [
        [ScheduleEvent("ticker", 10, 12)],
        [ScheduleEvent("ticker", 4, 4), ScheduleEvent("ticker", 11, 11), ScheduleEvent("ticker", 16, 19)],
    ])
    def test_interrupts_match_the_spelled_loop(self, schedule):
        ticks = self.run_ticks(spelled=False, schedule=schedule)
        spelled = self.run_ticks(spelled=True, schedule=schedule)
        assert ticks.results["ticker"][0] == 4
        assert "interrupt" in ticks.results["ticker"][1]
        assert ticks.export_text() == spelled.export_text()
        assert ticks.results == spelled.results
        lean = self.assert_lean_matches_spelled(schedule)
        assert lean.events == [e for e in ticks.events if e[2] in ("AEX", "AEX_SKIPPED", "ERESUME")]

    @staticmethod
    def run_recovery(spelled, schedule, full, limit=10_000, waiter=False):
        """A ticker (tau=4, epsilon=1) watching a worker's SSA marker, whose
        recovery installs the handler into the worker's rip, and a worker
        that sets its marker, runs 60 one-cycle steps and then stops the
        ticker; with ``waiter``, a third actor waits for the handler to land
        in the worker's rip and returns the cycle it woke at."""
        kern = reference_kernel.SimKernel() if spelled else SimKernel()
        worker = kern.add_enclave_actor("worker")
        ticker = kern.add_enclave_actor("ticker")
        cells = tick_cells(worker.ssa.marker)
        cells["rip"] = worker.ssa.rip
        if waiter:
            def waiter_program():
                yield WaitUntil(lambda: isinstance(worker.ssa.rip.value, EresumeHandler))
                return kern.now

            kern.add_enclave_actor("waiter").set_program(waiter_program())

        def ticker_program():
            if spelled:
                yield from spelled_ticks(4, 1, **cells)
            else:
                yield Ticks(4, 1, **cells)
            return cells["counter"].value, cells["saved_rip"].value

        def worker_program():
            yield WriteCell(worker.ssa.marker, MARKER_VALUE)
            for _ in range(60):
                yield Op(1)
            yield WriteCell(cells["proc"], 0)

        worker.set_program(worker_program())
        ticker.set_program(ticker_program())
        return kern.run(schedule, limit, full_trace=full)

    @pytest.mark.parametrize("schedule, limit, waiter, saves, aborts", [
        # the worker's AEX at 7 aborts the period and the ticker saves the
        # rip from 7: the full trace logs the save at 8 and the install at 9
        pytest.param([ScheduleEvent("worker", 7, 9)], 10_000, False, [8], {"conflict", "marker-missing"},
                     id="one"),
        # an AEX inside the handler clobbers it, one lands while the ticker
        # saves the rip, and an AEX in the handler's last cycle resumes
        # without it: each clobbered handler is installed again
        pytest.param([ScheduleEvent("worker", 7, 9), ScheduleEvent("worker", 10, 12),
                      ScheduleEvent("worker", 20, 20), ScheduleEvent("ticker", 21, 23),
                      ScheduleEvent("worker", 23, 30), ScheduleEvent("worker", 31, 31)],
                     10_000, False, [8, 11, 21, 32], {"conflict", "marker-missing"}, id="clobbered"),
        # the worker's AEX at 9 lands in the checks, so the period start at
        # 10 finds the marker missing and the save starts at 10: the ticker's
        # own AEX freezes it in its first cycle or in its second
        pytest.param([ScheduleEvent("worker", 9, 30), ScheduleEvent("ticker", 10, 13)], 10_000, False, [14],
                     {"marker-missing"}, id="ticker-aex-as-save-starts"),
        pytest.param([ScheduleEvent("worker", 9, 30), ScheduleEvent("ticker", 11, 13)], 10_000, False, [11],
                     {"marker-missing"}, id="ticker-aex-a-cycle-later"),
        # the two sides of the install race: the worker resumes at 11,
        # before the handler lands at 12, or at 12, when it is in
        pytest.param([ScheduleEvent("worker", 9, 11)], 10_000, False, [11], {"marker-missing"},
                     id="eresume-before-install"),
        pytest.param([ScheduleEvent("worker", 9, 12)], 10_000, False, [11], {"marker-missing"},
                     id="eresume-at-install"),
        # the run ends at 8, between the save and the install
        pytest.param([ScheduleEvent("worker", 7, 9)], 8, False, [8], {"conflict", "marker-missing"},
                     id="limit-between-save-and-install"),
        # an actor waits for the handler while the save commits, and wakes
        # at the install
        pytest.param([ScheduleEvent("worker", 7, 9)], 10_000, True, [8], {"conflict", "marker-missing"},
                     id="waiter"),
    ])
    def test_missing_marker_matches_the_spelled_loop(self, schedule, limit, waiter, saves, aborts):
        # the recovery runs inside the instruction, with the events, cycles
        # and residency of the spelled loop's recovery; a lean run commits
        # the save as the install starts, which no lean output shows
        for full in (True, False):
            ticks = self.run_recovery(False, schedule, full, limit, waiter)
            spelled = self.run_recovery(True, schedule, full, limit, waiter)
            assert ticks.export_text() == spelled.export_text()
            assert ticks.results == spelled.results
        full = self.run_recovery(False, schedule, True, limit, waiter)
        assert [c for (c, a, k, d) in full.events if k == "WRITE" and d.startswith("saved_rip=")] == saves
        assert set(tick_aborts(full, "ticker")) == aborts
        if waiter:
            assert full.results["waiter"] == 9

    def test_ticks_delivers_none_after_a_handler(self):
        # a handler installed into the ticker's own rip while it is
        # interrupted runs at its ERESUME, above the Ticks instruction; the
        # TAS result it leaves never reaches the program
        kern = SimKernel()
        ticker = kern.add_enclave_actor("ticker")
        installer = kern.add_enclave_actor("installer")
        cells = tick_cells(Cell("watch", MARKER_VALUE))
        flag = Cell("flag", 5)

        def ticker_program():
            got = yield Ticks(10, 0, **cells)
            return got

        def installer_program():
            yield Op(7)
            yield WriteCell(ticker.ssa.rip, EresumeHandler(TestAndSet(flag, cost=1)), cost=1)
            yield WriteCell(cells["proc"], 0)

        ticker.set_program(ticker_program())
        installer.set_program(installer_program())
        trace = kern.run([ScheduleEvent("ticker", 5, 20)], 1000)
        assert ("ERESUME", "handler") in [(k, d) for (c, a, k, d) in trace.events]
        assert flag.value == 1
        assert trace.results["ticker"] is None

    def test_tick_shorter_than_a_cycle_rejected(self):
        with pytest.raises(KernelError):
            Ticks(0, 0, **tick_cells(Cell("c", 0)))
        # a negative epsilon or handler cost fails when the instruction is
        # built, not at the first missing marker
        for epsilon, handler_cost in ((-1, 2), (0, -1)):
            cells = dict(tick_cells(Cell("c", 0)), handler_cost=handler_cost)
            with pytest.raises(KernelError, match="negative instruction cost"):
                Ticks(1, epsilon, **cells)


class TestResidentOracleAgreement:
    def test_independent_walker_matches_kernel_accounting(self):
        # second implementation over the event log (derived oracle)
        def walk_resident(trace, actor):
            occupied = False
            since = 0
            total = 0
            interrupted_from_occupied = False
            for cycle, who, kind, _ in trace.events:
                if who != actor:
                    continue
                if kind in ("TX_BEGIN", "TX_COMMIT", "TX_ABORT"):
                    continue
                if kind == "START":
                    occupied, since = True, cycle
                elif kind in ("WAIT_BEGIN",):
                    if occupied:
                        total += cycle - since
                    occupied = False
                elif kind in ("WAIT_END",):
                    occupied, since = True, cycle
                elif kind == "AEX":
                    if occupied:
                        total += cycle - since
                    interrupted_from_occupied = occupied
                    occupied = False
                elif kind == "ERESUME":
                    if interrupted_from_occupied:
                        occupied, since = True, cycle
                elif kind == "DONE":
                    if occupied:
                        total += cycle - since
                    occupied = False
            return total

        import random

        rnd = random.Random(1234)
        for case in range(50):
            steps = rnd.randrange(5, 60)
            cost = rnd.randrange(1, 5)
            events = []
            at = 0
            for _ in range(rnd.randrange(0, 4)):
                at += rnd.randrange(1, 40)
                events.append(ScheduleEvent("worker", at, at + rnd.randrange(0, 30)))
                at = events[-1].resume_at
            trace = run_single(steps, schedule=events, step_cost=cost, limit=100_000, full=True)
            assert trace.complete, f"case {case} truncated"
            assert walk_resident(trace, "worker") == trace.resident["worker"]

    def test_residency_stored_only_at_start_and_cut(self):
        # every change of an actor's residency goes through SimKernel._start
        # (work put in flight) or SimKernel._cut (work cut off), so a cycle
        # can be attributed at those two sites alone
        tree = ast.parse(Path(kernel.__file__).read_text())

        def stores(node):
            return sum(isinstance(n, ast.Attribute) and n.attr == "resident" and isinstance(n.ctx, ast.Store)
                       for n in ast.walk(node))

        owners = {}
        for top in tree.body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(fn, ast.FunctionDef) and stores(fn):
                    owners[fn.name if fn is top else f"{top.name}.{fn.name}"] = stores(fn)
        assert sum(owners.values()) == stores(tree)
        assert set(owners) == {"Actor.__init__", "SimKernel._start", "SimKernel._cut"}
