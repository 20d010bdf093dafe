"""Resource measurement: lower-bound compute timing, memory integral, network.

The timer runs as a second enclave thread and counts whole ticks of ``tau``
cycles, each inside a transaction watching the worker's SSA marker word. An
interrupt of the worker spills registers over the marker and aborts the tick;
an interrupt of the timer aborts it too. Partially completed ticks are never
counted, which is exactly why the reported time is a strict lower bound of the
worker's residency under any interrupt schedule.

Between transactions the timer mirrors its internal counter into ``t`` (kept
out of the transaction's write set so foreign reads of ``t`` cannot abort a
tick) and spends ``epsilon`` cycles on bookkeeping; shrinking tau therefore
raises the fraction of time lost to bookkeeping and increases under-reporting.
That steady-state loop is one kernel ``Ticks`` instruction, which the kernel
advances in closed form between observable events in a lean run (a full
trace takes it period by period). The instruction also recovers from aborts
and from a missing marker; the timer program handles only OCALL pauses and
the end of the run.

Memory is accounted by instrumented alloc/realloc/free with the update rule:
  dt = t_now - t_mem;  m_int += dt * m_cur;  m_cur += delta;  t_mem = t_now;
  m_max = max(m_max, m_cur)
plus one final integration step when the function terminates. Network bytes
accumulate at OCALL return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import crypto
from .crypto import DIGEST_SIZE, SIGNATURE_SIZE, SigningKeyPair
from .kernel import (
    MARKER_VALUE,
    Cell,
    HostStall,
    Op,
    ScheduleEvent,
    SimKernel,
    SimTrace,
    TestAndSet,
    Ticks,
    WaitUntil,
    WriteCell,
)
from .vm import CostTable, FunctionImage, NetIo, VMLimits, VMResult, execute_steps
from .wire import U64, signed_record, wire_field

MEASUREMENT_DOMAIN = b"meterfaas/measurement/v1|"


class TruncatedRun(RuntimeError):
    """The simulation reached its cycle limit before every actor finished."""


class AccountingFault(Exception):
    """Memory bookkeeping violated: frees exceeding allocations, clock
    regression, or updates after finalization."""


@dataclass(frozen=True)
class MeterConfig:
    """Full metered-run configuration. tau is the tick length in cycles, fixed
    at enclave initialization; epsilon is the inter-transaction bookkeeping
    overhead; the rest are harness choices."""

    tau: int
    epsilon: int = 30
    handler_cost: int = 7  # worker cycles spent inside the ERESUME handler
    net_delay: int = 0  # host-side service time per network OCALL
    gate_worker_on_timer: bool = True
    include_load_time: bool = False
    extra_timers: int = 0

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.handler_cost < 0:
            raise ValueError("handler_cost must be >= 0")
        if self.net_delay < 0:
            raise ValueError("net_delay must be >= 0")
        if self.extra_timers < 0:
            raise ValueError("extra_timers must be >= 0")


class TimerState:
    """Enclave-wide timing cells shared by the worker and timer threads."""

    def __init__(self) -> None:
        self.t = Cell("meter.t", 0)  # public mirror
        self.internal = Cell("meter.internal", 0)
        self.proc = Cell("meter.proc", 0)
        self.mutex = Cell("meter.timer_mutex", 0)
        self.ready = Cell("meter.timer_ready", 0)
        self.started = Cell("meter.run_started", 0)
        self.run_done = Cell("meter.run_done", 0)
        # the saved rip a real ERESUME handler jumps back through (here the
        # kernel's frozen work jumps); nothing reads it, but its cycle delays
        # the handler install, so it is part of the handler-install race:
        # without it 48, not 74, of the adversarial runs at seed 301 end with
        # the marker missing. A full trace writes it in a 1-cycle step before
        # the 1-cycle install; a lean run commits it as a 2-cycle install
        # starts, since it logs no WRITE
        self.original_rip = Cell("meter.original_rip", None)


@dataclass
class MemState:
    m_int: int = 0
    m_max: int = 0
    m_cur: int = 0
    t_mem: int = 0
    finalized: bool = False


def mem_update(mem: MemState, delta_m: int, t_now: int) -> MemState:
    """The per-event memory accounting rule (see module docstring)."""
    if mem.finalized:
        raise AccountingFault("memory state already finalized")
    if mem.m_cur + delta_m < 0:
        raise AccountingFault(f"free of {-delta_m} exceeds live {mem.m_cur}")
    dt = t_now - mem.t_mem
    mem.m_int += dt * mem.m_cur
    mem.m_cur += delta_m
    mem.t_mem = t_now
    if mem.m_cur > mem.m_max:
        mem.m_max = mem.m_cur
    return mem


def mem_finalize(mem: MemState, t_final: int) -> tuple[int, int]:
    """Close the integral at function termination and freeze the state."""
    if mem.finalized:
        raise AccountingFault("memory state already finalized")
    if t_final < mem.t_mem:
        raise AccountingFault(f"clock regression: t_final {t_final} < t_mem {mem.t_mem}")
    mem.m_int += (t_final - mem.t_mem) * mem.m_cur
    mem.t_mem = t_final
    mem.finalized = True
    return mem.m_int, mem.m_max


def timer_program(cfg: MeterConfig, ts: TimerState, worker_ssa):
    """The timing thread. One timer counts at a time (enclave-wide mutex).
    Its steady state is one ``Ticks`` instruction: ticks inside transactions
    watching the worker's SSA marker, which the kernel advances in closed
    form between observable events. The instruction also owns the recovery
    from every abort: a period's transaction aborted by the timer's own
    interrupt or by a write to the marker restarts at the next period start,
    and a missing marker is handled there, by installing the ERESUME handler
    (re-installing if a later spill clobbered it, and saving the rip it
    replaces into ``original_rip``) and waiting for the marker to come back.
    The program takes over only at a period start that finds ``proc``
    cleared: an OCALL pause or the end of the run.

    The program yields only work the kernel must order: costed work,
    writes and waits. It reads ``Cell.value`` directly; a zero-cost READ
    would complete in place with the same value and leave no event. Every
    instruction is built at most once: the steady state's before the first
    yield, and the wait for a held mutex and the wait out of an OCALL pause
    on first use, since a run without a second timer or OCALLs never yields
    them. An instruction carries no run state, so it can be yielded again."""
    ticks = Ticks(cfg.tau, cfg.epsilon, watch=worker_ssa.marker, counter=ts.internal, mirror=ts.t,
                  proc=ts.proc, rip=worker_ssa.rip, saved_rip=ts.original_rip, handler_cost=cfg.handler_cost)
    take_mutex = TestAndSet(ts.mutex, cost=1)
    resumed_or_done = None

    prior = yield take_mutex
    if prior != 0:
        mutex_free = WaitUntil(lambda: ts.mutex.value == 0)
        while prior != 0:
            yield mutex_free
            prior = yield take_mutex
    yield WriteCell(ts.ready, 1)
    yield WaitUntil(lambda: ts.started.value == 1)

    while True:
        # a Ticks instruction whose first period start finds proc cleared
        # completes at once and logs nothing, so the program yields it only
        # when proc is set
        if ts.proc.value == 1:
            yield ticks
        if ts.run_done.value:
            break
        # OCALL pause: wait for the worker to come back, or for the end
        if resumed_or_done is None:
            resumed_or_done = WaitUntil(lambda: ts.proc.value == 1 or ts.run_done.value == 1)
        yield resumed_or_done

    yield WriteCell(ts.mutex, 0)
    return ts.internal.value


def worker_program(
    cfg: MeterConfig,
    ts: TimerState,
    ssa,
    image: FunctionImage,
    input_data: bytes,
    limits: VMLimits,
    costs: CostTable,
    on_mem: Callable[[int], None],
    default_tag: bytes | None,
):
    """The worker thread: metering bracket around the sandboxed function.

    The bracket writes (marker, counter reset, proc) are zero-cost boundary
    effects, so the metered window coincides exactly with the function's
    resident cycles; all real overhead is carried by epsilon and the
    instruction costs. The VM yields one summed cost per block of
    instructions (see ``execute_steps``), and each becomes one ``Op``.

    Around each network OCALL the worker clears ``proc`` and sets it again
    on return: the timer completes its current tick, then stops counting.
    The pause deliberately does not interrupt the timer, so functions cannot
    shave time off by spamming OCALLs. Network bytes are counted at the
    return, right after a zero-cost ``net`` step that completes in place.
    Those instructions and the host stall are built once per program, the
    ``net`` step on the first OCALL.

    Like the timer, the worker yields only work the kernel must order and
    reads ``t`` directly once the function has finished. Returns
    ``(result, t_max, net)``.
    """
    proc_off = WriteCell(ts.proc, 0)
    ocall_stall = HostStall(cfg.net_delay) if cfg.net_delay else None
    proc_on = WriteCell(ts.proc, 1)
    net_step = None
    net = 0
    if cfg.gate_worker_on_timer:
        yield WaitUntil(lambda: ts.ready.value == 1)
    yield WriteCell(ssa.marker, MARKER_VALUE)
    yield WriteCell(ts.internal, 0)
    yield WriteCell(ts.t, 0)
    yield proc_on
    yield WriteCell(ts.started, 1)
    if cfg.include_load_time:
        yield Op(len(image.program), label="load")

    vm = execute_steps(image, input_data, limits, on_mem, costs, default_tag)
    result: VMResult | None = None
    try:
        item = next(vm)
        while True:
            if isinstance(item, NetIo):
                yield Op(item.cost, label="vm")
                yield proc_off
                if ocall_stall is not None:
                    yield ocall_stall
                yield proc_on
                if net_step is None:
                    net_step = Op(0, label="net")
                yield net_step
                net += item.sent + item.received
            else:
                yield Op(item, label="vm")
            item = vm.send(None)
    except StopIteration as stop:
        result = stop.value

    yield proc_off
    t_max = ts.t.value
    yield WriteCell(ts.run_done, 1)
    return result, t_max, net


@dataclass
class MeteredOutcome:
    """Everything one metered invocation produced, plus its ground truth."""

    vm_result: VMResult
    t_max: int
    tau: int
    m_int: int
    m_max: int
    net: int
    trace: SimTrace

    @property
    def m_avg(self) -> int:
        return self.m_int // self.t_max if self.t_max > 0 else 0


def run_metered(
    image: FunctionImage,
    input_data: bytes,
    limits: VMLimits,
    cfg: MeterConfig,
    schedule: list[ScheduleEvent] | tuple = (),
    costs: CostTable | None = None,
    limit: int = 10_000_000,
    full_trace: bool = False,
    default_tag: bytes | None = None,
) -> MeteredOutcome:
    """Simulate one invocation: timer thread plus metered worker thread."""
    costs = costs or CostTable()
    kern = SimKernel()
    ts = TimerState()
    # the timer registers first so its commits and mirror copies settle before
    # the worker's same-cycle reads (window-boundary exactness)
    timer = kern.add_enclave_actor("timer")
    worker = kern.add_enclave_actor("worker")
    extras = [kern.add_enclave_actor(f"timer{i + 2}") for i in range(cfg.extra_timers)]

    mem = MemState()

    def on_mem(delta: int) -> None:
        # ticks from the unsynchronized public mirror: reading it never aborts a tick
        mem_update(mem, delta, ts.t.value)

    timer.set_program(timer_program(cfg, ts, worker.ssa))
    worker.set_program(
        worker_program(
            cfg, ts, worker.ssa, image, input_data, limits, costs, on_mem, default_tag
        )
    )
    for extra in extras:
        extra.set_program(timer_program(cfg, ts, worker.ssa))

    trace = kern.run(list(schedule), limit, full_trace=full_trace)
    if not trace.complete:
        raise TruncatedRun(f"simulation truncated at cycle limit {limit}")
    vm_result, t_max, net = trace.results["worker"]
    m_int, m_max = mem_finalize(mem, t_max)
    return MeteredOutcome(
        vm_result=vm_result,
        t_max=t_max,
        tau=cfg.tau,
        m_int=m_int,
        m_max=m_max,
        net=net,
        trace=trace,
    )


@signed_record(MEASUREMENT_DOMAIN, "signature", body_var=True)
@dataclass(frozen=True)
class SignedMeasurement:
    """The signed per-invocation resource report."""

    t_max: int = wire_field(U64)
    tau: int = wire_field(U64)
    m_int: int = wire_field(U64)
    m_max: int = wire_field(U64)
    m_avg: int = wire_field(U64)
    net: int = wire_field(U64)
    tag: bytes = wire_field(DIGEST_SIZE)
    keyset_id: bytes = wire_field(DIGEST_SIZE)
    signature: bytes = wire_field(SIGNATURE_SIZE)

    def digest(self) -> bytes:
        return crypto.hash_bytes(self.encode())


def build_signed_measurement(
    outcome: MeteredOutcome | None,
    tag: bytes,
    keyset_id: bytes,
    k_res: SigningKeyPair,
    tau: int | None = None,
) -> SignedMeasurement:
    """Assemble and sign the report. tau always travels with the report so the
    verifier can convert ticks to cycles; m_avg uses integer truncation.

    With no outcome (a run aborted before its first sandbox instruction) the
    report claims zero consumption at the given ``tau``.
    """
    if outcome is None:
        usage = dict(t_max=0, tau=tau, m_int=0, m_max=0, m_avg=0, net=0)
    else:
        usage = dict(t_max=outcome.t_max, tau=outcome.tau, m_int=outcome.m_int,
                     m_max=outcome.m_max, m_avg=outcome.m_avg, net=outcome.net)
    return SignedMeasurement.sign(k_res, **usage, tag=tag, keyset_id=keyset_id)
