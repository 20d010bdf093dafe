"""The four benchmark workloads, each a closed loop with one caller.

Every workload owns a corpus of operations generated from the seed with
``random.Random``, so its inputs depend on neither the program's RNG nor
``meterfaas.fuzz``. The layers' public functions are called through their
modules (``orchestrator.client_prepare``), where the traced pass wraps them.
``setup()`` builds what the operations need and is the part timed as
``setup_s``. ``op(state, j, rec)`` runs corpus item ``j`` once
and returns an ``OpResult``; only the region between its two clock reads is
host time of the system. Checks run outside that region, record a failure
kind instead of raising, and never stop the loop.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from meterfaas import corpus as corp
from meterfaas import metering, orchestrator
from meterfaas.attest import AttestationRoot, derive_identity
from meterfaas.crypto import hash_bytes
from meterfaas.kde import KeyDistributionEnclave
from meterfaas.kernel import KernelError, ScheduleEvent
from meterfaas.metering import MeterConfig
from meterfaas.orchestrator import BillingPolicy, ClientContext, WorkerPool
from meterfaas.vm import CostTable, FunctionImage, VMLimits, assemble, vm_execute, vm_load

WORD = 1 << 64


@dataclass
class OpResult:
    seconds: float  # host time of the operation itself
    record: bytes  # determinism material; equal inputs must give equal bytes
    failure: str | None  # failure kind, None when every check passed
    vm_cycles: int = 0  # simulated VM cycles (VMResult.cycles) of the operation
    vm_steps: int = 0
    billed_cycles: int = 0  # t_max * tau
    aex_scheduled: int = 0
    aex_fired: int = 0
    aex_skipped: int = 0


def fib_mod(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) % WORD
    return a


# --- invocation workloads ----------------------------------------------------


@dataclass
class Deployment:
    kde: KeyDistributionEnclave
    pool: WorkerPool
    ctx: ClientContext
    dispatched: int = 0


@dataclass
class InvokeItem:
    input: bytes
    token: bytes
    expected_output: bytes
    vm_cycles: int
    vm_steps: int


class InvokeWorkload:
    """client_prepare -> WorkerPool.dispatch -> client_verify_response ->
    provider_verify_measurement, with receipt, measurement and token on every
    request, against a warmed pool of two workers."""

    corpus_size = 0
    setup_per_pass = True
    source = ""
    cfg = MeterConfig(tau=100)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.function = assemble(self.source)
        self.function_hash = hash_bytes(self.function)
        image = vm_load(self.function)
        rng = random.Random(f"perfbench/{type(self).__name__}/{seed}")
        self.items: list[InvokeItem] = []
        for j in range(self.corpus_size):
            data, expected = self.make_input(rng, j)
            ref = vm_execute(image, data, VMLimits(), costs=CostTable())
            token = f"client-{seed}-{j}".encode()
            self.items.append(InvokeItem(data, token, expected, ref.cycles, ref.steps))
        self.tags = {hash_bytes(item.token) for item in self.items}
        self.warm_token = f"warm-{seed}".encode()
        self.tags.add(hash_bytes(self.warm_token))

    def make_input(self, rng: random.Random, j: int) -> tuple[bytes, bytes]:
        raise NotImplementedError

    def warm_input(self) -> bytes:
        """The same for every seed, so that set-up cost does not depend on it."""
        raise NotImplementedError

    def setup(self) -> Deployment:
        seed = self.seed
        root = AttestationRoot(seed=f"perfbench-root-{seed}".encode())
        kde_id = derive_identity(b"perfbench-kde", b"perfbench")
        worker_id = derive_identity(b"perfbench-worker", b"perfbench")
        kde = KeyDistributionEnclave(root, kde_id, seed=seed, worker_identity=worker_id.mrenclave)
        pool = WorkerPool(kde, worker_id, size=2, meter_cfg=self.cfg, seed=seed)
        ctx = ClientContext.create(root.public_key, kde.published, kde_id.mrenclave,
                                   worker_id.mrenclave, seed=seed)
        dep = Deployment(kde, pool, ctx)
        # warm-up: the cold start (key fetch, sealing, function load) is set-up
        self._invoke(dep, self.warm_input(), self.warm_token)
        return dep

    def _invoke(self, dep: Deployment, data: bytes, token: bytes):
        request, pending = orchestrator.client_prepare(
            dep.ctx, self.function_hash, data, receipt=True, want_measurement=True, token=token)
        dispatched = dep.pool.dispatch(request, self.function)
        dep.dispatched += 1
        result = orchestrator.client_verify_response(pending, dispatched.response)
        orchestrator.provider_verify_measurement(result.measurement, dep.kde.published, self.tags)
        return dispatched, result

    def op(self, dep: Deployment, j: int, rec=None, observed=None) -> OpResult:
        item = self.items[j]
        root = rec.open("bench.op") if rec is not None else -1
        t0 = time.perf_counter()
        try:
            dispatched, result = self._invoke(dep, item.input, item.token)
            error = None
        except Exception as exc:  # counted as a failed operation, never raised
            error = f"error:{type(exc).__name__}"
        seconds = time.perf_counter() - t0
        if rec is not None:
            rec.close(root)
        if error is not None:
            return OpResult(seconds, error.encode(), error)
        measurement = result.measurement
        encoded = measurement.encode()
        failure = None
        if result.output != item.expected_output:
            failure = "wrong-output"
        elif result.receipt is None:
            failure = "missing-receipt"
        elif encoded != dispatched.measurement.encode():
            failure = "measurement-mismatch"
        elif observed is not None and observed.outcome is not None:
            failure = check_outcome(observed.outcome, item.vm_cycles, item.vm_steps)
        return OpResult(seconds, encoded, failure, item.vm_cycles, item.vm_steps,
                        measurement.t_max * measurement.tau)

    def vm_jobs(self, dep: Deployment):
        image = vm_load(self.function)
        return [(image, item.input, VMLimits(), CostTable()) for item in self.items]

    def finish(self, dep: Deployment) -> str | None:
        """Settle every collected report; the invoice must count each one."""
        invoice = orchestrator.compute_invoice(dep.pool.collected, BillingPolicy(
            per_invocation="0.0000002", per_ghz_second="0.00001",
            per_gb_second="0.0000166667", per_gb_network="0.12"))
        if invoice.invocations != dep.dispatched or len(invoice.report_digests) != dep.dispatched:
            return "invoice-count"
        return None


def check_outcome(outcome, vm_cycles: int, vm_steps: int) -> str | None:
    """Checks that need the metered run's trace, visible only when traced."""
    if outcome.t_max * outcome.tau > outcome.trace.resident["worker"]:
        return "lower-bound"
    if outcome.vm_result.cycles != vm_cycles or outcome.vm_result.steps != vm_steps:
        return "vm-mismatch"
    return None


class InvokeEcho(InvokeWorkload):
    corpus_size = 300
    source = corp.ECHO_WORD_SOURCE
    cfg = MeterConfig(tau=100)

    def make_input(self, rng, j):
        data = corp.words(rng.randrange(WORD))
        return data, data

    def warm_input(self):
        return corp.words(0)


class InvokeFib(InvokeWorkload):
    corpus_size = 50
    source = corp.FIB_SOURCE
    cfg = MeterConfig(tau=100)
    n_range = (50, 150)

    def make_input(self, rng, j):
        # a stratified uniform draw: item j lies in the j-th of corpus_size
        # equal slices of the range, so every seed's corpus has the same mix
        lo, hi = self.n_range
        n = lo + (j * (hi - lo + 1) + rng.randrange(hi - lo + 1)) // self.corpus_size
        return corp.fib_input(n), corp.words(fib_mod(n))

    def warm_input(self):
        return corp.fib_input(self.n_range[0])


class InvokeFibTau1(InvokeFib):
    cfg = MeterConfig(tau=1, epsilon=0)
    n_range = (10, 40)


# --- adversarial schedules ---------------------------------------------------

ADV_LIMITS = VMLimits(max_steps=4000)


@dataclass
class Case:
    source: str
    image: FunctionImage
    input: bytes
    cfg: MeterConfig
    costs: CostTable
    family: str
    schedule: list[ScheduleEvent]
    limit: int
    dry_cycles: int
    ref_status: str
    ref_output: bytes
    ref_cycles: int
    ref_steps: int
    key: bytes = field(default=b"")


def random_source(rng: random.Random, segments: int) -> str:
    """A small valid program: arithmetic, held allocations, frees, counted
    loops and network calls, ending by echoing one input word."""
    lines: list[str] = []
    live: list[int] = []
    for seg in range(segments):
        kind = rng.randrange(10)
        if kind < 4:
            for _ in range(1 + rng.randrange(6)):
                lines += [f"PUSH {rng.randrange(1 << 16)}", f"PUSH {1 + rng.randrange(1 << 16)}",
                          rng.choice(("ADD", "SUB", "MUL")), "POP"]
        elif kind < 6 and len(live) < 10:
            live.append(len(live))
            lines += [f"PUSH {1 + rng.randrange(4096)}", "ALLOC", f"STOREL {live[-1]}"]
        elif kind < 7 and live:
            lines += [f"LOADL {live.pop()}", "FREE"]
        elif kind < 9:
            lines += [f"PUSH {1 + rng.randrange(12)}", "STOREL 15", f"top{seg}: LOADL 15",
                      f"JZ end{seg}", f"PUSH {rng.randrange(100)}", "POP", "LOADL 15", "PUSH 1",
                      "SUB", "STOREL 15", f"JMP top{seg}", f"end{seg}: PUSH 0", "POP"]
        else:
            lines += [f"PUSH {rng.randrange(2048)}", rng.choice(("NET_SEND", "NET_RECV"))]
    for slot in live[::2]:
        lines += [f"LOADL {slot}", "FREE"]
    lines += ["PUSH 0", "INPUT_WORD", "OUTPUT_WORD", "HALT"]
    return "\n".join(lines)


TAUS = (1, 2, 5, 10, 33, 100, 630)
EPSILONS = (0, 0, 5, 30)
DEFAULT_COSTS = (1, 2, 3)
SEGMENTS = (1, 2, 3, 4, 5, 6)


def strata(index: int) -> tuple[int, int, int, int]:
    """(tau, epsilon, default instruction cost, segment count) of case
    ``index``. They cycle with the index so that every corpus has the same
    mix of them: together they set how many ticks and cycles a case
    simulates, which is most of its host time and of its spread."""
    tau = TAUS[index % len(TAUS)]
    index //= len(TAUS)
    epsilon = EPSILONS[index % len(EPSILONS)]
    index //= len(EPSILONS)
    default = DEFAULT_COSTS[index % len(DEFAULT_COSTS)]
    index //= len(DEFAULT_COSTS)
    return tau, epsilon, default, SEGMENTS[index % len(SEGMENTS)]


def random_config(rng: random.Random, tau: int, epsilon: int,
                  default: int) -> tuple[MeterConfig, CostTable]:
    cfg = MeterConfig(
        tau=tau,
        epsilon=epsilon,
        handler_cost=1 + rng.randrange(12),
        net_delay=rng.choice((0, 0, 0, 17, 200)),
        gate_worker_on_timer=rng.randrange(4) != 0,
    )
    costs = CostTable(default=default, heap=1 + rng.randrange(15), net=1 + rng.randrange(8))
    return cfg, costs


def window_schedule(rng: random.Random, span: int) -> list[ScheduleEvent]:
    """Up to four non-overlapping windows per actor, placed inside the dry
    run's span so that most of them land while the run is live."""
    events = []
    for actor in ("worker", "timer"):
        at = 0
        for _ in range(rng.randrange(5)):
            at += rng.randrange(max(span // 3, 2))
            if at > span:
                break
            length = rng.randrange(max(span // 4, 2))
            events.append(ScheduleEvent(actor, at, at + length))
            at += length + 1
    return sorted(events, key=lambda e: e.interrupt_at)


def single_step_schedule(rng: random.Random, span: int) -> list[ScheduleEvent]:
    """SGX-Step-style adversary: the worker is interrupted every k cycles over a
    stretch of the run, with windows of 0 to 2 cycles, plus one timer window."""
    k = 1 + rng.randrange(4)
    width = rng.randrange(3)
    at = rng.randrange(max(span // 2, 1))
    events = []
    for _ in range(1 + rng.randrange(48)):
        events.append(ScheduleEvent("worker", at, at + width))
        at += width + k
    t_at = rng.randrange(max(span, 1))
    events.append(ScheduleEvent("timer", t_at, t_at + rng.randrange(max(span // 4, 2))))
    return sorted(events, key=lambda e: e.interrupt_at)


def cycle_limit(cfg: MeterConfig, dry_cycles: int, schedule: list[ScheduleEvent]) -> int:
    """Twice an upper estimate of a completed run's final cycle: the dry run,
    every interrupt window, and per interrupt one handler detour and one
    retried tick. Completed runs stay below the estimate itself."""
    estimate = (dry_cycles + sum(e.resume_at - e.interrupt_at for e in schedule)
                + len(schedule) * (cfg.handler_cost + cfg.tau + cfg.epsilon + 2)
                + 2 * (cfg.tau + cfg.epsilon) + 64)
    return 2 * estimate


def build_case(seed: int, index: int) -> Case:
    """Case ``index`` of the adversarial corpus for ``seed``; pure in both."""
    rng = random.Random(f"perfbench/adversarial/{seed}/{index}")
    tau, epsilon, default, segments = strata(index)
    source = random_source(rng, segments)
    image = vm_load(assemble(source))
    data = corp.words(rng.randrange(1 << 16), rng.randrange(1 << 16))
    cfg, costs = random_config(rng, tau, epsilon, default)
    dry = metering.run_metered(image, data, ADV_LIMITS, cfg, costs=costs)
    span = dry.trace.final_cycle
    family = "single_step" if index % 4 == 3 else "windows"
    schedule = (single_step_schedule if family == "single_step" else window_schedule)(rng, span)
    ref = vm_execute(image, data, ADV_LIMITS, costs=costs)
    case = Case(source, image, data, cfg, costs, family, schedule, cycle_limit(cfg, span, schedule),
                span, ref.status, ref.output, ref.cycles, ref.steps)
    case.key = hashlib.sha256(repr((source, data, cfg, costs, schedule, case.limit, span,
                                    ref.status, ref.output)).encode()).digest()
    return case


class Adversarial:
    """metering.run_metered under seeded interrupt schedules of the worker and
    the timer, with a cycle limit per case derived from its dry run."""

    corpus_size = 1200
    setup_per_pass = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def corpus_key(cases: list[Case]) -> bytes:
        return hashlib.sha256(b"".join(case.key for case in cases)).digest()

    def setup(self) -> list[Case]:
        return [build_case(self.seed, j) for j in range(self.corpus_size)]

    def op(self, cases: list[Case], j: int, rec=None, observed=None) -> OpResult:
        case = cases[j]
        root = rec.open("bench.op") if rec is not None else -1
        t0 = time.perf_counter()
        try:
            out = metering.run_metered(case.image, case.input, ADV_LIMITS, case.cfg,
                                       schedule=case.schedule, costs=case.costs, limit=case.limit)
            error = None
        except RuntimeError as exc:
            error = "truncated" if "truncated" in str(exc) else f"error:{type(exc).__name__}"
        except KernelError as exc:
            error = "deadlocked" if str(exc).startswith("deadlock") else "kernel-error"
        except Exception as exc:  # counted as a failed case, never raised
            error = f"error:{type(exc).__name__}"
        seconds = time.perf_counter() - t0
        if rec is not None:
            rec.close(root)
        scheduled = len(case.schedule)
        if error is not None:
            return OpResult(seconds, f"failed:{error}".encode(), error, aex_scheduled=scheduled)
        vm = out.vm_result
        trace = out.trace
        record = repr((vm.status, vm.output, out.t_max, out.m_int, out.m_max, out.net,
                       sorted(trace.resident.items()), trace.final_cycle)).encode()
        failure = None
        if vm.status != case.ref_status or vm.output != case.ref_output:
            failure = "wrong-output"
        elif out.t_max * out.tau > trace.resident["worker"]:
            failure = "lower-bound"
        kinds = [event[2] for event in trace.events]
        fired, skipped = kinds.count("AEX"), kinds.count("AEX_SKIPPED")
        return OpResult(seconds, record, failure, vm.cycles, vm.steps, out.t_max * out.tau,
                        scheduled, fired, skipped)

    def vm_jobs(self, cases: list[Case]):
        return [(case.image, case.input, ADV_LIMITS, case.costs) for case in cases]

    def finish(self, cases: list[Case]) -> str | None:
        return None


WORKLOADS = {
    "invoke_echo": InvokeEcho,
    "invoke_fib": InvokeFib,
    "invoke_fib_tau1": InvokeFibTau1,
    "adversarial_sched": Adversarial,
}
