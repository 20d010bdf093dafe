"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Criterion 1 is the heavyweight one (10,000 randomized runs); the
whole module stays well inside the five-minute budget.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from meterfaas import corpus as corp
from meterfaas.attest import AttestationError, AttestationRoot, derive_identity
from meterfaas.crypto import AgreementKeyPair, DeterministicRng, TamperError, hash_bytes
from meterfaas.experiments import fib_memory, fib_timing, network
from meterfaas.fuzz import run_lowerbound_fuzz
from meterfaas.kde import KeyDistributionEnclave, seal, unseal
from meterfaas.kernel import ScheduleEvent
from meterfaas.metering import (
    MemState,
    MeterConfig,
    SignedMeasurement,
    mem_finalize,
    mem_update,
    run_metered,
)
from meterfaas.orchestrator import (
    BillingPolicy,
    ClientContext,
    ReplayError,
    VerificationError,
    WorkerPool,
    client_prepare,
    client_verify_response,
    compute_invoice,
    provider_verify_measurement,
)
from meterfaas.vm import VMLimits, assemble, vm_load
from meterfaas.worker import WorkerEnclave

LIMITS = VMLimits()
IMAGES = corp.corpus()


def verdict(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def rsquared(xs, ys, degree: int) -> float:
    """Coefficient of determination for a least-squares polynomial fit."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(x, y, degree)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def test_criterion_1_lower_bound_fuzz():
    started = time.monotonic()
    summary = run_lowerbound_fuzz(cases=10_000, seed=20240)
    elapsed = time.monotonic() - started
    assert not summary.violations, f"violations in cases {[v.seed_index for v in summary.violations[:5]]}"
    assert not summary.unconserved, f"cycles not conserved in cases {[v.seed_index for v in summary.unconserved[:5]]}"
    assert elapsed < 300, f"fuzz took {elapsed:.0f}s, budget is 5 minutes"
    verdict(1, f"10,000 randomized (program, schedule) pairs, 0 violations of "
               f"t_max*tau <= resident cycles, worker residency == VM + handler + stall "
               f"cycles in every case, in {elapsed:.1f}s")


def test_criterion_2_exactness_baseline():
    cases = [
        ("fib", corp.fib_input(150)),
        ("known_network", corp.known_network_input(96, 32)),
        ("empty", b""),
        ("alloc_churn", corp.alloc_churn_input(4096)),
    ]
    checked = 0
    for name, inp in cases:
        for tau in (1, 10, 100, 1000):
            out = run_metered(IMAGES[name], inp, LIMITS, MeterConfig(tau=tau, epsilon=0))
            oracle = out.trace.resident["worker"]
            assert out.t_max == oracle // tau, (name, tau, out.t_max, oracle)
            checked += 1
    verdict(2, f"empty schedule, epsilon=0: t_max == floor(oracle/tau) exactly in all "
               f"{checked} corpus x tau cases")


def test_criterion_3_memory_oracle_equivalence():
    def per_tick_oracle(events, t_final):
        total = level = 0
        j = 0
        ordered = sorted(events, key=lambda e: e[0])
        for k in range(t_final):
            while j < len(ordered) and ordered[j][0] <= k:
                level += ordered[j][1]
                j += 1
            total += level
        return total

    rng = DeterministicRng(33, "alg1")
    for case in range(1000):
        events = []
        t = level = peak = 0
        for _ in range(1 + rng.randrange(25)):
            t += rng.randrange(400)
            if level > 0 and rng.randrange(2):
                delta = -(1 + rng.randrange(level))
            else:
                delta = rng.randrange(3000)
            level += delta
            peak = max(peak, level)
            events.append((t, delta))
        t_final = t + rng.randrange(400)
        exact = per_tick_oracle(events, t_final)

        mem1 = MemState()
        for cyc, d in events:
            mem_update(mem1, d, cyc)
        m_int1, m_max1 = mem_finalize(mem1, t_final)
        assert m_int1 == exact, f"case {case}: tau=1 not exact"
        assert m_max1 == peak

        for tau in (10, 100):
            mem = MemState()
            for cyc, d in events:
                mem_update(mem, d, cyc // tau)
            m_int, m_max = mem_finalize(mem, t_final // tau)
            assert m_max == peak, f"case {case}: m_max not exact at tau={tau}"
            bound = m_max1 * (len(events) + 1) * tau
            assert abs(m_int * tau - exact) <= bound, f"case {case}: tau={tau} out of bound"
    verdict(3, "1,000 random alloc/free traces: m_int exact at tau=1, within "
               "m_max*(events+1) ticks at tau in {10,100}, m_max always exact")


def test_criterion_4_fib_timing_linear():
    result = fib_timing(ns=range(500, 5001, 500), tau=100)
    r2 = rsquared(result.column("n"), result.column("t_max"), 1)
    assert r2 >= 0.99, f"linear fit R^2 {r2}"
    for row in result.rows:
        small_cycles, oracle = row[5], row[3]
        assert small_cycles < oracle, "small-tau run must sit strictly below the oracle"
    verdict(4, f"fib timing linear in n with R^2 = {r2:.6f}; tau=630/epsilon=63 run "
               f"strictly below the oracle at every n")


def test_criterion_5_fib_memory_quadratic():
    result = fib_memory(ns=range(500, 5001, 500), tau=100)
    r2_quad = rsquared(result.column("n"), result.column("m_int"), 2)
    r2_avg = rsquared(result.column("n"), result.column("m_avg"), 1)
    assert r2_quad >= 0.99, f"quadratic fit R^2 {r2_quad}"
    assert r2_avg >= 0.99, f"m_int/t_max linear fit R^2 {r2_avg}"
    verdict(5, f"fib memory integral quadratic in n (R^2 = {r2_quad:.6f}); "
               f"m_int/t_max linear (R^2 = {r2_avg:.6f})")


def test_criterion_6_network_exactness():
    result = network(cases=100, seed=606)
    for sent, received, metered, expected in result.rows:
        assert metered == expected == sent + received
    verdict(6, "known_network reports net = sent + received exactly for 100 random pairs")


class _Deployment:
    def __init__(self, seed=70):
        self.root = AttestationRoot(seed=seed)
        self.kde_identity = derive_identity(b"kde", b"p")
        self.worker_identity = derive_identity(b"worker", b"p")
        self.kde = KeyDistributionEnclave(
            self.root, self.kde_identity, seed=seed, worker_identity=self.worker_identity.mrenclave
        )
        self.cfg = MeterConfig(tau=10, epsilon=0)
        self.pool = WorkerPool(self.kde, self.worker_identity, size=2, meter_cfg=self.cfg, seed=seed)
        self.fib = assemble(corp.FIB_SOURCE)

    def client(self, seed=1):
        return ClientContext.create(
            self.root.public_key, self.kde.published,
            self.kde_identity.mrenclave, self.worker_identity.mrenclave, seed=seed,
        )


def test_criterion_7_security_scenarios():
    from meterfaas.worker import EncryptedRequest, WorkerError

    dep = _Deployment()
    ctx = dep.client()
    passed = []

    # (a) input tamper: no execution, no measurement
    worker = WorkerEnclave(dep.worker_identity, b"solo", dep.root, dep.cfg, seed=4)
    worker.ecall_setup(dep.kde)
    worker.ecall_init(dep.fib)
    request, _ = client_prepare(ctx, hash_bytes(dep.fib), corp.fib_input(10))
    broken = bytearray(request.ciphertext)
    broken[4] ^= 2
    with pytest.raises(TamperError):
        worker.ecall_run(EncryptedRequest(request.client_pub, request.aead_nonce, bytes(broken)))
    assert worker.pending is None and worker.last_outcome is None
    with pytest.raises(WorkerError):
        worker.ecall_finish()
    passed.append("input-tamper")

    # (b) wrong function hash: abort pre-execution, zero VM instructions
    other_hash = hash_bytes(assemble(corp.EMPTY_SOURCE))
    request, _ = client_prepare(ctx, other_hash, corp.fib_input(10))
    assert worker.ecall_run(request) == 0
    assert worker.last_outcome is None
    _, measurement = worker.ecall_finish()
    assert measurement.t_max == 0
    passed.append("wrong-function")

    # (c) response replay: nonce rejection
    req1, pen1 = client_prepare(ctx, hash_bytes(dep.fib), corp.fib_input(11))
    old = dep.pool.dispatch(req1, dep.fib)
    client_verify_response(pen1, old.response)
    req2, pen2 = client_prepare(ctx, hash_bytes(dep.fib), corp.fib_input(12))
    dep.pool.dispatch(req2, dep.fib)
    with pytest.raises(ReplayError):
        client_verify_response(pen2, old.response)
    passed.append("response-replay")

    # (d) forged measurement: provider rejection
    genuine = old.measurement
    forged = SignedMeasurement(
        t_max=genuine.t_max * 1000, tau=genuine.tau, m_int=genuine.m_int, m_max=genuine.m_max,
        m_avg=genuine.m_avg, net=genuine.net, tag=genuine.tag, keyset_id=genuine.keyset_id,
        signature=DeterministicRng(1, "forge").bytes(64),
    )
    with pytest.raises(VerificationError) as ei:
        provider_verify_measurement(forged, dep.kde.published, {genuine.tag})
    assert ei.value.reason == "forgery"
    passed.append("forged-measurement")

    # (e) unknown tag: spurious invocation rejection
    req3, _ = client_prepare(ctx, hash_bytes(dep.fib), corp.fib_input(13), token=b"not-authorized")
    spurious = dep.pool.dispatch(req3, dep.fib)
    with pytest.raises(VerificationError) as ei:
        provider_verify_measurement(
            spurious.measurement, dep.kde.published, {hash_bytes(b"the-real-token")}
        )
    assert ei.value.reason == "spurious-invocation"
    passed.append("unknown-tag")

    # (f) substituted public key: transitive attestation rejection
    mallory = AgreementKeyPair.generate(DeterministicRng(13, "mallory"))
    from meterfaas.attest import verify_transitive

    with pytest.raises(AttestationError) as ei:
        verify_transitive(
            dep.root.public_key, dep.kde.published.quote, dep.kde_identity.mrenclave,
            mallory.public, dep.kde.published.k_out_pub, dep.kde.published.k_res_pub,
            dep.worker_identity.mrenclave,
        )
    assert ei.value.reason == "key-hash"
    passed.append("substituted-key")

    # (g) sealed keys opened by wrong identity or platform: failure
    blob = seal(b"key material", dep.worker_identity, b"platform-A", DeterministicRng(2, "s"))
    with pytest.raises(TamperError):
        unseal(blob, dep.worker_identity, b"platform-B")
    with pytest.raises(TamperError):
        unseal(blob, derive_identity(b"worker", b"p", parametrization=b"\x01" * 32), b"platform-A")
    passed.append("seal-misuse")

    assert len(passed) == 7
    verdict(7, "all seven adversarial scenarios rejected on distinct paths: " + ", ".join(passed))


def test_criterion_8_double_interrupt_corner():
    cfg = MeterConfig(tau=10, epsilon=0)
    timer_first = [ScheduleEvent("timer", 99, 150), ScheduleEvent("worker", 100, 200)]
    worker_first = [ScheduleEvent("timer", 99, 200), ScheduleEvent("worker", 100, 150)]
    a = run_metered(IMAGES["fib"], corp.fib_input(200), LIMITS, cfg, schedule=timer_first)
    b = run_metered(IMAGES["fib"], corp.fib_input(200), LIMITS, cfg, schedule=worker_first)
    for out, label in ((a, "timer-first"), (b, "worker-first")):
        assert out.t_max * cfg.tau <= out.trace.resident["worker"], label
    assert a.t_max >= b.t_max
    verdict(8, f"both resume orders hold the bound; timer-first counts {a.t_max} ticks "
               f">= worker-first {b.t_max}")


def test_criterion_9_timer_exclusivity():
    one = run_metered(IMAGES["fib"], corp.fib_input(130), LIMITS, MeterConfig(tau=10, epsilon=5))
    two = run_metered(
        IMAGES["fib"], corp.fib_input(130), LIMITS,
        MeterConfig(tau=10, epsilon=5, extra_timers=1),
    )
    assert one.t_max == two.t_max
    verdict(9, f"two timer actors produce t_max = {two.t_max}, identical to the one-timer run "
               f"(enclave-wide mutex admits one counter)")


def test_criterion_10_ocall_neutrality():
    pad = "\n".join(["PUSH 1", "POP"] * 90)
    image = vm_load(assemble(pad + "\nPUSH 64\nNET_SEND\n" + pad + "\nHALT\n"))
    tau = 50
    zero = run_metered(image, b"", LIMITS, MeterConfig(tau=tau, epsilon=0, net_delay=0))
    deltas = []
    for delay_ticks in (1, 2, 5, 10):
        delayed = run_metered(
            image, b"", LIMITS, MeterConfig(tau=tau, epsilon=0, net_delay=delay_ticks * tau)
        )
        deltas.append(abs(delayed.t_max - zero.t_max))
        assert deltas[-1] <= 1, f"delay {delay_ticks} ticks moved t_max by {deltas[-1]}"
    verdict(10, f"one OCALL delayed by 1..10 ticks moves t_max by at most 1 tick "
                f"(observed deltas {deltas})")


def test_criterion_11_billing_determinism():
    dep = _Deployment(seed=71)
    ctx = dep.client(seed=3)
    # a second pool with a different tick length: tau must be honored per-report
    coarse_pool = WorkerPool(
        dep.kde, dep.worker_identity, size=1, meter_cfg=MeterConfig(tau=25, epsilon=0), seed=72
    )
    reports = []
    rng = DeterministicRng(12, "bill-acc")
    for i in range(100):
        n = 5 + rng.randrange(40)
        req, _ = client_prepare(ctx, hash_bytes(dep.fib), corp.fib_input(n), token=b"tok")
        pool = dep.pool if i % 2 == 0 else coarse_pool
        result = pool.dispatch(req, dep.fib)
        provider_verify_measurement(result.measurement, dep.kde.published, {hash_bytes(b"tok")})
        reports.append(result.measurement)
    policy = BillingPolicy(
        per_invocation=Fraction(1, 10**7),
        per_ghz_second=Fraction(1, 10**5),
        per_gb_second=Fraction(167, 10**7),
        per_gb_network=Fraction(12, 100),
        cpu_frequency_assumption=2 * 10**9,
    )
    invoice = compute_invoice(reports, policy)

    # independent re-summation: reversed order, per-metric grouping
    total = policy.per_invocation * len(reports)
    total += policy.per_ghz_second * sum(
        (Fraction(r.t_max * r.tau, 10**9) for r in reversed(reports)), Fraction(0)
    )
    total += policy.per_gb_second * sum(
        (Fraction(r.m_int * r.tau, policy.cpu_frequency_assumption * 10**9) for r in reversed(reports)),
        Fraction(0),
    )
    total += policy.per_gb_network * sum(
        (Fraction(r.net, 10**9) for r in reversed(reports)), Fraction(0)
    )
    assert invoice.total == total
    assert invoice.to_text() == compute_invoice(reports, policy).to_text()
    assert {r.tau for r in reports} == {10, 25}
    verdict(11, f"invoice over 100 verified reports (mixed tau 10 and 25) matches the "
                f"independent re-summation bit-exactly (total {invoice.total})")
