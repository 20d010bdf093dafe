"""Client protocol, worker-pool dispatch, provider checks, and billing."""

import dataclasses
from fractions import Fraction

import pytest

from meterfaas import corpus as corp
from meterfaas import crypto
from meterfaas import worker as worker_module
from meterfaas.attest import AttestationError, AttestationRoot, derive_identity
from meterfaas.crypto import DeterministicRng, TamperError, hash_bytes
from meterfaas.kde import KeyDistributionEnclave
from meterfaas.metering import MeterConfig, SignedMeasurement
from meterfaas.orchestrator import (
    BillingPolicy,
    ClientContext,
    FunctionFailed,
    Invoice,
    MeasurementLog,
    ReplayError,
    VerificationError,
    WorkerPool,
    client_prepare,
    client_verify_response,
    compute_invoice,
    provider_verify_measurement,
)
from meterfaas.vm import LoadError, assemble
from meterfaas.worker import EncryptedResponse

ROOT = AttestationRoot(seed=2)
KDE_IDENT = derive_identity(b"kde", b"p")
WORKER_IDENT = derive_identity(b"worker", b"p")
FIB = assemble(corp.FIB_SOURCE)
CFG = MeterConfig(tau=10, epsilon=0)


class DeliveryShim:
    """Adversarial delivery: drop, duplicate, and reorder messages.

    All payload guarantees live in the messages themselves; this exercises
    replay and loss without touching the protocol code.
    """

    def __init__(self, seed: int = 0, drop: float = 0.0, duplicate: float = 0.0, reorder: bool = False) -> None:
        self._rng = DeterministicRng(seed, "shim")
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder

    def deliver(self, messages: list) -> list:
        out = []
        for m in messages:
            if self._rng.randrange(1000) < int(self.drop * 1000):
                continue
            out.append(m)
            if self._rng.randrange(1000) < int(self.duplicate * 1000):
                out.append(m)
        if self.reorder and len(out) > 1:
            i = self._rng.randrange(len(out))
            j = self._rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        return out


@pytest.fixture
def kde():
    return KeyDistributionEnclave(ROOT, KDE_IDENT, seed=42, worker_identity=WORKER_IDENT.mrenclave)


@pytest.fixture
def pool(kde):
    return WorkerPool(kde, WORKER_IDENT, size=3, meter_cfg=CFG, seed=5)


@pytest.fixture
def logged_pool(kde, tmp_path):
    """`pool`, with every report also appended to a MeasurementLog on disk."""
    return WorkerPool(kde, WORKER_IDENT, size=3, meter_cfg=CFG, seed=5,
                      measurement_log=MeasurementLog(tmp_path / "provider.log"))


@pytest.fixture
def ctx(kde):
    return ClientContext.create(
        ROOT.public_key, kde.published, KDE_IDENT.mrenclave, WORKER_IDENT.mrenclave, seed=11
    )


class TestClientSide:
    def test_context_requires_verification(self, kde):
        with pytest.raises(AttestationError):
            ClientContext.create(
                ROOT.public_key, kde.published,
                derive_identity(b"other", b"p").mrenclave, WORKER_IDENT.mrenclave,
            )

    def test_prepared_request_opens_in_matching_worker(self, kde, pool, ctx):
        request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10))
        result = pool.dispatch(request, FIB)
        out = client_verify_response(pending, result.response)
        assert int.from_bytes(out.output, "little") == 55

    def test_nonces_distinct_over_many_draws(self, ctx):
        seen = set()
        for _ in range(100_000):
            seen.add(ctx._rng.bytes(16))
        assert len(seen) == 100_000

    def test_replayed_response_rejected(self, kde, pool, ctx):
        req1, pen1 = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10))
        res1 = pool.dispatch(req1, FIB)
        client_verify_response(pen1, res1.response)
        # adversarial delivery: the old response duplicated against a new request
        req2, pen2 = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(11))
        pool.dispatch(req2, FIB)
        shim = DeliveryShim(seed=1, duplicate=1.0)
        replayed = shim.deliver([res1.response])[-1]
        with pytest.raises(ReplayError):
            client_verify_response(pen2, replayed)

    def test_response_for_other_client_is_tamper(self, kde, pool, ctx):
        other = ClientContext.create(
            ROOT.public_key, kde.published, KDE_IDENT.mrenclave, WORKER_IDENT.mrenclave, seed=77
        )
        request, _ = client_prepare(other, hash_bytes(FIB), corp.fib_input(10))
        result = pool.dispatch(request, FIB)
        _, mine = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10))
        with pytest.raises(TamperError):
            client_verify_response(mine, result.response)

    def test_corrupted_response_is_tamper(self, kde, pool, ctx):
        request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10))
        result = pool.dispatch(request, FIB)
        broken = bytearray(result.response.ciphertext)
        broken[-1] ^= 0x80
        with pytest.raises(TamperError):
            client_verify_response(
                pending, EncryptedResponse(result.response.aead_nonce, bytes(broken))
            )

    def test_receipt_that_does_not_verify_rejected(self, kde, pool, ctx):
        request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10), receipt=True)
        result = pool.dispatch(request, FIB)
        forged_key = dataclasses.replace(pending, k_out_pub=DeterministicRng(3, "other").bytes(32))
        with pytest.raises(VerificationError) as ei:
            client_verify_response(forged_key, result.response)
        assert ei.value.reason == "receipt"
        assert client_verify_response(pending, result.response).receipt is not None

    def test_function_error_surfaces_reason(self, kde, pool, ctx):
        request, pending = client_prepare(ctx, hash_bytes(FIB), b"")  # traps
        result = pool.dispatch(request, FIB)
        with pytest.raises(FunctionFailed) as ei:
            client_verify_response(pending, result.response)
        assert ei.value.status == 1


class TestPool:
    def test_empty_pool_rejected(self, kde):
        with pytest.raises(ValueError, match="pool size must be >= 1, got 0"):
            WorkerPool(kde, WORKER_IDENT, size=0, meter_cfg=CFG)

    def test_cold_then_warm(self, kde, pool, ctx):
        r1, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        first = pool.dispatch(r1, FIB)
        assert first.cold
        r2, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(6))
        second = pool.dispatch(r2, FIB)
        assert not second.cold
        assert second.worker_index == first.worker_index

    def test_fall_through_function_is_a_load_error(self, kde, logged_pool, ctx):
        pool = logged_pool
        function = assemble("PUSH 1")
        request, _ = client_prepare(ctx, hash_bytes(function), b"")
        with pytest.raises(LoadError, match="neither HALT nor JMP"):
            pool.dispatch(request, function)
        assert list(pool.measurement_log) == []

    def test_rotation_refreshes_workers_before_serving(self, kde, logged_pool, ctx):
        pool = logged_pool
        r1, p1 = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        first = pool.dispatch(r1, FIB)
        client_verify_response(p1, first.response)

        kde.rotate()
        # a client on the old keys now fails: the worker refreshed to new keys
        measured = len(list(pool.measurement_log))
        r_old, p_old = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        with pytest.raises(TamperError):
            result = pool.dispatch(r_old, FIB)
            client_verify_response(p_old, result.response)
        assert len(list(pool.measurement_log)) == measured  # rejected before it was metered

        fresh = ClientContext.create(
            ROOT.public_key, kde.published, KDE_IDENT.mrenclave, WORKER_IDENT.mrenclave, seed=12
        )
        r_new, p_new = client_prepare(fresh, hash_bytes(FIB), corp.fib_input(5))
        result = pool.dispatch(r_new, FIB)
        assert result.worker_index == first.worker_index
        out = client_verify_response(p_new, result.response)
        assert int.from_bytes(out.output, "little") == 5
        assert result.measurement.keyset_id == kde.keyset.keyset_id

    def test_alternating_functions_use_idle_workers(self, kde, ctx):
        echo = assemble(corp.ECHO_WORD_SOURCE)
        calls = [(FIB, corp.fib_input(5)), (echo, corp.words(3))] * 3

        def trace(size):
            pool = WorkerPool(kde, WORKER_IDENT, size=size, meter_cfg=CFG, seed=5)
            out = []
            for fn, data in calls:
                req, _ = client_prepare(ctx, hash_bytes(fn), data)
                result = pool.dispatch(req, fn)
                out.append((result.worker_index, result.cold))
            return out

        # idle workers are provisioned before a warm one is evicted
        assert trace(3) == [(0, True), (1, True), (0, False), (1, False), (0, False), (1, False)]
        # with one worker every switch of function is a cold start
        assert trace(1) == [(0, True)] * 6

    def test_least_recently_used_worker_is_evicted(self, kde, ctx):
        fns = [assemble(f"PUSH {k}\nOUTPUT_WORD\nHALT\n") for k in range(3)]
        pool = WorkerPool(kde, WORKER_IDENT, size=2, meter_cfg=CFG, seed=5)
        served = []
        for fn in (fns[0], fns[1], fns[0], fns[2], fns[0]):
            req, _ = client_prepare(ctx, hash_bytes(fn), b"")
            result = pool.dispatch(req, fn)
            served.append((result.worker_index, result.cold))
        # fns[2] replaces fns[1] on worker 1, the one used less recently
        assert served == [(0, True), (1, True), (0, False), (1, True), (0, False)]

    def test_function_hashed_once_per_warm_dispatch(self, kde, pool, ctx, monkeypatch):
        real = crypto.hash_bytes
        seen = []

        def counting(data):
            if data == FIB:
                seen.append(data)
            return real(data)

        monkeypatch.setattr(crypto, "hash_bytes", counting)
        counts = []
        for n in (5, 6):
            req, _ = client_prepare(ctx, real(FIB), corp.fib_input(n))
            seen.clear()
            pool.dispatch(req, FIB)
            counts.append(len(seen))
        # cold: the load in ecall_init; warm: none, the warm worker is found by its bytes
        assert counts == [1, 0]

    def test_warm_invocation_derives_only_the_worker_session_key(self, kde, pool, ctx, monkeypatch):
        real = crypto.derive_session_key
        calls = []
        monkeypatch.setattr(crypto, "derive_session_key", lambda *a: calls.append(a) or real(*a))
        counts = []
        for n in (5, 6, 7):
            calls.clear()
            req, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(n))
            result = pool.dispatch(req, FIB)
            client_verify_response(pending, result.response)
            provider_verify_measurement(result.measurement, kde.published, {hash_bytes(b"")})
            counts.append(len(calls))
        # the client derived its session key when its context was made; the
        # worker derives one per request, and the cold dispatch adds one on
        # each side of the KDE transport
        assert counts == [3, 1, 1]

    def test_rotation_setup_fetches_without_unsealing(self, kde, monkeypatch):
        # a worker sets up only when its key set is missing or rotated, so a
        # sealed blob it held could never serve; each setup is one KDE fetch
        unseals, fetches = [], []
        real_unseal, real_distribute = worker_module.unseal, kde.distribute
        monkeypatch.setattr(worker_module, "unseal", lambda *a: unseals.append(1) or real_unseal(*a))
        monkeypatch.setattr(kde, "distribute", lambda r: fetches.append(1) or real_distribute(r))
        echo = assemble(corp.ECHO_WORD_SOURCE)
        pool = WorkerPool(kde, WORKER_IDENT, size=2, meter_cfg=CFG, seed=5)
        for epoch in range(3):
            if epoch:
                kde.rotate()
            ctx = ClientContext.create(ROOT.public_key, kde.published, KDE_IDENT.mrenclave,
                                       WORKER_IDENT.mrenclave, seed=epoch)
            for fn, data in ((FIB, corp.fib_input(5)), (echo, corp.words(3))):
                req, pending = client_prepare(ctx, hash_bytes(fn), data)
                client_verify_response(pending, pool.dispatch(req, fn).response)
        assert (len(unseals), len(fetches)) == (0, 6)

    def test_measurement_log_appends(self, kde, ctx, tmp_path):
        log = MeasurementLog(tmp_path / "provider.log")
        pool = WorkerPool(kde, WORKER_IDENT, size=2, meter_cfg=CFG, measurement_log=log)
        for i in range(3):
            req, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5 + i))
            pool.dispatch(req, FIB)
        stored = list(log)
        assert len(stored) == 3
        assert stored[0].keyset_id == kde.keyset.keyset_id


class TestProviderVerification:
    def _run_one(self, kde, pool, ctx, token=b"api-key"):
        req, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(8), token=token)
        return pool.dispatch(req, FIB).measurement

    def test_genuine_report_with_known_tag_accepted(self, kde, pool, ctx):
        report = self._run_one(kde, pool, ctx)
        provider_verify_measurement(report, kde.published, {hash_bytes(b"api-key")})

    def test_fabricated_report_rejected_as_forgery(self, kde, pool, ctx):
        genuine = self._run_one(kde, pool, ctx)
        rng = DeterministicRng(404, "forger")
        forged = SignedMeasurement(
            t_max=10**6, tau=genuine.tau, m_int=10**9, m_max=10**6, m_avg=10**3,
            net=10**9, tag=genuine.tag, keyset_id=genuine.keyset_id,
            signature=rng.bytes(64),
        )
        with pytest.raises(VerificationError) as ei:
            provider_verify_measurement(forged, kde.published, {genuine.tag})
        assert ei.value.reason == "forgery"

    def test_unknown_tag_rejected_as_spurious(self, kde, pool, ctx):
        report = self._run_one(kde, pool, ctx, token=b"stolen-or-made-up")
        with pytest.raises(VerificationError) as ei:
            provider_verify_measurement(report, kde.published, {hash_bytes(b"api-key")})
        assert ei.value.reason == "spurious-invocation"


class TestBilling:
    @staticmethod
    def _report(t_max, tau, m_int, m_max, net, seed=0):
        rng = DeterministicRng(seed, "bill")
        return SignedMeasurement(
            t_max=t_max, tau=tau, m_int=m_int, m_max=m_max,
            m_avg=m_int // t_max if t_max else 0, net=net,
            tag=rng.bytes(32), keyset_id=rng.bytes(32), signature=rng.bytes(64),
        )

    def test_zero_rates_zero_total(self):
        invoice = compute_invoice([self._report(100, 10, 500, 50, 10)], BillingPolicy())
        assert invoice.total == 0
        assert invoice.invocations == 1

    def test_unit_arithmetic_example(self):
        # 1000 ticks of 10^6 cycles at 10^9 Hz is exactly one compute-second
        report = self._report(1000, 10**6, 0, 0, 0)
        policy = BillingPolicy(per_ghz_second=Fraction(1), cpu_frequency_assumption=10**9)
        invoice = compute_invoice([report], policy)
        assert invoice.compute_seconds == 1
        assert invoice.ghz_seconds == 1
        assert invoice.charges["compute"] == 1

    def test_mixed_tau_honored_per_report(self):
        a = self._report(100, 10, 0, 0, 0)  # 1000 cycles
        b = self._report(10, 100, 0, 0, 0)  # 1000 cycles
        invoice = compute_invoice([a, b], BillingPolicy(per_ghz_second=1))
        assert invoice.ghz_seconds == Fraction(2000, 10**9)

    def test_invoice_recomputation_independent_walker(self):
        rng = DeterministicRng(8, "inv")
        reports = [
            self._report(
                rng.randrange(10**6), 1 + rng.randrange(1000),
                rng.randrange(10**9), rng.randrange(10**6), rng.randrange(10**7),
                seed=i,
            )
            for i in range(100)
        ]
        policy = BillingPolicy(
            per_invocation=Fraction(1, 50),
            per_ghz_second=Fraction(7, 10),
            per_gb_second=Fraction(3, 1000),
            per_gb_network=Fraction(12, 100),
            cpu_frequency_assumption=2 * 10**9,
        )
        invoice = compute_invoice(reports, policy)

        # independent re-summation, reversed order, different grouping
        total = Fraction(0)
        total += policy.per_invocation * len(reports)
        comp = sum((Fraction(r.t_max * r.tau, 10**9) for r in reversed(reports)), Fraction(0))
        total += policy.per_ghz_second * comp
        mem = sum(
            (Fraction(r.m_int * r.tau, policy.cpu_frequency_assumption * 10**9) for r in reversed(reports)),
            Fraction(0),
        )
        total += policy.per_gb_second * mem
        net = sum((Fraction(r.net, 10**9) for r in reversed(reports)), Fraction(0))
        total += policy.per_gb_network * net
        assert invoice.total == total  # exact, not approximate
        assert invoice.to_text() == compute_invoice(reports, policy).to_text()

    @staticmethod
    def _per_report_invoice(reports, policy):
        """Reference settlement: one set of rationals per report, summed."""
        freq = policy.cpu_frequency_assumption
        compute_seconds = ghz_seconds = gb_seconds = gb_network = Fraction(0)
        for r in reports:
            cycles = r.t_max * r.tau
            compute_seconds += Fraction(cycles, freq)
            ghz_seconds += Fraction(cycles, 10**9)
            gb_seconds += Fraction(r.m_int * r.tau, freq) / 10**9
            gb_network += Fraction(r.net, 10**9)
        charges = {
            "invocations": policy.per_invocation * len(reports),
            "compute": policy.per_ghz_second * ghz_seconds,
            "memory": policy.per_gb_second * gb_seconds,
            "network": policy.per_gb_network * gb_network,
        }
        return Invoice(
            invocations=len(reports), compute_seconds=compute_seconds, ghz_seconds=ghz_seconds,
            gb_seconds=gb_seconds, gb_network=gb_network, charges=charges,
            total=sum(charges.values(), Fraction(0)),
            report_digests=[r.digest() for r in reports],
        )

    @pytest.mark.parametrize("freq", [10**9, 2_400_000_000, 1_733_333_337])
    def test_integer_sums_equal_per_report_fractions(self, freq):
        rng = DeterministicRng(freq, "inv-sums")
        reports = [
            self._report(
                rng.randrange(10**7), 1 + rng.randrange(10**4),
                rng.randrange(10**10), rng.randrange(10**6), rng.randrange(10**9),
                seed=i,
            )
            for i in range(1 + rng.randrange(200))
        ]
        policy = BillingPolicy(
            per_invocation=Fraction(3, 10**7),
            per_ghz_second=Fraction(17, 10**6),
            per_gb_second=Fraction(1, 60000),
            per_gb_network=Fraction(9, 100),
            cpu_frequency_assumption=freq,
        )
        for batch in ([], reports[:1], reports):
            got = compute_invoice(batch, policy)
            want = self._per_report_invoice(batch, policy)
            for f in dataclasses.fields(Invoice):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
            assert got.to_text() == want.to_text()

    def test_invoice_references_report_digests(self):
        reports = [self._report(10, 10, 0, 0, 0, seed=i) for i in range(3)]
        invoice = compute_invoice(reports, BillingPolicy())
        assert invoice.report_digests == [r.digest() for r in reports]

    def test_negative_rates_rejected(self):
        for price in (Fraction(-1), "1/0"):
            with pytest.raises(ValueError, match="per_invocation"):
                BillingPolicy(per_invocation=price)

    def test_zero_frequency_rejected(self):
        for value in (0, "abc", "1.5"):
            with pytest.raises(ValueError, match="cpu_frequency_assumption"):
                BillingPolicy(cpu_frequency_assumption=value)
        with pytest.raises(ValueError, match="cpu_frequency_assumption: not an integer: 'abc'"):
            BillingPolicy.from_mapping({"cpu_frequency_assumption": "abc"})

    def test_policy_from_mapping(self):
        policy = BillingPolicy.from_mapping(
            {"per_invocation": "0.0000002", "per_ghz_second": "0.00001",
             "cpu_frequency_assumption": "2400000000"}
        )
        assert policy.per_invocation == Fraction(2, 10**7)
        assert policy.cpu_frequency_assumption == 2_400_000_000

    def test_policy_unknown_key_rejected(self):
        # a misspelt price would otherwise bill that item at zero
        with pytest.raises(ValueError, match="per_invokation"):
            BillingPolicy.from_mapping({"per_invokation": "1", "per_ghz_second": "0.00001"})


class TestDeliveryShim:
    def test_drop_and_duplicate_deterministic(self):
        shim1 = DeliveryShim(seed=3, drop=0.5, duplicate=0.5)
        shim2 = DeliveryShim(seed=3, drop=0.5, duplicate=0.5)
        msgs = list(range(50))
        assert shim1.deliver(msgs) == shim2.deliver(msgs)

    def test_reorder_keeps_multiset(self):
        shim = DeliveryShim(seed=4, reorder=True)
        msgs = list(range(10))
        assert sorted(shim.deliver(msgs)) == msgs


class TestEndToEndCorrectness:
    def test_honest_run_output_matches_direct_execution_oracle(self, kde, pool, ctx):
        # the client's received output equals running the same function on the
        # same input directly, with no protocol stack in between
        from meterfaas.vm import VMLimits, vm_execute, vm_load

        for n in (2, 10, 37, 90):
            request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(n))
            result = pool.dispatch(request, FIB)
            received = client_verify_response(pending, result.response).output
            direct = vm_execute(vm_load(FIB), corp.fib_input(n), VMLimits()).output
            assert received == direct
