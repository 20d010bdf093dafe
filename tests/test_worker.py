"""Worker enclave lifecycle: setup, init, authenticated metered runs, finish."""

import gc
import types

import pytest

from meterfaas import corpus as corp
from meterfaas import crypto
from meterfaas.attest import AttestationRoot, derive_identity
from meterfaas.crypto import DeterministicRng, TamperError, hash_bytes
from meterfaas.kde import KeyDistributionEnclave
from meterfaas.metering import MeterConfig, build_signed_measurement
from meterfaas.orchestrator import ClientContext, client_prepare
from meterfaas.vm import LoadError, VMLimits, assemble
from meterfaas.worker import (
    EncryptedRequest,
    Receipt,
    WorkerEnclave,
    WorkerError,
    build_receipt,
    verify_receipt,
)

ROOT = AttestationRoot(seed=1)
KDE_IDENT = derive_identity(b"kde-code", b"prov")
WORKER_IDENT = derive_identity(b"worker-code", b"prov")
FIB = assemble(corp.FIB_SOURCE)
CFG = MeterConfig(tau=10, epsilon=0)


def make_kde(seed=10):
    return KeyDistributionEnclave(ROOT, KDE_IDENT, seed=seed, worker_identity=WORKER_IDENT.mrenclave)


def make_worker(seed=3, platform=b"plat-A", cfg=CFG):
    return WorkerEnclave(
        identity=WORKER_IDENT, platform_id=platform, root=ROOT,
        meter_cfg=cfg, limits=VMLimits(), seed=seed,
    )


def make_client(kde, seed=9):
    return ClientContext.create(
        ROOT.public_key, kde.published, KDE_IDENT.mrenclave, WORKER_IDENT.mrenclave, seed=seed
    )


def reachable_bytes(root):
    """Every bytes value reachable from ``root``'s own object graph; classes,
    modules and functions are not followed, so module globals stay out."""
    seen, found, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType, types.MethodType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, bytes):
            found.add(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def provisioned(seed=3):
    kde = make_kde()
    worker = make_worker(seed=seed)
    worker.ecall_setup(kde)
    worker.ecall_init(FIB)
    return kde, worker


class TestSetup:
    def test_first_fetch_then_unseal_without_kde_traffic(self):
        kde = make_kde()
        worker = make_worker()
        blob = worker.ecall_setup(kde)
        assert worker.keyset is not None
        first_id = worker.keyset.keyset_id

        fresh = make_worker(seed=4)  # same identity and platform
        calls = 0
        original = kde.distribute

        def counting(report):
            nonlocal calls
            calls += 1
            return original(report)

        kde.distribute = counting
        returned = fresh.ecall_setup(kde, blob)
        assert calls == 0  # pure unseal, no KDE round trip
        assert returned == blob
        assert fresh.keyset.keyset_id == first_id

    def test_blob_from_other_identity_falls_back_to_fetch(self):
        kde = make_kde()
        worker = make_worker()
        blob = worker.ecall_setup(kde)
        imposter = WorkerEnclave(
            identity=derive_identity(b"worker-code", b"prov", parametrization=b"\x01" * 32),
            platform_id=b"plat-A", root=ROOT, meter_cfg=CFG, seed=8,
        )
        # parametrized identity differs, so the KDE refuses it too
        with pytest.raises(WorkerError) as ei:
            imposter.ecall_setup(kde, blob)
        assert ei.value.reason == "setup"
        assert imposter.keyset is None

    def test_wrong_platform_falls_back_to_fetch(self):
        kde = make_kde()
        worker = make_worker()
        blob = worker.ecall_setup(kde)
        other = make_worker(seed=5, platform=b"plat-B")
        other.ecall_setup(kde, blob)  # unseal fails silently, fetch succeeds
        assert other.keyset is not None

    def test_kde_rejection_is_setup_error(self):
        kde = make_kde()
        rogue = WorkerEnclave(
            identity=derive_identity(b"rogue", b"prov"), platform_id=b"p",
            root=ROOT, meter_cfg=CFG, seed=6,
        )
        with pytest.raises(WorkerError) as ei:
            rogue.ecall_setup(kde)
        assert ei.value.reason == "setup"
        assert rogue.keyset is None


    def test_setup_derives_once_on_each_side_of_the_transport(self, monkeypatch):
        kde, worker = make_kde(), make_worker()
        real = crypto.derive_session_key
        calls = []
        monkeypatch.setattr(crypto, "derive_session_key",
                            lambda mine, peer: calls.append((mine.public, peer)) or real(mine, peer))
        worker.ecall_setup(kde)
        # the KDE's ephemeral key with the worker's, then the worker's with the KDE's
        assert len(calls) == 2
        assert calls[0] == calls[1][::-1]


class TestInit:
    def test_load_and_replace(self):
        kde, worker = provisioned()
        assert worker.image.function_hash == hash_bytes(FIB)
        other = assemble(corp.EMPTY_SOURCE)
        worker.ecall_init(other)
        assert worker.image.function_hash == hash_bytes(other)

    def test_malformed_bytes_error(self):
        kde, worker = provisioned()
        with pytest.raises(LoadError):
            worker.ecall_init(b"junk")

    def test_fall_through_program_rejected_and_image_kept(self):
        kde, worker = provisioned()
        with pytest.raises(LoadError, match="neither HALT nor JMP"):
            worker.ecall_init(assemble("PUSH 1"))
        assert worker.image.function_hash == hash_bytes(FIB)

    def test_init_requires_setup(self):
        worker = make_worker()
        with pytest.raises(WorkerError) as ei:
            worker.ecall_init(FIB)
        assert ei.value.reason == "lifecycle"


class TestRunAndFinish:
    def test_valid_request_roundtrip_with_receipt_and_measurement(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        request, pending = client_prepare(
            ctx, hash_bytes(FIB), corp.fib_input(10),
            receipt=True, want_measurement=True, token=b"api-key-1",
        )
        size = worker.ecall_run(request)
        assert size == 8
        response, measurement = worker.ecall_finish()
        assert measurement.verify(kde.published.k_res_pub)
        assert measurement.tag == hash_bytes(b"api-key-1")
        assert measurement.tau == CFG.tau

        from meterfaas.orchestrator import client_verify_response

        result = client_verify_response(pending, response)
        assert int.from_bytes(result.output, "little") == 55
        assert result.receipt is not None
        ok, reason = verify_receipt(
            result.receipt, kde.published.k_out_pub,
            corp.fib_input(10), hash_bytes(FIB), result.output,
            measurement=result.measurement,
        )
        assert ok, reason
        assert result.receipt.h_measurement == result.measurement.digest()

    def test_wrong_function_hash_aborts_before_any_vm_instruction(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        other_hash = hash_bytes(assemble(corp.EMPTY_SOURCE))
        request, pending = client_prepare(ctx, other_hash, corp.fib_input(10))
        size = worker.ecall_run(request)
        assert size == 0
        assert worker.last_outcome is None
        response, measurement = worker.ecall_finish()
        # decrypted fine, so the zero-consumption measurement is still signed
        assert measurement.verify(kde.published.k_res_pub)
        assert measurement.t_max == 0 and measurement.m_max == 0

        from meterfaas.orchestrator import FunctionFailed, client_verify_response

        with pytest.raises(FunctionFailed) as ei:
            client_verify_response(pending, response)
        assert "wrong-function" in ei.value.reason

    def test_tampered_request_no_execution_no_measurement(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        request, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(10))
        flipped = bytearray(request.ciphertext)
        flipped[0] ^= 1
        bad = EncryptedRequest(request.client_pub, request.aead_nonce, bytes(flipped))
        with pytest.raises(TamperError):
            worker.ecall_run(bad)
        assert worker.pending is None
        with pytest.raises(WorkerError):
            worker.ecall_finish()

    def test_tampered_request_rejected_after_a_good_one(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        worker.ecall_run(request)
        worker.ecall_finish()
        request, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        flipped = bytearray(request.ciphertext)
        flipped[-1] ^= 1
        with pytest.raises(TamperError):
            worker.ecall_run(EncryptedRequest(request.client_pub, request.aead_nonce, bytes(flipped)))
        assert worker.pending is None
        with pytest.raises(WorkerError):
            worker.ecall_finish()

    def test_worker_keeps_nothing_of_earlier_clients(self):
        # k_ka_pub is published, so anyone can send requests from fresh client
        # keys; none of them may leave a public key or a session key behind
        kde, worker = provisioned()
        clients = [make_client(kde, seed=100 + i) for i in range(20)]
        for ctx in clients:
            worker.ecall_run(client_prepare(ctx, hash_bytes(FIB), corp.fib_input(3))[0])
            worker.ecall_finish()
        held = reachable_bytes(worker)
        assert worker.keyset.k_ka.public in held  # the walk does reach the key set
        assert not {c.k_c.public for c in clients} & held
        assert not {c.session.key for c in clients} & held

    def test_rotation_rejects_client_on_old_keys(self):
        kde, worker = provisioned()
        old = make_client(kde)
        worker.ecall_run(client_prepare(old, hash_bytes(FIB), corp.fib_input(5))[0])
        worker.ecall_finish()
        kde.rotate()
        worker.ecall_setup(kde, expected_keyset_id=kde.keyset.keyset_id)
        request, _ = client_prepare(old, hash_bytes(FIB), corp.fib_input(5))
        with pytest.raises((TamperError, WorkerError)):
            worker.ecall_run(request)
        with pytest.raises(WorkerError):
            worker.ecall_finish()  # never measured
        fresh = make_client(kde, seed=10)
        request, pending = client_prepare(fresh, hash_bytes(FIB), corp.fib_input(5))
        worker.ecall_run(request)
        response, measurement = worker.ecall_finish()
        assert measurement.keyset_id == kde.keyset.keyset_id

        from meterfaas.orchestrator import client_verify_response

        assert int.from_bytes(client_verify_response(pending, response).output, "little") == 5

    def test_trapped_run_error_marker_but_signed_measurement(self):
        kde, worker = provisioned()
        worker.ecall_init(FIB)
        ctx = make_client(kde)
        # fib with no input words traps on the input read
        request, pending = client_prepare(ctx, hash_bytes(FIB), b"", receipt=True, token=b"t")
        worker.ecall_run(request)
        response, measurement = worker.ecall_finish()
        assert measurement.verify(kde.published.k_res_pub)
        assert measurement.tag == hash_bytes(b"t")

        from meterfaas.orchestrator import FunctionFailed, client_verify_response

        with pytest.raises(FunctionFailed) as ei:
            client_verify_response(pending, response)
        assert "fault" in ei.value.reason

    def test_finish_before_run_is_lifecycle_error(self):
        kde, worker = provisioned()
        with pytest.raises(WorkerError) as ei:
            worker.ecall_finish()
        assert ei.value.reason == "lifecycle"

    def test_second_run_before_finish_is_lifecycle_error(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        request, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        worker.ecall_run(request)
        again, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(6))
        with pytest.raises(WorkerError) as ei:
            worker.ecall_run(again)
        assert ei.value.reason == "lifecycle"

    def test_response_nonce_equals_request_nonce(self):
        kde, worker = provisioned()
        ctx = make_client(kde)
        request, pending = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(5))
        worker.ecall_run(request)
        response, _ = worker.ecall_finish()
        plain = crypto.aead_open(
            pending.session, response.aead_nonce, response.ciphertext,
            b"meterfaas/response/v1|",
        )
        from meterfaas.worker import ResponsePlain

        assert ResponsePlain.decode(plain).nonce == pending.nonce

    def test_no_plaintext_crosses_the_boundary(self):
        kde = make_kde()
        worker = make_worker()
        worker.ecall_setup(kde)
        echo = assemble(corp.ECHO_WORD_SOURCE)
        worker.ecall_init(echo)
        ctx = make_client(kde)
        sentinel = (0x53454E54494E454C).to_bytes(8, "little")  # input == output
        request, pending = client_prepare(ctx, hash_bytes(echo), sentinel, receipt=True)
        worker.ecall_run(request)
        response, measurement = worker.ecall_finish()
        host_visible = request.encode() + response.encode() + measurement.encode()
        assert sentinel not in host_visible

    def test_run_before_init_is_lifecycle_error(self):
        kde = make_kde()
        worker = make_worker()
        worker.ecall_setup(kde)
        ctx = make_client(kde)
        request, _ = client_prepare(ctx, hash_bytes(FIB), b"")
        with pytest.raises(WorkerError):
            worker.ecall_run(request)

    def test_measurement_under_interrupt_schedule_still_lower_bound(self):
        from meterfaas.kernel import ScheduleEvent

        kde, worker = provisioned()
        ctx = make_client(kde)
        request, _ = client_prepare(ctx, hash_bytes(FIB), corp.fib_input(120))
        sched = [ScheduleEvent("worker", 100, 200), ScheduleEvent("timer", 500, 600)]
        worker.ecall_run(request, schedule=sched)
        _, measurement = worker.ecall_finish()
        oracle = worker.last_outcome.trace.resident["worker"]
        assert measurement.t_max * measurement.tau <= oracle


class TestReceiptUnit:
    def test_receipt_roundtrip_and_binding(self):
        kde, worker = provisioned()
        ks = worker.keyset
        receipt = build_receipt(b"input", hash_bytes(b"fn"), b"output", None, ks.keyset_id, ks.k_out)
        assert Receipt.decode(receipt.encode()) == receipt
        ok, _ = verify_receipt(receipt, kde.published.k_out_pub, b"input", hash_bytes(b"fn"), b"output")
        assert ok
        for args, expected in [
            ((b"inputX", hash_bytes(b"fn"), b"output"), "input-digest"),
            ((b"input", hash_bytes(b"fnX"), b"output"), "function-digest"),
            ((b"input", hash_bytes(b"fn"), b"outputX"), "output-digest"),
        ]:
            ok, reason = verify_receipt(receipt, kde.published.k_out_pub, *args)
            assert not ok and reason == expected
        wrong_key = DeterministicRng(1, "other").bytes(32)
        ok, reason = verify_receipt(receipt, wrong_key, b"input", hash_bytes(b"fn"), b"output")
        assert not ok and reason == "signature"

    def test_receipt_binds_its_measurement(self):
        kde, worker = provisioned()
        ks = worker.keyset
        measured, other = (build_signed_measurement(None, hash_bytes(b"tok"), ks.keyset_id, ks.k_res, tau=tau)
                           for tau in (10, 11))
        receipt = build_receipt(b"input", hash_bytes(b"fn"), b"output", measured, ks.keyset_id, ks.k_out)
        args = (receipt, kde.published.k_out_pub, b"input", hash_bytes(b"fn"), b"output")
        assert verify_receipt(*args, measurement=measured) == (True, "ok")
        assert verify_receipt(*args, measurement=other) == (False, "measurement-digest")
