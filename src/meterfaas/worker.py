"""Worker enclave lifecycle: key acquisition, provisioning, metered invocation.

The four entry points mirror the enclave call surface: ``ecall_setup`` obtains
or unseals a key set, ``ecall_init`` loads a function into the sandbox,
``ecall_run`` opens an encrypted request and executes the function under
metering, and ``ecall_finish`` seals the response and signs the measurement.

Request and response bodies are the repo's wire protocol:

  request plaintext  = input | function_hash | receipt_flag | want_measurement
                       | nonce(16) | optional token
  response plaintext = status | payload | nonce(16) | optional measurement
                       | optional receipt

both AEAD-sealed under the session key derived from the key-agreement pair and
the client's public key. A request that fails authentication never executes
and never produces a measurement; a request that decrypts but names the wrong
function aborts before the first sandbox instruction, with the measurement
reporting zero consumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .attest import AttestationRoot, EnclaveIdentity
from .crypto import (
    DIGEST_SIZE,
    KEY_SIZE,
    NONCE_SIZE,
    SIGNATURE_SIZE,
    AgreementKeyPair,
    DeterministicRng,
    ReasonError,
    SigningKeyPair,
)
from .kde import (
    KeyDistributionEnclave,
    KeySet,
    SealedBlob,
    open_keyset_payload,
    seal,
    unseal,
)
from .kernel import ScheduleEvent
from .metering import (
    MeterConfig,
    MeteredOutcome,
    SignedMeasurement,
    build_signed_measurement,
    run_metered,
)
from .vm import CostTable, FunctionImage, VMLimits, vm_load
from .wire import FLAG, U8, VAR, opt, record, signed_record, wire_field

RECEIPT_DOMAIN = b"meterfaas/receipt/v1|"
REQUEST_AAD = b"meterfaas/request/v1|"
RESPONSE_AAD = b"meterfaas/response/v1|"
CLIENT_NONCE_SIZE = 16

STATUS_OK = 0
STATUS_FUNCTION_FAILED = 1
STATUS_WRONG_FUNCTION = 2


class WorkerError(ReasonError):
    """Worker enclave refusal."""


@record
@dataclass(frozen=True)
class RequestPlain:
    input: bytes = wire_field(VAR)
    function_hash: bytes = wire_field(DIGEST_SIZE)
    receipt_flag: bool = wire_field(FLAG)
    want_measurement: bool = wire_field(FLAG)
    nonce: bytes = wire_field(CLIENT_NONCE_SIZE)
    token: bytes | None = wire_field(opt(VAR), default=None)


@record
@dataclass(frozen=True)
class EncryptedRequest:
    client_pub: bytes = wire_field(KEY_SIZE)
    aead_nonce: bytes = wire_field(NONCE_SIZE)
    ciphertext: bytes = wire_field(VAR)


@signed_record(RECEIPT_DOMAIN, "signature", body_var=True)
@dataclass(frozen=True)
class Receipt:
    """Signature under the output key binding digests of (input, function,
    output), optionally the measurement report."""

    h_input: bytes = wire_field(DIGEST_SIZE)
    h_function: bytes = wire_field(DIGEST_SIZE)
    h_output: bytes = wire_field(DIGEST_SIZE)
    h_measurement: bytes | None = wire_field(opt(DIGEST_SIZE))
    keyset_id: bytes = wire_field(DIGEST_SIZE)
    signature: bytes = wire_field(SIGNATURE_SIZE)


def build_receipt(
    input_data: bytes,
    function_hash: bytes,
    output: bytes,
    measurement: SignedMeasurement | None,
    keyset_id: bytes,
    k_out: SigningKeyPair,
) -> Receipt:
    return Receipt.sign(
        k_out,
        h_input=crypto.hash_bytes(input_data),
        h_function=function_hash,
        h_output=crypto.hash_bytes(output),
        h_measurement=measurement.digest() if measurement is not None else None,
        keyset_id=keyset_id,
    )


def verify_receipt(
    receipt: Receipt,
    k_out_public: bytes,
    input_data: bytes,
    function_hash: bytes,
    output: bytes,
    measurement: SignedMeasurement | None = None,
) -> tuple[bool, str]:
    """Recompute the digests from the verifier's own copies and check the
    signature. Returns (accepted, reason)."""
    if not receipt.verify(k_out_public):
        return False, "signature"
    if receipt.h_input != crypto.hash_bytes(input_data):
        return False, "input-digest"
    if receipt.h_function != function_hash:
        return False, "function-digest"
    if receipt.h_output != crypto.hash_bytes(output):
        return False, "output-digest"
    if measurement is not None and receipt.h_measurement != measurement.digest():
        return False, "measurement-digest"
    return True, "ok"


@record
@dataclass(frozen=True)
class ResponsePlain:
    status: int = wire_field(U8)
    payload: bytes = wire_field(VAR)  # function output, or an error marker string
    nonce: bytes = wire_field(CLIENT_NONCE_SIZE)
    measurement: SignedMeasurement | None = wire_field(opt(SignedMeasurement), default=None)
    receipt: Receipt | None = wire_field(opt(Receipt), default=None)


@record
@dataclass(frozen=True)
class EncryptedResponse:
    aead_nonce: bytes = wire_field(NONCE_SIZE)
    ciphertext: bytes = wire_field(VAR)


@dataclass
class _Pending:
    session: crypto.SessionKey
    request: RequestPlain
    status: int
    payload: bytes
    tag: bytes


class WorkerEnclave:
    """One simulated worker enclave instance on one platform.

    The key pairs of the installed key set each parse their private key once,
    so each request costs one scalar multiplication to derive its session key
    from ``k_ka`` and the client's public key; the worker keeps no per-client
    state between requests. The KDE transport key stays ephemeral, one
    derivation per setup, and every response draws a fresh AEAD nonce.
    """

    def __init__(
        self,
        identity: EnclaveIdentity,
        platform_id: bytes,
        root: AttestationRoot,
        meter_cfg: MeterConfig,
        limits: VMLimits | None = None,
        costs: CostTable | None = None,
        seed: int | bytes = 0,
    ) -> None:
        self.identity = identity
        self.platform_id = platform_id
        self.root = root
        self.meter_cfg = meter_cfg
        self.limits = limits or VMLimits()
        self.costs = costs or CostTable()
        self._rng = DeterministicRng(seed, "worker")
        self._setup_count = 0
        self._finish_count = 0
        self.keyset: KeySet | None = None
        self.image: FunctionImage | None = None
        self.pending: _Pending | None = None
        self.last_outcome: MeteredOutcome | None = None  # None when no function ran

    # --- setup -------------------------------------------------------------

    def ecall_setup(
        self,
        kde: KeyDistributionEnclave,
        sealed: SealedBlob | None = None,
        expected_keyset_id: bytes | None = None,
    ) -> SealedBlob:
        """Unseal a previously received key set or fetch a fresh one from the
        KDE, resealing it to this enclave's identity and platform. Runs before
        any function is provisioned; never metered."""
        self._setup_count += 1
        if sealed is not None:
            try:
                keyset = KeySet.decode(unseal(sealed, self.identity, self.platform_id))
                if expected_keyset_id is None or keyset.keyset_id == expected_keyset_id:
                    self.keyset = keyset
                    return sealed
            except crypto.TamperError:
                pass  # blob from another identity or platform: fetch instead
        transport = AgreementKeyPair.generate(self._rng.child(f"transport{self._setup_count}"))
        report = self.root.attest_worker(self.identity, transport.public)
        try:
            payload = kde.distribute(report)
        except Exception as exc:
            raise WorkerError("setup", f"KDE refused key set: {exc}") from exc
        self.keyset = open_keyset_payload(payload, transport)
        return seal(
            self.keyset.encode(),
            self.identity,
            self.platform_id,
            self._rng.child(f"seal{self._setup_count}"),
        )

    # --- provisioning ------------------------------------------------------

    def ecall_init(self, function_bytes: bytes) -> None:
        if self.keyset is None:
            raise WorkerError("lifecycle", "setup required before init")
        self.image = vm_load(function_bytes)  # LoadError propagates

    # --- invocation ----------------------------------------------------------

    def ecall_run(self, request: EncryptedRequest, schedule: list[ScheduleEvent] | tuple = ()) -> int:
        """Open the request, check the function binding, and execute under
        metering. Returns the output size so the host can size its buffers."""
        if self.keyset is None or self.image is None:
            raise WorkerError("lifecycle", "setup and init must precede run")
        if self.pending is not None:
            raise WorkerError("lifecycle", "previous invocation not finished")
        session = crypto.derive_session_key(self.keyset.k_ka, request.client_pub)
        # a tampered or mis-keyed request never executes and is never billable
        plain = crypto.aead_open(
            session, request.aead_nonce, request.ciphertext, REQUEST_AAD + request.client_pub
        )
        req = RequestPlain.decode(plain)
        tag = crypto.hash_bytes(req.token if req.token is not None else b"")

        if req.function_hash != self.image.function_hash:
            # abort before any sandbox instruction runs
            self.last_outcome = None
            self.pending = _Pending(
                session=session, request=req,
                status=STATUS_WRONG_FUNCTION, payload=b"wrong-function", tag=tag,
            )
            return 0

        outcome = run_metered(
            self.image, req.input, self.limits, self.meter_cfg,
            schedule=list(schedule), costs=self.costs, default_tag=tag,
        )
        self.last_outcome = outcome
        if outcome.vm_result.ok:
            status, payload = STATUS_OK, outcome.vm_result.output
        else:
            status, payload = STATUS_FUNCTION_FAILED, (outcome.vm_result.reason or "trap").encode()
        self.pending = _Pending(
            session=session, request=req,
            status=status, payload=payload, tag=outcome.vm_result.tag,
        )
        return len(payload)

    def ecall_finish(self) -> tuple[EncryptedResponse, SignedMeasurement]:
        """Seal the response for the client and sign the resource report.

        A measurement is produced for every run that decrypted successfully,
        including traps and wrong-function aborts (resources were consumed, or
        the provider needs the attributable zero-report); a receipt only for
        clean runs that asked for one.
        """
        if self.pending is None:
            raise WorkerError("lifecycle", "no run to finish")
        if self.keyset is None:  # pragma: no cover - run requires a keyset
            raise WorkerError("lifecycle", "no key set")
        p = self.pending
        measurement = build_signed_measurement(
            self.last_outcome, tag=p.tag, keyset_id=self.keyset.keyset_id,
            k_res=self.keyset.k_res, tau=self.meter_cfg.tau,
        )
        receipt = None
        if p.request.receipt_flag and p.status == STATUS_OK:
            receipt = build_receipt(
                input_data=p.request.input,
                function_hash=p.request.function_hash,
                output=p.payload,
                measurement=measurement if p.request.want_measurement else None,
                keyset_id=self.keyset.keyset_id,
                k_out=self.keyset.k_out,
            )
        plain = ResponsePlain(
            status=p.status,
            payload=p.payload,
            nonce=p.request.nonce,
            measurement=measurement if p.request.want_measurement else None,
            receipt=receipt,
        )
        self._finish_count += 1
        nonce = self._rng.child(f"resp{self._finish_count}").bytes(NONCE_SIZE)
        ciphertext = crypto.aead_seal(p.session, nonce, plain.encode(), RESPONSE_AAD)
        self.pending = None
        return EncryptedResponse(aead_nonce=nonce, ciphertext=ciphertext), measurement
