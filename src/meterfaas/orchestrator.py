"""Lightweight FaaS layer: client protocol, worker pool, billing settlement.

Clients construct a context only after the transitive attestation of the
published keys succeeds, then seal requests under a session key and match
responses by nonce. The pool dispatches invocations to worker enclaves with
cold and warm starts, refreshes rotated key sets, and appends every signed
measurement to the provider's log. Billing converts verified reports into an
invoice with exact rational arithmetic, so settlement is reproducible bit for
bit from the reports and the policy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import crypto
from .attest import verify_transitive
from .crypto import AgreementKeyPair, DeterministicRng, ReasonError
from .kde import KeyDistributionEnclave, PublishedKeys
from .kernel import ScheduleEvent
from .metering import MeterConfig, SignedMeasurement
from .vm import CostTable, VMLimits
from .worker import (
    CLIENT_NONCE_SIZE,
    REQUEST_AAD,
    RESPONSE_AAD,
    STATUS_OK,
    EncryptedRequest,
    EncryptedResponse,
    RequestPlain,
    ResponsePlain,
    WorkerEnclave,
    verify_receipt,
)

GIGA = 10**9


class ReplayError(Exception):
    """Response nonce does not match the outstanding request."""


class FunctionFailed(Exception):
    """The provider returned an error marker in lieu of the output."""

    def __init__(self, status: int, reason: str, measurement: SignedMeasurement | None) -> None:
        super().__init__(f"status {status}: {reason}")
        self.status = status
        self.reason = reason
        self.measurement = measurement


class VerificationError(ReasonError):
    """Client- or provider-side rejection."""


# --- client side --------------------------------------------------------------


@dataclass
class ClientContext:
    """Holds the client's agreement key, the verified published keys and the
    session key between them.

    Use :meth:`create`, which refuses to construct a context until the
    transitive attestation of the key set succeeds; there is no way to prepare
    a request against unverified keys. ``k_c`` and ``k_ka`` are both static
    and ``k_c`` parses its private key once, so the session key is derived
    once, here, for this (client, key set) pair; a rotated key set needs a new
    context. Every request still draws a fresh AEAD nonce.
    """

    k_c: AgreementKeyPair
    published: PublishedKeys
    session: crypto.SessionKey
    _rng: DeterministicRng

    @classmethod
    def create(
        cls,
        root_public: bytes,
        published: PublishedKeys,
        expected_kde: bytes,
        expected_worker: bytes,
        seed: int | bytes = 0,
    ) -> "ClientContext":
        verify_transitive(
            root_public, published.quote, expected_kde,
            published.k_ka_pub, published.k_out_pub, published.k_res_pub,
            expected_worker,
        )
        rng = DeterministicRng(seed, "client")
        k_c = AgreementKeyPair.generate(rng.child("ka"))
        return cls(
            k_c=k_c,
            published=published,
            session=crypto.derive_session_key(k_c, published.k_ka_pub),
            _rng=rng,
        )


@dataclass
class PendingInvocation:
    session: crypto.SessionKey
    nonce: bytes
    input: bytes
    function_hash: bytes
    want_measurement: bool
    k_out_pub: bytes


@dataclass
class ClientResult:
    output: bytes
    measurement: SignedMeasurement | None
    receipt: object | None


def client_prepare(
    ctx: ClientContext,
    function_hash: bytes,
    input_data: bytes,
    receipt: bool = False,
    want_measurement: bool = False,
    token: bytes | None = None,
) -> tuple[EncryptedRequest, PendingInvocation]:
    """Seal a request under the session key and retain what is needed to
    match and check the response."""
    nonce = ctx._rng.bytes(CLIENT_NONCE_SIZE)
    plain = RequestPlain(
        input=input_data,
        function_hash=function_hash,
        receipt_flag=receipt,
        want_measurement=want_measurement,
        nonce=nonce,
        token=token,
    )
    aead_nonce = ctx._rng.bytes(crypto.NONCE_SIZE)
    ciphertext = crypto.aead_seal(
        ctx.session, aead_nonce, plain.encode(), REQUEST_AAD + ctx.k_c.public
    )
    request = EncryptedRequest(client_pub=ctx.k_c.public, aead_nonce=aead_nonce, ciphertext=ciphertext)
    pending = PendingInvocation(
        session=ctx.session, nonce=nonce, input=input_data, function_hash=function_hash,
        want_measurement=want_measurement, k_out_pub=ctx.published.k_out_pub,
    )
    return request, pending


def client_verify_response(pending: PendingInvocation, response: EncryptedResponse) -> ClientResult:
    """Open and validate a response: authentic, fresh (nonce match), and with
    receipt digests that recompute from the client's own input and output."""
    plain_bytes = crypto.aead_open(
        pending.session, response.aead_nonce, response.ciphertext, RESPONSE_AAD
    )
    plain = ResponsePlain.decode(plain_bytes)
    if plain.nonce != pending.nonce:
        raise ReplayError("response nonce does not match the request")
    if plain.status != STATUS_OK:
        raise FunctionFailed(plain.status, plain.payload.decode(errors="replace"), plain.measurement)
    if plain.receipt is not None:
        ok, reason = verify_receipt(
            plain.receipt,
            k_out_public=pending.k_out_pub,
            input_data=pending.input,
            function_hash=pending.function_hash,
            output=plain.payload,
            measurement=plain.measurement if pending.want_measurement else None,
        )
        if not ok:
            raise VerificationError("receipt", reason)
    return ClientResult(output=plain.payload, measurement=plain.measurement, receipt=plain.receipt)


# --- provider side ------------------------------------------------------------


def provider_verify_measurement(
    report: SignedMeasurement,
    published: PublishedKeys,
    expected_tags: set[bytes],
) -> None:
    """Accept iff the signature verifies under the published measurement key
    and the tag belongs to a known authorized invocation."""
    if not report.verify(published.k_res_pub):
        raise VerificationError("forgery", "signature does not verify under k_res")
    if report.tag not in expected_tags:
        raise VerificationError("spurious-invocation", "tag not bound to any authorized client")


class MeasurementLog:
    """Append-only provider store: one hex-encoded report per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, report: SignedMeasurement) -> None:
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(report.encode().hex() + "\n")

    def __iter__(self):
        if not self.path.exists():
            return
        with open(self.path, encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield SignedMeasurement.decode(bytes.fromhex(line))


# --- billing --------------------------------------------------------------------


_PRICES = ("per_invocation", "per_ghz_second", "per_gb_second", "per_gb_network")


@dataclass(frozen=True)
class BillingPolicy:
    """Prices per metric plus the frequency assumption used to convert
    simulated cycles into seconds. GHz-seconds are dimensionally cycles/1e9,
    so the compute line is frequency independent; the memory line needs the
    frequency to turn tick-bytes into byte-seconds. A price is a Fraction or
    anything whose text ``Fraction`` reads, such as ``"1/3"``, and the
    frequency an int or anything whose text ``int`` reads; any other value,
    a price below zero or a frequency below one, is a ValueError naming the
    field."""

    per_invocation: Fraction = Fraction(0)
    per_ghz_second: Fraction = Fraction(0)
    per_gb_second: Fraction = Fraction(0)
    per_gb_network: Fraction = Fraction(0)
    cpu_frequency_assumption: int = GIGA  # cycles per second

    def __post_init__(self) -> None:
        for name in _PRICES:
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                try:
                    value = Fraction(str(value))
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"{name}: not a price: {value!r}") from None
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
            object.__setattr__(self, name, value)
        freq = self.cpu_frequency_assumption
        if not isinstance(freq, int):
            try:
                freq = int(str(freq))
            except ValueError:
                raise ValueError(f"cpu_frequency_assumption: not an integer: {freq!r}") from None
        if freq <= 0:
            raise ValueError("cpu_frequency_assumption must be positive")
        object.__setattr__(self, "cpu_frequency_assumption", freq)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "BillingPolicy":
        """A policy from key=value text; a key that names no price and is not
        ``cpu_frequency_assumption`` is a ValueError. Values are converted
        by the constructor."""
        for key in mapping:
            if key not in _PRICES and key != "cpu_frequency_assumption":
                raise ValueError(f"unknown policy key {key!r}")
        return cls(**mapping)


@dataclass
class Invoice:
    """Settlement-ready artifact: recomputable from the referenced
    measurements and the policy alone."""

    invocations: int
    compute_seconds: Fraction
    ghz_seconds: Fraction
    gb_seconds: Fraction
    gb_network: Fraction
    charges: dict[str, Fraction]
    total: Fraction
    report_digests: list[bytes] = field(default_factory=list)

    def to_text(self) -> str:
        def row(name: str, quantity, charge: Fraction) -> str:
            return f"{name},{quantity},{charge},{float(charge):.12g}"

        lines = [
            "item,quantity,charge_exact,charge_approx",
            row("invocations", self.invocations, self.charges["invocations"]),
            row("compute_ghz_seconds", self.ghz_seconds, self.charges["compute"]),
            row("memory_gb_seconds", self.gb_seconds, self.charges["memory"]),
            row("network_gb", self.gb_network, self.charges["network"]),
            row("total", "", self.total),
        ]
        lines += [f"report,{d.hex()},," for d in self.report_digests]
        return "\n".join(lines) + "\n"


def compute_invoice(reports: list[SignedMeasurement], policy: BillingPolicy) -> Invoice:
    """Deterministic settlement over verified reports. Each report's own tau
    converts its ticks to cycles; each quantity is an exact integer sum over
    the reports, turned into one rational at the end."""
    freq = policy.cpu_frequency_assumption
    invocations = len(reports)
    cycles = sum(r.t_max * r.tau for r in reports)
    tick_bytes = sum(r.m_int * r.tau for r in reports)
    ghz_seconds = Fraction(cycles, GIGA)
    gb_seconds = Fraction(tick_bytes, freq * GIGA)
    gb_network = Fraction(sum(r.net for r in reports), GIGA)
    charges = {
        "invocations": policy.per_invocation * invocations,
        "compute": policy.per_ghz_second * ghz_seconds,
        "memory": policy.per_gb_second * gb_seconds,
        "network": policy.per_gb_network * gb_network,
    }
    return Invoice(
        invocations=invocations,
        compute_seconds=Fraction(cycles, freq),
        ghz_seconds=ghz_seconds,
        gb_seconds=gb_seconds,
        gb_network=gb_network,
        charges=charges,
        total=sum(charges.values(), Fraction(0)),
        report_digests=[r.digest() for r in reports],
    )


# --- worker pool -----------------------------------------------------------------


@dataclass
class DispatchResult:
    response: EncryptedResponse
    measurement: SignedMeasurement
    cold: bool
    worker_index: int


class WorkerPool:
    """Fixed pool of worker enclaves with cold/warm starts.

    Each worker's own key set and loaded image are the only record of its
    state. A dispatch goes to a worker whose image is the function (a warm
    start); failing that, to the least recently used worker, which gets setup
    and init first (a cold start). Workers that have never served come first
    in that order, so idle workers are provisioned before any warm one is
    evicted. A worker sets up only when it holds no key set or a rotated one,
    so it always fetches the current set from the KDE; no sealed blob is kept,
    since each worker's platform is its own and its old blob is stale.
    """

    def __init__(
        self,
        kde: KeyDistributionEnclave,
        worker_identity,
        size: int,
        meter_cfg: MeterConfig,
        limits: VMLimits | None = None,
        costs: CostTable | None = None,
        seed: int = 0,
        measurement_log: MeasurementLog | None = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.kde = kde
        self.measurement_log = measurement_log
        self.collected: list[SignedMeasurement] = []
        self._workers = [
            WorkerEnclave(
                identity=worker_identity,
                platform_id=f"platform-{i}".encode(),
                root=kde.root,
                meter_cfg=meter_cfg,
                limits=limits,
                costs=costs,
                seed=DeterministicRng(seed, f"pool-{i}").u64(),
            )
            for i in range(size)
        ]
        self._lru = list(range(size))  # worker indices, least recently used first

    def dispatch(
        self,
        request: EncryptedRequest,
        function_bytes: bytes,
        schedule: list[ScheduleEvent] | tuple = (),
    ) -> DispatchResult:
        """Serve one invocation to completion on a worker already holding the
        function, else on the least recently used worker after (re)loading it.
        A worker whose key set the KDE has since rotated fetches the current
        one first. Either step makes the start cold."""
        warm = [i for i, w in enumerate(self._workers)
                if w.image is not None and w.image.raw == function_bytes]
        index = warm[0] if warm else self._lru[0]
        self._lru.remove(index)
        self._lru.append(index)
        worker = self._workers[index]
        cold = False
        current = self.kde.keyset.keyset_id
        if worker.keyset is None or worker.keyset.keyset_id != current:
            worker.ecall_setup(self.kde)
            cold = True
        if not warm:
            worker.ecall_init(function_bytes)
            cold = True
        worker.ecall_run(request, schedule=schedule)
        response, measurement = worker.ecall_finish()
        self.collected.append(measurement)
        if self.measurement_log is not None:
            self.measurement_log.append(measurement)
        return DispatchResult(response=response, measurement=measurement, cold=cold, worker_index=index)
