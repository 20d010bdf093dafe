"""Simulated attestation root and transitive verification.

One signing authority per deployment stands in for the hardware attestation
service. Quotes bind an enclave identity to caller-chosen user data; the
transitive check lets clients trust workers while verifying only the key
distribution enclave's quote.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .crypto import DIGEST_SIZE, KEY_SIZE, SIGNATURE_SIZE, DeterministicRng, ReasonError, SigningKeyPair
from .wire import VAR, opt, record, signed_record, wire_field

QUOTE_DOMAIN = b"meterfaas/quote/v1|"
REPORT_DOMAIN = b"meterfaas/report/v1|"


class AttestationError(ReasonError):
    """Verification rejection."""


@record
@dataclass(frozen=True)
class EnclaveIdentity:
    """Code identity, signer identity, and optional damage-containment tag.

    `parametrization` is folded into the code identity at derivation time, so
    two enclaves with different parametrization have different mrenclave.
    """

    mrenclave: bytes = wire_field(DIGEST_SIZE)
    mrsigner: bytes = wire_field(DIGEST_SIZE)
    parametrization: bytes | None = wire_field(opt(DIGEST_SIZE), default=None)


def derive_identity(
    code: bytes, signer: bytes, parametrization: bytes | None = None
) -> EnclaveIdentity:
    """Build an identity the way hardware would measure it: a hash of the code
    image, with any parametrization mixed into the measurement."""
    payload = b"meterfaas-mrenclave|" + code
    if parametrization is not None:
        payload += b"|param|" + parametrization
    return EnclaveIdentity(
        mrenclave=crypto.hash_bytes(payload),
        mrsigner=crypto.hash_bytes(b"meterfaas-mrsigner|" + signer),
        parametrization=parametrization,
    )


@record
@dataclass(frozen=True)
class QuoteUserData:
    """The four items a key-publishing quote must bind, in fixed order."""

    kka_pub_hash: bytes = wire_field(DIGEST_SIZE)
    kout_pub_hash: bytes = wire_field(DIGEST_SIZE)
    kres_pub_hash: bytes = wire_field(DIGEST_SIZE)
    worker_identity: bytes = wire_field(DIGEST_SIZE)

    @classmethod
    def binding(cls, kka_pub: bytes, kout_pub: bytes, kres_pub: bytes, worker: bytes) -> QuoteUserData:
        """What a quote binds to publish these three public keys to the worker identity ``worker``."""
        return cls(*map(crypto.hash_bytes, (kka_pub, kout_pub, kres_pub)), worker)


@signed_record(QUOTE_DOMAIN, "ias_signature")
@dataclass(frozen=True)
class Quote:
    identity: EnclaveIdentity = wire_field(EnclaveIdentity)
    user_data: bytes = wire_field(VAR)
    ias_signature: bytes = wire_field(SIGNATURE_SIZE)


@signed_record(REPORT_DOMAIN, "signature")
@dataclass(frozen=True)
class WorkerReport:
    """Local attestation of a worker requesting keys: identity plus the
    ephemeral transport key the key set should be wrapped to."""

    identity: EnclaveIdentity = wire_field(EnclaveIdentity)
    transport_public: bytes = wire_field(KEY_SIZE)
    signature: bytes = wire_field(SIGNATURE_SIZE)


class AttestationRoot:
    """Per-deployment signing authority; its public key is distributed
    out-of-band, mirroring trust in the attestation service's certificate."""

    def __init__(self, seed: int | bytes) -> None:
        self._keypair = SigningKeyPair.generate(DeterministicRng(seed, "attestation-root"))

    @property
    def public_key(self) -> bytes:
        return self._keypair.public

    def issue_quote(self, identity: EnclaveIdentity, user_data: bytes) -> Quote:
        return Quote.sign(self._keypair, identity=identity, user_data=user_data)

    def attest_worker(self, identity: EnclaveIdentity, transport_public: bytes) -> WorkerReport:
        return WorkerReport.sign(self._keypair, identity=identity, transport_public=transport_public)


def ias_verify(root_public: bytes, quote: Quote) -> tuple[EnclaveIdentity, bytes]:
    """Return the authenticated (identity, user_data) or raise AttestationError."""
    if not quote.verify(root_public):
        raise AttestationError("quote-signature", "quote not signed by the configured root")
    return quote.identity, quote.user_data


def verify_report(root_public: bytes, report: WorkerReport) -> EnclaveIdentity:
    if not report.verify(root_public):
        raise AttestationError("attestation", "worker report signature invalid")
    return report.identity


def verify_transitive(
    root_public: bytes,
    quote: Quote,
    expected_kde: bytes,
    kka_pub: bytes,
    kout_pub: bytes,
    kres_pub: bytes,
    expected_worker: bytes,
) -> QuoteUserData:
    """The relying party's entire trust decision.

    Accepts iff the quote verifies under the root, names the expected KDE
    identity, binds hashes of exactly the published public keys, and names the
    expected worker identity. No per-worker attestation happens anywhere.
    """
    identity, user_data = ias_verify(root_public, quote)
    if identity.mrenclave != expected_kde:
        raise AttestationError("kde-identity", "quote from unexpected KDE identity")
    try:
        bound = QuoteUserData.decode(user_data)
    except Exception as exc:
        raise AttestationError("user-data-format", str(exc)) from exc
    expected = QuoteUserData.binding(kka_pub, kout_pub, kres_pub, expected_worker)
    if bound.kka_pub_hash != expected.kka_pub_hash:
        raise AttestationError("key-hash", "key agreement public key not bound by quote")
    if bound.kout_pub_hash != expected.kout_pub_hash:
        raise AttestationError("key-hash", "output signing public key not bound by quote")
    if bound.kres_pub_hash != expected.kres_pub_hash:
        raise AttestationError("key-hash", "measurement signing public key not bound by quote")
    if bound.worker_identity != expected.worker_identity:
        raise AttestationError("worker-identity", "quote gates keys to a different worker identity")
    return bound
