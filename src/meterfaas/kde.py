"""Key Distribution Enclave: key-set generation, quoting, gated release, sealing.

The KDE pre-generates key sets (agreement, output-signing, measurement-signing
pairs), quotes their public halves together with the worker identity allowed to
receive the private halves, and releases those private halves only to reports
attesting exactly that identity. Sealing binds data to (identity, platform).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import crypto
from .attest import (
    AttestationError,
    AttestationRoot,
    EnclaveIdentity,
    Quote,
    QuoteUserData,
    WorkerReport,
    verify_report,
)
from .crypto import (
    DIGEST_SIZE,
    KEY_SIZE,
    NONCE_SIZE,
    AgreementKeyPair,
    DeterministicRng,
    ReasonError,
    SessionKey,
    SigningKeyPair,
)
from .wire import U64, VAR, FormatError, key_pair, record, wire_field


class KdeError(ReasonError):
    """Key distribution refused."""


@record
@dataclass(frozen=True)
class KeySet:
    """The three asymmetric pairs plus bookkeeping. Private halves live only
    here and inside AEAD ciphertext; nothing published ever embeds them. The
    encoding carries the private halves; decoding derives the public ones."""

    k_ka: AgreementKeyPair = wire_field(key_pair(AgreementKeyPair))
    k_out: SigningKeyPair = wire_field(key_pair(SigningKeyPair))
    k_res: SigningKeyPair = wire_field(key_pair(SigningKeyPair))
    keyset_id: bytes = wire_field(DIGEST_SIZE)
    created_at: int = wire_field(U64)

    @staticmethod
    def compute_id(kka_pub: bytes, kout_pub: bytes, kres_pub: bytes) -> bytes:
        """SHA-256 over the three public keys, concatenated in this order."""
        keys = (kka_pub, kout_pub, kres_pub)
        for key in keys:
            if len(key) != KEY_SIZE:
                raise FormatError(f"fixed field expects {KEY_SIZE} bytes, got {len(key)}")
        return crypto.hash_bytes(b"".join(keys))


@record
@dataclass(frozen=True)
class PublishedKeys:
    """What clients and the function provider receive: public halves, epoch,
    and the quote binding them to the worker identity."""

    k_ka_pub: bytes = wire_field(KEY_SIZE)
    k_out_pub: bytes = wire_field(KEY_SIZE)
    k_res_pub: bytes = wire_field(KEY_SIZE)
    created_at: int = wire_field(U64)
    quote: Quote = wire_field(Quote)

    @property
    def keyset_id(self) -> bytes:
        return KeySet.compute_id(self.k_ka_pub, self.k_out_pub, self.k_res_pub)


@record
@dataclass(frozen=True)
class KeySetPayload:
    """Private halves in transit from KDE to a worker, AEAD-sealed to a session
    key derived with the worker's ephemeral transport key."""

    kde_transport_public: bytes = wire_field(KEY_SIZE)
    nonce: bytes = wire_field(NONCE_SIZE)
    ciphertext: bytes = wire_field(VAR)


@record
@dataclass(frozen=True)
class SealedBlob:
    """Data sealed against an enclave identity on a specific platform."""

    bound_identity: EnclaveIdentity = wire_field(EnclaveIdentity)
    platform_id: bytes = wire_field(VAR)
    nonce: bytes = wire_field(NONCE_SIZE)
    ciphertext: bytes = wire_field(VAR)


def _sealing_key(identity: EnclaveIdentity, platform_id: bytes) -> SessionKey:
    # Stand-in for the per-platform hardware sealing key: anything holding the
    # same (identity, platform) derives the same key, nothing else does.
    return SessionKey(key=crypto.hash_bytes(b"meterfaas-seal|" + identity.encode() + b"|" + platform_id))


def seal(data: bytes, identity: EnclaveIdentity, platform_id: bytes, rng: DeterministicRng) -> SealedBlob:
    nonce = rng.bytes(NONCE_SIZE)
    ct = crypto.aead_seal(_sealing_key(identity, platform_id), nonce, data, aad=b"seal")
    return SealedBlob(bound_identity=identity, platform_id=platform_id, nonce=nonce, ciphertext=ct)


def unseal(blob: SealedBlob, identity: EnclaveIdentity, platform_id: bytes) -> bytes:
    """Round-trips only when identity and platform both match; any mismatch is
    indistinguishable from ciphertext tampering."""
    return crypto.aead_open(_sealing_key(identity, platform_id), blob.nonce, blob.ciphertext, aad=b"seal")


class KeyDistributionEnclave:
    """Single logical actor holding the current key set.

    A rotation replaces the key set and its published half. Retired key sets
    stay verifiable from their published halves, which the deployment keeps
    (signatures from before a rotation must keep checking out), but the KDE
    never redistributes them to workers.
    """

    def __init__(
        self,
        root: AttestationRoot,
        identity: EnclaveIdentity,
        seed: int | bytes,
        worker_identity: bytes,
        max_workers_per_keyset: int | None = None,
    ) -> None:
        self.root = root
        self.identity = identity
        self.worker_identity = worker_identity
        self.max_workers_per_keyset = max_workers_per_keyset
        self._rng = DeterministicRng(seed, "kde")
        self._distributions = 0
        self.keyset, self.published = self._generate(created_at=0)

    def _generate(self, created_at: int) -> tuple[KeySet, PublishedKeys]:
        rng = self._rng.child(f"keyset-{created_at}")
        k_ka = AgreementKeyPair.generate(rng.child("ka"))
        k_out = SigningKeyPair.generate(rng.child("out"))
        k_res = SigningKeyPair.generate(rng.child("res"))
        keyset = KeySet(
            k_ka=k_ka,
            k_out=k_out,
            k_res=k_res,
            keyset_id=KeySet.compute_id(k_ka.public, k_out.public, k_res.public),
            created_at=created_at,
        )
        user_data = QuoteUserData.binding(k_ka.public, k_out.public, k_res.public, self.worker_identity)
        quote = self.root.issue_quote(self.identity, user_data.encode())
        published = PublishedKeys(
            k_ka_pub=k_ka.public,
            k_out_pub=k_out.public,
            k_res_pub=k_res.public,
            created_at=created_at,
            quote=quote,
        )
        return keyset, published

    def rotate(self) -> PublishedKeys:
        """Retire the current set and mint a fresh one at the next epoch."""
        self._distributions = 0
        self.keyset, self.published = self._generate(created_at=self.keyset.created_at + 1)
        return self.published

    def distribute(self, report: WorkerReport) -> KeySetPayload:
        """Release the current private keys to a matching, attested worker.

        On any rejection no key material leaves the KDE.
        """
        try:
            identity = verify_report(self.root.public_key, report)
        except AttestationError as exc:
            raise KdeError("attestation", str(exc)) from exc
        if identity.mrenclave != self.worker_identity:
            raise KdeError("identity", "report names an unexpected worker identity")
        if self.max_workers_per_keyset is not None and self._distributions >= self.max_workers_per_keyset:
            raise KdeError("policy", "key set already distributed to the configured maximum")
        self._distributions += 1
        eph = AgreementKeyPair.generate(self._rng.child(f"transport-{self.keyset.created_at}-{self._distributions}"))
        session = crypto.derive_session_key(eph, report.transport_public)
        nonce = self._rng.bytes(NONCE_SIZE)
        ct = crypto.aead_seal(session, nonce, self.keyset.encode(), aad=eph.public)
        return KeySetPayload(kde_transport_public=eph.public, nonce=nonce, ciphertext=ct)


def open_keyset_payload(payload: KeySetPayload, transport: AgreementKeyPair) -> KeySet:
    session = crypto.derive_session_key(transport, payload.kde_transport_public)
    plain = crypto.aead_open(session, payload.nonce, payload.ciphertext, aad=payload.kde_transport_public)
    return KeySet.decode(plain)
