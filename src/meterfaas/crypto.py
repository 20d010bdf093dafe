"""Deterministic cryptographic primitives shared by every protocol message.

Concrete algorithm choices (the contracts fix only sizes and behavior):
SHA-256 for hashing (32-byte digests), Ed25519 for signatures, X25519 for key
agreement, AES-256-GCM for AEAD with 96-bit nonces. All key generation takes an
explicit seed so traces and tests reproduce exactly.

Each key pair parses its private key once, when it is made, and keeps the parsed
object: ``sign`` and ``derive_session_key`` take the pair, so a signature costs
no key parsing and a derivation runs one scalar multiplication. A client
derives its session key with the key set's ``k_ka`` once per context; KDE
transport keys stay ephemeral, one derivation per setup; AEAD nonces are drawn
fresh for every message. A session key builds its AES-GCM cipher once, so
sealing and opening under it construct no cipher.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TypeVar

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

DIGEST_SIZE = 32
KEY_SIZE = 32
SIGNATURE_SIZE = 64
NONCE_SIZE = 12  # 96-bit AEAD nonce


class ReasonError(Exception):
    """A rejection whose ``reason`` is a stable machine-readable code; the
    optional ``detail`` only lengthens the message."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class CryptoError(Exception):
    """Key agreement or decryption failure; no partial plaintext is released."""


class TamperError(CryptoError):
    """AEAD authentication failed: key, nonce, aad, or ciphertext mismatch."""


def hash_bytes(data: bytes) -> bytes:
    """32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


class DeterministicRng:
    """Counter-mode SHA-256 byte stream from an integer or byte seed.

    Not a secure RNG; it exists so that whole deployments (key sets, nonces,
    fuzz cases) replay byte-identically from one seed. An int seed must be
    below 2**128; a negative one is taken by its decimal text.
    """

    def __init__(self, seed: int | bytes, label: str = "") -> None:
        if isinstance(seed, int):
            if seed >= 1 << 128:
                raise ValueError(f"seed {seed} does not fit in 128 bits")
            seed = seed.to_bytes(16, "big") if seed >= 0 else str(seed).encode()
        self._key = hashlib.sha256(b"meterfaas-rng|" + label.encode() + b"|" + seed).digest()
        self._counter = 0
        self._buffer = b""
        self._pos = 0  # bytes of the buffer already drawn

    def bytes(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > len(self._buffer):
            blocks = [self._buffer[pos:]]
            have = len(blocks[0])
            while have < n:
                blocks.append(hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest())
                self._counter += 1
                have += DIGEST_SIZE
            self._buffer = b"".join(blocks)
            pos, end = 0, n
        self._pos = end
        return self._buffer[pos:end]

    def u64(self) -> int:
        return int.from_bytes(self.bytes(8), "big")

    def randrange(self, upper: int) -> int:
        if upper <= 0:
            raise ValueError("upper must be positive")
        return self.u64() % upper

    def child(self, label: str) -> "DeterministicRng":
        return DeterministicRng(self.bytes(32), label)


_Pair = TypeVar("_Pair", bound="KeyPair")


@dataclass(frozen=True)
class KeyPair:
    """A private key and its public half. ``parsed`` is the private key,
    parsed once at construction by the subclass's ``_private_key`` class; it
    takes no part in equality, hashing or repr."""

    private: bytes
    public: bytes
    parsed: Ed25519PrivateKey | X25519PrivateKey = field(compare=False, repr=False)

    @classmethod
    def from_private(cls: type[_Pair], private: bytes) -> _Pair:
        parsed = cls._private_key.from_private_bytes(private)
        return cls(private=private, public=parsed.public_key().public_bytes_raw(), parsed=parsed)

    @classmethod
    def generate(cls: type[_Pair], rng: DeterministicRng) -> _Pair:
        return cls.from_private(rng.bytes(KEY_SIZE))


class SigningKeyPair(KeyPair):
    """Ed25519 pair; houses the shapes of the output and measurement keys."""

    _private_key = Ed25519PrivateKey


class AgreementKeyPair(KeyPair):
    """X25519 pair; houses the worker key-agreement and client keys."""

    _private_key = X25519PrivateKey


@dataclass(frozen=True)
class SessionKey:
    """Symmetric key determined by the unordered pair of agreement key pairs.
    ``cipher`` is the key's AES-GCM cipher, built once at construction; it
    takes no part in equality, hashing or repr."""

    key: bytes = field(repr=False)
    cipher: AESGCM = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cipher", AESGCM(self.key))


def sign(pair: SigningKeyPair, message: bytes) -> bytes:
    return pair.parsed.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs return False, never raise."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def derive_session_key(mine: AgreementKeyPair, peer_public: bytes) -> SessionKey:
    """X25519 exchange hashed with both public keys in sorted order.

    Sorting makes the derivation symmetric in the participants, so
    derive(a, B) == derive(b, A) holds by construction. The pair's parsed key
    and public half are reused: one scalar multiplication per call.
    """
    try:
        shared = mine.parsed.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as exc:
        raise CryptoError(f"key agreement failed: {exc}") from exc
    lo, hi = sorted((mine.public, peer_public))
    return SessionKey(key=hash_bytes(b"meterfaas-session|" + shared + lo + hi))


def aead_seal(key: SessionKey, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
    return key.cipher.encrypt(nonce, plaintext, aad)


def aead_open(key: SessionKey, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
    try:
        return key.cipher.decrypt(nonce, ciphertext, aad)
    except InvalidTag as exc:
        raise TamperError("AEAD authentication failed") from exc
