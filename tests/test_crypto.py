"""Crypto primitives: hashing, signatures, key agreement, AEAD, DRBG."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfaas import crypto
from meterfaas.crypto import (
    AgreementKeyPair,
    CryptoError,
    DeterministicRng,
    SessionKey,
    SigningKeyPair,
    TamperError,
    aead_open,
    aead_seal,
    derive_session_key,
    hash_bytes,
    sign,
    verify,
)

# SHA-256 of the empty string, as published everywhere
EMPTY_SHA256 = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


class TestHash:
    def test_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")

    def test_empty_string_reference_digest(self):
        assert hash_bytes(b"") == EMPTY_SHA256

    def test_single_bit_flip_changes_digest(self):
        base = b"some message for hashing"
        flipped = bytes([base[0] ^ 0x01]) + base[1:]
        assert hash_bytes(base) != hash_bytes(flipped)

    def test_digest_is_32_bytes(self):
        assert len(hash_bytes(b"x" * 1000)) == 32


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7, "x")
        b = DeterministicRng(7, "x")
        assert a.bytes(100) == b.bytes(100)

    def test_int_seed_range(self):
        # a seed is its 16 big-endian bytes, or a negative one its decimal text
        top = (1 << 128) - 1
        assert DeterministicRng(top, "x").bytes(32) == DeterministicRng(b"\xff" * 16, "x").bytes(32)
        assert DeterministicRng(-5, "x").bytes(32) == DeterministicRng(b"-5", "x").bytes(32)
        with pytest.raises(ValueError, match="does not fit in 128 bits"):
            DeterministicRng(top + 1)

    def test_label_separates_streams(self):
        assert DeterministicRng(7, "x").bytes(32) != DeterministicRng(7, "y").bytes(32)

    @pytest.mark.parametrize("upper", [0, -1])
    def test_randrange_needs_a_positive_upper(self, upper):
        with pytest.raises(ValueError, match="upper must be positive"):
            DeterministicRng(1).randrange(upper)

    def test_children_independent(self):
        root = DeterministicRng(1)
        assert root.child("a").bytes(16) != root.child("b").bytes(16)

    def test_mixed_draws_pinned(self):
        # every seeded key set, nonce and fuzz case is read from this stream,
        # so the order and size of draws must not change the bytes drawn
        rng = DeterministicRng(20261019, "mixed")
        out = hashlib.sha256()
        for n in range(101):
            out.update(rng.bytes(n))
            out.update(rng.u64().to_bytes(8, "big"))
            out.update(rng.randrange(n + 1).to_bytes(8, "big"))
            out.update(rng.randrange(1 << (n % 70 + 1)).to_bytes(9, "big"))
            if n % 7 == 0:
                child = rng.child(f"c{n}")
                out.update(child.bytes(n) + child.u64().to_bytes(8, "big"))
                out.update(child.randrange(1000).to_bytes(2, "big") + child.bytes(33))
        assert out.hexdigest() == "07f94fa05f7e8bb94e3b126b3bdcecbfac66ab4cd44cfdf877478d3535d0ce0b"


class TestSignatures:
    def setup_method(self):
        self.pair = SigningKeyPair.generate(DeterministicRng(3, "sig"))

    def test_sign_verify_roundtrip(self):
        msg = b"measurement report"
        assert verify(self.pair.public, msg, sign(self.pair, msg))

    def test_flipped_message_byte_rejected(self):
        msg = b"measurement report"
        sig = sign(self.pair, msg)
        assert not verify(self.pair.public, b"Measurement report", sig)

    def test_different_public_key_rejected(self):
        other = SigningKeyPair.generate(DeterministicRng(4, "sig"))
        msg = b"m"
        assert not verify(other.public, msg, sign(self.pair, msg))

    def test_malformed_signature_returns_false_not_crash(self):
        assert not verify(self.pair.public, b"m", b"garbage")
        assert not verify(self.pair.public, b"m", b"\x00" * 64)
        assert not verify(b"not-a-key", b"m", b"\x00" * 64)


class TestKeyAgreement:
    def test_commutative(self):
        a = AgreementKeyPair.generate(DeterministicRng(1, "ka"))
        b = AgreementKeyPair.generate(DeterministicRng(2, "ka"))
        assert derive_session_key(a, b.public) == derive_session_key(b, a.public)

    def test_distinct_peers_distinct_keys(self):
        a = AgreementKeyPair.generate(DeterministicRng(1, "ka"))
        b = AgreementKeyPair.generate(DeterministicRng(2, "ka"))
        c = AgreementKeyPair.generate(DeterministicRng(3, "ka"))
        assert derive_session_key(a, b.public) != derive_session_key(a, c.public)

    def test_malformed_peer_errors(self):
        a = AgreementKeyPair.generate(DeterministicRng(1, "ka"))
        with pytest.raises(CryptoError):
            derive_session_key(a, b"short")

    def test_symmetry_over_many_random_pairs(self):
        rng = DeterministicRng(99, "pairs")
        for _ in range(1000):
            a = AgreementKeyPair.generate(rng.child(str(rng.u64())))
            b = AgreementKeyPair.generate(rng.child(str(rng.u64())))
            assert derive_session_key(a, b.public) == derive_session_key(b, a.public)


class TestAead:
    def setup_method(self):
        self.key = SessionKey(key=DeterministicRng(5, "aead").bytes(32))

    def test_roundtrip(self):
        nonce = b"\x01" * 12
        ct = aead_seal(self.key, nonce, b"plaintext", b"aad")
        assert aead_open(self.key, nonce, ct, b"aad") == b"plaintext"

    def test_flipped_ciphertext_byte_tamper_error(self):
        nonce = b"\x01" * 12
        ct = bytearray(aead_seal(self.key, nonce, b"plaintext", b"aad"))
        ct[3] ^= 0x40
        with pytest.raises(TamperError):
            aead_open(self.key, nonce, bytes(ct), b"aad")

    def test_different_aad_tamper_error(self):
        nonce = b"\x01" * 12
        ct = aead_seal(self.key, nonce, b"plaintext", b"aad")
        with pytest.raises(TamperError):
            aead_open(self.key, nonce, ct, b"other")

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(CryptoError):
            aead_seal(self.key, b"\x01" * 8, b"p", b"")
        ct = aead_seal(self.key, b"\x01" * 12, b"p", b"")
        for size in (11, 13):
            with pytest.raises(CryptoError, match="nonce must be 12 bytes"):
                aead_open(self.key, b"\x01" * size, ct, b"")

    def test_bulk_roundtrip_and_tamper_rejection(self):
        # 10,000 randomized (key, nonce, plaintext, aad) tuples
        rng = DeterministicRng(6, "bulk")
        for i in range(10_000):
            key = SessionKey(key=rng.bytes(32))
            nonce = rng.bytes(12)
            pt = rng.bytes(rng.randrange(64))
            aad = rng.bytes(rng.randrange(16))
            ct = aead_seal(key, nonce, pt, aad)
            assert aead_open(key, nonce, ct, aad) == pt
            if i % 10 == 0:
                corrupted = bytearray(ct)
                corrupted[rng.randrange(len(corrupted))] ^= 1 + rng.randrange(255)
                with pytest.raises(TamperError):
                    aead_open(key, nonce, bytes(corrupted), aad)

    @given(st.binary(max_size=128), st.binary(max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        nonce = b"\x07" * 12
        ct = aead_seal(self.key, nonce, plaintext, aad)
        assert aead_open(self.key, nonce, ct, aad) == plaintext


class TestKeyGeneration:
    def test_seeded_generation_reproducible(self):
        a = SigningKeyPair.generate(DeterministicRng(11, "s"))
        b = SigningKeyPair.generate(DeterministicRng(11, "s"))
        assert a == b

    @pytest.mark.parametrize("cls", [SigningKeyPair, AgreementKeyPair])
    def test_pairs_from_same_private_bytes_equal(self, cls):
        private = DeterministicRng(13, "s").bytes(32)
        a, b = cls.from_private(private), cls.from_private(private)
        assert a.parsed is not b.parsed
        assert a == b and hash(a) == hash(b)
        assert a != cls.from_private(DeterministicRng(14, "s").bytes(32))

    def test_private_not_in_public(self):
        pair = SigningKeyPair.generate(DeterministicRng(12, "s"))
        assert pair.private != pair.public

    def test_session_key_not_repr_leaked(self):
        key = SessionKey(key=b"\x99" * 32)
        assert "99" not in repr(key)
