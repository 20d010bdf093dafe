"""Attestation root, quotes, and the transitive trust decision."""

import dataclasses

import pytest

from meterfaas import crypto
from meterfaas.attest import (
    AttestationError,
    AttestationRoot,
    EnclaveIdentity,
    Quote,
    QuoteUserData,
    derive_identity,
    ias_verify,
    verify_report,
    verify_transitive,
)
from meterfaas.crypto import AgreementKeyPair, DeterministicRng, SigningKeyPair


@pytest.fixture
def root():
    return AttestationRoot(seed=100)


@pytest.fixture
def kde_identity():
    return derive_identity(b"kde-code-v1", b"provider")


@pytest.fixture
def worker_identity():
    return derive_identity(b"worker-code-v1", b"provider")


def make_bundle(root, kde_identity, worker_identity, seed=1):
    rng = DeterministicRng(seed, "bundle")
    kka = AgreementKeyPair.generate(rng.child("ka"))
    kout = SigningKeyPair.generate(rng.child("out"))
    kres = SigningKeyPair.generate(rng.child("res"))
    user_data = QuoteUserData(
        kka_pub_hash=crypto.hash_bytes(kka.public),
        kout_pub_hash=crypto.hash_bytes(kout.public),
        kres_pub_hash=crypto.hash_bytes(kres.public),
        worker_identity=worker_identity.mrenclave,
    ).encode()
    quote = root.issue_quote(kde_identity, user_data)
    return quote, kka, kout, kres


class TestIdentity:
    def test_same_code_same_identity(self):
        assert derive_identity(b"c", b"s") == derive_identity(b"c", b"s")

    def test_parametrization_changes_mrenclave(self):
        plain = derive_identity(b"c", b"s")
        contained = derive_identity(b"c", b"s", parametrization=b"\x01" * 32)
        assert plain.mrenclave != contained.mrenclave
        assert plain.mrsigner == contained.mrsigner


class TestQuotes:
    def test_issue_then_verify(self, root, kde_identity):
        quote = root.issue_quote(kde_identity, b"user-data")
        identity, user_data = ias_verify(root.public_key, quote)
        assert identity == kde_identity and user_data == b"user-data"

    def test_different_root_rejected(self, root, kde_identity):
        other = AttestationRoot(seed=999)
        quote = root.issue_quote(kde_identity, b"ud")
        with pytest.raises(AttestationError) as ei:
            ias_verify(other.public_key, quote)
        assert ei.value.reason == "quote-signature"

    def test_user_data_flip_rejected(self, root, kde_identity):
        quote = root.issue_quote(kde_identity, b"user-data")
        bad = dataclasses.replace(quote, user_data=b"user-dataX")
        with pytest.raises(AttestationError):
            ias_verify(root.public_key, bad)

    def test_quote_decode_truncated_user_data_is_format_error(self, root, kde_identity):
        from meterfaas.wire import FormatError

        quote = root.issue_quote(kde_identity, b"ud")
        with pytest.raises(FormatError):
            Quote.decode(quote.encode()[:-10])


class TestTransitive:
    def test_well_formed_chain_accepts(self, root, kde_identity, worker_identity):
        quote, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        bound = verify_transitive(
            root.public_key, quote, kde_identity.mrenclave,
            kka.public, kout.public, kres.public, worker_identity.mrenclave,
        )
        assert bound.worker_identity == worker_identity.mrenclave

    def test_substituted_key_rejected_with_key_hash_reason(self, root, kde_identity, worker_identity):
        quote, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        mallory = AgreementKeyPair.generate(DeterministicRng(666, "m"))
        with pytest.raises(AttestationError) as ei:
            verify_transitive(
                root.public_key, quote, kde_identity.mrenclave,
                mallory.public, kout.public, kres.public, worker_identity.mrenclave,
            )
        assert ei.value.reason == "key-hash"

    def test_wrong_kde_identity_rejected(self, root, kde_identity, worker_identity):
        quote, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        rogue = derive_identity(b"rogue-kde", b"provider")
        with pytest.raises(AttestationError) as ei:
            verify_transitive(
                root.public_key, quote, rogue.mrenclave,
                kka.public, kout.public, kres.public, worker_identity.mrenclave,
            )
        assert ei.value.reason == "kde-identity"

    def test_undecodable_user_data_rejected(self, root, kde_identity, worker_identity):
        _, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        quote = root.issue_quote(kde_identity, b"not a user-data record")
        with pytest.raises(AttestationError) as ei:
            verify_transitive(
                root.public_key, quote, kde_identity.mrenclave,
                kka.public, kout.public, kres.public, worker_identity.mrenclave,
            )
        assert ei.value.reason == "user-data-format"

    def test_wrong_worker_identity_rejected(self, root, kde_identity, worker_identity):
        quote, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        other = derive_identity(b"other-worker", b"provider")
        with pytest.raises(AttestationError) as ei:
            verify_transitive(
                root.public_key, quote, kde_identity.mrenclave,
                kka.public, kout.public, kres.public, other.mrenclave,
            )
        assert ei.value.reason == "worker-identity"

    def test_every_single_field_mutation_rejected(self, root, kde_identity, worker_identity):
        quote, kka, kout, kres = make_bundle(root, kde_identity, worker_identity)
        args = dict(
            root_public=root.public_key,
            quote=quote,
            expected_kde=kde_identity.mrenclave,
            kka_pub=kka.public,
            kout_pub=kout.public,
            kres_pub=kres.public,
            expected_worker=worker_identity.mrenclave,
        )
        # untouched bundle accepted
        verify_transitive(**args)
        rng = DeterministicRng(7, "mut")
        for field in ("expected_kde", "kka_pub", "kout_pub", "kres_pub", "expected_worker"):
            mutated = dict(args)
            mutated[field] = rng.bytes(len(args[field]))
            with pytest.raises(AttestationError):
                verify_transitive(**mutated)
        # byte-level reorder of the quoted key hashes must also reject
        ud = QuoteUserData.decode(quote.user_data)
        swapped = QuoteUserData(
            kka_pub_hash=ud.kout_pub_hash,
            kout_pub_hash=ud.kka_pub_hash,
            kres_pub_hash=ud.kres_pub_hash,
            worker_identity=ud.worker_identity,
        )
        requoted = root.issue_quote(kde_identity, swapped.encode())
        with pytest.raises(AttestationError):
            verify_transitive(**{**args, "quote": requoted})


class TestWorkerReports:
    def test_report_roundtrip(self, root, worker_identity):
        transport = AgreementKeyPair.generate(DeterministicRng(8, "t"))
        report = root.attest_worker(worker_identity, transport.public)
        assert verify_report(root.public_key, report) == worker_identity

    def test_tampered_transport_key_rejected(self, root, worker_identity):
        transport = AgreementKeyPair.generate(DeterministicRng(8, "t"))
        report = root.attest_worker(worker_identity, transport.public)
        evil = AgreementKeyPair.generate(DeterministicRng(9, "t"))
        forged = dataclasses.replace(report, transport_public=evil.public)
        with pytest.raises(AttestationError) as ei:
            verify_report(root.public_key, forged)
        assert ei.value.reason == "attestation"
