"""Key distribution enclave: generation, gated release, rotation, sealing."""

import dataclasses

import pytest

from meterfaas.attest import AttestationRoot, derive_identity, verify_transitive
from meterfaas.crypto import AgreementKeyPair, DeterministicRng, TamperError
from meterfaas.kde import (
    KdeError,
    KeyDistributionEnclave,
    KeySet,
    PublishedKeys,
    open_keyset_payload,
    seal,
    unseal,
)
from meterfaas.wire import FormatError


@pytest.fixture
def root():
    return AttestationRoot(seed=55)


@pytest.fixture
def worker_identity():
    return derive_identity(b"worker-code", b"prov")


@pytest.fixture
def kde(root, worker_identity):
    kde_identity = derive_identity(b"kde-code", b"prov")
    return KeyDistributionEnclave(root, kde_identity, seed=77, worker_identity=worker_identity.mrenclave)


class TestGeneration:
    def test_keyset_id_is_hash_of_public_keys(self, kde):
        ks = kde.keyset
        assert ks.keyset_id == KeySet.compute_id(ks.k_ka.public, ks.k_out.public, ks.k_res.public)
        assert kde.published.keyset_id == ks.keyset_id

    def test_keyset_id_rejects_short_public_key(self, kde):
        ks = kde.keyset
        with pytest.raises(FormatError):
            KeySet.compute_id(ks.k_ka.public[:31], ks.k_out.public, ks.k_res.public)

    def test_different_seeds_distinct_keysets(self, root, worker_identity):
        ident = derive_identity(b"kde-code", b"prov")
        a = KeyDistributionEnclave(root, ident, seed=1, worker_identity=worker_identity.mrenclave)
        b = KeyDistributionEnclave(root, ident, seed=2, worker_identity=worker_identity.mrenclave)
        assert a.keyset.keyset_id != b.keyset.keyset_id

    def test_quote_passes_transitive_verification(self, kde, root, worker_identity):
        pub = kde.published
        bound = verify_transitive(
            root.public_key, pub.quote, kde.identity.mrenclave,
            pub.k_ka_pub, pub.k_out_pub, pub.k_res_pub, worker_identity.mrenclave,
        )
        assert bound.worker_identity == worker_identity.mrenclave

    def test_published_keys_roundtrip(self, kde):
        data = kde.published.encode()
        assert PublishedKeys.decode(data) == kde.published

    def test_no_private_bytes_in_published_structures(self, kde):
        ks = kde.keyset
        blob = kde.published.encode() + kde.published.quote.encode()
        for private in (ks.k_ka.private, ks.k_out.private, ks.k_res.private):
            assert private not in blob


class TestDistribution:
    def test_matching_worker_can_open_payload(self, kde, root, worker_identity):
        transport = AgreementKeyPair.generate(DeterministicRng(5, "t"))
        report = root.attest_worker(worker_identity, transport.public)
        payload = kde.distribute(report)
        received = open_keyset_payload(payload, transport)
        assert received.keyset_id == kde.keyset.keyset_id
        assert received.k_res.private == kde.keyset.k_res.private

    def test_rogue_identity_rejected_no_material_leaves(self, kde, root):
        rogue = derive_identity(b"rogue-code", b"prov")
        transport = AgreementKeyPair.generate(DeterministicRng(6, "t"))
        report = root.attest_worker(rogue, transport.public)
        with pytest.raises(KdeError) as ei:
            kde.distribute(report)
        assert ei.value.reason == "identity"

    def test_tampered_report_rejected(self, kde, root, worker_identity):
        transport = AgreementKeyPair.generate(DeterministicRng(7, "t"))
        report = root.attest_worker(worker_identity, transport.public)
        other = AgreementKeyPair.generate(DeterministicRng(8, "t"))
        forged = dataclasses.replace(report, transport_public=other.public)
        with pytest.raises(KdeError) as ei:
            kde.distribute(forged)
        assert ei.value.reason == "attestation"

    def test_payload_bound_to_transport_key(self, kde, root, worker_identity):
        transport = AgreementKeyPair.generate(DeterministicRng(9, "t"))
        report = root.attest_worker(worker_identity, transport.public)
        payload = kde.distribute(report)
        wrong = AgreementKeyPair.generate(DeterministicRng(10, "t"))
        with pytest.raises(TamperError):
            open_keyset_payload(payload, wrong)

    def test_max_workers_policy_knob(self, root, worker_identity):
        ident = derive_identity(b"kde-code", b"prov")
        kde = KeyDistributionEnclave(
            root, ident, seed=3, worker_identity=worker_identity.mrenclave, max_workers_per_keyset=1
        )
        t1 = AgreementKeyPair.generate(DeterministicRng(11, "t"))
        kde.distribute(root.attest_worker(worker_identity, t1.public))
        with pytest.raises(KdeError) as ei:
            kde.distribute(root.attest_worker(worker_identity, t1.public))
        assert ei.value.reason == "policy"


class TestRotation:
    def test_rotation_increments_epoch_by_one(self, kde):
        before = kde.keyset.created_at
        kde.rotate()
        assert kde.keyset.created_at == before + 1

    def test_old_quote_still_verifies_with_lower_epoch(self, kde, root, worker_identity):
        old_pub = kde.published
        kde.rotate()
        new_pub = kde.published
        for pub in (old_pub, new_pub):
            verify_transitive(
                root.public_key, pub.quote, kde.identity.mrenclave,
                pub.k_ka_pub, pub.k_out_pub, pub.k_res_pub, worker_identity.mrenclave,
            )
        assert old_pub.created_at < new_pub.created_at

    def test_distribution_after_rotation_serves_only_new_set(self, kde, root, worker_identity):
        old_id = kde.keyset.keyset_id
        kde.rotate()
        transport = AgreementKeyPair.generate(DeterministicRng(12, "t"))
        payload = kde.distribute(root.attest_worker(worker_identity, transport.public))
        received = open_keyset_payload(payload, transport)
        assert received.keyset_id != old_id
        assert received.keyset_id == kde.keyset.keyset_id


class TestSealing:
    def test_seal_unseal_roundtrip(self):
        ident = derive_identity(b"w", b"p")
        blob = seal(b"secret keyset", ident, b"platform-1", DeterministicRng(1, "s"))
        assert unseal(blob, ident, b"platform-1") == b"secret keyset"

    def test_wrong_platform_fails(self):
        ident = derive_identity(b"w", b"p")
        blob = seal(b"secret", ident, b"platform-1", DeterministicRng(1, "s"))
        with pytest.raises(TamperError):
            unseal(blob, ident, b"platform-2")

    def test_wrong_identity_fails(self):
        ident = derive_identity(b"w", b"p")
        blob = seal(b"secret", ident, b"platform-1", DeterministicRng(1, "s"))
        other = derive_identity(b"w2", b"p")
        with pytest.raises(TamperError):
            unseal(blob, other, b"platform-1")

    def test_different_parametrization_cannot_unseal(self):
        # damage containment: parametrized enclaves have different identities
        plain = derive_identity(b"w", b"p")
        contained = derive_identity(b"w", b"p", parametrization=b"\x42" * 32)
        blob = seal(b"secret", contained, b"platform-1", DeterministicRng(1, "s"))
        with pytest.raises(TamperError):
            unseal(blob, plain, b"platform-1")
        assert unseal(blob, contained, b"platform-1") == b"secret"

    def test_sentinel_private_keys_only_inside_ciphertext(self, kde, root, worker_identity):
        # serialize a full distribution payload and scan for raw key bytes
        transport = AgreementKeyPair.generate(DeterministicRng(13, "t"))
        payload = kde.distribute(root.attest_worker(worker_identity, transport.public))
        wire = payload.encode()
        for private in (kde.keyset.k_ka.private, kde.keyset.k_out.private, kde.keyset.k_res.private):
            assert private not in wire  # AEAD ciphertext only


class TestQuoteContents:
    def test_quote_embeds_exactly_the_worker_identity(self, kde, worker_identity):
        from meterfaas.attest import QuoteUserData

        bound = QuoteUserData.decode(kde.published.quote.user_data)
        assert bound.worker_identity == worker_identity.mrenclave
