"""Canonical encoding: determinism, exact-consume decoding, injectivity."""

import dataclasses
from dataclasses import dataclass

import pytest
import reference_wire
from hypothesis import given, settings
from hypothesis import strategies as st

from meterfaas.attest import EnclaveIdentity, Quote, QuoteUserData
from meterfaas.metering import SignedMeasurement
from meterfaas.wire import U8, U64, VAR, FormatError, opt, record, signed_record, wire_field

digests = st.binary(min_size=32, max_size=32)
signatures = st.binary(min_size=64, max_size=64)


@record
@dataclass(frozen=True)
class _Scalars:
    small: int = wire_field(U8)
    blob: bytes = wire_field(VAR)
    big: int = wire_field(U64)


@record
@dataclass(frozen=True)
class _Fixed:
    key: bytes = wire_field(4)


@record
@dataclass(frozen=True)
class _Optionals:
    maybe_fixed: bytes | None = wire_field(opt(4))
    maybe_var: bytes | None = wire_field(opt(VAR))


class TestPrimitives:
    """The field kinds, through small records declared here."""

    def test_integers_big_endian_fixed_width(self):
        # the VAR length prefix is the u32
        assert _Scalars(1, b"ab", 3).encode() == b"\x01" + b"\x00\x00\x00\x02" + b"ab" + b"\x00" * 7 + b"\x03"

    def test_var_fields_length_prefixed(self):
        assert _Scalars(0, b"abc", 0).encode()[1:8] == b"\x00\x00\x00\x03abc"

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            _Scalars(256, b"", 0).encode()
        with pytest.raises(FormatError):
            _Scalars(0, b"", -1).encode()

    def test_fixed_size_checked(self):
        with pytest.raises(FormatError):
            _Fixed(b"abc").encode()

    def test_reader_truncation(self):
        # the u8, then two of the four bytes of the u32 length prefix
        with pytest.raises(FormatError):
            _Scalars.decode(b"\x00\x00\x00")

    def test_reader_trailing_bytes_rejected(self):
        data = _Scalars(0, b"", 1).encode()
        assert _Scalars.decode(data) == _Scalars(0, b"", 1)
        with pytest.raises(FormatError):
            _Scalars.decode(data + b"extra")

    def test_optional_flags(self):
        data = _Optionals(None, b"zz").encode()
        assert data == b"\x00" + b"\x01" + b"\x00\x00\x00\x02zz"
        assert _Optionals.decode(data) == _Optionals(None, b"zz")

    def test_bad_presence_flag_rejected(self):
        with pytest.raises(FormatError):
            _Optionals.decode(b"\x00\x02")

    @given(st.binary(max_size=100), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_var_u64_roundtrip(self, blob, n):
        assert _Scalars.decode(_Scalars(0, blob, n).encode()) == _Scalars(0, blob, n)


identity_st = st.builds(
    EnclaveIdentity,
    mrenclave=digests,
    mrsigner=digests,
    parametrization=st.one_of(st.none(), digests),
)

quote_st = st.builds(
    Quote,
    identity=identity_st,
    user_data=st.binary(max_size=200),
    ias_signature=signatures,
)

measurement_st = st.builds(
    SignedMeasurement,
    t_max=st.integers(0, 2**40),
    tau=st.integers(1, 2**20),
    m_int=st.integers(0, 2**50),
    m_max=st.integers(0, 2**40),
    m_avg=st.integers(0, 2**40),
    net=st.integers(0, 2**40),
    tag=digests,
    keyset_id=digests,
    signature=signatures,
)


class TestStructRoundTrips:
    @given(identity_st)
    @settings(max_examples=200, deadline=None)
    def test_identity_roundtrip(self, ident):
        assert EnclaveIdentity.decode(ident.encode()) == ident

    @given(quote_st)
    @settings(max_examples=200, deadline=None)
    def test_quote_roundtrip(self, quote):
        assert Quote.decode(quote.encode()) == quote

    @given(measurement_st)
    @settings(max_examples=200, deadline=None)
    def test_measurement_roundtrip(self, report):
        assert SignedMeasurement.decode(report.encode()) == report

    @given(quote_st)
    @settings(max_examples=100, deadline=None)
    def test_encoding_stable(self, quote):
        assert quote.encode() == quote.encode()

    def test_truncated_quote_rejected(self):
        quote = Quote(
            identity=EnclaveIdentity(b"\x01" * 32, b"\x02" * 32),
            user_data=b"ud",
            ias_signature=b"\x03" * 64,
        )
        data = quote.encode()
        with pytest.raises(FormatError):
            Quote.decode(data[:-1])
        with pytest.raises(FormatError):
            Quote.decode(data + b"\x00")

    @given(st.lists(quote_st, min_size=2, max_size=2, unique_by=lambda q: (q.user_data, q.ias_signature, q.identity.mrenclave)))
    @settings(max_examples=200, deadline=None)
    def test_injectivity_sampled(self, quotes):
        a, b = quotes
        if a != b:
            assert a.encode() != b.encode()

    def test_injectivity_over_generated_corpus(self):
        from meterfaas.crypto import DeterministicRng

        rng = DeterministicRng(123, "inj")
        seen = {}
        for i in range(2000):
            ud = QuoteUserData(
                kka_pub_hash=rng.bytes(32),
                kout_pub_hash=rng.bytes(32),
                kres_pub_hash=rng.bytes(32),
                worker_identity=rng.bytes(32),
            )
            enc = ud.encode()
            assert enc not in seen or seen[enc] == ud
            seen[enc] = ud
        assert len(seen) == 2000


def _samples() -> list:
    """One fixed instance of every protocol record per state of each of its
    optionals, built from a seeded byte stream so that the bytes never move."""
    from meterfaas.attest import WorkerReport
    from meterfaas.crypto import AgreementKeyPair, DeterministicRng, SigningKeyPair
    from meterfaas.kde import KeySet, KeySetPayload, PublishedKeys, SealedBlob
    from meterfaas.worker import (
        EncryptedRequest,
        EncryptedResponse,
        Receipt,
        RequestPlain,
        ResponsePlain,
    )

    rng = DeterministicRng(2024, "wire-golden")
    b = rng.bytes
    ident = EnclaveIdentity(b(32), b(32))
    ident_param = EnclaveIdentity(b(32), b(32), parametrization=b(32))
    quote = Quote(identity=ident_param, user_data=b(45), ias_signature=b(64))
    measurement = SignedMeasurement(
        t_max=rng.u64(), tau=100, m_int=rng.u64(), m_max=rng.randrange(1 << 40),
        m_avg=rng.randrange(1 << 30), net=rng.randrange(1 << 20),
        tag=b(32), keyset_id=b(32), signature=b(64),
    )
    receipt = Receipt(h_input=b(32), h_function=b(32), h_output=b(32), h_measurement=None,
                      keyset_id=b(32), signature=b(64))
    receipt_meas = Receipt(h_input=b(32), h_function=b(32), h_output=b(32),
                           h_measurement=measurement.digest(), keyset_id=b(32), signature=b(64))
    samples = [
        ("identity", ident),
        ("identity-param", ident_param),
        ("user-data", QuoteUserData(b(32), b(32), b(32), b(32))),
        ("quote", Quote(identity=ident, user_data=b(7), ias_signature=b(64))),
        ("quote-param", quote),
        ("worker-report", WorkerReport(identity=ident_param, transport_public=b(32), signature=b(64))),
        ("published-keys", PublishedKeys(b(32), b(32), b(32), created_at=rng.u64(), quote=quote)),
        ("keyset-payload", KeySetPayload(kde_transport_public=b(32), nonce=b(12), ciphertext=b(129))),
        ("sealed-blob", SealedBlob(bound_identity=ident, platform_id=b(6), nonce=b(12), ciphertext=b(77))),
        ("request", RequestPlain(input=b(24), function_hash=b(32), receipt_flag=False,
                                 want_measurement=False, nonce=b(16))),
        ("request-flags-token", RequestPlain(input=b(3), function_hash=b(32), receipt_flag=True,
                                             want_measurement=True, nonce=b(16), token=b(9))),
        ("request-receipt-only", RequestPlain(input=b"", function_hash=b(32), receipt_flag=True,
                                              want_measurement=False, nonce=b(16), token=b"")),
        ("request-measurement-only", RequestPlain(input=b(1), function_hash=b(32), receipt_flag=False,
                                                  want_measurement=True, nonce=b(16))),
        ("encrypted-request", EncryptedRequest(client_pub=b(32), aead_nonce=b(12), ciphertext=b(90))),
        ("measurement", measurement),
        ("receipt", receipt),
        ("receipt-measurement", receipt_meas),
        ("response", ResponsePlain(status=0, payload=b(8), nonce=b(16))),
        ("response-measurement", ResponsePlain(status=1, payload=b(5), nonce=b(16), measurement=measurement)),
        ("response-receipt", ResponsePlain(status=0, payload=b(8), nonce=b(16), receipt=receipt)),
        ("response-both", ResponsePlain(status=2, payload=b"wrong-function", nonce=b(16),
                                        measurement=measurement, receipt=receipt_meas)),
        ("encrypted-response", EncryptedResponse(aead_nonce=b(12), ciphertext=b(200))),
    ]
    # drawn after every other sample, so their bytes stay as they were
    k_ka = AgreementKeyPair.from_private(b(32))
    k_out = SigningKeyPair.from_private(b(32))
    k_res = SigningKeyPair.from_private(b(32))
    keyset = KeySet(k_ka, k_out, k_res, keyset_id=KeySet.compute_id(k_ka.public, k_out.public, k_res.public),
                    created_at=rng.u64())
    return samples + [("keyset", keyset)]


# SHA-256 of encode() and, for signed records, of signed_payload(), for each
# of _samples(), and the key-set id of the KeySet sample. Any change here
# changes what is signed, hashed, sealed or sent.
GOLDEN = {
    "identity.encode": "25e19dd36112d924038622b703462c8e58b84e49635dc02f4518b8f6daa639be",
    "identity-param.encode": "ddef07f606aa1fa7ca71357c5a1fc7dfb912a0ec501a1505fe9f09a1a495aaef",
    "user-data.encode": "43df331c725d70069345da504ad2df2ae6e55767390af5bb482641559cfa19d7",
    "quote.encode": "d534e633a3c7c86eb501d7d765cb00368a80a7cee0211196186482839433bc04",
    "quote.signed_payload": "e01ee996f363a210c68ed2aa1ef4be3c0b151e420ee53b4fe1750d97781cc5bc",
    "quote-param.encode": "2597f3554cab19863d7e7edfec46b3907a8c99c7518f8e61616e1293f8f4bc4f",
    "quote-param.signed_payload": "c536ad53bcb9953fa9f09f60447fd13e8cd747f5512f81b2618b5c5a305342fe",
    "worker-report.encode": "997eb7d100c6c5dec900e669d3b21ef8a9607683f399ede4faf4be77360f8e54",
    "worker-report.signed_payload": "345838824d387d6a80baaffafd3e321c9ab4f0ca4d5d4fd74731c7e814245c9f",
    "published-keys.encode": "f01ab1d699ae73d7392b6dcbc93eb69db294e760b7dcbc3aab7438ea8f358f79",
    "keyset-payload.encode": "c3027b6b1576d30868384f5f3e52dea9e1fd331aafcc59da932e10997bdba058",
    "sealed-blob.encode": "2d2fba2b97111db38be0b79a715b9fc30715ac0b953fc452b3da5649ae460ca5",
    "request.encode": "67d2465af985551fe33f5d37a2f16e5e5196a6512629544fb1ed60f688b8e32f",
    "request-flags-token.encode": "dc27f907889130cc9113b72f88080d7e7fca3af29ab37ce1a45c81527cbb7e05",
    "request-receipt-only.encode": "5376aab33a9be669ca4194afa2ba9935388ec4c999b74e856d18aeea1889b925",
    "request-measurement-only.encode": "6b337bee4499eefc1e46d0a7f905827565e7511ec24dee8bf73373706787db62",
    "encrypted-request.encode": "1ce953305a28e2a7785844d584407c656507900506e9508e925d591a38a8fc0d",
    "measurement.encode": "a543135136051bd5a69e10e6137046e6f45bc1126ea0a19f511edff6562135d9",
    "measurement.signed_payload": "20bb94ca3982d59ab16951c8dcbac66db6c4fe0593dd58e3c9dec5e841187e74",
    "receipt.encode": "ba1c1338ce388fe4623e394e1073dbaf21ccf0a3c4a20e362da01bda92376380",
    "receipt.signed_payload": "41c3e260d45ca1aceba28d274301540780658eb22301eebc592a30b5f1ec8403",
    "receipt-measurement.encode": "b2f0137997da7a8c5e5e4331373df620ef979c151f1d81b465f5bfbae14c4a1b",
    "receipt-measurement.signed_payload": "d28132e3713644432b58d8f9fe5584a4ed4ad124a6e05e002233f33153674952",
    "response.encode": "574f680e2b711e01834bb7440133b25558c874cd00438a74eed754e8967efb2a",
    "response-measurement.encode": "7e3dc0b1d96cb725136184de4c69b1bef7cb5e1b79fbb8093d52c3edd061509b",
    "response-receipt.encode": "636cbfa7b51c1a93d6960bce47696ddf344cf89f322f785dee7de1485b449b5e",
    "response-both.encode": "98fea2812854dd46c40f41fd054fba325a912f6c24b593534a7d6045543ae261",
    "encrypted-response.encode": "b66e65a74fb3ebbdd5d39ae12cdd0c8e6788887d46f246a014270bc8840ce011",
    "keyset.encode": "ad90b2b6e2406acf8b3cc15a0eb7f8ad1cc97fb2c34449af81c2560c0c2741ec",
    "keyset.id": "993a036b6d92b2d1d84b2cd51140ba87488eada7902679073d04f1090050a8b9",
}


class TestGoldenVectors:
    def _digests(self):
        import hashlib

        out = {}
        for name, rec in _samples():
            out[f"{name}.encode"] = hashlib.sha256(rec.encode()).hexdigest()
            if hasattr(rec, "signed_payload"):
                out[f"{name}.signed_payload"] = hashlib.sha256(rec.signed_payload()).hexdigest()
            if hasattr(rec, "compute_id"):
                out[f"{name}.id"] = rec.compute_id(rec.k_ka.public, rec.k_out.public, rec.k_res.public).hex()
        return out

    def test_bytes_pinned(self):
        assert self._digests() == GOLDEN

    def test_every_record_class_covered(self):
        classes = {type(rec).__name__ for _, rec in _samples()}
        assert classes == {
            "EnclaveIdentity", "QuoteUserData", "Quote", "WorkerReport", "PublishedKeys",
            "KeySetPayload", "SealedBlob", "RequestPlain", "EncryptedRequest", "Receipt",
            "ResponsePlain", "EncryptedResponse", "SignedMeasurement", "KeySet",
        }

    @pytest.mark.parametrize("name,rec", _samples(), ids=[n for n, _ in _samples()])
    def test_roundtrip_exact_consume(self, name, rec):
        data = rec.encode()
        assert type(rec).decode(data) == rec
        with pytest.raises(FormatError):
            type(rec).decode(data[:-1])
        with pytest.raises(FormatError):
            type(rec).decode(data + b"\x00")


class TestFlags:
    def _request(self):
        from meterfaas.worker import RequestPlain

        return RequestPlain(input=b"abc", function_hash=b"\x05" * 32, receipt_flag=True,
                            want_measurement=False, nonce=b"\x06" * 16)

    @pytest.mark.parametrize("offset", [0, 1], ids=["receipt_flag", "want_measurement"])
    @pytest.mark.parametrize("value", [2, 255])
    def test_request_flag_bytes_other_than_0_or_1_rejected(self, offset, value):
        from meterfaas.worker import RequestPlain

        data = bytearray(self._request().encode())
        pos = 4 + 3 + 32 + offset  # after the input (u32 length + 3 bytes) and the function hash
        assert data[pos] in (0, 1)
        data[pos] = value
        with pytest.raises(FormatError):
            RequestPlain.decode(bytes(data))

    def test_request_flags_roundtrip(self):
        from meterfaas.worker import RequestPlain

        req = self._request()
        data = req.encode()
        assert data[4 + 3 + 32 : 4 + 3 + 34] == b"\x01\x00"
        assert RequestPlain.decode(data) == req


class TestDeclaredLayout:
    def test_field_without_wire_kind_rejected(self):
        with pytest.raises(TypeError, match="Missing.b has no wire kind"):
            @record
            @dataclass(frozen=True)
            class Missing:
                a: int = wire_field(U64)
                b: int = 0

        with pytest.raises(TypeError, match="Unsigned.signature has no wire kind"):
            @signed_record(b"d|", "signature")
            @dataclass(frozen=True)
            class Unsigned:
                a: int = wire_field(U64)
                signature: bytes = b""

        with pytest.raises(TypeError, match="not a wire kind: 'u16'"):
            @record
            @dataclass(frozen=True)
            class Unknown:
                a: int = wire_field("u16")

    def test_signature_field_must_be_last_and_fixed_size(self):
        with pytest.raises(TypeError, match="'signature' must be the last field"):
            @signed_record(b"d|", "signature")
            @dataclass(frozen=True)
            class NotLast:
                signature: bytes = wire_field(64)
                a: int = wire_field(U64)

        with pytest.raises(TypeError, match="'signature' must be the last field, of a fixed size"):
            @signed_record(b"d|", "signature")
            @dataclass(frozen=True)
            class VarSignature:
                a: int = wire_field(U64)
                signature: bytes = wire_field(VAR)

    def test_signature_size_is_its_field_kind(self):
        @signed_record(b"d|", "sig")
        @dataclass(frozen=True)
        class Short:
            a: int = wire_field(U8)
            sig: bytes = wire_field(3)

        assert Short(7, b"xyz").encode() == b"\x07xyz"
        assert Short.decode(b"\x07xyz") == Short(7, b"xyz")
        with pytest.raises(FormatError):
            Short.decode(b"\x07" + bytes(64))

    def test_single_field_record_roundtrip(self):
        assert _Fixed(b"abcd").encode() == b"abcd"
        assert _Fixed.decode(b"abcd") == _Fixed(b"abcd")

    def test_sign_record_signs_domain_and_body(self):
        from meterfaas import crypto
        from meterfaas.crypto import DeterministicRng, SigningKeyPair
        from meterfaas.metering import MEASUREMENT_DOMAIN

        key = SigningKeyPair.generate(DeterministicRng(1, "sign-record"))
        report = SignedMeasurement.sign(key, t_max=1, tau=2, m_int=3, m_max=4,
                                        m_avg=5, net=6, tag=b"\x01" * 32, keyset_id=b"\x02" * 32)
        assert report.signed_payload() == MEASUREMENT_DOMAIN + report.body()
        assert crypto.verify(key.public, report.signed_payload(), report.signature)
        assert (report.t_max, report.net, report.keyset_id) == (1, 6, b"\x02" * 32)


def _signed_bodies() -> list:
    """The body fields of one instance of each signed protocol record."""
    from meterfaas.attest import WorkerReport
    from meterfaas.crypto import DeterministicRng
    from meterfaas.worker import Receipt

    b = DeterministicRng(28, "signed-bodies").bytes
    ident = EnclaveIdentity(b(32), b(32), parametrization=b(32))
    bodies = [
        (Quote, dict(identity=ident, user_data=QuoteUserData(b(32), b(32), b(32), b(32)).encode())),
        (WorkerReport, dict(identity=ident, transport_public=b(32))),
        (SignedMeasurement, dict(t_max=9, tau=100, m_int=1 << 40, m_max=4096, m_avg=77, net=3,
                                 tag=b(32), keyset_id=b(32))),
        (Receipt, dict(h_input=b(32), h_function=b(32), h_output=b(32), h_measurement=b(32),
                       keyset_id=b(32))),
    ]
    return [pytest.param(cls, body, id=cls.__name__) for cls, body in bodies]


class TestSignedRecords:
    """Every signed record signs and verifies itself: it verifies under its
    signer's key and under no other, and no decodable one-byte change to its
    encoding leaves the signature valid."""

    @pytest.mark.parametrize("cls, body", _signed_bodies())
    def test_sign_then_verify_and_tamper(self, cls, body):
        from meterfaas.crypto import SIGNATURE_SIZE, DeterministicRng, SigningKeyPair

        pair = SigningKeyPair.generate(DeterministicRng(1, cls.__name__))
        other = SigningKeyPair.generate(DeterministicRng(2, cls.__name__))
        rec = cls.sign(pair, **body)
        assert rec.verify(pair.public)
        assert not rec.verify(other.public)
        data = rec.encode()
        assert cls.decode(data).verify(pair.public)

        def flipped(pos: int, mask: int = 0x01) -> bytes:
            return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]

        sig_start = len(data) - SIGNATURE_SIZE
        assert not cls.decode(flipped(sig_start + 5, 0x10)).verify(pair.public)
        decoded_positions = []
        for pos in range(sig_start):
            try:
                tampered = cls.decode(flipped(pos))
            except FormatError:
                continue  # a length, flag or nesting byte: the change does not parse
            assert tampered != rec
            assert not tampered.verify(pair.public), pos
            decoded_positions.append(pos)
        # the body's last byte (a key, digest or user-data byte) always parses
        assert sig_start - 1 in decoded_positions


# --- the compiled codec against the field-by-field reference -------------------


def _outcome(fn, *args):
    """What a codec call gives: its value, or its exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc).__name__, str(exc)


def _record_classes() -> list:
    return sorted({type(rec) for _, rec in _samples()}, key=lambda cls: cls.__name__)


def _kinds(cls) -> list:
    return [(f.name, f.metadata["wire"]) for f in dataclasses.fields(cls)]


def _strategy(kind):
    """Values of one declared kind, drawn to fit it."""
    from meterfaas.crypto import KEY_SIZE

    match kind:
        case int():
            return st.binary(min_size=kind, max_size=kind)
        case type():
            return _record_strategy(kind)
        case ("uint", width):
            return st.integers(0, (1 << (8 * width)) - 1)
        case ("flag",):
            return st.booleans()
        case ("var",):
            return st.binary(max_size=40)
        case ("key_pair", pair_cls):
            return st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE).map(pair_cls.from_private)
        case ("opt", inner):
            return st.none() | _strategy(inner)
    raise TypeError(kind)


def _record_strategy(cls):
    return st.builds(cls, **{name: _strategy(kind) for name, kind in _kinds(cls)})


def _bad_values(kind) -> list:
    """Values a field of this kind must refuse, and a few it takes that
    ``struct`` handles its own way (``True`` for an int, a list of ints or a
    bytearray for fixed bytes, any object's truth for a flag)."""
    match kind:
        case int():
            return [bytes(kind - 1), bytes(kind + 1), b"", "x" * kind, None, 7,
                    list(range(kind)), bytearray(kind)]
        case ("uint", width):
            return [-1, 1 << (8 * width), 1.5, 3.0, "7", None, b"\x01", True]
        case ("flag",):
            return [2, -1, None, "", "no", [], 0.0]
    return []


def _variants(rec) -> list:
    """``rec`` with one field, or one field of one nested record, set to each
    of its kind's bad values."""
    out = []
    for name, kind in _kinds(type(rec)):
        value = getattr(rec, name)
        for bad in _bad_values(kind):
            out.append((f"{name}={bad!r}", dataclasses.replace(rec, **{name: bad})))
        if dataclasses.is_dataclass(value) and not hasattr(value, "parsed"):
            for label, inner in _variants(value):
                out.append((f"{name}.{label}", dataclasses.replace(rec, **{name: inner})))
    return out


def _mutants(data: bytes):
    """Every truncation, every byte set to 0x00, 0x01, 0x02 and 0xff, and one
    appended byte."""
    for end in range(len(data)):
        yield data[:end]
    for pos in range(len(data)):
        for value in (0x00, 0x01, 0x02, 0xFF):
            if data[pos] != value:
                yield data[:pos] + bytes([value]) + data[pos + 1:]
    yield data + b"\x00"


class TestReferenceCodec:
    """The compiled codec gives what the field-by-field codec in
    tests/reference_wire.py gives: the same bytes, the same decoded record,
    or the same exception type and message."""

    @staticmethod
    def _check_record(rec):
        cls = type(rec)
        assert _outcome(rec.encode) == _outcome(reference_wire.encode, rec)
        data = reference_wire.encode(rec)
        assert cls.decode(data) == reference_wire.decode(cls, data) == rec
        if hasattr(rec, "signed_payload"):
            assert rec.body() == reference_wire.body(rec)
            assert rec.signed_payload() == reference_wire.signed_payload(rec)

    @pytest.mark.parametrize("name,rec", _samples(), ids=[n for n, _ in _samples()])
    def test_samples(self, name, rec):
        self._check_record(rec)

    @pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_records(self, cls, data):
        self._check_record(data.draw(_record_strategy(cls)))

    @pytest.mark.parametrize("name,rec", _samples(), ids=[n for n, _ in _samples()])
    def test_byte_mutants_decode_alike(self, name, rec):
        cls = type(rec)
        decoded = 0
        for data in _mutants(rec.encode()):
            got = _outcome(cls.decode, data)
            assert got == _outcome(reference_wire.decode, cls, data), data.hex()
            if got[0] == "ok":
                decoded += 1
                # decoding is canonical: what decodes encodes back to its input
                assert got[1].encode() == data
        assert decoded > 0

    @pytest.mark.parametrize("name,rec", _samples(), ids=[n for n, _ in _samples()])
    def test_bad_field_values_encode_alike(self, name, rec):
        variants = _variants(rec)
        if not variants:
            pytest.skip("no fixed-width field")
        for label, bad in variants:
            got = _outcome(bad.encode)
            assert got == _outcome(reference_wire.encode, bad), label
            if hasattr(bad, "body"):
                assert _outcome(bad.body) == _outcome(reference_wire.body, bad), label

    def test_struct_specific_cases_are_covered(self):
        # the cases struct handles unlike the field-by-field code: a range or
        # type error, bytes of the wrong length (struct pads them), a flag
        # byte above 1 inside a fixed run, a truncation inside a fixed run
        from meterfaas.worker import RequestPlain

        req = dict(_samples())["request-flags-token"]
        data = req.encode()
        flag_at = 4 + len(req.input) + 32
        for bad in (data[:flag_at] + b"\x02" + data[flag_at + 1:], data[:flag_at + 5]):
            assert _outcome(RequestPlain.decode, bad) == _outcome(reference_wire.decode, RequestPlain, bad)
        assert _outcome(RequestPlain.decode, data[:flag_at] + b"\x02")[1] == "bad flag 2"
        assert _outcome(RequestPlain.decode, data[:flag_at + 5])[1] == "truncated input"
        report = dict(_samples())["measurement"]
        for field, value, message in (("m_max", 1 << 64, f"u64 out of range: {1 << 64}"),
                                      ("tag", b"\x01" * 31, "fixed field expects 32 bytes, got 31")):
            bad = dataclasses.replace(report, **{field: value})
            assert _outcome(bad.encode) == ("FormatError", message)

    @pytest.mark.parametrize("cls, body", _signed_bodies())
    def test_sign_matches_reference(self, cls, body):
        from meterfaas.crypto import DeterministicRng, SigningKeyPair

        pair = SigningKeyPair.generate(DeterministicRng(3, cls.__name__))
        assert cls.sign(pair, **body) == reference_wire.sign(cls, pair, **body)


class TestKeptBody:
    """A signed record built by ``sign``, by ``decode`` or by its constructor
    is the same record, and keeps the body bytes of its own fields."""

    @pytest.mark.parametrize("cls, body", _signed_bodies())
    def test_three_ways_agree(self, cls, body):
        from meterfaas.crypto import DeterministicRng, SigningKeyPair

        pair = SigningKeyPair.generate(DeterministicRng(4, cls.__name__))
        signed = cls.sign(pair, **body)
        signature_field = dataclasses.fields(cls)[-1].name
        built = cls(**body, **{signature_field: getattr(signed, signature_field)})
        decoded = cls.decode(signed.encode())
        expected = reference_wire.body(signed)
        for rec in (signed, decoded, built):
            assert rec.body() == expected
            assert rec.body() is rec.body()  # kept, not rebuilt
            assert rec.encode() == signed.encode() == reference_wire.encode(rec)
            assert rec.signed_payload() == signed.signed_payload()
            assert rec == signed and hash(rec) == hash(signed) and repr(rec) == repr(signed)
            assert rec.verify(pair.public)
            assert "_wire_body" not in repr(rec)

    @pytest.mark.parametrize("cls, body", _signed_bodies())
    def test_replaced_copy_encodes_its_new_field(self, cls, body):
        from meterfaas.crypto import DeterministicRng, SigningKeyPair

        pair = SigningKeyPair.generate(DeterministicRng(5, cls.__name__))
        signed = cls.sign(pair, **body)
        decoded = cls.decode(signed.encode())
        name, kind = _kinds(cls)[1]
        value = getattr(signed, name)
        changed = bytes([value[0] ^ 0xFF]) + value[1:] if isinstance(value, bytes) else value + 1
        for rec in (signed, decoded):
            copy = dataclasses.replace(rec, **{name: changed})
            assert copy.body() == reference_wire.body(copy) != rec.body()
            assert copy.encode() == reference_wire.encode(copy)
            assert not copy.verify(pair.public)
            assert rec.verify(pair.public)


class TestSignChecksFieldsFirst:
    """``Cls.sign`` names a missing or unknown body field in a TypeError, and
    signs nothing."""

    BODY = dict(t_max=1, tau=2, m_int=3, m_max=4, m_avg=5, net=6, tag=b"\x01" * 32, keyset_id=b"\x02" * 32)

    def _sign(self, monkeypatch, **fields):
        from meterfaas import crypto
        from meterfaas.crypto import DeterministicRng, SigningKeyPair

        signed = []
        real = crypto.sign
        monkeypatch.setattr(crypto, "sign", lambda pair, message: signed.append(message) or real(pair, message))
        key = SigningKeyPair.generate(DeterministicRng(1, "sign-fields"))
        with pytest.raises(TypeError) as info:
            SignedMeasurement.sign(key, **fields)
        assert signed == []
        return str(info.value)

    def test_missing_field(self, monkeypatch):
        body = {k: v for k, v in self.BODY.items() if k != "keyset_id"}
        assert self._sign(monkeypatch, **body) == "SignedMeasurement.sign() missing body field 'keyset_id'"

    @pytest.mark.parametrize("extra", ["unknown", "signature"])
    def test_unknown_field(self, monkeypatch, extra):
        message = self._sign(monkeypatch, **self.BODY, **{extra: b"x"})
        assert message == f"SignedMeasurement.sign() got an unexpected field {extra!r}"


class TestCodecWork:
    """The codec's work per warm echo invocation, counted with
    ``sys.setprofile``: Python calls into wire.py, and body builds of each
    signed record on each side (the field-by-field codec made 222 calls and
    built the measurement's body five times and the receipt's three)."""

    MAX_WIRE_CALLS = 78

    def test_calls_and_body_builds(self):
        import sys

        from meterfaas import corpus as corp
        from meterfaas import orchestrator, wire
        from meterfaas.attest import AttestationRoot, derive_identity
        from meterfaas.crypto import hash_bytes
        from meterfaas.kde import KeyDistributionEnclave
        from meterfaas.metering import MeterConfig
        from meterfaas.vm import assemble

        root = AttestationRoot(seed=b"codec-work")
        kde_id, worker_id = derive_identity(b"k", b"p"), derive_identity(b"w", b"p")
        kde = KeyDistributionEnclave(root, kde_id, seed=1, worker_identity=worker_id.mrenclave)
        pool = orchestrator.WorkerPool(kde, worker_id, size=1, meter_cfg=MeterConfig(tau=100))
        ctx = orchestrator.ClientContext.create(root.public_key, kde.published, kde_id.mrenclave,
                                                worker_id.mrenclave)
        echo = assemble(corp.ECHO_WORD_SOURCE)
        calls = 0
        builds = {}

        def profile(frame, event, arg):
            nonlocal calls
            if event != "call" or frame.f_code.co_filename != wire.__file__:
                return
            calls += 1
            caller = frame.f_back
            if frame.f_code.co_name == "put_fields" and caller.f_code.co_name in ("body", "sign"):
                owner = caller.f_locals.get("cls") or type(caller.f_locals["self"])
                builds[(side, owner.__name__)] = builds.get((side, owner.__name__), 0) + 1

        def counted(name, fn, *args):
            nonlocal side
            side = name
            sys.setprofile(profile)
            try:
                return fn(*args)
            finally:
                sys.setprofile(None)

        def invoke():
            request, pending = counted("client", orchestrator.client_prepare, ctx, hash_bytes(echo),
                                       corp.words(7), True, True, b"token")
            dispatched = counted("worker", pool.dispatch, request, echo)
            result = counted("client", orchestrator.client_verify_response, pending, dispatched.response)
            counted("provider", orchestrator.provider_verify_measurement, result.measurement,
                    kde.published, {hash_bytes(b"token")})

        side = None
        invoke()  # cold: key fetch, sealing, function load
        calls, builds = 0, {}
        invoke()
        assert calls <= self.MAX_WIRE_CALLS, calls
        assert builds == {("worker", "SignedMeasurement"): 1, ("worker", "Receipt"): 1}
