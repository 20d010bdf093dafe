"""Reference codec: the field-by-field wire codec that ``meterfaas.wire``
compiled into struct runs, kept to check the compiled one against.

Every field is written by its own ``put`` and read by its own ``get``, one
after the other, and a signed record's body is built afresh on every call.
The primitives are as they were in ``meterfaas.wire``. What differs is only
how a record reaches them: the layouts are read from the same declared kinds
(``wire_field(kind)``) of the same protocol classes, and nested records go
through this module's ``encode``/``decode``, not the classes' own methods,
so that no compiled code is reached from here.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

from meterfaas import crypto
from meterfaas.wire import FormatError


# --- primitives: put(value) -> bytes, get(data, pos) -> (value, pos) ---------


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    end = pos + n
    if end > len(data):
        raise FormatError("truncated input")
    return data[pos:end], end


def _uint(width: int):
    bits = 8 * width
    limit = 1 << bits

    def put(value: int) -> bytes:
        if not 0 <= value < limit:
            raise FormatError(f"u{bits} out of range: {value}")
        return value.to_bytes(width, "big")

    def get(data: bytes, pos: int) -> tuple[int, int]:
        raw, pos = _take(data, pos, width)
        return int.from_bytes(raw, "big"), pos

    return put, get


def _fixed(size: int):
    def put(data: bytes) -> bytes:
        if len(data) != size:
            raise FormatError(f"fixed field expects {size} bytes, got {len(data)}")
        return bytes(data)

    def get(data: bytes, pos: int) -> tuple[bytes, int]:
        return _take(data, pos, size)

    return put, get


def _get_flag(data: bytes, pos: int) -> tuple[int, int]:
    raw, pos = _take(data, pos, 1)
    if raw[0] > 1:
        raise FormatError(f"bad flag {raw[0]}")
    return raw[0], pos


U8 = _uint(1)
_U32 = _uint(4)
U64 = _uint(8)


def _put_var(data: bytes) -> bytes:
    size = len(data)
    if size >> 32:
        raise FormatError(f"u32 out of range: {size}")
    return size.to_bytes(4, "big") + data


def _get_var(data: bytes, pos: int) -> tuple[bytes, int]:
    size, pos = _U32[1](data, pos)
    return _take(data, pos, size)


def _put_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def _get_bool(data: bytes, pos: int) -> tuple[bool, int]:
    flag, pos = _get_flag(data, pos)
    return flag == 1, pos


VAR = (_put_var, _get_var)
FLAG = (_put_bool, _get_bool)


def _nested(cls: type):
    def put(value) -> bytes:
        return _put_var(encode(value))

    def get(data: bytes, pos: int):
        chunk, pos = _get_var(data, pos)
        return decode(cls, chunk), pos

    return put, get


def key_pair(pair_cls: type):
    put, get = _fixed(crypto.KEY_SIZE)

    def put_pair(pair) -> bytes:
        return put(pair.private)

    def get_pair(data: bytes, pos: int):
        private, pos = get(data, pos)
        return pair_cls.from_private(private), pos

    return put_pair, get_pair


def opt(kind):
    put, get = _resolve(kind)

    def put_opt(value) -> bytes:
        return b"\x00" if value is None else b"\x01" + put(value)

    def get_opt(data: bytes, pos: int):
        flag, pos = _get_flag(data, pos)
        return get(data, pos) if flag else (None, pos)

    return put_opt, get_opt


def _resolve(kind):
    """This module's (put, get) for a kind declared with ``meterfaas.wire``."""
    match kind:
        case int():
            return _fixed(kind)
        case type():
            return _nested(kind)
        case ("uint", 1):
            return U8
        case ("uint", 8):
            return U64
        case ("flag",):
            return FLAG
        case ("var",):
            return VAR
        case ("key_pair", pair_cls):
            return key_pair(pair_cls)
        case ("opt", inner):
            return opt(inner)
    raise TypeError(f"not a wire kind: {kind!r}")


# --- records ------------------------------------------------------------------


def _finish(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes")


def _layout(fields: list[tuple[str, object]]):
    names = tuple(name for name, _ in fields)
    kinds = [_resolve(kind) for _, kind in fields]
    puts = tuple(put for put, _ in kinds)
    gets = tuple(get for _, get in kinds)

    def put_all(values) -> bytes:
        return b"".join([put(value) for put, value in zip(puts, values)])

    def get_all(data: bytes, pos: int) -> tuple[list, int]:
        out = []
        for get in gets:
            value, pos = get(data, pos)
            out.append(value)
        return out, pos

    getter = attrgetter(*names)
    values = getter if len(names) > 1 else lambda obj: (getter(obj),)
    return names, values, put_all, get_all


def _signed():
    """Each signed protocol class: (domain, body_var)."""
    from meterfaas.attest import QUOTE_DOMAIN, REPORT_DOMAIN, Quote, WorkerReport
    from meterfaas.metering import MEASUREMENT_DOMAIN, SignedMeasurement
    from meterfaas.worker import RECEIPT_DOMAIN, Receipt

    return {Quote: (QUOTE_DOMAIN, False), WorkerReport: (REPORT_DOMAIN, False),
            SignedMeasurement: (MEASUREMENT_DOMAIN, True), Receipt: (RECEIPT_DOMAIN, True)}


def _codec(cls: type):
    """(signed, domain, body_var, layout of the body or record, signature size)."""
    fields = [(f.name, f.metadata["wire"]) for f in dataclasses.fields(cls)]
    signed = _signed().get(cls)
    if signed is None:
        return False, b"", False, _layout(fields), 0
    _, size = fields.pop()
    return True, signed[0], signed[1], _layout(fields), size


def body(rec) -> bytes:
    _, _, _, (_, values, put_all, _), _ = _codec(type(rec))
    return put_all(values(rec))


def signed_payload(rec) -> bytes:
    return _codec(type(rec))[1] + body(rec)


def encode(rec) -> bytes:
    signed, _, body_var, (_, values, put_all, _), size = _codec(type(rec))
    if not signed:
        return put_all(values(rec))
    raw = body(rec)
    signature = getattr(rec, dataclasses.fields(rec)[-1].name)
    return (_put_var(raw) if body_var else raw) + _fixed(size)[0](signature)


def decode(cls: type, data: bytes):
    signed, _, body_var, (_, _, _, get_all), size = _codec(cls)
    data = bytes(data)
    if not signed:
        items, pos = get_all(data, 0)
        _finish(data, pos)
        return cls(*items)
    if body_var:
        chunk, pos = _get_var(data, 0)
        items, end = get_all(chunk, 0)
        _finish(chunk, end)
    else:
        items, pos = get_all(data, 0)
    sig, pos = _fixed(size)[1](data, pos)
    _finish(data, pos)
    return cls(*items, sig)


def sign(cls: type, pair: crypto.SigningKeyPair, **fields):
    _, domain, _, (names, _, put_all, _), _ = _codec(cls)
    payload = domain + put_all([fields[name] for name in names])
    signature_field = dataclasses.fields(cls)[-1].name
    return cls(**fields, **{signature_field: crypto.sign(pair, payload)})
