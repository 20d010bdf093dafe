"""Canonical byte encoding for every signed, hashed, or transported structure.

The rules are normative (signatures and hashes are computed over these bytes):

  * unsigned integers are big-endian, fixed width (u8 / u32 / u64);
  * a flag is one byte, 0 or 1; any other value is a FormatError;
  * fixed-size byte fields are written raw, length checked;
  * variable-size byte fields carry a 4-byte big-endian length prefix;
  * a nested record is written as a variable-size field holding its encoding;
  * optional fields carry a 1-byte presence flag (0 or 1) and, when present,
    the field encoded as above;
  * fields appear in declaration order, no padding, no framing;
  * decoding must consume the input exactly; anything else is a FormatError.

Each protocol record is a dataclass that declares every field's kind once,
on the field, with ``wire_field(kind)``, and is decorated with ``@record``
or ``@signed_record``; its fields, in declaration order, are the normative
layout of the record. ``encode``, ``decode`` and, for a signed record,
``body``, ``signed_payload``, ``sign`` and ``verify`` are generated from them.
README.md ("Wire formats") summarizes the layouts.

A field kind is ``U8``, ``U64``, ``VAR``, ``FLAG``, an int ``n`` (``n`` fixed
bytes), a record class (nested, written as a variable-size field),
``key_pair(cls)`` (a key pair, written as its private half), or ``opt(kind)``
for any of those.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

from . import crypto


class FormatError(ValueError):
    """Raised when bytes do not parse as the expected canonical structure."""


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
    # encode/decode are looked up on each call, so a wrapper installed on the
    # nested class (a tracer, say) sees these calls too
    def put(value) -> bytes:
        return _put_var(value.encode())

    def get(data: bytes, pos: int):
        chunk, pos = _get_var(data, pos)
        return cls.decode(chunk), pos

    return put, get


def _resolve(kind):
    if isinstance(kind, int):
        return _fixed(kind)
    if isinstance(kind, type):
        return _nested(kind)
    return kind


def key_pair(pair_cls: type):
    """A key pair, written as its private half (``crypto.KEY_SIZE`` bytes);
    decoding derives the public half with ``pair_cls.from_private``."""
    put, get = _fixed(crypto.KEY_SIZE)

    def put_pair(pair) -> bytes:
        return put(pair.private)

    def get_pair(data: bytes, pos: int):
        private, pos = get(data, pos)
        return pair_cls.from_private(private), pos

    return put_pair, get_pair


def opt(kind):
    """An optional field: a presence flag (0 or 1), then the field if present."""
    put, get = _resolve(kind)

    def put_opt(value) -> bytes:
        return b"\x00" if value is None else b"\x01" + put(value)

    def get_opt(data: bytes, pos: int):
        flag, pos = _get_flag(data, pos)
        return get(data, pos) if flag else (None, pos)

    return put_opt, get_opt


# --- declared records ---------------------------------------------------------


def _finish(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes")


def wire_field(kind, **field_kwargs):
    """A dataclass field written as ``kind``; ``field_kwargs`` go to
    ``dataclasses.field`` (a ``default``, say)."""
    return dataclasses.field(metadata={"wire": kind}, **field_kwargs)


def _fields(cls: type) -> list[tuple[str, object]]:
    """The dataclass's fields as ``(name, kind)``, in declaration order."""
    fields = []
    for f in dataclasses.fields(cls):
        if "wire" not in f.metadata:
            raise TypeError(f"{cls.__name__}.{f.name} has no wire kind; declare it with wire_field")
        fields.append((f.name, f.metadata["wire"]))
    return fields


def _layout(fields: list[tuple[str, object]]):
    """Resolve each field's kind once."""
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
    # attrgetter of one name returns the bare value, not a 1-tuple
    values = getter if len(names) > 1 else lambda obj: (getter(obj),)
    return names, values, put_all, get_all


def _install(cls: type, **methods) -> None:
    """Put the generated methods in the class's own namespace."""
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, classmethod(fn) if name in ("decode", "sign") else fn)


def record(cls: type) -> type:
    """Class decorator for a dataclass whose every field is a ``wire_field``:
    generate ``encode`` and ``decode`` from the fields, in declaration order."""
    _, values, put_all, get_all = _layout(_fields(cls))

    def encode(self) -> bytes:
        return put_all(values(self))

    def decode(cls, data: bytes):
        data = bytes(data)
        items, pos = get_all(data, 0)
        _finish(data, pos)
        return cls(*items)

    _install(cls, encode=encode, decode=decode)
    return cls


def signed_record(domain: bytes, signature_field: str, *, body_var: bool = False):
    """Class decorator for a signed record, a dataclass whose every field is
    a ``wire_field``. The last field, ``signature_field``, holds the
    signature over ``domain + body`` and is written after the body as its
    kind's fixed number of bytes; the fields before it make up ``body``.
    With ``body_var`` the body is written as a variable-size field.
    ``Cls.sign(pair, **body_fields)`` builds a signed instance, and
    ``rec.verify(public)`` checks its signature."""

    def apply(cls: type) -> type:
        fields = _fields(cls)
        last, size = fields.pop() if fields else (None, None)
        if last != signature_field or not isinstance(size, int):
            raise TypeError(f"{cls.__name__}: {signature_field!r} must be the last field, of a fixed size")
        names, values, put_all, get_all = _layout(fields)
        put_sig, get_sig = _fixed(size)
        signature = attrgetter(signature_field)

        def body(self) -> bytes:
            return put_all(values(self))

        def signed_payload(self) -> bytes:
            return domain + self.body()

        def encode(self) -> bytes:
            raw = self.body()
            return (_put_var(raw) if body_var else raw) + put_sig(signature(self))

        def decode(cls, data: bytes):
            data = bytes(data)
            if body_var:
                chunk, pos = _get_var(data, 0)
                items, end = get_all(chunk, 0)
                _finish(chunk, end)
            else:
                items, pos = get_all(data, 0)
            sig, pos = get_sig(data, pos)
            _finish(data, pos)
            return cls(*items, sig)

        def sign(cls, pair: crypto.SigningKeyPair, **fields):
            payload = domain + put_all([fields[name] for name in names])
            return cls(**fields, **{signature_field: crypto.sign(pair, payload)})

        def verify(self, public: bytes) -> bool:
            return crypto.verify(public, self.signed_payload(), signature(self))

        _install(cls, body=body, signed_payload=signed_payload, encode=encode, decode=decode,
                 sign=sign, verify=verify)
        return cls

    return apply
