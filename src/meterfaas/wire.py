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

A layout is compiled once, when its class is decorated. Each maximal run of
fixed-width fields (``U8``, ``U64``, ``FLAG``, ``n`` bytes) becomes one
``struct.Struct``, packed or unpacked in one call; every other field keeps
its own put/get. Values the struct refuses (out of range, not an int, not
bytes), fixed bytes of the wrong length and bytes it cannot read (short, or
a flag above 1) go to the fields' own put/get, one field after another, so
an error is always the first failing field's own.

A signed record keeps its body bytes: the body it was signed over, the
slice it was decoded from (decoding is canonical, so the slice is what
encoding gives), or, for a record built by its constructor, the body
computed on first use; ``encode``, ``signed_payload`` and ``verify`` reuse
them. No encoded byte differs from the field-by-field codec.
"""

from __future__ import annotations

import dataclasses
import struct
from itertools import groupby
from operator import attrgetter, itemgetter

from . import crypto


class FormatError(ValueError):
    """Raised when bytes do not parse as the expected canonical structure."""


# --- declared kinds; _resolve turns each into its put/get --------------------

U8 = ("uint", 1)
U64 = ("uint", 8)
FLAG = ("flag",)
VAR = ("var",)


def key_pair(pair_cls: type):
    """A key pair, written as its private half (``crypto.KEY_SIZE`` bytes);
    decoding derives the public half with ``pair_cls.from_private``."""
    return ("key_pair", pair_cls)


def opt(kind):
    """An optional field: a presence flag (0 or 1), then the field if present."""
    return ("opt", kind)


# --- primitives: put(value) -> bytes, get(data, pos) -> (value, pos) ---------


def _uint(width: int):
    bits = 8 * width
    limit = 1 << bits

    def put(value: int) -> bytes:
        if not 0 <= value < limit:
            raise FormatError(f"u{bits} out of range: {value}")
        return value.to_bytes(width, "big")

    def get(data: bytes, pos: int) -> tuple[int, int]:
        end = pos + width
        if end > len(data):
            raise FormatError("truncated input")
        return int.from_bytes(data[pos:end], "big"), end

    return put, get


def _fixed(size: int):
    def put(data: bytes) -> bytes:
        if len(data) != size:
            raise FormatError(f"fixed field expects {size} bytes, got {len(data)}")
        return bytes(data)

    def get(data: bytes, pos: int) -> tuple[bytes, int]:
        end = pos + size
        if end > len(data):
            raise FormatError("truncated input")
        return data[pos:end], end

    return put, get


def _put_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def _get_flag(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise FormatError("truncated input")
    flag = data[pos]
    if flag > 1:
        raise FormatError(f"bad flag {flag}")
    return flag, pos + 1


def _get_bool(data: bytes, pos: int) -> tuple[bool, int]:
    flag, pos = _get_flag(data, pos)
    return flag == 1, pos


def _put_var(data: bytes) -> bytes:
    size = len(data)
    if size >> 32:
        raise FormatError(f"u32 out of range: {size}")
    return size.to_bytes(4, "big") + data


def _get_var(data: bytes, pos: int) -> tuple[bytes, int]:
    start = pos + 4
    # a short length prefix reads as a smaller size, but end >= start still
    # lies past the data
    end = start + int.from_bytes(data[pos:start], "big")
    if end > len(data):
        raise FormatError("truncated input")
    return data[start:end], end


def _nested(cls: type):
    # encode/decode are looked up on each call, so a wrapper installed on the
    # nested class (a tracer, say) sees these calls too
    def put(value) -> bytes:
        return _put_var(value.encode())

    def get(data: bytes, pos: int):
        chunk, pos = _get_var(data, pos)
        return cls.decode(chunk), pos

    return put, get


def _key_pair(pair_cls: type):
    put, get = _fixed(crypto.KEY_SIZE)

    def put_pair(pair) -> bytes:
        return put(pair.private)

    def get_pair(data: bytes, pos: int):
        private, pos = get(data, pos)
        return pair_cls.from_private(private), pos

    return put_pair, get_pair


def _opt(put, get):
    def put_opt(value) -> bytes:
        return b"\x00" if value is None else b"\x01" + put(value)

    def get_opt(data: bytes, pos: int):
        flag, pos = _get_flag(data, pos)
        return get(data, pos) if flag else (None, pos)

    return put_opt, get_opt


def _resolve(kind):
    """The (put, get) of a declared kind."""
    match kind:
        case int():
            return _fixed(kind)
        case type():
            return _nested(kind)
        case ("uint", width):
            return _uint(width)
        case ("flag",):
            return _put_bool, _get_bool
        case ("var",):
            return _put_var, _get_var
        case ("key_pair", pair_cls):
            return _key_pair(pair_cls)
        case ("opt", inner):
            return _opt(*_resolve(inner))
    raise TypeError(f"not a wire kind: {kind!r}")


_CODES = {U8: "B", U64: "Q", FLAG: "?"}


def _code(kind) -> str | None:
    """The struct code of a fixed-width kind; None for any other kind."""
    if isinstance(kind, int):
        return f"{kind}s"
    return _CODES.get(kind)


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


def _layout(kinds: list):
    """Compile the kinds once: each maximal run of fixed-width kinds becomes
    one ``struct.Struct`` (flags are packed with ``?``, which writes a
    value's truth as 0 or 1, and read back as bytes to be checked); every
    other kind keeps its own put/get. Returns ``put_fields(values)`` and
    ``get_fields(data, pos) -> (values, pos)``."""
    puts, gets = zip(*map(_resolve, kinds)) if kinds else ((), ())
    put_steps = []  # (put, start, stop): put(*values[start:stop])
    get_steps = []  # (get, size): a run's unpack_from and size, or a field's get and 0
    start = 0
    for fixed, run in groupby(kinds, key=lambda kind: _code(kind) is not None):
        stop = start + len(list(run))
        if fixed:
            codes = "".join(_code(kind) for kind in kinds[start:stop])
            reader = struct.Struct(">" + codes.replace("?", "B"))
            put_steps.append((struct.Struct(">" + codes).pack, start, stop))
            get_steps.append((reader.unpack_from, reader.size))
        else:
            put_steps += [(puts[k], k, k + 1) for k in range(start, stop)]
            get_steps += [(gets[k], 0) for k in range(start, stop)]
        start = stop
    # struct pads or cuts fixed bytes, so their lengths are checked first
    sized = [k for k, kind in enumerate(kinds) if isinstance(kind, int)]
    sizes = tuple(kinds[k] for k in sized)
    flags = [k for k, kind in enumerate(kinds) if kind == FLAG]

    def put_fields(values: tuple) -> bytes:
        try:
            if tuple(map(len, map(values.__getitem__, sized))) == sizes:
                return b"".join([put(*values[i:j]) for put, i, j in put_steps])
        except (struct.error, TypeError):
            pass
        # a value struct refused, or fixed bytes of the wrong length: the
        # first failing field raises its own error
        return b"".join([put(value) for put, value in zip(puts, values)])

    def get_fields(data: bytes, pos: int) -> tuple[list, int]:
        start = pos
        out = []
        try:
            for get, size in get_steps:
                if size:
                    out += get(data, pos)
                    pos += size
                else:
                    value, pos = get(data, pos)
                    out.append(value)
        except (struct.error, FormatError):
            return _get_each(gets, data, start)
        for k in flags:
            if out[k] > 1:
                return _get_each(gets, data, start)
            out[k] = out[k] == 1
        return out, pos

    return put_fields, get_fields


def _get_each(gets, data: bytes, pos: int) -> tuple[list, int]:
    """Read field by field. Reached only for bytes the compiled layout
    refused, so the first field that fails raises its own FormatError."""
    out = []
    for get in gets:
        value, pos = get(data, pos)
        out.append(value)
    return out, pos


def _getter(names: tuple[str, ...], getter=attrgetter):
    """``getter(*names)`` that always returns a tuple."""
    get = getter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


def _install(cls: type, **methods) -> None:
    """Put the generated methods in the class's own namespace."""
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, classmethod(fn) if name in ("decode", "sign") else fn)


def record(cls: type) -> type:
    """Class decorator for a dataclass whose every field is a ``wire_field``:
    generate ``encode`` and ``decode`` from the fields, in declaration order."""
    fields = _fields(cls)
    put_fields, get_fields = _layout([kind for _, kind in fields])
    values = _getter(tuple(name for name, _ in fields))

    def encode(self) -> bytes:
        return put_fields(values(self))

    def decode(cls, data: bytes):
        data = bytes(data)
        items, pos = get_fields(data, 0)
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
    ``rec.verify(public)`` checks its signature. An instance keeps its body
    bytes (see the module docstring)."""

    def apply(cls: type) -> type:
        fields = _fields(cls)
        last, size = fields.pop() if fields else (None, None)
        if last != signature_field or not isinstance(size, int):
            raise TypeError(f"{cls.__name__}: {signature_field!r} must be the last field, of a fixed size")
        names = tuple(name for name, _ in fields)
        put_fields, get_fields = _layout([kind for _, kind in fields])
        values, given = _getter(names), _getter(names, itemgetter)
        body_names = frozenset(names)
        put_sig, get_sig = _fixed(size)
        signature = attrgetter(signature_field)
        cls._wire_body = None  # an instance's own _wire_body, once known, shadows this

        def body(self) -> bytes:
            raw = self._wire_body
            if raw is None:
                raw = put_fields(values(self))
                object.__setattr__(self, "_wire_body", raw)
            return raw

        def signed_payload(self) -> bytes:
            return domain + self.body()

        def encode(self) -> bytes:
            raw = self.body()
            return (_put_var(raw) if body_var else raw) + put_sig(signature(self))

        def decode(cls, data: bytes):
            data = bytes(data)
            if body_var:
                raw, pos = _get_var(data, 0)
                items, end = get_fields(raw, 0)
                _finish(raw, end)
            else:
                items, pos = get_fields(data, 0)
                raw = data[:pos]
            sig, pos = get_sig(data, pos)
            _finish(data, pos)
            rec = cls(*items, sig)
            object.__setattr__(rec, "_wire_body", raw)
            return rec

        def sign(cls, pair: crypto.SigningKeyPair, **fields):
            if fields.keys() != body_names:
                for name in names:
                    if name not in fields:
                        raise TypeError(f"{cls.__name__}.sign() missing body field {name!r}")
                for name in fields:
                    if name not in names:
                        raise TypeError(f"{cls.__name__}.sign() got an unexpected field {name!r}")
            raw = put_fields(given(fields))
            rec = cls(**fields, **{signature_field: crypto.sign(pair, domain + raw)})
            object.__setattr__(rec, "_wire_body", raw)
            return rec

        def verify(self, public: bytes) -> bool:
            return crypto.verify(public, domain + self.body(), signature(self))

        _install(cls, body=body, signed_payload=signed_payload, encode=encode, decode=decode,
                 sign=sign, verify=verify)
        return cls

    return apply
