"""Bounded little-endian fields shared by every binary format.

QFL1 blobs, ``.dmt`` descriptor files, ``.idx`` index files and the wire's
queries and responses are all a magic followed by fixed-size fields,
u16-length-prefixed UTF-8 texts and u32-length-prefixed blobs. This module
is the one place that reads and writes those fields; it imports nothing
from the package, so every format module can use it.
"""

from __future__ import annotations

import struct

# Texts (ids, error messages) travel with a u16 length.
MAX_TEXT_BYTES = 0xFFFF


class Reader:
    """Bounded reads over one payload: every field that does not fit, does
    not decode or is followed by stray bytes raises ``error``. A declared
    length is compared with the bytes present before anything of that size
    is sliced or allocated. Over a ``memoryview``, every field it takes is
    a view of the same buffer, not a copy."""

    def __init__(self, data: bytes | memoryview, magic: bytes, what: str, error: type[Exception]):
        self.data, self.pos, self.what, self.error = data, len(magic), what, error
        if data[:len(magic)] != magic:
            raise error(f"bad {what} magic {bytes(data[:len(magic)])!r}, expected {magic!r}")

    def take(self, n: int, field: str) -> bytes | memoryview:
        if len(self.data) - self.pos < n:
            raise self.error(f"{self.what} truncated in {field} at byte {self.pos}")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str, field: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        """u16 length + UTF-8."""
        (n,) = self.unpack("H", f"{field} length")
        try:
            return str(self.take(n, field), "utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{field} is not UTF-8: {exc}") from None

    def blob(self, field: str) -> bytes | memoryview:
        """u32 length + bytes."""
        (n,) = self.unpack("I", f"{field} length")
        return self.take(n, field)

    def rest(self) -> bytes | memoryview:
        """Every byte not yet read."""
        return self.take(len(self.data) - self.pos, "rest")

    def end(self, what: str) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{len(self.data) - self.pos} trailing bytes after {what}")


def text(value: str) -> bytes:
    """u16 length + UTF-8; a text over :data:`MAX_TEXT_BYTES` raises ``ValueError``."""
    raw = value.encode("utf-8")
    if len(raw) > MAX_TEXT_BYTES:
        raise ValueError(f"text of {len(raw)} bytes exceeds the {MAX_TEXT_BYTES}-byte limit")
    return struct.pack("<H", len(raw)) + raw


def blob(value: bytes) -> bytes:
    """u32 length + bytes."""
    return struct.pack("<I", len(value)) + value
