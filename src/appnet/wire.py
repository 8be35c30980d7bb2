"""Big-endian binary helpers for the gossip envelope and table record codecs."""

from __future__ import annotations

import struct
from ipaddress import IPv4Address

from appnet.errors import DecodeError

_U16 = struct.Struct(">H")


class Writer:
    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, v: int) -> "Writer":
        self._buf += struct.pack(">B", v)
        return self

    def u16(self, v: int) -> "Writer":
        self._buf += struct.pack(">H", v)
        return self

    def u32(self, v: int) -> "Writer":
        self._buf += struct.pack(">I", v)
        return self

    def u64(self, v: int) -> "Writer":
        self._buf += struct.pack(">Q", v)
        return self

    def raw(self, data: bytes) -> "Writer":
        self._buf += data
        return self

    def ip4(self, addr: IPv4Address) -> "Writer":
        self._buf += addr.packed
        return self

    def lp16(self, data: bytes) -> "Writer":
        """A u16 length prefix followed by the bytes."""
        if len(data) > 0xFFFF:
            raise ValueError(f"lp16 block too large: {len(data)}")
        self.u16(len(data))
        self._buf += data
        return self

    def section(self, items: list[bytes]) -> "Writer":
        """A u32 byte-length section of lp16-prefixed entries."""
        pack = _U16.pack
        try:
            body = b"".join([pack(len(item)) + item for item in items])
        except struct.error:
            too_large = max(map(len, items))
            raise ValueError(f"section entry too large: {too_large}") from None
        self.u32(len(body))
        self._buf += body
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError(
                f"truncated frame: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def section(self) -> list[bytes]:
        length = self.u32()
        data, pos, end = self._data, self._pos, self._pos + length
        if end > len(data):
            raise DecodeError(f"truncated section: {length} bytes claimed")
        items: list[bytes] = []
        append, unpack = items.append, _U16.unpack_from
        try:
            while pos < end:
                start = pos + 2
                pos = start + unpack(data, pos)[0]
                append(data[start:pos])
        except struct.error as exc:  # a length prefix cut off by the end of the data
            raise DecodeError("section entries overran the section length") from exc
        if pos != end:
            raise DecodeError("section entries overran the section length")
        self._pos = end
        return items

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")
