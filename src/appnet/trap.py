"""The virtual socket boundary between applications and their node.

Applications never touch the network directly: control-plane calls (socket,
bind, listen, connect, accept, name queries, datagram send/receive, close)
travel as request/reply frames over a per-app channel, and established
connections come back as live transports the app then uses without any
further involvement from the node. Plain reads and writes are not
representable in this protocol at all.

Frame layout, both directions, big-endian: version byte 0x01, op/status
byte, u32 handle id, 4-byte address, u16 port, u32 payload length, payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv4Address
from typing import Callable, Optional, Protocol

from appnet import errors

TRAP_VERSION = 0x01
# Version, op/status, handle, ip, port, payload length.
_HEADER = struct.Struct(">BBIIHI")
HEADER_SIZE = _HEADER.size
MAX_DGRAM = 60000
MAX_FRAME_PAYLOAD = 1 << 20

Addr = tuple[IPv4Address, int]

_ZERO_IP = IPv4Address("0.0.0.0")


class HandleKind(Enum):
    STREAM = 0
    DATAGRAM = 1


class TrapOp(Enum):
    SOCKET = 1
    BIND = 2
    LISTEN = 3
    CONNECT = 4
    ACCEPT = 5
    GET_SOCK_NAME = 6
    GET_PEER_NAME = 7
    SEND_TO = 8
    RECV_FROM = 9
    CLOSE = 10


# Ops whose requests carry an address; for everything else the address
# field is padding and decodes as absent.
_ADDR_OPS = frozenset({TrapOp.BIND, TrapOp.CONNECT, TrapOp.SEND_TO})
# Wire code -> (op, whether its requests carry an address).
_OPS_BY_CODE = {op.value: (op, op in _ADDR_OPS) for op in TrapOp}

STATUS_OK = 0

_STATUS_BY_ERROR: dict[type, int] = {
    errors.DecodeError: 1,
    errors.AttachFailed: 2,
    errors.BadHandle: 3,
    errors.AddrInUse: 4,
    errors.Unidentified: 5,
    errors.NoSuchService: 6,
    errors.Denied: 7,
    errors.ConnRefused: 8,
    errors.NotConnected: 9,
    errors.MessageTooLong: 10,
    errors.WouldBlock: 11,
    errors.DuplicateAppBinding: 12,
    errors.AmbiguousName: 13,
    errors.PoolExhausted: 14,
    errors.InvalidVip: 15,
    errors.InvalidSpec: 16,
}
_ERROR_BY_STATUS = {code: exc for exc, code in _STATUS_BY_ERROR.items()}
_INTERNAL_STATUS = 99


@dataclass(slots=True)
class TrapRequest:
    op: TrapOp
    handle: int = 0
    addr: Optional[Addr] = None
    payload: bytes = b""


@dataclass(slots=True)
class TrapReply:
    status: int = STATUS_OK
    handle: int = 0
    addr: Optional[Addr] = None
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def status_for_error(exc: BaseException) -> int:
    for klass, code in _STATUS_BY_ERROR.items():
        if isinstance(exc, klass):
            return code
    return _INTERNAL_STATUS


def raise_for_status(reply: TrapReply) -> TrapReply:
    if reply.ok:
        return reply
    detail = reply.payload.decode(errors="replace") if reply.payload else ""
    exc_type = _ERROR_BY_STATUS.get(reply.status, errors.AppNetError)
    raise exc_type(detail or f"trap status {reply.status}")


def error_reply(exc: BaseException) -> TrapReply:
    return TrapReply(status=status_for_error(exc), payload=str(exc).encode())


def _encode_frame(code: int, handle: int, addr: Optional[Addr], payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(f"frame payload of {len(payload)} bytes is oversized")
    if addr is None:
        return _HEADER.pack(TRAP_VERSION, code, handle, 0, 0, len(payload)) + payload
    return _HEADER.pack(TRAP_VERSION, code, handle, int(addr[0]), addr[1], len(payload)) + payload


def _addr(ip: int, port: int) -> Addr:
    return (IPv4Address(ip) if ip else _ZERO_IP, port)


def _decode_frame(data: bytes) -> tuple[int, int, int, int, bytes]:
    try:
        version, code, handle, ip, port, length = _HEADER.unpack_from(data)
    except struct.error as exc:
        raise errors.DecodeError(f"truncated trap frame: {len(data)} bytes") from exc
    if version != TRAP_VERSION:
        raise errors.DecodeError(f"unsupported trap version {version}")
    if length > MAX_FRAME_PAYLOAD:
        raise errors.DecodeError(f"claimed payload of {length} bytes is oversized")
    if len(data) != HEADER_SIZE + length:
        raise errors.DecodeError(
            f"trap frame of {len(data)} bytes claims a {length}-byte payload"
        )
    return code, handle, ip, port, data[HEADER_SIZE:]


def encode_request(req: TrapRequest) -> bytes:
    return _encode_frame(req.op.value, req.handle, req.addr, req.payload)


def decode_request(data: bytes) -> TrapRequest:
    code, handle, ip, port, payload = _decode_frame(data)
    try:
        op, has_addr = _OPS_BY_CODE[code]
    except KeyError:
        raise errors.DecodeError(f"unknown trap op {code}") from None
    return TrapRequest(op, handle, _addr(ip, port) if has_addr else None, payload)


def encode_reply(reply: TrapReply) -> bytes:
    return _encode_frame(reply.status, reply.handle, reply.addr, reply.payload)


def decode_reply(data: bytes) -> TrapReply:
    code, handle, ip, port, payload = _decode_frame(data)
    # An all-zero address field means no address.
    return TrapReply(code, handle, _addr(ip, port) if ip or port else None, payload)


def frame_payload_length(header: bytes) -> int:
    """Payload length claimed by a 16-byte frame header, if not oversized."""
    if len(header) != HEADER_SIZE:
        raise errors.DecodeError("short trap frame header")
    length = _HEADER.unpack(header)[5]
    if length > MAX_FRAME_PAYLOAD:
        raise errors.DecodeError(f"claimed payload of {length} bytes is oversized")
    return length


class TrapChannel(Protocol):
    """What the application-side shim needs from its channel."""

    def call(self, req: TrapRequest) -> tuple[TrapReply, object | None]: ...


class InProcChannel:
    """Channel for apps living in the node's process (simulation, bench).

    Requests and replies still round-trip through the wire codec so every
    exchange exercises the same bytes a remote generator would produce.
    """

    def __init__(
        self,
        app_id: str,
        dispatch: Callable[[str, TrapRequest], tuple[TrapReply, object | None]],
        sink: Optional[Callable[[str, TrapRequest, TrapReply], None]] = None,
    ) -> None:
        self.app_id = app_id
        self._dispatch = dispatch
        self._sink = sink
        self.messages = 0
        self.detached = False

    def call(self, req: TrapRequest) -> tuple[TrapReply, object | None]:
        if self.detached:
            raise errors.AttachFailed(f"channel for {self.app_id} is detached")
        self.messages += 1
        decoded = decode_request(encode_request(req))
        reply, transport = self._dispatch(self.app_id, decoded)
        reply = decode_reply(encode_reply(reply))
        if self._sink is not None:
            self._sink(self.app_id, decoded, reply)
        return reply, transport


class SocketShim:
    """The virtual socket API an application links against.

    Every method is one trap exchange; connect and accept return a live
    transport whose reads and writes never touch the node again.
    """

    def __init__(self, channel: TrapChannel) -> None:
        self.channel = channel

    def _call(self, req: TrapRequest) -> tuple[TrapReply, object | None]:
        reply, transport = self.channel.call(req)
        raise_for_status(reply)
        return reply, transport

    def socket(self, kind: HandleKind = HandleKind.STREAM) -> int:
        reply, _ = self._call(
            TrapRequest(op=TrapOp.SOCKET, payload=bytes([kind.value]))
        )
        return reply.handle

    def bind(self, handle: int, addr: Addr) -> Addr:
        reply, _ = self._call(TrapRequest(op=TrapOp.BIND, handle=handle, addr=addr))
        assert reply.addr is not None
        return reply.addr

    def listen(self, handle: int) -> None:
        self._call(TrapRequest(op=TrapOp.LISTEN, handle=handle))

    def connect(self, handle: int, addr: Addr) -> object:
        _, transport = self._call(
            TrapRequest(op=TrapOp.CONNECT, handle=handle, addr=addr)
        )
        return transport

    def accept(self, handle: int) -> tuple[int, Addr, object]:
        reply, transport = self._call(TrapRequest(op=TrapOp.ACCEPT, handle=handle))
        assert reply.addr is not None
        return reply.handle, reply.addr, transport

    def getsockname(self, handle: int) -> Addr:
        reply, _ = self._call(TrapRequest(op=TrapOp.GET_SOCK_NAME, handle=handle))
        assert reply.addr is not None
        return reply.addr

    def getpeername(self, handle: int) -> Addr:
        reply, _ = self._call(TrapRequest(op=TrapOp.GET_PEER_NAME, handle=handle))
        assert reply.addr is not None
        return reply.addr

    def sendto(self, handle: int, addr: Addr, payload: bytes) -> None:
        if len(payload) > MAX_DGRAM:
            raise errors.MessageTooLong(f"{len(payload)} bytes exceeds {MAX_DGRAM}")
        self._call(TrapRequest(op=TrapOp.SEND_TO, handle=handle, addr=addr, payload=payload))

    def recvfrom(self, handle: int) -> tuple[Addr, bytes]:
        reply, _ = self._call(TrapRequest(op=TrapOp.RECV_FROM, handle=handle))
        assert reply.addr is not None
        return reply.addr, reply.payload

    def close(self, handle: int) -> None:
        self._call(TrapRequest(op=TrapOp.CLOSE, handle=handle))
