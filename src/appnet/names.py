"""Vip allocation for named and anonymous apps, plus the built-in DNS responder.

Allocation is a pure function of the key: probe i hashes "<key>#<i>" with
64-bit FNV-1a and folds into the pool's host bits, skipping the pool base
address and any value the table already shows allocated to a different key.
Nodes with synchronized tables therefore compute identical vips.
"""

from __future__ import annotations

import struct
from ipaddress import IPv4Address
from typing import Callable, Mapping, Optional

from appnet.errors import AmbiguousName, DecodeError, PoolExhausted
from appnet.model import AUTO_POOL, LINK_LOCAL_POOL

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

MAX_PROBES = 65536

DNS_TTL = 1
QTYPE_A = 1
QCLASS_IN = 1

RCODE_OK = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4

MAX_DNS_RESPONSE = 512


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def allocate_internal_ip(
    name: str, taken: Mapping[IPv4Address, str] | None = None
) -> IPv4Address:
    """Deterministic 240.x.y.z vip for a named application."""
    return _probe(name, taken or {}, int(AUTO_POOL.network_address), 24)


def allocate_link_local(
    app_id: str, taken: Mapping[IPv4Address, str] | None = None
) -> IPv4Address:
    """Deterministic 169.254.x.y identity for an anonymous client."""
    return _probe(app_id, taken or {}, int(LINK_LOCAL_POOL.network_address), 16)


def _probe(key: str, taken: Mapping[IPv4Address, str], base: int, bits: int) -> IPv4Address:
    mask = (1 << bits) - 1
    for i in range(MAX_PROBES):
        offset = fnv1a64(f"{key}#{i}".encode()) & mask
        if offset == 0:
            continue
        addr = IPv4Address(base | offset)
        owner = taken.get(addr)
        if owner is not None and owner != key:
            continue
        return addr
    raise PoolExhausted(f"no free address for {key!r} after {MAX_PROBES} probes")


# --- DNS wire format (A questions, IN class, no EDNS) ---


def _encode_qname(name: str) -> bytes:
    out = bytearray()
    for label in name.split("."):
        raw = label.encode("ascii")
        if not raw or len(raw) > 63:
            raise ValueError(f"bad label {label!r}")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def _decode_qname(data: bytes, pos: int) -> tuple[str, int]:
    labels: list[str] = []
    while True:
        if pos >= len(data):
            raise DecodeError("truncated qname")
        length = data[pos]
        pos += 1
        if length == 0:
            break
        if length > 63:
            raise DecodeError("compression or oversized label in question")
        if pos + length > len(data):
            raise DecodeError("truncated label")
        try:
            labels.append(data[pos : pos + length].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise DecodeError("non-ASCII label in question") from exc
        pos += length
    return ".".join(labels), pos


def parse_query(data: bytes) -> tuple[int, str, int, int, bytes]:
    """Decode a single-question query into (id, name, qtype, qclass, question bytes)."""
    if len(data) < 12:
        raise DecodeError("query shorter than a DNS header")
    qid, flags, qdcount, ancount, nscount, arcount = struct.unpack(">HHHHHH", data[:12])
    if flags & 0x8000:
        raise DecodeError("not a query")
    if qdcount != 1 or ancount or nscount or arcount:
        raise DecodeError("expected exactly one question and nothing else")
    name, pos = _decode_qname(data, 12)
    if pos + 4 > len(data):
        raise DecodeError("truncated question")
    qtype, qclass = struct.unpack(">HH", data[pos : pos + 4])
    return qid, name, qtype, qclass, data[12 : pos + 4]


def build_response(
    qid: int,
    question: bytes,
    rcode: int,
    answer_vip: Optional[IPv4Address] = None,
    ttl: int = DNS_TTL,
) -> bytes:
    ancount = 1 if answer_vip is not None else 0
    flags = 0x8400 | (rcode & 0xF)  # response, authoritative
    out = bytearray(struct.pack(">HHHHHH", qid, flags, 1, ancount, 0, 0))
    out += question
    if answer_vip is not None:
        out += struct.pack(">HHHIH", 0xC00C, QTYPE_A, QCLASS_IN, ttl, 4)
        out += answer_vip.packed
    if len(out) > MAX_DNS_RESPONSE:
        raise ValueError("response exceeds 512 bytes")
    return bytes(out)


def dns_answer(data: bytes, resolve: Callable[[str], Optional[IPv4Address]]) -> bytes:
    """Answer one query datagram from the service table's name view.

    A questions resolve through `resolve`; other types get NotImp; unknown
    names get NXDOMAIN; a resolver error (ambiguous alias) gets ServFail;
    recognizably malformed questions get FormErr. Raises DecodeError only
    when no coherent response can be formed (caller drops).
    """
    if len(data) < 12:
        raise DecodeError("not a DNS message")
    qid = struct.unpack(">H", data[:2])[0]
    try:
        qid, name, qtype, qclass, question = parse_query(data)
    except DecodeError:
        return build_response(qid, b"\x00" + struct.pack(">HH", QTYPE_A, QCLASS_IN), RCODE_FORMERR)
    if qtype != QTYPE_A or qclass != QCLASS_IN:
        return build_response(qid, question, RCODE_NOTIMP)
    try:
        vip = resolve(name)
    except AmbiguousName:
        return build_response(qid, question, RCODE_SERVFAIL)
    if vip is None:
        return build_response(qid, question, RCODE_NXDOMAIN)
    return build_response(qid, question, RCODE_OK, answer_vip=vip)


def build_query(qid: int, name: str, qtype: int = QTYPE_A) -> bytes:
    """Client-side single-question query, as the resolver shim sends it."""
    header = struct.pack(">HHHHHH", qid, 0x0100, 1, 0, 0, 0)
    return header + _encode_qname(name) + struct.pack(">HH", qtype, QCLASS_IN)


def parse_answer(data: bytes) -> tuple[int, int, Optional[IPv4Address], Optional[int]]:
    """Decode a response into (id, rcode, vip or None, ttl or None)."""
    if len(data) < 12:
        raise DecodeError("response shorter than a DNS header")
    qid, flags, qdcount, ancount, _, _ = struct.unpack(">HHHHHH", data[:12])
    if not flags & 0x8000:
        raise DecodeError("not a response")
    rcode = flags & 0xF
    pos = 12
    for _ in range(qdcount):
        _, pos = _decode_qname(data, pos)
        pos += 4
    if ancount == 0:
        return qid, rcode, None, None
    # Answer name is either a compression pointer or labels.
    if data[pos] & 0xC0 == 0xC0:
        pos += 2
    else:
        _, pos = _decode_qname(data, pos)
    rtype, rclass, ttl, rdlength = struct.unpack(">HHIH", data[pos : pos + 10])
    pos += 10
    if rtype != QTYPE_A or rdlength != 4:
        raise DecodeError(f"unexpected answer type {rtype}")
    return qid, rcode, IPv4Address(data[pos : pos + 4]), ttl
