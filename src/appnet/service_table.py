"""The replicated cluster view: virtual identities mapped to real endpoints,
and the hosts that serve them.

The table holds three kinds of record on one path: service entries, gateway
bindings and members (a host, its gossip address and whether it is a
gateway). Local writes go through insert_local, write_local, mark_member and
retire; the rest arrives through merge_record. Merge and the anti-entropy
digest order records by one version, (incarnation, state, crc32 of the
encoding): the higher incarnation wins; at equal incarnation the higher
state wins, so a tombstone beats a live entry or binding, and a member goes
ALIVE < SUSPECT < DEAD; at equal incarnation and state the larger
fingerprint wins, so rival writes resolve alike everywhere. Retiring writes
a tombstone at the next incarnation; tombstones are kept for TOMBSTONE_TTL
ticks, long enough to outlive in-flight deltas. Another node's suspicion or
death of a member keeps its incarnation: only the member's own host bumps it.

Each record kind has one wire layout, a few struct.Structs that the encoder
packs and the decoder unpacks: the kind byte opens it, then the service key
of an entry or binding or the host id of a member, then fixed fields and
lp16 strings, then the tags.

Every record has one name, its record id: the kind byte and key, then the
host and app id of an entry or the gateway id and port of a binding; or the
kind byte and host id of a member. The table keeps all records in one store
keyed by it; the switch and the node name what they serve and expose by it
too.

A delta arrives as wire bytes, and decode() resolves it before it merges.
The table indexes every held record by its encoding, so one lookup of those
bytes finds a record it already holds: the held object is the answer,
nothing is decoded, and merge_record finds it stale at once. Most deltas
repeat what the receiver holds. Any other bytes, an older version of the
same record included, go through the full decoder and its checks.

Anti-entropy compares tables by bucket. A record's digest item is its lp16
record id, then its version packed as (u64 incarnation, u8 state, u32 crc32);
each record builds its item and a 64-bit hash of it once. The record id alone
picks one of BUCKETS buckets, so every version of a record falls in the same
one, and a bucket's hash is the XOR of its items' hashes, which _put keeps up
to date in O(1). A sync digest takes one of two forms:
  - the bucket hashes, one BUCKETS x u64 item, which digest() packs; and
  - a narrow digest: a bitmap naming some buckets, then the digest item of
    every record held in them, which narrow_digests() writes.
Two tables with equal hashes hold the same items, barring a 64-bit hash
collision; read against a peer's hashes, differing_buckets() names the
buckets whose items differ. A narrow digest holds only their few items, so
read_digest, records_newer_than and digest_has_news work in proportion to
the difference, not to the table.

Only the id of an entry or a member names its sole writer, so two owner
clauses apply to the local host's entries and its own member record: a
foreign version that would beat a live one (a tombstone, a suspicion, a
death) is refuted by re-writing it above, and a ghost of one this node no
longer holds is rejected. merge_record and digest_has_news ask the same
predicate, so a digest item for such a ghost is not news either. A binding
is written by the exposing node and released by its gateway, or by any node
once that gateway is dead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from hashlib import blake2b
from ipaddress import IPv4Address
from itertools import compress
from operator import attrgetter, ne
from typing import Callable, ClassVar, NamedTuple, Optional, Union

from appnet.errors import AmbiguousName, DecodeError, DuplicateAppBinding, InvalidTag
from appnet.model import HostId, RealEndpoint, ServiceKey, TagSet

TOMBSTONE_TTL = 30  # gossip periods

SERVICE_PORT_MIN = 49152
SERVICE_PORT_MAX = 65535


class EntryState(Enum):
    """A record's state. The value is its byte on the wire and its rank in
    the version: an entry or a binding is ALIVE or a TOMBSTONE, a member is
    ALIVE, SUSPECT or DEAD."""

    ALIVE = 0
    TOMBSTONE = 1
    SUSPECT = 2
    DEAD = 3


class MergeOutcome(Enum):
    APPLIED = "applied"
    STALE = "stale"
    REFUTED = "refuted"


Version = tuple[int, int, int]  # (incarnation, state, crc32 of the encoding)


class _Record:
    """What the table needs of either record class.

    Records are frozen. A record's id, wire encoding, version, sync digest
    item and that item's hash are plain slots, set once when it is built: a
    record built in memory is encoded then; a decoded one keeps the bytes its
    writer sent, so its version is the crc32 of those; a stamped copy shares
    its source's. The stamp is the local tick of the last write: it is not on
    the wire and takes no part in comparisons.
    """

    __slots__ = ("record_id", "encoded", "version", "digest_item", "item_hash")

    # The states a record of the class takes.
    STATES: ClassVar[frozenset] = frozenset({EntryState.ALIVE, EntryState.TOMBSTONE})

    def __post_init__(self) -> None:
        # A field out of its range fails to pack: an app id, name or tag over
        # 0xFFFF bytes, or an app id too long for its lp16 digest record id.
        try:
            self._seal(encode_record(self))
        except struct.error as exc:
            raise ValueError(f"cannot encode {type(self).__name__}: {exc}") from exc

    def _seal(self, encoded: bytes):
        if self.state not in self.STATES:
            raise ValueError(f"a {type(self).__name__} cannot be {self.state.name}")
        object.__setattr__(self, "encoded", encoded)
        object.__setattr__(self, "record_id", record_id_of(encoded))
        version = (self.incarnation, self.state.value, zlib.crc32(encoded))
        object.__setattr__(self, "version", version)
        item = _U16.pack(len(self.record_id)) + self.record_id + _DIGEST_VERSION.pack(*version)
        object.__setattr__(self, "digest_item", item)
        object.__setattr__(self, "item_hash", _item_hash(item))
        return self

    def stamped(self, now: int):
        """This record stamped `now`, sharing its id, encoding and version."""
        out = object.__new__(type(self))
        for name in (*type(self).__slots__, *_Record.__slots__):
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "stamp", now)
        return out


def _decoded(cls, encoded: bytes, *values):
    """A `cls` record with these field values, in field order, sealed with the
    bytes it was decoded from instead of being encoded again."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record._seal(encoded)


@dataclass(frozen=True, slots=True)
class ServiceEntry(_Record):
    key: ServiceKey
    real: RealEndpoint
    host: HostId
    app_id: str
    tags: TagSet
    name: Optional[str]
    incarnation: int
    state: EntryState
    stamp: int = field(default=0, compare=False)

    @property
    def owner(self) -> HostId:
        return self.host


@dataclass(frozen=True, slots=True)
class GatewayBinding(_Record):
    """Ties a service key to one (gateway, external port) pair."""

    key: ServiceKey
    gateway: HostId
    external_port: int
    state: EntryState
    incarnation: int
    admit: TagSet
    stamp: int = field(default=0, compare=False)

    @property
    def owner(self) -> HostId:
        return self.gateway


@dataclass(frozen=True, slots=True)
class Member(_Record):
    """A host in the cluster: where its gossip listens, and whether it is a
    gateway. Its stamp is also the start of a suspicion."""

    host: HostId
    addr: RealEndpoint
    state: EntryState
    incarnation: int
    is_gateway: bool = False
    stamp: int = field(default=0, compare=False)

    STATES: ClassVar[frozenset] = frozenset(
        {EntryState.ALIVE, EntryState.SUSPECT, EntryState.DEAD}
    )

    @property
    def owner(self) -> HostId:
        return self.host


TableRecord = Union[ServiceEntry, GatewayBinding, Member]

# --- codec: one layout per record kind, used to encode and to decode ---

_KIND_ENTRY = 0
_KIND_BINDING = 1
_KIND_MEMBER = 2
_ENTRY_KIND_BYTE = bytes([_KIND_ENTRY])
_MEMBER_KIND_BYTE = bytes([_KIND_MEMBER])

# An entry or a binding opens with its kind byte and service key (vip, port).
_KEY = struct.Struct(">BIH")
# An entry: kind, key, real ip and port, host id, app id length; the app id;
# state, incarnation, name length; the name; the tags. Its record id is its
# head with the real endpoint cut out, then the app id.
_ENTRY_HEAD = struct.Struct(">BIHIH16sH")
_ENTRY_TAIL = struct.Struct(">BQH")
_REAL = struct.Struct(">IH")
# A binding: kind, key, gateway id, external port, state, incarnation; the
# admit tags. Its record id is the kind, then the gateway id and port that
# follow the key.
_BINDING_HEAD = struct.Struct(">BIH16sHBQ")
_BINDING_ID = struct.Struct(">16sH")
# A member: kind, host id, gossip ip and port, gateway flag, state,
# incarnation. Its record id is the kind and host id.
_MEMBER_RECORD = struct.Struct(">B16sIHBBQ")
_MEMBER_ID_SIZE = 17
_U16 = struct.Struct(">H")
# A sync digest item's version, after its lp16 record id.
_DIGEST_VERSION = struct.Struct(">QBI")

# The sync digest's buckets: their hashes travel as one item, and a narrow
# digest opens with a bitmap that names some of them, bucket b being bit
# 0x80 >> b % 8 of byte b // 8.
BUCKETS = 256
_HASHES = struct.Struct(f">{BUCKETS}Q")
_BITMAP_SIZE = BUCKETS // 8


def _item_hash(item: bytes) -> int:
    """The 64-bit hash of a digest item that its bucket's hash XORs in."""
    return int.from_bytes(blake2b(item, digest_size=8).digest(), "big")


def bucket_of(record_id: bytes) -> int:
    """The digest bucket of every version of the record named `record_id`."""
    return zlib.crc32(record_id) % BUCKETS


def _bitmap(buckets: list[int]) -> bytes:
    """A narrow digest's bitmap, naming `buckets`."""
    bitmap = bytearray(_BITMAP_SIZE)
    for b in buckets:
        bitmap[b // 8] |= 0x80 >> b % 8
    return bytes(bitmap)


def chunked(things: list, size: Callable[[object], int], limit: int) -> list[list]:
    """`things` in order, split into runs whose sizes sum to at most `limit`;
    a thing larger than `limit` makes a run of its own."""
    runs: list[list] = []
    run: list = []
    total = 0
    for thing in things:
        grown = size(thing)
        if run and total + grown > limit:
            runs.append(run)
            run, total = [], 0
        run.append(thing)
        total += grown
    if run:
        runs.append(run)
    return runs


def record_id_of(data: bytes) -> bytes:
    """The record id inside a record's wire bytes, sliced where it sits. Bytes
    too short for one give a short id; this never raises."""
    kind = data[:1]
    if kind == _ENTRY_KIND_BYTE:
        app_at = _ENTRY_HEAD.size
        app_end = app_at + int.from_bytes(data[app_at - _U16.size : app_at], "big")
        return data[: _KEY.size] + data[_KEY.size + _REAL.size : app_end]
    if kind == _MEMBER_KIND_BYTE:
        return data[:_MEMBER_ID_SIZE]
    return kind + data[_KEY.size : _KEY.size + _BINDING_ID.size]


def _tags(tags: TagSet) -> bytes:
    """A u16 count, then each tag pair as lp16 bytes."""
    pairs = [pair.encode() for pair in tags.pairs()]
    return _U16.pack(len(pairs)) + b"".join([_U16.pack(len(p)) + p for p in pairs])


def _read_tags(data: bytes, pos: int) -> tuple[TagSet, int]:
    """The tag set at `pos` and the offset after it."""
    (count,) = _U16.unpack_from(data, pos)
    pos += 2
    pairs = []
    for _ in range(count):
        start = pos + 2
        pos = start + _U16.unpack_from(data, pos)[0]
        pairs.append(data[start:pos].decode())
    return TagSet.from_pairs(pairs), pos


def _check_end(data: bytes, pos: int, what: str) -> None:
    # A length that overran the record leaves pos past the end; slicing
    # does not catch that by itself.
    if pos != len(data):
        raise DecodeError(f"{what} ends at byte {pos} of {len(data)}")


def _encode_entry(e: ServiceEntry) -> bytes:
    app_id, name = e.app_id.encode(), (e.name or "").encode()
    head = _ENTRY_HEAD.pack(
        _KIND_ENTRY, int(e.key.vip), e.key.port, int(e.real.host_ip), e.real.port,
        e.host, len(app_id),
    )
    tail = _ENTRY_TAIL.pack(e.state.value, e.incarnation, len(name))
    return b"".join((head, app_id, tail, name, _tags(e.tags)))


def _decode_entry(data: bytes) -> ServiceEntry:
    try:
        _, vip, port, real_ip, real_port, host, app_len = _ENTRY_HEAD.unpack_from(data)
        app_end = _ENTRY_HEAD.size + app_len
        app_id = data[app_end - app_len : app_end].decode()
        state, incarnation, name_len = _ENTRY_TAIL.unpack_from(data, app_end)
        pos = app_end + _ENTRY_TAIL.size + name_len
        name = data[pos - name_len : pos].decode() or None
        tags, pos = _read_tags(data, pos)
        _check_end(data, pos, "table entry")
        return _decoded(
            ServiceEntry,
            data,
            ServiceKey(IPv4Address(vip), port),
            RealEndpoint(IPv4Address(real_ip), real_port),
            HostId(host),
            app_id,
            tags,
            name,
            incarnation,
            EntryState(state),
            0,
        )
    except (struct.error, ValueError, InvalidTag) as exc:
        raise DecodeError(f"bad table entry: {exc}") from exc


def _encode_binding(b: GatewayBinding) -> bytes:
    head = _BINDING_HEAD.pack(
        _KIND_BINDING, int(b.key.vip), b.key.port, b.gateway, b.external_port,
        b.state.value, b.incarnation,
    )
    return head + _tags(b.admit)


def _decode_binding(data: bytes) -> GatewayBinding:
    try:
        _, vip, port, gateway, external_port, state, incarnation = _BINDING_HEAD.unpack_from(data)
        admit, pos = _read_tags(data, _BINDING_HEAD.size)
        _check_end(data, pos, "gateway binding")
        return _decoded(
            GatewayBinding,
            data,
            ServiceKey(IPv4Address(vip), port),
            HostId(gateway),
            external_port,
            EntryState(state),
            incarnation,
            admit,
            0,
        )
    except (struct.error, ValueError, InvalidTag) as exc:
        raise DecodeError(f"bad gateway binding: {exc}") from exc


def _encode_member_record(m: Member) -> bytes:
    return _MEMBER_RECORD.pack(
        _KIND_MEMBER, m.host, int(m.addr.host_ip), m.addr.port, m.is_gateway,
        m.state.value, m.incarnation,
    )


def _decode_member_record(data: bytes) -> Member:
    try:
        _, host, ip, port, gateway, state, incarnation = _MEMBER_RECORD.unpack(data)
        if gateway > 1:
            raise ValueError(f"gateway flag {gateway}")
        return _decoded(
            Member,
            data,
            HostId(host),
            RealEndpoint(IPv4Address(ip), port),
            EntryState(state),
            incarnation,
            bool(gateway),
            0,
        )
    except (struct.error, ValueError) as exc:
        raise DecodeError(f"bad member: {exc}") from exc


_ENCODERS = {
    ServiceEntry: _encode_entry,
    GatewayBinding: _encode_binding,
    Member: _encode_member_record,
}
_DECODERS = {
    _KIND_ENTRY: _decode_entry,
    _KIND_BINDING: _decode_binding,
    _KIND_MEMBER: _decode_member_record,
}


def encode_record(record: TableRecord) -> bytes:
    return _ENCODERS[type(record)](record)


def decode_record(data: bytes) -> TableRecord:
    """The record that wire bytes `data` encode, built afresh; a malformed
    record raises DecodeError."""
    decode = _DECODERS.get(data[0]) if data else None
    if decode is None:
        raise DecodeError(f"bad table record kind {data[:1]!r}")
    return decode(data)


_BY_RECORD_ID = attrgetter("record_id")


class PeerDigest(NamedTuple):
    """A peer's sync digest as ServiceTable.read_digest read it: either its
    bucket hashes, or the buckets a narrow digest names and its items there."""

    hashes: Optional[tuple[int, ...]]  # every bucket's hash; None if narrow
    buckets: list[int]  # the buckets named, ascending; empty for hashes
    versions: dict[bytes, Version]  # by record id, each item listed


class ServiceTable:
    """One node's view of the cluster's registrations.

    Mutated only from the owning node's event loop.
    """

    def __init__(self, local_host: HostId) -> None:
        self.local_host = local_host
        self._own_member_id = _MEMBER_KIND_BYTE + local_host
        # Every held record by record id. The kind byte opens each id, so
        # records of different kinds never collide.
        self._records: dict[bytes, TableRecord] = {}
        # Indexes over the store, kept by _put alone: live entries by key, by
        # vip, by (host id, app id) and by lower-cased name, members by
        # state, and tombstones of entries and bindings by stamp. Each slot
        # maps record id to record; an emptied one is dropped.
        self._by_key: dict[ServiceKey, dict[bytes, ServiceEntry]] = {}
        self._by_vip: dict[IPv4Address, dict[bytes, ServiceEntry]] = {}
        self._by_app: dict[tuple[HostId, str], dict[bytes, ServiceEntry]] = {}
        self._by_name: dict[str, dict[bytes, ServiceEntry]] = {}
        self._members: dict[EntryState, dict[bytes, Member]] = {}
        self._tombstones: dict[int, dict[bytes, TableRecord]] = {}
        # Every held record by its wire encoding, which names it as surely as
        # its record id does. Also kept by _put alone.
        self._by_encoded: dict[bytes, TableRecord] = {}
        # Every held record by digest bucket, and each bucket's hash: the XOR
        # of its records' item hashes. Also kept by _put alone.
        self._in_bucket: list[dict[bytes, TableRecord]] = [{} for _ in range(BUCKETS)]
        self._hashes = [0] * BUCKETS
        # Called with each record this node originates or re-owns, so the
        # gossip layer can queue it for dissemination.
        self.on_local_update: Optional[Callable[[TableRecord], None]] = None

    def _put(self, record_id: bytes, record: Optional[TableRecord]) -> None:
        """The one write to the store: put `record` under `record_id`, or delete
        what is there when `record` is None, keeping the indexes and the
        bucket hashes in step. A replaced record keeps its place in the
        store's order."""
        bucket = bucket_of(record_id)
        prior = self._records.get(record_id)
        if prior is not None:
            del self._by_encoded[prior.encoded]
            self._hashes[bucket] ^= prior.item_hash
            for index, slot in self._indexed_in(prior):
                del index[slot][record_id]
                if not index[slot]:
                    del index[slot]
        if record is None:
            del self._records[record_id]
            del self._in_bucket[bucket][record_id]
            return
        self._records[record_id] = record
        self._by_encoded[record.encoded] = record
        self._in_bucket[bucket][record_id] = record
        self._hashes[bucket] ^= record.item_hash
        for index, slot in self._indexed_in(record):
            index.setdefault(slot, {})[record_id] = record

    def _indexed_in(self, record: TableRecord) -> list[tuple[dict, object]]:
        """Each (index, slot) that holds `record`."""
        if record.state is EntryState.TOMBSTONE:
            return [(self._tombstones, record.stamp)]
        if type(record) is Member:
            # A DEAD member is a member's tombstone, but gc_tombstones does
            # not collect it: the ghost rotation and a partition's heal need
            # it, for a host declared dead refutes only a death it is sent.
            # Death certificates with a shared expiry (see ROADMAP) are to
            # reap dead members, and then this exemption goes.
            return [(self._members, record.state)]
        if type(record) is not ServiceEntry:
            return []
        slots = [
            (self._by_key, record.key),
            (self._by_vip, record.key.vip),
            (self._by_app, (record.host, record.app_id)),
        ]
        if record.name:
            slots.append((self._by_name, record.name.lower()))
        return slots

    # --- local writes ---

    def write_local(
        self, record: TableRecord, now: int, above: int = 0, **changes
    ) -> TableRecord:
        """Store `record`, with `changes`, at this node's next incarnation for
        it, and announce it."""
        prior = self._records.get(record.record_id)
        incarnation = max(prior.incarnation if prior else 0, above) + 1
        return self._announce(
            replace(record, incarnation=incarnation, stamp=now, **changes)
        )

    def _announce(self, record: TableRecord) -> TableRecord:
        self._put(record.record_id, record)
        if self.on_local_update is not None:
            self.on_local_update(record)
        return record

    def insert_local(self, entry: ServiceEntry, now: int) -> ServiceEntry:
        """Register a live entry of this node; returns the entry as stored."""
        if entry.host != self.local_host:
            raise ValueError("insert_local is for entries this node owns")
        if entry.state is not EntryState.ALIVE:
            raise ValueError("insert_local only registers live entries")
        for resident in self._by_key.get(entry.key, {}).values():
            if resident.app_id == entry.app_id:
                raise DuplicateAppBinding(
                    f"app {entry.app_id} already holds {entry.key}"
                )
        return self.write_local(entry, now)

    def retire(self, record_id: bytes, now: int) -> bool:
        """Tombstone a live entry or release an active binding."""
        resident = self._records.get(record_id)
        if resident is None or resident.state is not EntryState.ALIVE:
            return False
        self.write_local(resident, now, state=EntryState.TOMBSTONE)
        return True

    def mark_member(self, host: HostId, state: EntryState, now: int) -> Member:
        """Store this node's suspicion or declared death of another host, at
        the incarnation held for it, and announce it."""
        held = self.member(host)
        return self._announce(replace(held, state=state, stamp=now))

    def tombstone_host(self, host: HostId, now: int) -> int:
        """Retire every live entry and binding a dead node owned, not its
        member record; returns the count."""
        doomed = [
            r for r in self.records()
            if r.owner == host and r.state is EntryState.ALIVE and type(r) is not Member
        ]
        for record in doomed:
            self.retire(record.record_id, now)
        return len(doomed)

    def gc_tombstones(self, now: int, ttl: int = TOMBSTONE_TTL) -> int:
        expired = [
            r
            for stamp, bucket in self._tombstones.items()
            if now - stamp > ttl
            for r in bucket.values()
        ]
        for record in expired:
            self._put(record.record_id, None)
        return len(expired)

    # --- replication ---

    def decode(self, data: bytes) -> TableRecord:
        """The record that the wire bytes of a delta encode. Bytes equal to the
        encoding of a held record are that record itself: they are known to
        be well formed, so nothing is built. Any other bytes go through
        decode_record and its checks."""
        held = self._by_encoded.get(data)
        return held if held is not None else decode_record(data)

    def _owns(self, record_id: bytes) -> bool:
        """True for the id of an entry of this host or of its own member
        record, whose sole writer it is: the one test behind merge_record's
        owner clauses and digest_has_news."""
        if record_id[:1] == _ENTRY_KIND_BYTE:
            return record_id.startswith(self.local_host, _KEY.size)
        return record_id == self._own_member_id

    def merge_record(self, record: TableRecord, now: int) -> MergeOutcome:
        resident = self._records.get(record.record_id)
        if resident is record:
            # A delta that decode() resolved to the held record: stale,
            # whoever owns it.
            return MergeOutcome.STALE
        # For our own entries and member record we refute a foreign version
        # (say a tombstone, or a suspicion) that would beat a live one, and
        # reject a ghost of one we no longer hold.
        if self._owns(record.record_id):
            if resident is None:
                return MergeOutcome.STALE
            if resident.state is EntryState.ALIVE and record.version > resident.version:
                self.write_local(resident, now, above=record.incarnation)
                return MergeOutcome.REFUTED
        if resident is not None and record.version <= resident.version:
            return MergeOutcome.STALE
        self._put(record.record_id, record.stamped(now))
        return MergeOutcome.APPLIED

    # --- lookups ---

    def lookup(self, key: ServiceKey) -> list[ServiceEntry]:
        found = list(self._by_key.get(key, {}).values())
        if len(found) > 1:
            found.sort(key=lambda e: (e.host, e.app_id))
        return found

    def lookup_name(self, name: str) -> Optional[IPv4Address]:
        vips = {e.key.vip for e in self._by_name.get(name.lower(), {}).values()}
        if not vips:
            return None
        if len(vips) > 1:
            raise AmbiguousName(f"name {name!r} maps to {sorted(map(str, vips))}")
        return vips.pop()

    def _held(self, cls: type) -> list:
        """Every held record of class `cls`, live or not."""
        return [r for r in self._records.values() if type(r) is cls]

    def alive_entries(self) -> list[ServiceEntry]:
        live = (e for slot in self._by_key.values() for e in slot.values())
        return sorted(live, key=lambda e: (e.key, e.host, e.app_id))

    def entries_for_app(self, host: HostId, app_id: str) -> list[ServiceEntry]:
        return list(self._by_app.get((host, app_id), {}).values())

    def name_at(self, vip: IPv4Address) -> Optional[str]:
        """The name of a live named entry at `vip`, if any claims it."""
        for entry in self._by_vip.get(vip, {}).values():
            if entry.name:
                return entry.name
        return None

    def used_service_ports(self, vip: IPv4Address) -> set[int]:
        return {e.key.port for e in self._by_vip.get(vip, {}).values()}

    def next_free_service_port(self, vip: IPv4Address) -> int:
        used = self.used_service_ports(vip)
        for port in range(SERVICE_PORT_MIN, SERVICE_PORT_MAX + 1):
            if port not in used:
                return port
        raise DuplicateAppBinding(f"no free service port under {vip}")

    def active_bindings(self) -> list[GatewayBinding]:
        return sorted(
            (b for b in self._held(GatewayBinding) if b.state is EntryState.ALIVE),
            key=lambda b: (b.gateway, b.external_port),
        )

    def binding_for_key(self, key: ServiceKey) -> Optional[GatewayBinding]:
        for binding in self.active_bindings():
            if binding.key == key:
                return binding
        return None

    def external_ports_taken(self, gateway: HostId) -> set[int]:
        return {b.external_port for b in self.active_bindings() if b.gateway == gateway}

    def member(self, host: HostId) -> Optional[Member]:
        return self._records.get(_MEMBER_KIND_BYTE + host)

    def member_count(self) -> int:
        return sum(map(len, self._members.values()))

    def members(self, *states: EntryState) -> list[Member]:
        """The held members in `states`, or in any state if none is named,
        ordered by host."""
        slots = [self._members.get(state, {}) for state in states or Member.STATES]
        return sorted((m for slot in slots for m in slot.values()), key=_BY_RECORD_ID)

    # --- sync support ---

    def records(self) -> list[TableRecord]:
        """Every held record, in the order first stored."""
        return list(self._records.values())

    def digest(self) -> bytes:
        """The bucket hashes, packed as one sync digest item."""
        return _HASHES.pack(*self._hashes)

    def differing_buckets(self, hashes: tuple[int, ...]) -> list[int]:
        """The buckets whose hash differs from a peer's, ascending."""
        return list(compress(range(BUCKETS), map(ne, self._hashes, hashes)))

    def narrow_digests(self, buckets: list[int], limit: int) -> list[list[bytes]]:
        """Narrow digests that list the items this table holds in `buckets`,
        split by bucket so that each lists at most `limit` bytes of items
        (unless one bucket alone holds more)."""
        items = {b: [r.digest_item for r in self._in_bucket[b].values()] for b in buckets}
        runs = chunked(buckets, lambda b: sum(len(item) + 2 for item in items[b]), limit)
        return [
            [_bitmap(run), *(item for b in run for item in items[b])]
            for run in runs
        ]

    def read_digest(self, items: list[bytes]) -> PeerDigest:
        """A peer's sync digest in either form. A hash item of the wrong size,
        a bitmap of the wrong size, or a malformed item raises DecodeError; so
        does an item outside the buckets the bitmap names, or a record id
        listed twice. An item equal to the held record's is not parsed."""
        if len(items) == 1 and len(items[0]) == _HASHES.size:
            return PeerDigest(_HASHES.unpack(items[0]), [], {})
        if not items or len(items[0]) != _BITMAP_SIZE:
            raise DecodeError("sync digest opens with neither bucket hashes nor a bitmap")
        named = {
            8 * at + bit
            for at, byte in enumerate(items[0]) if byte
            for bit in range(8) if byte & 0x80 >> bit
        }
        versions: dict[bytes, Version] = {}
        for item in items[1:]:
            id_end = len(item) - _DIGEST_VERSION.size
            if id_end < 2 or _U16.unpack_from(item)[0] != id_end - 2:
                raise DecodeError(f"sync digest item of {len(item)} bytes is malformed")
            record_id = item[2:id_end]
            if record_id in versions:
                raise DecodeError(f"sync digest lists record {record_id.hex()} twice")
            if bucket_of(record_id) not in named:
                raise DecodeError(f"sync digest lists record {record_id.hex()} outside its buckets")
            held = self._records.get(record_id)
            if held is not None and held.digest_item == item:
                versions[record_id] = held.version
            else:
                versions[record_id] = _DIGEST_VERSION.unpack_from(item, id_end)
        return PeerDigest(None, sorted(named), versions)

    def records_newer_than(self, digest: PeerDigest) -> list[TableRecord]:
        """Records in a narrow digest's buckets that the peer is missing or
        has older, in record-id order."""
        versions = digest.versions
        out = []
        for bucket in digest.buckets:
            for record in self._in_bucket[bucket].values():
                known = versions.get(record.record_id)
                if known is None or known < record.version:
                    out.append(record)
        out.sort(key=_BY_RECORD_ID)
        return out

    def digest_has_news(self, digest: PeerDigest) -> bool:
        """True when a narrow digest shows records we lack or have older. A
        ghost of an entry of ours is not news, for merge_record would reject
        it."""
        for record_id, version in digest.versions.items():
            mine = self._records.get(record_id)
            if mine is None:
                if not self._owns(record_id):
                    return True
            elif mine.version < version:
                return True
        return False

    # --- presentation ---

    def snapshot(self) -> list[ServiceEntry]:
        return sorted(self._held(ServiceEntry), key=lambda e: (e.key, e.host, e.app_id))

    def dump(self) -> str:
        """One line per entry, then one per binding, tab-separated, in a stable order."""
        rows = [
            [str(e.key), str(e.real), e.host.hex(), e.state.name.lower(),
             str(e.incarnation), e.name or "-", str(e.tags)]
            for e in self.snapshot()
        ]
        rows += [
            ["binding", str(b.key), f"{b.gateway.hex()}:{b.external_port}",
             b.state.name.lower(), str(b.incarnation), str(b.admit)]
            for b in sorted(self._held(GatewayBinding), key=_BY_RECORD_ID)
        ]
        return "\n".join("\t".join(row) for row in rows)
