"""The replicated service table: virtual identities mapped to real endpoints.

Service entries and gateway bindings share one record path. Local writes go
through insert_local, insert_binding and retire; the rest arrives through
merge_record. Merge and the anti-entropy digest order records by one version,
(incarnation, state, crc32 of the encoding): the higher incarnation wins; at
equal incarnation a tombstone beats a live record; at equal incarnation and
state the larger fingerprint wins, so rival writes resolve alike everywhere.
Retiring writes a tombstone at the next incarnation; tombstones are kept for
TOMBSTONE_TTL ticks, long enough to outlive in-flight rumors.

Each record kind has one wire layout, a few struct.Structs that the encoder
packs and the decoder unpacks: the kind byte and service key open it, then
fixed fields and lp16 strings, then the tags.

Every record has one name, its record id: the kind byte and key, then the
host and app id of an entry or the gateway id and port of a binding. The
table keeps all records in one store keyed by it; the switch and the node
name what they serve and expose by it too.

A delta arrives as wire bytes, and decode() resolves it before it merges.
The record id sits in those bytes at offsets named by the layout's struct
sizes, so one store lookup finds the resident record; when the bytes equal
its encoding, the resident object is the answer and nothing is decoded.
Most deltas repeat what the receiver holds, and merge finds them stale. Any
other bytes, an older version of the same record included, go through the
full decoder and its checks.

A sync digest lists one item per held record: the lp16 record id, then the
version packed as (u64 incarnation, u8 state, u32 crc32). Each record builds
its item once, and the table indexes held records by item, so a peer's
digest is read by comparing bytes: an item equal to a held one says the
peer holds exactly that record, and is skipped unparsed. Only the few items
that differ are checked and parsed, and records_newer_than and
digest_has_news work from those, in O(difference) Python work.

Only an entry's id names its sole writer, so two owner clauses apply to
entries of the local host only: a foreign tombstone of a live one is refuted
by re-writing it above the tombstone, and a ghost of one this node no longer
holds is rejected. merge_record and digest_has_news ask the same predicate,
so a digest item for such a ghost is not news either. A binding is written
by the exposing node and released by its gateway, or by any node once that
gateway is dead.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from ipaddress import IPv4Address
from operator import attrgetter
from typing import AbstractSet, Callable, NamedTuple, Optional, Union

from appnet.errors import AmbiguousName, DecodeError, DuplicateAppBinding, InvalidTag
from appnet.model import AUTO_POOL, HostId, RealEndpoint, ServiceKey, TagSet

TOMBSTONE_TTL = 30  # gossip periods

SERVICE_PORT_MIN = 49152
SERVICE_PORT_MAX = 65535


class EntryState(Enum):
    ALIVE = 0
    TOMBSTONE = 1


class MergeOutcome(Enum):
    APPLIED = "applied"
    STALE = "stale"
    REFUTED = "refuted"


Version = tuple[int, int, int]  # (incarnation, state, crc32 of the encoding)


class _Record:
    """What the table needs of either record class.

    Records are frozen. A record's id, wire encoding, version and sync digest
    item are plain slots, set once when it is built: a record built in memory
    is encoded then; a decoded one keeps the bytes its writer sent, so its
    version is the crc32 of those; a stamped copy shares its source's. The
    stamp is the local tick of the last write: it is not on the wire and
    takes no part in comparisons.
    """

    __slots__ = ("record_id", "encoded", "version", "digest_item")

    def __post_init__(self) -> None:
        # A field out of its range fails to pack: an app id, name or tag over
        # 0xFFFF bytes, or an app id too long for its lp16 digest record id.
        try:
            self._seal(encode_record(self))
        except struct.error as exc:
            raise ValueError(f"cannot encode {type(self).__name__}: {exc}") from exc

    def _seal(self, encoded: bytes):
        object.__setattr__(self, "encoded", encoded)
        object.__setattr__(self, "record_id", record_id_of(encoded))
        version = (self.incarnation, self.state.value, zlib.crc32(encoded))
        object.__setattr__(self, "version", version)
        item = _U16.pack(len(self.record_id)) + self.record_id + _DIGEST_VERSION.pack(*version)
        object.__setattr__(self, "digest_item", item)
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


TableRecord = Union[ServiceEntry, GatewayBinding]

# --- codec: one layout per record kind, used to encode and to decode ---

_KIND_ENTRY = 0
_KIND_BINDING = 1
_ENTRY_KIND_BYTE = bytes([_KIND_ENTRY])

# Every record opens with its kind byte and service key (vip, port).
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
_U16 = struct.Struct(">H")
# A sync digest item's version, after its lp16 record id.
_DIGEST_VERSION = struct.Struct(">QBI")


def record_id_of(data: bytes) -> bytes:
    """The record id inside a record's wire bytes, sliced where it sits. Bytes
    too short for one give a short id; this never raises."""
    if data[:1] == _ENTRY_KIND_BYTE:
        app_at = _ENTRY_HEAD.size
        app_end = app_at + int.from_bytes(data[app_at - _U16.size : app_at], "big")
        return data[: _KEY.size] + data[_KEY.size + _REAL.size : app_end]
    return data[:1] + data[_KEY.size : _KEY.size + _BINDING_ID.size]


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
        e.host.raw, len(app_id),
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
        _KIND_BINDING, int(b.key.vip), b.key.port, b.gateway.raw, b.external_port,
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


_ENCODERS = {ServiceEntry: _encode_entry, GatewayBinding: _encode_binding}
_DECODERS = {_KIND_ENTRY: _decode_entry, _KIND_BINDING: _decode_binding}


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
    """A peer's sync digest as ServiceTable.read_digest read it."""

    items: AbstractSet[bytes]  # every item, as its wire bytes
    versions: dict[bytes, Version]  # by record id, each item not held here


class ServiceTable:
    """One node's view of the cluster's registrations.

    Mutated only from the owning node's event loop; snapshot() hands out
    immutable copies for anything that runs elsewhere.
    """

    def __init__(self, local_host: HostId) -> None:
        self.local_host = local_host
        # Every held record by record id. The kind byte opens each id, so
        # entries and bindings never collide.
        self._records: dict[bytes, TableRecord] = {}
        # Indexes over the store, kept by _put alone: live entries by key and
        # by lower-cased name, and tombstones of either class by stamp. Each
        # bucket maps record id to record; an emptied bucket is dropped.
        self._by_key: dict[ServiceKey, dict[bytes, ServiceEntry]] = {}
        self._by_name: dict[str, dict[bytes, ServiceEntry]] = {}
        self._tombstones: dict[int, dict[bytes, TableRecord]] = {}
        # Every held record by its sync digest item, also kept by _put alone.
        self._by_digest: dict[bytes, TableRecord] = {}
        # Called with each record this node originates or re-owns, so the
        # gossip layer can queue it for dissemination.
        self.on_local_update: Optional[Callable[[TableRecord], None]] = None

    def _put(self, record_id: bytes, record: Optional[TableRecord]) -> None:
        """The one write to the store: put `record` under `record_id`, or delete
        what is there when `record` is None, keeping the indexes in step. A
        replaced record keeps its place in the store's order."""
        prior = self._records.get(record_id)
        if prior is not None:
            del self._by_digest[prior.digest_item]
            for index, bucket in self._buckets(prior):
                del index[bucket][record_id]
                if not index[bucket]:
                    del index[bucket]
        if record is None:
            del self._records[record_id]
            return
        self._records[record_id] = record
        self._by_digest[record.digest_item] = record
        for index, bucket in self._buckets(record):
            index.setdefault(bucket, {})[record_id] = record

    def _buckets(self, record: TableRecord) -> list[tuple[dict, object]]:
        """Each (index, bucket) that holds `record`."""
        if record.state is EntryState.TOMBSTONE:
            return [(self._tombstones, record.stamp)]
        if type(record) is not ServiceEntry:
            return []
        if record.name:
            return [(self._by_key, record.key), (self._by_name, record.name.lower())]
        return [(self._by_key, record.key)]

    # --- local writes ---

    def _write_local(
        self, record: TableRecord, now: int, above: int = 0, **changes
    ) -> TableRecord:
        """Store `record`, with `changes`, at this node's next incarnation for
        it, and announce it."""
        prior = self._records.get(record.record_id)
        incarnation = max(prior.incarnation if prior else 0, above) + 1
        stored = replace(record, incarnation=incarnation, stamp=now, **changes)
        self._put(record.record_id, stored)
        if self.on_local_update is not None:
            self.on_local_update(stored)
        return stored

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
        return self._write_local(entry, now)

    def insert_binding(self, binding: GatewayBinding, now: int) -> GatewayBinding:
        return self._write_local(binding, now)

    def retire(self, record_id: bytes, now: int) -> bool:
        """Tombstone a live entry or release an active binding."""
        resident = self._records.get(record_id)
        if resident is None or resident.state is not EntryState.ALIVE:
            return False
        self._write_local(resident, now, state=EntryState.TOMBSTONE)
        return True

    def tombstone_host(self, host: HostId, now: int) -> int:
        """Retire every live record a dead node owned; returns the count."""
        doomed = [
            r for r in self.records() if r.owner == host and r.state is EntryState.ALIVE
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
        encoding of the record held under their id are that record itself:
        they are known to be well formed, so nothing is built. Any other
        bytes go through decode_record and its checks."""
        resident = self._records.get(record_id_of(data))
        if resident is not None and resident.encoded == data:
            return resident
        return decode_record(data)

    def _owns(self, record_id: bytes) -> bool:
        """True for the id of an entry of this host, its sole writer: the one
        test behind merge_record's owner clauses and digest_has_news."""
        return record_id[:1] == _ENTRY_KIND_BYTE and record_id.startswith(
            self.local_host.raw, _KEY.size
        )

    def merge_record(self, record: TableRecord, now: int) -> MergeOutcome:
        resident = self._records.get(record.record_id)
        # For our own entries we refute a foreign version (say a tombstone)
        # that would beat a live one, and reject a ghost of one we no longer
        # hold.
        if self._owns(record.record_id):
            if resident is None:
                return MergeOutcome.STALE
            if resident.state is EntryState.ALIVE and record.version > resident.version:
                self._write_local(resident, now, above=record.incarnation)
                return MergeOutcome.REFUTED
        if resident is not None and record.version <= resident.version:
            return MergeOutcome.STALE
        self._put(record.record_id, record.stamped(now))
        return MergeOutcome.APPLIED

    # --- lookups ---

    def lookup(self, key: ServiceKey) -> list[ServiceEntry]:
        found = list(self._by_key.get(key, {}).values())
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

    def _live(self, index: dict[object, dict[bytes, ServiceEntry]]) -> list[ServiceEntry]:
        """Every live entry in `index`, _by_key or _by_name."""
        return [e for bucket in index.values() for e in bucket.values()]

    def alive_entries(self) -> list[ServiceEntry]:
        return sorted(self._live(self._by_key), key=lambda e: (e.key, e.host, e.app_id))

    def entries_for_app(self, host: HostId, app_id: str) -> list[ServiceEntry]:
        return [e for e in self._live(self._by_key) if e.host == host and e.app_id == app_id]

    def auto_allocations(self) -> dict[IPv4Address, str]:
        """AutoPool vips currently claimed by live named entries."""
        return {e.key.vip: e.name for e in self._live(self._by_name) if e.key.vip in AUTO_POOL}

    def used_service_ports(self, vip: IPv4Address) -> set[int]:
        return {key.port for key in self._by_key if key.vip == vip}

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

    # --- sync support ---

    def records(self) -> list[TableRecord]:
        """Every held record, in the order first stored."""
        return list(self._records.values())

    def digest(self) -> list[bytes]:
        """The digest item of every held record, in record-id order."""
        return [r.digest_item for r in sorted(self.records(), key=_BY_RECORD_ID)]

    def read_digest(self, items: list[bytes]) -> PeerDigest:
        """A peer's digest items, read against the digest index. An item equal
        to a held one is well formed, and is skipped; every other item is
        checked and parsed, in wire order. A malformed item, or a record id
        listed twice, raises DecodeError: a digest lists each record once."""
        theirs = set(items)
        if len(theirs) != len(items):
            raise DecodeError("sync digest lists an item twice")
        unmatched = theirs - self._by_digest.keys()
        versions: dict[bytes, Version] = {}
        for item in filter(unmatched.__contains__, items):
            id_end = len(item) - _DIGEST_VERSION.size
            if id_end < 2 or _U16.unpack_from(item)[0] != id_end - 2:
                raise DecodeError(f"sync digest item of {len(item)} bytes is malformed")
            record_id = item[2:id_end]
            held = self._records.get(record_id)
            if record_id in versions or (held is not None and held.digest_item in theirs):
                raise DecodeError(f"sync digest lists record {record_id.hex()} twice")
            versions[record_id] = _DIGEST_VERSION.unpack_from(item, id_end)
        return PeerDigest(theirs, versions)

    def records_newer_than(self, digest: PeerDigest) -> list[TableRecord]:
        """Records a peer with the given digest is missing or has older. A
        record that this envelope's deltas replaced after the digest was read
        is newer than the item that matched it, so it is sent."""
        index, versions = self._by_digest, digest.versions
        out = []
        for item in index.keys() - digest.items:
            record = index[item]
            known = versions.get(record.record_id)
            if known is None or known < record.version:
                out.append(record)
        out.sort(key=_BY_RECORD_ID)
        return out

    def digest_has_news(self, digest: PeerDigest) -> bool:
        """True when the digest shows records we lack or have older. An item
        that matched a held record shows nothing new, even if that record has
        been replaced since, for a replacement is newer; nor does a ghost of
        an entry of ours, which merge_record would reject."""
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
            [str(e.key), str(e.real), e.host.hex, e.state.name.lower(),
             str(e.incarnation), e.name or "-", str(e.tags)]
            for e in self.snapshot()
        ]
        rows += [
            ["binding", str(b.key), f"{b.gateway.hex}:{b.external_port}",
             b.state.name.lower(), str(b.incarnation), str(b.admit)]
            for b in sorted(self._held(GatewayBinding), key=_BY_RECORD_ID)
        ]
        return "\n".join("\t".join(row) for row in rows)
