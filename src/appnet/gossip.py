"""Membership and dissemination over unreliable datagrams.

Failure detection follows the familiar probe / indirect-probe / suspicion /
refutation cycle, one protocol period per tick. Members are records of the
service table, next to its entries and bindings, so one store, one codec
and one merge rule serve all three: a suspicion or a death is a member
record at a higher state, and a host refutes one about itself through the
table's owner clause. Records ride envelopes as bounded piggyback from one
queue: each is retransmitted a logarithmic number of times, and an envelope
carries up to PIGGYBACK_LIMIT member records ahead of up to PIGGYBACK_LIMIT
others, those with the highest remaining budget first and, among equals,
the oldest. The queue keeps one FIFO per lane and remaining budget, so
picking costs work in proportion to the envelope, not to the queue.
Periodic anti-entropy closes any gaps the piggyback budget leaves, members
included, in rounds that cost work and bytes in proportion to what differs,
not to the table; a joiner's first round brings it the whole cluster:
  1. anti_entropy() sends a SYNC whose digest is the table's bucket hashes;
  2. a peer whose hashes all match answers with one empty SYNC_REPLY;
     otherwise it answers with narrow SYNCs, which list its digest items in
     the buckets that differ;
  3. a narrow SYNC is answered with SYNC_REPLYs carrying the records the
     sender lacks or has older, and, if it shows records the receiver
     lacks, with narrow SYNCs of the receiver's own items in those buckets;
     if neither, with one empty SYNC_REPLY.
Narrow SYNCs are split by bucket, and replies by record, to stay under
MAX_ENVELOPE, so a joiner with an empty table syncs a table of any size
whose buckets each hold less than CHUNK_LIMIT bytes of items (some 800
records a bucket).
decode_envelope leaves deltas and sync digest items as wire bytes, and the
node resolves them before handle_envelope merges anything: each delta with
ServiceTable.decode, which reuses a record already held in those exact
bytes, and the digest with ServiceTable.read_digest, which checks either
form and parses a narrow digest's few items.
Everything is driven by the owning node's loop: tick() and handle_envelope()
mutate state and return the envelopes to send, and never touch a socket
themselves.

Envelope wire format, all integers big-endian: a header of version byte
0x02, kind byte and 16-byte sender id, then two sections: deltas (table
records of any kind, piggybacked member records first) and the sync digest.
This module owns the section format, a u32 byte length and then each item
with a u16 length prefix: section() writes one and read_section() reads
one. The header is one struct.Struct, used both to encode and to decode. A
sync digest section holds one item of BUCKETS u64 bucket hashes, or a
bitmap of buckets and then digest items; ServiceTable writes and reads both
forms.
"""

from __future__ import annotations

import math
import struct
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Optional, Union

from appnet.errors import DecodeError
from appnet.model import HostId, RealEndpoint
from appnet.service_table import (
    EntryState,
    Member,
    MergeOutcome,
    PeerDigest,
    ServiceTable,
    TableRecord,
    chunked,
)

ENVELOPE_VERSION = 0x02
MAX_ENVELOPE = 60000
# Bytes of records, or of digest items, that one SYNC_REPLY or narrow SYNC
# lists; the rest of MAX_ENVELOPE is room for the header and piggyback.
CHUNK_LIMIT = 48000

# Desk-scale protocol constants; one tick is one protocol period
# (200 ms of wall clock when running over real sockets).
PERIOD_MS = 200
K_INDIRECT = 3
SUSPECT_TIMEOUT = 4
PIGGYBACK_LIMIT = 6
RETRANSMIT_FACTOR = 3
ANTI_ENTROPY_PERIOD = 10

# The envelope header: version, kind, sender id.
_HEADER = struct.Struct(">BB16s")
# A piggyback queue entry's push sequence number.
_SEQ = itemgetter(0)
# Section lengths and the length prefix of each item in a section.
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


class EnvelopeKind(Enum):
    PING = 1
    PING_REQ = 2
    ACK = 3
    SYNC = 4
    SYNC_REPLY = 5


# Anti-entropy must not be lost to simulated datagram loss; over real
# sockets these two kinds travel on a stream instead of UDP.
RELIABLE_KINDS = frozenset({EnvelopeKind.SYNC, EnvelopeKind.SYNC_REPLY})


@dataclass
class GossipEnvelope:
    kind: EnvelopeKind
    sender: HostId
    # Records to send, member records first; decode_envelope leaves each as
    # its wire bytes, for the receiver's ServiceTable.decode. The first
    # record of a PING_REQ is its target's member record, and that of an
    # ACK the member record it attests.
    table_deltas: list[TableRecord] = field(default_factory=list)
    # Digest items to send, the bucket hashes or a narrow digest;
    # decode_envelope leaves them as wire bytes, which the receiver's
    # ServiceTable.read_digest turns into a PeerDigest.
    sync_digest: Optional[Union[list[bytes], PeerDigest]] = None


def section(items) -> bytes:
    """A u32 byte length, then each item with a u16 length prefix."""
    pack = _U16.pack
    try:
        body = b"".join([pack(len(item)) + item for item in items])
    except struct.error:
        raise ValueError(f"section item too large: {max(map(len, items))}") from None
    return _U32.pack(len(body)) + body


def read_section(data: bytes, pos: int) -> tuple[list[bytes], int]:
    """The items of the section at `pos`, and the offset after it."""
    if pos + _U32.size > len(data):
        raise DecodeError(f"truncated envelope: no section length at byte {pos}")
    (length,) = _U32.unpack_from(data, pos)
    pos += _U32.size
    end = pos + length
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
        raise DecodeError("section items overran the section length") from exc
    if pos != end:
        raise DecodeError("section items overran the section length")
    return items, end


def encode_envelope(env: GossipEnvelope) -> bytes:
    data = b"".join((
        _HEADER.pack(ENVELOPE_VERSION, env.kind.value, env.sender),
        section([d.encoded for d in env.table_deltas]),
        section(env.sync_digest or ()),
    ))
    if len(data) > MAX_ENVELOPE:
        raise ValueError(f"envelope of {len(data)} bytes exceeds {MAX_ENVELOPE}")
    return data


def decode_envelope(data: bytes) -> GossipEnvelope:
    if len(data) < _HEADER.size:
        raise DecodeError(f"truncated envelope header: {len(data)} bytes")
    version, kind, sender = _HEADER.unpack_from(data)
    if version != ENVELOPE_VERSION:
        raise DecodeError(f"unsupported envelope version {version}")
    try:
        kind = EnvelopeKind(kind)
    except ValueError as exc:
        raise DecodeError("unknown envelope kind") from exc
    deltas, pos = read_section(data, _HEADER.size)
    digest, pos = read_section(data, pos)
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes")
    return GossipEnvelope(
        kind=kind,
        sender=HostId(sender),
        table_deltas=deltas,
        sync_digest=digest if kind is EnvelopeKind.SYNC or digest else None,
    )


class _Piggyback:
    """Items waiting to ride envelopes, each for a budget of retransmissions.

    Each item waits in a lane, and take() picks up to a room of its own from
    each lane, lane by lane; within a lane it picks the highest remaining
    budget first and, among equals, the oldest push. Items wait in one FIFO
    per lane and remaining budget, each in push order, so picking costs work
    in proportion to what is taken, not to the queue: take() walks a lane's
    FIFOs from the top budget down, and files each item it takes at the
    back of the FIFO one budget lower. That is the item's place in push
    order, because a push never has a lower budget than an older one
    (budgets grow with the membership, which never shrinks). That holds
    only while the table keeps every DEAD member: once death certificates
    reap them (see ROADMAP), budgets can fall. Only a skipped item can be
    overtaken by younger ones; when it is taken later, it is filed among
    them in push order.
    """

    def __init__(self) -> None:
        self.slots: dict = {}  # key -> [value, budget, seq, lane]
        # The non-empty FIFOs by (lane, budget), each of (seq, key) per
        # queued item. A re-queue leaves the item's old entry stale, its seq
        # no longer matching any slot; stale entries are dropped when reached.
        self._fifos: dict[tuple[int, int], deque] = {}
        self._stale = 0
        self._seq = 0

    def push(self, key, value, budget: int, lane: int) -> None:
        self._seq += 1
        slots = self.slots
        if key in slots:
            self._stale += 1
        slots[key] = [value, budget, self._seq, lane]
        fifo = self._fifos.get((lane, budget))
        if fifo is None:
            fifo = self._fifos[lane, budget] = deque()
        fifo.append((self._seq, key))
        if self._stale > len(slots):
            self._refile()

    def take(self, rooms: tuple[int, ...], skip=None) -> list:
        """Up to rooms[lane] values from each lane, lane by lane, each
        spending one unit of budget; `skip` keeps its place."""
        fifos, slots = self._fifos, self.slots
        out = []
        lowered = []  # ((lane, budget - 1), entries taken at budget), in push order
        room = list(rooms)
        for lane, budget in sorted(fifos, key=lambda where: (where[0], -where[1])):
            if room[lane] <= 0:
                continue
            fifo = fifos[lane, budget]
            skipped = None
            taken = []
            while fifo:
                entry = fifo.popleft()
                seq, key = entry
                slot = slots.get(key)
                if slot is None or slot[2] != seq:
                    self._stale -= 1
                    continue
                if skip is not None and key == skip:
                    skipped = entry
                    continue
                out.append(slot[0])
                if budget > 1:
                    slot[1] = budget - 1
                    taken.append(entry)
                else:
                    del slots[key]
                room[lane] -= 1
                if not room[lane]:
                    break
            if skipped is not None:
                fifo.appendleft(skipped)
            elif not fifo:
                del fifos[lane, budget]
            if taken:
                lowered.append(((lane, budget - 1), taken))
        # Filed only now, so no item rides one envelope twice.
        for where, entries in lowered:
            fifo = fifos.get(where)
            if fifo is None:
                fifos[where] = deque(entries)
            elif fifo[-1][0] < entries[0][0]:
                fifo.extend(entries)
            else:
                for entry in entries:
                    insort(fifo, entry, key=_SEQ)
        if self._stale > len(slots):
            self._refile()
        return out

    def _refile(self) -> None:
        """Refile the FIFOs from the slots, once stale entries outnumber live ones."""
        fifos = self._fifos = {}
        for key, (_, budget, seq, lane) in sorted(self.slots.items(), key=lambda kv: kv[1][2]):
            fifos.setdefault((lane, budget), deque()).append((seq, key))
        self._stale = 0


# The piggyback lanes: member records ride ahead of the other records.
_MEMBER_LANE = 0
_RECORD_LANE = 1


@dataclass
class _PingState:
    direct_deadline: int
    final_deadline: int
    indirect_sent: bool = False


Outbound = tuple[RealEndpoint, GossipEnvelope]

_ALIVE, _SUSPECT, _DEAD = EntryState.ALIVE, EntryState.SUSPECT, EntryState.DEAD


class Gossip:
    """Single-owner protocol state machine for one node."""

    def __init__(self, local: Member, table: ServiceTable, rng) -> None:
        self.local_host = local.host
        self.table = table
        self.rng = rng
        self._queue = _Piggyback()  # record id -> record
        self._outstanding: dict[HostId, _PingState] = {}
        self._proxy: dict[tuple[HostId, HostId], tuple[RealEndpoint, int]] = {}
        self._ping_cycle: list[HostId] = []
        self._ping_idx = 0
        # Set by a death, cleared once the probe cycle is checked against it.
        self._death_unchecked = False
        self._ghost_idx = 0
        self._join_peer: Optional[RealEndpoint] = None
        self._next_join = 0
        self._join_backoff = 1
        # Every local write is queued, our own member record first, so the
        # first contacts learn who we are.
        table.on_local_update = self.queue_delta
        table.write_local(local, 0)

    # --- public state views ---

    @property
    def local_record(self) -> Member:
        return self.table.member(self.local_host)

    def alive_members(self, include_self: bool = True) -> list[Member]:
        return [
            m for m in self.table.members(_ALIVE)
            if include_self or m.host != self.local_host
        ]

    def alive_gateways(self) -> list[HostId]:
        return [m.host for m in self.table.members(_ALIVE) if m.is_gateway]

    def begin_join(self, peer: RealEndpoint) -> None:
        self._join_peer = peer
        self._next_join = 0
        self._join_backoff = 1

    # --- the piggyback queue ---

    def _budget(self) -> int:
        n = self.table.member_count()
        return max(1, math.ceil(RETRANSMIT_FACTOR * math.log2(n + 1)))

    def queue_delta(self, record: TableRecord) -> None:
        lane = _MEMBER_LANE if type(record) is Member else _RECORD_LANE
        self._queue.push(record.record_id, record, self._budget(), lane)

    def _envelope(
        self,
        kind: EnvelopeKind,
        first: Optional[Member] = None,
        records: Optional[list[TableRecord]] = None,
        digest: Optional[list[bytes]] = None,
    ) -> GossipEnvelope:
        """An envelope that carries `first`, then piggyback from the queue:
        member records and, unless `records` are given, other records."""
        lead = [] if first is None else [first]
        rooms = (PIGGYBACK_LIMIT - len(lead), PIGGYBACK_LIMIT if records is None else 0)
        taken = self._queue.take(rooms, first and first.record_id)
        return GossipEnvelope(
            kind=kind,
            sender=self.local_host,
            table_deltas=lead + taken + (records or []),
            sync_digest=digest,
        )

    # --- membership ---

    def _member_merged(self, member: Member, prior: Optional[Member], now: int) -> None:
        """React to another host's member record that a merge applied."""
        if member.state is _DEAD:
            if prior is None or prior.state is not _DEAD:
                self._declare_dead(member.host, now)
        elif member.state is _ALIVE:
            self._outstanding.pop(member.host, None)

    def _declare_dead(self, host: HostId, now: int) -> None:
        self._outstanding.pop(host, None)
        self._death_unchecked = True
        self.table.tombstone_host(host, now)

    def suspect_timeout_sweep(self, now: int) -> list[HostId]:
        expired = [
            m.host for m in self.table.members(_SUSPECT)
            if now - m.stamp >= SUSPECT_TIMEOUT
        ]
        for host in expired:
            self.table.mark_member(host, _DEAD, now)
            self._declare_dead(host, now)
        return expired

    def _suspect(self, host: HostId, now: int) -> None:
        member = self.table.member(host)
        if member is not None and member.state is _ALIVE:
            self.table.mark_member(host, _SUSPECT, now)

    # --- the protocol period ---

    def tick(self, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        self._expire_proxies(now)
        out.extend(self._join_step(now))
        out.extend(self._probe_deadlines(now))
        self.suspect_timeout_sweep(now)
        target = self._next_ping_target()
        if target is not None:
            # A still-outstanding probe keeps its original deadlines.
            self._outstanding.setdefault(
                target.host,
                _PingState(direct_deadline=now + 1, final_deadline=now + 2),
            )
            out.append((target.addr, self._envelope(EnvelopeKind.PING)))
        if now > 0 and now % ANTI_ENTROPY_PERIOD == 0:
            peer = self._ring_successor()
            if peer is not None:
                out.append((peer.addr, self.anti_entropy()))
            # Also sync one non-alive member in rotation. A node wrongly
            # declared dead across a healed partition answers; the bucket
            # that holds its member record differs, so it is sent its own
            # death, refutes it, and the sides rejoin. A genuinely dead one
            # costs a single lost envelope per period.
            ghost = self._next_ghost()
            if ghost is not None and (peer is None or ghost.host != peer.host):
                out.append((ghost.addr, self.anti_entropy()))
        return out

    def _next_ghost(self) -> Optional[Member]:
        ghosts = self.table.members(_SUSPECT, _DEAD)
        if not ghosts:
            return None
        ghost = ghosts[self._ghost_idx % len(ghosts)]
        self._ghost_idx += 1
        return ghost

    def _join_step(self, now: int) -> list[Outbound]:
        if self._join_peer is None or self.table.member_count() > 1:
            return []
        if now < self._next_join:
            return []
        self._next_join = now + self._join_backoff
        self._join_backoff = min(self._join_backoff * 2, ANTI_ENTROPY_PERIOD)
        return [(self._join_peer, self.anti_entropy())]

    def _probe_deadlines(self, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        for host, state in list(self._outstanding.items()):
            member = self.table.member(host)
            if member is None or member.state is _DEAD:
                del self._outstanding[host]
                continue
            if not state.indirect_sent and now >= state.direct_deadline:
                state.indirect_sent = True
                for helper in self._pick_helpers(host):
                    env = self._envelope(EnvelopeKind.PING_REQ, first=member)
                    out.append((helper.addr, env))
            if now >= state.final_deadline:
                del self._outstanding[host]
                self._suspect(host, now)
        return out

    def _pick_helpers(self, target: HostId) -> list[Member]:
        candidates = [
            m
            for m in self.alive_members(include_self=False)
            if m.host != target
        ]
        self.rng.shuffle(candidates)
        return candidates[:K_INDIRECT]

    def _next_ping_target(self) -> Optional[Member]:
        # The cycle is built from peers that are not dead, and members are
        # never dropped, so only a death can leave a dead host in it.
        if self._ping_idx >= len(self._ping_cycle) or self._death_unchecked:
            peers = [
                m.host
                for m in self.table.members(_ALIVE, _SUSPECT)
                if m.host != self.local_host
            ]
            if not peers:
                return None
            if self._ping_idx >= len(self._ping_cycle) or not set(
                self._ping_cycle
            ).issubset(peers):
                self._ping_cycle = peers
                self.rng.shuffle(self._ping_cycle)
                self._ping_idx = 0
            self._death_unchecked = False
        host = self._ping_cycle[self._ping_idx]
        self._ping_idx += 1
        return self.table.member(host)

    def _ring_successor(self) -> Optional[Member]:
        alive = self.alive_members(include_self=False)
        if not alive:
            return None
        after = [m for m in alive if m.host > self.local_host]
        return after[0] if after else alive[0]

    def _expire_proxies(self, now: int) -> None:
        for key, (_, expiry) in list(self._proxy.items()):
            if now > expiry:
                del self._proxy[key]

    # --- inbound ---

    def handle_envelope(
        self, env: GossipEnvelope, now: int, source: RealEndpoint
    ) -> list[Outbound]:
        out: list[Outbound] = []
        table = self.table
        if table.member(env.sender) is None and env.sender != self.local_host:
            # First contact: the source address is the peer's gossip listener.
            table.merge_record(Member(env.sender, source, _ALIVE, 0), now)
        for record in env.table_deltas:
            prior = table.member(record.host) if type(record) is Member else None
            if table.merge_record(record, now) is MergeOutcome.APPLIED:
                # Fresh information is infective: re-spread with our own budget.
                self.queue_delta(record)
                if type(record) is Member:
                    self._member_merged(record, prior, now)

        if env.kind is EnvelopeKind.PING:
            ack = self._envelope(EnvelopeKind.ACK, first=self.local_record)
            out.append((source, ack))
        elif env.kind is EnvelopeKind.PING_REQ:
            out.extend(self._handle_ping_req(env, now, source))
        elif env.kind is EnvelopeKind.ACK:
            out.extend(self._handle_ack(env, now))
        elif env.kind is EnvelopeKind.SYNC:
            out.extend(self._handle_sync(env, now, source))
        # SYNC_REPLY needs no reply; its payload was merged above.
        return out

    def _handle_ping_req(
        self, env: GossipEnvelope, now: int, source: RealEndpoint
    ) -> list[Outbound]:
        target = _first_member(env)
        if target is None:
            return []
        if target.host == self.local_host:
            # We are the subject; answer directly.
            return [(source, self._envelope(EnvelopeKind.ACK, first=self.local_record))]
        self._proxy[(env.sender, target.host)] = (source, now + 2)
        member = self.table.member(target.host) or target
        return [(member.addr, self._envelope(EnvelopeKind.PING))]

    def _handle_ack(self, env: GossipEnvelope, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        self._outstanding.pop(env.sender, None)
        # The first record of an ack is an attestation: the sender's own
        # member record on a direct ack, or the probed target's on a relayed
        # one.
        subject = _first_member(env)
        if subject is not None and subject.state is _ALIVE:
            self._outstanding.pop(subject.host, None)
        for (origin, target), (origin_addr, _) in list(self._proxy.items()):
            if target == env.sender:
                del self._proxy[(origin, target)]
                attested = self.table.member(target)
                if attested is not None:
                    relay = self._envelope(EnvelopeKind.ACK, first=attested)
                    out.append((origin_addr, relay))
        return out

    def _handle_sync(
        self, env: GossipEnvelope, now: int, source: RealEndpoint
    ) -> list[Outbound]:
        digest = env.sync_digest
        if digest.hashes is not None:
            differ = self.table.differing_buckets(digest.hashes)
            if not differ:
                return [(source, self._envelope(EnvelopeKind.SYNC_REPLY, records=[]))]
            return [(source, sync) for sync in self._narrow_syncs(differ)]
        out: list[Outbound] = []
        records = self.table.records_newer_than(digest)
        for chunk in chunked(records, lambda r: len(r.encoded) + 2, CHUNK_LIMIT):
            reply = self._envelope(EnvelopeKind.SYNC_REPLY, records=chunk)
            out.append((source, reply))
        if self.table.digest_has_news(digest):
            out.extend((source, sync) for sync in self._narrow_syncs(digest.buckets))
        if not out:
            out.append((source, self._envelope(EnvelopeKind.SYNC_REPLY, records=[])))
        return out

    def _narrow_syncs(self, buckets: list[int]) -> list[GossipEnvelope]:
        """SYNCs that list our digest items in `buckets`."""
        return [
            self._envelope(EnvelopeKind.SYNC, digest=items)
            for items in self.table.narrow_digests(buckets, CHUNK_LIMIT)
        ]

    def anti_entropy(self) -> GossipEnvelope:
        """A SYNC of our bucket hashes; the peer answers with what differs."""
        return self._envelope(EnvelopeKind.SYNC, digest=[self.table.digest()])


def _first_member(env: GossipEnvelope) -> Optional[Member]:
    """The member record an envelope opens with, if it opens with one."""
    first = env.table_deltas[0] if env.table_deltas else None
    return first if type(first) is Member else None
