"""Membership and dissemination over unreliable datagrams.

Failure detection follows the familiar probe / indirect-probe / suspicion /
refutation cycle, one protocol period per tick. Member rumors and
service-table records ride the same envelopes as bounded piggyback under one
queue rule: each is retransmitted a logarithmic number of times, and an
envelope carries up to PIGGYBACK_LIMIT of each, those with the highest
remaining budget first and, among equals, the oldest. Each queue keeps one
FIFO per remaining budget, so picking costs work in proportion to the
envelope, not to the queue.
Periodic anti-entropy closes any gaps the rumor budget leaves, in rounds
that cost work and bytes in proportion to what differs, not to the table:
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
decode_envelope leaves member rumors, table deltas and sync digest items as
wire bytes, and the node resolves them before handle_envelope merges
anything: each rumor with Gossip.decode_rumor and each delta with
ServiceTable.decode, both of which reuse a record already held in those
exact bytes, and the digest with ServiceTable.read_digest, which checks
either form and parses a narrow digest's few items. Almost every rumor
repeats what the receiver holds; handle_envelope counts such a rumor stale
without merging it.
Everything is driven by the owning node's loop: tick() and handle_envelope()
mutate state and return the envelopes to send, and never touch a socket
themselves.

Envelope wire format, all integers big-endian: a header of version byte
0x01, kind byte and 16-byte sender id, then three sections (membership
rumors, table deltas, sync digest). This module owns the section format, a
u32 byte length and then each item with a u16 length prefix: section()
writes one and read_section() reads one. The header and the member rumor
are each one struct.Struct, used both to encode and to decode. A sync
digest section holds one item of BUCKETS u64 bucket hashes, or a bitmap of
buckets and then digest items; ServiceTable writes and reads both forms.
"""

from __future__ import annotations

import math
import struct
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from ipaddress import IPv4Address
from operator import itemgetter
from typing import Optional, Union

from appnet.errors import DecodeError
from appnet.model import HostId, RealEndpoint
from appnet.service_table import (
    MergeOutcome,
    PeerDigest,
    ServiceTable,
    TableRecord,
    chunked,
)

ENVELOPE_VERSION = 0x01
MAX_ENVELOPE = 60000
# Bytes of records, or of digest items, that one SYNC_REPLY or narrow SYNC
# lists; the rest of MAX_ENVELOPE is room for the header, rumors and deltas.
CHUNK_LIMIT = 48000

# Desk-scale protocol constants; one tick is one protocol period
# (200 ms of wall clock when running over real sockets).
PERIOD_MS = 200
K_INDIRECT = 3
SUSPECT_TIMEOUT = 4
PIGGYBACK_LIMIT = 6
RETRANSMIT_FACTOR = 3
ANTI_ENTROPY_PERIOD = 10

_GATEWAY_FLAG = 0x80

# The envelope header: version, kind, sender id.
_HEADER = struct.Struct(">BB16s")
# A member rumor: host id, gossip address and port, status byte (with the
# gateway flag), incarnation.
_MEMBER = struct.Struct(">16sIHBQ")
# A piggyback queue entry's push sequence number.
_SEQ = itemgetter(0)
# Section lengths and the length prefix of each item in a section.
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


class MemberStatus(Enum):
    ALIVE = 0
    SUSPECT = 1
    DEAD = 2


class EnvelopeKind(Enum):
    PING = 1
    PING_REQ = 2
    ACK = 3
    SYNC = 4
    SYNC_REPLY = 5


# Anti-entropy must not be lost to simulated datagram loss; over real
# sockets these two kinds travel on a stream instead of UDP.
RELIABLE_KINDS = frozenset({EnvelopeKind.SYNC, EnvelopeKind.SYNC_REPLY})


@dataclass(frozen=True, slots=True)
class MemberRecord:
    host: HostId
    addr: RealEndpoint
    status: MemberStatus
    incarnation: int
    is_gateway: bool = False
    last_change: int = 0

    def freshness(self) -> tuple[int, int]:
        """Merge order: incarnation first, then Dead > Suspect > Alive."""
        return (self.incarnation, self.status.value)


@dataclass
class GossipEnvelope:
    kind: EnvelopeKind
    sender: HostId
    # Members to send; decode_envelope leaves each as its wire bytes, for the
    # receiver's Gossip.decode_rumor.
    membership_rumors: list[MemberRecord] = field(default_factory=list)
    # Records to send; decode_envelope leaves each as its wire bytes, for the
    # receiver's ServiceTable.decode.
    table_deltas: list[TableRecord] = field(default_factory=list)
    # Digest items to send, the bucket hashes or a narrow digest;
    # decode_envelope leaves them as wire bytes, which the receiver's
    # ServiceTable.read_digest turns into a PeerDigest.
    sync_digest: Optional[Union[list[bytes], PeerDigest]] = None


def _encode_member(m: MemberRecord) -> bytes:
    status = m.status.value | (_GATEWAY_FLAG if m.is_gateway else 0)
    return _MEMBER.pack(m.host, int(m.addr.host_ip), m.addr.port, status, m.incarnation)


def _decode_member(data: bytes) -> MemberRecord:
    if len(data) != _MEMBER.size:
        raise DecodeError(f"member rumor of {len(data)} bytes, expected {_MEMBER.size}")
    host, ip, port, status_byte, incarnation = _MEMBER.unpack(data)
    try:
        status = MemberStatus(status_byte & 0x0F)
    except ValueError as exc:
        raise DecodeError(f"bad member status {status_byte}") from exc
    return MemberRecord(
        host=HostId(host),
        addr=RealEndpoint(IPv4Address(ip), port),
        status=status,
        incarnation=incarnation,
        is_gateway=bool(status_byte & _GATEWAY_FLAG),
    )


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
        section([_encode_member(m) for m in env.membership_rumors]),
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
    rumors, pos = read_section(data, _HEADER.size)
    deltas, pos = read_section(data, pos)
    digest, pos = read_section(data, pos)
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes")
    return GossipEnvelope(
        kind=kind,
        sender=HostId(sender),
        membership_rumors=rumors,
        table_deltas=deltas,
        sync_digest=digest if kind is EnvelopeKind.SYNC or digest else None,
    )


class _Piggyback:
    """Items waiting to ride envelopes, each for a budget of retransmissions.

    take() picks the highest remaining budget first and, among equals, the
    oldest push. Items wait in one FIFO per remaining budget, each in push
    order, so picking costs work in proportion to what is taken, not to the
    queue: take() walks the FIFOs from the top budget down, and files each
    item it takes at the back of the FIFO one budget lower. That is the
    item's place in push order, because a push never has a lower budget than
    an older one (budgets grow with the membership, which never shrinks).
    Only a skipped item can be overtaken by younger ones; when it is taken
    later, it is filed among them in push order.
    """

    def __init__(self) -> None:
        self.slots: dict = {}  # key -> [value, budget, seq]
        # The non-empty FIFOs by budget, each of (seq, key) per queued item.
        # A re-queue leaves the item's old entry stale, its seq no longer
        # matching any slot; stale entries are dropped when reached.
        self._fifos: dict[int, deque] = {}
        self._stale = 0
        self._seq = 0

    def push(self, key, value, budget: int) -> None:
        self._seq += 1
        slots = self.slots
        if key in slots:
            self._stale += 1
        slots[key] = [value, budget, self._seq]
        fifo = self._fifos.get(budget)
        if fifo is None:
            fifo = self._fifos[budget] = deque()
        fifo.append((self._seq, key))
        if self._stale > len(slots):
            self._refile()

    def take(self, limit: int, skip=None) -> list:
        """Up to `limit` values, each spending one unit of budget; `skip` keeps its place."""
        fifos, slots = self._fifos, self.slots
        out = []
        lowered = []  # (budget - 1, entries taken at budget), in push order
        room = limit
        for budget in sorted(fifos, reverse=True):
            if room <= 0:
                break
            fifo = fifos[budget]
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
                room -= 1
                if not room:
                    break
            if skipped is not None:
                fifo.appendleft(skipped)
            elif not fifo:
                del fifos[budget]
            if taken:
                lowered.append((budget - 1, taken))
        # Filed only now, so no item rides one envelope twice.
        for budget, entries in lowered:
            fifo = fifos.get(budget)
            if fifo is None:
                fifos[budget] = deque(entries)
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
        for key, (_, budget, seq) in sorted(self.slots.items(), key=lambda kv: kv[1][2]):
            fifos.setdefault(budget, deque()).append((seq, key))
        self._stale = 0


@dataclass
class _PingState:
    direct_deadline: int
    final_deadline: int
    indirect_sent: bool = False


Outbound = tuple[RealEndpoint, GossipEnvelope]


class Gossip:
    """Single-owner protocol state machine for one node."""

    def __init__(self, local: MemberRecord, table: ServiceTable, rng) -> None:
        self.local_host = local.host
        self.table = table
        self.rng = rng
        # Every known member by host, and indexes over it that _store alone
        # keeps: each member by its rumor's wire bytes, and the suspects.
        self.members: dict[HostId, MemberRecord] = {}
        self._by_wire: dict[bytes, MemberRecord] = {}
        self._suspects: set[HostId] = set()
        self._store(local)
        self._rumors = _Piggyback()  # host -> host
        self._deltas = _Piggyback()  # record id -> record
        self._outstanding: dict[HostId, _PingState] = {}
        self._proxy: dict[tuple[HostId, HostId], tuple[RealEndpoint, int]] = {}
        self._ping_cycle: list[HostId] = []
        self._ping_idx = 0
        # Set by a death, cleared once the probe cycle is checked against it.
        self._death_unchecked = False
        self._refresh_idx = 0
        self._ghost_idx = 0
        self._join_peer: Optional[RealEndpoint] = None
        self._next_join = 0
        self._join_backoff = 1
        self.counters = {"stale_rumors": 0}
        # Announce ourselves so the first contacts learn who we are.
        self._queue_rumor(local.host)

    # --- public state views ---

    @property
    def local_record(self) -> MemberRecord:
        return self.members[self.local_host]

    def alive_members(self, include_self: bool = True) -> list[MemberRecord]:
        out = [
            m
            for m in self.members.values()
            if m.status is MemberStatus.ALIVE
            and (include_self or m.host != self.local_host)
        ]
        out.sort(key=lambda m: m.host)
        return out

    def alive_gateways(self) -> list[HostId]:
        return [m.host for m in self.alive_members() if m.is_gateway]

    def begin_join(self, peer: RealEndpoint) -> None:
        self._join_peer = peer
        self._next_join = 0
        self._join_backoff = 1

    # --- rumor and delta queues ---

    def _budget(self) -> int:
        n = len(self.members)
        return max(1, math.ceil(RETRANSMIT_FACTOR * math.log2(n + 1)))

    def _queue_rumor(self, host: HostId) -> None:
        self._rumors.push(host, host, self._budget())

    def queue_delta(self, record: TableRecord) -> None:
        self._deltas.push(record.record_id, record, self._budget())

    # --- piggyback composition ---

    def _take_rumors(self, first: Optional[MemberRecord], refresh: bool) -> list[MemberRecord]:
        out: list[MemberRecord] = []
        skip = None
        if first is not None:
            out.append(first)
            skip = first.host
        for host in self._rumors.take(PIGGYBACK_LIMIT - len(out), skip):
            out.append(self.members[host])
        if refresh and len(out) < PIGGYBACK_LIMIT:
            # Rotate through the full membership so ring partners eventually
            # see every record even after its rumor budget is spent.
            seen = {m.host for m in out}
            ordered = sorted(self.members)
            for _ in range(len(ordered)):
                if len(out) >= PIGGYBACK_LIMIT:
                    break
                host = ordered[self._refresh_idx % len(ordered)]
                self._refresh_idx += 1
                if host not in seen:
                    out.append(self.members[host])
                    seen.add(host)
        return out

    def _envelope(
        self,
        kind: EnvelopeKind,
        first_rumor: Optional[MemberRecord] = None,
        deltas: Optional[list[TableRecord]] = None,
        digest: Optional[list[bytes]] = None,
    ) -> GossipEnvelope:
        refresh = kind in RELIABLE_KINDS
        return GossipEnvelope(
            kind=kind,
            sender=self.local_host,
            membership_rumors=self._take_rumors(first_rumor, refresh),
            table_deltas=self._deltas.take(PIGGYBACK_LIMIT) if deltas is None else deltas,
            sync_digest=digest,
        )

    # --- membership merge ---

    def _store(self, member: MemberRecord) -> None:
        """The one write to the member store: put `member` under its host,
        keeping _by_wire and _suspects in step."""
        prior = self.members.get(member.host)
        if prior is not None:
            del self._by_wire[_encode_member(prior)]
        self.members[member.host] = member
        self._by_wire[_encode_member(member)] = member
        if member.status is MemberStatus.SUSPECT:
            self._suspects.add(member.host)
        else:
            self._suspects.discard(member.host)

    def decode_rumor(self, data: bytes) -> MemberRecord:
        """The member record that a rumor's wire bytes encode. Bytes equal to
        the encoding of a held record are that record itself: they are known
        to be well formed, so nothing is built. Any other bytes go through
        the full decoder and its checks."""
        held = self._by_wire.get(data)
        return held if held is not None else _decode_member(data)

    def _merge_member(self, incoming: MemberRecord, now: int) -> None:
        if incoming.host == self.local_host:
            if (
                incoming.status in (MemberStatus.SUSPECT, MemberStatus.DEAD)
                and incoming.incarnation >= self.local_record.incarnation
            ):
                self.refute(incoming.incarnation, now)
            return
        resident = self.members.get(incoming.host)
        if resident is not None and incoming.freshness() <= resident.freshness():
            self.counters["stale_rumors"] += 1
            return
        was_dead = resident is not None and resident.status is MemberStatus.DEAD
        stored = replace(incoming, last_change=now)
        self._store(stored)
        self._queue_rumor(incoming.host)
        if stored.status is MemberStatus.DEAD and not was_dead:
            self._declare_dead(incoming.host, now)
        if stored.status is MemberStatus.ALIVE:
            self._outstanding.pop(incoming.host, None)

    def _declare_dead(self, host: HostId, now: int) -> None:
        self._outstanding.pop(host, None)
        self._death_unchecked = True
        self.table.tombstone_host(host, now)

    def refute(self, observed_incarnation: int, now: int) -> MemberRecord:
        """Re-assert our own liveness above a rumor that doubts it."""
        me = self.local_record
        bumped = replace(
            me,
            status=MemberStatus.ALIVE,
            incarnation=max(me.incarnation, observed_incarnation) + 1,
            last_change=now,
        )
        self._store(bumped)
        self._queue_rumor(self.local_host)
        return bumped

    def suspect_timeout_sweep(self, now: int) -> list[HostId]:
        expired = {
            host
            for host in self._suspects
            if now - self.members[host].last_change >= SUSPECT_TIMEOUT
        }
        if not expired:
            return []
        # Deaths queue rumors and tombstones, so they go in membership order.
        newly_dead = [host for host in self.members if host in expired]
        for host in newly_dead:
            self._store(replace(self.members[host], status=MemberStatus.DEAD, last_change=now))
            self._queue_rumor(host)
            self._declare_dead(host, now)
        return newly_dead

    def _suspect(self, host: HostId, now: int) -> None:
        member = self.members.get(host)
        if member is None or member.status is not MemberStatus.ALIVE:
            return
        self._store(replace(member, status=MemberStatus.SUSPECT, last_change=now))
        self._queue_rumor(host)

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
            # declared dead across a healed partition answers, sees the
            # death rumor riding the digest, refutes, and the sides rejoin;
            # a genuinely dead one costs a single lost envelope per period.
            ghost = self._next_ghost()
            if ghost is not None and (peer is None or ghost.host != peer.host):
                out.append((ghost.addr, self.anti_entropy()))
        return out

    def _next_ghost(self) -> Optional[MemberRecord]:
        ghosts = sorted(
            (
                m
                for m in self.members.values()
                if m.host != self.local_host and m.status is not MemberStatus.ALIVE
            ),
            key=lambda m: m.host,
        )
        if not ghosts:
            return None
        ghost = ghosts[self._ghost_idx % len(ghosts)]
        self._ghost_idx += 1
        return ghost

    def _join_step(self, now: int) -> list[Outbound]:
        if self._join_peer is None or len(self.members) > 1:
            return []
        if now < self._next_join:
            return []
        self._next_join = now + self._join_backoff
        self._join_backoff = min(self._join_backoff * 2, ANTI_ENTROPY_PERIOD)
        return [(self._join_peer, self.anti_entropy())]

    def _probe_deadlines(self, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        for host, state in list(self._outstanding.items()):
            member = self.members.get(host)
            if member is None or member.status is MemberStatus.DEAD:
                del self._outstanding[host]
                continue
            if not state.indirect_sent and now >= state.direct_deadline:
                state.indirect_sent = True
                for helper in self._pick_helpers(host):
                    env = self._envelope(EnvelopeKind.PING_REQ, first_rumor=member)
                    out.append((helper.addr, env))
            if now >= state.final_deadline:
                del self._outstanding[host]
                self._suspect(host, now)
        return out

    def _pick_helpers(self, target: HostId) -> list[MemberRecord]:
        candidates = [
            m
            for m in self.alive_members(include_self=False)
            if m.host != target
        ]
        self.rng.shuffle(candidates)
        return candidates[:K_INDIRECT]

    def _next_ping_target(self) -> Optional[MemberRecord]:
        # The cycle is built from peers that are not dead, and members are
        # never dropped, so only a death can leave a dead host in it.
        if self._ping_idx >= len(self._ping_cycle) or self._death_unchecked:
            peers = [
                m.host
                for m in self.members.values()
                if m.host != self.local_host and m.status is not MemberStatus.DEAD
            ]
            if not peers:
                return None
            if self._ping_idx >= len(self._ping_cycle) or not set(
                self._ping_cycle
            ).issubset(peers):
                self._ping_cycle = sorted(peers)
                self.rng.shuffle(self._ping_cycle)
                self._ping_idx = 0
            self._death_unchecked = False
        host = self._ping_cycle[self._ping_idx]
        self._ping_idx += 1
        return self.members[host]

    def _ring_successor(self) -> Optional[MemberRecord]:
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
        members = self.members
        if env.sender not in members and env.sender != self.local_host:
            # First contact: the source address is the peer's gossip listener.
            self._store(MemberRecord(
                host=env.sender,
                addr=source,
                status=MemberStatus.ALIVE,
                incarnation=0,
                last_change=now,
            ))
        for rumor in env.membership_rumors:
            if members.get(rumor.host) is not rumor:
                self._merge_member(rumor, now)
            elif rumor.host != self.local_host:
                # The held record itself, as decode_rumor resolved it, which
                # _merge_member would count stale (and, for our own record,
                # always alive, ignore).
                self.counters["stale_rumors"] += 1
        for record in env.table_deltas:
            if self.table.merge_record(record, now) is MergeOutcome.APPLIED:
                # Fresh information is infective: re-spread with our own budget.
                self.queue_delta(record)

        if env.kind is EnvelopeKind.PING:
            ack = self._envelope(EnvelopeKind.ACK, first_rumor=self.local_record)
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
        if not env.membership_rumors:
            return []
        target = env.membership_rumors[0]
        if target.host == self.local_host:
            # We are the subject; answer directly.
            return [(source, self._envelope(EnvelopeKind.ACK, first_rumor=self.local_record))]
        self._proxy[(env.sender, target.host)] = (source, now + 2)
        member = self.members.get(target.host, target)
        return [(member.addr, self._envelope(EnvelopeKind.PING))]

    def _handle_ack(self, env: GossipEnvelope, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        self._outstanding.pop(env.sender, None)
        # The first rumor of an ack is an attestation: the sender's own record
        # on a direct ack, or the probed target's on a relayed one.
        if env.membership_rumors:
            subject = env.membership_rumors[0]
            if subject.status is MemberStatus.ALIVE:
                self._outstanding.pop(subject.host, None)
        for (origin, target), (origin_addr, _) in list(self._proxy.items()):
            if target == env.sender:
                del self._proxy[(origin, target)]
                attested = self.members.get(target)
                if attested is not None:
                    relay = self._envelope(EnvelopeKind.ACK, first_rumor=attested)
                    out.append((origin_addr, relay))
        return out

    def _handle_sync(
        self, env: GossipEnvelope, now: int, source: RealEndpoint
    ) -> list[Outbound]:
        digest = env.sync_digest
        if digest.hashes is not None:
            differ = self.table.differing_buckets(digest.hashes)
            if not differ:
                return [(source, self._envelope(EnvelopeKind.SYNC_REPLY, deltas=[]))]
            return [(source, sync) for sync in self._narrow_syncs(differ)]
        out: list[Outbound] = []
        records = self.table.records_newer_than(digest)
        for chunk in chunked(records, lambda r: len(r.encoded) + 2, CHUNK_LIMIT):
            reply = self._envelope(EnvelopeKind.SYNC_REPLY, deltas=chunk)
            out.append((source, reply))
        if self.table.digest_has_news(digest):
            out.extend((source, sync) for sync in self._narrow_syncs(digest.buckets))
        if not out:
            out.append((source, self._envelope(EnvelopeKind.SYNC_REPLY, deltas=[])))
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
