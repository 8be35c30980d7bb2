"""Membership and dissemination over unreliable datagrams.

Failure detection follows the familiar probe / indirect-probe / suspicion /
refutation cycle, one protocol period per tick. Member rumors and
service-table records ride the same envelopes as bounded piggyback under one
queue rule: each is retransmitted a logarithmic number of times, and an
envelope carries up to PIGGYBACK_LIMIT of each, those with the highest
remaining budget first and, among equals, the oldest. Both queues are heaps,
so picking costs work in proportion to the envelope, not to the queue.
Periodic anti-entropy digests close any gaps the rumor budget leaves.
Everything is driven by the owning node's loop: tick() and handle_envelope()
mutate state and return the envelopes to send, and never touch a socket
themselves.

Envelope wire format: version byte 0x01, kind byte, 16-byte sender id, then
three u32-length sections (membership rumors, table deltas, sync digest),
each entry u16-length-prefixed, all integers big-endian.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from ipaddress import IPv4Address
from typing import Optional

from appnet import wire
from appnet.errors import DecodeError
from appnet.model import HostId, RealEndpoint
from appnet.service_table import (
    MergeOutcome,
    ServiceTable,
    TableRecord,
    Version,
    decode_record,
)

ENVELOPE_VERSION = 0x01
MAX_ENVELOPE = 60000

# Desk-scale protocol constants; one tick is one protocol period
# (200 ms of wall clock when running over real sockets).
PERIOD_MS = 200
K_INDIRECT = 3
SUSPECT_TIMEOUT = 4
PIGGYBACK_LIMIT = 6
RETRANSMIT_FACTOR = 3
ANTI_ENTROPY_PERIOD = 10

_GATEWAY_FLAG = 0x80

# A member rumor: host id, gossip address and port, status byte (with the
# gateway flag), incarnation.
_MEMBER = struct.Struct(">16sIHBQ")

# A sync digest item is an lp16 record id, then the record's version:
# incarnation, state and the crc32 of its encoding.
_DIGEST_VERSION = struct.Struct(">QBI")


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


@dataclass
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
    membership_rumors: list[MemberRecord] = field(default_factory=list)
    table_deltas: list[TableRecord] = field(default_factory=list)
    sync_digest: Optional[list[tuple[bytes, Version]]] = None


def _encode_member(m: MemberRecord) -> bytes:
    status = m.status.value | (_GATEWAY_FLAG if m.is_gateway else 0)
    return _MEMBER.pack(m.host.raw, int(m.addr.host_ip), m.addr.port, status, m.incarnation)


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


def encode_envelope(env: GossipEnvelope) -> bytes:
    w = wire.Writer()
    w.u8(ENVELOPE_VERSION)
    w.u8(env.kind.value)
    w.raw(env.sender.raw)
    w.section([_encode_member(m) for m in env.membership_rumors])
    w.section([d.encoded for d in env.table_deltas])
    w.section(
        [
            len(id_bytes).to_bytes(2, "big") + id_bytes + _DIGEST_VERSION.pack(*version)
            for id_bytes, version in env.sync_digest or ()
        ]
    )
    data = w.getvalue()
    if len(data) > MAX_ENVELOPE:
        raise ValueError(f"envelope of {len(data)} bytes exceeds {MAX_ENVELOPE}")
    return data


def decode_envelope(data: bytes) -> GossipEnvelope:
    r = wire.Reader(data)
    version = r.u8()
    if version != ENVELOPE_VERSION:
        raise DecodeError(f"unsupported envelope version {version}")
    try:
        kind = EnvelopeKind(r.u8())
    except ValueError as exc:
        raise DecodeError("unknown envelope kind") from exc
    sender = HostId(r.raw(16))
    rumors = [_decode_member(item) for item in r.section()]
    deltas = [decode_record(item) for item in r.section()]
    digest_section = r.section()
    r.expect_end()
    digest: Optional[list[tuple[bytes, Version]]] = None
    if kind is EnvelopeKind.SYNC or digest_section:
        digest = []
        for item in digest_section:
            id_end = len(item) - _DIGEST_VERSION.size
            if id_end < 2 or int.from_bytes(item[:2], "big") != id_end - 2:
                raise DecodeError(f"sync digest item of {len(item)} bytes is malformed")
            digest.append((item[2:id_end], _DIGEST_VERSION.unpack_from(item, id_end)))
    return GossipEnvelope(
        kind=kind,
        sender=sender,
        membership_rumors=rumors,
        table_deltas=deltas,
        sync_digest=digest,
    )


class _Piggyback:
    """Items waiting to ride envelopes, each for a budget of retransmissions.

    take() picks the highest remaining budget first and, among equals, the
    oldest push; items come off a heap, so picking costs work in proportion
    to what is taken, not to the queue.
    """

    def __init__(self) -> None:
        self.slots: dict = {}  # key -> [value, budget, seq]
        # (-budget, seq, key) per queued item; items whose seq no longer
        # matches their slot (re-queued or spent) are skipped when popped.
        self._heap: list[tuple] = []
        self._seq = 0

    def push(self, key, value, budget: int) -> None:
        self._seq += 1
        self.slots[key] = [value, budget, self._seq]
        heapq.heappush(self._heap, (-budget, self._seq, key))
        self._drop_stale()

    def take(self, limit: int, skip=None) -> list:
        """Up to `limit` values, each spending one unit of budget; `skip` keeps its place."""
        heap, slots = self._heap, self.slots
        out = []
        back = []
        while heap and len(out) < limit:
            item = heapq.heappop(heap)
            _, seq, key = item
            slot = slots.get(key)
            if slot is None or slot[2] != seq:
                continue
            if key == skip:
                back.append(item)
                continue
            out.append(slot[0])
            slot[1] -= 1
            if slot[1] > 0:
                back.append((-slot[1], seq, key))
            else:
                del slots[key]
        # Pushed back only now, so no item rides one envelope twice.
        for item in back:
            heapq.heappush(heap, item)
        self._drop_stale()
        return out

    def _drop_stale(self) -> None:
        """Rebuild the heap from the slots once stale items outnumber live ones."""
        if len(self._heap) > 2 * len(self.slots):
            self._heap = [(-budget, seq, key) for key, (_, budget, seq) in self.slots.items()]
            heapq.heapify(self._heap)


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
        self.members: dict[HostId, MemberRecord] = {local.host: local}
        self._rumors = _Piggyback()  # host -> host
        self._deltas = _Piggyback()  # record id -> record
        self._outstanding: dict[HostId, _PingState] = {}
        self._proxy: dict[tuple[HostId, HostId], tuple[RealEndpoint, int]] = {}
        self._ping_cycle: list[HostId] = []
        self._ping_idx = 0
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
            out.append(replace(self.members[host]))
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
                    out.append(replace(self.members[host]))
                    seen.add(host)
        return out

    def _envelope(
        self,
        kind: EnvelopeKind,
        first_rumor: Optional[MemberRecord] = None,
        deltas: Optional[list[TableRecord]] = None,
        digest: Optional[list[tuple[bytes, Version]]] = None,
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
        self.members[incoming.host] = stored
        self._queue_rumor(incoming.host)
        if stored.status is MemberStatus.DEAD and not was_dead:
            self._declare_dead(incoming.host, now)
        if stored.status is MemberStatus.ALIVE:
            self._outstanding.pop(incoming.host, None)

    def _declare_dead(self, host: HostId, now: int) -> None:
        self._outstanding.pop(host, None)
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
        self.members[self.local_host] = bumped
        self._queue_rumor(self.local_host)
        return bumped

    def suspect_timeout_sweep(self, now: int) -> list[HostId]:
        newly_dead = []
        for member in list(self.members.values()):
            if (
                member.status is MemberStatus.SUSPECT
                and now - member.last_change >= SUSPECT_TIMEOUT
            ):
                self.members[member.host] = replace(
                    member, status=MemberStatus.DEAD, last_change=now
                )
                self._queue_rumor(member.host)
                self._declare_dead(member.host, now)
                newly_dead.append(member.host)
        return newly_dead

    def _suspect(self, host: HostId, now: int) -> None:
        member = self.members.get(host)
        if member is None or member.status is not MemberStatus.ALIVE:
            return
        self.members[host] = replace(
            member, status=MemberStatus.SUSPECT, last_change=now
        )
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
                    env = self._envelope(
                        EnvelopeKind.PING_REQ, first_rumor=replace(member)
                    )
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
        host = self._ping_cycle[self._ping_idx]
        self._ping_idx += 1
        member = self.members.get(host)
        if member is None or member.status is MemberStatus.DEAD:
            return self._next_ping_target()
        return member

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
        if env.sender not in self.members and env.sender != self.local_host:
            # First contact: the source address is the peer's gossip listener.
            self.members[env.sender] = MemberRecord(
                host=env.sender,
                addr=source,
                status=MemberStatus.ALIVE,
                incarnation=0,
                last_change=now,
            )
        for rumor in env.membership_rumors:
            self._merge_member(rumor, now)
        for record in env.table_deltas:
            if self.table.merge_record(record, now) is MergeOutcome.APPLIED:
                # Fresh information is infective: re-spread with our own budget.
                self.queue_delta(record)

        if env.kind is EnvelopeKind.PING:
            ack = self._envelope(EnvelopeKind.ACK, first_rumor=replace(self.local_record))
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
            return [(source, self._envelope(EnvelopeKind.ACK, first_rumor=replace(self.local_record)))]
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
                    relay = self._envelope(
                        EnvelopeKind.ACK, first_rumor=replace(attested)
                    )
                    out.append((origin_addr, relay))
        return out

    def _handle_sync(
        self, env: GossipEnvelope, now: int, source: RealEndpoint
    ) -> list[Outbound]:
        digest = env.sync_digest or []
        out: list[Outbound] = []
        records = self.table.records_newer_than(digest)
        for chunk in _chunk_records(records):
            reply = self._envelope(EnvelopeKind.SYNC_REPLY, deltas=chunk)
            out.append((source, reply))
        if not records:
            out.append((source, self._envelope(EnvelopeKind.SYNC_REPLY, deltas=[])))
        if self.table.digest_has_news(digest):
            out.append((source, self.anti_entropy()))
        return out

    def anti_entropy(self) -> GossipEnvelope:
        """A digest of everything we hold; the peer answers with what we lack."""
        return self._envelope(EnvelopeKind.SYNC, digest=self.table.digest())


def _chunk_records(records: list[TableRecord], limit: int = 48000) -> list[list[TableRecord]]:
    chunks: list[list[TableRecord]] = []
    current: list[TableRecord] = []
    size = 0
    for record in records:
        encoded = len(record.encoded) + 2
        if current and size + encoded > limit:
            chunks.append(current)
            current = []
            size = 0
        current.append(record)
        size += encoded
    if current:
        chunks.append(current)
    return chunks
