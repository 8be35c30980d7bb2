import random
import struct
from dataclasses import replace
from ipaddress import IPv4Address

import pytest

from appnet import gossip
from appnet.errors import DecodeError
from appnet.gossip import (
    ENVELOPE_VERSION,
    EnvelopeKind,
    Gossip,
    GossipEnvelope,
    decode_envelope,
    encode_envelope,
    read_section,
    section,
)
from appnet.model import HostId, RealEndpoint, ServiceKey, TagSet
from appnet.service_table import (
    BUCKETS,
    EntryState,
    GatewayBinding,
    Member,
    MergeOutcome,
    ServiceEntry,
    ServiceTable,
    bucket_of,
    decode_record,
    record_id_of,
)

H1 = HostId(b"\x01" * 16)
H2 = HostId(b"\x02" * 16)
H3 = HostId(b"\x03" * 16)
H4 = HostId(b"\x04" * 16)


def addr(n: int) -> RealEndpoint:
    return RealEndpoint(IPv4Address(f"10.0.0.{n}"), 7946)


ALIVE, SUSPECT, DEAD = EntryState.ALIVE, EntryState.SUSPECT, EntryState.DEAD
MEMBER_STATES = [ALIVE, SUSPECT, DEAD]


def member(host, n, state=ALIVE, incarnation=1, gateway=False):
    return Member(
        host=host, addr=addr(n), state=state, incarnation=incarnation, is_gateway=gateway,
    )


def sample_entry(host=H2, incarnation=1):
    return ServiceEntry(
        key=ServiceKey(IPv4Address("10.1.1.1"), 80),
        real=RealEndpoint(IPv4Address("10.0.0.2"), 41001),
        host=host,
        app_id="a1",
        tags=TagSet.from_pairs(["grp=1"]),
        name="web",
        incarnation=incarnation,
        state=EntryState.ALIVE,
    )


def make_gossip(host=H1, n=1, gateway=False):
    return Gossip(member(host, n, gateway=gateway), ServiceTable(host), random.Random(f"g{n}"))


def learn(g: Gossip, *records, now=0) -> None:
    """Hand `g` records as a SYNC_REPLY of its own would: merged, and each
    applied one queued and acted on, with no first contact."""
    reply = GossipEnvelope(
        kind=EnvelopeKind.SYNC_REPLY, sender=g.local_host, table_deltas=list(records)
    )
    g.handle_envelope(reply, now, addr(9))


def receive(data: bytes, g: Gossip | None = None) -> GossipEnvelope:
    """Decode an envelope as a node does: the envelope, then each delta and
    the digest."""
    env = decode_envelope(data)
    g = g or make_gossip(H4, 4)
    env.table_deltas = [g.table.decode(item) for item in env.table_deltas]
    if env.sync_digest is not None:
        env.sync_digest = g.table.read_digest(env.sync_digest)
    return env


def digest_item(record_id: bytes, version: tuple[int, int, int]) -> bytes:
    """A sync digest item, written field by field."""
    incarnation, state, crc = version
    return struct.pack(">H", len(record_id)) + record_id + struct.pack(">QBI", incarnation, state, crc)


def test_envelope_round_trip():
    env = GossipEnvelope(
        kind=EnvelopeKind.PING,
        sender=H1,
        table_deltas=[member(H2, 2), member(H3, 3, SUSPECT, 4, True), sample_entry()],
    )
    data = encode_envelope(env)
    decoded = receive(data)
    assert decoded.kind is EnvelopeKind.PING
    assert decoded.sender == H1
    assert [m.host for m in decoded.table_deltas[:2]] == [H2, H3]
    assert decoded.table_deltas[1].is_gateway
    assert decoded.table_deltas[1].state is SUSPECT
    assert decoded.table_deltas[2].key == sample_entry().key
    assert decoded.sync_digest is None
    # Encoding is bit-stable.
    assert encode_envelope(decoded) == data


def bitmap(*record_ids: bytes) -> bytes:
    """A narrow digest's bitmap, naming the bucket of each record id."""
    bits = 0
    for record_id in record_ids:
        bits |= 1 << (BUCKETS - 1 - bucket_of(record_id))
    return bits.to_bytes(BUCKETS // 8, "big")


def narrow(*items: bytes) -> list[bytes]:
    """A narrow sync digest: the bitmap naming each item's bucket, then the items."""
    return [bitmap(*(item[2 : len(item) - 13] for item in items)), *items]


def test_sync_envelope_carries_digest():
    env = GossipEnvelope(
        kind=EnvelopeKind.SYNC,
        sender=H1,
        sync_digest=narrow(
            digest_item(b"id-1", (3, 0, 7)), digest_item(b"id-2", (9, 1, 0xFFFFFFFF))
        ),
    )
    decoded = receive(encode_envelope(env))
    assert list(decoded.sync_digest.versions.items()) == [
        (b"id-1", (3, 0, 7)), (b"id-2", (9, 1, 0xFFFFFFFF))
    ]


def test_digest_item_without_full_version_rejected():
    old_item = struct.pack(">H", 4) + b"id-1" + struct.pack(">Q", 3)
    header = struct.pack(">BB16s", ENVELOPE_VERSION, EnvelopeKind.SYNC.value, H1)
    data = header + section([]) + section([bitmap(b"id-1"), old_item])
    with pytest.raises(DecodeError):
        receive(data)


def test_section_bytes_and_limits():
    items = [b"", b"a", bytes(range(256)) * 3, bytes(0xFFFF)]
    body = b"".join(len(item).to_bytes(2, "big") + item for item in items)
    data = section(items)
    assert data == len(body).to_bytes(4, "big") + body
    assert read_section(b"xy" + data + b"z", 2) == (items, 2 + len(data))
    with pytest.raises(ValueError):
        section([b"x", bytes(0x10000)])
    for bad in (
        b"\x00\x00\x00\x01\x00",  # a length prefix cut by the end of the data
        b"\x00\x00\x00\x01\x00\x00",  # a prefix that runs past the section
        b"\x00\x00\x00\x03\x00\x05abc",  # an entry that runs past the section
        b"\x00\x00\x00\x09\x00\x01a",  # a section that runs past the data
        b"\x00\x00\x00",  # a section length cut by the end of the data
    ):
        with pytest.raises(DecodeError):
            read_section(bad, 0)


def test_truncated_envelope_rejected():
    data = encode_envelope(GossipEnvelope(kind=EnvelopeKind.ACK, sender=H1))
    for cut in (1, 5, len(data) - 1):
        with pytest.raises(DecodeError):
            decode_envelope(data[:cut])
    with pytest.raises(DecodeError):
        decode_envelope(b"\x01" + data[1:])  # the version before members were records
    with pytest.raises(DecodeError):
        decode_envelope(data[:1] + b"\x09" + data[2:])  # unknown kind


def test_envelope_over_max_size_rejected():
    deltas = [replace(sample_entry(), app_id="a" * 1000 + str(i)) for i in range(60)]
    env = GossipEnvelope(kind=EnvelopeKind.SYNC_REPLY, sender=H1, table_deltas=deltas)
    with pytest.raises(ValueError):
        encode_envelope(env)
    env.table_deltas = deltas[:56]
    size = len(encode_envelope(env))
    # One more lp16 delta would pass the limit.
    assert size <= gossip.MAX_ENVELOPE < size + 2 + len(deltas[56].encoded)


# Records, a SYNC envelope that carries them, and the hex the earlier
# field-by-field Writer codec produced for them.
_GOLDEN_ENTRY = ServiceEntry(
    key=ServiceKey(IPv4Address("240.0.0.7"), 80),
    real=RealEndpoint(IPv4Address("10.0.0.2"), 41001),
    host=HostId(bytes(range(16))),
    app_id="a1",
    tags=TagSet.from_pairs(["grp=1", "tier=web"]),
    name="web",
    incarnation=3,
    state=EntryState.ALIVE,
)
_GOLDEN_BINDING = GatewayBinding(
    key=ServiceKey(IPv4Address("240.0.0.7"), 80),
    gateway=H3,
    external_port=30000,
    state=EntryState.TOMBSTONE,
    incarnation=2,
    admit=TagSet.from_pairs(["grp=1"]),
)
_GOLDEN_MEMBER = member(H3, 3, SUSPECT, 4, gateway=True)
_GOLDEN_RECORDS = [
    (
        _GOLDEN_ENTRY,
        "00f000000700500a000002a029000102030405060708090a0b0c0d0e0f000261310000"
        "000000000000030003776562000200056772703d310008746965723d776562",
        "00f00000070050000102030405060708090a0b0c0d0e0f00026131",
        "001b00f00000070050000102030405060708090a0b0c0d0e0f000261310000000000"
        "000003007feee3c9",
    ),
    (
        _GOLDEN_BINDING,
        "01f00000070050030303030303030303030303030303037530010000000000000002"
        "000100056772703d31",
        "01030303030303030303030303030303037530",
        "00130103030303030303030303030303030303753000000000000000020187247019",
    ),
    (
        _GOLDEN_MEMBER,
        "02030303030303030303030303030303030a0000031f0a01020000000000000004",
        "0203030303030303030303030303030303",
        "00110203030303030303030303030303030303000000000000000402908a9ce5",
    ),
]
_GOLDEN_SYNC = (
    "02040101010101010101010101010101010100000094"
    "002102030303030303030303030303030303030a0000031f0a01020000000000000004"
    "004200f000000700500a000002a029000102030405060708090a0b0c0d0e0f0002613100"
    "00000000000000030003776562000200056772703d310008746965723d776562"
    "002b01f00000070050030303030303030303030303030303037530010000000000000002"
    "000100056772703d31"
    "00000072"
    "0020"
    "0000000000000000000000000000000000000000100000000000800000000000"
    "002a001b00f00000070050000102030405060708090a0b0c0d0e0f000261310000000000"
    "000003007feee3c9"
    "002200130103030303030303030303030303030303753000000000000000020187247019"
)


@pytest.mark.parametrize("record,encoded,record_id,item", _GOLDEN_RECORDS)
def test_records_encode_to_golden_bytes(record, encoded, record_id, item):
    assert record.encoded.hex() == encoded
    assert record.record_id.hex() == record_id
    assert record.digest_item.hex() == item
    decoded = decode_record(bytes.fromhex(encoded))
    assert decoded == record and decoded.encoded == record.encoded
    assert record_id_of(bytes.fromhex(encoded)) == bytes.fromhex(record_id)
    assert ServiceTable(H4).read_digest(narrow(bytes.fromhex(item))).versions == {
        record.record_id: record.version
    }


def test_sync_envelope_encodes_to_golden_bytes():
    records = [_GOLDEN_ENTRY, _GOLDEN_BINDING]
    data = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC,
        sender=H1,
        table_deltas=[_GOLDEN_MEMBER, *records],
        sync_digest=narrow(*(r.digest_item for r in records)),
    ))
    assert data.hex() == _GOLDEN_SYNC
    decoded = receive(bytes.fromhex(_GOLDEN_SYNC))
    assert (decoded.kind, decoded.sender) == (EnvelopeKind.SYNC, H1)
    assert decoded.table_deltas == [_GOLDEN_MEMBER, *records]
    assert decoded.sync_digest.versions == {r.record_id: r.version for r in records}
    assert decoded.sync_digest.buckets == [163, 208]


# The two golden records' buckets and item hashes: blake2b of the item, 8
# bytes, in the bucket that crc32 of the record id picks.
_GOLDEN_HASHES = {163: "fb75a3cb3ea02d58", 208: "d87c626bd54b9fe6"}


def test_bucket_hash_sync_encodes_to_golden_bytes():
    table = ServiceTable(H4)
    for record in (_GOLDEN_ENTRY, _GOLDEN_BINDING):
        table.merge_record(record, 0)
        assert record.item_hash == int(_GOLDEN_HASHES[bucket_of(record.record_id)], 16)
    hashes = "".join(_GOLDEN_HASHES.get(b, "00" * 8) for b in range(BUCKETS))
    data = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC, sender=H1, sync_digest=[table.digest()]
    ))
    # The digest section holds one item, 256 u64 hashes: 256 x 8 bytes, its
    # u16 length and the section's u32 length.
    assert data.hex() == (
        "0204" + "01" * 16 + "00000000" + "00000802" + "0800" + hashes
    )
    decoded = receive(data)
    assert decoded.sync_digest.hashes == tuple(
        int(_GOLDEN_HASHES.get(b, "0"), 16) for b in range(BUCKETS)
    )
    assert table.differing_buckets(decoded.sync_digest.hashes) == []


def _full_envelope() -> bytes:
    """A SYNC with two members, one entry, one binding and a digest."""
    binding = GatewayBinding(
        key=ServiceKey(IPv4Address("10.1.1.1"), 80),
        gateway=H3,
        external_port=30000,
        state=EntryState.ALIVE,
        incarnation=2,
        admit=TagSet.from_pairs(["grp=1"]),
    )
    records = [sample_entry(), binding]
    return encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC,
        sender=H1,
        table_deltas=[member(H2, 2), member(H3, 3, SUSPECT, 4, True), *records],
        sync_digest=narrow(*(r.digest_item for r in records)),
    ))


def _u16(data: bytes, pos: int) -> int:
    return int.from_bytes(data[pos : pos + 2], "big")


def _length_prefixes(data: bytes) -> list[tuple[int, int]]:
    """(offset, width) of every length prefix and count in _full_envelope()."""
    found = []
    pos = 18  # version, kind, sender
    for section in range(2):  # deltas, digest
        found.append((pos, 4))
        end = pos + 4 + int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        first = True
        while pos < end:
            found.append((pos, 2))
            item = pos + 2
            inner = []
            if section == 0 and data[item] == 0:  # entry: app id, name, tags
                inner.append(item + 29)
                inner.append(inner[-1] + 2 + _u16(data, inner[-1]) + 9)
                inner.append(inner[-1] + 2 + _u16(data, inner[-1]))
            elif section == 0 and data[item] == 1:  # binding: tags
                inner.append(item + 34)
            elif section == 1 and not first:  # digest item: record id
                inner.append(item)
            first = False
            if inner and section == 0:
                tag = inner[-1] + 2
                for _ in range(_u16(data, inner[-1])):
                    inner.append(tag)
                    tag += 2 + _u16(data, tag)
            found += [(offset, 2) for offset in inner]
            pos = item + _u16(data, pos)
    return found


def test_malformed_envelopes_raise_only_decode_error():
    data = _full_envelope()
    decoded = receive(data)
    assert len(decoded.table_deltas) == 4 and len(decoded.sync_digest.versions) == 2
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            receive(data[:cut])
    with pytest.raises(DecodeError):
        receive(data + b"\x00")
    prefixes = _length_prefixes(data)
    # 2 sections; 4 records; app id, name, tag count and tag of the entry;
    # tag count and tag of the binding; the bitmap, 2 digest items and their
    # ids.
    assert len(prefixes) == 2 + 4 + 4 + 2 + 3 + 2
    for offset, width in prefixes:
        with pytest.raises(DecodeError):
            receive(data[:offset] + (0xFFFF).to_bytes(width, "big") + data[offset + width :])


def _sorted_take(queue: dict, limit: int) -> list:
    """Delta selection by a full sort of the queue, as before the heap."""
    out = []
    for id_bytes, slot in sorted(queue.items(), key=lambda kv: (-kv[1][1], kv[1][2])):
        if len(out) >= limit:
            break
        out.append(slot[0])
        slot[1] -= 1
        if slot[1] <= 0:
            del queue[id_bytes]
    return out


def _record_lane(g) -> dict:
    """The queued records that are not members, as {record id: [record, budget]}."""
    return {k: v[:2] for k, v in g._queue.slots.items() if v[3] == gossip._RECORD_LANE}


def test_delta_heap_picks_what_a_full_sort_picks():
    g = make_gossip(H1, 1)
    rng = random.Random(7)
    records = [replace(sample_entry(), app_id=f"a{i}") for i in range(40)]
    model: dict = {}
    seq = 0
    for step in range(4000):
        roll = rng.random()
        if roll < 0.02:  # a new member raises the budget of later deltas
            g.table.merge_record(member(HostId(step.to_bytes(16, "big")), 5), 0)
        elif roll < 0.55:
            # Mostly re-queue a few hot ids, sometimes one of many.
            pool = records[: rng.choice((3, 3, 3, 40))]
            record = replace(rng.choice(pool), incarnation=step)
            g.queue_delta(record)
            seq += 1
            model[record.record_id] = [record, g._budget(), seq]
        else:
            limit = gossip.PIGGYBACK_LIMIT
            assert g._queue.take((0, limit)) == _sorted_take(model, limit)
        assert _record_lane(g) == {k: v[:2] for k, v in model.items()}
    assert len(g.table.members()) > 20  # budgets did change along the way


def test_delta_heap_stays_bounded_under_requeues():
    g = make_gossip(H1, 1)
    hot = [replace(sample_entry(), app_id=f"a{i}") for i in range(3)]
    limit = gossip.PIGGYBACK_LIMIT
    for i in range(10_000):
        g.queue_delta(replace(hot[i % 3], incarnation=i))
        if i % 100 == 99:
            g._queue.take((limit, limit))
        queued = sum(map(len, g._queue._fifos.values()))
        assert queued <= 2 * len(g._queue.slots) + limit
    # Our own member record has spent its budget.
    assert len(g._queue.slots) == 3


def _sorted_take_members(model: dict, first, limit: int) -> list:
    """Member selection by a full sort of {record id: [record, budget, seq]},
    as before the heap."""
    out = [] if first is None else [first]
    for record_id in sorted(model, key=lambda k: (-model[k][1], model[k][2])):
        if len(out) >= limit:
            break
        if first is not None and record_id == first.record_id:
            continue
        out.append(model[record_id][0])
        model[record_id][1] -= 1
        if model[record_id][1] <= 0:
            del model[record_id]
    return out


def test_rumor_heap_picks_what_a_full_sort_picks():
    g = make_gossip(H1, 1)
    rng = random.Random(11)
    model = {g.local_record.record_id: [g.local_record, g._budget(), 0]}
    seq = 0
    push = g._queue.push

    def push_and_model(key, value, budget, lane):
        nonlocal seq
        push(key, value, budget, lane)
        seq += 1
        model[key] = [value, budget, seq]

    g._queue.push = push_and_model
    hosts = [H2]
    learn(g, member(H2, 2))
    skipped = 0
    for step in range(1, 4001):
        roll = rng.random()
        if roll < 0.05:  # a new member raises the budget of later records
            host = HostId(step.to_bytes(16, "big"))
            hosts.append(host)
            learn(g, member(host, 5), now=step)
        elif roll < 0.2:  # a fresher record: alive, suspect or dead
            old = g.table.member(rng.choice(hosts))
            state = rng.choice(MEMBER_STATES)
            learn(g, replace(old, state=state, incarnation=old.incarnation + 1), now=step)
        elif roll < 0.28:
            g._suspect(rng.choice(hosts), step)
        elif roll < 0.32:  # a suspicion of us, which we refute
            learn(g, replace(g.local_record, state=SUSPECT), now=step)
        else:
            first = None
            if rng.random() < 0.5:
                first = g.table.member(rng.choice(hosts))
            kept = list(g._queue.slots.get(first.record_id, ())) if first else []
            expected = _sorted_take_members(model, first, gossip.PIGGYBACK_LIMIT)
            assert g._envelope(EnvelopeKind.PING_REQ, first=first).table_deltas == expected
            if kept:  # the explicit first record's queued copy keeps its budget and place
                assert g._queue.slots[first.record_id] == kept
                skipped += 1
        assert {k: slot[1] for k, slot in g._queue.slots.items()} == {
            k: budget for k, (_, budget, _) in model.items()
        }
    assert len(g.table.members()) > 100 and skipped > 500


def _rebuilding_ping_target(g):
    """Probe choice that rebuilds the peer list and checks the cycle against
    it on every probe, as before deaths were tracked."""
    peers = [
        m.host
        for m in g.table.members()
        if m.host != g.local_host and m.state is not DEAD
    ]
    if not peers:
        return None
    if g._ping_idx >= len(g._ping_cycle) or not set(g._ping_cycle).issubset(peers):
        g._ping_cycle = sorted(peers)
        g.rng.shuffle(g._ping_cycle)
        g._ping_idx = 0
    host = g._ping_cycle[g._ping_idx]
    g._ping_idx += 1
    return g.table.member(host)


def _dead(g) -> int:
    return len(g.table.members(DEAD))


def test_probe_cycle_picks_what_a_per_probe_rebuild_picks():
    fast, slow = make_gossip(H1, 1), make_gossip(H1, 1)
    rng = random.Random(12)
    hosts: list[HostId] = []
    deaths = picks = 0
    for step in range(3000):
        roll = rng.random()
        if roll < 0.6:
            target = fast._next_ping_target()
            expected = _rebuilding_ping_target(slow)
            assert (target and target.host) == (expected and expected.host)
            picks += target is not None
            continue
        before = _dead(fast)
        joins = roll < 0.65 or not hosts
        if joins:
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
        host = hosts[-1] if joins else hosts[rng.randrange(len(hosts))]
        state = rng.choice(MEMBER_STATES)
        for g in (fast, slow):
            if joins:
                learn(g, member(host, 5), now=step)
            elif roll < 0.8:  # a fresher record: a death, a revival or a suspicion
                old = g.table.member(host)
                learn(g, replace(old, state=state, incarnation=old.incarnation + 1), now=step)
            elif roll < 0.9:
                g._suspect(host, step)
            else:
                g.suspect_timeout_sweep(step)
        deaths += max(0, _dead(fast) - before)
    assert fast.rng.getstate() == slow.rng.getstate()
    assert picks > 1500 and deaths > 50


def _assert_member_index_holds(table):
    """The table's member index equals its value recomputed from the store."""
    expected: dict = {}
    for r in table.records():
        if type(r) is Member:
            expected.setdefault(r.state, {})[r.record_id] = r
    assert table._members == expected
    for state, held in table._members.items():
        for record_id, record in held.items():
            assert record is table._records[record_id]


def test_member_indexes_follow_every_write():
    g = make_gossip(H1, 1)
    rng = random.Random(13)
    hosts: list[HostId] = []
    writes = {"merge": 0, "suspect": 0, "sweep": 0, "refute": 0, "first_contact": 0}
    deaths = suspected = 0
    for step in range(1, 2001):
        write = rng.choice(list(writes))
        if write == "merge" and hosts and rng.random() < 0.8:
            # A fresher, equal or older record of a known member, or of us.
            host = rng.choice([H1, *hosts])
            old = g.table.member(host)
            state = rng.choice(MEMBER_STATES)
            incarnation = max(0, old.incarnation + rng.choice([-1, 0, 1]))
            learn(g, replace(old, state=state, incarnation=incarnation), now=step)
        elif write == "merge":
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
            learn(g, member(hosts[-1], 5), now=step)
        elif write == "suspect" and hosts:
            g._suspect(rng.choice(hosts), step)
        elif write == "sweep":
            before = g.table.members()
            newly_dead = g.suspect_timeout_sweep(step)
            # What a sweep of every member finds, in host order.
            assert newly_dead == [
                m.host for m in before
                if m.state is SUSPECT and step - m.stamp >= gossip.SUSPECT_TIMEOUT
            ]
            assert all(g.table.member(host).state is DEAD for host in newly_dead)
            deaths += len(newly_dead)
        elif write == "refute":
            learn(g, replace(g.local_record, state=rng.choice([SUSPECT, DEAD])), now=step)
            assert g.local_record.state is ALIVE
        else:
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
            g.handle_envelope(
                GossipEnvelope(kind=EnvelopeKind.SYNC_REPLY, sender=hosts[-1]), step, addr(5)
            )
            assert g.table.member(hosts[-1]).incarnation == 0
        writes[write] += 1
        suspected += bool(g.table.members(SUSPECT))
        _assert_member_index_holds(g.table)
    assert min(writes.values()) > 300, writes
    assert deaths > 20 and suspected > 500


def test_held_rumor_resolves_to_the_held_record_and_skips_the_merge():
    g = make_gossip(H1, 1)
    learn(g, member(H2, 2), member(H3, 3, SUSPECT, 4, True))
    held = [g.table.member(H2), g.table.member(H3), g.local_record]
    data = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC_REPLY, sender=H2, table_deltas=held
    ))
    env = receive(data, g)
    assert all(r is m for r, m in zip(env.table_deltas, held, strict=True))
    assert [g.table.merge_record(r, 5) for r in env.table_deltas] == [MergeOutcome.STALE] * 3
    g._queue = gossip._Piggyback()
    g.handle_envelope(env, 5, addr(2))
    assert g._queue.slots == {}  # nothing stale is queued again
    # A fresher record, at a higher incarnation or with a new state, is
    # decoded and merged, and its stamp is the time it merged.
    fresher_records = (
        replace(held[0], incarnation=2),
        replace(held[0], state=SUSPECT, incarnation=2),
    )
    for fresher in fresher_records:
        (record,) = receive(encode_envelope(GossipEnvelope(
            kind=EnvelopeKind.SYNC_REPLY, sender=H2, table_deltas=[fresher]
        )), g).table_deltas
        assert record is not g.table.member(H2) and record == fresher
        g.handle_envelope(
            GossipEnvelope(kind=EnvelopeKind.SYNC_REPLY, sender=H2, table_deltas=[record]),
            6, addr(2),
        )
        assert g.table.member(H2) == record and g.table.member(H2).stamp == 6
    _assert_member_index_holds(g.table)


def test_single_node_emits_nothing():
    g = make_gossip()
    assert g.tick(1) == []


def test_two_nodes_ping_each_other_with_alive_records():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    # Introduce them as a join would.
    a.handle_envelope(receive(encode_envelope(b.anti_entropy()), a), 0, addr(2))
    b.handle_envelope(receive(encode_envelope(a.anti_entropy()), b), 0, addr(1))
    out_a = a.tick(1)
    out_b = b.tick(1)
    assert len(out_a) == 1 and len(out_b) == 1
    dest_a, ping_a = out_a[0]
    assert dest_a == addr(2)
    assert ping_a.kind is EnvelopeKind.PING
    assert any(
        type(r) is Member and r.host == H2 and r.state is ALIVE
        for r in ping_a.table_deltas
    )


def test_ping_gets_ack_with_self_attestation():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    a.handle_envelope(receive(encode_envelope(b.anti_entropy()), a), 0, addr(2))
    (dest, ping), = a.tick(1)
    replies = b.handle_envelope(ping, 1, addr(1))
    acks = [env for _, env in replies if env.kind is EnvelopeKind.ACK]
    assert len(acks) == 1
    assert acks[0].table_deltas[0].host == H2
    # The ack clears the outstanding probe.
    a.handle_envelope(acks[0], 1, addr(2))
    assert H2 not in a._outstanding
    assert a.table.member(H2).state is ALIVE
    # The next period simply probes again; no indirect probes fire.
    out2 = a.tick(2)
    assert [env.kind for _, env in out2] == [EnvelopeKind.PING]


def test_unanswered_probe_leads_to_ping_req_then_suspect_then_dead(monkeypatch):
    monkeypatch.setattr(gossip, "SUSPECT_TIMEOUT", 4)
    g = make_gossip(H1, 1)
    learn(g, member(H2, 2), member(H3, 3), member(H4, 4))
    g.tick(1)  # ping someone
    target = next(iter(g._outstanding))
    out2 = g.tick(2)
    ping_reqs = [env for _, env in out2 if env.kind is EnvelopeKind.PING_REQ]
    assert ping_reqs, "indirect probes expected after a silent period"
    assert all(env.table_deltas[0].host == target for env in ping_reqs)
    g.tick(3)
    assert g.table.member(target).state is SUSPECT
    dead = []
    for now in range(4, 9):
        g.tick(now)
        if g.table.member(target).state is DEAD:
            dead.append(now)
            break
    assert dead and dead[0] == 3 + 4  # suspicion at 3, T_suspect periods later


def test_proxy_relays_attestation_ack():
    b = make_gossip(H2, 2)
    learn(b, member(H1, 1), member(H3, 3))
    ping_req = GossipEnvelope(
        kind=EnvelopeKind.PING_REQ, sender=H1, table_deltas=[member(H3, 3)]
    )
    out = b.handle_envelope(ping_req, 1, addr(1))
    assert [env.kind for _, env in out] == [EnvelopeKind.PING]
    assert out[0][0] == addr(3)
    ack_from_target = GossipEnvelope(
        kind=EnvelopeKind.ACK, sender=H3, table_deltas=[member(H3, 3)]
    )
    relayed = b.handle_envelope(ack_from_target, 1, addr(3))
    assert [(dest, env.kind) for dest, env in relayed] == [
        (addr(1), EnvelopeKind.ACK)
    ]
    assert relayed[0][1].table_deltas[0].host == H3


def test_ping_req_about_us_is_answered_directly_and_one_without_a_target_is_dropped():
    g = make_gossip(H1, 1)
    about_us = GossipEnvelope(kind=EnvelopeKind.PING_REQ, sender=H2, table_deltas=[g.local_record])
    ((dest, ack),) = g.handle_envelope(about_us, 1, addr(2))
    assert dest == addr(2) and ack.kind is EnvelopeKind.ACK
    assert ack.table_deltas[0] is g.local_record
    # An envelope that opens with no member record names no target.
    no_target = GossipEnvelope(kind=EnvelopeKind.PING_REQ, sender=H2, table_deltas=[sample_entry()])
    assert g.handle_envelope(no_target, 1, addr(2)) == []


def test_refutation_on_suspect_rumor_about_self():
    g = make_gossip(H1, 1)
    learn(g, member(H2, 2))
    rumor = GossipEnvelope(
        kind=EnvelopeKind.ACK,
        sender=H2,
        table_deltas=[member(H2, 2), member(H1, 1, SUSPECT, incarnation=1)],
    )
    g.handle_envelope(rumor, 3, addr(2))
    assert g.local_record.state is ALIVE
    assert g.local_record.incarnation == 2
    # Only the owner bumps its incarnation: another's suspicion keeps it.
    learn(g, member(H2, 2))
    g._suspect(H2, 4)
    assert g.table.member(H2).state is SUSPECT and g.table.member(H2).incarnation == 1


def test_dead_is_terminal_until_higher_incarnation():
    g = make_gossip(H1, 1)
    learn(g, member(H2, 2, DEAD, incarnation=5))
    learn(g, member(H2, 2, ALIVE, incarnation=5), now=1)
    learn(g, member(H2, 2, SUSPECT, incarnation=5), now=1)
    assert g.table.member(H2).state is DEAD
    learn(g, member(H2, 2, ALIVE, incarnation=6), now=2)
    assert g.table.member(H2).state is ALIVE


def test_host_death_tombstones_its_entries(monkeypatch):
    monkeypatch.setattr(gossip, "SUSPECT_TIMEOUT", 1)
    g = make_gossip(H1, 1)
    g.table.merge_record(sample_entry(host=H2), 0)
    learn(g, member(H2, 2))
    learn(g, member(H2, 2, SUSPECT, incarnation=1), now=1)
    g.suspect_timeout_sweep(5)
    assert g.table.lookup(sample_entry().key) == []


def test_sync_reply_returns_missing_records_and_reverse_syncs():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    b.table.insert_local(sample_entry(host=H2), 0)
    a.table.insert_local(
        replace(sample_entry(host=H1), real=RealEndpoint(IPv4Address("10.0.0.1"), 5)), 0
    )
    # Rumor budgets long spent: only the digests can close the gap now.
    a._queue = gossip._Piggyback()
    b._queue = gossip._Piggyback()
    # a's bucket hashes differ from b's, so b lists its items in the buckets
    # that differ, and a answers with its own.
    (dest, narrowed), = b.handle_envelope(
        receive(encode_envelope(a.anti_entropy()), b), 1, addr(1)
    )
    assert narrowed.kind is EnvelopeKind.SYNC and dest == addr(1)
    back = a.handle_envelope(receive(encode_envelope(narrowed), a), 1, addr(2))
    assert [env.kind for _, env in back] == [EnvelopeKind.SYNC_REPLY, EnvelopeKind.SYNC]
    out = b.handle_envelope(receive(encode_envelope(back[1][1]), b), 1, addr(1))
    kinds = [env.kind for _, env in out]
    assert EnvelopeKind.SYNC_REPLY in kinds
    assert EnvelopeKind.SYNC in kinds  # b wants what a has
    reply = next(env for _, env in out if env.kind is EnvelopeKind.SYNC_REPLY)
    assert any(
        type(r) is ServiceEntry and r.host == H2 for r in reply.table_deltas
    )
    a.handle_envelope(reply, 1, addr(2))
    assert len(a.table.lookup(sample_entry().key)) == 2


def test_applied_deltas_are_requeued_for_spreading():
    g = make_gossip(H1, 1)
    env = GossipEnvelope(
        kind=EnvelopeKind.PING, sender=H2, table_deltas=[sample_entry(host=H2)]
    )
    g.handle_envelope(env, 1, addr(2))
    assert _record_lane(g)  # learned news is infective
    g.handle_envelope(env, 2, addr(2))  # replay does not reset budgets
    (slot,) = _record_lane(g).values()
    assert slot[0].host == H2


def test_rumor_budget_bounds_piggyback(monkeypatch):
    monkeypatch.setattr(gossip, "PIGGYBACK_LIMIT", 3)
    g = make_gossip(H1, 1)
    learn(g, *(member(HostId(bytes([i]) * 16), i) for i in range(2, 9)))
    (dest, ping), = [o for o in g.tick(1) if o[1].kind is EnvelopeKind.PING]
    # Budgets grow with the membership: n8 was queued with 10, n6 and n7
    # with 9 each (n6 first), everyone else with less.
    assert [m.host for m in ping.table_deltas] == [
        HostId(bytes([i]) * 16) for i in (8, 6, 7)
    ]
    assert len(encode_envelope(ping)) < 60000


def test_join_retries_with_backoff_until_contact():
    g = make_gossip(H1, 1)
    g.begin_join(addr(9))
    sync_ticks = []
    for now in range(0, 12):
        outs = g.tick(now)
        if any(env.kind is EnvelopeKind.SYNC for _, env in outs):
            sync_ticks.append(now)
    assert sync_ticks[:4] == [0, 1, 3, 7]
    # Contact stops the retry loop.
    learn(g, member(H2, 2), now=12)
    assert all(
        env.kind is not EnvelopeKind.SYNC or 12 % 10 == 0
        for _, env in g.tick(12)
    )


def test_equal_tables_exchange_one_sync_of_bucket_hashes_and_one_empty_reply():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    for record in (sample_entry(host=H3), sample_entry(host=H4), _GOLDEN_BINDING):
        a.table.merge_record(record, 0)
        b.table.merge_record(record, 0)
    b.table.merge_record(a.table.insert_local(replace(sample_entry(H1), app_id="a2"), 0), 0)
    b.table.merge_record(a.local_record, 0)
    a.table.merge_record(b.local_record, 0)
    assert len(b.table.records()) == 6
    # Piggyback budgets long spent.
    a._queue = gossip._Piggyback()
    b._queue = gossip._Piggyback()
    data = encode_envelope(a.anti_entropy())
    _, pos = read_section(data, 18)
    # The digest section: a u32 length, one u16-prefixed item of 256 hashes.
    assert len(data) - pos == 4 + 2 + 256 * 8
    (dest, reply), = b.handle_envelope(receive(data, b), 1, addr(1))
    assert dest == addr(1) and reply.kind is EnvelopeKind.SYNC_REPLY
    assert reply.table_deltas == [] and reply.sync_digest is None
    assert a.handle_envelope(receive(encode_envelope(reply), a), 1, addr(2)) == []
