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
    MemberRecord,
    MemberStatus,
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


def member(host, n, status=MemberStatus.ALIVE, incarnation=1, gateway=False):
    return MemberRecord(
        host=host, addr=addr(n), status=status, incarnation=incarnation,
        is_gateway=gateway,
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
    table = ServiceTable(host)
    g = Gossip(member(host, n, gateway=gateway), table, random.Random(f"g{n}"))
    table.on_local_update = g.queue_delta
    return g


def receive(data: bytes, g: Gossip | None = None) -> GossipEnvelope:
    """Decode an envelope as a node does: the envelope, then each rumor, each
    delta and the digest."""
    env = decode_envelope(data)
    g = g or make_gossip(H4, 4)
    env.membership_rumors = [g.decode_rumor(item) for item in env.membership_rumors]
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
        membership_rumors=[member(H2, 2), member(H3, 3, MemberStatus.SUSPECT, 4, True)],
        table_deltas=[sample_entry()],
    )
    data = encode_envelope(env)
    decoded = receive(data)
    assert decoded.kind is EnvelopeKind.PING
    assert decoded.sender == H1
    assert [m.host for m in decoded.membership_rumors] == [H2, H3]
    assert decoded.membership_rumors[1].is_gateway
    assert decoded.membership_rumors[1].status is MemberStatus.SUSPECT
    assert decoded.table_deltas[0].key == sample_entry().key
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
    data = header + section([]) + section([]) + section([bitmap(b"id-1"), old_item])
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
        decode_envelope(b"\x02" + data[1:])  # wrong version
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
]
_GOLDEN_SYNC = (
    "0104010101010101010101010101010101010000002100"
    "1f030303030303030303030303030303030a0000031f0a810000000000000004"
    "00000071"
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
    rumor = member(H3, 3, MemberStatus.SUSPECT, 4, gateway=True)
    records = [_GOLDEN_ENTRY, _GOLDEN_BINDING]
    data = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC,
        sender=H1,
        membership_rumors=[rumor],
        table_deltas=records,
        sync_digest=narrow(*(r.digest_item for r in records)),
    ))
    assert data.hex() == _GOLDEN_SYNC
    decoded = receive(bytes.fromhex(_GOLDEN_SYNC))
    assert (decoded.kind, decoded.sender) == (EnvelopeKind.SYNC, H1)
    assert decoded.membership_rumors == [rumor]
    assert decoded.table_deltas == records
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
        "0104" + "01" * 16 + "00000000" + "00000000" + "00000802" + "0800" + hashes
    )
    decoded = receive(data)
    assert decoded.sync_digest.hashes == tuple(
        int(_GOLDEN_HASHES.get(b, "0"), 16) for b in range(BUCKETS)
    )
    assert table.differing_buckets(decoded.sync_digest.hashes) == []


def _full_envelope() -> bytes:
    """A SYNC with two member rumors, one entry, one binding and a digest."""
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
        membership_rumors=[member(H2, 2), member(H3, 3, MemberStatus.SUSPECT, 4, True)],
        table_deltas=records,
        sync_digest=narrow(*(r.digest_item for r in records)),
    ))


def _u16(data: bytes, pos: int) -> int:
    return int.from_bytes(data[pos : pos + 2], "big")


def _length_prefixes(data: bytes) -> list[tuple[int, int]]:
    """(offset, width) of every length prefix and count in _full_envelope()."""
    found = []
    pos = 18  # version, kind, sender
    for section in range(3):  # rumors, deltas, digest
        found.append((pos, 4))
        end = pos + 4 + int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        first = True
        while pos < end:
            found.append((pos, 2))
            item = pos + 2
            inner = []
            if section == 1 and data[item] == 0:  # entry: app id, name, tags
                inner.append(item + 29)
                inner.append(inner[-1] + 2 + _u16(data, inner[-1]) + 9)
                inner.append(inner[-1] + 2 + _u16(data, inner[-1]))
            elif section == 1:  # binding: tags
                inner.append(item + 34)
            elif section == 2 and not first:  # digest item: record id
                inner.append(item)
            first = False
            if section == 1:
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
    assert len(decoded.table_deltas) == 2 and len(decoded.sync_digest.versions) == 2
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            receive(data[:cut])
    with pytest.raises(DecodeError):
        receive(data + b"\x00")
    prefixes = _length_prefixes(data)
    # 3 sections; 2 rumors; 2 records; app id, name, tag count and tag of
    # the entry; tag count and tag of the binding; the bitmap, 2 digest
    # items and their ids.
    assert len(prefixes) == 3 + 2 + 2 + 4 + 2 + 3 + 2
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


def test_delta_heap_picks_what_a_full_sort_picks():
    g = make_gossip(H1, 1)
    rng = random.Random(7)
    records = [replace(sample_entry(), app_id=f"a{i}") for i in range(40)]
    model: dict = {}
    seq = 0
    for step in range(4000):
        roll = rng.random()
        if roll < 0.02:  # a new member raises the budget of later deltas
            g._merge_member(member(HostId(step.to_bytes(16, "big")), 5), 0)
        elif roll < 0.55:
            # Mostly re-queue a few hot ids, sometimes one of many.
            pool = records[: rng.choice((3, 3, 3, 40))]
            record = replace(rng.choice(pool), incarnation=step)
            g.queue_delta(record)
            seq += 1
            model[record.record_id] = [record, g._budget(), seq]
        else:
            limit = gossip.PIGGYBACK_LIMIT
            assert g._deltas.take(limit) == _sorted_take(model, limit)
        assert {k: v[:2] for k, v in g._deltas.slots.items()} == {
            k: v[:2] for k, v in model.items()
        }
    assert len(g.members) > 20  # budgets did change along the way


def test_delta_heap_stays_bounded_under_requeues():
    g = make_gossip(H1, 1)
    hot = [replace(sample_entry(), app_id=f"a{i}") for i in range(3)]
    for i in range(10_000):
        g.queue_delta(replace(hot[i % 3], incarnation=i))
        if i % 100 == 99:
            g._deltas.take(gossip.PIGGYBACK_LIMIT)
        queued = sum(map(len, g._deltas._fifos.values()))
        assert queued <= 2 * len(g._deltas.slots) + gossip.PIGGYBACK_LIMIT
    assert len(g._deltas.slots) == 3


def _sorted_take_rumors(g, model: dict, first, limit: int) -> list:
    """Rumor selection by a full sort of {host: [budget, seq]}, as before the heap."""
    out = [] if first is None else [first]
    seen = {m.host for m in out}
    for host in sorted(model, key=lambda h: (-model[h][0], model[h][1])):
        if len(out) >= limit:
            break
        if host in seen:
            continue
        out.append(replace(g.members[host]))
        seen.add(host)
        model[host][0] -= 1
        if model[host][0] <= 0:
            del model[host]
    return out


def test_rumor_heap_picks_what_a_full_sort_picks():
    g = make_gossip(H1, 1)
    rng = random.Random(11)
    model = {H1: [g._budget(), 0]}
    seq = 0
    queue_rumor = g._queue_rumor

    def queue_and_model(host):
        nonlocal seq
        queue_rumor(host)
        seq += 1
        model[host] = [g._budget(), seq]

    g._queue_rumor = queue_and_model
    hosts = [H2]
    g._merge_member(member(H2, 2), 0)
    skipped = 0
    for step in range(1, 4001):
        roll = rng.random()
        if roll < 0.05:  # a new member raises the budget of later rumors
            host = HostId(step.to_bytes(16, "big"))
            hosts.append(host)
            g._merge_member(member(host, 5), step)
        elif roll < 0.2:  # a fresher rumor: alive, suspect or dead
            old = g.members[rng.choice(hosts)]
            status = rng.choice(list(MemberStatus))
            g._merge_member(replace(old, status=status, incarnation=old.incarnation + 1), step)
        elif roll < 0.28:
            g._suspect(rng.choice(hosts), step)
        elif roll < 0.32:
            g.refute(g.local_record.incarnation, step)
        else:
            first = None
            if rng.random() < 0.5:
                first = replace(g.members[rng.choice(list(model) or hosts)])
            kept = list(g._rumors.slots.get(first.host, ())) if first else []
            expected = _sorted_take_rumors(g, model, first, gossip.PIGGYBACK_LIMIT)
            assert g._take_rumors(first, refresh=False) == expected
            if kept:  # the explicit first rumor's queued copy keeps its budget and place
                assert g._rumors.slots[first.host] == kept
                skipped += 1
        assert {h: slot[1] for h, slot in g._rumors.slots.items()} == {
            h: budget for h, (budget, _) in model.items()
        }
    assert len(g.members) > 100 and skipped > 500


def _rebuilding_ping_target(g):
    """Probe choice that rebuilds the peer list and checks the cycle against
    it on every probe, as before deaths were tracked."""
    peers = [
        m.host
        for m in g.members.values()
        if m.host != g.local_host and m.status is not MemberStatus.DEAD
    ]
    if not peers:
        return None
    if g._ping_idx >= len(g._ping_cycle) or not set(g._ping_cycle).issubset(peers):
        g._ping_cycle = sorted(peers)
        g.rng.shuffle(g._ping_cycle)
        g._ping_idx = 0
    host = g._ping_cycle[g._ping_idx]
    g._ping_idx += 1
    return g.members[host]


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
        before = sum(m.status is MemberStatus.DEAD for m in fast.members.values())
        joins = roll < 0.65 or not hosts
        if joins:
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
        host = hosts[-1] if joins else hosts[rng.randrange(len(hosts))]
        status = rng.choice(list(MemberStatus))
        for g in (fast, slow):
            if joins:
                g._merge_member(member(host, 5), step)
            elif roll < 0.8:  # a fresher rumor: a death, a revival or a suspicion
                old = g.members[host]
                g._merge_member(replace(old, status=status, incarnation=old.incarnation + 1), step)
            elif roll < 0.9:
                g._suspect(host, step)
            else:
                g.suspect_timeout_sweep(step)
        after = sum(m.status is MemberStatus.DEAD for m in fast.members.values())
        deaths += max(0, after - before)
    assert fast.rng.getstate() == slow.rng.getstate()
    assert picks > 1500 and deaths > 50


def _assert_member_indexes_hold(g):
    """_by_wire and _suspects equal their values recomputed from members."""
    assert g._by_wire == {gossip._encode_member(m): m for m in g.members.values()}
    assert len(g._by_wire) == len(g.members)
    for m in g._by_wire.values():
        assert m is g.members[m.host]
    assert g._suspects == {
        host for host, m in g.members.items() if m.status is MemberStatus.SUSPECT
    }


def test_member_indexes_follow_every_write():
    g = make_gossip(H1, 1)
    rng = random.Random(13)
    hosts: list[HostId] = []
    writes = {"merge": 0, "suspect": 0, "sweep": 0, "refute": 0, "first_contact": 0}
    deaths = suspected = 0
    for step in range(1, 2001):
        write = rng.choice(list(writes))
        if write == "merge" and hosts and rng.random() < 0.8:
            # A fresher, equal or older rumor of a known member, or of us.
            host = rng.choice([H1, *hosts])
            old = g.members[host]
            status = rng.choice(list(MemberStatus))
            incarnation = max(0, old.incarnation + rng.choice([-1, 0, 1]))
            g._merge_member(replace(old, status=status, incarnation=incarnation), step)
        elif write == "merge":
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
            g._merge_member(member(hosts[-1], 5), step)
        elif write == "suspect" and hosts:
            g._suspect(rng.choice(hosts), step)
        elif write == "sweep":
            before = dict(g.members)
            newly_dead = g.suspect_timeout_sweep(step)
            # What a sweep of every member finds, in membership order.
            assert newly_dead == [
                host for host, m in before.items()
                if m.status is MemberStatus.SUSPECT
                and step - m.last_change >= gossip.SUSPECT_TIMEOUT
            ]
            assert all(g.members[host].status is MemberStatus.DEAD for host in newly_dead)
            deaths += len(newly_dead)
        elif write == "refute":
            g.refute(g.local_record.incarnation + rng.randrange(2), step)
        else:
            hosts.append(HostId((step + 16).to_bytes(16, "big")))
            g.handle_envelope(
                GossipEnvelope(kind=EnvelopeKind.SYNC_REPLY, sender=hosts[-1]), step, addr(5)
            )
            assert g.members[hosts[-1]].incarnation == 0
        writes[write] += 1
        suspected += bool(g._suspects)
        _assert_member_indexes_hold(g)
    assert min(writes.values()) > 300, writes
    assert deaths > 20 and suspected > 500


def test_held_rumor_resolves_to_the_held_record_and_skips_the_merge():
    g, old_path = make_gossip(H1, 1), make_gossip(H1, 1)
    for m in (member(H2, 2), member(H3, 3, MemberStatus.SUSPECT, 4, True)):
        g._merge_member(m, 0)
        old_path._merge_member(m, 0)
    held = [g.members[H2], g.members[H3], g.local_record]
    data = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.SYNC_REPLY, sender=H2, membership_rumors=held
    ))
    env = receive(data, g)
    assert all(r is m for r, m in zip(env.membership_rumors, held, strict=True))
    merged = []
    merge = g._merge_member
    g._merge_member = lambda rumor, now: merged.append(rumor) or merge(rumor, now)
    g.handle_envelope(env, 5, addr(2))
    assert merged == []
    assert [g.members[H2], g.members[H3], g.local_record] == held
    # stale_rumors moves as merging each decoded rumor moves it: our own
    # record is not counted.
    for item in decode_envelope(data).membership_rumors:
        old_path._merge_member(gossip._decode_member(item), 5)
    assert g.counters["stale_rumors"] == old_path.counters["stale_rumors"] == 2
    # A fresher rumor, at a higher incarnation or with a new status, is
    # decoded and merged.
    fresher_rumors = (
        replace(held[0], incarnation=2),
        replace(held[0], status=MemberStatus.SUSPECT, incarnation=2),
    )
    for fresher in fresher_rumors:
        (rumor,) = receive(encode_envelope(GossipEnvelope(
            kind=EnvelopeKind.SYNC_REPLY, sender=H2, membership_rumors=[fresher]
        )), g).membership_rumors
        assert rumor is not g.members[H2] and rumor == replace(fresher, last_change=0)
        g.handle_envelope(
            GossipEnvelope(kind=EnvelopeKind.SYNC_REPLY, sender=H2, membership_rumors=[rumor]),
            6, addr(2),
        )
        assert merged[-1] is rumor
        assert g.members[H2] == replace(rumor, last_change=6)
    assert len(merged) == 2 and g.counters["stale_rumors"] == 2
    _assert_member_indexes_hold(g)


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
        r.host == H2 and r.status is MemberStatus.ALIVE
        for r in ping_a.membership_rumors
    )


def test_ping_gets_ack_with_self_attestation():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    a.handle_envelope(receive(encode_envelope(b.anti_entropy()), a), 0, addr(2))
    (dest, ping), = a.tick(1)
    replies = b.handle_envelope(ping, 1, addr(1))
    acks = [env for _, env in replies if env.kind is EnvelopeKind.ACK]
    assert len(acks) == 1
    assert acks[0].membership_rumors[0].host == H2
    # The ack clears the outstanding probe.
    a.handle_envelope(acks[0], 1, addr(2))
    assert H2 not in a._outstanding
    assert a.members[H2].status is MemberStatus.ALIVE
    # The next period simply probes again; no indirect probes fire.
    out2 = a.tick(2)
    assert [env.kind for _, env in out2] == [EnvelopeKind.PING]


def test_unanswered_probe_leads_to_ping_req_then_suspect_then_dead(monkeypatch):
    monkeypatch.setattr(gossip, "SUSPECT_TIMEOUT", 4)
    g = make_gossip(H1, 1)
    for h, n in [(H2, 2), (H3, 3), (H4, 4)]:
        g._merge_member(member(h, n), 0)
    g.tick(1)  # ping someone
    target = next(iter(g._outstanding))
    out2 = g.tick(2)
    ping_reqs = [env for _, env in out2 if env.kind is EnvelopeKind.PING_REQ]
    assert ping_reqs, "indirect probes expected after a silent period"
    assert all(env.membership_rumors[0].host == target for env in ping_reqs)
    g.tick(3)
    assert g.members[target].status is MemberStatus.SUSPECT
    dead = []
    for now in range(4, 9):
        g.tick(now)
        if g.members[target].status is MemberStatus.DEAD:
            dead.append(now)
            break
    assert dead and dead[0] == 3 + 4  # suspicion at 3, T_suspect periods later


def test_proxy_relays_attestation_ack():
    b = make_gossip(H2, 2)
    b._merge_member(member(H1, 1), 0)
    b._merge_member(member(H3, 3), 0)
    ping_req = GossipEnvelope(
        kind=EnvelopeKind.PING_REQ, sender=H1, membership_rumors=[member(H3, 3)]
    )
    out = b.handle_envelope(ping_req, 1, addr(1))
    assert [env.kind for _, env in out] == [EnvelopeKind.PING]
    assert out[0][0] == addr(3)
    ack_from_target = GossipEnvelope(
        kind=EnvelopeKind.ACK, sender=H3, membership_rumors=[member(H3, 3)]
    )
    relayed = b.handle_envelope(ack_from_target, 1, addr(3))
    assert [(dest, env.kind) for dest, env in relayed] == [
        (addr(1), EnvelopeKind.ACK)
    ]
    assert relayed[0][1].membership_rumors[0].host == H3


def test_refutation_on_suspect_rumor_about_self():
    g = make_gossip(H1, 1)
    g._merge_member(member(H2, 2), 0)
    rumor = GossipEnvelope(
        kind=EnvelopeKind.ACK,
        sender=H2,
        membership_rumors=[
            member(H2, 2),
            member(H1, 1, MemberStatus.SUSPECT, incarnation=1),
        ],
    )
    g.handle_envelope(rumor, 3, addr(2))
    assert g.local_record.status is MemberStatus.ALIVE
    assert g.local_record.incarnation == 2


def test_dead_is_terminal_until_higher_incarnation():
    g = make_gossip(H1, 1)
    g._merge_member(member(H2, 2, MemberStatus.DEAD, incarnation=5), 0)
    g._merge_member(member(H2, 2, MemberStatus.ALIVE, incarnation=5), 1)
    assert g.members[H2].status is MemberStatus.DEAD
    g._merge_member(member(H2, 2, MemberStatus.ALIVE, incarnation=6), 2)
    assert g.members[H2].status is MemberStatus.ALIVE


def test_host_death_tombstones_its_entries(monkeypatch):
    monkeypatch.setattr(gossip, "SUSPECT_TIMEOUT", 1)
    g = make_gossip(H1, 1)
    g.table.merge_record(sample_entry(host=H2), 0)
    g._merge_member(member(H2, 2), 0)
    g._merge_member(member(H2, 2, MemberStatus.SUSPECT, incarnation=1), 1)
    g.suspect_timeout_sweep(5)
    assert g.table.lookup(sample_entry().key) == []


def test_sync_reply_returns_missing_records_and_reverse_syncs():
    a, b = make_gossip(H1, 1), make_gossip(H2, 2)
    b.table.insert_local(sample_entry(host=H2), 0)
    a.table.insert_local(
        replace(sample_entry(host=H1), real=RealEndpoint(IPv4Address("10.0.0.1"), 5)), 0
    )
    # Rumor budgets long spent: only the digests can close the gap now.
    a._deltas.slots.clear()
    b._deltas.slots.clear()
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
        getattr(r, "host", None) == H2 for r in reply.table_deltas
    )
    a.handle_envelope(reply, 1, addr(2))
    assert len(a.table.lookup(sample_entry().key)) == 2


def test_applied_deltas_are_requeued_for_spreading():
    g = make_gossip(H1, 1)
    env = GossipEnvelope(
        kind=EnvelopeKind.PING, sender=H2, table_deltas=[sample_entry(host=H2)]
    )
    g.handle_envelope(env, 1, addr(2))
    assert g._deltas.slots  # learned news is infective
    g.handle_envelope(env, 2, addr(2))  # replay does not reset budgets
    (slot,) = g._deltas.slots.values()
    assert slot[0].host == H2


def test_rumor_budget_bounds_piggyback(monkeypatch):
    monkeypatch.setattr(gossip, "PIGGYBACK_LIMIT", 3)
    g = make_gossip(H1, 1)
    for i in range(2, 9):
        g._merge_member(member(HostId(bytes([i]) * 16), i), 0)
    (dest, ping), = [o for o in g.tick(1) if o[1].kind is EnvelopeKind.PING]
    # Budgets grow with the membership: n8 was queued with 10, n6 and n7
    # with 9 each (n6 first), everyone else with less.
    assert [m.host for m in ping.membership_rumors] == [
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
    g._merge_member(member(H2, 2), 12)
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
    assert len(b.table.records()) == 4
    data = encode_envelope(a.anti_entropy())
    _, pos = read_section(data, 18)
    _, pos = read_section(data, pos)
    # The digest section: a u32 length, one u16-prefixed item of 256 hashes.
    assert len(data) - pos == 4 + 2 + 256 * 8
    (dest, reply), = b.handle_envelope(receive(data, b), 1, addr(1))
    assert dest == addr(1) and reply.kind is EnvelopeKind.SYNC_REPLY
    assert reply.table_deltas == [] and reply.sync_digest is None
    assert a.handle_envelope(receive(encode_envelope(reply), a), 1, addr(2)) == []
