import hashlib
import random
import zlib
from dataclasses import replace
from ipaddress import IPv4Address

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from appnet.errors import AmbiguousName, DecodeError, DuplicateAppBinding
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
    encode_record,
)

H1 = HostId(b"\x01" * 16)
H2 = HostId(b"\x02" * 16)
H3 = HostId(b"\x03" * 16)

# The states an entry or a binding takes, in their order.
_RETIRABLE = [EntryState.ALIVE, EntryState.TOMBSTONE]


def entry(
    host=H1,
    app_id="a1",
    vip="10.1.1.1",
    port=80,
    real_port=41712,
    incarnation=1,
    state=EntryState.ALIVE,
    name=None,
    tags=(),
):
    return ServiceEntry(
        key=ServiceKey(IPv4Address(vip), port),
        real=RealEndpoint(IPv4Address(f"192.168.0.{host[0]}"), real_port),
        host=host,
        app_id=app_id,
        tags=TagSet.from_pairs(list(tags)),
        name=name,
        incarnation=incarnation,
        state=state,
    )


def test_insert_then_lookup():
    table = ServiceTable(H1)
    stored = table.insert_local(entry(), 0)
    assert table.records() == [stored] and stored.incarnation == 1
    found = table.lookup(ServiceKey(IPv4Address("10.1.1.1"), 80))
    assert len(found) == 1
    assert found[0].real.port == 41712


def test_same_key_from_other_host_is_load_balanced_set():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    assert table.merge_record(entry(host=H2, app_id="a2"), 0) is MergeOutcome.APPLIED
    found = table.lookup(ServiceKey(IPv4Address("10.1.1.1"), 80))
    assert len(found) == 2
    assert {e.host for e in found} == {H1, H2}


def test_double_bind_by_one_app_rejected():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    with pytest.raises(DuplicateAppBinding):
        table.insert_local(entry(real_port=50000), 0)


def test_lookup_empty_table():
    table = ServiceTable(H1)
    assert table.lookup(ServiceKey(IPv4Address("10.9.9.9"), 1)) == []


def test_merge_incarnation_wins_and_ties_are_stale():
    table = ServiceTable(H1)
    resident = entry(host=H2, app_id="a2", incarnation=3)
    assert table.merge_record(resident, 0) is MergeOutcome.APPLIED
    assert table.merge_record(replace(resident, incarnation=5), 0) is MergeOutcome.APPLIED
    assert table.merge_record(replace(resident, incarnation=5), 0) is MergeOutcome.STALE
    assert table.merge_record(replace(resident, incarnation=3), 0) is MergeOutcome.STALE


def test_tombstone_host_hides_entries_and_bumps_incarnation():
    table = ServiceTable(H1)
    table.merge_record(entry(host=H2, app_id="a2", incarnation=4), 0)
    assert table.tombstone_host(H2, now=7) == 1
    assert table.lookup(ServiceKey(IPv4Address("10.1.1.1"), 80)) == []
    stone = table.snapshot()[0]
    assert stone.state is EntryState.TOMBSTONE
    assert stone.incarnation == 5


def test_no_resurrection_after_tombstone():
    table = ServiceTable(H1)
    victim = entry(host=H2, app_id="a2", incarnation=4)
    table.merge_record(victim, 0)
    table.tombstone_host(H2, now=0)
    assert table.merge_record(replace(victim, incarnation=5), 0) is MergeOutcome.STALE
    assert table.merge_record(replace(victim, incarnation=4), 0) is MergeOutcome.STALE
    assert table.lookup(victim.key) == []
    # Only a strictly newer registration returns.
    assert table.merge_record(replace(victim, incarnation=6), 0) is MergeOutcome.APPLIED
    assert len(table.lookup(victim.key)) == 1


def test_owner_refutes_foreign_tombstone():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    announced = []
    table.on_local_update = announced.append
    stone = replace(entry(), state=EntryState.TOMBSTONE, incarnation=2)
    assert table.merge_record(stone, 5) is MergeOutcome.REFUTED
    survivor = table.lookup(entry().key)[0]
    assert survivor.incarnation == 3
    assert announced and announced[0].incarnation == 3


def test_owner_refutes_foreign_rival_at_same_incarnation():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    mine = table.lookup(entry().key)[0]
    rival = next(
        r
        for r in (entry(real_port=port) for port in range(50000, 50100))
        if r.version > mine.version
    )
    assert table.merge_record(rival, 5) is MergeOutcome.REFUTED
    survivor = table.lookup(entry().key)[0]
    assert (survivor.real, survivor.incarnation) == (mine.real, 2)


def test_gc_keeps_fresh_and_drops_old_tombstones():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    table.retire(entry().record_id, now=10)
    assert table.gc_tombstones(now=20) == 0
    assert table.gc_tombstones(now=41) == 1
    assert table.snapshot() == []


def test_lookup_name_resolution_rules():
    table = ServiceTable(H1)
    assert table.lookup_name("web") is None
    table.insert_local(entry(name="web", vip="240.1.1.1"), 0)
    assert table.lookup_name("web") == IPv4Address("240.1.1.1")
    assert table.lookup_name("WEB") == IPv4Address("240.1.1.1")
    # Two live holders with the same vip: a distributed app, no error.
    table.merge_record(
        entry(host=H2, app_id="a2", name="web", vip="240.1.1.1", port=81), 0
    )
    assert table.lookup_name("web") == IPv4Address("240.1.1.1")
    # A holder with a different vip makes the alias ambiguous.
    table.merge_record(
        entry(host=H3, app_id="a3", name="web", vip="240.2.2.2"), 0
    )
    with pytest.raises(AmbiguousName):
        table.lookup_name("web")


def test_tombstones_excluded_from_name_lookup():
    table = ServiceTable(H1)
    table.insert_local(entry(name="web", vip="240.1.1.1"), 0)
    table.tombstone_host(H1, 0)
    assert table.lookup_name("web") is None


def test_entry_codec_round_trip():
    e = entry(name="web", tags=("grp=1", "grp=2", "env=prod"), incarnation=9)
    assert decode_record(encode_record(e)) == replace(e, stamp=0)


def test_decoded_records_keep_the_ids_they_were_encoded_with():
    records = [
        entry(app_id="a1"),
        entry(app_id="äpp-ü", name="web", tags=("grp=1",)),
        GatewayBinding(
            key=ServiceKey(IPv4Address("10.9.0.1"), 7777),
            gateway=H2,
            external_port=30080,
            state=EntryState.TOMBSTONE,
            incarnation=4,
            admit=TagSet(),
        ),
    ]
    for record in records:
        decoded = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.record_id == _id_from_fields(record)


def _id_from_fields(record) -> bytes:
    """A record id built from the record's fields, not sliced from its bytes."""
    if isinstance(record, ServiceEntry):
        app = record.app_id.encode()
        return b"".join((
            b"\x00", record.key.vip.packed, record.key.port.to_bytes(2, "big"),
            record.host, len(app).to_bytes(2, "big"), app,
        ))
    return b"\x01" + record.gateway + record.external_port.to_bytes(2, "big")


def test_decode_reuses_a_held_record_only_for_its_exact_bytes():
    table = ServiceTable(H1)
    newer = entry(host=H2, incarnation=5, tags=("grp=1",))
    assert table.merge_record(decode_record(newer.encoded), 0) is MergeOutcome.APPLIED
    (held,) = table.records()
    # The same bytes are the held object itself: nothing is built.
    assert table.decode(newer.encoded) is held
    assert table.merge_record(table.decode(newer.encoded), 1) is MergeOutcome.STALE
    # An older version shares the id but not the bytes: it is decoded afresh.
    older = replace(newer, incarnation=4)
    assert older.record_id == held.record_id
    resolved = table.decode(older.encoded)
    assert resolved is not held and resolved == older
    assert resolved.encoded == older.encoded and resolved.version == older.version
    assert table.merge_record(resolved, 2) is MergeOutcome.STALE
    # Bytes of no held record are decoded too, and checked.
    other = entry(host=H3, incarnation=2)
    assert table.decode(other.encoded) == other
    with pytest.raises(DecodeError):
        table.decode(other.encoded[:-1])
    with pytest.raises(DecodeError):
        table.decode(b"")


def _narrow(theirs, ours, limit=10**9):
    """`ours`' reading of the narrow digest that `theirs` sends it: the items
    of `theirs` in every bucket where the two tables' hashes differ."""
    hashes = ours.read_digest([theirs.digest()]).hashes
    runs = theirs.narrow_digests(ours.differing_buckets(hashes), limit)
    assert len(runs) <= 1
    return ours.read_digest(runs[0] if runs else [bytes(BUCKETS // 8)])


def test_ghost_of_an_own_entry_is_neither_merged_nor_news():
    table, peer = ServiceTable(H1), ServiceTable(H3)
    mine = entry(host=H1)
    table.insert_local(mine, 0)
    held = table.records()[0]
    peer.merge_record(held, 0)
    table.retire(held.record_id, 1)
    table.gc_tombstones(100)
    assert table.records() == []
    # The peer still holds the live entry this node has collected.
    digest = _narrow(peer, table)
    assert list(digest.versions) == [held.record_id]
    assert not table.digest_has_news(digest)
    assert table.merge_record(held, 101) is MergeOutcome.STALE
    # Missing records of other hosts, entry or binding, are news.
    for theirs in (entry(host=H2), _binding(gateway=H1)):
        peer.merge_record(theirs, 0)
        assert table.digest_has_news(_narrow(peer, table))
        assert table.merge_record(theirs, 101) is MergeOutcome.APPLIED


def _binding(gateway=H2, admit=()):
    return GatewayBinding(
        key=ServiceKey(IPv4Address("10.9.0.1"), 7777),
        gateway=gateway,
        external_port=30080,
        state=EntryState.ALIVE,
        incarnation=1,
        admit=TagSet.from_pairs(list(admit)),
    )


def _raw_tags(value: str) -> TagSet:
    """A tag set built without TagSet.from_pairs and its length checks."""
    return TagSet({"grp": frozenset([value])})


@pytest.mark.parametrize("build", [
    lambda big: entry(app_id=big),
    lambda big: entry(name=big),
    lambda big: replace(entry(), tags=_raw_tags(big)),
    lambda big: replace(_binding(), admit=_raw_tags(big)),
])
def test_record_fields_over_0xffff_bytes_raise_value_error(build):
    build("a" * 0xFF00)  # near the limit still encodes
    with pytest.raises(ValueError):
        build("a" * 0x10000)


def test_app_id_too_long_for_its_digest_item_raises_value_error():
    # The app id fits its lp16 field, but the record id, which adds the
    # kind, key, host and length prefix, does not fit the digest item's.
    with pytest.raises(ValueError):
        entry(app_id="a" * 0xFFF0)


def test_stamped_copy_shares_id_encoding_and_version():
    record = entry(name="web", tags=("grp=1",))
    copy = record.stamped(7)
    assert copy == record and copy.stamp == 7 and record.stamp == 0
    assert copy.encoded is record.encoded
    assert copy.record_id is record.record_id and copy.version is record.version
    assert copy.digest_item is record.digest_item


def test_dump_format_is_stable():
    table = ServiceTable(H1)
    table.insert_local(entry(name="web", tags=("grp=1",)), 0)
    table.merge_record(entry(host=H2, app_id="a2", vip="10.1.1.2", port=443), 0)
    lines = table.dump().splitlines()
    assert lines[0].split("\t") == [
        "10.1.1.1:80",
        "192.168.0.1:41712",
        H1.hex(),
        "alive",
        "1",
        "web",
        "grp=1",
    ]
    assert lines[1].split("\t") == [
        "10.1.1.2:443",
        "192.168.0.2:41712",
        H2.hex(),
        "alive",
        "1",
        "-",
        "-",
    ]


def test_dump_lists_bindings_after_entries():
    table = ServiceTable(H1)
    table.insert_local(entry(), 0)
    binding = GatewayBinding(
        key=entry().key,
        gateway=H3,
        external_port=30080,
        state=EntryState.ALIVE,
        incarnation=0,
        admit=TagSet.from_pairs(["grp=5"]),
    )
    table.write_local(binding, 0)
    entry_line = table.dump().splitlines()[0]
    table.retire(binding.record_id, 1)
    lines = table.dump().splitlines()
    assert lines[0] == entry_line
    assert lines[1].split("\t") == [
        "binding",
        "10.1.1.1:80",
        f"{H3.hex()}:30080",
        "tombstone",
        "2",
        "grp=5",
    ]


# --- convergence property against a brute-force oracle ---


def _random_events(rng, hosts, n_events):
    """A universe of entry versions; the oracle keeps the per-id maximum."""
    events = []
    for _ in range(n_events):
        host = rng.choice(hosts)
        app = f"a{rng.randrange(3)}"
        port = rng.choice([80, 81])
        incarnation = rng.randrange(1, 8)
        state = EntryState.ALIVE if incarnation % 2 == 1 else EntryState.TOMBSTONE
        events.append(
            entry(
                host=host,
                app_id=app,
                port=port,
                incarnation=incarnation,
                state=state,
            )
        )
    return events


def _oracle_view(events):
    best = {}
    for e in events:
        key = e.record_id
        if key not in best or (e.incarnation, e.host) > (
            best[key].incarnation,
            best[key].host,
        ):
            best[key] = e
    return {
        k: (v.incarnation, v.state) for k, v in best.items()
    }


def _table_view(table):
    return {e.record_id: (e.incarnation, e.state) for e in table.snapshot()}


def test_merge_convergence_matches_oracle():
    rng = random.Random(20240)
    hosts = [H2, H3]  # never the local host, so no refutation paths
    for _ in range(300):
        events = _random_events(rng, hosts, rng.randrange(1, 12))
        replica_a, replica_b = ServiceTable(H1), ServiceTable(HostId(b"\x09" * 16))
        order_a = events[:]
        order_b = events[:]
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        # Duplicate deliveries are normal gossip behavior.
        order_a += rng.sample(order_a, k=min(3, len(order_a)))
        for e in order_a:
            replica_a.merge_record(e, 0)
        for e in order_b:
            replica_b.merge_record(e, 0)
        expected = _oracle_view(events)
        assert _table_view(replica_a) == expected
        assert _table_view(replica_b) == expected


def test_full_replay_idempotence():
    rng = random.Random(7)
    events = _random_events(rng, [H2, H3], 20)
    table = ServiceTable(H1)
    for e in events:
        table.merge_record(e, 0)
    settled = _table_view(table)
    outcomes = [table.merge_record(e, 1) for e in events]
    assert all(o is MergeOutcome.STALE for o in outcomes)
    assert _table_view(table) == settled


def _rival_writes(rng):
    """Records that share (id, incarnation, state) and differ elsewhere."""
    incarnation = rng.randrange(1, 4)
    state = rng.choice(_RETIRABLE)
    out = []
    for _ in range(rng.randrange(2, 6)):
        tags = [f"grp={rng.randrange(4)}"]
        if rng.random() < 0.5:
            out.append(replace(
                entry(host=H2, app_id="a2", real_port=40000 + rng.randrange(3), tags=tags),
                incarnation=incarnation,
                state=state,
            ))
        else:
            out.append(GatewayBinding(
                key=ServiceKey(IPv4Address(f"10.1.1.{rng.randrange(1, 4)}"), 80),
                gateway=H3,
                external_port=30000,
                state=state,
                incarnation=incarnation,
                admit=TagSet.from_pairs(tags),
            ))
    return out


def test_rival_writes_converge_to_one_whole_record():
    rng = random.Random(31)
    for _ in range(300):
        writes = _rival_writes(rng)
        replicas = [ServiceTable(H1), ServiceTable(HostId(b"\x09" * 16))]
        for table in replicas:
            order = writes[:]
            rng.shuffle(order)
            for record in order:
                table.merge_record(record, 0)
        held = [sorted(r.encoded for r in table.records()) for table in replicas]
        assert held[0] == held[1]


# --- indexes against brute-force scans of records() ---

_KEYS = [ServiceKey(IPv4Address(vip), port) for vip in ("10.1.1.1", "10.1.1.2") for port in (80, 81)]
_NAMES = [None, "web", "WEB", "Web", "db"]


def _scan_lookup(table, key):
    found = [
        r for r in table.records()
        if isinstance(r, ServiceEntry) and r.state is EntryState.ALIVE and r.key == key
    ]
    return sorted(found, key=lambda e: (e.host, e.app_id))


def _scan_lookup_name(table, name):
    vips = {
        r.key.vip for r in table.records()
        if isinstance(r, ServiceEntry) and r.state is EntryState.ALIVE
        and r.name and r.name.lower() == name.lower()
    }
    if len(vips) > 1:
        return AmbiguousName
    return vips.pop() if vips else None


def _lookup_name_or_ambiguous(table, name):
    try:
        return table.lookup_name(name)
    except AmbiguousName:
        return AmbiguousName


def _scan_duplicate(table, key, app_id):
    return any(r.app_id == app_id for r in _scan_lookup(table, key))


def _assert_indexes_hold_exactly_the_current_records(table):
    by_key, by_vip, by_app, by_name, members, tombstones = {}, {}, {}, {}, {}, {}
    for r in table.records():
        if r.state is EntryState.TOMBSTONE:
            tombstones.setdefault(r.stamp, {})[r.record_id] = r
        elif isinstance(r, Member):
            members.setdefault(r.state, {})[r.record_id] = r
        elif isinstance(r, ServiceEntry):
            by_key.setdefault(r.key, {})[r.record_id] = r
            by_vip.setdefault(r.key.vip, {})[r.record_id] = r
            by_app.setdefault((r.host, r.app_id), {})[r.record_id] = r
            if r.name:
                by_name.setdefault(r.name.lower(), {})[r.record_id] = r
    for index, expected in (
        (table._by_key, by_key), (table._by_vip, by_vip), (table._by_app, by_app),
        (table._by_name, by_name), (table._members, members), (table._tombstones, tombstones),
    ):
        assert index == expected
        # The very objects the stores hold, not equal leftovers of superseded writes.
        for bucket, records in index.items():
            for record_id, record in records.items():
                assert record is expected[bucket][record_id]
    assert table._by_encoded == {r.encoded: r for r in table.records()}
    for record in table._by_encoded.values():
        assert record is table._records[record.record_id]
    assert table._hashes == _bucket_hashes(table.records())
    in_bucket = [{} for _ in range(BUCKETS)]
    for record in table.records():
        in_bucket[bucket_of(record.record_id)][record.record_id] = record
    assert table._in_bucket == in_bucket
    for records in table._in_bucket:
        for record_id, record in records.items():
            assert record is table._records[record_id]
    # The app index answers what the old scan of every live entry did.
    for host in (H1, H2, H3):
        for app_id in ("a0", "a1", "a2"):
            scan = [e for e in table.alive_entries() if e.host == host and e.app_id == app_id]
            assert sorted(table.entries_for_app(host, app_id), key=lambda e: e.record_id) == (
                sorted(scan, key=lambda e: e.record_id)
            )
    # The vip index answers what the old scans of every live entry did.
    for vip in {key.vip for key in _KEYS}:
        named = {e.name for e in by_vip.get(vip, {}).values() if e.name}
        assert table.name_at(vip) in (named or {None})
        assert table.used_service_ports(vip) == {e.key.port for e in by_vip.get(vip, {}).values()}


def _bucket_hashes(records) -> list[int]:
    """Each bucket's hash, recomputed from scratch: the XOR of a 64-bit
    blake2b of every digest item in it."""
    hashes = [0] * BUCKETS
    for record in records:
        digest = hashlib.blake2b(_field_item(record), digest_size=8).digest()
        hashes[zlib.crc32(record.record_id) % BUCKETS] ^= int.from_bytes(digest, "big")
    return hashes


def _random_entry(rng, host):
    return entry(
        host=host,
        app_id=f"a{rng.randrange(3)}",
        vip=str(rng.choice(_KEYS).vip),
        port=rng.choice(_KEYS).port,
        real_port=40000 + rng.randrange(4),
        name=rng.choice(_NAMES),
    )


def test_indexes_match_brute_force_scans():
    rng = random.Random(5150)
    table = ServiceTable(H1)
    outcomes = {outcome: 0 for outcome in MergeOutcome}
    now = duplicates = collected = ambiguous = 0
    for _ in range(4000):
        now += rng.randrange(2)
        step = rng.random()
        if step < 0.25:
            fresh = _random_entry(rng, H1)
            if _scan_duplicate(table, fresh.key, fresh.app_id):
                duplicates += 1
                with pytest.raises(DuplicateAppBinding):
                    table.insert_local(fresh, now)
            else:
                stored = table.insert_local(fresh, now)
                assert stored.record_id == fresh.record_id
                assert any(e is stored for e in table.lookup(fresh.key))
        elif step < 0.4 and table.records():
            target = rng.choice(table.records())
            was_alive = target.state is EntryState.ALIVE
            assert table.retire(target.record_id, now) is was_alive
        elif step < 0.9:
            # A foreign version of a held record (a re-registration under a new
            # name or endpoint, or a tombstone) at a lower, equal or higher
            # incarnation, or a record not held yet; now and then one of ours.
            held = [r for r in table.records() if isinstance(r, ServiceEntry)]
            if held and rng.random() < 0.7:
                base = rng.choice(held)
                fresh = _random_entry(rng, base.host)
                base = replace(fresh, key=base.key, app_id=base.app_id,
                               incarnation=base.incarnation)
            else:
                base = _random_entry(rng, rng.choice([H1, H2, H3]))
            record = replace(
                base,
                incarnation=max(1, base.incarnation + rng.choice([-1, 0, 1])),
                state=rng.choice([EntryState.ALIVE, EntryState.ALIVE, EntryState.TOMBSTONE]),
            )
            outcomes[table.merge_record(record, now)] += 1
        else:
            ttl = rng.randrange(4)
            expired = [
                r for r in table.records()
                if r.state is EntryState.TOMBSTONE and now - r.stamp > ttl
            ]
            assert table.gc_tombstones(now, ttl) == len(expired)
            collected += len(expired)
            assert not {r.record_id for r in expired} & {r.record_id for r in table.records()}
        for key in _KEYS:
            assert table.lookup(key) == _scan_lookup(table, key)
        for name in _NAMES[1:]:
            answer = _scan_lookup_name(table, name)
            assert _lookup_name_or_ambiguous(table, name) == answer
            ambiguous += answer is AmbiguousName
        _assert_indexes_hold_exactly_the_current_records(table)
    # Every path was taken.
    assert all(outcomes.values()), outcomes
    assert duplicates and collected and ambiguous


def test_bucket_hashes_follow_every_write():
    """After every kind of write, the bucket hashes that _put keeps equal the
    ones recomputed from records()."""
    rng = random.Random(77)
    table = ServiceTable(H1)
    writes = {"insert_local": 0, "merge_record": 0, "retire": 0, "tombstone_host": 0,
              "gc_tombstones": 0}
    changed = {write: 0 for write in writes}
    now = 0
    for _ in range(1500):
        now += rng.randrange(2)
        write = rng.choice(list(writes))
        before = table.digest()
        if write == "insert_local":
            fresh = _random_entry(rng, H1)
            if _scan_duplicate(table, fresh.key, fresh.app_id):
                continue
            table.insert_local(fresh, now)
        elif write == "merge_record":
            if rng.random() < 0.2:
                base = replace(_binding(gateway=rng.choice([H1, H2, H3])),
                               external_port=30080 + rng.randrange(3))
            else:
                base = _random_entry(rng, rng.choice([H1, H2, H3]))
            table.merge_record(
                replace(base, incarnation=rng.randrange(1, 4), state=rng.choice(_RETIRABLE)),
                now,
            )
        elif write == "retire":
            if not table.records():
                continue
            table.retire(rng.choice(table.records()).record_id, now)
        elif write == "tombstone_host":
            table.tombstone_host(rng.choice([H2, H3]), now)
        else:
            table.gc_tombstones(now, rng.randrange(4))
        writes[write] += 1
        changed[write] += table.digest() != before
        _assert_indexes_hold_exactly_the_current_records(table)
    assert min(writes.values()) > 150, writes
    assert min(changed.values()) > 20, changed


# --- sync digests ---

def _field_item(record) -> bytes:
    """A digest item written field by field: lp16 record id, then the version."""
    incarnation, state, crc = record.version
    return (
        len(record.record_id).to_bytes(2, "big") + record.record_id
        + incarnation.to_bytes(8, "big") + bytes([state]) + crc.to_bytes(4, "big")
    )


def _tuple_digest(table):
    """The digest as (record id, version) pairs, as sent before items were bytes."""
    return sorted((r.record_id, r.version) for r in table.records())


def _tuple_records_newer_than(table, digest):
    """records_newer_than over (record id, version) pairs, as it was."""
    theirs = dict(digest)
    out = []
    for record in table.records():
        known = theirs.get(record.record_id)
        if known is None or known < record.version:
            out.append(record)
    out.sort(key=lambda r: r.record_id)
    return out


def _tuple_digest_has_news(table, digest):
    """digest_has_news over (record id, version) pairs, as it was."""
    for record_id, version in digest:
        mine = table._records.get(record_id)
        if mine is None or mine.version < version:
            return True
    return False


_DIGEST_HOSTS = [H1, H2, H3]


def _in_bucket(make, bucket):
    """make(i) for the first i whose record falls in `bucket`."""
    return next(r for r in map(make, range(10_000)) if bucket_of(r.record_id) == bucket)


def _digest_pool(rng):
    """Versions of a few entries and bindings: each base record at
    incarnations 1-3, alive or tombstoned, with two rival encodings each.
    The ten base records share three buckets, so a bucket that differs
    also holds records that match."""
    name = rng.choice([None, "web"])
    makers = [
        lambda i, host=host: entry(host=host, app_id=f"a{i}", name=name, tags=("grp=1",))
        for host in _DIGEST_HOSTS for _ in range(2)
    ] + [
        lambda i, host=host: GatewayBinding(
            key=_KEYS[0], gateway=host, external_port=30000 + i, state=EntryState.ALIVE,
            incarnation=1, admit=TagSet.from_pairs(["grp=1"]),
        )
        for host in _DIGEST_HOSTS[:2] for _ in range(2)
    ]
    bases = [
        _in_bucket(lambda i, make=make, n=n: make(i + 100 * n), (7, 100, 201)[n % 3])
        for n, make in enumerate(makers)
    ]
    assert len({b.record_id for b in bases}) == 10
    pool = {}
    for base in bases:
        rivals = [base, replace(base, key=_KEYS[1])] if isinstance(base, GatewayBinding) else [
            base, replace(base, real=RealEndpoint(base.real.host_ip, base.real.port + 1))
        ]
        pool[base.record_id] = [
            replace(rival, incarnation=incarnation, state=state)
            for rival in rivals
            for incarnation in (1, 2, 3)
            for state in _RETIRABLE
        ]
    return pool


def _item_buckets(*tables) -> list[int]:
    """The buckets in which the tables' digest items differ."""
    items = [{r.digest_item: r for r in table.records()} for table in tables]
    differ = set(items[0].keys() ^ items[-1].keys())
    return sorted({bucket_of(r.record_id) for mine in items for i, r in mine.items() if i in differ})


def test_digest_items_are_the_field_by_field_bytes():
    rng = random.Random(1)
    table = ServiceTable(HostId(b"\x09" * 16))
    for versions in _digest_pool(rng).values():
        table.merge_record(rng.choice(versions), 0)
    assert len(table.records()) == 10
    for record in table.records():
        assert record.digest_item == _field_item(record)
        assert decode_record(record.encoded).digest_item == record.digest_item
    # The bucket hashes, big-endian, XOR each bucket's item hashes.
    assert table.digest() == b"".join(h.to_bytes(8, "big") for h in _bucket_hashes(table.records()))
    # A narrow digest of every bucket names them all in its bitmap, then lists
    # every field-by-field item, bucket by bucket.
    (narrow,) = table.narrow_digests(list(range(BUCKETS)), 10**9)
    assert narrow[0] == b"\xff" * (BUCKETS // 8)
    assert sorted(narrow[1:]) == sorted(_field_item(r) for r in table.records())
    listed = [bucket_of(item[2 : len(item) - 13]) for item in narrow[1:]]
    assert listed == sorted(listed) and set(listed) == {7, 100, 201}


def test_narrow_digests_split_by_bucket_under_the_limit():
    rng = random.Random(3)
    table = ServiceTable(HostId(b"\x09" * 16))
    for versions in _digest_pool(rng).values():
        table.merge_record(rng.choice(versions), 0)
    sizes = {b: sum(len(r.digest_item) + 2 for r in table.records() if bucket_of(r.record_id) == b)
             for b in (7, 100, 201)}
    limit = max(sizes.values())
    runs = table.narrow_digests([7, 100, 201, 250], limit)
    read = [table.read_digest(run) for run in runs]
    assert [b for digest in read for b in digest.buckets] == [7, 100, 201, 250]
    assert all(sum(len(item) + 2 for item in run[1:]) <= limit for run in runs)
    assert sum(len(digest.versions) for digest in read) == 10
    # A bucket over the limit still travels, in a run of its own.
    assert [len(run) - 1 for run in table.narrow_digests([7, 100], 1)] == [
        len(table._in_bucket[7]), len(table._in_bucket[100])
    ]


def test_equal_bucket_hashes_mean_equal_items():
    rng = random.Random(11)
    pool = _digest_pool(rng)
    outcomes = {"equal": 0, "differ": 0}
    for _ in range(600):
        theirs = ServiceTable(HostId(b"\x0a" * 16))
        for versions in pool.values():
            if rng.random() < 0.7:
                theirs.merge_record(rng.choice(versions), 0)
        # The same records, merged in another order and over older versions.
        ours = ServiceTable(HostId(b"\x09" * 16))
        held = theirs.records()
        rng.shuffle(held)
        for record in held:
            older = [v for v in pool[record.record_id] if v.version < record.version]
            if older and rng.random() < 0.5:
                ours.merge_record(rng.choice(older), 0)
            ours.merge_record(record, 0)
        # Now and then one write more: a rival version, or a record removed.
        if rng.random() < 0.5:
            record_id, versions = rng.choice(list(pool.items()))
            if rng.random() < 0.3 and record_id in ours._records:
                ours._put(record_id, None)
            else:
                ours.merge_record(rng.choice(versions), 0)
        equal = {r.digest_item for r in ours.records()} == {r.digest_item for r in theirs.records()}
        assert (ours.digest() == theirs.digest()) is equal
        hashes = ours.read_digest([theirs.digest()]).hashes
        assert ours.differing_buckets(hashes) == _item_buckets(ours, theirs)
        outcomes["equal" if equal else "differ"] += 1
    assert min(outcomes.values()) >= 150, outcomes


def test_byte_digests_give_the_answers_of_tuple_digests():
    rng = random.Random(2024)
    pool = _digest_pool(rng)
    local = HostId(b"\x09" * 16)
    seen = {"equal": 0, "older": 0, "newer": 0, "ours only": 0, "theirs only": 0,
            "news": 0, "no news": 0, "matched then replaced": 0, "tombstones": 0}
    for _ in range(2500):
        ours, theirs = ServiceTable(local), ServiceTable(HostId(b"\x0a" * 16))
        for record_id, versions in pool.items():
            mine, peer = rng.choice(versions), rng.choice(versions)
            case = rng.choice(["equal", "ours only", "theirs only", "two", "neither"])
            if case in ("equal", "ours only", "two"):
                ours.merge_record(mine, 0)
            if case == "equal":
                theirs.merge_record(mine, 0)
            elif case in ("theirs only", "two"):
                theirs.merge_record(peer, 0)
            if case == "two":
                seen["equal" if mine.version == peer.version else
                     "older" if mine.version < peer.version else "newer"] += 1
            elif case != "neither":
                seen[case] += 1
        seen["tombstones"] += any(r.state is EntryState.TOMBSTONE for r in ours.records())
        pairs = _tuple_digest(theirs)
        # The narrow digest names exactly the buckets whose items differ, and
        # lists the peer's field-by-field items there.
        digest = _narrow(theirs, ours)
        assert digest.buckets == _item_buckets(ours, theirs)
        named = set(digest.buckets)
        listed = {record_id: version for record_id, version in pairs if bucket_of(record_id) in named}
        assert digest.versions == listed
        matched = {
            record_id for record_id in listed
            if record_id in ours._records
            and ours._records[record_id].digest_item == theirs._records[record_id].digest_item
        }
        # Outside the named buckets the tables agree, so before anything else
        # merges, the answers are those of the whole-table tuple digest.
        assert ours.records_newer_than(digest) == _tuple_records_newer_than(ours, pairs)
        assert ours.digest_has_news(digest) == _tuple_digest_has_news(ours, pairs)
        # Deltas of the same envelope merge after the digest was read; some
        # replace a record whose item had matched. Within the named buckets,
        # the answers are still those of the tuple digest.
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            record = rng.choice(rng.choice(list(pool.values())))
            if ours.merge_record(record, 1) is MergeOutcome.APPLIED:
                seen["matched then replaced"] += record.record_id in matched
        assert ours.records_newer_than(digest) == [
            r for r in _tuple_records_newer_than(ours, pairs) if bucket_of(r.record_id) in named
        ]
        news = ours.digest_has_news(digest)
        assert news == _tuple_digest_has_news(ours, listed.items())
        seen["news" if news else "no news"] += 1
    assert min(seen.values()) >= 50, seen


# --- three replicas, any delivery order ---

_REPLICA_HOSTS = [HostId(bytes([0x10 + i]) * 16) for i in range(3)]


class _Replicas(RuleBasedStateMachine):
    """Three tables that write entries and bindings, and suspect, declare
    dead and refute each other's members, while any record any of them ever
    held is delivered to any of them, in any order and any number of times,
    each at its own clock. Tombstones are never collected here."""

    def __init__(self) -> None:
        super().__init__()
        self.tables = [ServiceTable(host) for host in _REPLICA_HOSTS]
        self.clocks = [0, 0, 0]
        self.wire: list = []  # every record a replica stored, in order
        self.held: list[dict] = [{}, {}, {}]  # the highest version each has held, by id
        for table in self.tables:
            table.on_local_update = self.wire.append
            table.write_local(
                Member(table.local_host, RealEndpoint(IPv4Address("10.0.0.1"), 7946),
                       EntryState.ALIVE, 0), 0)

    def _held_by(self, r: int) -> dict:
        return {rec.record_id: rec.version for rec in self.tables[r].records()}

    @rule(r=st.integers(0, 2), ticks=st.integers(1, 40))
    def advance(self, r, ticks):
        self.clocks[r] += ticks

    @rule(r=st.integers(0, 2), app=st.integers(0, 2), port=st.integers(0, 1))
    def insert(self, r, app, port):
        fresh = entry(host=_REPLICA_HOSTS[r], app_id=f"a{app}", port=80 + port,
                      real_port=40000 + app)
        try:
            self.tables[r].insert_local(fresh, self.clocks[r])
        except DuplicateAppBinding:
            pass

    @rule(r=st.integers(0, 2), gateway=st.integers(0, 2), port=st.integers(0, 1),
          group=st.integers(0, 2))
    def expose(self, r, gateway, port, group):
        self.tables[r].write_local(replace(
            _binding(gateway=_REPLICA_HOSTS[gateway], admit=[f"grp={group}"]),
            external_port=30080 + port,
        ), self.clocks[r])

    @rule(r=st.integers(0, 2), pick=st.integers(0, 50))
    def retire(self, r, pick):
        live = [rec for rec in self.tables[r].records()
                if rec.state is EntryState.ALIVE and not isinstance(rec, Member)]
        if live:
            self.tables[r].retire(live[pick % len(live)].record_id, self.clocks[r])

    @rule(r=st.integers(0, 2), other=st.integers(1, 2), dead=st.booleans())
    def doubt(self, r, other, dead):
        """Suspect another host that replica r holds alive, or declare dead
        one it holds suspect, with the death's retirements."""
        table = self.tables[r]
        host = _REPLICA_HOSTS[(r + other) % 3]
        held = table.member(host)
        if held is None:
            return
        if dead and held.state is EntryState.SUSPECT:
            table.mark_member(host, EntryState.DEAD, self.clocks[r])
            table.tombstone_host(host, self.clocks[r])
        elif not dead and held.state is EntryState.ALIVE:
            table.mark_member(host, EntryState.SUSPECT, self.clocks[r])

    @rule(r=st.integers(0, 2), pick=st.integers(0, 10**6))
    def deliver(self, r, pick):
        if self.wire:
            self.tables[r].merge_record(self.wire[pick % len(self.wire)], self.clocks[r])

    @invariant()
    def no_replica_goes_back(self):
        for r in range(3):
            now = self._held_by(r)
            for record_id, version in self.held[r].items():
                assert now[record_id] >= version
            self.held[r] = now

    @invariant()
    def only_the_owner_bumps_a_member(self):
        for table in self.tables:
            for m in table.members():
                owner = self.tables[_REPLICA_HOSTS.index(m.host)]
                assert m.incarnation <= owner.member(m.host).incarnation

    def teardown(self):
        # A full exchange: every replica hands every record it holds to every
        # other, until nothing changes. A refutation is a new write, so it
        # takes more than one round.
        for _ in range(10):
            before = [self._held_by(r) for r in range(3)]
            for src in range(3):
                for dst in range(3):
                    for record in self.tables[src].records():
                        self.tables[dst].merge_record(record, self.clocks[dst])
            self.no_replica_goes_back()
            if [self._held_by(r) for r in range(3)] == before:
                break
        views = [self._held_by(r) for r in range(3)]
        assert views[0] == views[1] == views[2]
        for table in self.tables:
            # Every host refuted every doubt about itself.
            assert {m.state for m in table.members()} == {EntryState.ALIVE}
            _assert_indexes_hold_exactly_the_current_records(table)


_Replicas.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_replicas_converge_after_a_full_exchange = _Replicas.TestCase
