import struct
from dataclasses import replace
from ipaddress import IPv4Address

import pytest

from appnet import names
from appnet import node as node_module
from appnet.errors import (
    AddrInUse,
    AmbiguousName,
    AttachFailed,
    Unidentified,
    UnknownApp,
    WouldBlock,
)
from appnet.gossip import (
    ANTI_ENTROPY_PERIOD,
    ENVELOPE_VERSION,
    MAX_ENVELOPE,
    EnvelopeKind,
    GossipEnvelope,
    MemberRecord,
    MemberStatus,
    _encode_member,
    encode_envelope,
    section,
)
from appnet.model import (
    AUTO_POOL,
    LINK_LOCAL_POOL,
    HostId,
    RealEndpoint,
    ServiceKey,
    TagSet,
    parse_app_spec,
)
from appnet.service_table import (
    BUCKETS,
    EntryState,
    GatewayBinding,
    ServiceEntry,
    bucket_of,
    record_id_of,
)
from appnet.simharness import ScriptEvent, SimCluster
from appnet.trap import HandleKind


def one_node_cluster(seed=100):
    cluster = SimCluster(seed=seed)
    cluster.run_until(0, [ScriptEvent(0, "start", ["n0"])])
    return cluster, cluster.nodes["n0"].node


def test_user_vip_kept_as_effective():
    _, node = one_node_cluster()
    identity = node.add_app(parse_app_spec(["--name", "web", "--ip", "10.1.1.1"]))
    assert identity.effective_vip == IPv4Address("10.1.1.1")


def test_named_app_gets_auto_pool_vip():
    _, node = one_node_cluster()
    identity = node.add_app(parse_app_spec(["--name", "web"]))
    assert identity.effective_vip in AUTO_POOL
    assert identity.effective_vip == names.allocate_internal_ip("web")


def test_anonymous_app_gets_link_local_vip():
    _, node = one_node_cluster()
    identity = node.add_app(parse_app_spec([]))
    assert identity.effective_vip in LINK_LOCAL_POOL
    assert not identity.is_identified


def test_same_name_same_vip_on_every_node():
    cluster = SimCluster(seed=5)
    cluster.run_until(0, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(0, "start", ["b", "join=a"]),
    ])
    ia = cluster.nodes["a"].node.add_app(parse_app_spec(["--name", "web"]), app_id="w1")
    ib = cluster.nodes["b"].node.add_app(parse_app_spec(["--name", "web"]), app_id="w2")
    assert ia.effective_vip == ib.effective_vip


def test_conflicting_alias_raises_ambiguous_name():
    cluster = SimCluster(seed=6)
    cluster.run_until(3, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w1", "--name", "web", "--ip", "10.1.1.1"]),
        ScriptEvent(2, "serve", ["w1", "80"]),
    ])
    node = cluster.nodes["a"].node
    with pytest.raises(AmbiguousName):
        node.add_app(parse_app_spec(["--name", "web", "--ip", "10.2.2.2"]))
    # The same alias with the same vip is a distributed app, not a conflict.
    node.add_app(parse_app_spec(["--name", "web", "--ip", "10.1.1.1"]))


def test_an_app_id_is_registered_once_per_node():
    _, node = one_node_cluster()
    node.add_app(parse_app_spec([]), app_id="a1")
    with pytest.raises(AttachFailed):
        node.add_app(parse_app_spec([]), app_id="a1")
    assert node.app_ids() == ["a1"]


def test_anonymous_bind_is_rejected():
    cluster, _node = one_node_cluster()
    shim = cluster.add_app("n0", "anon", []).shim
    handle = shim.socket(HandleKind.STREAM)
    with pytest.raises(Unidentified):
        shim.bind(handle, (IPv4Address("0.0.0.0"), 80))


def test_rebind_same_port_by_same_app_rejected():
    cluster = SimCluster(seed=8)
    cluster.run_until(3, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w", "--ip", "10.1.1.1"]),
        ScriptEvent(2, "serve", ["w", "80"]),
    ])
    app = cluster.apps["w"]
    handle = app.shim.socket(HandleKind.STREAM)
    with pytest.raises(AddrInUse):
        app.shim.bind(handle, (IPv4Address("0.0.0.0"), 80))


def test_bind_port_zero_allocates_service_port():
    cluster = SimCluster(seed=9)
    cluster.run_until(2, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w", "--ip", "10.1.1.1"]),
    ])
    app = cluster.apps["w"]
    handle = app.shim.socket(HandleKind.STREAM)
    vip, port = app.shim.bind(handle, (IPv4Address("0.0.0.0"), 0))
    assert vip == IPv4Address("10.1.1.1")
    assert 49152 <= port <= 65535
    assert cluster.nodes["a"].node.table.lookup(ServiceKey(vip, port))


def test_remove_app_tombstones_and_detaches():
    cluster = SimCluster(seed=10)
    cluster.run_until(3, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w", "--ip", "10.1.1.1"]),
        ScriptEvent(2, "serve", ["w", "80"]),
    ])
    node = cluster.nodes["a"].node
    assert node.remove_app("w") == 1
    assert node.table.lookup(ServiceKey(IPv4Address("10.1.1.1"), 80)) == []
    with pytest.raises(UnknownApp):
        node.remove_app("w")


def test_close_of_listening_handle_withdraws_service():
    cluster = SimCluster(seed=11)
    cluster.run_until(3, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w", "--ip", "10.1.1.1"]),
        ScriptEvent(2, "serve", ["w", "80"]),
    ])
    app = cluster.apps["w"]
    node = cluster.nodes["a"].node
    key = ServiceKey(IPv4Address("10.1.1.1"), 80)
    assert node.table.lookup(key)
    app.shim.close(app.serving[0])
    assert node.table.lookup(key) == []


@pytest.mark.parametrize("how", ["close", "remove_app"])
def test_closing_a_listener_resets_the_connections_it_never_accepted(how):
    cluster = SimCluster(seed=12)
    cluster.run_until(1, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(0, "start", ["b", "join=a"]),
        ScriptEvent(1, "add", ["a", "srv", "--ip", "10.1.1.1"]),
        ScriptEvent(1, "add", ["a", "near", "--ip", "10.1.1.2"]),
        ScriptEvent(1, "add", ["b", "far", "--ip", "10.1.1.3"]),
    ])
    # Bound outside the harness's serve, so nothing ever accepts on it.
    server = cluster.apps["srv"].shim
    handle = server.socket(HandleKind.STREAM)
    server.bind(handle, (IPv4Address("0.0.0.0"), 80))
    server.listen(handle)
    key = ServiceKey(IPv4Address("10.1.1.1"), 80)
    cluster.run_until(10)
    assert cluster.nodes["b"].node.table.lookup(key)
    clients = []
    for label, channel in (("near", "local"), ("far", "remote")):
        assert cluster.connect(label, (key.vip, key.port))["channel"] == channel
        clients.append(cluster.apps[label].last_transport)
    node = cluster.nodes["a"].node
    assert node.switch.pending_accepts("srv", handle) == 2
    assert not any(client.peer_closed for client in clients)
    if how == "close":
        server.close(handle)
    else:
        node.remove_app("srv")
    for client in clients:
        assert client.peer_closed
        with pytest.raises(BrokenPipeError):
            client.write(b"hello")


def _final_entry_state(cluster, label):
    node = cluster.nodes[label].node
    return {
        (str(e.key), e.app_id): e.state.name for e in node.table.snapshot()
    }


def test_crash_equivalence_with_graceful_removal():
    # Killing a node and waiting out suspicion must leave the same live and
    # tombstoned key set as removing each of its apps, incarnations aside.
    def build():
        cluster = SimCluster(seed=55)
        cluster.run_until(8, [
            ScriptEvent(0, "start", ["a"]),
            ScriptEvent(0, "start", ["b", "join=a"]),
            ScriptEvent(1, "add", ["b", "x", "--ip", "10.4.0.1"]),
            ScriptEvent(1, "add", ["b", "y", "--ip", "10.4.0.2"]),
            ScriptEvent(2, "serve", ["x", "80"]),
            ScriptEvent(2, "serve", ["y", "81"]),
        ])
        return cluster

    crashed = build()
    crashed.crash("b")
    crashed.run_until(crashed.clock + 12)

    graceful = build()
    graceful.remove_app("x")
    graceful.remove_app("y")
    graceful.run_until(graceful.clock + 12)

    assert _final_entry_state(crashed, "a") == _final_entry_state(graceful, "a")


def test_fresh_node_converges_via_single_join_sync():
    cluster = SimCluster(seed=60)
    cluster.run_until(4, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(1, "add", ["a", "w", "--ip", "10.1.1.1"]),
        ScriptEvent(2, "serve", ["w", "80"]),
    ])
    cluster.run_until(5, [ScriptEvent(5, "start", ["late", "join=a"])])
    # One anti-entropy exchange happens during the join tick itself.
    cluster.run_until(7)
    late = cluster.nodes["late"].node
    assert late.table.lookup(ServiceKey(IPv4Address("10.1.1.1"), 80))


def test_joiner_syncs_a_table_past_the_old_digest_ceiling():
    """A whole-table digest of 1 200 records no longer fit one envelope; the
    bucket hashes do at any size, and narrow SYNCs split by bucket."""
    cluster = SimCluster(seed=61)
    cluster.run_until(0, [ScriptEvent(0, "start", ["a"])])
    a = cluster.nodes["a"].node
    for i in range(2000):
        a.table.insert_local(ServiceEntry(
            key=ServiceKey(IPv4Address(f"10.9.{i // 256}.{i % 256}"), 80),
            real=RealEndpoint(IPv4Address("10.0.0.1"), 40000 + i),
            host=a.host, app_id=f"app{i:05d}", tags=TagSet(), name=None,
            incarnation=0, state=EntryState.ALIVE,
        ), 0)
    cluster.run_until(1, [ScriptEvent(1, "start", ["b", "join=a"])])
    # The join sync, on the joiner's first tick.
    cluster.run_until(2)
    b = cluster.nodes["b"].node
    assert b.dump() == a.dump() and len(b.table.records()) == 2000
    # Two anti-entropy periods later the tables are still equal, and between
    # equal tables each SYNC is answered by one empty SYNC_REPLY.
    cluster.run_until(2 * ANTI_ENTROPY_PERIOD)
    assert b.dump() == a.dump()
    envelopes = cluster.trace.of_type("envelope")
    assert max(e["size"] for e in envelopes) <= MAX_ENVELOPE
    last = [e for e in envelopes if e["tick"] == 2 * ANTI_ENTROPY_PERIOD
            and e["kind"] in ("sync", "sync_reply")]
    assert sorted(e["kind"] for e in last) == ["sync", "sync", "sync_reply", "sync_reply"]
    assert all(e["size"] < 2 * 256 * 8 for e in last)


PEER = HostId(b"\x02" * 16)
PEER_ADDR = RealEndpoint(IPv4Address("10.0.0.2"), 7946)
PEER_ENTRY = ServiceEntry(
    key=ServiceKey(IPv4Address("10.1.1.1"), 80),
    real=RealEndpoint(IPv4Address("10.0.0.2"), 41001),
    host=PEER,
    app_id="a1",
    tags=TagSet.from_pairs(["grp=1"]),
    name="web",
    incarnation=1,
    state=EntryState.ALIVE,
)
PEER_BINDING = GatewayBinding(
    key=ServiceKey(IPv4Address("10.1.1.1"), 80),
    gateway=PEER,
    external_port=30000,
    state=EntryState.ALIVE,
    incarnation=1,
    admit=TagSet.from_pairs(["grp=1"]),
)


def _with_state(record, offset):
    encoded = bytearray(record.encoded)
    encoded[offset] = 7
    return bytes(encoded)


@pytest.mark.parametrize(
    "record, corrupt",
    [
        # Kind byte, then the key, real endpoint, host and lp16 app id.
        (PEER_ENTRY, lambda r: _with_state(r, 1 + 28 + 2 + len(r.app_id))),
        (PEER_ENTRY, lambda r: r.encoded.replace(b"\x00\x02a1", b"\x00\x02\xff\xfe")),
        (PEER_ENTRY, lambda r: r.encoded.replace(b"grp=1", b"grp:1")),
        # Kind byte, then the key, gateway and external port.
        (PEER_BINDING, lambda r: _with_state(r, 1 + 24)),
        (PEER_BINDING, lambda r: r.encoded.replace(b"grp=1", b"grp=\xff")),
        (PEER_BINDING, lambda r: r.encoded.replace(b"grp=1", b"grp:1")),
    ],
    ids=["entry-state-7", "entry-app-id-not-utf8", "entry-tag-without-eq",
         "binding-state-7", "binding-tag-not-utf8", "binding-tag-without-eq"],
)
def test_malformed_table_record_is_counted_and_survived(record, corrupt):
    cluster, node = one_node_cluster()
    good = encode_envelope(
        GossipEnvelope(kind=EnvelopeKind.PING, sender=PEER, table_deltas=[record])
    )
    bad_record = corrupt(record)
    assert len(bad_record) == len(record.encoded) and bad_record != record.encoded
    bad = good.replace(record.encoded, bad_record)
    assert node.on_envelope(bad, PEER_ADDR, 1) == []
    assert node.counters["envelope_decode_errors"] == 1
    # The node goes on: a good copy is merged and answered, and it ticks.
    (reply,) = node.on_envelope(good, PEER_ADDR, 1)
    assert reply[1].kind is EnvelopeKind.ACK
    assert record.record_id in {r.record_id for r in node.table.records()}
    cluster.run_until(3)
    assert node.counters["envelope_decode_errors"] == 1


@pytest.mark.parametrize(
    "record, corrupt",
    [
        (PEER_ENTRY, lambda r: _with_state(r, 1 + 28 + 2 + len(r.app_id))),
        (PEER_ENTRY, lambda r: r.encoded.replace(b"grp=1", b"grp:1")),
        (PEER_ENTRY, lambda r: r.encoded.replace(b"web", b"w\xffb")),
        (PEER_BINDING, lambda r: _with_state(r, 1 + 24)),
        (PEER_BINDING, lambda r: r.encoded.replace(b"grp=1", b"grp=\xff")),
    ],
    ids=["entry-state-7", "entry-tag-without-eq", "entry-name-not-utf8",
         "binding-state-7", "binding-tag-not-utf8"],
)
def test_bad_copy_of_a_held_record_is_counted_and_nothing_merges(record, corrupt):
    cluster, node = one_node_cluster()
    node.on_envelope(
        encode_envelope(GossipEnvelope(kind=EnvelopeKind.PING, sender=PEER, table_deltas=[record])),
        PEER_ADDR,
        1,
    )
    held = node.table.dump()
    members = dict(node.gossip.members)
    bad_record = corrupt(record)
    # Same id as the held record, other bytes: it must be decoded, and fail.
    assert record_id_of(bad_record) == record.record_id and bad_record != record.encoded
    fresh = replace(PEER_ENTRY, app_id="a2")
    stranger = MemberRecord(
        host=HostId(b"\x03" * 16),
        addr=RealEndpoint(IPv4Address("10.0.0.3"), 7946),
        status=MemberStatus.ALIVE,
        incarnation=1,
    )
    good = encode_envelope(GossipEnvelope(
        kind=EnvelopeKind.PING,
        sender=PEER,
        membership_rumors=[stranger],
        table_deltas=[fresh, record],
    ))
    bad = good.replace(record.encoded, bad_record)
    assert bad != good
    assert node.on_envelope(bad, PEER_ADDR, 2) == []
    assert node.counters["envelope_decode_errors"] == 1
    # Nothing of the envelope merged: not the fresh delta, not the rumor.
    assert node.table.dump() == held
    assert node.gossip.members == members
    (reply,) = node.on_envelope(good, PEER_ADDR, 2)
    assert reply[1].kind is EnvelopeKind.ACK
    assert fresh.record_id in {r.record_id for r in node.table.records()}
    assert stranger.host in node.gossip.members


_STRANGER = MemberRecord(
    host=HostId(b"\x03" * 16),
    addr=RealEndpoint(IPv4Address("10.0.0.3"), 7946),
    status=MemberStatus.ALIVE,
    incarnation=1,
)


def _with_status(rumor: bytes, status: int) -> bytes:
    # Host id, gossip address and port, then the status byte.
    return rumor[:22] + bytes([status]) + rumor[23:]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda held, stranger: _with_status(held, 0x07),
        lambda held, stranger: _with_status(held, 0x83),
        lambda held, stranger: _with_status(stranger, 0x03),
        lambda held, stranger: stranger[:-1],
        lambda held, stranger: stranger + b"\x00",
    ],
    ids=["held-member-status-7", "held-member-gateway-status-3", "unheld-member-status-3",
         "short-rumor", "long-rumor"],
)
def test_bad_member_rumor_is_counted_and_nothing_merges(corrupt):
    cluster, node = one_node_cluster()
    node.on_envelope(
        encode_envelope(GossipEnvelope(kind=EnvelopeKind.PING, sender=PEER, table_deltas=[PEER_ENTRY])),
        PEER_ADDR,
        1,
    )
    held = node.table.dump()
    members = dict(node.gossip.members)
    fresh = replace(PEER_ENTRY, app_id="a2")
    # The peer's record as this node holds it, which resolves unparsed, and
    # a stranger's.
    rumors = [_encode_member(node.gossip.members[PEER]), _encode_member(_STRANGER)]

    def ping(items):
        header = struct.pack(">BB16s", ENVELOPE_VERSION, EnvelopeKind.PING.value, PEER)
        return header + section(items) + section([fresh.encoded]) + section([])

    assert node.on_envelope(ping([*rumors, corrupt(*rumors)]), PEER_ADDR, 2) == []
    assert node.counters["envelope_decode_errors"] == 1
    # Nothing of the envelope merged: not the fresh delta, not the rumors.
    assert node.table.dump() == held
    assert node.gossip.members == members
    stale = node.gossip.counters["stale_rumors"]
    (reply,) = node.on_envelope(ping(rumors), PEER_ADDR, 2)
    assert reply[1].kind is EnvelopeKind.ACK
    assert fresh.record_id in {r.record_id for r in node.table.records()}
    assert _STRANGER.host in node.gossip.members
    assert node.gossip.counters["stale_rumors"] == stale + 1
    assert node.counters["envelope_decode_errors"] == 1


def _item(record_id: bytes, version: tuple[int, int, int], id_length=None) -> bytes:
    """A sync digest item: an lp16 record id, then incarnation, state, crc32."""
    length = len(record_id) if id_length is None else id_length
    incarnation, state, crc = version
    return (
        length.to_bytes(2, "big") + record_id + incarnation.to_bytes(8, "big")
        + bytes([state]) + crc.to_bytes(4, "big")
    )


_UNHELD_ID = replace(PEER_ENTRY, app_id="a9").record_id


@pytest.mark.parametrize(
    "bad_items",
    [
        [_item(_UNHELD_ID, (1, 0, 5), id_length=len(_UNHELD_ID) + 1)],
        [_item(_UNHELD_ID, (1, 0, 5), id_length=len(_UNHELD_ID) - 1)],
        [_item(_UNHELD_ID, (1, 0, 5))[:-5]],
        [b"\x00"],
        # A held record's id again, at another version than the held item.
        [_item(PEER_ENTRY.record_id, (2, 0, 5))],
        # An id not held, twice, at two versions.
        [_item(_UNHELD_ID, (1, 0, 5)), _item(_UNHELD_ID, (2, 0, 5))],
        # One item twice.
        [_item(_UNHELD_ID, (1, 0, 5))] * 2,
        [PEER_ENTRY.digest_item],
    ],
    ids=["id-length-over", "id-length-under", "short-version", "one-byte",
         "held-id-twice", "unheld-id-twice", "same-item-twice", "held-item-twice"],
)
def test_bad_digest_item_is_counted_and_nothing_merges(bad_items):
    # A narrow digest naming the buckets of both ids; the held item matches,
    # unparsed, and the bad ones do not.
    named = _bitmap(PEER_ENTRY.record_id, _UNHELD_ID)
    _assert_bad_sync_is_counted_and_nothing_merges(
        [named, PEER_ENTRY.digest_item, *bad_items], [named, PEER_ENTRY.digest_item],
        EnvelopeKind.SYNC_REPLY,
    )


def _bitmap(*record_ids: bytes) -> bytes:
    """A narrow digest's bitmap, naming the bucket of each record id."""
    bits = sum({1 << (BUCKETS - 1 - bucket_of(record_id)) for record_id in record_ids})
    return bits.to_bytes(BUCKETS // 8, "big")


_OTHER_BUCKET_ID = next(
    record_id
    for record_id in (replace(PEER_ENTRY, app_id=f"b{i}").record_id for i in range(1000))
    if bucket_of(record_id) not in (bucket_of(PEER_ENTRY.record_id), bucket_of(_UNHELD_ID))
)


@pytest.mark.parametrize(
    "bad_digest",
    [
        [],
        [bytes(BUCKETS * 8 - 1)],
        [bytes(BUCKETS * 8 + 1)],
        [bytes(BUCKETS * 8), bytes(BUCKETS * 8)],
        [bytes(BUCKETS * 8), PEER_ENTRY.digest_item],
        [bytes(BUCKETS // 8 - 1), PEER_ENTRY.digest_item],
        [bytes(BUCKETS // 8 + 1), PEER_ENTRY.digest_item],
        [PEER_ENTRY.digest_item],
        # An item in a bucket the bitmap does not name.
        [_bitmap(PEER_ENTRY.record_id), PEER_ENTRY.digest_item, _item(_OTHER_BUCKET_ID, (1, 0, 5))],
    ],
    ids=["empty", "short-hashes", "long-hashes", "hashes-twice", "hashes-then-item",
         "short-bitmap", "long-bitmap", "no-bitmap", "item-outside-named-buckets"],
)
def test_bad_digest_form_is_counted_and_nothing_merges(bad_digest):
    # The node holds records, so its hashes differ from all-zero ones, and it
    # answers with its items in the buckets that differ.
    _assert_bad_sync_is_counted_and_nothing_merges(
        bad_digest, [bytes(BUCKETS * 8)], EnvelopeKind.SYNC
    )


def _assert_bad_sync_is_counted_and_nothing_merges(bad_digest, good_digest, answer):
    cluster, node = one_node_cluster()
    node.on_envelope(
        encode_envelope(GossipEnvelope(kind=EnvelopeKind.PING, sender=PEER, table_deltas=[PEER_ENTRY])),
        PEER_ADDR,
        1,
    )
    held = node.table.dump()
    members = dict(node.gossip.members)
    errors = node.counters["envelope_decode_errors"]
    fresh = replace(PEER_ENTRY, app_id="a2")
    stranger = MemberRecord(
        host=HostId(b"\x03" * 16),
        addr=RealEndpoint(IPv4Address("10.0.0.3"), 7946),
        status=MemberStatus.ALIVE,
        incarnation=1,
    )

    def sync(digest):
        return encode_envelope(GossipEnvelope(
            kind=EnvelopeKind.SYNC,
            sender=PEER,
            membership_rumors=[stranger],
            table_deltas=[fresh],
            sync_digest=digest,
        ))

    assert node.on_envelope(sync(bad_digest), PEER_ADDR, 2) == []
    assert node.counters["envelope_decode_errors"] == errors + 1
    # Nothing of the envelope merged: not the fresh delta, not the rumor.
    assert node.table.dump() == held
    assert node.gossip.members == members
    replies = node.on_envelope(sync(good_digest), PEER_ADDR, 2)
    assert answer in [env.kind for _, env in replies]
    assert fresh.record_id in {r.record_id for r in node.table.records()}
    assert stranger.host in node.gossip.members
    assert node.counters["envelope_decode_errors"] == errors + 1


def test_deltas_flow_through_a_one_argument_decode_envelope_wrapper(monkeypatch):
    # Tracers replace appnet.node.decode_envelope with `lambda data: ...`.
    decode = node_module.decode_envelope
    seen = []
    monkeypatch.setattr(
        node_module, "decode_envelope", lambda data: seen.append(len(data)) or decode(data)
    )
    cluster = SimCluster(seed=21)
    cluster.run_until(8, [
        ScriptEvent(0, "start", ["a"]),
        ScriptEvent(0, "start", ["b", "join=a"]),
        ScriptEvent(0, "start", ["c", "join=a"]),
        ScriptEvent(1, "add", ["a", "w", "--name", "web"]),
        ScriptEvent(2, "serve", ["w", "80"]),
    ])
    cluster.run_until(30)
    assert len(seen) > 50
    nodes = [rt.node for rt in cluster.nodes.values()]
    assert all(n.counters["envelope_decode_errors"] == 0 for n in nodes)
    assert len({n.dump() for n in nodes}) == 1
    assert all(n.table.lookup_name("web") is not None for n in nodes)
