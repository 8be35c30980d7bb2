from ipaddress import IPv4Address

import pytest

from appnet.errors import NoGateway, NoSuchService, PortUnavailable
from appnet.gateway import choose_gateway, pick_external_port, synthetic_client_tags
from appnet.model import HostId, RealEndpoint, ServiceKey, TagSet
from appnet.service_table import EntryState, GatewayBinding, decode_record, encode_record
from appnet.simharness import ScriptEvent, SimCluster

HA = HostId(b"\x0a" * 16)
HB = HostId(b"\x0b" * 16)


def test_choose_gateway_picks_lowest_id():
    assert choose_gateway([HB, HA]) == HA
    with pytest.raises(NoGateway):
        choose_gateway([])


def test_pick_external_port():
    assert pick_external_port("auto", set()) == 30000
    assert pick_external_port("auto", {30000, 30001}) == 30002
    assert pick_external_port(30080, set()) == 30080
    with pytest.raises(PortUnavailable):
        pick_external_port(30080, {30080})


def test_binding_codec_round_trip():
    binding = GatewayBinding(
        key=ServiceKey(IPv4Address("10.9.0.1"), 7777),
        gateway=HA,
        external_port=30080,
        state=EntryState.ALIVE,
        incarnation=4,
        admit=TagSet.from_pairs(["grp=5"]),
    )
    assert decode_record(encode_record(binding)) == binding


def test_synthetic_client_always_carries_external_group():
    binding = GatewayBinding(
        key=ServiceKey(IPv4Address("10.9.0.1"), 7777),
        gateway=HA,
        external_port=30080,
        state=EntryState.ALIVE,
        incarnation=1,
        admit=TagSet.from_pairs(["grp=5"]),
    )
    tags = synthetic_client_tags(binding)
    assert tags.values("grp") == {"__external__", "5"}


def _cluster_with_service(gateway_labels=("g1",), seed=41):
    cluster = SimCluster(seed=seed)
    events = [ScriptEvent(0, "start", [gateway_labels[0], "gateway"])]
    for label in gateway_labels[1:]:
        events.append(ScriptEvent(0, "start", [label, f"join={gateway_labels[0]}", "gateway"]))
    events += [
        ScriptEvent(0, "start", ["h9", f"join={gateway_labels[0]}"]),
        ScriptEvent(1, "add", ["h9", "svc", "--ip", "10.9.0.1"]),
        ScriptEvent(2, "serve", ["svc", "7777"]),
    ]
    cluster.run_until(8, events)
    return cluster


def test_expose_requires_live_entries_and_gateway():
    cluster = _cluster_with_service()
    node = cluster.nodes["h9"].node
    with pytest.raises(NoSuchService):
        node.expose(ServiceKey(IPv4Address("10.9.9.9"), 1), "auto")
    binding = node.expose(ServiceKey(IPv4Address("10.9.0.1"), 7777), "auto")
    assert binding.external_port == 30000
    assert binding.gateway == cluster.nodes["g1"].node.host


def test_expose_deterministic_gateway_choice():
    cluster = _cluster_with_service(gateway_labels=("g1", "g2"))
    node = cluster.nodes["h9"].node
    binding = node.expose(ServiceKey(IPv4Address("10.9.0.1"), 7777), "auto")
    lowest = min(
        cluster.nodes["g1"].node.host, cluster.nodes["g2"].node.host
    )
    assert binding.gateway == lowest


def test_expose_same_port_twice_unavailable():
    cluster = _cluster_with_service()
    node = cluster.nodes["h9"].node
    key = ServiceKey(IPv4Address("10.9.0.1"), 7777)
    node.expose(key, 30080)
    with pytest.raises(PortUnavailable):
        node.expose(key, 30080)


def test_no_gateway_cluster_cannot_expose():
    cluster = SimCluster(seed=42)
    cluster.run_until(4, [
        ScriptEvent(0, "start", ["plain"]),
        ScriptEvent(1, "add", ["plain", "svc", "--ip", "10.9.0.1"]),
        ScriptEvent(2, "serve", ["svc", "7777"]),
    ])
    with pytest.raises(NoGateway):
        cluster.nodes["plain"].node.expose(
            ServiceKey(IPv4Address("10.9.0.1"), 7777), "auto"
        )


def test_exposure_moves_when_gateway_dies():
    cluster = SimCluster(seed=43)
    cluster.run_until(12, [
        ScriptEvent(0, "start", ["g1", "gateway"]),
        ScriptEvent(0, "start", ["g2", "join=g1", "gateway"]),
        ScriptEvent(0, "start", ["h9", "join=g1"]),
        ScriptEvent(1, "add", ["h9", "svc", "--ip", "10.9.0.1", "--expose", "30080"]),
        ScriptEvent(2, "serve", ["svc", "7777"]),
    ])
    key = ServiceKey(IPv4Address("10.9.0.1"), 7777)
    first = cluster.nodes["h9"].node.table.binding_for_key(key)
    assert first is not None
    first_label = cluster._labels_by_host[first.gateway]
    cluster.crash(first_label)
    cluster.run_until(cluster.clock + 12)
    second = cluster.nodes["h9"].node.table.binding_for_key(key)
    assert second is not None
    assert second.gateway != first.gateway
    surviving = {"g1", "g2"} - {first_label}
    assert cluster._labels_by_host[second.gateway] in surviving


def test_only_active_bindings_are_externally_reachable():
    # Scan the gateway's external range: exactly the exposed ports answer.
    cluster = SimCluster(seed=45)
    cluster.run_until(10, [
        ScriptEvent(0, "start", ["g1", "gateway"]),
        ScriptEvent(0, "start", ["h9", "join=g1"]),
        ScriptEvent(1, "add", ["h9", "pub", "--ip", "10.9.0.1", "--expose", "30005"]),
        ScriptEvent(1, "add", ["h9", "hidden", "--ip", "10.9.0.2"]),
        ScriptEvent(2, "serve", ["pub", "7777"]),
        ScriptEvent(2, "serve", ["hidden", "7778"]),
    ])
    reachable = {
        port
        for port in range(30000, 30011)
        if cluster.external_connect("g1", port)["status"] == "ok"
    }
    active = {
        b.external_port for b in cluster.nodes["g1"].node.table.active_bindings()
    }
    assert reachable == active == {30005}


def _exposed_echo(*gateway_args):
    """g1 proxies external port 30080 to h9's echo app, with one external
    connection open."""
    cluster = SimCluster(seed=44)
    cluster.run_until(10, [
        ScriptEvent(0, "start", ["g1", "gateway", *gateway_args]),
        ScriptEvent(0, "start", ["h9", "join=g1"]),
        ScriptEvent(1, "add", ["h9", "svc", "--ip", "10.9.0.1", "--expose", "30080"]),
        ScriptEvent(2, "serve", ["svc", "7777"]),
    ])
    assert cluster.external_connect("g1", 30080)["status"] == "ok"
    cluster.run_until(11)
    return cluster


def test_proxied_session_terminates_on_service_crash():
    cluster = _exposed_echo()
    assert cluster.external_transfer("g1", 4096)["status"] == "ok"
    cluster.crash("h9")
    assert cluster.external_transfer("g1", 4096)["status"] == "reset"
    cluster.run_until(cluster.clock + 12)
    assert cluster.external_connect("g1", 30080)["status"] == "refused"


def test_sim_relay_counts_each_direction_and_ends_with_the_exposure():
    cluster = _exposed_echo()
    assert cluster.external_transfer("g1", 4096)["status"] == "ok"
    [session] = cluster.nodes["g1"].node.gateway_sessions
    assert session.ext_to_int == session.int_to_ext == 4096
    external = cluster._ext_conns["g1"]
    cluster.remove_app("svc")
    cluster.run_until(cluster.clock + 10)
    assert session.closed
    assert external.peer_closed


def test_withdrawing_one_exposure_ends_only_its_own_sessions():
    cluster = SimCluster(seed=45)
    cluster.run_until(10, [
        ScriptEvent(0, "start", ["g1", "gateway"]),
        ScriptEvent(0, "start", ["h9", "join=g1"]),
        ScriptEvent(1, "add", ["h9", "kept", "--ip", "10.9.0.1", "--expose", "30080"]),
        ScriptEvent(1, "add", ["h9", "gone", "--ip", "10.9.0.2", "--expose", "30081"]),
        ScriptEvent(2, "serve", ["kept", "7777"]),
        ScriptEvent(2, "serve", ["gone", "7777"]),
    ])
    gateway_ip = cluster.nodes["g1"].host_ip
    kept, gone = (
        cluster.network.external_connect(RealEndpoint(gateway_ip, port))
        for port in (30080, 30081)
    )
    cluster.run_until(11)  # each app accepts its session
    [gone_app_end] = cluster.apps["gone"].accepted
    kept_session, gone_session = cluster.nodes["g1"].node.gateway_sessions
    cluster.remove_app("gone")
    cluster.run_until(cluster.clock + 10)
    assert gone_session.closed
    assert gone.peer_closed and gone_app_end.peer_closed
    assert not kept_session.closed
    kept.write(b"still here")
    assert kept.read() == b"still here"


def test_an_exposure_without_a_gateway_counts_each_failure_until_it_binds():
    cluster = SimCluster(seed=47)
    cluster.run_until(10, [
        ScriptEvent(0, "start", ["h9"]),
        ScriptEvent(1, "add", ["h9", "svc", "--ip", "10.9.0.1", "--expose", "30080"]),
        ScriptEvent(4, "serve", ["svc", "7777"]),
    ])
    inner = cluster.nodes["h9"].node
    # Once at the bind, after tick 4's node ticks, then on each of ticks 5-10.
    assert inner.counters["expose_errors"] == 7
    key = ServiceKey(IPv4Address("10.9.0.1"), 7777)
    cluster.run_until(30, [ScriptEvent(11, "start", ["g1", "gateway", "join=h9"])])
    assert inner.table.binding_for_key(key) is not None
    failed = inner.counters["expose_errors"]
    cluster.run_until(50)
    assert inner.counters["expose_errors"] == failed


def test_a_closed_gateway_listener_drops_its_round_robin_counters():
    cluster = _exposed_echo("strategy=rr")
    gateway = cluster.nodes["g1"].node
    assert [app for app in gateway.switch._rr_counters if app.startswith("gw.")]
    cluster.remove_app("svc")
    cluster.run_until(cluster.clock + 10)
    assert not gateway._external_listeners
    assert not [app for app in gateway.switch._rr_counters if app.startswith("gw.")]


@pytest.mark.parametrize("seed", range(5))
def test_concurrent_exposures_to_one_gateway_converge(seed):
    # Two nodes auto-expose different services to g1 in the same tick, so
    # both first write binding (g1, 30000) at incarnation 1; one must lose
    # everywhere and move to another port.
    cluster = SimCluster(seed=seed)
    cluster.run_until(40, [
        ScriptEvent(0, "start", ["g1", "gateway"]),
        ScriptEvent(0, "start", ["h1", "join=g1"]),
        ScriptEvent(0, "start", ["h2", "join=g1"]),
        ScriptEvent(1, "add", ["h1", "a", "--ip", "10.9.0.1", "--expose"]),
        ScriptEvent(1, "add", ["h2", "b", "--ip", "10.9.0.2", "--expose"]),
        ScriptEvent(2, "serve", ["a", "7777"]),
        ScriptEvent(2, "serve", ["b", "7777"]),
    ])
    views = {
        label: cluster.nodes[label].node.table.active_bindings()
        for label in ("g1", "h1", "h2")
    }
    assert views["g1"] == views["h1"] == views["h2"]
    ports = {b.external_port for b in views["g1"]}
    assert len(ports) == 2
    gateway = cluster.nodes["g1"].node
    for binding in views["g1"]:
        assert cluster.external_connect("g1", binding.external_port)["status"] == "ok"
        # The port's sessions reach the binding that won it, not the one the
        # gateway happened to open its listener for.
        assert gateway.gateway_sessions[-1].binding.key == binding.key


def test_an_exposed_bind_is_listened_for_by_the_next_tick():
    # No loss and no latency. The app binds after tick 5's node ticks. Its
    # node makes the binding then, the binding rides its tick-6 probe, and the
    # gateway listens as the probe arrives, before tick 6 ends.
    cluster = SimCluster(seed=46)
    events = [
        ScriptEvent(0, "start", ["g1", "gateway"]),
        ScriptEvent(0, "start", ["h9", "join=g1"]),
        ScriptEvent(1, "add", ["h9", "svc", "--ip", "10.9.0.1", "--expose", "30080"]),
        ScriptEvent(5, "serve", ["svc", "7777"]),
    ]
    cluster.run_until(5, events)
    assert cluster.external_connect("g1", 30080)["status"] == "refused"
    cluster.run_until(6)
    assert cluster.external_connect("g1", 30080)["status"] == "ok"
