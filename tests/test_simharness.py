from ipaddress import IPv4Address
from pathlib import Path

import pytest

from appnet import gossip
from appnet.errors import AssertionFailed, ScriptError, WouldBlock
from appnet.model import ServiceKey
from appnet.simharness import (
    ClusterScript,
    ScriptEvent,
    SimCluster,
    parse_script,
    real_endpoint_leaks,
    render_script,
    run_script,
    run_script_with_cluster,
)
from appnet.simnet import NetProfile
from appnet.trap import STATUS_OK, HandleKind, status_for_error

SCENARIOS = Path(__file__).parent / "scenarios"


def load(name: str) -> ClusterScript:
    return parse_script((SCENARIOS / name).read_text())


def all_scenarios():
    return sorted(p.name for p in SCENARIOS.glob("*.script"))


# --- script format ---

def test_parse_and_render_round_trip():
    script = load("three_tier.script")
    assert script.seed == 1001
    assert script.events[0].action == "start"
    again = parse_script(render_script(script))
    assert again == script


def test_parser_rejects_bad_lines():
    with pytest.raises(ScriptError):
        parse_script("tick x start n1")
    with pytest.raises(ScriptError):
        parse_script("tick 2 start n1\ntick 1 start n2")
    with pytest.raises(ScriptError):
        parse_script("bogus 1 2 3")


def test_profile_line_parses():
    script = parse_script("profile loss=0.25 latency=1,3\ntick 0 start n1")
    assert script.profile.loss == 0.25
    assert script.profile.latency == (1, 3)


# --- scenario corpus ---

@pytest.mark.parametrize("name", all_scenarios())
def test_scenario_passes(name):
    run_script(load(name))


@pytest.mark.parametrize("name", all_scenarios())
def test_replay_determinism(name):
    first = run_script(load(name)).jsonl()
    second = run_script(load(name)).jsonl()
    assert first == second


@pytest.mark.parametrize("name", all_scenarios())
def test_no_real_endpoints_in_trap_replies(name):
    trace, cluster = run_script_with_cluster(load(name))
    assert real_endpoint_leaks(trace, cluster.host_ips) == []


def test_failed_assertion_reports_tick_and_diff():
    script = parse_script(
        "seed 3\ntick 0 start n1\ntick 1 add n1 a --ip 10.0.5.5\n"
        "tick 2 assert table_count n1 10.0.5.5:1 1"
    )
    with pytest.raises(AssertionFailed) as info:
        run_script(script)
    assert info.value.tick == 2
    assert info.value.expected == 1
    assert info.value.observed == 0


def test_failed_convergence_names_first_differing_line():
    script = parse_script(
        "seed 3\ntick 0 start n1\ntick 0 start n2\n"
        "tick 1 add n1 a --ip 10.0.5.5\ntick 2 serve a 80\ntick 4 assert converged"
    )
    with pytest.raises(AssertionFailed) as info:
        run_script(script)
    lines = info.value.observed.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n1 line 1: 10.0.5.5:80\t")
    assert lines[1] == "n2 line 1: <end>"


# --- convergence against the flood oracle ---

def _start_cluster(n, seed, loss=0.0):
    cluster = SimCluster(seed=seed, profile=NetProfile(loss=loss))
    events = [ScriptEvent(0, "start", ["n0"])]
    events += [ScriptEvent(0, "start", [f"n{i}", "join=n0"]) for i in range(1, n)]
    cluster.run_until(0, events)
    return cluster


def _flood_oracle_rounds(n_nodes: int) -> int:
    """Upper-bound spreader: every node forwards everything to everyone each
    round, so one round after the insert every reachable node has it."""
    peers = {i: set(range(n_nodes)) - {i} for i in range(n_nodes)}
    have = {0}
    rounds = 0
    while len(have) < n_nodes:
        have |= {p for i in have for p in peers[i]}
        rounds += 1
    return rounds


def test_sixteen_node_convergence_within_ten_ticks(monkeypatch):
    cluster = _start_cluster(16, seed=2)
    monkeypatch.setattr(gossip, "PIGGYBACK_LIMIT", 3)  # tighter fanout still converges
    cluster.run_until(20)
    assert all(len(rt.node.gossip.members) == 16 for rt in cluster.nodes.values())
    cluster.run_until(21, [ScriptEvent(21, "add", ["n0", "svc", "--ip", "10.7.0.1"])])
    cluster.run_until(22, [ScriptEvent(22, "serve", ["svc", "8080"])])
    key = ServiceKey(IPv4Address("10.7.0.1"), 8080)

    first_full = None
    for tick in range(23, 33):
        cluster.run_until(tick)
        if all(rt.node.table.lookup(key) for rt in cluster.nodes.values()):
            first_full = tick
            break
    assert first_full is not None, "not converged by insert + 10 ticks"
    assert first_full - 22 >= _flood_oracle_rounds(16)


def test_sixteen_node_convergence_with_loss():
    cluster = _start_cluster(16, seed=5, loss=0.10)
    cluster.run_until(20)
    cluster.run_until(21, [ScriptEvent(21, "add", ["n0", "svc", "--ip", "10.7.0.2"])])
    cluster.run_until(22, [ScriptEvent(22, "serve", ["svc", "8080"])])
    key = ServiceKey(IPv4Address("10.7.0.2"), 8080)
    # Bound: 10 piggyback ticks plus one anti-entropy period.
    cluster.run_until(22 + 10 + 10)
    assert all(rt.node.table.lookup(key) for rt in cluster.nodes.values())


# --- datagram flows ---

def _dgram_pair():
    cluster = _start_cluster(2, seed=77)
    cluster.run_until(3, [
        ScriptEvent(1, "add", ["n0", "srv", "--ip", "10.8.0.1", "--tag", "grp=1"]),
        ScriptEvent(2, "add", ["n1", "cli", "--ip", "10.8.0.2", "--tag", "grp=1"]),
    ])
    cluster.run_until(8)
    srv, cli = cluster.apps["srv"], cluster.apps["cli"]
    hs = srv.shim.socket(HandleKind.DATAGRAM)
    srv.shim.bind(hs, (IPv4Address("0.0.0.0"), 5353))
    hc = cli.shim.socket(HandleKind.DATAGRAM)
    cli.shim.bind(hc, (IPv4Address("0.0.0.0"), 5354))
    cluster.run_until(12)
    return cluster, srv, hs, cli, hc


def test_dgram_round_trip_reports_virtual_sources():
    cluster, srv, hs, cli, hc = _dgram_pair()
    cli.shim.sendto(hc, (IPv4Address("10.8.0.1"), 5353), b"ping!")
    cluster.run_until(cluster.clock + 1)
    source, payload = srv.shim.recvfrom(hs)
    assert payload == b"ping!"
    assert source == (IPv4Address("10.8.0.2"), 5354)
    srv.shim.sendto(hs, source, b"pong!")
    cluster.run_until(cluster.clock + 1)
    back_source, back = cli.shim.recvfrom(hc)
    assert back == b"pong!"
    assert back_source == (IPv4Address("10.8.0.1"), 5353)


def test_dgram_from_unmanaged_endpoint_dropped():
    cluster, srv, hs, cli, hc = _dgram_pair()
    server_node = cluster.nodes["n0"].node
    entry = server_node.table.lookup(ServiceKey(IPv4Address("10.8.0.1"), 5353))[0]
    before = server_node.switch.counters["dgrams_dropped_unidentified"]
    # Straight onto the wire with no identity header.
    cluster.network.send_dgram(
        cluster.nodes["n1"].gossip_addr, entry.real, b"\x00raw noise", cluster.clock
    )
    cluster.run_until(cluster.clock + 1)
    assert server_node.switch.counters["dgrams_dropped_unidentified"] == before + 1
    with pytest.raises(WouldBlock):
        srv.shim.recvfrom(hs)


def test_dgram_pinning_sticks_to_first_selection():
    cluster = _start_cluster(3, seed=78)
    cluster.run_until(3, [
        ScriptEvent(1, "add", ["n0", "s1", "--ip", "10.8.1.1"]),
        ScriptEvent(2, "add", ["n1", "s2", "--ip", "10.8.1.1"]),
    ])
    for label in ("s1", "s2"):
        app = cluster.apps[label]
        h = app.shim.socket(HandleKind.DATAGRAM)
        app.shim.bind(h, (IPv4Address("0.0.0.0"), 7000))
        app._dgram_srv = h
    cluster.run_until(10, [ScriptEvent(9, "add", ["n2", "cli", "--ip", "10.8.1.9"])])
    cli = cluster.apps["cli"]
    hc = cli.shim.socket(HandleKind.DATAGRAM)
    cli.shim.bind(hc, (IPv4Address("0.0.0.0"), 7001))
    cluster.run_until(14)
    for _ in range(5):
        cli.shim.sendto(hc, (IPv4Address("10.8.1.1"), 7000), b"x")
    cluster.run_until(cluster.clock + 1)
    counts = {}
    for label in ("s1", "s2"):
        app = cluster.apps[label]
        got = 0
        while True:
            try:
                app.shim.recvfrom(app._dgram_srv)
                got += 1
            except WouldBlock:
                break
        counts[label] = got
    assert sorted(counts.values()) == [0, 5], f"pinning broken: {counts}"


# --- control plane vs data plane ---

def _transfer_scenario(total_bytes: int) -> tuple[int, int]:
    """Returns (client trap messages, switch data-path bytes)."""
    script = parse_script(
        """
seed 91
tick 0 start h1
tick 0 start h2 join=h1
tick 1 add h1 srv --name echo --tag grp=1
tick 2 serve srv 9999
tick 3 add h2 c1 --tag grp=1
tick 8 connect h2:c1 name:echo:9999 expect=ok
"""
    )
    trace, cluster = run_script_with_cluster(script)
    cluster.run_until(9)
    assert cluster.transfer("c1", total_bytes) == total_bytes
    channel = cluster.nodes["h2"].node._apps["c1"].channel
    switch_bytes = sum(
        rt.node.switch.data_path_bytes for rt in cluster.nodes.values()
    )
    return channel.messages, switch_bytes


def test_trap_count_independent_of_bytes_moved():
    small_msgs, small_bytes = _transfer_scenario(1 << 20)
    large_msgs, large_bytes = _transfer_scenario(100 << 20)
    assert small_msgs == large_msgs
    assert small_bytes == 0
    assert large_bytes == 0


def test_name_answers_stop_after_service_removal():
    # TTL is 1 and answers come from the gossip-fresh local table: once the
    # service tombstones everywhere, resolution turns negative within a
    # convergence interval.
    cluster = _start_cluster(2, seed=15)
    cluster.run_until(8, [
        ScriptEvent(1, "add", ["n0", "svc", "--name", "ephemeral"]),
        ScriptEvent(2, "serve", ["svc", "8080"]),
        ScriptEvent(3, "add", ["n1", "cli"]),
    ])
    status, vip, ttl = cluster.resolve("cli", "ephemeral")
    assert status == "ok" and ttl == 1
    cluster.remove_app("svc")
    cluster.run_until(cluster.clock + 4)
    status, vip, _ = cluster.resolve("cli", "ephemeral")
    assert status == "nxdomain"


def test_eager_writer_bytes_survive_accept_handoff():
    # Bytes written before the peer finishes accepting must not be lost.
    cluster = _start_cluster(1, seed=13)
    cluster.run_until(4, [
        ScriptEvent(1, "add", ["n0", "srv", "--name", "e"]),
        ScriptEvent(2, "serve", ["srv", "4242"]),
        ScriptEvent(3, "add", ["n0", "cli"]),
    ])
    result = cluster.connect("cli", (cluster.nodes["n0"].node.table.lookup_name("e"), 4242))
    assert result["status"] == "ok"
    transport = cluster.apps["cli"].last_transport
    transport.write(b"early bird " * 1000)   # before the server accepts
    cluster.run_until(cluster.clock + 1)      # server accepts, sink flushes
    echoed = transport.read()
    assert echoed == b"early bird " * 1000


# --- waiting for connections ---

def _accept_events(cluster, app_label):
    return [
        e for e in cluster.trace.of_type("trap")
        if e["app"] == app_label and e["op"] == "accept"
    ]


def test_idle_serving_handle_makes_no_accept_calls():
    cluster = _start_cluster(1, seed=23)
    cluster.run_until(3, [
        ScriptEvent(1, "add", ["n0", "srv", "--name", "idle"]),
        ScriptEvent(1, "add", ["n0", "cli"]),
        ScriptEvent(2, "serve", ["srv", "4300"]),
    ])
    # The first step after serving finds nothing and waits on the handle.
    first = cluster.clock
    assert [e["tick"] for e in _accept_events(cluster, "srv")] == [first]
    cluster.run_until(first + 20)
    assert [e["tick"] for e in _accept_events(cluster, "srv")] == [first]

    vip = cluster.nodes["n0"].node.table.lookup_name("idle")
    assert cluster.connect("cli", (vip, 4300))["status"] == "ok"
    cluster.run_until(cluster.clock + 1)
    # One accept succeeds; the drain's next accept would block and waits again.
    stepped = [e for e in _accept_events(cluster, "srv") if e["tick"] == cluster.clock]
    assert [e["status"] for e in stepped] == [STATUS_OK, status_for_error(WouldBlock(""))]
    assert len(cluster.apps["srv"].accepted) == 1


def test_waits_do_not_outlive_their_handles():
    cluster = _start_cluster(1, seed=24)
    cluster.run_until(3, [
        ScriptEvent(1, "add", ["n0", "srv", "--name", "restarted"]),
        ScriptEvent(1, "add", ["n0", "gone", "--name", "removed"]),
        ScriptEvent(2, "serve", ["srv", "4400"]),
        ScriptEvent(2, "serve", ["gone", "4401"]),
    ])
    switch = cluster.nodes["n0"].node.switch
    app = cluster.apps["srv"]
    for _ in range(100):
        # A service restart as cluster_churn does it: close, re-bind, serve.
        old = app.serving[0]
        app.serving.remove(old)
        app.shim.close(old)
        handle = app.shim.socket(HandleKind.STREAM)
        app.shim.bind(handle, (IPv4Address("0.0.0.0"), 4400))
        app.shim.listen(handle)
        app.serving.append(handle)
        cluster.run_until(cluster.clock + 1)
    assert ("gone", cluster.apps["gone"].serving[0]) in switch._waits
    cluster.remove_app("gone")
    cluster.run_until(cluster.clock + 1)
    live = {(label, h) for label, a in cluster.apps.items() for h in a.serving}
    assert set(switch._waits) <= live
    assert ("srv", app.serving[0]) in switch._waits
