import hashlib
import json
import os
import random
import subprocess
import sys
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from appnet import gossip, service_table
from appnet.errors import AssertionFailed, ScriptError, WouldBlock
from appnet.model import ServiceKey
from appnet.service_table import MergeOutcome, ServiceTable
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
from appnet.simnet import NetProfile, SimFabric
from appnet.switch import MAX_CONNECT_ATTEMPTS, selection_order
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


# sha256 prefixes of each scenario's Trace JSONL. Any change to envelope
# bytes, gossip choices or trap replies moves them; a change that does so on
# purpose updates the hash here and says why.
TRACE_SHA256 = {
    "dns.script": "f82cd522e545852f",
    "failover.script": "e0922ea6fc002ed4",
    "gateway.script": "06435ff18e5c5403",
    "local.script": "15feae531df18e3c",
    "partition.script": "0d0e6271bec6a925",
    "three_tier.script": "9954e1676e097ac6",
}


def test_every_scenario_has_a_pinned_trace_hash():
    assert sorted(TRACE_SHA256) == all_scenarios()


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_scenario_trace_matches_pinned_hash(name):
    jsonl = run_script(load(name)).jsonl()
    assert hashlib.sha256(jsonl.encode()).hexdigest()[:16] == TRACE_SHA256[name]


# Prints each scenario's Trace hash prefix as JSON, for one interpreter run.
_TRACE_HASHES = """
import hashlib, json, sys
from pathlib import Path
from appnet.simharness import parse_script, run_script
print(json.dumps({
    path.name: hashlib.sha256(
        run_script(parse_script(path.read_text())).jsonl().encode()
    ).hexdigest()[:16]
    for path in sorted(Path(sys.argv[1]).glob("*.script"))
}))
"""


def test_scenario_traces_do_not_depend_on_the_hash_seed():
    """Host ids and app ids hash as bytes and strings, which Python salts per
    process: a set of them whose iteration order reached a Trace would move
    its hash under another PYTHONHASHSEED."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", _TRACE_HASHES, str(SCENARIOS)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == TRACE_SHA256, f"PYTHONHASHSEED={hash_seed}"


@pytest.mark.parametrize("name", all_scenarios())
def test_no_real_endpoints_in_trap_replies(name):
    trace, cluster = run_script_with_cluster(load(name))
    assert real_endpoint_leaks(trace, cluster.host_ips) == []


def test_ghosts_of_collected_entries_do_not_sync_forever():
    """Each side of a partition removes its apps, and after the heal each
    peer holds a ghost of an entry the other side's owner has removed. A
    digest item for an entry its owner no longer holds is not news to that
    owner, which rejects it, so the SYNCs that follow end; counting it as
    news made two such peers answer SYNC with SYNC until the pump gave up."""
    lines = ["seed 1", "tick 0 start n0"]
    lines += [f"tick 0 start n{i} join=n0" for i in range(1, 4)]
    lines += [f"tick 2 add n{i} a{i} --name s{i}" for i in range(4)]
    lines += [f"tick 3 serve a{i} 80" for i in range(4)]
    lines += ["tick 10 partition n0,n1|n2,n3"]
    lines += [f"tick 11 remove a{i}" for i in range(4)]
    lines += ["tick 14 heal"]
    script = parse_script("\n".join(lines))
    cluster = SimCluster(seed=script.seed, profile=script.profile)
    cluster.run_until(150, script.events)
    dumps = {rt.node.table.dump() for rt in cluster.nodes.values()}
    assert len(dumps) == 1


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


def _churn_events(seed: int) -> list[ScriptEvent]:
    """Seeded registrations and removals over nodes n0-n7, and a partition
    healed 15 ticks later. Removals start at tick 15 and the run ends at tick
    45, before any tombstone is collected: past TOMBSTONE_TTL, nodes keep
    ghosts of tombstones their owners have collected, an open defect this
    test is not about."""
    rng = random.Random(seed)
    events, live = [], []
    for tick in range(1, 44):
        if rng.random() < 0.5:
            app = f"s{tick}"
            events.append(ScriptEvent(tick, "add", [f"n{rng.randrange(8)}", app, "--name", app]))
            events.append(ScriptEvent(tick + 1, "serve", [app, "80"]))
            live.append(app)
        elif tick >= 15 and live and rng.random() < 0.5:
            events.append(ScriptEvent(tick, "remove", [live.pop(rng.randrange(len(live)))]))
    events.append(ScriptEvent(20, "partition", ["n0,n1,n2,n3|n4,n5,n6,n7"]))
    events.append(ScriptEvent(35, "heal", []))
    return sorted(events, key=lambda e: e.tick)


def _run_recording_merges(seed: int) -> tuple[list, list[str], str]:
    outcomes = []
    merge = ServiceTable.merge_record

    def recording(table, record, now):
        outcome = merge(table, record, now)
        outcomes.append((table.local_host, record.encoded, now, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServiceTable, "merge_record", recording)
        cluster = _start_cluster(8, seed=seed, loss=0.05)
        cluster.run_until(45, _churn_events(seed))
    dumps = [rt.node.dump() for rt in cluster.nodes.values()]
    return outcomes, dumps, cluster.trace.jsonl()


def test_resident_deltas_merge_as_decoded_ones(monkeypatch):
    fresh_decodes = []
    decode = service_table.decode_record
    monkeypatch.setattr(
        service_table, "decode_record", lambda data: fresh_decodes.append(data) or decode(data)
    )
    reused = _run_recording_merges(seed=13)
    decoded_by_reuse = len(fresh_decodes)
    monkeypatch.setattr(ServiceTable, "decode", lambda table, data: decode(data))
    plain = _run_recording_merges(seed=13)
    assert reused == plain
    outcomes = [outcome for *_, outcome in plain[0]]
    assert set(outcomes) == set(MergeOutcome)
    # Most deltas repeat what the receiver holds and were never decoded.
    assert decoded_by_reuse < len(outcomes) // 4


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


def test_a_connected_datagram_handle_names_both_its_ends():
    cluster, srv, hs, cli, hc = _dgram_pair()
    cli.shim.connect(hc, (IPv4Address("10.8.0.1"), 5353))
    assert cli.shim.getpeername(hc) == (IPv4Address("10.8.0.1"), 5353)
    assert cli.shim.getsockname(hc) == (IPv4Address("10.8.0.2"), 5354)
    # The name it reports is the source its peer sees.
    cli.shim.sendto(hc, (IPv4Address("10.8.0.1"), 5353), b"ping!")
    cluster.run_until(cluster.clock + 1)
    assert srv.shim.recvfrom(hs) == (cli.shim.getsockname(hc), b"ping!")


def test_a_malformed_dns_query_is_counted_as_such():
    cluster, _srv, _hs, cli, hc = _dgram_pair()
    counters = cluster.nodes["n1"].node.switch.counters
    before = dict(counters)
    cli.shim.sendto(hc, (IPv4Address("127.0.0.1"), 53), b"\x12\x34\x01\x00\x00")
    assert counters["dns_queries_dropped"] == before["dns_queries_dropped"] + 1
    assert counters["dgrams_dropped_unidentified"] == before["dgrams_dropped_unidentified"]
    with pytest.raises(WouldBlock):
        cli.shim.recvfrom(hc)


# --- connect failures ---

def test_a_connect_to_a_key_nothing_serves_finds_no_service():
    trace = run_script(parse_script(
        """
seed 5
tick 0 start h1
tick 1 add h1 c1
tick 2 connect h1:c1 10.9.9.9:80 expect=nosuchservice
"""
    ))
    assert [e["status"] for e in trace.of_type("connect")] == ["nosuchservice"]


def test_a_key_whose_instances_all_crashed_is_refused_after_the_attempt_limit(monkeypatch):
    # Four instances on four hosts that crash together; the client's node
    # has declared none of them dead when it connects.
    lines = ["seed 7", "tick 0 start h0"]
    lines += [f"tick 0 start h{i} join=h0" for i in range(1, 5)]
    lines += [f"tick 1 add h{i} s{i} --ip 10.5.0.9" for i in range(1, 5)]
    lines += [f"tick 2 serve s{i} 9000" for i in range(1, 5)]
    lines += [
        "tick 3 add h0 c1",
        "tick 10 assert table_count h0 10.5.0.9:9000 4",
    ]
    lines += [f"tick 11 crash h{i}" for i in range(1, 5)]
    lines += [
        "tick 11 connect h0:c1 10.5.0.9:9000 expect=connrefused",
        "tick 11 assert table_count h0 10.5.0.9:9000 4",
    ]
    script = parse_script("\n".join(lines))
    cluster = SimCluster(seed=script.seed, profile=script.profile)
    cluster.run_until(10, script.events)
    attempts = []
    connect_stream = SimFabric.connect_stream

    def counted(fabric, dest, preamble):
        attempts.append(dest)
        return connect_stream(fabric, dest, preamble)

    monkeypatch.setattr(SimFabric, "connect_stream", counted)
    cluster.run_until(11, script.events)
    assert cluster.last_connect["status"] == "connrefused"
    assert len(set(attempts)) == len(attempts) == MAX_CONNECT_ATTEMPTS


def test_a_local_instance_that_is_not_listening_is_passed_over_for_a_remote_one():
    script = parse_script(
        """
seed 0
tick 0 start h0
tick 0 start h1 join=h0
tick 1 add h0 idle --ip 10.5.0.7
tick 1 add h1 s1 --ip 10.5.0.7
tick 2 serve s1 9000
tick 3 add h0 c1
tick 10 assert table_count h0 10.5.0.7:9000 2
tick 11 connect h0:c1 10.5.0.7:9000 expect=ok channel=remote
tick 12 transfer c1 4096
"""
    )
    cluster = SimCluster(seed=script.seed, profile=script.profile)
    cluster.run_until(1, script.events)
    idle = cluster.apps["idle"]
    idle.shim.bind(idle.shim.socket(HandleKind.STREAM), (IPv4Address("0.0.0.0"), 9000))
    cluster.run_until(10, script.events)
    node = cluster.nodes["h0"].node
    key = ServiceKey(IPv4Address("10.5.0.7"), 9000)
    order = selection_order("c1", key, node.table.lookup(key), node.switch.strategy)
    assert order[0].host == node.host, "the local, bound-only instance must rank first"
    cluster.run_until(12, script.events)


# --- control plane vs data plane ---

def _transfer_scenario(total_bytes: int) -> tuple[int, bool]:
    """Returns (client trap messages, whether the client's stream and the
    server's accepted one are the two ends of one fabric stream)."""
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
    direct = cluster.apps["c1"].last_transport.peer is cluster.apps["srv"].accepted[-1]
    return channel.messages, direct


def test_trap_count_independent_of_bytes_moved():
    small_msgs, small_direct = _transfer_scenario(1 << 20)
    large_msgs, large_direct = _transfer_scenario(100 << 20)
    assert small_msgs == large_msgs
    assert small_direct and large_direct


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
