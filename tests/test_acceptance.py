"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the verdict lines.
"""

import random
import socket
import threading
import time
from contextlib import contextmanager
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from appnet import names
from appnet.model import HostId, RealEndpoint, ServiceKey, TagSet
from appnet.service_table import EntryState, MergeOutcome, ServiceEntry, ServiceTable
from appnet.simharness import (
    ScriptEvent,
    SimCluster,
    parse_script,
    real_endpoint_leaks,
    run_script,
    run_script_with_cluster,
)
from appnet.simnet import NetProfile
from appnet.trap import HandleKind

SCENARIOS = Path(__file__).parent / "scenarios"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} FAIL  {title}")
        raise
    print(f"[acceptance] {number:02d} PASS  {title}")


def test_criterion_1_segmentation_and_identity():
    with criterion(1, "three-tier segmentation: allow/allow/deny plus unmanaged deny"):
        started = time.monotonic()
        trace, cluster = run_script_with_cluster(
            parse_script((SCENARIOS / "three_tier.script").read_text())
        )
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"scenario took {elapsed:.1f}s"
        connects = {
            (e["client"], e["dest"]): e["status"] for e in trace.of_type("connect")
        }
        # web reached app over loopback: inside a distributed app that means
        # its own vip, and the segmentation tags allow it.
        assert connects[("web1", "127.0.0.1:8080")] == "ok"
        assert connects[("app2", "10.20.0.5:5432")] == "ok"
        assert connects[("web1", "10.20.0.5:5432")] == "denied"
        raw = trace.of_type("rawconnect")
        assert raw and all(e["status"] == "refused" for e in raw)
        key = ServiceKey(IPv4Address("10.20.0.5"), 8080)
        for rt in cluster.nodes.values():
            assert len(rt.node.table.lookup(key)) == 2


def _lb_cluster(strategy_mode):
    cluster = SimCluster(seed=2024)
    events = [
        ScriptEvent(0, "start", ["h1", f"strategy={strategy_mode}"]),
        ScriptEvent(0, "start", ["h2", "join=h1"]),
        ScriptEvent(0, "start", ["h3", "join=h1"]),
        ScriptEvent(1, "add", ["h2", "s1", "--ip", "10.6.0.1"]),
        ScriptEvent(1, "add", ["h3", "s2", "--ip", "10.6.0.1"]),
        ScriptEvent(2, "serve", ["s1", "7000"]),
        ScriptEvent(2, "serve", ["s2", "7000"]),
    ]
    cluster.run_until(8, events)
    return cluster


def _accept_counts(cluster):
    return {
        label: len(cluster.apps[label].accepted) for label in ("s1", "s2")
    }


def test_criterion_2_load_balancing():
    with criterion(2, "rendezvous spread >=30% each and round-robin exact alternation"):
        # Rendezvous: 1000 distinct client identities, one connect each. The
        # chosen instance is whichever server's accept queue just grew.
        def pending(cluster, label):
            app = cluster.apps[label]
            node = app.node_rt.node
            return node.switch.pending_accepts(label, app.serving[0])

        def rendezvous_run():
            cluster = _lb_cluster("rendezvous")
            chosen = []
            seen = {"s1": 0, "s2": 0}
            for i in range(1000):
                label = f"c{i:04d}"
                cluster.add_app("h1", label, ["--tag", "grp=lb"])
                result = cluster.connect(label, (IPv4Address("10.6.0.1"), 7000))
                assert result["status"] == "ok"
                now = {s: pending(cluster, s) for s in ("s1", "s2")}
                grew = [s for s in now if now[s] > seen[s]]
                assert len(grew) == 1
                chosen.append(grew[0])
                seen = now
            return chosen

        first_sequence = rendezvous_run()
        counts = {s: first_sequence.count(s) for s in ("s1", "s2")}
        assert sum(counts.values()) == 1000
        for label, n in counts.items():
            assert n >= 300, f"{label} starved: {counts}"
        second_sequence = rendezvous_run()
        assert first_sequence == second_sequence

        # Round robin: one client, four connects, exact alternation.
        cluster = _lb_cluster("rr")
        cluster.add_app("h1", "lone", ["--tag", "grp=lb"])
        deltas = []
        previous = {"s1": 0, "s2": 0}
        for _ in range(4):
            assert cluster.connect("lone", (IPv4Address("10.6.0.1"), 7000))["status"] == "ok"
            cluster.run_until(cluster.clock + 1)
            now = _accept_counts(cluster)
            gained = [label for label in now if now[label] > previous[label]]
            deltas.append(gained[0])
            previous = now
        assert deltas in (["s1", "s2", "s1", "s2"], ["s2", "s1", "s2", "s1"]), deltas


def _converge_16(loss, extra_budget):
    cluster = SimCluster(seed=7, profile=NetProfile(loss=loss))
    events = [ScriptEvent(0, "start", ["n0"])]
    events += [ScriptEvent(0, "start", [f"n{i}", "join=n0"]) for i in range(1, 16)]
    cluster.run_until(20, events)
    assert all(len(rt.node.gossip.members) == 16 for rt in cluster.nodes.values())
    cluster.run_until(21, [ScriptEvent(21, "add", ["n0", "svc", "--ip", "10.7.0.1"])])
    cluster.run_until(22, [ScriptEvent(22, "serve", ["svc", "8080"])])
    key = ServiceKey(IPv4Address("10.7.0.1"), 8080)
    deadline_tick = 22 + 10 + extra_budget
    cluster.run_until(deadline_tick)
    missing = [
        rt.label for rt in cluster.nodes.values() if not rt.node.table.lookup(key)
    ]
    assert not missing, f"missing on {missing} at tick {deadline_tick}"


def test_criterion_3_gossip_convergence():
    with criterion(3, "16 nodes: entry everywhere by +10 ticks (lossless), +10+AE (10% loss)"):
        _converge_16(loss=0.0, extra_budget=0)
        _converge_16(loss=0.10, extra_budget=10)


def test_criterion_4_failure_handling():
    with criterion(4, "crash failover: survivor serves 100% within T_suspect+2; tombstones spread"):
        cluster = SimCluster(seed=7)
        cluster.run_until(8, [
            ScriptEvent(0, "start", ["h1"]),
            ScriptEvent(0, "start", ["h2", "join=h1"]),
            ScriptEvent(0, "start", ["h3", "join=h1"]),
            ScriptEvent(1, "add", ["h1", "s1", "--ip", "10.5.0.1"]),
            ScriptEvent(1, "add", ["h2", "s2", "--ip", "10.5.0.1"]),
            ScriptEvent(2, "serve", ["s1", "9000"]),
            ScriptEvent(2, "serve", ["s2", "9000"]),
            ScriptEvent(3, "add", ["h3", "c1"]),
        ])
        crash_tick = cluster.clock
        cluster.crash("h2")
        survivor_host = cluster.nodes["h1"].node.host
        dead_host = cluster.nodes["h2"].node.host
        # Every new connect within T_suspect + 2 periods lands on the survivor.
        for t in range(crash_tick + 1, crash_tick + 7):
            cluster.run_until(t)
            result = cluster.connect("c1", (IPv4Address("10.5.0.1"), 9000))
            assert result["status"] == "ok", f"tick {t}: {result}"
        # Probe window (3) + T_suspect (4): the dead node's entries are
        # tombstoned on every survivor.
        cluster.run_until(crash_tick + 7)
        for label in ("h1", "h3"):
            table = cluster.nodes[label].node.table
            live = [e for e in table.alive_entries() if e.host == dead_host]
            assert not live, f"{label} still trusts the dead node"
            stones = [
                e
                for e in table.snapshot()
                if e.host == dead_host and e.state is EntryState.TOMBSTONE
            ]
            assert stones, f"{label} has no tombstones for the dead node"


def test_criterion_5_identity_opacity():
    with criterion(5, "no trap reply in any scenario carries a real endpoint"):
        scanned = 0
        for script_file in sorted(SCENARIOS.glob("*.script")):
            trace, cluster = run_script_with_cluster(
                parse_script(script_file.read_text())
            )
            leaks = real_endpoint_leaks(trace, cluster.host_ips)
            assert leaks == [], f"{script_file.name}: {leaks[:3]}"
            scanned += len(trace.of_type("trap"))
        assert scanned > 100, "scan saw suspiciously few trap replies"


def test_criterion_6_dns():
    with criterion(6, "registered name resolves with TTL 1 and the vip connects; NXDOMAIN else"):
        trace, cluster = run_script_with_cluster(
            parse_script((SCENARIOS / "dns.script").read_text())
        )
        resolves = {e["name"]: e for e in trace.of_type("resolve")}
        assert resolves["web"]["status"] == "ok"
        assert resolves["web"]["ttl"] == 1
        assert resolves["web"]["vip"] == str(names.allocate_internal_ip("web"))
        assert resolves["nosuch"]["status"] == "nxdomain"
        connects = trace.of_type("connect")
        assert connects and connects[-1]["status"] == "ok"
        transfers = trace.of_type("transfer")
        assert transfers and transfers[-1]["echoed"] == transfers[-1]["sent"]


def _transfer_run(total_bytes: int):
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
    _, cluster = run_script_with_cluster(script)
    cluster.run_until(9)
    assert cluster.transfer("c1", total_bytes) == total_bytes
    messages = cluster.apps["c1"].shim.channel.messages
    # The two apps hold the two ends of one fabric stream: nothing relays.
    direct = cluster.apps["c1"].last_transport.peer is cluster.apps["srv"].accepted[-1]
    return messages, direct


def test_criterion_7_control_data_separation():
    with criterion(7, "trap count identical for 1MB vs 100MB; handler moved zero stream bytes"):
        small_msgs, small_direct = _transfer_run(1 << 20)
        large_msgs, large_direct = _transfer_run(100 << 20)
        assert small_msgs == large_msgs, (small_msgs, large_msgs)
        assert small_direct and large_direct


def _listening(runtime, port) -> bool:
    """True once the gateway listens for its binding of external `port`: its
    listeners are keyed by the binding's record id."""
    node = runtime.node
    return runtime.in_loop(lambda: any(
        b.record_id in node._external_listeners
        for b in node.table.active_bindings()
        if b.gateway == node.host and b.external_port == port
    ))


def test_criterion_8_gateway_byte_conservation(tmp_path):
    with criterion(8, "external TCP client echoes 1 MiB through a gateway, byte-conserving"):
        from appnet.node import NodeConfig
        from appnet.realnet import RealNodeRuntime, connect_shim, free_port

        port_a, port_b = free_port(), free_port()
        gateway = RealNodeRuntime(
            NodeConfig(
                bind=RealEndpoint(IPv4Address("127.0.0.1"), port_a),
                gateway=True,
            ),
            str(tmp_path / "gw"),
            period_ms=40,
        ).start()
        inner = RealNodeRuntime(
            NodeConfig(
                bind=RealEndpoint(IPv4Address("127.0.0.1"), port_b),
                join=RealEndpoint(IPv4Address("127.0.0.1"), port_a),
            ),
            str(tmp_path / "in"),
            period_ms=40,
        ).start()
        shims = []
        try:
            info = inner.add_app(
                ["--ip", "10.70.0.1", "--name", "pub", "--expose", "31500"]
            )
            shim = connect_shim(info["trap"])
            shims.append(shim)
            listener = shim.socket(HandleKind.STREAM)
            shim.bind(listener, (IPv4Address("0.0.0.0"), 8080))
            shim.listen(listener)

            def echo():
                _, _, transport = shim.accept(listener)
                with transport:
                    while True:
                        chunk = transport.recv(1 << 16)
                        if not chunk:
                            break
                        transport.sendall(chunk)

            threading.Thread(target=echo, daemon=True).start()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if _listening(gateway, 31500):
                    break
                time.sleep(0.05)

            payload = b"\xd7" * (1 << 20)
            external = socket.create_connection(("127.0.0.1", 31500), timeout=10)
            received = bytearray()
            done = threading.Event()

            def drain():
                while len(received) < len(payload):
                    chunk = external.recv(1 << 16)
                    if not chunk:
                        break
                    received.extend(chunk)
                done.set()

            threading.Thread(target=drain, daemon=True).start()
            external.sendall(payload)
            assert done.wait(timeout=60)
            assert bytes(received) == payload
            external.close()
            session = gateway.node.gateway_sessions[0]
            # A pump counts a chunk after sending it on, so the client can
            # hold the last byte first. Once both pumps have ended, which
            # closing the client brings about, their counts are final.
            deadline = time.monotonic() + 10
            while not session.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session.closed
            assert session.ext_to_int == len(payload)
            assert session.int_to_ext == len(payload)
        finally:
            for shim in shims:
                shim.channel.close()
            inner.stop()
            gateway.stop()


def test_criterion_9_same_host_fast_path():
    with criterion(9, "bench at 64 KiB: fast path >= loopback hairpin (ratio reported)"):
        from appnet.bench import run_bench

        result = run_bench(size=65536, seconds=0.4)
        print(f"[acceptance] 09 info  bench row: {result.csv_row()}")
        assert result.local_bps >= result.hairpin_bps, result.csv_row()


# --- criterion 10: randomized merge properties against the oracle ---

H_LOCAL = HostId(b"\x7f" * 16)
_HOSTS = [HostId(bytes([i]) * 16) for i in range(1, 5)]


def _random_entry(rng) -> ServiceEntry:
    # State is a function of the incarnation: an owner alternates alive and
    # tombstone as it bumps the counter, and no two distinct states can share
    # one incarnation for one identity.
    incarnation = rng.randrange(1, 9)
    return ServiceEntry(
        key=ServiceKey(IPv4Address(f"10.30.0.{rng.randrange(1, 4)}"), rng.choice([80, 81])),
        real=RealEndpoint(IPv4Address("10.0.0.9"), 40000 + rng.randrange(100)),
        host=rng.choice(_HOSTS),
        app_id=f"a{rng.randrange(3)}",
        tags=TagSet(),
        name=None,
        incarnation=incarnation,
        state=EntryState.ALIVE if incarnation % 2 else EntryState.TOMBSTONE,
    )


def _oracle(events):
    best = {}
    for e in events:
        key = e.record_id
        if key not in best or (e.incarnation, e.host) > (best[key].incarnation, best[key].host):
            best[key] = e
    return {k: (v.incarnation, v.state) for k, v in best.items()}


def _view(table):
    return {e.record_id: (e.incarnation, e.state) for e in table.snapshot()}


def test_criterion_10_merge_property_suite():
    with criterion(10, "10,000-case merge suite: commutative, batch-order-free, idempotent"):
        rng = random.Random(0xA11CE)
        cases = 10_000
        for case in range(cases):
            events = [_random_entry(rng) for _ in range(rng.randrange(1, 8))]
            expected = _oracle(events)

            shuffled = events[:]
            rng.shuffle(shuffled)
            a = ServiceTable(H_LOCAL)
            for e in shuffled:
                a.merge_record(e, 0)
            assert _view(a) == expected, f"case {case}: order sensitivity"

            # Batching must not matter: apply in random contiguous groups.
            b = ServiceTable(H_LOCAL)
            remaining = events[:]
            rng.shuffle(remaining)
            while remaining:
                take = rng.randrange(1, len(remaining) + 1)
                batch, remaining = remaining[:take], remaining[take:]
                for e in batch:
                    b.merge_record(e, 0)
            assert _view(b) == expected, f"case {case}: batch sensitivity"

            # Replaying everything is a no-op.
            replay_outcomes = {a.merge_record(e, 1) for e in events}
            assert replay_outcomes <= {MergeOutcome.STALE}, f"case {case}: not idempotent"
            assert _view(a) == expected
        print(f"[acceptance] 10 info  {cases} randomized cases checked")
