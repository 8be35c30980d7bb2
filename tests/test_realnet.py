import socket
import struct
import threading
import time
from ipaddress import IPv4Address

import pytest

from appnet import gossip
from appnet.errors import AppNetError, BadHandle, Unidentified
from appnet.model import RealEndpoint, ServiceKey
from appnet.node import NodeConfig
from appnet.realnet import ControlClient, RealNodeRuntime, connect_shim, free_port
from appnet.switch import ChannelKind
from appnet.trap import HandleKind


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _listening(runtime, port) -> bool:
    """True once the gateway listens for its binding of external `port`: its
    listeners are keyed by the binding's record id."""
    node = runtime.node
    return runtime.in_loop(lambda: any(
        b.record_id in node._external_listeners
        for b in node.table.active_bindings()
        if b.gateway == node.host and b.external_port == port
    ))


@pytest.fixture
def cluster(tmp_path):
    """Two real daemons on loopback; the second joins the first."""
    runtimes = []
    port_a, port_b = free_port(), free_port()
    a = RealNodeRuntime(
        NodeConfig(
            bind=RealEndpoint(IPv4Address("127.0.0.1"), port_a),
            gateway=True,
            run_dir=str(tmp_path / "a"),
        ),
        period_ms=40,
    ).start()
    runtimes.append(a)
    try:
        b = RealNodeRuntime(
            NodeConfig(
                bind=RealEndpoint(IPv4Address("127.0.0.1"), port_b),
                join=RealEndpoint(IPv4Address("127.0.0.1"), port_a),
                run_dir=str(tmp_path / "b"),
            ),
            period_ms=40,
        ).start()
        runtimes.append(b)
        assert _wait_for(
            lambda: len(a.node.gossip.alive_members()) == 2
            and len(b.node.gossip.alive_members()) == 2
        ), "nodes never met"
        yield a, b
    finally:
        for runtime in runtimes:
            runtime.stop()


def _serve_echo(shim, port):
    """Accept one connection and echo it; thread.accept_ended says how the accept ended."""
    listener = shim.socket(HandleKind.STREAM)
    shim.bind(listener, (IPv4Address("0.0.0.0"), port))
    shim.listen(listener)
    ended = []  # "accepted", or the class of the error that answered the accept

    def accept_and_echo():
        try:
            conn_handle, _peer, transport = shim.accept(listener)
        except (AppNetError, ConnectionError, OSError) as exc:
            ended.append(type(exc))
            return  # the app was removed, or the daemon went away during teardown
        ended.append("accepted")
        with transport:
            while True:
                chunk = transport.recv(65536)
                if not chunk:
                    break
                transport.sendall(chunk)

    thread = threading.Thread(target=accept_and_echo, daemon=True)
    thread.accept_ended = ended
    thread.start()
    return listener, thread


def test_cross_node_connect_with_fd_passing(cluster):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.1", "--name", "srv", "--tag", "grp=t"])
    server = connect_shim(server_info["trap"])
    _listener, echo_thread = _serve_echo(server, 4000)

    client_info = b.add_app(["--tag", "grp=t"])
    client = connect_shim(client_info["trap"])
    key = ServiceKey(IPv4Address("10.50.0.1"), 4000)
    assert _wait_for(lambda: b.node.table.lookup(key)), "entry never reached b"

    handle = client.socket(HandleKind.STREAM)
    sock = client.connect(handle, (IPv4Address("10.50.0.1"), 4000))
    assert isinstance(sock, socket.socket)
    sock.sendall(b"ping over the wire")
    echoed = sock.recv(65536)
    assert echoed == b"ping over the wire"

    # Name queries return only virtual identities.
    assert client.getpeername(handle) == (IPv4Address("10.50.0.1"), 4000)
    local_vip, local_port = client.getsockname(handle)
    assert str(local_vip).startswith("169.254.")
    assert local_port == 0
    sock.close()
    echo_thread.join(timeout=5)
    meta = b.node.switch.conn_meta(client_info["app_id"], handle)
    assert meta is not None and meta.channel_kind is ChannelKind.REMOTE


def test_local_connect_uses_socketpair(cluster):
    a, _b = cluster
    server_info = a.add_app(["--ip", "10.50.0.2", "--name", "here"])
    server = connect_shim(server_info["trap"])
    _serve_echo(server, 4001)
    client_info = a.add_app([])
    client = connect_shim(client_info["trap"])
    handle = client.socket(HandleKind.STREAM)
    sock = client.connect(handle, (IPv4Address("10.50.0.2"), 4001))
    sock.sendall(b"short hop")
    assert sock.recv(65536) == b"short hop"
    sock.close()
    meta = a.node.switch.conn_meta(client_info["app_id"], handle)
    assert meta is not None and meta.channel_kind is ChannelKind.LOCAL
    # A socketpair end has no TCP peer: it reports an empty address family tuple
    # on getpeername only for AF_INET; AF_UNIX pairs return empty string.
    assert sock.family == socket.AF_UNIX


def test_unmanaged_direct_connect_is_refused(cluster):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.3", "--name", "guarded"])
    server = connect_shim(server_info["trap"])
    _serve_echo(server, 4002)
    key = ServiceKey(IPv4Address("10.50.0.3"), 4002)
    assert _wait_for(lambda: a.node.table.lookup(key))
    entry = a.node.table.lookup(key)[0]
    before = a.node.switch.counters["streams_refused_unidentified"]
    raw = socket.create_connection((str(entry.real.host_ip), entry.real.port))
    raw.sendall(b"no preamble here")
    # The handler reads a bad preamble and slams the door: EOF or a reset.
    raw.settimeout(5)
    try:
        assert raw.recv(1024) == b""
    except ConnectionResetError:
        pass
    raw.close()
    assert _wait_for(
        lambda: a.node.switch.counters["streams_refused_unidentified"] == before + 1
    )


def test_anonymous_bind_rejected_over_real_channel(cluster):
    a, _b = cluster
    info = a.add_app([])
    shim = connect_shim(info["trap"])
    handle = shim.socket(HandleKind.STREAM)
    with pytest.raises(Unidentified):
        shim.bind(handle, (IPv4Address("0.0.0.0"), 80))


def test_dns_resolution_over_real_channel(cluster):
    a, b = cluster
    server_info = a.add_app(["--name", "lookup-me"])
    server = connect_shim(server_info["trap"])
    _serve_echo(server, 4003)
    client_info = b.add_app([])
    client = connect_shim(client_info["trap"])
    from appnet import names

    resolver = client.socket(HandleKind.DATAGRAM)
    vip_box = {}

    def resolved():
        client.sendto(
            resolver, (IPv4Address("127.0.0.1"), 53), names.build_query(3, "lookup-me")
        )
        _, response = client.recvfrom(resolver)
        _, rcode, vip, ttl = names.parse_answer(response)
        vip_box.update(rcode=rcode, vip=vip, ttl=ttl)
        return rcode == names.RCODE_OK

    assert _wait_for(resolved)
    assert vip_box["ttl"] == 1
    assert str(vip_box["vip"]).startswith("240.")


def test_malformed_dns_question_leaves_the_app_in_place(cluster):
    a, _b = cluster
    info = a.add_app(["--name", "asker"])
    app = connect_shim(info["trap"])
    listener = app.socket(HandleKind.STREAM)
    app.bind(listener, (IPv4Address("0.0.0.0"), 4008))
    app.listen(listener)
    from appnet import names

    resolver = app.socket(HandleKind.DATAGRAM)
    query = names.build_query(4, "web")[:12] + b"\x01.\x00\x00\x01\x00\x01"
    app.sendto(resolver, (IPv4Address("127.0.0.1"), 53), query)
    _, response = app.recvfrom(resolver)
    assert names.parse_answer(response)[0] == 4
    assert a.in_loop(a.node.app_ids) == [info["app_id"]]
    assert a.in_loop(lambda: a.node.table.entries_for_app(a.node.host, info["app_id"]))
    assert a.counters["loop_errors"] == 0


def test_gateway_proxies_external_tcp(cluster):
    a, b = cluster
    server_info = b.add_app(
        ["--ip", "10.50.0.9", "--name", "pub", "--expose", "31000"]
    )
    server = connect_shim(server_info["trap"])
    _serve_echo(server, 4004)
    binding_key = ServiceKey(IPv4Address("10.50.0.9"), 4004)
    assert _wait_for(lambda: a.node.table.binding_for_key(binding_key) is not None)
    assert _wait_for(lambda: _listening(a, 31000))

    payload = b"\xcd" * (1 << 20)
    external = socket.create_connection(("127.0.0.1", 31000), timeout=5)
    received = bytearray()
    done = threading.Event()

    def drain():
        while len(received) < len(payload):
            chunk = external.recv(1 << 16)
            if not chunk:
                break
            received.extend(chunk)
        done.set()

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    external.sendall(payload)
    assert done.wait(timeout=30)
    assert bytes(received) == payload
    external.close()
    assert _wait_for(lambda: a.node.gateway_sessions, timeout=5)
    session = a.node.gateway_sessions[0]
    assert session.ext_to_int == len(payload)
    assert session.int_to_ext == len(payload)


def test_control_channel_list_and_remove(cluster, tmp_path):
    a, _b = cluster
    info = a.add_app(["--ip", "10.50.0.7", "--name", "listed"])
    shim = connect_shim(info["trap"])
    listener, echo_thread = _serve_echo(shim, 4005)
    key = ServiceKey(IPv4Address("10.50.0.7"), 4005)
    assert _wait_for(lambda: a.node.table.lookup(key))
    assert _wait_for(lambda: (info["app_id"], listener) in a.node.switch._waits)
    control = ControlClient(str(tmp_path / "a"))
    assert control.call({"op": "ping"})["ok"]
    dump = control.call({"op": "list"})["dump"]
    assert "10.50.0.7:4005" in dump
    removed = control.call({"op": "remove", "app_id": info["app_id"]})
    assert removed["ok"] and removed["tombstoned"] == 1
    assert a.node.table.lookup(key) == []
    # The accept blocked in the removed app is answered, not left hanging.
    echo_thread.join(timeout=5)
    assert echo_thread.accept_ended == [BadHandle]
    assert not a.node.switch._waits


def test_parked_recvfrom_wakes_only_for_its_connected_peer(cluster):
    a, _b = cluster
    shims = {}
    for label, ip, port in (("peer", "10.50.0.20", 5000), ("client", "10.50.0.21", 5001),
                            ("stranger", "10.50.0.22", 5002)):
        info = a.add_app(["--ip", ip])
        shim = connect_shim(info["trap"])
        handle = shim.socket(HandleKind.DATAGRAM)
        shim.bind(handle, (IPv4Address("0.0.0.0"), port))
        shims[label] = (info["app_id"], shim, handle)
    client_id, client, client_handle = shims["client"]
    client.connect(client_handle, (IPv4Address("10.50.0.20"), 5000))
    received = []
    thread = threading.Thread(
        target=lambda: received.append(client.recvfrom(client_handle)), daemon=True
    )
    thread.start()
    parked = (client_id, client_handle)
    assert _wait_for(lambda: parked in a.node.switch._waits)

    # A datagram from a source the handle is not connected to is filtered
    # out, and the call goes back to waiting.
    counters = a.node.switch.counters
    before = counters["dgrams_dropped_filtered"]
    _, stranger, stranger_handle = shims["stranger"]
    stranger.sendto(stranger_handle, (IPv4Address("10.50.0.21"), 5001), b"not for you")
    assert _wait_for(lambda: counters["dgrams_dropped_filtered"] == before + 1)
    assert _wait_for(lambda: parked in a.node.switch._waits)
    assert not received

    _, peer, peer_handle = shims["peer"]
    peer.sendto(peer_handle, (IPv4Address("10.50.0.21"), 5001), b"for you")
    thread.join(timeout=5)
    assert received == [((IPv4Address("10.50.0.20"), 5000), b"for you")]
    assert parked not in a.node.switch._waits
    for _, shim, _ in shims.values():
        shim.channel.close()


def _threads_of(*runtimes):
    """Live threads the given runtimes started (all are named appnet-<role>:<host>)."""
    hosts = tuple(f":{rt.node.host.hex[:6]}" for rt in runtimes)
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("appnet-") and t.name.endswith(hosts)
    ]


def _close_abortively(sock):
    # A reset leaves no TIME_WAIT behind on the ephemeral port, which a later
    # fixture's free-port probe could otherwise pick and fail to bind.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _serve_and_drop(shim, port, reply=False):
    """Accept in a loop; echo one byte if asked, then close each connection."""
    listener = shim.socket(HandleKind.STREAM)
    shim.bind(listener, (IPv4Address("0.0.0.0"), port))
    shim.listen(listener)

    def serve():
        while True:
            try:
                handle, _peer, transport = shim.accept(listener)
                shim.close(handle)
            except (AppNetError, ConnectionError, OSError):
                return  # the channel closed
            with transport:
                if reply:
                    transport.sendall(transport.recv(1))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _hang_up(shim):
    # Shut down first: it wakes the serving thread blocked on the channel.
    shim.channel.sock.shutdown(socket.SHUT_RDWR)
    shim.channel.close()


def test_loop_counts_a_failed_step_and_keeps_running(cluster):
    a, _b = cluster
    tick = a.node.tick
    failed_at = []

    def tick_failing_once(now):
        if not failed_at:
            failed_at.append(now)
            raise RuntimeError("injected tick failure")
        return tick(now)

    a.node.tick = tick_failing_once
    assert _wait_for(lambda: failed_at and a._tick > failed_at[0] + 3)
    assert a.counters["loop_errors"] == 1
    assert "injected tick failure" in a.last_error
    assert a.in_loop(lambda: "still serving") == "still serving"


def test_threads_stay_bounded_over_connects_and_anti_entropy(cluster):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.12", "--name", "many", "--tag", "grp=t"])
    server = connect_shim(server_info["trap"])
    thread = _serve_and_drop(server, 4007)
    client_info = b.add_app(["--tag", "grp=t"])
    client = connect_shim(client_info["trap"])
    key = ServiceKey(IPv4Address("10.50.0.12"), 4007)
    assert _wait_for(lambda: b.node.table.lookup(key)), "entry never reached b"

    first_tick = min(a._tick, b._tick)
    for _ in range(200):
        handle = client.socket(HandleKind.STREAM)
        _close_abortively(client.connect(handle, (key.vip, key.port)))
        client.close(handle)
    periods = 5 * gossip.ANTI_ENTROPY_PERIOD
    assert _wait_for(lambda: min(a._tick, b._tick) >= first_tick + periods)

    _hang_up(client)
    _hang_up(server)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert _wait_for(lambda: len(_threads_of(a, b)) == 2), _threads_of(a, b)
    assert _wait_for(lambda: not a.node.app_ids() and not b.node.app_ids())


def test_gateway_sessions_never_wait_on_a_missed_wakeup(cluster):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.11", "--name", "quick", "--expose", "31010"])
    server = connect_shim(info["trap"])
    thread = _serve_and_drop(server, 4006, reply=True)
    assert _wait_for(lambda: _listening(a, 31010))

    session_s = []
    for _ in range(100):
        started = time.monotonic()
        external = socket.create_connection(("127.0.0.1", 31010), timeout=5)
        external.sendall(b"x")
        assert external.recv(1) == b"x"
        _close_abortively(external)
        session_s.append(time.monotonic() - started)
    slow = [s for s in session_s if s >= 0.25]
    assert not slow, f"{len(slow)} of 100 sessions took >= 0.25 s: {slow}"

    _hang_up(server)
    thread.join(timeout=5)
    assert not thread.is_alive()
    # Pump threads end with their sessions: one loop per runtime is left.
    assert _wait_for(lambda: len(_threads_of(a, b)) == 2), _threads_of(a, b)
