import contextlib
import errno
import os
import select
import socket
import struct
import sys
import threading
import time
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from appnet import gossip, trap
from appnet.errors import AppNetError, BadHandle, ConnRefused, Unidentified
from appnet.gossip import EnvelopeKind, GossipEnvelope
from appnet.model import RealEndpoint, ServiceKey, TagSet
from appnet.node import NodeConfig
from appnet.realnet import ControlClient, RealNodeRuntime, connect_shim, free_port
from appnet.service_table import EntryState, ServiceEntry
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
        ),
        str(tmp_path / "a"),
        period_ms=40,
    ).start()
    runtimes.append(a)
    try:
        b = RealNodeRuntime(
            NodeConfig(
                bind=RealEndpoint(IPv4Address("127.0.0.1"), port_b),
                join=RealEndpoint(IPv4Address("127.0.0.1"), port_a),
            ),
            str(tmp_path / "b"),
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


@pytest.fixture
def open_shim():
    """connect_shim for one test: each channel it opens is hung up at the end."""
    shims = []

    def open_(path):
        shims.append(connect_shim(path))
        return shims[-1]

    yield open_
    for shim in shims:
        _hang_up(shim)


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


def test_cross_node_connect_with_fd_passing(cluster, open_shim):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.1", "--name", "srv", "--tag", "grp=t"])
    server = open_shim(server_info["trap"])
    _listener, echo_thread = _serve_echo(server, 4000)

    client_info = b.add_app(["--tag", "grp=t"])
    client = open_shim(client_info["trap"])
    key = ServiceKey(IPv4Address("10.50.0.1"), 4000)
    assert _wait_for(lambda: b.node.table.lookup(key)), "entry never reached b"

    handle = client.socket(HandleKind.STREAM)
    sock = client.connect(handle, (IPv4Address("10.50.0.1"), 4000))
    # A cross-host connect hands out a TCP stream.
    assert isinstance(sock, socket.socket) and sock.family == socket.AF_INET
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


def test_local_connect_uses_socketpair(cluster, open_shim):
    a, _b = cluster
    server_info = a.add_app(["--ip", "10.50.0.2", "--name", "here"])
    server = open_shim(server_info["trap"])
    _serve_echo(server, 4001)
    client_info = a.add_app([])
    client = open_shim(client_info["trap"])
    handle = client.socket(HandleKind.STREAM)
    sock = client.connect(handle, (IPv4Address("10.50.0.2"), 4001))
    sock.sendall(b"short hop")
    assert sock.recv(65536) == b"short hop"
    sock.close()
    # A same-host connect hands out a socketpair end, not a TCP stream.
    assert sock.family == socket.AF_UNIX


def test_unmanaged_direct_connect_is_refused(cluster, open_shim):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.3", "--name", "guarded"])
    server = open_shim(server_info["trap"])
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


def test_anonymous_bind_rejected_over_real_channel(cluster, open_shim):
    a, _b = cluster
    info = a.add_app([])
    shim = open_shim(info["trap"])
    handle = shim.socket(HandleKind.STREAM)
    with pytest.raises(Unidentified):
        shim.bind(handle, (IPv4Address("0.0.0.0"), 80))


def test_dns_resolution_over_real_channel(cluster, open_shim):
    a, b = cluster
    server_info = a.add_app(["--name", "lookup-me"])
    server = open_shim(server_info["trap"])
    _serve_echo(server, 4003)
    client_info = b.add_app([])
    client = open_shim(client_info["trap"])
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


def test_malformed_dns_question_leaves_the_app_in_place(cluster, open_shim):
    a, _b = cluster
    info = a.add_app(["--name", "asker"])
    app = open_shim(info["trap"])
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


# One byte; either side of a 64 KiB pipe's capacity; and past 1 MiB.
@pytest.mark.parametrize("size", [1, 65535, 65537, (1 << 20) + 1])
def test_gateway_proxies_external_tcp(cluster, size, open_shim):
    a, b = cluster
    server_info = b.add_app(
        ["--ip", "10.50.0.9", "--name", "pub", "--expose", "31000"]
    )
    server = open_shim(server_info["trap"])
    _serve_echo(server, 4004)
    binding_key = ServiceKey(IPv4Address("10.50.0.9"), 4004)
    assert _wait_for(lambda: a.node.table.binding_for_key(binding_key) is not None)
    assert _wait_for(lambda: _listening(a, 31000))

    payload = b"\xcd" * size
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
    session = a.node.gateway_sessions[0]
    # A session is closed once both pumps have ended: its counts are final.
    assert _wait_for(lambda: session.closed, timeout=5)
    assert session.ext_to_int == len(payload)
    assert session.int_to_ext == len(payload)


def test_control_channel_list_and_remove(cluster, tmp_path, open_shim):
    a, _b = cluster
    info = a.add_app(["--ip", "10.50.0.7", "--name", "listed"])
    shim = open_shim(info["trap"])
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


def test_parked_recvfrom_wakes_only_for_its_connected_peer(cluster, open_shim):
    a, _b = cluster
    shims = {}
    for label, ip, port in (("peer", "10.50.0.20", 5000), ("client", "10.50.0.21", 5001),
                            ("stranger", "10.50.0.22", 5002)):
        info = a.add_app(["--ip", ip])
        shim = open_shim(info["trap"])
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


def test_a_connected_datagram_handle_names_both_its_ends(cluster, open_shim):
    a, _b = cluster
    server = open_shim(a.add_app(["--ip", "10.50.0.30"])["trap"])
    server_handle = server.socket(HandleKind.DATAGRAM)
    server.bind(server_handle, (IPv4Address("0.0.0.0"), 5010))
    client = open_shim(a.add_app(["--ip", "10.50.0.31"])["trap"])
    handle = client.socket(HandleKind.DATAGRAM)
    client.bind(handle, (IPv4Address("0.0.0.0"), 5011))
    client.connect(handle, (IPv4Address("10.50.0.30"), 5010))
    assert client.getpeername(handle) == (IPv4Address("10.50.0.30"), 5010)
    assert client.getsockname(handle) == (IPv4Address("10.50.0.31"), 5011)
    client.sendto(handle, (IPv4Address("10.50.0.30"), 5010), b"ping")
    assert server.recvfrom(server_handle) == ((IPv4Address("10.50.0.31"), 5011), b"ping")


def test_a_bound_datagram_handle_sends_from_its_own_port(cluster, open_shim):
    a, _b = cluster
    server = open_shim(a.add_app(["--ip", "10.50.0.40"])["trap"])
    server_handle = server.socket(HandleKind.DATAGRAM)
    server.bind(server_handle, (IPv4Address("0.0.0.0"), 5020))
    client = open_shim(a.add_app(["--ip", "10.50.0.41"])["trap"])
    first, second = (client.socket(HandleKind.DATAGRAM) for _ in range(2))
    client.bind(first, (IPv4Address("0.0.0.0"), 5021))
    client.bind(second, (IPv4Address("0.0.0.0"), 5022))
    client.sendto(second, (IPv4Address("10.50.0.40"), 5020), b"ping")
    source, payload = server.recvfrom(server_handle)
    assert (source, payload) == ((IPv4Address("10.50.0.41"), 5022), b"ping")
    server.sendto(server_handle, source, b"pong")
    assert client.recvfrom(second) == ((IPv4Address("10.50.0.40"), 5020), b"pong")


def _threads_of(*runtimes):
    """Live threads the given runtimes started (all are named appnet-<role>:<host>)."""
    hosts = tuple(f":{rt.node.host.hex()[:6]}" for rt in runtimes)
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
    with contextlib.suppress(OSError):  # already hung up
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


def _oversize_then_small(host):
    """An envelope over MAX_ENVELOPE, six piggyback records of 11 kB each,
    then a small one."""
    large = [
        ServiceEntry(
            key=ServiceKey(IPv4Address("10.60.0.1"), 80),
            real=RealEndpoint(IPv4Address("127.0.0.1"), 41000),
            host=host, app_id=f"{i}" + "x" * 11000, tags=TagSet(), name=None,
            incarnation=1, state=EntryState.ALIVE,
        )
        for i in range(6)
    ]
    oversize = GossipEnvelope(kind=EnvelopeKind.PING, sender=host, table_deltas=large)
    with pytest.raises(ValueError):
        gossip.encode_envelope(oversize)
    return oversize, GossipEnvelope(kind=EnvelopeKind.PING, sender=host)


def test_an_oversize_envelope_is_counted_and_the_rest_still_go_out(cluster):
    a, _b = cluster
    catcher = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    catcher.bind(("127.0.0.1", 0))
    catcher.settimeout(5)
    dest = RealEndpoint(IPv4Address("127.0.0.1"), catcher.getsockname()[1])
    oversize, follow = _oversize_then_small(a.node.host)
    errors = dict(a.counters)
    try:
        a.in_loop(lambda: a._send_outbound([(dest, oversize), (dest, follow)]))
        data, _ = catcher.recvfrom(65535)
    finally:
        catcher.close()
    assert data == gossip.encode_envelope(follow)
    assert a.counters["send_errors"] > errors["send_errors"]
    assert a.counters["loop_errors"] == errors["loop_errors"]


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    """`size` bytes from `sock`, or fewer if it closes first."""
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def test_an_oversize_sync_answer_is_counted_and_the_rest_still_go_out(cluster):
    a, _b = cluster
    oversize, follow = _oversize_then_small(a.node.host)
    on_envelope = a.node.on_envelope

    def answer(data, source, now):
        if data == b"probe":
            return [(source, oversize), (source, follow)]
        return on_envelope(data, source, now)

    ours, theirs = socket.socketpair()
    theirs.settimeout(5)
    errors = dict(a.counters)
    a.node.on_envelope = answer
    try:
        a.in_loop(lambda: a._sync_stream(ours, ("127.0.0.1", 7946)))
        theirs.sendall(struct.pack(">I", 5) + b"probe")
        (length,) = struct.unpack(">I", _recv_exactly(theirs, 4))
        data = _recv_exactly(theirs, length)
    finally:
        a.node.on_envelope = on_envelope
        theirs.close()
    assert data == gossip.encode_envelope(follow)
    assert a.counters["send_errors"] > errors["send_errors"]
    assert a.counters["loop_errors"] == errors["loop_errors"]


def _closed_by_peer(sock: socket.socket, wait: float) -> bool:
    """True if the peer closed `sock` within `wait` seconds."""
    if not select.select([sock], [], [], wait)[0]:
        return False
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def _claim_then_trickle(sock: socket.socket, header: bytes, seconds: float):
    """Send a frame header, then 64 KiB every 50 ms for up to `seconds`.
    The seconds until the peer closed the socket, or None if it never did."""
    start = time.monotonic()
    sock.sendall(header)
    while time.monotonic() - start < seconds:
        try:
            sock.sendall(bytes(64 * 1024))
        except (BrokenPipeError, ConnectionResetError):
            return time.monotonic() - start
        if _closed_by_peer(sock, 0.05):
            return time.monotonic() - start
    return None


def test_a_sync_frame_claiming_more_than_an_envelope_is_refused_and_counted(cluster):
    a, _b = cluster
    errors = a.counters["loop_errors"]
    bind = a.config.bind
    with socket.create_connection((str(bind.host_ip), bind.port), timeout=5) as client:
        closed_after = _claim_then_trickle(client, struct.pack(">I", 1 << 30), 3.0)
    assert closed_after is not None and closed_after < 1.0
    assert _wait_for(lambda: a.counters["loop_errors"] == errors + 1)
    assert "sync frame claims 1073741824 bytes" in a.last_error


def test_a_trap_frame_claiming_an_oversized_payload_closes_the_channel(cluster):
    a, _b = cluster
    info = a.add_app(["--name", "greedy"])
    errors = a.counters["loop_errors"]
    request = trap.encode_request(trap.TrapRequest(trap.TrapOp.SOCKET, 0, None, b""))
    header = request[: trap.HEADER_SIZE - 4] + struct.pack(">I", 1 << 30)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as channel:
        channel.connect(info["trap"])
        channel.settimeout(5)
        closed_after = _claim_then_trickle(channel, header, 3.0)
    assert closed_after is not None and closed_after < 1.0
    assert _wait_for(lambda: info["app_id"] not in a.in_loop(a.node.app_ids))
    assert a.counters["loop_errors"] == errors + 1
    assert "claimed payload of 1073741824 bytes is oversized" in a.last_error


def test_threads_stay_bounded_over_connects_and_anti_entropy(cluster, open_shim):
    a, b = cluster
    server_info = a.add_app(["--ip", "10.50.0.12", "--name", "many", "--tag", "grp=t"])
    server = open_shim(server_info["trap"])
    thread = _serve_and_drop(server, 4007)
    client_info = b.add_app(["--tag", "grp=t"])
    client = open_shim(client_info["trap"])
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


def test_gateway_sessions_never_wait_on_a_missed_wakeup(cluster, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.11", "--name", "quick", "--expose", "31010"])
    server = open_shim(info["trap"])
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


def _open_session(gateway, port):
    """A client connected through `gateway`'s external `port`, one echo in."""
    external = socket.create_connection(("127.0.0.1", port), timeout=5)
    external.sendall(b"hello")
    assert _recv_exactly(external, 5) == b"hello"
    return external, gateway.node.gateway_sessions[-1]


def test_a_withdrawn_exposure_ends_its_open_sessions(cluster, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.12", "--name", "held", "--expose", "31020"])
    server = open_shim(info["trap"])
    _listener, echo_thread = _serve_echo(server, 4007)
    assert _wait_for(lambda: _listening(a, 31020))
    external, session = _open_session(a, 31020)

    b.remove_app(info["app_id"])
    assert _wait_for(lambda: not _listening(a, 31020))
    # Both ends hear the session end, not just the gateway's bookkeeping.
    external.settimeout(3)
    assert external.recv(1) == b""
    echo_thread.join(timeout=3)
    assert not echo_thread.is_alive()
    assert _wait_for(lambda: session.closed)
    external.close()
    _hang_up(server)


def test_withdrawing_one_exposure_leaves_the_others_sessions_echoing(cluster, open_shim):
    a, b = cluster
    kept_info = b.add_app(["--ip", "10.50.0.23", "--name", "kept", "--expose", "31025"])
    gone_info = b.add_app(["--ip", "10.50.0.24", "--name", "gone", "--expose", "31026"])
    _listener, kept_echo = _serve_echo(open_shim(kept_info["trap"]), 4013)
    _listener, gone_echo = _serve_echo(open_shim(gone_info["trap"]), 4014)
    assert _wait_for(lambda: _listening(a, 31025) and _listening(a, 31026))
    kept, kept_session = _open_session(a, 31025)
    gone, gone_session = _open_session(a, 31026)

    b.remove_app(gone_info["app_id"])
    assert _wait_for(lambda: not _listening(a, 31026))
    # The withdrawn exposure's session ends at both of its peers.
    gone.settimeout(3)
    assert gone.recv(1) == b""
    gone_echo.join(timeout=3)
    assert not gone_echo.is_alive()
    assert _wait_for(lambda: gone_session.closed)
    # The other exposure's session goes on.
    kept.sendall(b"still here")
    assert _recv_exactly(kept, 10) == b"still here"
    assert not kept_session.closed
    gone.close()
    kept.close()
    kept_echo.join(timeout=3)
    assert _wait_for(lambda: kept_session.closed)


def test_a_control_line_without_an_end_is_refused_and_counted(cluster, tmp_path):
    a, _b = cluster
    errors = a.counters["loop_errors"]
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as control:
        control.connect(str(tmp_path / "a" / "control.sock"))
        control.settimeout(5)
        started = time.monotonic()
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            control.sendall(b"x" * (10 << 20))  # 10 MiB and no newline
        assert _closed_by_peer(control, 1.0)
        assert time.monotonic() - started < 1.0
    assert _wait_for(lambda: a.counters["loop_errors"] == errors + 1)
    assert "control line runs past 65536 bytes" in a.last_error


def test_an_apps_trap_socket_goes_when_its_listener_closes(cluster, tmp_path, open_shim):
    a, _b = cluster
    apps = tmp_path / "a" / "apps"
    removed = a.add_app(["--name", "removed"])
    hung_up = a.add_app(["--name", "hung-up"])
    never_attached = a.add_app(["--name", "never-attached"])
    assert sorted(p.name for p in apps.iterdir()) == sorted(
        f"{info['app_id']}.trap" for info in (removed, hung_up, never_attached)
    )
    open_shim(removed["trap"])
    _hang_up(open_shim(hung_up["trap"]))
    # Attaching closes the listener: the socket file goes at once.
    assert _wait_for(lambda: not Path(removed["trap"]).exists())
    assert _wait_for(lambda: hung_up["app_id"] not in a.in_loop(a.node.app_ids))
    a.remove_app(removed["app_id"])
    a.remove_app(never_attached["app_id"])
    assert list(apps.iterdir()) == []


def test_a_stopped_daemon_leaves_no_socket_files(tmp_path):
    runtime = RealNodeRuntime(
        NodeConfig(bind=RealEndpoint(IPv4Address("127.0.0.1"), free_port())),
        str(tmp_path),
        period_ms=40,
    ).start()
    try:
        runtime.add_app(["--name", "never-attached"])
    finally:
        runtime.stop()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["apps", "node_id"]
    assert list((tmp_path / "apps").iterdir()) == []


def _open_fds(*runtimes) -> int:
    """Descriptors this process holds, less the anti-entropy streams that the
    runtimes open on their gossip ports every few periods and idle out."""
    fds = os.listdir("/proc/self/fd")
    ports = {rt.config.bind.port for rt in runtimes}
    syncs = set()
    for line in Path("/proc/net/tcp").read_text().splitlines()[1:]:
        fields = line.split()
        if {int(end.split(":")[1], 16) for end in fields[1:3]} & ports:
            syncs.add(f"socket:[{fields[9]}]")
    held = 0
    for fd in fds:
        with contextlib.suppress(OSError):  # closed since the listing
            held += os.readlink(f"/proc/self/fd/{fd}") not in syncs
    return held


def _fds_before(*runtimes) -> int:
    """The fewest of a few samples: a stream in the midst of opening is not held."""
    samples = []
    for _ in range(5):
        samples.append(_open_fds(*runtimes))
        time.sleep(0.02)
    return min(samples)


def test_gateway_sessions_leave_no_fds_behind(cluster, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.13", "--name", "brief", "--expose", "31030"])
    brief = open_shim(info["trap"])
    thread = _serve_and_drop(brief, 4009, reply=True)
    assert _wait_for(lambda: _listening(a, 31030))
    before = _fds_before(a, b)
    for _ in range(20):
        external = socket.create_connection(("127.0.0.1", 31030), timeout=5)
        external.sendall(b"x")
        assert external.recv(1) == b"x"
        _close_abortively(external)
    assert _wait_for(lambda: all(s.closed for s in a.node.gateway_sessions))
    assert _wait_for(lambda: _open_fds(a, b) <= before), (_open_fds(a, b), before)
    _hang_up(brief)
    thread.join(timeout=5)

    # A session withdrawn mid-stream, with all its app left behind hung up.
    before = _fds_before(a, b)
    info = b.add_app(["--ip", "10.50.0.14", "--name", "held", "--expose", "31031"])
    held = open_shim(info["trap"])
    _listener, echo_thread = _serve_echo(held, 4010)
    assert _wait_for(lambda: _listening(a, 31031))
    external, session = _open_session(a, 31031)
    b.remove_app(info["app_id"])
    assert _wait_for(lambda: session.closed)
    echo_thread.join(timeout=5)
    _close_abortively(external)
    _hang_up(held)
    assert _wait_for(lambda: _open_fds(a, b) <= before), (_open_fds(a, b), before)
    assert a.counters["pump_errors"] == 0


def test_a_pump_error_is_counted_and_ends_the_session(cluster, monkeypatch, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.15", "--name", "faulty", "--expose", "31040"])
    server = open_shim(info["trap"])
    _listener, echo_thread = _serve_echo(server, 4011)
    assert _wait_for(lambda: _listening(a, 31040))
    splice, calls = os.splice, []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        return splice(*args)

    monkeypatch.setattr(os, "splice", fail_first)
    external = socket.create_connection(("127.0.0.1", 31040), timeout=5)
    assert external.recv(1) == b""
    echo_thread.join(timeout=5)
    assert not echo_thread.is_alive()
    session = a.node.gateway_sessions[0]
    assert _wait_for(lambda: session.closed)
    assert a.counters["pump_errors"] == 1
    assert "Invalid argument" in a.last_error
    external.close()
    _hang_up(server)


def test_a_refused_external_connection_is_closed_and_counted(cluster, monkeypatch, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.19", "--name", "shut", "--expose", "31045"])
    server = open_shim(info["trap"])
    _listener, echo_thread = _serve_echo(server, 4015)
    assert _wait_for(lambda: _listening(a, 31045))

    def refuse(*_args):
        raise ConnRefused("no instance takes the session")

    monkeypatch.setattr(a.node.switch, "connect_for_gateway", refuse)
    before = _fds_before(a, b)
    external = socket.create_connection(("127.0.0.1", 31045), timeout=5)
    assert external.recv(1) == b""
    _close_abortively(external)
    assert a.node.counters["gateway_refusals"] == 1
    assert a.node.gateway_sessions == []
    assert _wait_for(lambda: _open_fds(a, b) <= before), (_open_fds(a, b), before)
    _hang_up(server)
    echo_thread.join(timeout=5)
    assert not echo_thread.is_alive()


def _serve_echo_each(shim, port):
    """Accept in a loop and echo every connection on a thread of its own."""
    listener = shim.socket(HandleKind.STREAM)
    shim.bind(listener, (IPv4Address("0.0.0.0"), port))
    shim.listen(listener)

    def echo(transport):
        with transport:
            while chunk := transport.recv(65536):
                transport.sendall(chunk)

    def serve():
        while True:
            try:
                _handle, _peer, transport = shim.accept(listener)
            except (AppNetError, ConnectionError, OSError):
                return  # the channel closed
            threading.Thread(target=echo, args=(transport,), daemon=True).start()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def test_concurrent_sessions_count_every_byte_once(cluster, open_shim):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.16", "--name", "busy", "--expose", "31050"])
    server = open_shim(info["trap"])
    thread = _serve_echo_each(server, 4012)
    assert _wait_for(lambda: _listening(a, 31050))
    payload, clients = b"\x5a" * (256 << 10), 4  # 8 pump threads on 2 cores
    echoed = []

    def stream():
        with socket.create_connection(("127.0.0.1", 31050), timeout=10) as external:
            sender = threading.Thread(target=external.sendall, args=(payload,))
            sender.start()
            echoed.append(_recv_exactly(external, len(payload)))
            sender.join(timeout=10)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the pumps' counting as often as can be
    try:
        streams = [threading.Thread(target=stream) for _ in range(clients)]
        for t in streams:
            t.start()
        for t in streams:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert echoed == [payload] * clients
    sessions = a.node.gateway_sessions
    assert _wait_for(lambda: len(sessions) == clients and all(s.closed for s in sessions))
    counted = sum(s.ext_to_int + s.int_to_ext for s in sessions)
    assert counted == 2 * clients * len(payload)
    # The splice threads end with their sessions: one loop per runtime is left.
    assert _wait_for(lambda: len(_threads_of(a, b)) == 2), _threads_of(a, b)
    _hang_up(server)
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_an_exposed_bind_is_listened_for_within_one_inner_tick(cluster, open_shim, monkeypatch):
    a, b = cluster
    info = b.add_app(["--ip", "10.50.0.17", "--name", "prompt", "--expose", "31060"])
    shim = open_shim(info["trap"])
    listener = shim.socket(HandleKind.STREAM)
    # The inner node's tick when the gateway opens the listener.
    opened_at = []
    bind_external = a.bind_external

    def recording(port, on_conn):
        close = bind_external(port, on_conn)
        opened_at.append(b._tick)
        return close

    monkeypatch.setattr(a, "bind_external", recording)
    shim.bind(listener, (IPv4Address("0.0.0.0"), 4009))
    bound_at = b._tick
    assert _wait_for(lambda: _listening(a, 31060))
    assert opened_at[0] - bound_at <= 1, (bound_at, opened_at)


def test_a_held_external_port_is_retried_and_never_fails_the_tick(cluster, open_shim):
    a, b = cluster
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    holder.bind(("127.0.0.1", 31070))
    holder.listen(1)
    try:
        info = b.add_app(["--ip", "10.50.0.18", "--name", "blocked", "--expose", "31070"])
        server = open_shim(info["trap"])
        _serve_echo(server, 4010)
        key = ServiceKey(IPv4Address("10.50.0.18"), 4010)
        assert _wait_for(lambda: a.in_loop(lambda: a.node.table.binding_for_key(key)))
        errors, ticked = a.counters["loop_errors"], a._tick
        assert _wait_for(lambda: a._tick >= ticked + 3)
        assert a.counters["loop_errors"] == errors
        assert a.node.counters["gateway_bind_errors"] >= 3
        assert not _listening(a, 31070)
    finally:
        holder.close()
    assert _wait_for(lambda: _listening(a, 31070))
    external, _session = _open_session(a, 31070)
    external.close()
