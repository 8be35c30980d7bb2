"""Same-host throughput: the switch's local fast path vs a loopback hairpin.

The measured leg runs a named, tagged server and an anonymous same-group
client on one node; the client resolves the server by name through the
virtual resolver and connects, which hands both sides a socketpair. The
client then streams fixed-size messages one way and the rate is taken at
the receiver: each payload byte crosses the channel once.

The baseline leg pushes the identical send workload at a plain TCP echo
server over 127.0.0.1, draining the returned stream: every byte hairpins
through the loopback stack twice (out and back) before it counts, which is
the desk-scale stand-in for the double traversal a bridged path pays.

Each leg runs a few rounds and reports its best, so a noisy scheduler tick
does not masquerade as a transport property.
"""

from __future__ import annotations

import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from ipaddress import IPv4Address

from appnet import names
from appnet.model import RealEndpoint
from appnet.node import NodeConfig
from appnet.realnet import RealNodeRuntime, connect_shim, free_port
from appnet.trap import HandleKind

BENCH_SERVICE_PORT = 5001
RECV_CHUNK = 1 << 20
ROUNDS = 3


@dataclass
class BenchResult:
    size: int
    local_bps: float
    hairpin_bps: float

    @property
    def ratio(self) -> float:
        return self.local_bps / self.hairpin_bps if self.hairpin_bps else 0.0

    def csv_row(self) -> str:
        return f"{self.size},{self.local_bps:.0f},{self.hairpin_bps:.0f},{self.ratio:.3f}"


def _send_for(sender: socket.socket, size: int, seconds: float) -> None:
    payload = b"\xbb" * size
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sender.sendall(payload)
    sender.shutdown(socket.SHUT_WR)


def _one_way_rate(sender: socket.socket, receiver: socket.socket, size: int, seconds: float) -> float:
    counted = {"bytes": 0, "start": None, "end": None}

    def drain() -> None:
        while True:
            chunk = receiver.recv(RECV_CHUNK)
            now = time.perf_counter()
            if counted["start"] is None:
                counted["start"] = now
            if not chunk:
                counted["end"] = now
                return
            counted["bytes"] += len(chunk)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    _send_for(sender, size, seconds)
    thread.join(timeout=30)
    sender.close()
    receiver.close()
    if not counted["bytes"] or counted["end"] is None:
        return 0.0
    return counted["bytes"] / max(counted["end"] - counted["start"], 1e-9)


def _hairpin_rate(client: socket.socket, size: int, seconds: float) -> float:
    counted = {"bytes": 0}

    def drain() -> None:
        while True:
            try:
                chunk = client.recv(RECV_CHUNK)
            except OSError:
                return
            if not chunk:
                return
            counted["bytes"] += len(chunk)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    start = time.perf_counter()
    _send_for(client, size, seconds)
    thread.join(timeout=30)
    elapsed = time.perf_counter() - start
    client.close()
    return counted["bytes"] / max(elapsed, 1e-9)


def _fast_path_pair(runtime: RealNodeRuntime) -> tuple[socket.socket, socket.socket]:
    """Establish one local connection the way a real deployment would:
    named tagged server, same-group anonymous client, resolve by name."""
    server_info = runtime.add_app(
        ["--ip", "10.99.0.1", "--name", "bench", "--tag", "grp=bench"]
    )
    server = connect_shim(server_info["trap"])
    listener = server.socket(HandleKind.STREAM)
    server.bind(listener, (IPv4Address("0.0.0.0"), BENCH_SERVICE_PORT))
    server.listen(listener)

    client_info = runtime.add_app(["--tag", "grp=bench"])
    client = connect_shim(client_info["trap"])
    resolver = client.socket(HandleKind.DATAGRAM)
    client.sendto(
        resolver, (IPv4Address("127.0.0.1"), 53), names.build_query(1, "bench")
    )
    _, response = client.recvfrom(resolver)
    _, _, vip, _ = names.parse_answer(response)
    assert vip is not None, "bench service did not resolve"

    accepted: dict = {}

    def do_accept() -> None:
        _, _, transport = server.accept(listener)
        accepted["sock"] = transport

    acceptor = threading.Thread(target=do_accept, daemon=True)
    acceptor.start()
    conn = client.socket(HandleKind.STREAM)
    sender = client.connect(conn, (vip, BENCH_SERVICE_PORT))
    acceptor.join(timeout=10)
    receiver = accepted["sock"]
    assert isinstance(sender, socket.socket) and isinstance(receiver, socket.socket)
    server.close(listener)
    # The connection needs neither app's channel any more.
    server.channel.close()
    client.channel.close()
    return sender, receiver


def measure_local(size: int, seconds: float) -> float:
    rates = []
    for _ in range(ROUNDS):
        config = NodeConfig(bind=RealEndpoint(IPv4Address("127.0.0.1"), free_port()))
        with tempfile.TemporaryDirectory(prefix="appnet-bench-") as run_dir:
            runtime = RealNodeRuntime(config, run_dir, period_ms=100).start()
            # The connection outlives its control plane; stop the node so both
            # legs measure pure transport under identical process conditions.
            try:
                sender, receiver = _fast_path_pair(runtime)
            finally:
                runtime.stop()
        rates.append(_one_way_rate(sender, receiver, size, seconds))
    return max(rates)


def measure_hairpin(size: int, seconds: float) -> float:
    rates = []
    for _ in range(ROUNDS):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        addr = listener.getsockname()

        def serve_echo() -> None:
            conn, _ = listener.accept()
            with conn:
                while True:
                    chunk = conn.recv(RECV_CHUNK)
                    if not chunk:
                        try:
                            conn.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass
                        return
                    conn.sendall(chunk)

        thread = threading.Thread(target=serve_echo, daemon=True)
        thread.start()
        client = socket.create_connection(addr)
        rates.append(_hairpin_rate(client, size, seconds))
        thread.join(timeout=10)
        listener.close()
    return max(rates)


def run_bench(size: int, seconds: float) -> BenchResult:
    local = measure_local(size, seconds)
    hairpin = measure_hairpin(size, seconds)
    return BenchResult(size=size, local_bps=local, hairpin_bps=hairpin)
