"""connect_mix: the per-call control plane of two real daemons on loopback.

Daemon A holds the generator's client app and a named server `loc`; daemon B
(joined to A) holds a named server `rem`. Servers and client share grp=bench.
One closed-loop client thread runs cycles; one cycle is, for `loc` and then
`rem`: a DNS query through port 53, socket+connect, the server's accept in
the same thread, a 1-byte echo each way over the handed-over fds, close.

The workload's operation (op_*) is the client's calls of a cycle: both DNS
queries and both socket+connect calls. The server's accept is reported
(accept_remote_p99_ms) but left out of it: how often an accept waits out
the 0.25 s poll, and how long the waits around it grow, changed from one
pair of daemon lifetimes to the next and moved a whole cycle's median
between 5 and 22 ms, while the client's calls stayed within the host's
speed.
"""

from __future__ import annotations

import random
import time
from ipaddress import IPv4Address

from common import (
    LOCALHOST,
    CheckFailed,
    DaemonSet,
    DaemonWatch,
    Outcome,
    SetupError,
    median,
    wait_for,
)

VISIBLE_TIMEOUT = 20.0
ECHO_TIMEOUT = 5.0
OPS_PER_CYCLE = 4  # two DNS queries and two connection cycles
PROBE_EVERY = 2  # cycles per run of the hostspeed reference task


class _Service:
    def __init__(self, name: str, shim, handle: int, vip: IPv4Address, port: int) -> None:
        self.name = name
        self.shim = shim
        self.handle = handle
        self.vip = vip
        self.port = port


def _add_app(daemon, args: list[str]):
    from appnet.realnet import ControlClient, connect_shim

    added = ControlClient(str(daemon.run_dir)).call({"op": "add", "args": args})
    if not added.get("ok"):
        raise SetupError(f"add {args} on {daemon.label}: {added}")
    return connect_shim(added["trap"]), IPv4Address(added["vip"])


def _serve(daemon, name: str, port: int) -> _Service:
    from appnet.trap import HandleKind

    shim, vip = _add_app(daemon, ["--name", name, "--tag", "grp=bench"])
    handle = shim.socket(HandleKind.STREAM)
    bound = shim.bind(handle, (IPv4Address("0.0.0.0"), port))
    shim.listen(handle)
    if bound != (vip, port):
        raise SetupError(f"{name} bound {bound}, expected {vip}:{port}")
    return _Service(name, shim, handle, vip, port)


class _Client:
    def __init__(self, daemon) -> None:
        from appnet.trap import HandleKind

        self.shim, _ = _add_app(daemon, ["--tag", "grp=bench"])
        self.dns = self.shim.socket(HandleKind.DATAGRAM)
        self.qid = 0

    def resolve(self, name: str):
        from appnet import names

        self.qid = (self.qid + 1) & 0xFFFF
        self.shim.sendto(self.dns, (IPv4Address(LOCALHOST), 53), names.build_query(self.qid, name))
        _, answer = self.shim.recvfrom(self.dns)
        return self.qid, answer


def _setup(daemons: DaemonSet, seed: int):
    """Both daemons up, apps registered, both names answered by daemon a."""
    rng = random.Random(seed)
    a = daemons.start("a")
    b = daemons.start("b", join=a)
    client = _Client(a)
    suffix = f"{rng.randrange(16**6):06x}"
    services = [
        _serve(a, f"loc-{suffix}", rng.randrange(1024, 49152)),
        _serve(b, f"rem-{suffix}", rng.randrange(1024, 49152)),
    ]

    def visible() -> bool:
        from appnet import names

        for service in services:
            _, answer = client.resolve(service.name)
            if names.parse_answer(answer)[2] != service.vip:
                return False
        return True

    if not wait_for(visible, VISIBLE_TIMEOUT, interval=0.05):
        raise SetupError("services never became visible through DNS on daemon a")
    return client, services


def _one_service(client: _Client, service: _Service, timings: dict) -> None:
    """DNS, connect, accept, echo both ways, close; raises CheckFailed on a wrong output."""
    from appnet import names
    from appnet.trap import HandleKind

    t0 = time.perf_counter()
    qid, answer = client.resolve(service.name)
    t1 = time.perf_counter()
    got_qid, rcode, vip, _ = names.parse_answer(answer)
    if got_qid != qid or rcode != names.RCODE_OK or vip != service.vip:
        raise CheckFailed(f"DNS {service.name}: id {got_qid} rcode {rcode} vip {vip}, want {service.vip}")
    t2 = time.perf_counter()
    handle = client.shim.socket(HandleKind.STREAM)
    sock = client.shim.connect(handle, (vip, service.port))
    t3 = time.perf_counter()
    conn_handle, _peer, server_sock = service.shim.accept(service.handle)
    t4 = time.perf_counter()
    try:
        sock.settimeout(ECHO_TIMEOUT)
        server_sock.settimeout(ECHO_TIMEOUT)
        sock.sendall(b"q")
        if server_sock.recv(1) != b"q":
            raise CheckFailed(f"{service.name}: client byte did not reach the server")
        server_sock.sendall(b"r")
        if sock.recv(1) != b"r":
            raise CheckFailed(f"{service.name}: server byte did not reach the client")
    finally:
        sock.close()
        server_sock.close()
    client.shim.close(handle)
    service.shim.close(conn_handle)
    timings["dns"] = t1 - t0
    timings["connect"] = t3 - t2
    timings["accept"] = t4 - t3


def _cycles(client: _Client, services: list[_Service], seconds: float, daemons: DaemonSet,
            watch: DaemonWatch, out: Outcome, samples: dict, recorder) -> int:
    """Closed-loop cycles for `seconds`; returns how many completed."""
    from appnet.errors import AppNetError

    begin = time.perf_counter()
    deadline = begin + seconds
    cycles = started = 0
    while time.perf_counter() < deadline:
        if started % PROBE_EVERY == 0:
            out.probe.sample()  # between cycles, so never inside a timing
        started += 1
        if recorder is not None:
            recorder.request = len(out.windows) + 1
        cycle_start_ns = time.monotonic_ns()
        calls_s = 0.0
        ok = True
        for where, service in zip(("loc", "rem"), services):
            timings: dict = {}
            out.attempted += 2
            try:
                _one_service(client, service, timings)
            except (AppNetError, CheckFailed, OSError) as exc:
                out.fail(2, f"{service.name}: {type(exc).__name__}: {exc}")
                ok = False
                break
            for kind, value in timings.items():
                samples[(kind, where)].append(value)
            calls_s += timings["dns"] + timings["connect"]
        if ok:
            out.op_s.append(calls_s)
            cycles += 1
        out.windows.append((cycle_start_ns, time.monotonic_ns()))
        watch.sample()
        if daemons.any_dead():
            # The rest of the epoch counts as failed, at the pace seen so far.
            remaining = max(0.0, deadline - time.perf_counter())
            per_cycle = (time.perf_counter() - begin) / max(cycles, 1)
            out.fail(int(remaining / per_cycle + 1) * OPS_PER_CYCLE,
                     f"daemon crashed: {daemons.crashed()}")
            break
    out.measured_s += time.perf_counter() - begin
    return cycles


def run(seed: int, seconds: float, traced: bool = False, epochs: int = 1,
        recorder=None) -> Outcome:
    """`epochs` epochs of seconds/epochs each, every one on freshly started daemons.

    Each epoch's set-up is timed. How often a remote accept waits out the
    0.25 s poll differs from one pair of daemon lifetimes to the next, so
    pooling several lifetimes steadies the figures. With a recorder (traced
    runs use one epoch) the set-up spans are dropped and each cycle gets its
    own request id.
    """
    out = Outcome(scaled=True)
    samples = {(kind, where): [] for kind in ("dns", "connect", "accept") for where in ("loc", "rem")}
    cycles, threads_peak = 0, 0
    for _ in range(epochs):
        with DaemonSet(traced=traced) as daemons:
            started = time.perf_counter()
            client, services = _setup(daemons, seed)
            out.setup_s.append(time.perf_counter() - started)
            watch = DaemonWatch(daemons.daemons)
            cpu0 = watch.cpu_s()
            if recorder is not None:
                recorder.reset()
            out.begin_epoch()
            done = _cycles(client, services, seconds / epochs, daemons, watch, out, samples, recorder)
            if not daemons.any_dead():
                out.cpu_s += watch.cpu_s() - cpu0
                cycles += done
                watch.record_end(out.layer)
                threads_peak = max(threads_peak, watch.threads_peak)
            out.end_epoch()
            if traced:
                daemons.terminate()
                out.daemon_traces += daemons.read_traces()
    out.layer.put("realnet.daemon_cpu_us_per_cycle", out.cpu_s * 1e6 / max(cycles, 1), "us", cycles)
    out.layer.put("realnet.threads_peak", threads_peak, "count")
    named = out.named
    if samples[("accept", "rem")]:
        named.timing("dns", samples[("dns", "loc")] + samples[("dns", "rem")], "ms")
        named.timing("connect_local", samples[("connect", "loc")], "ms")
        named.timing("connect_remote", samples[("connect", "rem")], "ms")
        named.timing("accept_remote", samples[("accept", "rem")], "ms", pcts=(99,))
    return out
