"""gateway_stream: the one place appnet sits on the data path.

Gateway daemon G plus daemon I joined to it. I runs an echo service in its
own app process (`appnet run ... --expose <port> -- perfbench/echo_app.py`).
External clients reach it through G with plain TCP on loopback.

Phase 1 (the first third of the time): sequential short sessions, each a
connect, one byte echoed, close. Phase 2 (the rest): 2 connections stream
64 KiB writes and drain each echo before the next write.

The workload's operation (op_*) is one phase-2 write and its echo. A
session's latency is reported (proxy_session_*) but is not the operation:
from one set of daemons to the next its median moved between 2.5 and 12 ms
while the host's speed and the stream round trips stayed the same.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from common import (
    BENCH_DIR,
    LOCALHOST,
    CheckFailed,
    DaemonSet,
    DaemonWatch,
    Outcome,
    SetupError,
    median,
    wait_for,
)

STREAMS = 2
PHASE1_SHARE = 1 / 3
CHUNK = 64 * 1024
IO_TIMEOUT = 5.0
VISIBLE_TIMEOUT = 30.0
SETUP_ATTEMPTS = 3
EXTERNAL_PORTS = (30000, 32767)  # gateway.EXTERNAL_PORT_MIN..MAX


def _free_external_port(rng: random.Random) -> int:
    for _ in range(100):
        port = rng.randrange(EXTERNAL_PORTS[0], EXTERNAL_PORTS[1] + 1)
        with socket.socket() as probe:
            try:
                probe.bind((LOCALHOST, port))
            except OSError:
                continue
        return port
    raise SetupError("no free external port")


def _session(port: int, payload: bytes, tally: dict) -> float:
    """Connect, echo `payload`, close; returns connect-to-first-echoed-byte seconds."""
    started = time.perf_counter()
    with socket.create_connection((LOCALHOST, port), timeout=IO_TIMEOUT) as sock:
        sock.sendall(payload)
        first = sock.recv(len(payload))
        elapsed = time.perf_counter() - started
        echoed = first
        while len(echoed) < len(payload) and first:
            first = sock.recv(len(payload) - len(echoed))
            echoed += first
    tally["echoed"] += len(echoed)
    if echoed != payload:
        raise CheckFailed(f"session echoed {len(echoed)} bytes, sent {len(payload)}")
    return elapsed


def _setup(daemons: DaemonSet, rng: random.Random, tally: dict) -> int:
    """Gateway and inner daemon up, echo app exposed; returns the external port."""
    g = daemons.start("g", gateway=True)
    i = daemons.start("i", join=g)
    port = _free_external_port(rng)
    name = f"echo-{rng.randrange(16**6):06x}"
    service_port = rng.randrange(1024, 49152)
    daemons.run_app(i, ["--name", name, "--tag", "grp=bench", "--expose", str(port)],
                    ["python3", str(BENCH_DIR / "echo_app.py"), str(service_port)])

    def reachable() -> bool:
        try:
            _session(port, b"s", tally)
        except (OSError, CheckFailed):
            return False
        return True

    if not wait_for(reachable, VISIBLE_TIMEOUT, interval=0.1):
        raise SetupError(f"external port {port} never echoed through the gateway")
    return port


def _setup_with_retry(daemons_factory, rng: random.Random, tally: dict):
    last = None
    for _ in range(SETUP_ATTEMPTS):
        daemons = daemons_factory()
        tally["echoed"] = 0
        try:
            return daemons, _setup(daemons, rng, tally)
        except SetupError as exc:
            # Usually the external port was taken between probe and bind.
            last = exc
            daemons.stop()
        except BaseException:
            daemons.stop()
            raise
    raise SetupError(f"gateway setup failed {SETUP_ATTEMPTS} times: {last}")


def _stream(port: int, until: float, pattern: bytes, result: dict) -> None:
    echoed = 0
    result["rtt_s"] = rtts = []
    try:
        with socket.create_connection((LOCALHOST, port), timeout=IO_TIMEOUT) as sock:
            while time.perf_counter() < until:
                started = time.perf_counter()
                sock.sendall(pattern)
                got = bytearray()
                while len(got) < len(pattern):
                    chunk = sock.recv(len(pattern) - len(got))
                    if not chunk:
                        raise CheckFailed("gateway closed the stream mid-echo")
                    got += chunk
                rtts.append(time.perf_counter() - started)
                if got != pattern:
                    raise CheckFailed("echoed stream bytes differ from those sent")
                echoed += len(got)
    except (OSError, CheckFailed) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["echoed"] = echoed


def _epoch(port: int, seconds: float, rng: random.Random, daemons: DaemonSet, watch: DaemonWatch,
           out: Outcome, tally: dict, session_s: list[float]) -> tuple[float, int, float]:
    """Phase 1 then phase 2; returns (phase-2 seconds, bytes echoed, phase-2 daemon CPU seconds)."""
    epoch_cpu0 = watch.cpu_s()
    begin = time.perf_counter()
    phase1_end = begin + seconds * PHASE1_SHARE
    while time.perf_counter() < phase1_end:
        payload = bytes([rng.randrange(256)])
        window_start = time.monotonic_ns()
        out.attempted += 1
        try:
            session_s.append(_session(port, payload, tally))
        except (OSError, CheckFailed) as exc:
            out.fail(1, f"session: {type(exc).__name__}: {exc}")
        out.windows.append((window_start, time.monotonic_ns()))
        watch.sample()
        if daemons.any_dead():
            # The rest of phase 1 counts as failed, at the pace seen so far.
            per_session = median(session_s) if session_s else 0.01
            out.fail(int(max(0.0, phase1_end - time.perf_counter()) / per_session) + 1,
                     f"daemon crashed: {daemons.crashed()}")
            break
    phase2_start = time.perf_counter()
    cpu0 = watch.cpu_s() if not daemons.any_dead() else 0.0
    until = begin + seconds
    results = [{} for _ in range(STREAMS)]
    threads = [
        threading.Thread(target=_stream, args=(port, until, rng.randbytes(CHUNK), results[k]),
                         daemon=True)
        for k in range(STREAMS)
    ]
    window_start = time.monotonic_ns()
    for thread in threads:
        thread.start()
    while any(t.is_alive() for t in threads):
        watch.sample()
        time.sleep(0.05)
    for thread in threads:
        thread.join()
    phase2_s = time.perf_counter() - phase2_start
    out.windows.append((window_start, time.monotonic_ns()))
    out.measured_s += time.perf_counter() - begin
    echoed = sum(r["echoed"] for r in results)
    out.op_s += [rtt for r in results for rtt in r["rtt_s"]]
    out.attempted += echoed // CHUNK
    tally["echoed"] += echoed
    for r in results:
        if "error" in r:
            out.attempted += 1
            out.fail(1, f"stream: {r['error']}")
    if daemons.any_dead():
        out.fail(1, f"daemon crashed: {daemons.crashed()}")
        return phase2_s, echoed, 0.0
    cpu = watch.cpu_s()
    out.cpu_s += cpu - epoch_cpu0
    return phase2_s, echoed, cpu - cpu0


def run(seed: int, seconds: float, traced: bool = False, epochs: int = 1) -> Outcome:
    """`epochs` epochs of seconds/epochs each, every one on freshly started daemons."""
    rng = random.Random(seed)
    out = Outcome()
    phase2_s = cpu_s = 0.0
    echoed = threads_peak = 0
    session_s: list[float] = []
    out.client_bytes = {"echoed": 0}
    for _ in range(epochs):
        started = time.perf_counter()
        tally = {"echoed": 0}  # bytes the client got back, set-up probes included
        daemons, port = _setup_with_retry(lambda: DaemonSet(traced=traced), rng, tally)
        with daemons:
            out.setup_s.append(time.perf_counter() - started)
            watch = DaemonWatch(daemons.daemons)
            out.begin_epoch()
            epoch_s, epoch_bytes, epoch_cpu = _epoch(port, seconds / epochs, rng, daemons, watch,
                                                     out, tally, session_s)
            out.end_epoch()
            phase2_s += epoch_s
            echoed += epoch_bytes
            cpu_s += epoch_cpu
            if not daemons.any_dead():
                watch.record_end(out.layer)
                threads_peak = max(threads_peak, watch.threads_peak)
            out.client_bytes["echoed"] += tally["echoed"]
            if traced:
                daemons.terminate()
                out.daemon_traces += daemons.read_traces()
    out.layer.put("realnet.daemon_cpu_us_per_mb", cpu_s * 1e6 / max(echoed / 1e6, 1e-9), "us")
    out.layer.put("realnet.threads_peak", threads_peak, "count")
    if session_s:
        out.named.timing("proxy_session", session_s, "ms")
    out.named.put("proxy_mb_s", echoed / 1e6 / phase2_s, "MB/s", echoed // CHUNK)
    return out
