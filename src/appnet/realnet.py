"""Real-socket runtime: one daemon per host over UDP, TCP, and Unix sockets.

One loop thread owns every control-plane socket through a `selectors`
selector and is the only thread that touches the Node. It reads streams as
whole frames, buffers what it cannot write at once, ticks on the select
timeout, and re-runs a trap accept or recvfrom that would block when the
switch wakes its handle (Switch.wait). Other threads reach it through in_loop().

The gateway relay is the one exception: each proxied session moves its bytes
on two blocking threads, one per direction, splicing socket -> pipe -> socket
(os.splice, so Linux only) so that the bytes never enter Python. Against
recv/sendall this took the daemons' CPU per streamed MB from 680 to 527 us on
a 2-vCPU VM; non-blocking splices on the loop took 60 % longer and 33 % more
CPU per 64 KiB echo of perfbench's gateway_stream. A session ends with the
external listener that accepted it. Only its splice threads close its sockets;
everyone else shuts them down. Every other connection is passed to its
application as a descriptor over the app's Unix trap channel and never touches
the daemon again.
"""

from __future__ import annotations

import errno
import json
import os
import random
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from functools import partial
from ipaddress import IPv4Address
from pathlib import Path
from typing import Callable, Optional

from appnet import trap
from appnet.errors import (
    AppNetError,
    BindFailed,
    ConnRefused,
    DaemonUnreachable,
    DecodeError,
    WouldBlock,
)
from appnet.gossip import MAX_ENVELOPE, PERIOD_MS, RELIABLE_KINDS, encode_envelope
from appnet.model import RealEndpoint, new_host_id, parse_app_spec
from appnet.node import GatewaySession, Node, NodeConfig
from appnet.switch import PREAMBLE_SIZE
from appnet.trap import SocketShim, TrapReply, TrapRequest

_SYNC_FRAME = struct.Struct(">I")
_WOULD_BLOCK = trap.status_for_error(WouldBlock(""))
CONNECT_TIMEOUT = 2.0
PREAMBLE_TIMEOUT = 2.0
COPY_CHUNK = 65536
MAX_CONTROL_LINE = 64 * 1024  # newline included; a longer request closes its stream
# A same-host pair's socket buffers. The Unix default (~208 KiB) wakes the
# reader so often that a local stream fell behind a TCP loopback hairpin.
LOCAL_PAIR_BUFFER = 1 << 20


class RuntimeStopped(RuntimeError):
    """The runtime shut down while a caller was waiting on its loop."""


def free_port() -> int:
    """A loopback port that binds for TCP and UDP both, as a daemon needs.
    The TCP probe also skips ports that closed client connections still hold
    in TIME_WAIT, which a UDP probe cannot see."""
    for _ in range(100):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp:
            tcp.bind(("127.0.0.1", 0))
            port = tcp.getsockname()[1]
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                try:
                    udp.bind(("127.0.0.1", port))
                except OSError:
                    continue
                return port
    raise RuntimeError("no loopback port free for both TCP and UDP")


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return bytes(buf)


def _tcp_listener(addr: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(addr)
        sock.listen(16)
    except OSError:
        sock.close()
        raise
    return sock


def _unix_listener(path: Path) -> socket.socket:
    path.unlink(missing_ok=True)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(str(path))
    sock.listen(8)
    return sock


# Framings: the length of the first whole frame in buf, or None if not known yet.


def _trap_frame_size(buf: bytearray) -> Optional[int]:
    if len(buf) < trap.HEADER_SIZE:
        return None
    return trap.HEADER_SIZE + trap.frame_payload_length(bytes(buf[: trap.HEADER_SIZE]))


def _sync_frame_size(buf: bytearray) -> Optional[int]:
    if len(buf) < _SYNC_FRAME.size:
        return None
    (length,) = _SYNC_FRAME.unpack_from(buf)
    if length > MAX_ENVELOPE:
        raise DecodeError(f"sync frame claims {length} bytes, over {MAX_ENVELOPE}")
    return _SYNC_FRAME.size + length


def _line_size(buf: bytearray) -> Optional[int]:
    size = buf.find(b"\n", 0, MAX_CONTROL_LINE) + 1
    if not size and len(buf) >= MAX_CONTROL_LINE:
        raise DecodeError(f"control line runs past {MAX_CONTROL_LINE} bytes")
    return size or None


class _Stream:
    """A non-blocking stream on the loop: whole frames in, buffered bytes out.

    on_close runs once the peer closes, I/O fails, or it idles `idle` seconds.
    Reads stop at a frame's known end, so detach() leaves later bytes unread.
    """

    def __init__(
        self,
        runtime: "RealNodeRuntime",
        sock: socket.socket,
        frame_size: Callable[[bytearray], Optional[int]],
        on_frame: Callable[["_Stream", bytes], None],
        on_close: Optional[Callable[["_Stream"], None]] = None,
        idle: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.sock = sock
        self.open = True
        self._frame_size = frame_size
        self._on_frame = on_frame
        self._on_close = on_close
        self.idle = idle
        self.active = time.monotonic()
        self._in = bytearray()
        self._out: deque[tuple[memoryview, Optional[socket.socket]]] = deque()
        sock.setblocking(False)
        runtime._selector.register(sock, selectors.EVENT_READ, self._ready)
        runtime._streams.add(self)

    def _ready(self, mask: int) -> None:
        try:
            if mask & selectors.EVENT_WRITE:
                self._flush()
            if mask & selectors.EVENT_READ and self.open:
                self._read()
        except Exception:
            self.close()  # a stream whose handler failed is in an unknown state
            raise

    def _read(self) -> None:
        size = self._frame_size(self._in)
        want = COPY_CHUNK if size is None else min(size - len(self._in), COPY_CHUNK)
        try:
            chunk = self.sock.recv(want)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # a reset ends the stream like an orderly close
        if not chunk:
            self.close()
            return
        self._in += chunk
        self.active = time.monotonic()
        while self.open:
            size = self._frame_size(self._in)
            if size is None or len(self._in) < size:
                return
            frame = bytes(self._in[:size])
            del self._in[:size]
            self._on_frame(self, frame)

    def send(self, data: bytes, transport: Optional[socket.socket] = None) -> None:
        """Queue data; transport's descriptor goes along with its first byte."""
        self._out.append((memoryview(data), transport))
        self.active = time.monotonic()
        self._flush()

    def _flush(self) -> None:
        if not self.open:
            self.close()  # releases what was queued on a dead stream
            return
        while self._out:
            data, transport = self._out[0]
            try:
                if transport is None:
                    sent = self.sock.send(data)
                else:
                    sent = socket.send_fds(self.sock, [data], [transport.fileno()])
            except BlockingIOError:
                break
            except OSError:
                self.runtime.counters["send_errors"] += 1
                self.close()
                return
            if transport is not None:
                transport.close()  # the descriptor now lives with the peer
            if sent < len(data):
                self._out[0] = (data[sent:], None)
                break
            self._out.popleft()
        # A no-op unless the events change.
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)
        self.runtime._selector.modify(self.sock, events, self._ready)

    def detach(self) -> socket.socket:
        """Take the socket off the loop, blocking again, for someone else to own."""
        self.open = False
        self.runtime._streams.discard(self)
        self.runtime._selector.unregister(self.sock)
        self.sock.setblocking(True)
        return self.sock

    def close(self) -> None:
        for _data, transport in self._out:
            if transport is not None:
                transport.close()
        self._out.clear()
        if self.open:
            self.detach().close()
            if self._on_close is not None:
                self._on_close(self)


class RealNodeRuntime:
    """One selector loop around one Node and its fabric, plus splice threads."""

    def __init__(self, config: NodeConfig, run_dir: str, period_ms: int = PERIOD_MS) -> None:
        self.config = config
        self.period_ms = period_ms
        self.run_dir = Path(run_dir)
        self.running = False
        # What the loop survives: failed steps, and sends that were lost.
        # Pump errors are those other than a peer's reset or hang-up.
        self.counters = {"loop_errors": 0, "send_errors": 0, "pump_errors": 0}
        self.last_error: Optional[str] = None  # traceback of the last failed step
        self.gossip_udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.dgram_out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._tick = 0
        self._selector = selectors.DefaultSelector()
        self._streams: set[_Stream] = set()
        self._calls: deque = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._loop_thread: Optional[threading.Thread] = None
        self._app_servers: dict[str, socket.socket] = {}
        self._pump_lock = threading.Lock()
        rng = random.Random(os.urandom(16).hex())
        self.node = Node(config, new_host_id(rng), rng, self)

    # --- lifecycle ---

    def start(self) -> "RealNodeRuntime":
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "apps").mkdir(exist_ok=True)
        (self.run_dir / "node_id").write_text(self.node.host.hex() + "\n")
        bind = (str(self.config.bind.host_ip), self.config.bind.port)
        try:
            self.gossip_udp.bind(bind)
            sync_listener = _tcp_listener(bind)
        except OSError as exc:
            raise BindFailed(f"cannot bind {bind}: {exc}") from exc
        udp = self.gossip_udp
        self._watch(udp, lambda: udp.recvfrom(65535), self._on_gossip_datagram)
        self._watch(sync_listener, sync_listener.accept, self._sync_stream)
        control = _unix_listener(self.run_dir / "control.sock")
        self._watch(
            control,
            control.accept,
            lambda conn, _addr: _Stream(self, conn, _line_size, self._on_control_line),
        )
        self._watch(self._wake_r, lambda: self._wake_r.recvfrom(4096), self._run_calls)
        self._wake_w.setblocking(False)
        self.running = True
        self._loop_thread = self._thread("loop", self._loop)
        return self

    def _thread(self, role: str, target: Callable, *args) -> threading.Thread:
        name = f"appnet-{role}:{self.node.host.hex()[:6]}"
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self._wake()
        if self._loop_thread is not threading.current_thread():
            self._loop_thread.join(timeout=1.0)
        for app_id in list(self._app_servers):
            self._close_trap_server(app_id)
        (self.run_dir / "control.sock").unlink(missing_ok=True)
        closing = [key.fileobj for key in list(self._selector.get_map().values())]
        for sock in closing + [self.dgram_out, self._wake_w]:
            sock.close()
        self._selector.close()
        self._end_sessions(self.node.gateway_sessions)

    # --- the event loop ---

    def _loop(self) -> None:
        period = self.period_ms / 1000
        next_tick = time.monotonic() + period
        while self.running:
            timeout = max(0.0, next_tick - time.monotonic())
            for key, mask in self._selector.select(timeout):
                if self._selector.get_map().get(key.fd) is key:  # still watched
                    self._guard(key.data, mask)
            now = time.monotonic()
            if now >= next_tick:
                next_tick = now + period
                self._guard(self._on_tick, now)

    def _guard(self, step: Callable, *args) -> None:
        """Run one loop step; a failure is counted and kept, never fatal."""
        try:
            step(*args)
        except Exception:
            self.last_error = traceback.format_exc()  # set first: readers wait on the count
            self.counters["loop_errors"] += 1

    def _on_tick(self, now: float) -> None:
        self._tick += 1
        self._send_outbound(self.node.tick(self._tick))
        for stream in [s for s in self._streams if s.idle and now - s.active > s.idle]:
            stream.close()

    def _watch(self, sock: socket.socket, receive: Callable, handle: Callable) -> None:
        """Call handle(*receive()) on the loop whenever sock is readable."""
        def ready(_mask: int) -> None:
            try:
                got = receive()
            except BlockingIOError:
                return
            handle(*got)

        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, ready)

    def _unwatch(self, sock: socket.socket) -> None:
        with suppress(KeyError):  # never watched, or already off the loop
            self._selector.unregister(sock)
        sock.close()

    def in_loop(self, fn: Callable[[], object]) -> object:
        """Run fn on the loop thread and return its result."""
        if threading.current_thread() is self._loop_thread:
            return fn()
        if not self.running:
            raise RuntimeStopped("runtime stopped")
        box: list = []
        done = threading.Event()
        self._calls.append((fn, box, done))
        self._wake()
        while not done.wait(timeout=0.1):
            if not self.running and not done.is_set():
                raise RuntimeStopped("runtime stopped")
        if isinstance(box[0], BaseException):
            raise box[0]
        return box[0]

    def _wake(self) -> None:
        # A full buffer already holds a wake-up; a closed one means we stopped.
        with suppress(OSError):
            self._wake_w.send(b"\0")

    def _run_calls(self, _wakeups: bytes, _addr) -> None:
        # The wake-ups were drained first: a call queued now sends a fresh one.
        while self._calls:
            fn, box, done = self._calls.popleft()
            try:
                box.append(fn())
            except BaseException as exc:  # handed back to the caller
                box.append(exc)
            done.set()

    # --- the fabric: transports for the switch ---

    def bind_stream(self, on_inbound) -> tuple[RealEndpoint, Callable[[], None]]:
        listener = _tcp_listener((str(self.config.bind.host_ip), 0))

        def accepted(conn: socket.socket, _addr) -> None:
            _Stream(
                self,
                conn,
                lambda _buf: PREAMBLE_SIZE,
                lambda stream, frame: on_inbound(stream.detach(), frame),
                on_close=lambda stream: on_inbound(stream.sock, b""),
                idle=PREAMBLE_TIMEOUT,
            )

        self._watch(listener, listener.accept, accepted)
        port = listener.getsockname()[1]
        return RealEndpoint(self.config.bind.host_ip, port), partial(self._unwatch, listener)

    def bind_dgram(self, on_dgram) -> tuple[RealEndpoint, Callable[[], None]]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((str(self.config.bind.host_ip), 0))
        self._watch(sock, lambda: sock.recvfrom(65535), lambda data, _addr: on_dgram(data))
        port = sock.getsockname()[1]
        return RealEndpoint(self.config.bind.host_ip, port), partial(self._unwatch, sock)

    def connect_stream(self, dest: RealEndpoint, preamble: bytes) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(CONNECT_TIMEOUT)
        try:
            sock.connect((str(dest.host_ip), dest.port))
            sock.sendall(preamble)
        except OSError as exc:
            sock.close()
            raise ConnRefused(f"connect to {dest} failed: {exc}") from exc
        sock.settimeout(None)
        return sock

    def open_local_pair(self) -> tuple[socket.socket, socket.socket]:
        pair = socket.socketpair()
        for sock in pair:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, LOCAL_PAIR_BUFFER)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, LOCAL_PAIR_BUFFER)
        return pair

    def send_dgram(self, dest: RealEndpoint, data: bytes) -> None:
        self.dgram_out.sendto(data, (str(dest.host_ip), dest.port))

    def bind_external(self, port: int, on_conn) -> Callable[[], None]:
        try:
            listener = _tcp_listener((str(self.config.bind.host_ip), port))
        except OSError as exc:
            raise BindFailed(f"external port {port}: {exc}") from exc
        sessions: set[GatewaySession] = set()  # the open ones

        def accepted(conn: socket.socket, _addr) -> None:
            # Accepted sockets come out blocking, as the splice threads need them.
            session = on_conn(conn)
            if session is None:
                conn.close()
            else:
                self._relay(session, sessions)

        def close() -> None:
            self._unwatch(listener)
            self._end_sessions(sessions)

        self._watch(listener, listener.accept, accepted)
        return close

    # --- gossip I/O ---

    def _on_gossip_datagram(self, data: bytes, addr) -> None:
        source = RealEndpoint(IPv4Address(addr[0]), addr[1])
        self._send_outbound(self.node.on_envelope(data, source, self._tick))

    def _encoded(self, outbound):
        """(dest, kind, bytes) for each envelope of `outbound`. One over
        MAX_ENVELOPE is counted in send_errors and skipped; the rest go on."""
        for dest, env in outbound:
            try:
                yield dest, env.kind, encode_envelope(env)
            except ValueError:
                self.counters["send_errors"] += 1

    def _send_outbound(self, outbound) -> None:
        for dest, kind, data in self._encoded(outbound):
            if kind in RELIABLE_KINDS:
                self._open_sync(dest, _SYNC_FRAME.pack(len(data)) + data)
                continue
            try:
                self.gossip_udp.sendto(data, (str(dest.host_ip), dest.port))
            except OSError:
                self.counters["send_errors"] += 1

    def _open_sync(self, dest: RealEndpoint, frame: bytes) -> None:
        """Anti-entropy over a short-lived stream: send ours, merge theirs."""
        addr = (str(dest.host_ip), dest.port)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        # Ghost syncs target dead peers every period; never wait on a connect.
        if sock.connect_ex(addr) not in (0, errno.EINPROGRESS):
            sock.close()
            self.counters["send_errors"] += 1
            return
        self._sync_stream(sock, addr).send(frame)

    def _sync_stream(self, sock: socket.socket, addr: tuple[str, int]) -> _Stream:
        peer = RealEndpoint(IPv4Address(addr[0]), addr[1])

        def on_frame(stream: _Stream, frame: bytes) -> None:
            envelope = frame[_SYNC_FRAME.size :]
            for _, _, out in self._encoded(self.node.on_envelope(envelope, peer, self._tick)):
                stream.send(_SYNC_FRAME.pack(len(out)) + out)

        return _Stream(self, sock, _sync_frame_size, on_frame, idle=CONNECT_TIMEOUT)

    # --- trap channels ---

    def add_app(self, spec_args: list[str], app_id: Optional[str] = None) -> dict:
        return self.in_loop(lambda: self._add_app(spec_args, app_id))

    def _add_app(self, spec_args: list[str], app_id: Optional[str]) -> dict:
        identity = self.node.add_app(parse_app_spec(spec_args), app_id)
        app_id = identity.app_id
        path = self.run_dir / "apps" / f"{app_id}.trap"
        server = self._app_servers[app_id] = _unix_listener(path)

        def attached(conn: socket.socket, _addr) -> None:
            _Stream(
                self,
                conn,
                _trap_frame_size,
                lambda stream, frame: self._on_trap_frame(stream, app_id, frame),
                on_close=lambda _stream: self._on_trap_closed(app_id),
            )
            # One sandbox channel per app: later connects find no socket.
            self._close_trap_server(app_id)

        self._watch(server, server.accept, attached)
        return {"app_id": app_id, "vip": str(identity.effective_vip), "trap": str(path)}

    def remove_app(self, app_id: str) -> int:
        return self.in_loop(lambda: self._remove_app(app_id))

    def _remove_app(self, app_id: str) -> int:
        count = self.node.remove_app(app_id)
        self._close_trap_server(app_id)
        return count

    def _close_trap_server(self, app_id: str) -> None:
        """Stop listening for the app's channel, and remove its socket file."""
        server = self._app_servers.pop(app_id, None)
        if server is not None:
            Path(server.getsockname()).unlink(missing_ok=True)
            self._unwatch(server)

    def _on_trap_frame(self, stream: _Stream, app_id: str, frame: bytes) -> None:
        if not stream.open:
            return  # a blocked call woke after its application hung up
        try:
            request = trap.decode_request(frame)
        except DecodeError as exc:
            stream.send(trap.encode_reply(trap.error_reply(exc)))
            return
        reply, transport = self.node.dispatch_trap(app_id, request)
        if reply.status == _WOULD_BLOCK:
            # Accept and recvfrom block the application, never the loop: the
            # switch runs this frame again once the handle can answer it.
            wake = partial(self._on_trap_frame, stream, app_id, frame)
            self.node.switch.wait(app_id, request.handle, wake)
            return
        stream.send(trap.encode_reply(reply), transport)

    def _on_trap_closed(self, app_id: str) -> None:
        # The application went away; withdraw whatever it registered.
        with suppress(AppNetError):  # already removed through the control channel
            self._remove_app(app_id)

    # --- gateway relay ---

    def _relay(self, session: GatewaySession, sessions: set[GatewaySession]) -> None:
        """Splice each direction on a thread of its own. The inward thread waits
        for the outward one, then closes the sockets and drops the session."""
        sessions.add(session)
        ext, internal = session.external, session.internal
        ext_fd, int_fd = ext.fileno(), internal.fileno()
        outward = self._thread("pump-out", self._splice, int_fd, ext_fd, session, "int_to_ext")

        def inward() -> None:
            self._splice(ext_fd, int_fd, session, "ext_to_int")
            outward.join()
            with self._pump_lock:
                sessions.discard(session)
                ext.close()
                internal.close()
                session.closed = True

        self._thread("pump-in", inward)

    def _splice(self, src: int, dst: int, session: GatewaySession, counter: str) -> None:
        """Move src's bytes to dst through a pipe, in the kernel, until either
        side ends; then end the session, which wakes the other direction."""
        pipe: tuple[int, ...] = ()
        try:
            pipe = os.pipe()
            pipe_r, pipe_w = pipe
            while moved := os.splice(src, pipe_w, COPY_CHUNK):
                left = moved
                while left:
                    left -= os.splice(pipe_r, dst, left)
                # This thread is the counter's one writer.
                setattr(session, counter, getattr(session, counter) + moved)
        except (ConnectionResetError, BrokenPipeError):
            pass  # a peer reset or hung up: the session is over
        except OSError:
            with self._pump_lock:
                self.last_error = traceback.format_exc()
                self.counters["pump_errors"] += 1
        finally:
            for fd in pipe:
                os.close(fd)
            self._end_sessions([session])

    def _end_sessions(self, sessions) -> None:
        """Shut each open session's sockets down, which wakes its splice threads.
        Only they close the sockets: a descriptor number freed under a thread
        blocked in splice could go to the next accept, and take its bytes."""
        with self._pump_lock:
            for session in sessions:
                if session.closed:
                    continue
                for sock in (session.external, session.internal):
                    with suppress(OSError):  # already shut, or the peer reset it
                        sock.shutdown(socket.SHUT_RDWR)

    # --- control channel ---

    def _on_control_line(self, stream: _Stream, line: bytes) -> None:
        if not line.strip():
            return
        try:
            response = self._control_handle(json.loads(line))
        except AppNetError as exc:
            response = {"ok": False, "error": type(exc).__name__, "detail": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": "BadRequest", "detail": str(exc)}
        stream.send((json.dumps(response) + "\n").encode())

    def _control_handle(self, request: dict) -> dict:
        op = request["op"]
        if op == "ping":
            return {"ok": True, "host": self.node.host.hex()}
        if op == "add":
            return {"ok": True, **self.add_app(list(request["args"]))}
        if op == "remove":
            return {"ok": True, "tombstoned": self.remove_app(request["app_id"])}
        if op == "list":
            return {"ok": True, "dump": self.node.dump()}
        return {"ok": False, "error": "BadRequest", "detail": f"unknown op {op!r}"}


class UnixTrapChannel:
    """The application-side trap channel: the generator half of the boundary.

    Connect with the path from APPNET_TRAP_SOCKET, wrap in SocketShim, and the
    process has its virtual network; transferred descriptors arrive as
    ancillary data and come back as ordinary sockets.
    """

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.messages = 0

    def call(self, req: TrapRequest) -> tuple[TrapReply, object | None]:
        self.messages += 1
        self.sock.sendall(trap.encode_request(req))
        header, fds = self._recv_header_with_fds()
        payload = _recv_exactly(self.sock, trap.frame_payload_length(header))
        reply = trap.decode_reply(header + payload)
        for extra in fds[1:]:
            os.close(extra)
        return reply, socket.socket(fileno=fds[0]) if fds else None

    def _recv_header_with_fds(self) -> tuple[bytes, list[int]]:
        buf = bytearray()
        fds: list[int] = []
        while len(buf) < trap.HEADER_SIZE:
            data, new_fds, _, _ = socket.recv_fds(
                self.sock, trap.HEADER_SIZE - len(buf), 4
            )
            if not data:
                raise ConnectionError("trap channel closed")
            buf += data
            fds.extend(new_fds)
        return bytes(buf), fds

    def close(self) -> None:
        self.sock.close()


def connect_shim(path: Optional[str] = None) -> SocketShim:
    """The one-liner for sandboxed programs: their virtual socket API."""
    path = path or os.environ.get("APPNET_TRAP_SOCKET")
    if not path:
        raise DaemonUnreachable("APPNET_TRAP_SOCKET is not set")
    return SocketShim(UnixTrapChannel(path))


class ControlClient:
    """CLI-side JSON-lines client for the daemon's control socket."""

    def __init__(self, run_dir: str) -> None:
        self.path = Path(run_dir) / "control.sock"

    def call(self, request: dict) -> dict:
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(self.path))
        except OSError as exc:
            raise DaemonUnreachable(f"no daemon at {self.path}: {exc}") from exc
        with sock, sock.makefile("rw", encoding="utf-8") as stream:
            stream.write(json.dumps(request) + "\n")
            stream.flush()
            line = stream.readline()
        if not line:
            raise DaemonUnreachable("daemon closed the control channel")
        return json.loads(line)
