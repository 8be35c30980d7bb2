"""In-memory network substrate for deterministic multi-node runs.

Datagrams are scheduled onto a global queue with seeded loss and latency
measured in ticks; latency zero means delivery within the same tick's pump.
Streams are synchronous paired pipes: bytes written land immediately in the
peer's buffer (or its sink), so byte conservation holds by construction.
Every stream is made and tracked the same way: one between hosts, a
same-host pair and an external client's alike. Partitions and crashes break
both message delivery and the open streams they cut.
"""

from __future__ import annotations

import heapq
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from ipaddress import IPv4Address
from typing import Callable, Optional

from appnet.errors import BindFailed, ConnRefused
from appnet.model import RealEndpoint

GOSSIP_PORT = 7946
EPHEMERAL_BASE = 40000


@dataclass
class NetProfile:
    loss: float = 0.0
    latency: tuple[int, int] = (0, 0)


class SimStream:
    """One endpoint, "a" or "b", of a paired in-memory stream from `source` to
    `dest`. `untrack` takes the pair off its network's list of open streams;
    either end's close, or the pair breaking, calls it."""

    def __init__(self, source: object, dest: object, end: str, untrack: Callable[[], None]) -> None:
        self.source = source
        self.dest = dest
        self.end = end
        self._untrack = untrack
        self.peer: Optional[SimStream] = None
        self._buffer = bytearray()
        self._sink: Optional[Callable[[bytes], None]] = None
        self._on_eof: Optional[Callable[[], None]] = None
        self.closed = False
        self.broken = False
        self.peer_closed = False

    @classmethod
    def pair(
        cls, source: object, dest: object, untrack: Callable[[], None]
    ) -> tuple["SimStream", "SimStream"]:
        a, b = cls(source, dest, "a", untrack), cls(source, dest, "b", untrack)
        a.peer, b.peer = b, a
        return a, b

    def write(self, data: bytes) -> int:
        if self.closed or self.broken or self.peer is None or self.peer.closed:
            # The route is formatted only here, not on every connect.
            raise BrokenPipeError(
                f"stream {self.source}->{self.dest}.{self.end} is not writable"
            )
        self.peer._deliver(bytes(data))
        return len(data)

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        if self._sink is not None:
            self._sink(data)
        else:
            self._buffer += data

    def read(self) -> bytes:
        """Drain buffered bytes; empty result means nothing is pending."""
        data = bytes(self._buffer)
        self._buffer.clear()
        return data

    def set_sink(
        self,
        on_data: Callable[[bytes], None],
        on_eof: Optional[Callable[[], None]] = None,
    ) -> None:
        """Route future (and already-buffered) bytes into a callback."""
        self._sink = on_data
        self._on_eof = on_eof
        if self._buffer:
            pending = bytes(self._buffer)
            self._buffer.clear()
            on_data(pending)
        if (self.peer_closed or self.broken) and on_eof is not None:
            on_eof()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._untrack()
        if self.peer is not None and not self.peer.closed:
            self.peer._peer_went_away()

    def _peer_went_away(self) -> None:
        self.peer_closed = True
        if self._on_eof is not None:
            self._on_eof()

    def break_pipe(self) -> None:
        """Partition or crash: both directions die immediately."""
        self._untrack()
        for end in (self, self.peer):
            if end is not None and not end.broken:
                end.broken = True
                if end._on_eof is not None:
                    end._on_eof()


@dataclass
class _NodeSlot:
    host_ip: IPv4Address
    alive: bool = True
    next_port: int = EPHEMERAL_BASE + 1


class SimNetwork:
    def __init__(self, rng, profile: NetProfile | None = None) -> None:
        self.rng = rng
        self.profile = profile or NetProfile()
        self.nodes: dict[IPv4Address, _NodeSlot] = {}
        self._dgram_listeners: dict[
            RealEndpoint, Callable[[bytes, RealEndpoint], None]
        ] = {}
        self._stream_listeners: dict[
            RealEndpoint, Callable[[SimStream, bytes], None]
        ] = {}
        # (due, seq, dest, data, source) per datagram in flight; seq is
        # unique, so the heap orders by due tick, then by send order.
        self._queue: list[tuple[int, int, RealEndpoint, bytes, RealEndpoint]] = []
        self._seq = 0
        self._partitions: list[tuple[frozenset[IPv4Address], frozenset[IPv4Address]]] = []
        # The client end of each open pair, in the order the pairs were made,
        # and the hosts of its two ends; "ext" for an external client.
        self._streams: dict[SimStream, tuple[object, IPv4Address]] = {}
        self.counters = {"lost": 0, "dropped_dead": 0, "dropped_partition": 0}

    # --- topology ---

    def register_node(self, host_ip: IPv4Address) -> None:
        self.nodes[host_ip] = _NodeSlot(host_ip=host_ip)

    def allocate_port(self, host_ip: IPv4Address) -> int:
        slot = self.nodes[host_ip]
        slot.next_port += 1
        while RealEndpoint(host_ip, slot.next_port) in self._stream_listeners:
            slot.next_port += 1
        return slot.next_port

    def crash_node(self, host_ip: IPv4Address) -> None:
        slot = self.nodes.get(host_ip)
        if slot is None or not slot.alive:
            return
        slot.alive = False
        for registry in (self._dgram_listeners, self._stream_listeners):
            for endpoint in [e for e in registry if e.host_ip == host_ip]:
                del registry[endpoint]
        for stream, (a, b) in list(self._streams.items()):
            if host_ip in (a, b):
                stream.break_pipe()

    def is_alive(self, host_ip: IPv4Address) -> bool:
        slot = self.nodes.get(host_ip)
        return slot is not None and slot.alive

    def partition(self, side_a: set[IPv4Address], side_b: set[IPv4Address]) -> None:
        self._partitions.append((frozenset(side_a), frozenset(side_b)))
        for stream, (a, b) in list(self._streams.items()):
            if self.blocked(a, b):
                stream.break_pipe()

    def heal(self) -> None:
        self._partitions.clear()

    def blocked(self, a: IPv4Address, b: IPv4Address) -> bool:
        for side_a, side_b in self._partitions:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return True
        return False

    # --- datagrams ---

    def listen_dgram(
        self, endpoint: RealEndpoint, cb: Callable[[bytes, RealEndpoint], None]
    ) -> Callable[[], None]:
        self._dgram_listeners[endpoint] = cb
        return partial(self._dgram_listeners.pop, endpoint, None)

    def send_dgram(
        self,
        source: RealEndpoint,
        dest: RealEndpoint,
        data: bytes,
        now: int,
        reliable: bool = False,
    ) -> bool:
        """Schedule a datagram; returns False when loss or topology ate it."""
        if self.blocked(source.host_ip, dest.host_ip):
            self.counters["dropped_partition"] += 1
            return False
        if not reliable and self.rng.random() < self.profile.loss:
            self.counters["lost"] += 1
            return False
        lo, hi = self.profile.latency
        delay = self.rng.randint(lo, hi) if hi > lo else lo
        self._seq += 1
        heapq.heappush(self._queue, (now + delay, self._seq, dest, data, source))
        return True

    def pump(self, now: int) -> int:
        """Deliver everything due by `now`, including same-tick replies."""
        delivered = 0
        guard = 0
        while self._queue and self._queue[0][0] <= now:
            guard += 1
            if guard > 100_000:
                raise RuntimeError("message pump did not quiesce")
            _, _, dest, data, source = heapq.heappop(self._queue)
            if self.blocked(source.host_ip, dest.host_ip):
                self.counters["dropped_partition"] += 1
                continue
            if not self.is_alive(dest.host_ip):
                self.counters["dropped_dead"] += 1
                continue
            cb = self._dgram_listeners.get(dest)
            if cb is None:
                self.counters["dropped_dead"] += 1
                continue
            cb(data, source)
            delivered += 1
        return delivered

    # --- streams ---

    def listen_stream(
        self, endpoint: RealEndpoint, cb: Callable[[SimStream, bytes], None]
    ) -> Callable[[], None]:
        """Both a service's listener and a gateway's external port; one that
        is already held is not taken over."""
        if endpoint in self._stream_listeners:
            raise BindFailed(f"{endpoint} is already listening")
        self._stream_listeners[endpoint] = cb
        return partial(self._stream_listeners.pop, endpoint, None)

    def connect_stream(
        self, source_ip: object, dest: RealEndpoint, preamble: bytes
    ) -> SimStream:
        """A connect from a host, or from "ext", an external client on no
        partition's side."""
        if self.blocked(source_ip, dest.host_ip):
            raise ConnRefused(f"{dest} unreachable from {source_ip}")
        if not self.is_alive(dest.host_ip):
            raise ConnRefused(f"{dest.host_ip} is down")
        cb = self._stream_listeners.get(dest)
        if cb is None:
            raise ConnRefused(f"nothing listening at {dest}")
        client_end, server_end = self.open_pair(source_ip, dest.host_ip, dest)
        cb(server_end, preamble)
        return client_end

    def open_pair(
        self, source_ip: object, dest_ip: IPv4Address, dest: object
    ) -> tuple[SimStream, SimStream]:
        """A pair from `source_ip` to `dest` on `dest_ip`, kept on the list of
        open streams, which a crash or partition breaks, until it ends."""
        client_end, server_end = SimStream.pair(
            source_ip, dest, lambda: self._streams.pop(client_end, None)
        )
        self._streams[client_end] = (source_ip, dest_ip)
        return client_end, server_end


class SimFabric:
    """Transport backend handed to one simulated node's switch."""

    def __init__(self, network: SimNetwork, host_ip: IPv4Address, clock: Callable[[], int]) -> None:
        self.network = network
        self.host_ip = host_ip
        self.clock = clock

    def bind_stream(self, on_inbound) -> tuple[RealEndpoint, Callable[[], None]]:
        endpoint = RealEndpoint(self.host_ip, self.network.allocate_port(self.host_ip))
        return endpoint, self.network.listen_stream(endpoint, on_inbound)

    def bind_dgram(self, on_dgram) -> tuple[RealEndpoint, Callable[[], None]]:
        endpoint = RealEndpoint(self.host_ip, self.network.allocate_port(self.host_ip))
        return endpoint, self.network.listen_dgram(endpoint, lambda data, _source: on_dgram(data))

    def connect_stream(self, dest: RealEndpoint, preamble: bytes) -> SimStream:
        return self.network.connect_stream(self.host_ip, dest, preamble)

    def open_local_pair(self) -> tuple[SimStream, SimStream]:
        # Addressed to "local", which is how the harness tells it from a remote one.
        return self.network.open_pair(self.host_ip, self.host_ip, "local")

    def send_dgram(self, dest: RealEndpoint, data: bytes) -> None:
        source = RealEndpoint(self.host_ip, 0)
        self.network.send_dgram(source, dest, data, self.clock())

    def bind_external(self, port: int, on_conn) -> Callable[[], None]:
        """Relay each accepted session in place: each stream's bytes are counted
        and written to the other, and either stream's end ends both."""
        sessions: list = []  # the open ones; a list, so close ends them in accept order

        def relay(session, dest: SimStream, counter: str, data: bytes) -> None:
            setattr(session, counter, getattr(session, counter) + len(data))
            with suppress(BrokenPipeError):
                dest.write(data)

        def end(session) -> None:
            if not session.closed:
                session.closed = True
                sessions.remove(session)
                session.external.close()
                session.internal.close()

        def accepted(external: SimStream, _preamble: bytes) -> None:
            session = on_conn(external)
            if session is None:
                external.close()
                return
            sessions.append(session)
            internal, ended = session.internal, partial(end, session)
            external.set_sink(partial(relay, session, internal, "ext_to_int"), on_eof=ended)
            internal.set_sink(partial(relay, session, external, "int_to_ext"), on_eof=ended)

        stop_listening = self.network.listen_stream(RealEndpoint(self.host_ip, port), accepted)

        def close() -> None:
            stop_listening()
            for session in list(sessions):
                end(session)

        return close
