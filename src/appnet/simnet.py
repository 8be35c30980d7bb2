"""In-memory network substrate for deterministic multi-node runs.

Datagrams are scheduled onto a global queue with seeded loss and latency
measured in ticks; latency zero means delivery within the same tick's pump.
Streams are synchronous paired pipes: bytes written land immediately in the
peer's buffer (or its sink), so byte conservation holds by construction.
Partitions and crashes break both message delivery and established streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import Callable, Optional

from appnet.errors import ConnRefused
from appnet.model import RealEndpoint

GOSSIP_PORT = 7946
EPHEMERAL_BASE = 40000


@dataclass
class NetProfile:
    loss: float = 0.0
    latency: tuple[int, int] = (0, 0)


class SimStream:
    """One endpoint of a paired in-memory stream."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.peer: Optional[SimStream] = None
        self._buffer = bytearray()
        self._sink: Optional[Callable[[bytes], None]] = None
        self._on_eof: Optional[Callable[[], None]] = None
        self.closed = False
        self.broken = False
        self.peer_closed = False

    @classmethod
    def pair(cls, label: str = "") -> tuple["SimStream", "SimStream"]:
        a, b = cls(label + ".a"), cls(label + ".b")
        a.peer, b.peer = b, a
        return a, b

    def write(self, data: bytes) -> int:
        if self.closed or self.broken or self.peer is None or self.peer.closed:
            raise BrokenPipeError(f"stream {self.label} is not writable")
        self.peer._deliver(bytes(data))
        return len(data)

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        if self._sink is not None:
            self._sink(data)
        else:
            self._buffer += data

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Drain buffered bytes; empty result means nothing is pending."""
        if max_bytes is None or max_bytes >= len(self._buffer):
            data = bytes(self._buffer)
            self._buffer.clear()
        else:
            data = bytes(self._buffer[:max_bytes])
            del self._buffer[:max_bytes]
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
        if self.peer is not None and not self.peer.closed:
            self.peer._peer_went_away()

    def _peer_went_away(self) -> None:
        self.peer_closed = True
        if self._on_eof is not None:
            self._on_eof()

    def break_pipe(self) -> None:
        """Partition or crash: both directions die immediately."""
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


@dataclass(order=True)
class _InFlight:
    due: int
    seq: int
    dest: RealEndpoint = field(compare=False)
    data: bytes = field(compare=False)
    source: RealEndpoint = field(compare=False)


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
        self._external_listeners: dict[RealEndpoint, Callable[[SimStream], None]] = {}
        self._queue: list[_InFlight] = []
        self._seq = 0
        self._partitions: list[tuple[frozenset[IPv4Address], frozenset[IPv4Address]]] = []
        self._streams: list[tuple[IPv4Address, IPv4Address, SimStream]] = []
        self.counters = {"lost": 0, "dropped_dead": 0, "dropped_partition": 0}

    # --- topology ---

    def register_node(self, host_ip: IPv4Address) -> None:
        self.nodes[host_ip] = _NodeSlot(host_ip=host_ip)

    def allocate_port(self, host_ip: IPv4Address) -> int:
        slot = self.nodes[host_ip]
        slot.next_port += 1
        return slot.next_port

    def crash_node(self, host_ip: IPv4Address) -> None:
        slot = self.nodes.get(host_ip)
        if slot is None or not slot.alive:
            return
        slot.alive = False
        for registry in (self._dgram_listeners, self._stream_listeners, self._external_listeners):
            for endpoint in [e for e in registry if e.host_ip == host_ip]:
                del registry[endpoint]
        for a, b, stream in self._streams:
            if host_ip in (a, b):
                stream.break_pipe()

    def is_alive(self, host_ip: IPv4Address) -> bool:
        slot = self.nodes.get(host_ip)
        return slot is not None and slot.alive

    def partition(self, side_a: set[IPv4Address], side_b: set[IPv4Address]) -> None:
        self._partitions.append((frozenset(side_a), frozenset(side_b)))
        for a, b, stream in self._streams:
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
    ) -> None:
        self._dgram_listeners[endpoint] = cb

    def unlisten_dgram(self, endpoint: RealEndpoint) -> None:
        self._dgram_listeners.pop(endpoint, None)

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
        heapq.heappush(
            self._queue, _InFlight(now + delay, self._seq, dest, data, source)
        )
        return True

    def pump(self, now: int) -> int:
        """Deliver everything due by `now`, including same-tick replies."""
        delivered = 0
        guard = 0
        while self._queue and self._queue[0].due <= now:
            guard += 1
            if guard > 100_000:
                raise RuntimeError("message pump did not quiesce")
            item = heapq.heappop(self._queue)
            if self.blocked(item.source.host_ip, item.dest.host_ip):
                self.counters["dropped_partition"] += 1
                continue
            if not self.is_alive(item.dest.host_ip):
                self.counters["dropped_dead"] += 1
                continue
            cb = self._dgram_listeners.get(item.dest)
            if cb is None:
                self.counters["dropped_dead"] += 1
                continue
            cb(item.data, item.source)
            delivered += 1
        return delivered

    # --- streams ---

    def listen_stream(
        self,
        endpoint: RealEndpoint,
        cb: Callable[[SimStream, bytes], None],
    ) -> None:
        self._stream_listeners[endpoint] = cb

    def unlisten_stream(self, endpoint: RealEndpoint) -> None:
        self._stream_listeners.pop(endpoint, None)

    def connect_stream(
        self, source_ip: IPv4Address, dest: RealEndpoint, preamble: bytes
    ) -> SimStream:
        if self.blocked(source_ip, dest.host_ip):
            raise ConnRefused(f"{dest} unreachable from {source_ip}")
        if not self.is_alive(dest.host_ip):
            raise ConnRefused(f"{dest.host_ip} is down")
        cb = self._stream_listeners.get(dest)
        if cb is None:
            raise ConnRefused(f"nothing listening at {dest}")
        client_end, server_end = SimStream.pair(f"{source_ip}->{dest}")
        self._streams.append((source_ip, dest.host_ip, client_end))
        cb(server_end, preamble)
        return client_end

    # --- the external world (unmanaged clients hitting gateways) ---

    def listen_external(
        self, endpoint: RealEndpoint, cb: Callable[[SimStream], None]
    ) -> None:
        self._external_listeners[endpoint] = cb

    def unlisten_external(self, endpoint: RealEndpoint) -> None:
        self._external_listeners.pop(endpoint, None)

    def external_connect(self, dest: RealEndpoint) -> SimStream:
        if not self.is_alive(dest.host_ip):
            raise ConnRefused(f"{dest.host_ip} is down")
        cb = self._external_listeners.get(dest)
        if cb is None:
            raise ConnRefused(f"no exposure at {dest}")
        client_end, server_end = SimStream.pair(f"ext->{dest}")
        cb(server_end)
        return client_end


class SimFabric:
    """Transport backend handed to one simulated node's switch."""

    def __init__(self, network: SimNetwork, host_ip: IPv4Address, clock: Callable[[], int]) -> None:
        self.network = network
        self.host_ip = host_ip
        self.clock = clock

    def bind_stream(self, on_inbound) -> tuple[RealEndpoint, object]:
        endpoint = RealEndpoint(self.host_ip, self.network.allocate_port(self.host_ip))
        self.network.listen_stream(endpoint, on_inbound)
        return endpoint, ("stream", endpoint)

    def bind_dgram(self, on_dgram) -> tuple[RealEndpoint, object]:
        endpoint = RealEndpoint(self.host_ip, self.network.allocate_port(self.host_ip))
        self.network.listen_dgram(endpoint, lambda data, _source: on_dgram(data))
        return endpoint, ("dgram", endpoint)

    def close_listener(self, token) -> None:
        kind, endpoint = token
        if kind == "stream":
            self.network.unlisten_stream(endpoint)
        elif kind == "dgram":
            self.network.unlisten_dgram(endpoint)
        else:
            self.network.unlisten_external(endpoint)

    def connect_stream(self, dest: RealEndpoint, preamble: bytes) -> SimStream:
        return self.network.connect_stream(self.host_ip, dest, preamble)

    def open_local_pair(self) -> tuple[SimStream, SimStream]:
        return SimStream.pair(f"{self.host_ip}.local")

    def send_dgram(self, dest: RealEndpoint, data: bytes) -> None:
        source = RealEndpoint(self.host_ip, 0)
        self.network.send_dgram(source, dest, data, self.clock())

    def bind_external(self, port: int, on_conn) -> object:
        endpoint = RealEndpoint(self.host_ip, port)
        self.network.listen_external(endpoint, on_conn)
        return ("external", endpoint)
