"""Trap-handler semantics: registration, policy-checked connects, identity answers.

The switch holds the node's one app registry: each app's identity and the
state of each of its handles. It resolves virtual destinations through the
service table, gates them on segmentation tags, picks an instance
client-side, and establishes the transport: a local pair when the chosen
instance lives on the same node, otherwise a stream to the instance's real
endpoint carrying an identity preamble. Once a transport
is handed to the application the switch never sees its bytes again.

Preamble wire format: magic 0x41535057 ("ASPW"), version byte, client vip
(4 bytes), client service port (2 bytes), big-endian.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Optional, Protocol

from appnet import names
from appnet.errors import (
    AddrInUse,
    AppNetError,
    AttachFailed,
    BadHandle,
    ConnRefused,
    Denied,
    MessageTooLong,
    NoSuchService,
    NotConnected,
    Unidentified,
    UnknownApp,
    WouldBlock,
)
from appnet.model import AppIdentity, HostId, RealEndpoint, ServiceKey, TagSet
from appnet.service_table import EntryState, ServiceEntry, ServiceTable
from appnet.trap import (
    MAX_DGRAM,
    Addr,
    HandleKind,
    TrapOp,
    TrapReply,
    TrapRequest,
    error_reply,
)

LOOPBACK = IPv4Network("127.0.0.0/8")

PREAMBLE_MAGIC = 0x41535057  # "ASPW"
PREAMBLE_VERSION = 0x01
_PREAMBLE = struct.Struct(">IBIH")  # magic, version, client vip, client port
PREAMBLE_SIZE = _PREAMBLE.size

POLICY_KEY = "grp"

MAX_CONNECT_ATTEMPTS = 3

DNS_PORT = 53


class StrategyMode(Enum):
    RENDEZVOUS = "rendezvous"
    ROUND_ROBIN = "rr"


@dataclass(frozen=True)
class SelectionStrategy:
    mode: StrategyMode = StrategyMode.RENDEZVOUS
    seed: int = 0


def encode_preamble(addr: Addr) -> bytes:
    return _PREAMBLE.pack(PREAMBLE_MAGIC, PREAMBLE_VERSION, int(addr[0]), addr[1])


def decode_preamble(data: bytes) -> Optional[Addr]:
    """The identity carried by a preamble, or None when there isn't one."""
    if len(data) != PREAMBLE_SIZE:
        return None
    magic, version, ip, port = _PREAMBLE.unpack(data)
    if magic != PREAMBLE_MAGIC or version != PREAMBLE_VERSION:
        return None
    return (IPv4Address(ip), port)


@dataclass(frozen=True)
class PolicyDecision:
    allowed: bool
    reason: Optional[str] = None


ALLOWED = PolicyDecision(True)


def policy_allows(client_tags: TagSet, server_tags: TagSet) -> PolicyDecision:
    """Allow unless the server declares groups the client does not share."""
    server_groups = server_tags.values(POLICY_KEY)
    if not server_groups:
        return ALLOWED
    client_groups = client_tags.values(POLICY_KEY)
    if server_groups & client_groups:
        return ALLOWED
    return PolicyDecision(
        False,
        f"no shared '{POLICY_KEY}' value: client {sorted(client_groups)} "
        f"vs server {sorted(server_groups)}",
    )


def selection_order(
    client_app_id: str,
    key: ServiceKey,
    candidates: list[ServiceEntry],
    strategy: SelectionStrategy,
    rr_counter: int = 0,
) -> list[ServiceEntry]:
    """Full preference order; connect retries walk it front to back.

    Rendezvous weighs each candidate by the 64-bit FNV-1a hash of
    "<seed>|<client>|<key>|<host hex>:<app id>"; the hash of the shared
    prefix is taken once and continued over each candidate's suffix.
    """
    if len(candidates) < 2:
        return list(candidates)
    if strategy.mode is StrategyMode.ROUND_ROBIN:
        ordered = sorted(candidates, key=lambda e: (e.host, e.app_id))
        start = rr_counter % len(ordered)
        return ordered[start:] + ordered[:start]
    prefix = names.fnv1a64(f"{strategy.seed}|{client_app_id}|{key}|".encode())
    return sorted(
        candidates,
        key=lambda e: (
            names.fnv1a64(f"{e.host.hex()}:{e.app_id}".encode(), prefix),
            e.host,
            e.app_id,
        ),
        reverse=True,
    )


class Fabric(Protocol):
    """Everything a backend supplies to its node and the node's switch.

    Inbound traffic reaches the switch as sent: a stream with the preamble
    bytes read before it (fewer when the peer stopped short), a datagram
    whole. The switch alone decodes the preamble. Each bind returns the
    call that closes its listener. An external listener's `on_conn` makes
    each connection the gateway session to relay, or None to have it
    closed. The backend relays each session until either side ends, and
    the listener's close ends every session it accepted.
    """

    def bind_stream(
        self, on_inbound: Callable[[object, bytes], None]
    ) -> tuple[RealEndpoint, Callable[[], None]]: ...

    def bind_dgram(
        self, on_dgram: Callable[[bytes], None]
    ) -> tuple[RealEndpoint, Callable[[], None]]: ...

    def bind_external(
        self, port: int, on_conn: Callable[[object], Optional[object]]
    ) -> Callable[[], None]: ...

    def connect_stream(self, dest: RealEndpoint, preamble: bytes) -> object: ...

    def open_local_pair(self) -> tuple[object, object]: ...

    def send_dgram(self, dest: RealEndpoint, data: bytes) -> None: ...


class HandleRole(Enum):
    UNBOUND = 0
    BOUND = 1
    LISTENING = 2
    CONNECTED = 3


@dataclass
class _HandleState:
    """Everything the switch knows of one virtual handle."""

    id: int
    kind: HandleKind
    role: HandleRole = HandleRole.UNBOUND
    key: Optional[ServiceKey] = None
    record_id: Optional[bytes] = None  # of the entry this handle serves
    close_listener: Optional[Callable[[], None]] = None
    # Virtual endpoints: a bind sets the local one, and a stream connect, an
    # accept or a datagram connect set both. A datagram handle with a peer
    # receives only from that peer.
    local: Optional[Addr] = None
    peer: Optional[Addr] = None
    accept_queue: deque = field(default_factory=deque)  # (transport, peer)
    recv_queue: deque = field(default_factory=deque)
    pins: dict[ServiceKey, bytes] = field(default_factory=dict)  # record ids


@dataclass
class _AppState:
    identity: AppIdentity
    handles: dict[int, _HandleState] = field(default_factory=dict)
    next_handle: int = 1

    def new_handle(self, kind: HandleKind) -> _HandleState:
        hs = self.handles[self.next_handle] = _HandleState(self.next_handle, kind)
        self.next_handle += 1
        return hs


class Switch:
    """One node's trap handler. Mutated only from the node's event loop."""

    def __init__(
        self,
        local_host: HostId,
        table: ServiceTable,
        fabric: Fabric,
        strategy: SelectionStrategy,
        clock: Callable[[], int],
    ) -> None:
        self.local_host = local_host
        self.table = table
        self.fabric = fabric
        self.strategy = strategy
        self.clock = clock
        # The node's apps, in registration order.
        self.apps: dict[str, _AppState] = {}
        # (app id, handle id) serving each local entry, by record id.
        self._local_services: dict[bytes, tuple[str, int]] = {}
        # Round-robin position per client app, then per key it connects to.
        self._rr_counters: dict[str, dict[ServiceKey, int]] = {}
        self.counters = {
            "streams_refused_unidentified": 0,
            "dgrams_dropped_unidentified": 0,
            "dgrams_dropped_filtered": 0,
            "dns_queries_dropped": 0,
            "connect_attempts_failed": 0,
        }
        # One-shot wakes a runtime registers when its accept/recvfrom gets WouldBlock.
        self._waits: dict[tuple[str, int], Callable[[], None]] = {}

    # --- app lifecycle ---

    def register_app(self, identity: AppIdentity) -> None:
        if identity.app_id in self.apps:
            raise AttachFailed(f"app id {identity.app_id} already in use on this node")
        self.apps[identity.app_id] = _AppState(identity=identity)

    def unregister_app(self, app_id: str) -> int:
        """Close every handle of an app; returns how many entries that retired."""
        state = self.apps.pop(app_id, None)
        if state is None:
            raise UnknownApp(f"no app {app_id} on this node")
        self.forget_client(app_id)
        return sum(self._close(state, hs) for hs in list(state.handles.values()))

    def forget_client(self, client_app_id: str) -> None:
        """Drop the selection state of a client that is gone: an app, or a
        gateway's synthetic client once its listener closes."""
        self._rr_counters.pop(client_app_id, None)

    # --- dispatch ---

    def dispatch(
        self, app_id: str, req: TrapRequest
    ) -> tuple[TrapReply, object | None]:
        state = self.apps.get(app_id)
        if state is None:
            return error_reply(BadHandle(f"unknown app {app_id}")), None
        try:
            return self._dispatch(state, req)
        except AppNetError as exc:
            return error_reply(exc), None

    def _dispatch(
        self, state: _AppState, req: TrapRequest
    ) -> tuple[TrapReply, object | None]:
        if req.op is TrapOp.SOCKET:
            return self._op_socket(state, req)
        hs = state.handles.get(req.handle)
        if hs is None:
            raise BadHandle(f"no handle {req.handle}")
        if req.op is TrapOp.BIND:
            return self._op_bind(state, hs, req)
        if req.op is TrapOp.LISTEN:
            return self._op_listen(hs)
        if req.op is TrapOp.CONNECT:
            return self._op_connect(state, hs, req)
        if req.op is TrapOp.ACCEPT:
            return self._op_accept(state, hs)
        if req.op in (TrapOp.GET_SOCK_NAME, TrapOp.GET_PEER_NAME):
            return self._op_name_query(hs, req.op)
        if req.op is TrapOp.SEND_TO:
            return self._op_sendto(state, hs, req)
        if req.op is TrapOp.RECV_FROM:
            return self._op_recvfrom(hs)
        if req.op is TrapOp.CLOSE:
            self._close(state, hs)
            return TrapReply(), None
        raise BadHandle(f"unhandled op {req.op}")

    # --- socket / bind / listen ---

    def _op_socket(
        self, state: _AppState, req: TrapRequest
    ) -> tuple[TrapReply, None]:
        kind = HandleKind(req.payload[0]) if req.payload else HandleKind.STREAM
        return TrapReply(handle=state.new_handle(kind).id), None

    def _op_bind(
        self, state: _AppState, hs: _HandleState, req: TrapRequest
    ) -> tuple[TrapReply, None]:
        if hs.role is not HandleRole.UNBOUND:
            raise BadHandle(f"handle {hs.id} is already {hs.role.name}")
        assert req.addr is not None
        app = state.identity
        if not app.is_identified:
            raise Unidentified(
                "an application without a name or address cannot register a service"
            )
        vip = app.effective_vip
        port = req.addr[1] or self.table.next_free_service_port(vip)
        key = ServiceKey(vip, port)
        for other in state.handles.values():
            if other.key == key:
                raise AddrInUse(f"{key} already bound by this app")
        if hs.kind is HandleKind.STREAM:
            real, close = self.fabric.bind_stream(
                lambda transport, preamble, hid=hs.id, aid=app.app_id: (
                    self._on_inbound_stream(aid, hid, transport, decode_preamble(preamble))
                )
            )
        else:
            real, close = self.fabric.bind_dgram(
                lambda data, hid=hs.id, aid=app.app_id: self._on_inbound_dgram(
                    aid, hid, decode_preamble(data[:PREAMBLE_SIZE]), data[PREAMBLE_SIZE:]
                )
            )
        entry = ServiceEntry(
            key=key,
            real=real,
            host=self.local_host,
            app_id=app.app_id,
            tags=app.spec.tags,
            name=app.spec.name,
            incarnation=0,
            state=EntryState.ALIVE,
        )
        try:
            stored = self.table.insert_local(entry, self.clock())
        except AppNetError:
            close()
            raise
        hs.key, hs.local = key, (key.vip, key.port)
        hs.record_id = stored.record_id
        hs.close_listener = close
        hs.role = HandleRole.BOUND
        self._local_services[stored.record_id] = (app.app_id, hs.id)
        return TrapReply(addr=(key.vip, key.port)), None

    def _op_listen(self, hs: _HandleState) -> tuple[TrapReply, None]:
        if hs.kind is not HandleKind.STREAM or hs.role is not HandleRole.BOUND:
            raise BadHandle("listen needs a bound stream handle")
        hs.role = HandleRole.LISTENING
        return TrapReply(), None

    # --- connect ---

    def _op_connect(
        self, state: _AppState, hs: _HandleState, req: TrapRequest
    ) -> tuple[TrapReply, object | None]:
        assert req.addr is not None
        app = state.identity
        dest_ip, dest_port = req.addr
        if dest_ip in LOOPBACK:
            # Inside a distributed application, loopback means "my own vip".
            dest_ip = app.effective_vip
        key = ServiceKey(dest_ip, dest_port)
        if hs.kind is HandleKind.DATAGRAM:
            return self._connect_dgram(state, hs, key)
        if hs.role is not HandleRole.UNBOUND:
            raise BadHandle(f"handle {hs.id} is already {hs.role.name}")
        client_virtual = self._client_virtual(state, hs)
        order = self._resolve(app.app_id, app.spec.tags, key)
        transport = self._establish(client_virtual, key, order)
        hs.local, hs.peer = client_virtual, (key.vip, key.port)
        hs.role = HandleRole.CONNECTED
        return TrapReply(handle=hs.id), transport

    def _resolve(
        self, client_app_id: str, client_tags: TagSet, key: ServiceKey
    ) -> list[ServiceEntry]:
        candidates = self.table.lookup(key)
        if not candidates:
            raise NoSuchService(f"no live instance for {key}")
        allowed, denial = [], None
        for entry in candidates:
            decision = policy_allows(client_tags, entry.tags)
            if decision.allowed:
                allowed.append(entry)
            elif denial is None:
                denial = decision.reason
        if not allowed:
            raise Denied(denial or "policy denied the connection")
        rr = 0
        if self.strategy.mode is StrategyMode.ROUND_ROBIN:
            counters = self._rr_counters.setdefault(client_app_id, {})
            rr = counters.get(key, 0)
            counters[key] = rr + 1
        return selection_order(client_app_id, key, allowed, self.strategy, rr)

    def connect_for_gateway(
        self,
        client_app_id: str,
        client_tags: TagSet,
        client_virtual: Addr,
        key: ServiceKey,
    ) -> object:
        """Inward connect on behalf of a proxied external peer."""
        order = self._resolve(client_app_id, client_tags, key)
        return self._establish(client_virtual, key, order)

    def _establish(
        self, client_virtual: Addr, key: ServiceKey, order: list[ServiceEntry]
    ) -> object:
        last_error: Optional[AppNetError] = None
        for entry in order[:MAX_CONNECT_ATTEMPTS]:
            try:
                if entry.host == self.local_host:
                    return self._connect_local(entry, client_virtual)
                return self.fabric.connect_stream(
                    entry.real, encode_preamble(client_virtual)
                )
            except AppNetError as exc:
                self.counters["connect_attempts_failed"] += 1
                last_error = exc
        raise ConnRefused(
            f"all candidates for {key} failed: {last_error}"
        ) from last_error

    def _connect_local(self, entry: ServiceEntry, client_virtual: Addr) -> object:
        # The serving handle lives in this same switch; hand it the server
        # end of a fresh local pair so the node stays off the data path.
        owner = self._local_services.get(entry.record_id)
        if owner is None:
            raise ConnRefused(f"{entry.key} is not served here anymore")
        app_id, handle_id = owner
        server_state = self.apps[app_id].handles.get(handle_id)
        if server_state is None or server_state.role is not HandleRole.LISTENING:
            raise ConnRefused(f"service handle for {entry.key} is not listening")
        client_end, server_end = self.fabric.open_local_pair()
        server_state.accept_queue.append((server_end, client_virtual))
        self._notify(app_id, handle_id)
        return client_end

    def _client_virtual(self, state: _AppState, hs: _HandleState) -> Addr:
        """The source a handle's connects and datagrams carry: its own bound
        endpoint, else its app's vip and lowest bound port, or port 0."""
        if hs.key is not None:
            return (hs.key.vip, hs.key.port)
        ports = [hs.key.port for hs in state.handles.values() if hs.key is not None]
        return (state.identity.effective_vip, min(ports) if ports else 0)

    # --- accept / name queries ---

    def _op_accept(
        self, state: _AppState, hs: _HandleState
    ) -> tuple[TrapReply, object | None]:
        if hs.role is not HandleRole.LISTENING:
            raise BadHandle("accept needs a listening handle")
        if not hs.accept_queue:
            raise WouldBlock("no pending connection")
        transport, peer = hs.accept_queue.popleft()
        conn = state.new_handle(HandleKind.STREAM)
        conn.role = HandleRole.CONNECTED
        conn.local, conn.peer = hs.local, peer
        return TrapReply(handle=conn.id, addr=peer), transport

    def _op_name_query(self, hs: _HandleState, op: TrapOp) -> tuple[TrapReply, None]:
        addr = hs.local if op is TrapOp.GET_SOCK_NAME else hs.peer
        if addr is None:
            raise NotConnected(f"handle {hs.id} has no established peer")
        return TrapReply(addr=addr), None

    # --- datagrams ---

    def _connect_dgram(
        self, state: _AppState, hs: _HandleState, key: ServiceKey
    ) -> tuple[TrapReply, None]:
        """Connected UDP: pin the selection and filter inbound to that peer."""
        order = self._resolve(state.identity.app_id, state.identity.spec.tags, key)
        hs.pins[key] = order[0].record_id
        hs.local, hs.peer = self._client_virtual(state, hs), (key.vip, key.port)
        return TrapReply(handle=hs.id), None

    def _op_sendto(
        self, state: _AppState, hs: _HandleState, req: TrapRequest
    ) -> tuple[TrapReply, None]:
        if hs.kind is not HandleKind.DATAGRAM:
            raise BadHandle("sendto needs a datagram handle")
        assert req.addr is not None
        if len(req.payload) > MAX_DGRAM:
            raise MessageTooLong(f"{len(req.payload)} bytes exceeds {MAX_DGRAM}")
        app = state.identity
        dest_ip, dest_port = req.addr
        if dest_ip in LOOPBACK:
            dest_ip = app.effective_vip
        if dest_port == DNS_PORT:
            self._answer_dns(state, hs, (dest_ip, dest_port), req.payload)
            return TrapReply(), None
        key = ServiceKey(dest_ip, dest_port)
        entry = self._pinned_entry(state, hs, key)
        source = self._client_virtual(state, hs)
        if entry.host == self.local_host:
            owner = self._local_services.get(entry.record_id)
            if owner is None:
                raise NoSuchService(f"{key} is not served here anymore")
            self._on_inbound_dgram(owner[0], owner[1], source, req.payload)
        else:
            self.fabric.send_dgram(
                entry.real, encode_preamble(source) + req.payload
            )
        return TrapReply(), None

    def _pinned_entry(
        self, state: _AppState, hs: _HandleState, key: ServiceKey
    ) -> ServiceEntry:
        pinned = hs.pins.get(key)
        if pinned is not None:
            for entry in self.table.lookup(key):
                if entry.record_id == pinned:
                    return entry
            del hs.pins[key]  # pinned instance is gone; select afresh
        order = self._resolve(state.identity.app_id, state.identity.spec.tags, key)
        hs.pins[key] = order[0].record_id
        return order[0]

    def _answer_dns(
        self, state: _AppState, hs: _HandleState, dest: Addr, query: bytes
    ) -> None:
        # Resolver traffic never leaves the node: port 53 datagrams are
        # answered from the local table, overriding any upstream view.
        def resolve(name: str) -> Optional[IPv4Address]:
            return self.table.lookup_name(name)

        try:
            response = names.dns_answer(query, resolve)
        except AppNetError:
            self.counters["dns_queries_dropped"] += 1
            return
        hs.recv_queue.append((dest, response))
        self._notify(state.identity.app_id, hs.id)

    def _op_recvfrom(self, hs: _HandleState) -> tuple[TrapReply, None]:
        if hs.kind is not HandleKind.DATAGRAM:
            raise BadHandle("recvfrom needs a datagram handle")
        while hs.recv_queue:
            source, payload = hs.recv_queue.popleft()
            if hs.peer is not None and source != hs.peer:
                self.counters["dgrams_dropped_filtered"] += 1
                continue
            return TrapReply(addr=source, payload=payload), None
        raise WouldBlock("no datagram queued")

    # --- close ---

    def _close(self, state: _AppState, hs: _HandleState) -> bool:
        """Close a handle's listener and the connections queued on it, retire
        the entry it served and wake its waiter; returns whether an entry was
        retired. Like a kernel closing a listen socket, this resets the
        connections the app never accepted."""
        if hs.close_listener is not None:
            hs.close_listener()
        while hs.accept_queue:
            hs.accept_queue.popleft()[0].close()
        retired = False
        if hs.record_id is not None:
            self._local_services.pop(hs.record_id, None)
            retired = self.table.retire(hs.record_id, self.clock())
        del state.handles[hs.id]
        self._notify(state.identity.app_id, hs.id)
        return retired

    # --- inbound from the fabric ---

    def _on_inbound_stream(
        self, app_id: str, handle_id: int, transport, peer: Optional[Addr]
    ) -> None:
        hs = self._handle_or_none(app_id, handle_id)
        if hs is None or hs.role is not HandleRole.LISTENING or peer is None:
            # Unidentified or unexpected arrivals never reach the application.
            self.counters["streams_refused_unidentified"] += 1
            transport.close()
            return
        hs.accept_queue.append((transport, peer))
        self._notify(app_id, handle_id)

    def _on_inbound_dgram(
        self, app_id: str, handle_id: int, peer: Optional[Addr], payload: bytes
    ) -> None:
        hs = self._handle_or_none(app_id, handle_id)
        if hs is None or peer is None:
            self.counters["dgrams_dropped_unidentified"] += 1
            return
        hs.recv_queue.append((peer, payload))
        self._notify(app_id, handle_id)

    def _handle_or_none(self, app_id: str, handle_id: int) -> Optional[_HandleState]:
        state = self.apps.get(app_id)
        if state is None:
            return None
        return state.handles.get(handle_id)

    def wait(self, app_id: str, handle_id: int, wake: Callable[[], None]) -> None:
        """After WouldBlock: call wake once the handle can deliver, or it or its app is gone."""
        self._waits[(app_id, handle_id)] = wake

    def _notify(self, app_id: str, handle_id: int) -> None:
        wake = self._waits.pop((app_id, handle_id), None)
        if wake is not None:
            wake()

    # --- views for tests and the harness ---

    def pending_accepts(self, app_id: str, handle_id: int) -> int:
        hs = self._handle_or_none(app_id, handle_id)
        return len(hs.accept_queue) if hs else 0
