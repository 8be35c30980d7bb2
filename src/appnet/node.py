"""Per-host composition: one table, one gossip instance, the trap handler,
DNS answering, app lifecycle, and the optional gateway role.

A Node owns all mutable protocol state and expects to be driven from a single
loop: tick() once per protocol period and on_envelope() for each inbound
gossip datagram, both returning the envelopes to put on the wire. Transport
mechanics live behind the fabric the backend supplies, so the same class runs
under the simulated clock and over real sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from appnet import names
from appnet.errors import (
    AmbiguousName,
    AppNetError,
    AttachFailed,
    DecodeError,
    NoSuchService,
    UnknownApp,
)
from appnet.gateway import choose_gateway, pick_external_port, synthetic_client_tags
from appnet.gossip import (
    Gossip,
    MemberRecord,
    MemberStatus,
    Outbound,
    decode_envelope,
)
from appnet.model import (
    AppIdentity,
    AppSpec,
    HostId,
    RealEndpoint,
    ServiceKey,
    TagSet,
)
from appnet.service_table import EntryState, GatewayBinding, ServiceTable
from appnet.switch import SelectionStrategy, Switch
from appnet.trap import InProcChannel, TrapReply, TrapRequest


@dataclass
class NodeConfig:
    bind: RealEndpoint
    join: Optional[RealEndpoint] = None
    gateway: bool = False
    strategy: SelectionStrategy = field(default_factory=SelectionStrategy)
    run_dir: Optional[str] = None


@dataclass
class GatewaySession:
    binding: GatewayBinding
    external: object
    internal: object
    ext_to_int: int = 0
    int_to_ext: int = 0
    closed: bool = False


@dataclass
class _App:
    identity: AppIdentity
    expose: Union[int, str, None]
    channel: Optional[InProcChannel] = None
    expose_error: Optional[str] = None


TraceSink = Callable[[str, TrapRequest, TrapReply], None]


class Node:
    def __init__(
        self,
        config: NodeConfig,
        host_id: HostId,
        rng,
        fabric,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        self.config = config
        self.host = host_id
        self.rng = rng
        self.fabric = fabric
        self.now = 0
        self.trace_sink = trace_sink
        self.table = ServiceTable(host_id)
        local = MemberRecord(
            host=host_id,
            addr=config.bind,
            status=MemberStatus.ALIVE,
            incarnation=1,
            is_gateway=config.gateway,
        )
        self.gossip = Gossip(local, self.table, rng)
        self.table.on_local_update = self.gossip.queue_delta
        self.switch = Switch(
            local_host=host_id,
            table=self.table,
            fabric=fabric,
            strategy=config.strategy,
            clock=lambda: self.now,
        )
        self._apps: dict[str, _App] = {}
        self._app_seq = 0
        self._external_listeners: dict[bytes, object] = {}  # by binding record id
        self.gateway_sessions: list[GatewaySession] = []
        # Backend hook: wire up byte pumping for a fresh gateway session.
        self.start_pump: Optional[Callable[[GatewaySession], None]] = None
        self.counters = {"envelope_decode_errors": 0}
        if config.join is not None:
            self.gossip.begin_join(config.join)

    # --- protocol driving ---

    def tick(self, now: int) -> list[Outbound]:
        self.now = now
        out = self.gossip.tick(now)
        self.table.gc_tombstones(now)
        self._reconcile_exposures(now)
        return out

    def on_envelope(self, data: bytes, source: RealEndpoint, now: int) -> list[Outbound]:
        self.now = now
        try:
            env = decode_envelope(data)
            # Every delta and digest item is resolved before anything merges,
            # so a bad one leaves this node as it was.
            env.table_deltas = [self.table.decode(item) for item in env.table_deltas]
            if env.sync_digest is not None:
                env.sync_digest = self.table.read_digest(env.sync_digest)
        except DecodeError:
            self.counters["envelope_decode_errors"] += 1
            return []
        return self.gossip.handle_envelope(env, now, source)

    # --- app lifecycle ---

    def add_app(self, spec: AppSpec, app_id: Optional[str] = None) -> AppIdentity:
        self._app_seq += 1
        if app_id is None:
            app_id = f"{self.host.hex[:6]}.{self._app_seq}"
        if app_id in self._apps:
            raise AttachFailed(f"app id {app_id} already in use on this node")
        effective_vip = self._resolve_vip(spec, app_id)
        identity = AppIdentity(
            app_id=app_id, host=self.host, spec=spec, effective_vip=effective_vip
        )
        self.switch.register_app(identity)
        self._apps[app_id] = _App(identity=identity, expose=spec.expose)
        return identity

    def _resolve_vip(self, spec: AppSpec, app_id: str):
        if spec.vip is not None:
            resolved = spec.vip
        elif spec.name is not None:
            resolved = names.allocate_internal_ip(
                spec.name, self.table.auto_allocations()
            )
        else:
            return names.allocate_link_local(app_id)
        if spec.name is not None:
            existing = self.table.lookup_name(spec.name)
            if existing is not None and existing != resolved:
                raise AmbiguousName(
                    f"name {spec.name!r} already maps to {existing}, not {resolved}"
                )
        return resolved

    def attach(self, app_id: str) -> InProcChannel:
        """Create the app's trap channel; each sandbox gets exactly one."""
        app = self._apps.get(app_id)
        if app is None:
            raise AttachFailed(f"no app {app_id} on this node")
        if app.channel is not None and not app.channel.detached:
            raise AttachFailed(f"app {app_id} already has a sandbox channel")
        app.channel = InProcChannel(app_id, self.dispatch_trap, sink=self.trace_sink)
        return app.channel

    def dispatch_trap(
        self, app_id: str, req: TrapRequest
    ) -> tuple[TrapReply, object | None]:
        return self.switch.dispatch(app_id, req)

    def remove_app(self, app_id: str) -> int:
        app = self._apps.pop(app_id, None)
        if app is None:
            raise UnknownApp(f"no app {app_id} on this node")
        if app.channel is not None:
            app.channel.detached = True
        served = self.switch.unregister_app(app_id)
        return sum(self.table.retire(record_id, self.now) for record_id in served)

    def app_ids(self) -> list[str]:
        return sorted(self._apps)

    def identity(self, app_id: str) -> AppIdentity:
        app = self._apps.get(app_id)
        if app is None:
            raise UnknownApp(f"no app {app_id} on this node")
        return app.identity

    # --- exposure / gateway ---

    def expose(
        self,
        key: ServiceKey,
        requested: Union[int, str],
        admit: Optional[TagSet] = None,
    ) -> GatewayBinding:
        gateway_host = choose_gateway(self.gossip.alive_gateways())
        entries = self.table.lookup(key)
        if not entries:
            raise NoSuchService(f"nothing live at {key} to expose")
        if admit is None:
            admit = TagSet()
            for entry in entries:
                admit = admit.union(entry.tags)
        taken = self.table.external_ports_taken(gateway_host)
        port = pick_external_port(requested, taken)
        binding = GatewayBinding(
            key=key,
            gateway=gateway_host,
            external_port=port,
            state=EntryState.ALIVE,
            incarnation=0,
            admit=admit,
        )
        return self.table.insert_binding(binding, self.now)

    def _reconcile_exposures(self, now: int) -> None:
        self._reconcile_expose_intents()
        if self.config.gateway:
            self._reconcile_gateway_listeners()

    def _reconcile_expose_intents(self) -> None:
        # The app's own node holds the exposure intent; if the chosen gateway
        # dies or the binding is displaced, it simply runs expose again.
        for app in self._apps.values():
            if app.expose is None:
                continue
            entries = self.table.entries_for_app(self.host, app.identity.app_id)
            if not entries:
                continue
            key = min((e.key for e in entries), key=lambda k: k.port)
            binding = self.table.binding_for_key(key)
            if binding is not None and self._gateway_alive(binding.gateway):
                continue
            try:
                self.expose(key, app.expose, admit=app.identity.spec.tags)
                app.expose_error = None
            except AppNetError as exc:  # transient until membership settles
                app.expose_error = str(exc)

    def _gateway_alive(self, host: HostId) -> bool:
        member = self.gossip.members.get(host)
        return member is not None and member.status is MemberStatus.ALIVE

    def _reconcile_gateway_listeners(self) -> None:
        wanted: dict[bytes, GatewayBinding] = {}
        for binding in self.table.active_bindings():
            if binding.gateway != self.host:
                continue
            if not self.table.lookup(binding.key):
                # Exposure outlived its service; withdraw it.
                self.table.retire(binding.record_id, self.now)
                self._close_sessions(binding.record_id)
                continue
            wanted[binding.record_id] = binding
        for record_id in list(self._external_listeners):
            if record_id not in wanted:
                self.fabric.close_listener(self._external_listeners.pop(record_id))
                self._close_sessions(record_id)
        for record_id, binding in wanted.items():
            if record_id not in self._external_listeners:
                token = self.fabric.bind_external(
                    binding.external_port,
                    lambda transport, b=binding: self._on_external_conn(b, transport),
                )
                self._external_listeners[record_id] = token

    def _close_sessions(self, record_id: bytes) -> None:
        for session in self.gateway_sessions:
            if session.binding.record_id == record_id and not session.closed:
                session.closed = True
                session.external.close()
                session.internal.close()

    def _on_external_conn(self, binding: GatewayBinding, transport) -> None:
        synth_id = f"gw.{self.host.hex[:6]}.{binding.external_port}"
        client_virtual = (names.allocate_link_local(synth_id), 0)
        try:
            internal, _kind = self.switch.connect_for_gateway(
                synth_id,
                synthetic_client_tags(binding),
                client_virtual,
                binding.key,
            )
        except AppNetError:
            # Upstream refusal or policy denial resets the external peer.
            transport.close()
            return
        session = GatewaySession(binding=binding, external=transport, internal=internal)
        self.gateway_sessions.append(session)
        if self.start_pump is not None:
            self.start_pump(session)

    # --- bookkeeping ---

    def dump(self) -> str:
        return self.table.dump()
