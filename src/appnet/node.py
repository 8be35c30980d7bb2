"""Per-host composition: one table, one gossip instance, the trap handler,
DNS answering, app lifecycle, and the optional gateway role.

A Node owns all mutable protocol state and expects to be driven from a single
loop: tick() once per protocol period and on_envelope() for each inbound
gossip datagram, both returning the envelopes to put on the wire. Transport
mechanics, a gateway session's bytes among them, live behind the fabric the
backend supplies, so the same class runs under the simulated clock and over
real sockets.

Exposure runs on events, with the tick as its retry. An app started with
--expose gets its gateway binding as soon as its first bind succeeds, and
the tick reconciles exposures before it probes, so a binding made on a tick
rides that tick's probes. A gateway opens a binding's listener as soon as
an envelope brings the binding to it. Only the tick withdraws: it retires a
binding whose service it no longer sees and closes listeners that lost their
binding, which ends their sessions. It also retries what an event could not
do, such as an exposure made before any gateway was known (counted in
counters["expose_errors"]), or an external port that failed to bind
(counted in counters["gateway_bind_errors"]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

from appnet import names
from appnet.errors import (
    AmbiguousName,
    AppNetError,
    AttachFailed,
    BindFailed,
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
from appnet.trap import InProcChannel, TrapOp, TrapReply, TrapRequest


@dataclass
class NodeConfig:
    bind: RealEndpoint
    join: Optional[RealEndpoint] = None
    gateway: bool = False
    strategy: SelectionStrategy = field(default_factory=SelectionStrategy)


@dataclass(eq=False)
class GatewaySession:
    binding: GatewayBinding
    external: object
    internal: object
    ext_to_int: int = 0
    int_to_ext: int = 0
    closed: bool = False  # transports closed and the counts final


@dataclass
class _Exposure:
    """A gateway's external listener for one binding, and the synthetic
    client that its sessions connect inward as, built when it opens."""

    binding: GatewayBinding
    client_id: str
    client_addr: tuple
    client_tags: TagSet
    close: Optional[Callable[[], None]] = None  # the listener's, and its sessions'


@dataclass
class _App:
    identity: AppIdentity
    expose: Union[int, str, None]
    channel: Optional[InProcChannel] = None


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
        self._external_listeners: dict[bytes, _Exposure] = {}  # by binding record id
        self.gateway_sessions: list[GatewaySession] = []
        counted = ("envelope_decode_errors", "expose_errors", "gateway_bind_errors")
        self.counters = dict.fromkeys(counted, 0)
        if config.join is not None:
            self.gossip.begin_join(config.join)

    # --- protocol driving ---

    def tick(self, now: int) -> list[Outbound]:
        self.now = now
        # Before the probes, so that a binding made here rides them.
        self._reconcile_exposures()
        out = self.gossip.tick(now)
        self.table.gc_tombstones(now)
        return out

    def on_envelope(self, data: bytes, source: RealEndpoint, now: int) -> list[Outbound]:
        self.now = now
        try:
            env = decode_envelope(data)
            # Every rumor, every delta and the digest, in either form, is
            # resolved before anything merges, so a bad one leaves this node
            # as it was.
            env.membership_rumors = [
                self.gossip.decode_rumor(item) for item in env.membership_rumors
            ]
            env.table_deltas = [self.table.decode(item) for item in env.table_deltas]
            if env.sync_digest is not None:
                env.sync_digest = self.table.read_digest(env.sync_digest)
        except DecodeError:
            self.counters["envelope_decode_errors"] += 1
            return []
        out = self.gossip.handle_envelope(env, now, source)
        if self.config.gateway and any(
            type(record) is GatewayBinding and record.gateway == self.host
            for record in env.table_deltas
        ):
            self._reconcile_gateway_listeners(withdraw=False)
        return out

    # --- app lifecycle ---

    def add_app(self, spec: AppSpec, app_id: Optional[str] = None) -> AppIdentity:
        self._app_seq += 1
        if app_id is None:
            app_id = f"{self.host.hex()[:6]}.{self._app_seq}"
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
            resolved = names.allocate_internal_ip(spec.name, self.table.name_at)
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
        reply, transport = self.switch.dispatch(app_id, req)
        if req.op is TrapOp.BIND and reply.ok:
            self._reconcile_expose_intent(self._apps[app_id])
        return reply, transport

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

    def _reconcile_exposures(self) -> None:
        for app in self._apps.values():
            self._reconcile_expose_intent(app)
        if self.config.gateway:
            self._reconcile_gateway_listeners(withdraw=True)

    def _reconcile_expose_intent(self, app: _App) -> None:
        # The app's own node holds the exposure intent; if the chosen gateway
        # dies or the binding is displaced, it simply runs expose again. Runs
        # on each of the app's binds and, as the retry, on every tick.
        if app.expose is None:
            return
        entries = self.table.entries_for_app(self.host, app.identity.app_id)
        if not entries:
            return
        key = min((e.key for e in entries), key=lambda k: k.port)
        binding = self.table.binding_for_key(key)
        if binding is not None and self._gateway_alive(binding.gateway):
            return
        try:
            self.expose(key, app.expose, admit=app.identity.spec.tags)
        except AppNetError:  # transient until membership settles
            self.counters["expose_errors"] += 1

    def _gateway_alive(self, host: HostId) -> bool:
        member = self.gossip.members.get(host)
        return member is not None and member.status is MemberStatus.ALIVE

    def _reconcile_gateway_listeners(self, withdraw: bool) -> None:
        """Listen for each active binding to this gateway whose service is
        live. With `withdraw`, as on the tick, also retire the bindings whose
        service is gone and close the listeners whose binding is."""
        wanted: list[GatewayBinding] = []
        for binding in self.table.active_bindings():
            if binding.gateway != self.host:
                continue
            if self.table.lookup(binding.key):
                wanted.append(binding)
            elif withdraw:
                # Exposure outlived its service; withdraw it.
                self.table.retire(binding.record_id, self.now)
        if withdraw:
            kept = {binding.record_id for binding in wanted}
            for record_id in list(self._external_listeners):
                if record_id not in kept:
                    exposure = self._external_listeners.pop(record_id)
                    exposure.close()
                    self.switch.forget_client(exposure.client_id)
        for binding in wanted:
            self._listen(binding)

    def _listen(self, binding: GatewayBinding) -> None:
        exposure = self._external_listeners.get(binding.record_id)
        if exposure is not None:
            if exposure.binding.version != binding.version:
                # Another write for this gateway and port won: serve that one.
                exposure.binding = binding
                exposure.client_tags = synthetic_client_tags(binding)
            return
        client_id = f"gw.{self.host.hex()[:6]}.{binding.external_port}"
        exposure = _Exposure(
            binding=binding,
            client_id=client_id,
            client_addr=(names.allocate_link_local(client_id), 0),
            client_tags=synthetic_client_tags(binding),
        )
        try:
            exposure.close = self.fabric.bind_external(
                binding.external_port, partial(self._on_external_conn, exposure)
            )
        except BindFailed:  # the port is held elsewhere: the next tick retries
            self.counters["gateway_bind_errors"] += 1
            return
        self._external_listeners[binding.record_id] = exposure

    def _on_external_conn(self, exposure: _Exposure, transport) -> Optional[GatewaySession]:
        """The session to relay for one accepted connection, or None to refuse it."""
        binding = exposure.binding
        try:
            internal = self.switch.connect_for_gateway(
                exposure.client_id,
                exposure.client_tags,
                exposure.client_addr,
                binding.key,
            )
        except AppNetError:
            return None  # upstream refusal or policy denial
        session = GatewaySession(binding=binding, external=transport, internal=internal)
        self.gateway_sessions.append(session)
        return session

    # --- bookkeeping ---

    def dump(self) -> str:
        return self.table.dump()
