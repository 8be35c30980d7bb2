"""Deterministic in-process clusters driven by line-oriented scripts.

Script format, one event per line (blank lines and '#' comments ignored):

    seed 42
    profile loss=0.1 latency=0,2
    tick 0 start n1 [join=<label>] [gateway] [strategy=rr|rendezvous] [ip=<a.b.c.d>]
    tick 1 add <node> <app> [--name N] [--ip A] [--tag k=v]... [--expose [port]]
    tick 2 serve <app> <port>
    tick 3 connect <node>:<app> <vip>:<port>|name:<name>:<port>
                  [expect=ok|denied|nosuchservice|connrefused] [channel=local|remote]
    tick 4 transfer <app> <bytes>         # echo round-trip on the app's last connect
    tick 3 resolve <node>:<app> <name> [expect=<vip>|nxdomain]
    tick 4 rawconnect <node> <vip>:<port> [expect=refused]
    tick 4 extconnect <gateway-node> <port> [expect=ok|refused]
    tick 5 exttransfer <gateway-node> <bytes>
    tick 5 crash <node> | remove <app> | partition a,b|c,d | heal
    tick 6 assert <predicate> <args>...

Each tick runs in fixed phases: pending deliveries, node protocol ticks,
same-tick message chains, app steps, then script events. An app step drains
the accepts of each serving handle, then waits on it via Switch.wait().
The same seed and script always produce a byte-identical JSONL trace.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial
from ipaddress import IPv4Address
from itertools import zip_longest
from typing import Optional

from appnet import names
from appnet.errors import AppNetError, AssertionFailed, ConnRefused, ScriptError, WouldBlock
from appnet.gossip import RELIABLE_KINDS, encode_envelope
from appnet.model import (
    HostId,
    RealEndpoint,
    ServiceKey,
    new_host_id,
    parse_app_spec,
    parse_endpoint,
)
from appnet.node import Node, NodeConfig
from appnet.simnet import GOSSIP_PORT, NetProfile, SimFabric, SimNetwork, SimStream
from appnet.switch import SelectionStrategy, StrategyMode
from appnet.trap import HandleKind, InProcChannel, SocketShim, TrapOp, TrapReply, TrapRequest

TRANSFER_CHUNK = 1 << 20

# Nodes started without an ip are numbered up from here: 10.0.0.1 onwards.
_FIRST_HOST_IP = IPv4Address("10.0.0.0")

_OP_NAMES = {op: op.name.lower() for op in TrapOp}  # as trap trace events spell them


@dataclass
class ScriptEvent:
    tick: int
    action: str
    args: list[str]


@dataclass
class ClusterScript:
    seed: int = 0
    profile: NetProfile = field(default_factory=NetProfile)
    events: list[ScriptEvent] = field(default_factory=list)

    def last_tick(self) -> int:
        return max((e.tick for e in self.events), default=0)


def parse_script(text: str) -> ClusterScript:
    script = ClusterScript()
    last_tick = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "seed":
            script.seed = _int_field(parts[1], lineno)
            continue
        if parts[0] == "profile":
            script.profile = _parse_profile(parts[1:], lineno)
            continue
        if parts[0] != "tick" or len(parts) < 3:
            raise ScriptError(f"line {lineno}: expected 'tick <n> <action> ...'")
        tick = _int_field(parts[1], lineno)
        if tick < last_tick:
            raise ScriptError(f"line {lineno}: ticks must not decrease")
        last_tick = tick
        script.events.append(ScriptEvent(tick=tick, action=parts[2], args=parts[3:]))
    return script


def _int_field(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ScriptError(f"line {lineno}: expected an integer, got {text!r}") from exc


def _parse_profile(args: list[str], lineno: int) -> NetProfile:
    profile = NetProfile()
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise ScriptError(f"line {lineno}: bad profile arg {arg!r}")
        if key == "loss":
            profile.loss = float(value)
        elif key == "latency":
            lo, _, hi = value.partition(",")
            profile.latency = (int(lo), int(hi or lo))
        else:
            raise ScriptError(f"line {lineno}: unknown profile key {key!r}")
    return profile


def render_script(script: ClusterScript) -> str:
    lines = [f"seed {script.seed}"]
    if script.profile.loss or script.profile.latency != (0, 0):
        lo, hi = script.profile.latency
        lines.append(f"profile loss={script.profile.loss} latency={lo},{hi}")
    for event in script.events:
        lines.append(f"tick {event.tick} {event.action} {' '.join(event.args)}".rstrip())
    return "\n".join(lines) + "\n"


class Trace:
    def __init__(self) -> None:
        self.events: list[dict] = []

    def add(self, **event) -> None:
        self.events.append(event)

    def of_type(self, kind: str) -> list[dict]:
        return [e for e in self.events if e.get("event") == kind]

    def jsonl(self) -> str:
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) for e in self.events
        ) + ("\n" if self.events else "")


@dataclass
class _NodeRt:
    label: str
    node: Node
    host_ip: IPv4Address

    @property
    def gossip_addr(self) -> RealEndpoint:
        return RealEndpoint(self.host_ip, GOSSIP_PORT)


class _App:
    """A scripted application: passive echo server and/or scripted client."""

    def __init__(self, label: str, node_rt: _NodeRt, shim: SocketShim, identity) -> None:
        self.label = label
        self.node_rt = node_rt
        self.shim = shim
        self.identity = identity
        self.switch = node_rt.node.switch
        self.serving: list[int] = []
        self.dgram_handle: Optional[int] = None
        self.last_transport: Optional[SimStream] = None
        self.accepted: list[SimStream] = []
        self.waiting: set[int] = set()  # serving handles the switch will wake

    def step(self) -> None:
        for handle in self.serving:
            if handle in self.waiting:
                continue
            while True:
                try:
                    conn_handle, _peer, transport = self.shim.accept(handle)
                except WouldBlock:
                    break
                self.shim.getsockname(conn_handle)
                self.shim.getpeername(conn_handle)
                assert isinstance(transport, SimStream)
                transport.set_sink(
                    lambda data, t=transport: _echo(t, data),
                    on_eof=transport.close,
                )
                self.accepted.append(transport)
            self.waiting.add(handle)
            self.switch.wait(self.identity.app_id, handle, partial(self.waiting.discard, handle))


def _echo(transport: SimStream, data: bytes) -> None:
    try:
        transport.write(data)
    except BrokenPipeError:
        pass


class SimCluster:
    """Builds and steps nodes over one SimNetwork with a logical clock."""

    def __init__(self, seed: int = 0, profile: NetProfile | None = None) -> None:
        self.seed = seed
        self.network = SimNetwork(
            random.Random(f"{seed}:net"), profile or NetProfile()
        )
        self.clock = 0
        self.trace = Trace()
        self.nodes: dict[str, _NodeRt] = {}
        self.apps: dict[str, _App] = {}
        self.last_connect: Optional[dict] = None
        self._next_ip = 0
        self._labels_by_host: dict[HostId, str] = {}
        self._ext_conns: dict[str, SimStream] = {}
        self._started = False

    # --- topology ---

    def start_node(
        self,
        label: str,
        join: Optional[str] = None,
        gateway: bool = False,
        strategy: Optional[SelectionStrategy] = None,
        ip: Optional[str] = None,
    ) -> _NodeRt:
        if label in self.nodes:
            raise ScriptError(f"node {label} already started")
        if ip is None:
            self._next_ip += 1
            ip = _FIRST_HOST_IP + self._next_ip
        host_ip = IPv4Address(ip)
        rng = random.Random(f"{self.seed}:{label}")
        host_id = new_host_id(rng)
        self.network.register_node(host_ip)
        join_addr = None
        if join is not None:
            peer = self.nodes.get(join)
            if peer is None:
                raise ScriptError(f"join peer {join} not started")
            join_addr = peer.gossip_addr
        config = NodeConfig(
            bind=RealEndpoint(host_ip, GOSSIP_PORT),
            join=join_addr,
            gateway=gateway,
            strategy=strategy or SelectionStrategy(),
        )
        fabric = SimFabric(self.network, host_ip, lambda: self.clock)
        node = Node(config, host_id, rng, fabric)
        rt = _NodeRt(label=label, node=node, host_ip=host_ip)
        self.nodes[label] = rt
        self._labels_by_host[host_id] = label
        self.network.listen_dgram(
            rt.gossip_addr,
            lambda data, source, r=rt: self._deliver_envelope(r, data, source),
        )
        return rt

    def _deliver_envelope(self, rt: _NodeRt, data: bytes, source: RealEndpoint) -> None:
        replies = rt.node.on_envelope(data, source, self.clock)
        self._send_outbound(rt, replies)

    def _send_outbound(self, rt: _NodeRt, outbound) -> None:
        for dest, env in outbound:
            data = encode_envelope(env)
            sent = self.network.send_dgram(
                rt.gossip_addr,
                dest,
                data,
                self.clock,
                reliable=env.kind in RELIABLE_KINDS,
            )
            self.trace.add(
                event="envelope",
                tick=self.clock,
                node=rt.label,
                to=str(dest),
                kind=env.kind.name.lower(),
                size=len(data),
                sha256=hashlib.sha256(data).hexdigest(),
                sent=sent,
            )

    # --- apps ---

    def add_app(self, node_label: str, app_label: str, spec_args: list[str]) -> _App:
        rt = self._node(node_label)
        if app_label in self.apps:
            raise ScriptError(f"app {app_label} already added")
        spec = parse_app_spec(spec_args)
        identity = rt.node.add_app(spec, app_id=app_label)
        channel = InProcChannel(
            app_label, rt.node.dispatch_trap, sink=partial(self._trace_trap, rt.label)
        )
        app = _App(app_label, rt, SocketShim(channel), identity)
        self.apps[app_label] = app
        return app

    def _trace_trap(
        self, node_label: str, app_id: str, req: TrapRequest, reply: TrapReply
    ) -> None:
        self.trace.add(
            event="trap",
            tick=self.clock,
            node=node_label,
            app=app_id,
            op=_OP_NAMES[req.op],
            status=reply.status,
            handle=reply.handle,
            addr=_fmt_addr(reply.addr),
            size=len(reply.payload),
        )

    def serve(self, app_label: str, port: int) -> None:
        app = self._app(app_label)
        handle = app.shim.socket(HandleKind.STREAM)
        app.shim.bind(handle, (IPv4Address("0.0.0.0"), port))
        app.shim.listen(handle)
        app.serving.append(handle)

    def connect(self, app_label: str, dest: tuple[IPv4Address, int]) -> dict:
        app = self._app(app_label)
        result = {
            "event": "connect",
            "tick": self.clock,
            "client": app_label,
            "dest": f"{dest[0]}:{dest[1]}",
            "status": "ok",
            "channel": None,
        }
        try:
            handle = app.shim.socket(HandleKind.STREAM)
            transport = app.shim.connect(handle, dest)
            app.shim.getsockname(handle)
            app.shim.getpeername(handle)
            assert isinstance(transport, SimStream)
            app.last_transport = transport
            # A same-host pair's stream is addressed to "local".
            result["channel"] = "local" if transport.dest == "local" else "remote"
        except AppNetError as exc:
            result["status"] = type(exc).__name__.lower()
        self.last_connect = result
        self.trace.add(**result)
        return result

    def transfer(self, app_label: str, total: int) -> int:
        """Echo round-trip over the app's last connection; needs an accepted peer."""
        app = self._app(app_label)
        transport = app.last_transport
        assert transport is not None, f"{app_label} has no connection"
        sent, echoed = _echo_round_trip(transport, total, b"\xa5")
        if sent < total:
            raise BrokenPipeError(f"{app_label}'s connection was reset")
        self.trace.add(
            event="transfer", tick=self.clock, app=app_label, sent=sent, echoed=echoed
        )
        return echoed

    def resolve(self, app_label: str, name: str) -> tuple[str, Optional[IPv4Address], Optional[int]]:
        """Full-path DNS lookup: a datagram to port 53 through the trap layer."""
        app = self._app(app_label)
        if app.dgram_handle is None:
            app.dgram_handle = app.shim.socket(HandleKind.DATAGRAM)
        query = names.build_query(0x1234, name)
        app.shim.sendto(app.dgram_handle, (IPv4Address("127.0.0.1"), 53), query)
        _, response = app.shim.recvfrom(app.dgram_handle)
        _, rcode, vip, ttl = names.parse_answer(response)
        status = {
            names.RCODE_OK: "ok",
            names.RCODE_NXDOMAIN: "nxdomain",
            names.RCODE_SERVFAIL: "servfail",
            names.RCODE_NOTIMP: "notimplemented",
        }.get(rcode, str(rcode))
        self.trace.add(
            event="resolve",
            tick=self.clock,
            app=app_label,
            name=name,
            status=status,
            vip=str(vip) if vip else None,
            ttl=ttl,
        )
        return status, vip, ttl

    def raw_connect(self, node_label: str, dest_key: ServiceKey) -> str:
        """An unmanaged peer dialing a real endpoint directly, no preamble."""
        rt = self._node(node_label)
        entries = rt.node.table.lookup(dest_key)
        if not entries:
            return "nosuchservice"
        transport = self._dial(rt.host_ip, entries[0].real)
        status = "refused" if transport is None else "accepted"
        self.trace.add(
            event="rawconnect", tick=self.clock, node=node_label,
            dest=str(dest_key), status=status,
        )
        return status

    def external_connect(self, node_label: str, port: int) -> dict:
        rt = self._node(node_label)
        result = {
            "event": "extconnect",
            "tick": self.clock,
            "gateway": node_label,
            "port": port,
            "status": "ok",
        }
        transport = self._dial("ext", RealEndpoint(rt.host_ip, port))
        if transport is None:
            result["status"] = "refused"
        else:
            self._ext_conns[node_label] = transport
        self.trace.add(**result)
        return result

    def _dial(self, source_ip: object, dest: RealEndpoint) -> Optional[SimStream]:
        """An unmanaged peer's connect, with no preamble: the stream, or None
        when it is refused or the listener closed it at once."""
        try:
            transport = self.network.connect_stream(source_ip, dest, b"")
        except ConnRefused:
            return None
        return None if transport.peer_closed else transport

    def external_transfer(self, node_label: str, total: int) -> dict:
        transport = self._ext_conns.get(node_label)
        result = {
            "event": "exttransfer",
            "tick": self.clock,
            "gateway": node_label,
            "status": "ok",
            "echoed": 0,
        }
        if transport is None:
            result["status"] = "noconn"
            self.trace.add(**result)
            return result
        sent, echoed = _echo_round_trip(transport, total, b"\x5a")
        result["echoed"] = echoed
        if sent < total:
            result["status"] = "reset"
        elif echoed != total:
            result["status"] = "short"
        self.trace.add(**result)
        return result

    def crash(self, node_label: str) -> None:
        self.network.crash_node(self._node(node_label).host_ip)

    def remove_app(self, app_label: str) -> int:
        app = self.apps.pop(app_label, None)
        if app is None:
            raise ScriptError(f"no app {app_label}")
        app.shim.channel.detached = True
        return app.node_rt.node.remove_app(app_label)

    def partition(self, sides: str) -> None:
        side_texts = sides.split("|")
        if len(side_texts) != 2:
            raise ScriptError(f"partition needs two sides, got {sides!r}")
        groups = [
            {self._node(lbl).host_ip for lbl in side.split(",") if lbl}
            for side in side_texts
        ]
        self.network.partition(groups[0], groups[1])

    def heal(self) -> None:
        self.network.heal()

    # --- stepping ---

    def run_until(self, tick: int, script_events=None) -> None:
        events = script_events or []
        if not self._started:
            self._started = True
            self._step([e for e in events if e.tick == 0])
        while self.clock < tick:
            self.clock += 1
            self._step([e for e in events if e.tick == self.clock])

    def _step(self, events: list[ScriptEvent]) -> None:
        self.network.pump(self.clock)
        for rt in self.nodes.values():
            if self.network.is_alive(rt.host_ip):
                self._send_outbound(rt, rt.node.tick(self.clock))
        self.network.pump(self.clock)
        for app in self.apps.values():
            if self.network.is_alive(app.node_rt.host_ip):
                app.step()
        for event in events:
            self._execute(event)

    # --- script execution ---

    def _execute(self, event: ScriptEvent) -> None:
        self.trace.add(
            event="action", tick=self.clock, action=event.action, args=event.args
        )
        handler = getattr(self, f"_do_{event.action}", None)
        if handler is None:
            raise ScriptError(f"unknown action {event.action!r}")
        handler(event)

    def _do_start(self, event: ScriptEvent) -> None:
        label = event.args[0]
        kwargs: dict = {}
        for arg in event.args[1:]:
            if arg == "gateway":
                kwargs["gateway"] = True
            elif arg.startswith("join="):
                kwargs["join"] = arg.split("=", 1)[1]
            elif arg.startswith("ip="):
                kwargs["ip"] = arg.split("=", 1)[1]
            elif arg.startswith("strategy="):
                mode = StrategyMode(arg.split("=", 1)[1])
                kwargs["strategy"] = SelectionStrategy(mode=mode, seed=self.seed)
            else:
                raise ScriptError(f"unknown start option {arg!r}")
        self.start_node(label, **kwargs)

    def _do_add(self, event: ScriptEvent) -> None:
        self.add_app(event.args[0], event.args[1], list(event.args[2:]))

    def _do_serve(self, event: ScriptEvent) -> None:
        self.serve(event.args[0], int(event.args[1]))

    def _do_connect(self, event: ScriptEvent) -> None:
        app_ref = event.args[0]
        app_label = app_ref.split(":", 1)[1] if ":" in app_ref else app_ref
        dest_text = event.args[1]
        options = _options(event.args[2:])
        if dest_text.startswith("name:"):
            _, name, port = dest_text.split(":")
            status, vip, _ = self.resolve(app_label, name)
            if status != "ok":
                result = {"status": status}
                self._check_expect(options, result)
                return
            dest = (vip, int(port))
        else:
            dest = parse_endpoint(dest_text)
        result = self.connect(app_label, dest)
        self._check_expect(options, result)
        if "channel" in options and result.get("channel") != options["channel"]:
            raise AssertionFailed(self.clock, options["channel"], result.get("channel"))

    def _do_transfer(self, event: ScriptEvent) -> None:
        total = int(event.args[1])
        echoed = self.transfer(event.args[0], total)
        if echoed != total:
            raise AssertionFailed(self.clock, total, echoed)

    def _check_expect(self, options: dict, result: dict) -> None:
        expected = options.get("expect")
        if expected is not None and result["status"] != expected:
            raise AssertionFailed(self.clock, expected, result["status"])

    def _do_resolve(self, event: ScriptEvent) -> None:
        app_ref = event.args[0]
        app_label = app_ref.split(":", 1)[1] if ":" in app_ref else app_ref
        options = _options(event.args[2:])
        status, vip, _ = self.resolve(app_label, event.args[1])
        expected = options.get("expect")
        if expected is None:
            return
        observed = status if status != "ok" else str(vip)
        if observed != expected:
            raise AssertionFailed(self.clock, expected, observed)

    def _do_rawconnect(self, event: ScriptEvent) -> None:
        vip, port = parse_endpoint(event.args[1])
        status = self.raw_connect(event.args[0], ServiceKey(vip, port))
        options = _options(event.args[2:])
        self._check_expect(options, {"status": status})

    def _do_extconnect(self, event: ScriptEvent) -> None:
        options = _options(event.args[2:])
        result = self.external_connect(event.args[0], int(event.args[1]))
        self._check_expect(options, result)

    def _do_exttransfer(self, event: ScriptEvent) -> None:
        result = self.external_transfer(event.args[0], int(event.args[1]))
        if result["status"] != "ok":
            raise AssertionFailed(self.clock, "ok", result["status"])

    def _do_crash(self, event: ScriptEvent) -> None:
        self.crash(event.args[0])

    def _do_remove(self, event: ScriptEvent) -> None:
        self.remove_app(event.args[0])

    def _do_partition(self, event: ScriptEvent) -> None:
        self.partition(event.args[0])

    def _do_heal(self, event: ScriptEvent) -> None:
        self.heal()

    def _do_assert(self, event: ScriptEvent) -> None:
        predicate = event.args[0]
        checker = getattr(self, f"_assert_{predicate}", None)
        if checker is None:
            raise ScriptError(f"unknown predicate {predicate!r}")
        failure = None
        try:
            checker(event.args[1:])
        except AssertionFailed as exc:
            failure = exc
        self.trace.add(
            event="assert", tick=self.clock, predicate=predicate,
            args=event.args[1:], ok=failure is None,
        )
        if failure is not None:
            raise failure

    # --- predicates ---

    def _assert_table_count(self, args: list[str]) -> None:
        rt = self._node(args[0])
        vip, port = parse_endpoint(args[1])
        expected = int(args[2])
        observed = len(rt.node.table.lookup(ServiceKey(vip, port)))
        if observed != expected:
            raise AssertionFailed(self.clock, expected, observed)

    def _assert_converged(self, args: list[str]) -> None:
        dumps = {
            rt.label: rt.node.dump()
            for rt in self.nodes.values()
            if self.network.is_alive(rt.host_ip)
        }
        distinct = set(dumps.values())
        if len(distinct) > 1:
            raise AssertionFailed(self.clock, "identical tables", _diff_dumps(dumps))

    def _assert_member(self, args: list[str]) -> None:
        rt = self._node(args[0])
        peer = self._node(args[1])
        expected = args[2]
        record = rt.node.table.member(peer.node.host)
        observed = record.state.name.lower() if record else "unknown"
        if observed != expected:
            raise AssertionFailed(self.clock, expected, observed)

    def _assert_tombstoned(self, args: list[str]) -> None:
        rt = self._node(args[0])
        owner = self._node(args[1]).node.host
        alive = [
            e for e in rt.node.table.alive_entries() if e.host == owner
        ]
        if alive:
            raise AssertionFailed(self.clock, "no live entries", [str(e.key) for e in alive])

    def _assert_last_channel(self, args: list[str]) -> None:
        observed = (self.last_connect or {}).get("channel")
        if observed != args[0]:
            raise AssertionFailed(self.clock, args[0], observed)

    def _assert_binding(self, args: list[str]) -> None:
        rt = self._node(args[0])
        vip, port = parse_endpoint(args[1])
        binding = rt.node.table.binding_for_key(ServiceKey(vip, port))
        if args[2] == "none":
            if binding is not None:
                raise AssertionFailed(self.clock, "no binding", str(binding))
            return
        if binding is None:
            raise AssertionFailed(self.clock, args[2], "no binding")
        observed = self._labels_by_host.get(binding.gateway, binding.gateway.hex())
        if observed != args[2]:
            raise AssertionFailed(self.clock, args[2], observed)

    # --- helpers ---

    def _node(self, label: str) -> _NodeRt:
        rt = self.nodes.get(label)
        if rt is None:
            raise ScriptError(f"unknown node {label}")
        return rt

    def _app(self, label: str) -> _App:
        app = self.apps.get(label)
        if app is None:
            raise ScriptError(f"unknown app {label}")
        return app

    @property
    def host_ips(self) -> set[str]:
        return {str(rt.host_ip) for rt in self.nodes.values()}


def _fmt_addr(addr) -> Optional[str]:
    return f"{addr[0]}:{addr[1]}" if addr is not None else None


def _echo_round_trip(transport: SimStream, total: int, fill: bytes) -> tuple[int, int]:
    """Write `total` bytes of `fill` in chunks, draining the echo after each;
    returns (sent, echoed). A reset stops the writes, so `sent` falls short,
    and what was echoed before it still counts."""
    payload = fill * TRANSFER_CHUNK
    sent = echoed = 0
    while sent < total:
        chunk = payload[: min(TRANSFER_CHUNK, total - sent)]
        try:
            transport.write(chunk)
        except BrokenPipeError:
            break
        sent += len(chunk)
        echoed += len(transport.read())
    return sent, echoed + len(transport.read())


def _options(args: list[str]) -> dict[str, str]:
    out = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep:
            raise ScriptError(f"expected key=value, got {arg!r}")
        out[key] = value
    return out


def _diff_dumps(dumps: dict[str, str]) -> str:
    """Each node's line at the first line number where the dumps differ."""
    labels = sorted(dumps)
    rows = zip_longest(*(dumps[label].splitlines() for label in labels), fillvalue="<end>")
    for number, row in enumerate(rows, 1):
        if len(set(row)) > 1:
            return "\n".join(f"{label} line {number}: {line}" for label, line in zip(labels, row))
    return "no difference"


def real_endpoint_leaks(trace: Trace, host_ips: set[str]) -> list[dict]:
    """Trap replies whose address field mentions a node's real IP.

    Applications must only ever see virtual identities; any reply carrying a
    host address is an identity leak.
    """
    leaks = []
    for event in trace.of_type("trap"):
        addr = event.get("addr")
        if not addr:
            continue
        ip = addr.rsplit(":", 1)[0]
        if ip in host_ips or ip.startswith("127."):
            leaks.append(event)
    return leaks


def run_script(script: ClusterScript) -> Trace:
    return run_script_with_cluster(script)[0]


def run_script_with_cluster(script: ClusterScript) -> tuple[Trace, SimCluster]:
    cluster = SimCluster(seed=script.seed, profile=script.profile)
    cluster.run_until(script.last_tick() + 1, script.events)
    return cluster.trace, cluster
