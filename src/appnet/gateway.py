"""External exposure through designated gateway nodes.

A binding ties a service key to one (gateway, external port) pair. Bindings
replicate alongside service entries, so every node can see which external
ports are spoken for. The gateway that owns a binding listens on the external
port and proxies each accepted connection inward as a synthetic client; the
proxy is the one place this system sits on the data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from appnet import wire
from appnet.errors import NoGateway, PortUnavailable
from appnet.model import HostId, ServiceKey, TagSet

EXTERNAL_PORT_MIN = 30000
EXTERNAL_PORT_MAX = 32767

# Synthetic clients minted for proxied sessions always carry this group value,
# so operators can admit external traffic explicitly via a server-side tag.
EXTERNAL_GROUP = "__external__"


class BindingState(Enum):
    ACTIVE = 0
    RELEASED = 1


@dataclass(frozen=True)
class GatewayBinding:
    key: ServiceKey
    gateway: HostId
    external_port: int
    state: BindingState
    incarnation: int
    admit: TagSet

    @property
    def binding_id(self) -> tuple[HostId, int]:
        return (self.gateway, self.external_port)


def encode_binding(b: GatewayBinding) -> bytes:
    w = wire.Writer()
    w.ip4(b.key.vip).u16(b.key.port)
    w.raw(b.gateway.raw)
    w.u16(b.external_port)
    w.u8(b.state.value)
    w.u64(b.incarnation)
    pairs = b.admit.pairs()
    w.u16(len(pairs))
    for pair in pairs:
        w.lp16(pair.encode())
    return w.getvalue()


def decode_binding(data: bytes) -> GatewayBinding:
    r = wire.Reader(data)
    vip = r.ip4()
    port = r.u16()
    gateway = HostId(r.raw(16))
    external_port = r.u16()
    state = BindingState(r.u8())
    incarnation = r.u64()
    pairs = [r.lp16().decode() for _ in range(r.u16())]
    r.expect_end()
    return GatewayBinding(
        key=ServiceKey(vip, port),
        gateway=gateway,
        external_port=external_port,
        state=state,
        incarnation=incarnation,
        admit=TagSet.from_pairs(pairs),
    )


def choose_gateway(gateways: Iterable[HostId]) -> HostId:
    """Deterministic choice: the lowest live gateway id."""
    ordered = sorted(gateways)
    if not ordered:
        raise NoGateway("no live gateway in the cluster")
    return ordered[0]


def pick_external_port(
    requested: Union[int, str], taken: set[int]
) -> int:
    if requested != "auto":
        port = int(requested)
        if port in taken:
            raise PortUnavailable(f"external port {port} already bound")
        return port
    for port in range(EXTERNAL_PORT_MIN, EXTERNAL_PORT_MAX + 1):
        if port not in taken:
            return port
    raise PortUnavailable("external port range exhausted")


def synthetic_client_tags(binding: GatewayBinding) -> TagSet:
    """Tags the proxy presents when connecting inward on behalf of an external peer."""
    return TagSet.from_pairs([f"grp={EXTERNAL_GROUP}"]).union(binding.admit)
