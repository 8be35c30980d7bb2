"""External exposure through designated gateway nodes: gateway, port and tag policy.

A binding (service_table.GatewayBinding) ties a service key to one (gateway,
external port) pair and replicates in the service table. The gateway that owns
it proxies each connection on the external port inward as a synthetic client;
the proxy is the one place this system sits on the data path.
"""

from __future__ import annotations

from typing import Iterable, Union

from appnet.errors import NoGateway, PortUnavailable
from appnet.model import HostId, TagSet
from appnet.service_table import GatewayBinding

EXTERNAL_PORT_MIN = 30000
EXTERNAL_PORT_MAX = 32767

# Synthetic clients minted for proxied sessions always carry this group value,
# so operators can admit external traffic explicitly via a server-side tag.
EXTERNAL_GROUP = "__external__"


def choose_gateway(gateways: Iterable[HostId]) -> HostId:
    """Deterministic choice: the lowest live gateway id."""
    lowest = min(gateways, default=None)
    if lowest is None:
        raise NoGateway("no live gateway in the cluster")
    return lowest


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
