"""Core identity types: hosts, virtual IPs, tags, and application specs.

Virtual IPs use the IPv4 format purely as an application-compatible identifier
space. Two prefixes are owned by the allocator and never accepted from users:
240.0.0.0/8 (auto-assigned vips for named apps) and 169.254.0.0/16
(link-local identities for anonymous clients).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import AddressValueError, IPv4Address, IPv4Network
from typing import Iterable, Mapping, NamedTuple, NewType, Optional, Union

from appnet.errors import InvalidName, InvalidSpec, InvalidTag, InvalidVip

AUTO_POOL = IPv4Network("240.0.0.0/8")
LINK_LOCAL_POOL = IPv4Network("169.254.0.0/16")

_FORBIDDEN_VIPS = (IPv4Address("0.0.0.0"), IPv4Address("255.255.255.255"))

MAX_TAG_KEY = 64
MAX_TAG_VALUE = 256
MAX_NAME = 253

_LABEL_RE = re.compile(r"^[A-Za-z0-9]([A-Za-z0-9-]*[A-Za-z0-9])?$")


class PoolClass(Enum):
    USER_VIRTUAL = "user"
    AUTO_POOL = "auto"
    LINK_LOCAL = "link-local"


# A node's opaque 16-byte identifier. It is plain bytes: it hashes, compares
# and orders as bytes, and renders with `.hex()`.
HostId = NewType("HostId", bytes)


def new_host_id(rng) -> HostId:
    """A fresh host id drawn from `rng`."""
    return HostId(rng.getrandbits(128).to_bytes(16, "big"))


class ServiceKey(NamedTuple):
    """The identity an application asked for: its vip plus the service port."""

    vip: IPv4Address
    port: int

    def __str__(self) -> str:
        return f"{self.vip!s}:{self.port}"


class RealEndpoint(NamedTuple):
    """Where a node actually accepts traffic for a service."""

    host_ip: IPv4Address
    port: int

    def __str__(self) -> str:
        return f"{self.host_ip!s}:{self.port}"


def parse_vip(text: str) -> IPv4Address:
    """Parse a user-supplied virtual IP, rejecting reserved pools."""
    try:
        addr = IPv4Address(text)
    except AddressValueError as exc:
        raise InvalidVip(f"malformed address {text!r}: {exc}") from exc
    if addr in _FORBIDDEN_VIPS:
        raise InvalidVip(f"{addr} is not usable as a virtual IP")
    pool = classify_vip(addr)
    if pool is not PoolClass.USER_VIRTUAL:
        raise InvalidVip(f"{addr} falls in the allocator-owned {pool.value} pool")
    return addr


def classify_vip(addr: IPv4Address) -> PoolClass:
    """Classify an address into exactly one pool by longest-prefix match."""
    if addr in LINK_LOCAL_POOL:
        return PoolClass.LINK_LOCAL
    if addr in AUTO_POOL:
        return PoolClass.AUTO_POOL
    return PoolClass.USER_VIRTUAL


def parse_endpoint(text: str) -> tuple[IPv4Address, int]:
    """Parse "ip:port" into its parts."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise InvalidSpec(f"expected ip:port, got {text!r}")
    try:
        addr = IPv4Address(host)
        port = int(port_text)
    except (AddressValueError, ValueError) as exc:
        raise InvalidSpec(f"expected ip:port, got {text!r}") from exc
    if not 0 <= port <= 65535:
        raise InvalidSpec(f"port out of range in {text!r}")
    return addr, port


@dataclass(frozen=True)
class TagSet:
    """Key-value attributes qualifying an application's identity.

    Keys map to non-empty value sets; repeated key=value inputs deduplicate.
    """

    entries: Mapping[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, pairs: Iterable[str]) -> "TagSet":
        merged: dict[str, set[str]] = {}
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not sep:
                raise InvalidTag(f"missing '=' in tag {pair!r}")
            if not key or not value:
                raise InvalidTag(f"empty key or value in tag {pair!r}")
            if len(key) > MAX_TAG_KEY or "=" in key or any(c.isspace() for c in key):
                raise InvalidTag(f"bad tag key {key!r}")
            if len(value) > MAX_TAG_VALUE:
                raise InvalidTag(f"tag value too long for key {key!r}")
            merged.setdefault(key, set()).add(value)
        return cls({k: frozenset(v) for k, v in merged.items()})

    def values(self, key: str) -> frozenset[str]:
        return self.entries.get(key, frozenset())

    def union(self, other: "TagSet") -> "TagSet":
        merged = {k: set(v) for k, v in self.entries.items()}
        for k, v in other.entries.items():
            merged.setdefault(k, set()).update(v)
        return TagSet({k: frozenset(v) for k, v in merged.items()})

    def pairs(self) -> list[str]:
        """Render back to sorted "key=value" strings."""
        return sorted(f"{k}={v}" for k, vs in self.entries.items() for v in vs)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagSet):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __str__(self) -> str:
        return ",".join(self.pairs()) if self.entries else "-"


def validate_name(name: str) -> str:
    if not name or len(name) > MAX_NAME:
        raise InvalidName(f"name {name!r} is empty or too long")
    for label in name.split("."):
        if not _LABEL_RE.match(label):
            raise InvalidName(f"bad label {label!r} in name {name!r}")
    return name


ExposeRequest = Union[int, str, None]  # port number, "auto", or no exposure


@dataclass(frozen=True)
class AppSpec:
    """Operator-supplied identity for an application."""

    name: Optional[str] = None
    vip: Optional[IPv4Address] = None
    tags: TagSet = field(default_factory=TagSet)
    expose: ExposeRequest = None


def parse_app_spec(args: list[str]) -> AppSpec:
    """Parse spec flags: --name N, --ip A, --tag k=v (repeatable), --expose [port]."""
    name: Optional[str] = None
    vip: Optional[IPv4Address] = None
    tag_pairs: list[str] = []
    expose: ExposeRequest = None

    i = 0
    while i < len(args):
        flag = args[i]
        if flag == "--name":
            name = validate_name(_flag_value(args, i))
            i += 2
        elif flag == "--ip":
            vip = parse_vip(_flag_value(args, i))
            i += 2
        elif flag == "--tag":
            tag_pairs.append(_flag_value(args, i))
            i += 2
        elif flag == "--expose":
            expose, i = _parse_expose(args, i)
        else:
            raise InvalidSpec(f"unknown flag {flag!r}")
    return AppSpec(name=name, vip=vip, tags=TagSet.from_pairs(tag_pairs), expose=expose)


def _flag_value(args: list[str], i: int) -> str:
    if i + 1 >= len(args):
        raise InvalidSpec(f"flag {args[i]!r} needs a value")
    return args[i + 1]


def _parse_expose(args: list[str], i: int) -> tuple[ExposeRequest, int]:
    nxt = args[i + 1] if i + 1 < len(args) else None
    if nxt is None or nxt.startswith("--"):
        return "auto", i + 1
    if nxt == "auto":
        return "auto", i + 2
    if nxt.isdigit():
        port = int(nxt)
        if not 1 <= port <= 65535:
            raise InvalidSpec(f"expose port {port} out of range")
        return port, i + 2
    raise InvalidSpec(f"--expose takes a port or 'auto', got {nxt!r}")


def render_app_spec(spec: AppSpec) -> list[str]:
    """Inverse of parse_app_spec for valid specs."""
    out: list[str] = []
    if spec.name is not None:
        out += ["--name", spec.name]
    if spec.vip is not None:
        out += ["--ip", str(spec.vip)]
    for pair in spec.tags.pairs():
        out += ["--tag", pair]
    if spec.expose is not None:
        out += ["--expose", str(spec.expose)]
    return out


@dataclass(frozen=True)
class AppIdentity:
    """A registered application: spec plus the resolved effective vip."""

    app_id: str
    host: HostId
    spec: AppSpec
    effective_vip: IPv4Address

    @property
    def is_identified(self) -> bool:
        """True when the app carries an operator-visible identity."""
        return self.spec.name is not None or self.spec.vip is not None
